//! Property-based tests of the integrators on randomly parameterized
//! systems with known closed-form solutions.

use msropm_ode::fixed::{FixedStepper, Rk4};
use msropm_ode::sde::{EulerMaruyama, SdeStepper};
use msropm_ode::system::{OdeSystem, SdeSystem};
use proptest::prelude::*;

/// Diagonal linear system dy_i/dt = -a_i y_i with exact solution
/// y_i(t) = y_i(0) exp(-a_i t).
struct Diagonal {
    rates: Vec<f64>,
    noise: f64,
}

impl OdeSystem for Diagonal {
    fn dim(&self) -> usize {
        self.rates.len()
    }
    fn eval(&self, _t: f64, y: &[f64], dydt: &mut [f64]) {
        for (d, (&a, &yi)) in dydt.iter_mut().zip(self.rates.iter().zip(y)) {
            *d = -a * yi;
        }
    }
}

impl SdeSystem for Diagonal {
    fn diffusion(&self, _t: f64, _y: &[f64], g: &mut [f64]) {
        for gi in g.iter_mut() {
            *gi = self.noise;
        }
    }
}

proptest! {
    #[test]
    fn rk4_matches_exponential_decay(
        rates in proptest::collection::vec(0.05f64..2.0, 1..6),
        y0 in proptest::collection::vec(-3.0f64..3.0, 6),
    ) {
        let n = rates.len();
        let sys = Diagonal { rates: rates.clone(), noise: 0.0 };
        let mut y = y0[..n].to_vec();
        let initial = y.clone();
        Rk4::new().integrate(&sys, &mut y, 0.0, 2.0, 1e-3);
        for i in 0..n {
            let exact = initial[i] * (-rates[i] * 2.0).exp();
            prop_assert!((y[i] - exact).abs() < 1e-8, "component {i}: {} vs {exact}", y[i]);
        }
    }

    #[test]
    fn sde_with_zero_noise_is_deterministic(
        rate in 0.1f64..2.0,
        seed in 0u64..1000,
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let sys = Diagonal { rates: vec![rate], noise: 0.0 };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut y = vec![1.0];
        EulerMaruyama::new().integrate(&sys, &mut y, 0.0, 1.0, 1e-3, &mut rng);
        let exact = (-rate * 1.0f64).exp();
        prop_assert!((y[0] - exact).abs() < 2e-3, "{} vs {exact}", y[0]);
    }

    #[test]
    fn integration_is_time_additive(rate in 0.1f64..1.5) {
        // Integrating [0, 2] equals integrating [0, 1] then [1, 2].
        let sys = Diagonal { rates: vec![rate], noise: 0.0 };
        let mut whole = vec![1.0];
        Rk4::new().integrate(&sys, &mut whole, 0.0, 2.0, 1e-3);
        let mut split = vec![1.0];
        let mut stepper = Rk4::new();
        stepper.integrate(&sys, &mut split, 0.0, 1.0, 1e-3);
        stepper.integrate(&sys, &mut split, 1.0, 2.0, 1e-3);
        prop_assert!((whole[0] - split[0]).abs() < 1e-12);
    }
}
