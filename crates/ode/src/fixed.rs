//! Explicit fixed-step integration: the classic RK4 method.
//!
//! The circuit simulator steps ring-oscillator node voltages with a time
//! step pinned well below the oscillation period, so a fixed-step explicit
//! method is the right tool (and keeps the hot loop allocation-free).

use crate::system::OdeSystem;

/// A fixed-step explicit one-step method.
///
/// This trait is sealed in spirit: the workspace's solvers are generic over
/// it, but downstream implementations are also fine — the contract is just
/// "advance `y` from `t` to `t + dt`".
pub trait FixedStepper {
    /// Advances `y` in place by one step `dt` starting at time `t`.
    fn step<S: OdeSystem>(&mut self, sys: &S, t: f64, y: &mut [f64], dt: f64);

    /// Classical convergence order of the method (4 for RK4); exposed so
    /// tests can verify observed order.
    fn order(&self) -> usize;

    /// Integrates from `t0` to `t1` with steps of at most `dt`, shrinking
    /// the final step to land exactly on `t1`.
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0` or `t1 < t0`.
    fn integrate<S: OdeSystem>(&mut self, sys: &S, y: &mut [f64], t0: f64, t1: f64, dt: f64) {
        assert!(dt > 0.0, "step size must be positive");
        assert!(t1 >= t0, "t1 must be >= t0");
        let mut t = t0;
        while t < t1 {
            let h = dt.min(t1 - t);
            self.step(sys, t, y, h);
            t += h;
        }
    }

    /// Like [`FixedStepper::integrate`] but invokes `observe(t, y)` after
    /// every step (and once at `t0` before stepping).
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0` or `t1 < t0`.
    fn integrate_observed<S: OdeSystem>(
        &mut self,
        sys: &S,
        y: &mut [f64],
        t0: f64,
        t1: f64,
        dt: f64,
        mut observe: impl FnMut(f64, &[f64]),
    ) {
        assert!(dt > 0.0, "step size must be positive");
        assert!(t1 >= t0, "t1 must be >= t0");
        observe(t0, y);
        let mut t = t0;
        while t < t1 {
            let h = dt.min(t1 - t);
            self.step(sys, t, y, h);
            t += h;
            observe(t, y);
        }
    }
}

/// The classic fourth-order Runge–Kutta method — the workhorse for the
/// circuit-level waveform simulations.
#[derive(Debug, Clone, Default)]
pub struct Rk4 {
    k1: Vec<f64>,
    k2: Vec<f64>,
    k3: Vec<f64>,
    k4: Vec<f64>,
    ytmp: Vec<f64>,
}

impl Rk4 {
    /// Creates an RK4 stepper.
    pub fn new() -> Self {
        Self::default()
    }
}

impl FixedStepper for Rk4 {
    #[allow(clippy::needless_range_loop)] // lockstep walk over k1..k4/ytmp/y
    fn step<S: OdeSystem>(&mut self, sys: &S, t: f64, y: &mut [f64], dt: f64) {
        let n = sys.dim();
        self.k1.resize(n, 0.0);
        self.k2.resize(n, 0.0);
        self.k3.resize(n, 0.0);
        self.k4.resize(n, 0.0);
        self.ytmp.resize(n, 0.0);

        sys.eval(t, y, &mut self.k1);
        for i in 0..n {
            self.ytmp[i] = y[i] + 0.5 * dt * self.k1[i];
        }
        sys.eval(t + 0.5 * dt, &self.ytmp, &mut self.k2);
        for i in 0..n {
            self.ytmp[i] = y[i] + 0.5 * dt * self.k2[i];
        }
        sys.eval(t + 0.5 * dt, &self.ytmp, &mut self.k3);
        for i in 0..n {
            self.ytmp[i] = y[i] + dt * self.k3[i];
        }
        sys.eval(t + dt, &self.ytmp, &mut self.k4);
        for i in 0..n {
            y[i] += dt / 6.0 * (self.k1[i] + 2.0 * self.k2[i] + 2.0 * self.k3[i] + self.k4[i]);
        }
    }

    fn order(&self) -> usize {
        4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::FnSystem;

    fn decay() -> FnSystem<impl Fn(f64, &[f64], &mut [f64])> {
        FnSystem::new(1, |_t, y: &[f64], d: &mut [f64]| d[0] = -y[0])
    }

    fn harmonic() -> FnSystem<impl Fn(f64, &[f64], &mut [f64])> {
        FnSystem::new(2, |_t, y: &[f64], d: &mut [f64]| {
            d[0] = y[1];
            d[1] = -y[0];
        })
    }

    /// Integrate decay over [0,1] at two step sizes and estimate the observed
    /// convergence order from the error ratio.
    fn observed_order<M: FixedStepper>(mut m: M) -> f64 {
        let sys = decay();
        let exact = (-1.0f64).exp();
        let mut err = [0.0f64; 2];
        for (i, &dt) in [1e-2, 5e-3].iter().enumerate() {
            let mut y = vec![1.0];
            m.integrate(&sys, &mut y, 0.0, 1.0, dt);
            err[i] = (y[0] - exact).abs();
        }
        (err[0] / err[1]).log2()
    }

    #[test]
    fn rk4_fourth_order() {
        let p = observed_order(Rk4::new());
        assert!((p - 4.0).abs() < 0.2, "observed order {p}");
        assert_eq!(Rk4::new().order(), 4);
    }

    #[test]
    fn rk4_energy_conservation_harmonic() {
        // RK4 on the harmonic oscillator keeps energy to ~1e-10 over 10 periods.
        let sys = harmonic();
        let mut y = vec![1.0, 0.0];
        Rk4::new().integrate(&sys, &mut y, 0.0, 20.0 * std::f64::consts::PI, 1e-3);
        let energy = y[0] * y[0] + y[1] * y[1];
        assert!((energy - 1.0).abs() < 1e-9, "energy drift {energy}");
    }

    #[test]
    fn integrate_lands_exactly_on_t1() {
        let sys = decay();
        let mut y = vec![1.0];
        // dt = 0.3 does not divide 1.0: the last step must shrink. Were the
        // integrator to overshoot to t = 1.2, the error would be ~0.07;
        // RK4's own global error at dt = 0.3 is only ~1e-4.
        Rk4::new().integrate(&sys, &mut y, 0.0, 1.0, 0.3);
        assert!((y[0] - (-1.0f64).exp()).abs() < 1e-3);
    }

    #[test]
    fn observed_integration_samples_endpoints() {
        let sys = decay();
        let mut y = vec![1.0];
        let mut ts = Vec::new();
        Rk4::new().integrate_observed(&sys, &mut y, 0.0, 1.0, 0.25, |t, _| ts.push(t));
        assert_eq!(ts.first(), Some(&0.0));
        assert_eq!(ts.last(), Some(&1.0));
        assert_eq!(ts.len(), 5);
    }

    #[test]
    fn zero_length_interval_is_noop() {
        let sys = decay();
        let mut y = vec![1.0];
        Rk4::new().integrate(&sys, &mut y, 1.0, 1.0, 0.1);
        assert_eq!(y[0], 1.0);
    }

    #[test]
    #[should_panic(expected = "step size must be positive")]
    fn rejects_nonpositive_dt() {
        let sys = decay();
        let mut y = vec![1.0];
        Rk4::new().integrate(&sys, &mut y, 0.0, 1.0, 0.0);
    }
}
