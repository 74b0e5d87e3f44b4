//! Stochastic integrators with diagonal additive noise.
//!
//! Oscillator jitter — the mechanism the paper uses both to randomize
//! initial phases ("ROSCs are initially turned on at random time instances
//! and set free ... to randomly drift apart from each other through jitter",
//! §4) and to keep the annealing stochastic — is white phase noise. The
//! standard model is the Itô SDE `dθ = f(θ)dt + σ dW`, which Euler–Maruyama
//! integrates at strong order 1/2 (order 1 for additive noise).

use crate::system::SdeSystem;
use rand::Rng;

/// Draws a standard normal deviate.
///
/// This is the single Gaussian sampler of the workspace: every noise
/// consumer (scalar steppers, the compiled kernels, the multi-replica
/// batch fill, frequency-spread sampling) draws through it or through
/// [`fill_normal_batch`], which runs the same ziggurat code, so the solo
/// and batch RNG streams that the bit-identity contracts compare can
/// never desynchronize.
///
/// The sampler is the 256-layer ziggurat (Marsaglia & Tsang). One `u64`
/// resolves the layer, the sign and a 53-bit uniform; ~98.8% of draws
/// accept immediately with a single multiply and compare. Rejections
/// fall through to the exact wedge test (`exp`), and the base layer
/// samples the tail beyond `r ≈ 3.654` with Marsaglia's exponential
/// method — the distribution is exact, not truncated.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    ziggurat(rng, ziggurat_tables())
}

/// The ziggurat tables for the standard normal (Marsaglia & Tsang
/// layout, 256 layers): `x[i]` are the layer abscissae in decreasing
/// order (`x[0]` spans the base layer including the tail beyond
/// `ZIGGURAT_R`; `x[256] = 0`), `f[i] = exp(-x[i]²/2)`.
struct ZigguratTables {
    x: [f64; 257],
    f: [f64; 257],
}

/// Tail boundary `r` for 256 layers.
const ZIGGURAT_R: f64 = 3.654_152_885_361_009;
/// Common layer area `v` (the base layer's rectangle + tail both equal
/// it).
const ZIGGURAT_V: f64 = 0.004_928_673_233_992_336;

fn ziggurat_tables() -> &'static ZigguratTables {
    use std::sync::OnceLock;
    static TABLES: OnceLock<ZigguratTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let pdf = |x: f64| (-0.5 * x * x).exp();
        let mut x = [0.0; 257];
        let mut f = [0.0; 257];
        // Base layer: its rectangle [0, x0] × [0, f(r)] plus the tail
        // beyond r carries area v, so x0 = v / f(r) > r.
        x[0] = ZIGGURAT_V / pdf(ZIGGURAT_R);
        x[1] = ZIGGURAT_R;
        for i in 2..256 {
            // Each layer i has area x[i-1] · (f(x[i]) − f(x[i-1])) = v.
            let fx = pdf(x[i - 1]) + ZIGGURAT_V / x[i - 1];
            x[i] = (-2.0 * fx.ln()).sqrt();
        }
        x[256] = 0.0;
        for i in 0..257 {
            f[i] = pdf(x[i]);
        }
        ZigguratTables { x, f }
    })
}

/// One ziggurat draw against pre-fetched tables: the accept test of the
/// common case inline, everything else in [`ziggurat_miss`].
#[inline(always)]
fn ziggurat<R: Rng + ?Sized>(rng: &mut R, t: &ZigguratTables) -> f64 {
    let bits = rng.gen::<u64>();
    let i = (bits & 0xFF) as usize;
    let x = (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64) * t.x[i];
    if x < t.x[i + 1] {
        // Inside the strictly-under-the-curve rectangle of layer i. Bit 8
        // is the sign: moved onto the sign bit it negates `x` exactly,
        // with no 50/50 branch to mispredict.
        return f64::from_bits(x.to_bits() ^ ((bits & 0x100) << 55));
    }
    ziggurat_miss(rng, t, bits)
}

/// The rare (~1.2%) rest of a ziggurat draw whose first word `bits`
/// missed its layer's rectangle: the tail or wedge test, then fresh
/// words until one accepts. It consumes RNG words in exactly the order
/// of the textbook loop (re-testing `bits`' rectangle first is a
/// repeat of the miss, so it draws nothing).
#[cold]
#[inline(never)]
fn ziggurat_miss<R: Rng + ?Sized>(rng: &mut R, t: &ZigguratTables, mut bits: u64) -> f64 {
    loop {
        let i = (bits & 0xFF) as usize;
        let sign = if bits & 0x100 != 0 { -1.0 } else { 1.0 };
        let x = (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64) * t.x[i];
        if x < t.x[i + 1] {
            return sign * x;
        }
        if i == 0 {
            // Base layer miss: sample the tail x > r exactly.
            loop {
                let u1: f64 = 1.0 - rng.gen::<f64>();
                let u2: f64 = 1.0 - rng.gen::<f64>();
                let xt = -u1.ln() / ZIGGURAT_R;
                let yt = -u2.ln();
                if 2.0 * yt > xt * xt {
                    return sign * (xt + ZIGGURAT_R);
                }
            }
        }
        // Wedge: uniform y between the layer's bounding ordinates,
        // accept under the true pdf.
        let y = t.f[i + 1] + (t.f[i] - t.f[i + 1]) * rng.gen::<f64>();
        if y < (-0.5 * x * x).exp() {
            return sign * x;
        }
        bits = rng.gen::<u64>();
    }
}

/// Fills `out` with standard normals for a **multi-replica** SDE step.
///
/// `out` is laid out node-major, replica-minor (`out[i*R + r]` is node `i`
/// of replica `r`, with `R = rngs.len()`). Each replica draws from its own
/// generator, and — the property batch solvers rely on — replica `r`'s
/// deviates appear in exactly the order a *sequential* per-replica
/// integration drawing one deviate per node would produce. Replacing a
/// loop of independent runs with one interleaved batch therefore consumes
/// identical per-replica RNG streams and reproduces results bit for bit.
///
/// # Panics
///
/// Panics if `rngs` is empty or `out.len()` is not a multiple of
/// `rngs.len()`.
pub fn fill_normal_batch<R: Rng>(out: &mut [f64], rngs: &mut [R]) {
    let replicas = rngs.len();
    assert!(replicas > 0, "need at least one replica RNG");
    assert_eq!(
        out.len() % replicas,
        0,
        "buffer length {} not a multiple of replica count {replicas}",
        out.len()
    );
    // Fetch the tables once per fill rather than once per draw. Lanes
    // are filled one at a time, each down its strided column: a lane's
    // deviates still come in node order, and its generator state stays
    // in registers instead of being reloaded for every draw.
    let tables = ziggurat_tables();
    for (r, rng) in rngs.iter_mut().enumerate() {
        for slot in out.iter_mut().skip(r).step_by(replicas) {
            *slot = ziggurat(rng, tables);
        }
    }
}

/// A one-step SDE integrator with diagonal noise.
pub trait SdeStepper {
    /// Advances `y` in place by one step `dt` at time `t`, drawing Wiener
    /// increments from `rng`.
    fn step<S: SdeSystem, R: Rng + ?Sized>(
        &mut self,
        sys: &S,
        t: f64,
        y: &mut [f64],
        dt: f64,
        rng: &mut R,
    );

    /// Integrates from `t0` to `t1` with steps of at most `dt`.
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0` or `t1 < t0`.
    fn integrate<S: SdeSystem, R: Rng + ?Sized>(
        &mut self,
        sys: &S,
        y: &mut [f64],
        t0: f64,
        t1: f64,
        dt: f64,
        rng: &mut R,
    ) {
        assert!(dt > 0.0, "step size must be positive");
        assert!(t1 >= t0, "t1 must be >= t0");
        let mut t = t0;
        while t < t1 {
            let h = dt.min(t1 - t);
            self.step(sys, t, y, h, rng);
            t += h;
        }
    }

    /// Like [`SdeStepper::integrate`] with an observer after every step (and
    /// once at `t0`).
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0` or `t1 < t0`.
    #[allow(clippy::too_many_arguments)]
    fn integrate_observed<S: SdeSystem, R: Rng + ?Sized>(
        &mut self,
        sys: &S,
        y: &mut [f64],
        t0: f64,
        t1: f64,
        dt: f64,
        rng: &mut R,
        mut observe: impl FnMut(f64, &[f64]),
    ) {
        assert!(dt > 0.0, "step size must be positive");
        assert!(t1 >= t0, "t1 must be >= t0");
        observe(t0, y);
        let mut t = t0;
        while t < t1 {
            let h = dt.min(t1 - t);
            self.step(sys, t, y, h, rng);
            t += h;
            observe(t, y);
        }
    }
}

/// Euler–Maruyama: `y += f dt + g √dt ξ`, `ξ ~ N(0, 1)`.
#[derive(Debug, Clone, Default)]
pub struct EulerMaruyama {
    drift: Vec<f64>,
    diff: Vec<f64>,
}

impl EulerMaruyama {
    /// Creates an Euler–Maruyama stepper.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SdeStepper for EulerMaruyama {
    #[allow(clippy::needless_range_loop)] // lockstep walk over drift/diff/y
    fn step<S: SdeSystem, R: Rng + ?Sized>(
        &mut self,
        sys: &S,
        t: f64,
        y: &mut [f64],
        dt: f64,
        rng: &mut R,
    ) {
        let n = sys.dim();
        self.drift.resize(n, 0.0);
        self.diff.resize(n, 0.0);
        sys.eval(t, y, &mut self.drift);
        sys.diffusion(t, y, &mut self.diff);
        let sqrt_dt = dt.sqrt();
        for i in 0..n {
            let xi = standard_normal(rng);
            y[i] += dt * self.drift[i] + sqrt_dt * self.diff[i] * xi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{OdeSystem, SdeSystem};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Ornstein–Uhlenbeck process dx = -a x dt + s dW with known stationary
    /// variance s^2 / (2a).
    struct Ou {
        a: f64,
        s: f64,
    }

    impl OdeSystem for Ou {
        fn dim(&self) -> usize {
            1
        }
        fn eval(&self, _t: f64, y: &[f64], d: &mut [f64]) {
            d[0] = -self.a * y[0];
        }
    }

    impl SdeSystem for Ou {
        fn diffusion(&self, _t: f64, _y: &[f64], g: &mut [f64]) {
            g[0] = self.s;
        }
    }

    fn stationary_variance<M: SdeStepper + Default>(seed: u64) -> f64 {
        let sys = Ou { a: 1.0, s: 0.5 };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stepper = M::default();
        let mut sum_sq = 0.0;
        let trials = 400;
        for _ in 0..trials {
            let mut y = vec![0.0];
            stepper.integrate(&sys, &mut y, 0.0, 8.0, 1e-2, &mut rng);
            sum_sq += y[0] * y[0];
        }
        sum_sq / trials as f64
    }

    #[test]
    fn euler_maruyama_ou_variance() {
        let v = stationary_variance::<EulerMaruyama>(1);
        let exact = 0.25 / 2.0; // s^2/(2a) = 0.125
        assert!((v - exact).abs() < 0.03, "variance {v} vs {exact}");
    }

    #[test]
    fn zero_noise_matches_deterministic() {
        let sys = Ou { a: 1.0, s: 0.0 };
        let mut rng = StdRng::seed_from_u64(3);
        let mut y = vec![1.0];
        EulerMaruyama::new().integrate(&sys, &mut y, 0.0, 1.0, 1e-3, &mut rng);
        // With σ = 0 the step is forward Euler: y_n = (1 − h)^n exactly.
        let euler = (1.0f64 - 1e-3).powi(1000);
        assert!((y[0] - euler).abs() < 1e-12, "{} vs {euler}", y[0]);
    }

    #[test]
    fn pure_diffusion_variance_grows_linearly() {
        let sys = Ou { a: 0.0, s: 1.0 };
        let mut rng = StdRng::seed_from_u64(4);
        let mut stepper = EulerMaruyama::new();
        let trials = 500;
        let mut sum_sq = 0.0;
        for _ in 0..trials {
            let mut y = vec![0.0];
            stepper.integrate(&sys, &mut y, 0.0, 2.0, 1e-2, &mut rng);
            sum_sq += y[0] * y[0];
        }
        let v = sum_sq / trials as f64;
        assert!((v - 2.0).abs() < 0.3, "Var[W(2)] = 2, got {v}");
    }

    #[test]
    fn observed_integration_endpoints() {
        let sys = Ou { a: 1.0, s: 0.1 };
        let mut rng = StdRng::seed_from_u64(5);
        let mut y = vec![0.0];
        let mut count = 0;
        EulerMaruyama::new()
            .integrate_observed(&sys, &mut y, 0.0, 0.5, 0.1, &mut rng, |_, _| count += 1);
        assert_eq!(count, 6); // t0 plus 5 steps
    }

    #[test]
    fn batch_normals_match_sequential_per_replica_streams() {
        // Replica r of the batch must see exactly the deviates a
        // standalone run with the same seed would draw, in the same order.
        let n = 5;
        let replicas = 3;
        let mut rngs: Vec<StdRng> = (0..replicas)
            .map(|r| StdRng::seed_from_u64(100 + r as u64))
            .collect();
        let mut batch = vec![0.0; n * replicas];
        fill_normal_batch(&mut batch, &mut rngs);
        for r in 0..replicas {
            let mut solo = StdRng::seed_from_u64(100 + r as u64);
            for i in 0..n {
                let expect = standard_normal(&mut solo);
                assert_eq!(batch[i * replicas + r].to_bits(), expect.to_bits());
            }
        }
    }

    #[test]
    fn batch_normals_accept_an_empty_buffer() {
        let mut rngs = vec![StdRng::seed_from_u64(0), StdRng::seed_from_u64(1)];
        fill_normal_batch(&mut [], &mut rngs);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn batch_normals_reject_ragged_buffer() {
        let mut rngs = vec![StdRng::seed_from_u64(0), StdRng::seed_from_u64(1)];
        fill_normal_batch(&mut [0.0; 5], &mut rngs);
    }

    /// Standard normal CDF via the Abramowitz–Stegun 7.1.26 erf
    /// approximation (|err| < 1.5e-7 — far below the KS tolerances
    /// below).
    fn normal_cdf(x: f64) -> f64 {
        let z = x / std::f64::consts::SQRT_2;
        let t = 1.0 / (1.0 + 0.327_591_1 * z.abs());
        let poly = t
            * (0.254_829_592
                + t * (-0.284_496_736
                    + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
        let erf = 1.0 - poly * (-z * z).exp();
        let erf = if z < 0.0 { -erf } else { erf };
        0.5 * (1.0 + erf)
    }

    /// Moment + Kolmogorov–Smirnov sanity check of a normal sampler.
    fn check_normal_sampler(mut draw: impl FnMut(&mut StdRng) -> f64, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 100_000;
        let mut xs: Vec<f64> = (0..n).map(|_| draw(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        let skew = xs.iter().map(|x| (x - mean).powi(3)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "variance {var}");
        assert!(skew.abs() < 0.05, "skewness {skew}");
        // KS distance against Φ. For n = 1e5 the 0.1% critical value is
        // ~1.95/√n ≈ 0.0062; 0.01 leaves generous headroom while still
        // catching any mis-built table layer (a single wrong layer
        // shifts ~0.4% of the mass).
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite deviate"));
        let mut d = 0.0f64;
        for (i, &x) in xs.iter().enumerate() {
            let cdf = normal_cdf(x);
            d = d.max((cdf - i as f64 / n as f64).abs());
            d = d.max(((i + 1) as f64 / n as f64 - cdf).abs());
        }
        assert!(d < 0.01, "KS distance {d}");
    }

    #[test]
    fn ziggurat_moments_and_ks() {
        check_normal_sampler(standard_normal, 12);
    }

    #[test]
    fn ziggurat_tail_is_exercised_and_unbounded_ish() {
        // The tail branch (|x| > r) carries ~2.6e-4 of the mass: 1e5
        // draws should produce a handful of tail deviates and no
        // truncation artifacts at r.
        let mut rng = StdRng::seed_from_u64(13);
        let tail = (0..100_000)
            .filter(|_| standard_normal(&mut rng).abs() > ZIGGURAT_R)
            .count();
        assert!((5..200).contains(&tail), "tail draws {tail}");
    }

    /// The textbook single-loop ziggurat: the reference the split
    /// fast-path / cold-miss sampler must follow word for word.
    fn reference_ziggurat(rng: &mut StdRng) -> f64 {
        let t = ziggurat_tables();
        loop {
            let bits = rng.gen::<u64>();
            let i = (bits & 0xFF) as usize;
            let sign = if bits & 0x100 != 0 { -1.0 } else { 1.0 };
            let u = (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            let x = u * t.x[i];
            if x < t.x[i + 1] {
                return sign * x;
            }
            if i == 0 {
                loop {
                    let u1: f64 = 1.0 - rng.gen::<f64>();
                    let u2: f64 = 1.0 - rng.gen::<f64>();
                    let xt = -u1.ln() / ZIGGURAT_R;
                    let yt = -u2.ln();
                    if 2.0 * yt > xt * xt {
                        return sign * (xt + ZIGGURAT_R);
                    }
                }
            }
            let y = t.f[i + 1] + (t.f[i] - t.f[i + 1]) * rng.gen::<f64>();
            if y < (-0.5 * x * x).exp() {
                return sign * x;
            }
        }
    }

    #[test]
    fn standard_normal_matches_selected_sampler() {
        // Enough draws to take the wedge (~1.2%) and tail (~0.03%)
        // branches many times: both samplers must agree draw for draw
        // and leave their generators in the same state.
        let mut a = StdRng::seed_from_u64(77);
        let mut b = StdRng::seed_from_u64(77);
        for _ in 0..200_000 {
            let fast = standard_normal(&mut a);
            let reference = reference_ziggurat(&mut b);
            assert_eq!(fast.to_bits(), reference.to_bits());
        }
        assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "streams desynchronized");
    }

    #[test]
    fn batch_fill_matches_reference_sampler_through_misses() {
        // The inlined batch fill must follow the reference per lane over
        // long runs, wedge and tail draws included.
        let (n, replicas) = (4096, 3);
        let mut rngs: Vec<StdRng> = (0..replicas)
            .map(|r| StdRng::seed_from_u64(500 + r))
            .collect();
        let mut refs = rngs.clone();
        let mut batch = vec![0.0; n * replicas as usize];
        for _ in 0..8 {
            fill_normal_batch(&mut batch, &mut rngs);
            for i in 0..n {
                for (r, rng) in refs.iter_mut().enumerate() {
                    let expect = reference_ziggurat(rng);
                    assert_eq!(batch[i * replicas as usize + r].to_bits(), expect.to_bits());
                }
            }
        }
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let sys = Ou { a: 1.0, s: 0.5 };
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut y = vec![0.3];
            EulerMaruyama::new().integrate(&sys, &mut y, 0.0, 1.0, 1e-2, &mut rng);
            y[0]
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }
}
