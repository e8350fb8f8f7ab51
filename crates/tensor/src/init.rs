//! Deterministic weight initialisers.

use crate::matrix::Matrix;
use rand::Rng;

/// Uniform(-limit, limit) fill.
pub fn uniform(m: &mut Matrix, limit: f32, rng: &mut impl Rng) {
    for v in m.as_mut_slice() {
        *v = rng.gen_range(-limit..limit);
    }
}

/// Xavier/Glorot-uniform: limit = sqrt(6 / (fan_in + fan_out)).
///
/// `fan_in`/`fan_out` are passed explicitly because for bundled-bias rows
/// (see `fedbiad-nn::params`) the matrix shape is not the layer fan.
pub fn xavier(m: &mut Matrix, fan_in: usize, fan_out: usize, rng: &mut impl Rng) {
    let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
    uniform(m, limit, rng);
}

/// Standard normal fill scaled by `std`.
pub fn normal(m: &mut Matrix, std: f32, rng: &mut impl Rng) {
    for v in m.as_mut_slice() {
        *v = std * gaussian(rng);
    }
}

/// Strict upper bound on |[`gaussian`]|. The f32 uniform is a multiple of
/// 2⁻²⁴, so the accepted `u1` is at least 2⁻²⁴ and every sample satisfies
/// |ε| ≤ √(48 ln 2) ≈ 5.77 < 6.
pub const GAUSSIAN_BOUND: f32 = 6.0;

/// One standard-normal sample via Box–Muller (avoids a rand_distr
/// dependency; two uniforms per sample, second discarded for simplicity).
#[inline]
pub fn gaussian(rng: &mut impl Rng) -> f32 {
    loop {
        let u1: f32 = rng.gen::<f32>();
        if u1 > f32::MIN_POSITIVE {
            let u2: f32 = rng.gen::<f32>();
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
        }
    }
}

/// Advance `rng` exactly as one [`gaussian`] call would (the same draws,
/// including the redraw of a zero `u1`) without computing the sample —
/// for callers that can prove the sample is not needed.
#[inline]
pub fn skip_gaussian(rng: &mut impl Rng) {
    loop {
        let u1: f32 = rng.gen::<f32>();
        if u1 > f32::MIN_POSITIVE {
            rng.gen::<f32>();
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{stream, StreamTag};

    #[test]
    fn xavier_respects_limit() {
        let mut m = Matrix::zeros(64, 32);
        let mut rng = stream(1, StreamTag::Init, 0, 0);
        xavier(&mut m, 32, 64, &mut rng);
        let limit = (6.0f32 / 96.0).sqrt();
        assert!(m.as_slice().iter().all(|v| v.abs() <= limit));
        // Not all zero.
        assert!(m.as_slice().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn gaussian_moments_are_plausible() {
        let mut rng = stream(7, StreamTag::Init, 0, 0);
        let n = 20_000;
        let xs: Vec<f32> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let m = crate::stats::mean(&xs);
        let v = crate::stats::variance(&xs);
        assert!(m.abs() < 0.05, "mean {m}");
        assert!((v - 1.0).abs() < 0.1, "var {v}");
    }

    #[test]
    fn gaussian_bound_covers_the_smallest_accepted_uniform() {
        // The largest |ε| comes from the smallest accepted u1 = 2⁻²⁴ and
        // |cos| = 1, evaluated in the same f32 arithmetic as `gaussian`.
        let u1 = 1.0f32 / (1u32 << 24) as f32;
        assert!(u1 > f32::MIN_POSITIVE);
        let max = (-2.0 * u1.ln()).sqrt();
        assert!(max < 5.77, "max |ε| = {max} exceeds √(48 ln 2)");
    }

    /// Replays words whose upper 32 bits (what `gen::<f32>` reads) give
    /// u = 0 every third draw, so the redraw of a zero `u1` is exercised.
    struct ZeroEveryThird(u64);

    impl rand::RngCore for ZeroEveryThird {
        fn next_u64(&mut self) -> u64 {
            self.0 += 1;
            if self.0.is_multiple_of(3) {
                0
            } else {
                self.0 << 40
            }
        }
    }

    #[test]
    fn skip_gaussian_advances_the_stream_like_gaussian() {
        let mut a = stream(11, StreamTag::Init, 0, 0);
        let mut b = stream(11, StreamTag::Init, 0, 0);
        for _ in 0..1_000 {
            gaussian(&mut a);
            skip_gaussian(&mut b);
        }
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());

        let mut a = ZeroEveryThird(0);
        let mut b = ZeroEveryThird(0);
        for _ in 0..100 {
            gaussian(&mut a);
            skip_gaussian(&mut b);
            assert_eq!(a.0, b.0);
        }
    }

    #[test]
    fn init_is_deterministic_per_stream() {
        let mut a = Matrix::zeros(4, 4);
        let mut b = Matrix::zeros(4, 4);
        normal(&mut a, 0.1, &mut stream(9, StreamTag::Init, 0, 3));
        normal(&mut b, 0.1, &mut stream(9, StreamTag::Init, 0, 3));
        assert_eq!(a, b);
    }
}
