//! Spike-and-slab variational machinery (paper §III-B/C, eq. (3)(4)(13)).
//!
//! Each weight row follows π̃(w_j) = β_j·N(µ_j, s̃²I) + (1−β_j)·δ(0). The
//! constant posterior variance s̃² is *not* a free hyper-parameter: the
//! paper derives the optimal value (eq. (13)) from the architecture
//! (S, L, D, d), the weight bound B and the amount of data m — and proves
//! Theorem 1 under exactly that setting. By construction it is tiny for
//! realistic models, so the reparameterised sample θ = β∘(U + s̃·ε) is a
//! barely-perturbed masked copy of U; the Bayesian structure matters
//! through the KL ≈ L2 term and the generalization analysis rather than
//! through injected noise.
//!
//! That tininess is also what makes [`sample_theta`] cheap. Adding s̃·ε to
//! a normal weight v cannot change it when 6·s̃ < ½·ulp_below(|v|): the
//! bound [`GAUSSIAN_BOUND`] = 6 caps |ε|, and round-to-nearest then returns
//! v. With eq. (13)'s s̃ ≈ 1e-12 that holds for ~99% of an MLP's weights,
//! so those elements, and the weights of rows β drops, only draw their
//! uniforms (the RNG stream advances exactly as if the sample had been
//! computed) and skip the Box–Muller `ln`/`sqrt`/`cos`. The output is bit
//! for bit what the full computation gives; a large s̃ (a `Fixed`
//! ablation) simply sends every element down the full path.

use crate::pattern::DropPattern;
use fedbiad_nn::{ArchInfo, ParamSet};
use fedbiad_tensor::init::{gaussian, skip_gaussian, GAUSSIAN_BOUND};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// How the posterior standard deviation s̃ is chosen.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum NoiseLevel {
    /// Optimal s̃² from eq. (13) given the architecture and current m
    /// (the paper's setting).
    Theory,
    /// Fixed s̃ (ablation knob).
    Fixed(f32),
    /// No reparameterisation noise (θ = β∘U exactly).
    Off,
}

/// Eq. (13): the optimal constant posterior variance
/// s̃² = S / (16·m·d²·log(3D)) · (2BD)^(−2L) ·
///        [ (d+1+1/(BD−1))² + 1/((BD)²−1) + 2/(BD−1)² ]^(−1).
///
/// * `s` — number of non-zero weights S;
/// * `m` — client-side total input data m_r;
/// * `arch` — supplies d (input dim), D (width), L (depth);
/// * `b` — the Assumption-2 weight bound B ≥ 2.
pub fn posterior_variance(s: f64, m: f64, arch: &ArchInfo, b: f64) -> f64 {
    assert!(b >= 2.0, "Assumption 2 requires B ≥ 2");
    assert!(m >= 1.0 && s >= 1.0);
    let d = arch.input_dim as f64;
    let big_d = arch.width as f64;
    let l = arch.depth as f64;
    let bd = b * big_d;

    let lead = s / (16.0 * m * d * d * (3.0 * big_d).ln());
    // (2BD)^(−2L) in log space to dodge underflow for deep/wide models.
    let decay = (-2.0 * l * (2.0 * bd).ln()).exp();
    let bracket = {
        let t1 = d + 1.0 + 1.0 / (bd - 1.0);
        let t2 = 1.0 / (bd * bd - 1.0);
        let t3 = 2.0 / ((bd - 1.0) * (bd - 1.0));
        t1 * t1 + t2 + t3
    };
    lead * decay / bracket
}

/// The paper's m_r = r · V · min{|D_1|, …, |D_K|} (client-side total input
/// data after r rounds).
pub fn client_total_data(round_one_based: usize, local_iters: usize, min_dk: usize) -> f64 {
    (round_one_based.max(1) * local_iters.max(1) * min_dk.max(1)) as f64
}

/// Sample θ ~ β∘N(U, s̃²I): clone U, add s̃·ε element-wise, zero dropped
/// rows. With `s_tilde == 0` this is just the masked copy.
///
/// One ε is drawn per parameter, entry by entry (matrix in row-major order,
/// then bias), whether or not it is used. An element whose sum provably
/// rounds back to U (see the module docs), and a weight in a row β drops,
/// takes the draw-only path: its uniforms are drawn and nothing is
/// computed. A dropped row's bias still goes through the rounding test,
/// because zeroing it (`b *= 0`) keeps the sign of the perturbed value.
pub fn sample_theta(
    u: &ParamSet,
    pattern: &DropPattern,
    s_tilde: f32,
    rng: &mut impl Rng,
) -> ParamSet {
    let mut theta = u.clone();
    if s_tilde > 0.0 {
        let min_bits = rounds_away_from_bits(s_tilde);
        let perturb = |v: &mut f32, rng: &mut _| {
            if (min_bits..0x7F80_0000).contains(&(v.to_bits() & 0x7FFF_FFFF)) {
                skip_gaussian(rng);
            } else {
                *v += s_tilde * gaussian(rng);
            }
        };
        for e in 0..theta.num_entries() {
            let stride = theta.entry_units(e);
            let kept: Vec<bool> = (0..stride)
                .map(|unit| {
                    theta
                        .row_unit_index(e, unit)
                        .is_none_or(|j| pattern.is_kept(j))
                })
                .collect();
            let (m, b) = theta.mat_bias_mut(e);
            for r in 0..m.rows() {
                let row = m.row_mut(r);
                if kept[r % stride] {
                    row.iter_mut().for_each(|v| perturb(v, rng));
                } else {
                    row.iter().for_each(|_| skip_gaussian(rng));
                }
            }
            b.iter_mut().for_each(|v| perturb(v, rng));
        }
    }
    for j in 0..pattern.len() {
        if !pattern.is_kept(j) {
            theta.zero_row_unit(j);
        }
    }
    theta
}

/// The smallest bit pattern of a positive normal float `a` from which on
/// `a + s̃·ε == a` for every ε [`gaussian`] can return: the gap to the next
/// float below `a` exceeds 2·GAUSSIAN_BOUND·s̃, so |s̃·ε| stays under half
/// of either neighbouring gap and round-to-nearest returns `a`. That gap
/// only grows with `a`, so a binary search over the normal bit patterns
/// finds the threshold; `0x7F80_0000` (+inf) means no finite value.
fn rounds_away_from_bits(s_tilde: f32) -> u32 {
    // 2·bound·s̃ is exact in f64, so each test below is exact.
    let min_ulp = 2.0 * f64::from(GAUSSIAN_BOUND) * f64::from(s_tilde);
    let gap_below = |bits: u32| f64::from(f32::from_bits(bits) - f32::from_bits(bits - 1));
    let (mut lo, mut hi) = (0x0080_0000u32, 0x7F80_0000u32);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if gap_below(mid) > min_ulp {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Resolve a [`NoiseLevel`] to a concrete s̃ for the current round.
pub fn resolve_noise(
    level: NoiseLevel,
    arch: &ArchInfo,
    kept_weights: usize,
    m: f64,
    b: f64,
) -> f32 {
    match level {
        NoiseLevel::Off => 0.0,
        NoiseLevel::Fixed(s) => s,
        NoiseLevel::Theory => {
            posterior_variance(kept_weights.max(1) as f64, m, arch, b).sqrt() as f32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedbiad_nn::mask::BitVec;
    use fedbiad_nn::params::{EntryMeta, LayerKind};
    use fedbiad_tensor::rng::{stream, StreamTag};
    use fedbiad_tensor::Matrix;
    use rand::rngs::StdRng;

    fn arch() -> ArchInfo {
        ArchInfo {
            total_weights: 101_770,
            depth: 2,
            width: 128,
            input_dim: 784,
        }
    }

    #[test]
    fn posterior_variance_is_positive_and_tiny() {
        let v = posterior_variance(80_000.0, 10_000.0, &arch(), 2.0);
        assert!(v > 0.0);
        assert!(v < 1e-6, "theory variance should be tiny, got {v}");
    }

    #[test]
    fn posterior_variance_decreases_with_data() {
        let a = posterior_variance(80_000.0, 1_000.0, &arch(), 2.0);
        let b = posterior_variance(80_000.0, 100_000.0, &arch(), 2.0);
        assert!(b < a);
        // Exactly inversely proportional to m.
        assert!((a / b - 100.0).abs() < 1e-6);
    }

    #[test]
    fn posterior_variance_survives_deep_wide_models() {
        // LSTM-scale: D=300, L=4 — (2BD)^(−2L) ≈ 1e-25 must not underflow
        // to zero.
        let lstm = ArchInfo {
            total_weights: 7_800_000,
            depth: 4,
            width: 300,
            input_dim: 300,
        };
        let v = posterior_variance(3_900_000.0, 50_000.0, &lstm, 2.0);
        assert!(v > 0.0 && v.is_finite());
    }

    #[test]
    fn m_r_formula() {
        assert_eq!(client_total_data(3, 10, 120), 3600.0);
        assert_eq!(client_total_data(0, 10, 120), 1200.0); // clamped to r=1
    }

    fn param_set() -> ParamSet {
        let mut p = ParamSet::new();
        p.push_entry(
            Matrix::full(4, 3, 0.5),
            Some(vec![0.5; 4]),
            EntryMeta::new("w", LayerKind::DenseHidden, true, true),
        );
        p
    }

    #[test]
    fn sample_theta_masks_and_perturbs() {
        let u = param_set();
        let mut beta = BitVec::new(4, true);
        beta.set(1, false);
        let pattern = DropPattern { beta };
        let mut rng = stream(4, StreamTag::PosteriorNoise, 0, 0);
        let theta = sample_theta(&u, &pattern, 0.1, &mut rng);
        // Dropped row exactly zero (spike), kept rows perturbed around U.
        assert_eq!(theta.mat(0).row(1), &[0.0, 0.0, 0.0]);
        assert_eq!(theta.bias(0)[1], 0.0);
        assert!(theta.mat(0).row(0).iter().all(|&v| (v - 0.5).abs() < 0.6));
        assert!(theta.mat(0).row(0).iter().any(|&v| v != 0.5));
    }

    #[test]
    fn sample_theta_zero_noise_is_masked_copy() {
        let u = param_set();
        let pattern = DropPattern::full(4);
        let mut rng = stream(5, StreamTag::PosteriorNoise, 0, 0);
        let theta = sample_theta(&u, &pattern, 0.0, &mut rng);
        assert_eq!(theta.flatten(), u.flatten());
    }

    /// The direct sampler: every element computes its Gaussian, then
    /// dropped rows are zeroed. The oracle [`sample_theta`] must match bit
    /// for bit.
    fn sample_theta_oracle(
        u: &ParamSet,
        pattern: &DropPattern,
        s_tilde: f32,
        rng: &mut impl Rng,
    ) -> ParamSet {
        let mut theta = u.clone();
        if s_tilde > 0.0 {
            for e in 0..theta.num_entries() {
                let (m, b) = theta.mat_bias_mut(e);
                for v in m.as_mut_slice() {
                    *v += s_tilde * gaussian(rng);
                }
                for v in b.iter_mut() {
                    *v += s_tilde * gaussian(rng);
                }
            }
        }
        for j in 0..pattern.len() {
            if !pattern.is_kept(j) {
                theta.zero_row_unit(j);
            }
        }
        theta
    }

    /// `StdRng` with scripted extremes mixed in. Now and then the 32 bits
    /// `gen::<f32>` reads are 0 (u = 0, which `gaussian` rejects as u1 and
    /// turns into cos = 1 as u2), 2⁸ (u = 2⁻²⁴, the largest |ε|) or 2³¹
    /// (u = ½, cos = −1).
    struct EdgeRng(StdRng);

    impl rand::RngCore for EdgeRng {
        fn next_u64(&mut self) -> u64 {
            let x = self.0.next_u64();
            let hi: u64 = match x & 7 {
                0 => 0,
                1 => 1 << 8,
                2 => 1 << 31,
                _ => return x,
            };
            (hi << 32) | (x & 0xFFFF_FFFF)
        }
    }

    /// An RNG that replays a fixed sequence of words.
    struct Scripted<I>(I);

    impl<I: Iterator<Item = u64>> rand::RngCore for Scripted<I> {
        fn next_u64(&mut self) -> u64 {
            self.0.next().expect("script exhausted")
        }
    }

    /// Gap from |v| to the next float below it (v normal).
    fn ulp_below(v: f32) -> f32 {
        let a = v.abs();
        a - f32::from_bits(a.to_bits() - 1)
    }

    /// A parameter value: mostly ordinary weights across many binades,
    /// plus zeros, subnormals, exact powers of two, extremes, ±inf, NaN.
    fn edge_value(rng: &mut StdRng) -> f32 {
        let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
        sign * match rng.gen_range(0..12) {
            0 => 0.0,
            1 => f32::from_bits(rng.gen_range(1..0x0080_0000)),
            2 => 2f32.powi(rng.gen_range(-126..128)),
            3 => [f32::MIN_POSITIVE, f32::MAX, f32::INFINITY, f32::NAN][rng.gen_range(0..4usize)],
            _ => rng.gen_range(0.5f32..1.0) * 10f32.powi(rng.gen_range(-8..4)),
        }
    }

    /// A model-shaped set: a hidden layer with bias, a 4-gate LSTM-style
    /// entry, and a non-droppable entry (never masked).
    fn edge_params(rng: &mut StdRng) -> ParamSet {
        let rows = rng.gen_range(1..6usize);
        let cols = rng.gen_range(0..5usize);
        let units = rng.gen_range(1..3usize);
        let mut gates = EntryMeta::new("lstm.wh", LayerKind::LstmRecurrent, true, true);
        gates.gate_groups = 4;
        let hidden = EntryMeta::new("w", LayerKind::DenseHidden, true, true);
        let aux = EntryMeta::new("aux", LayerKind::DenseHidden, false, false);
        let mut p = ParamSet::new();
        for (rows, cols, meta) in [(rows, cols, hidden), (4 * units, 2, gates), (2, 3, aux)] {
            let vals = (0..rows * cols).map(|_| edge_value(rng)).collect();
            let b = meta
                .has_bias
                .then(|| (0..rows).map(|_| edge_value(rng)).collect());
            p.push_entry(Matrix::from_vec(rows, cols, vals), b, meta);
        }
        p
    }

    proptest::proptest! {
        /// The draw-only path is invisible: same θ bits and same RNG state
        /// after the call as the full computation, for random patterns
        /// and s̃ from 0 through 3.0 (plus s̃ straddling the rounding
        /// bound of one of the set's own values).
        #[test]
        fn sample_theta_matches_the_full_computation_oracle(
            seed in 0u64..1_000_000,
            s_pick in 0usize..12,
        ) {
            let mut gen = stream(seed, StreamTag::Init, 0, 0);
            let u = edge_params(&mut gen);
            let j = u.num_row_units();
            let mut beta = BitVec::new(j, true);
            for r in 0..j {
                beta.set(r, gen.gen::<f32>() < 0.7);
            }
            let pattern = DropPattern { beta };
            let s_tilde = match s_pick {
                0 => 0.0,
                1..=9 => [1e-13, 8.6e-13, 4.8e-12, 1e-10, 1e-8, 1e-6, 1e-3, 0.1, 3.0][s_pick - 1],
                _ => {
                    // Just below or above 2·GAUSSIAN_BOUND·s̃ = ulp_below(v).
                    let flat = u.flatten();
                    let v = flat[gen.gen_range(0..flat.len())];
                    let edge = if v.is_normal() { ulp_below(v) / 12.0 } else { 1e-12 };
                    let step: i32 = if s_pick == 10 { -1 } else { 1 };
                    f32::from_bits(edge.to_bits().saturating_add_signed(step).max(1))
                }
            };
            let mut fast_rng = EdgeRng(stream(seed, StreamTag::PosteriorNoise, 0, 0));
            let mut oracle_rng = EdgeRng(stream(seed, StreamTag::PosteriorNoise, 0, 0));
            let fast = sample_theta(&u, &pattern, s_tilde, &mut fast_rng);
            let oracle = sample_theta_oracle(&u, &pattern, s_tilde, &mut oracle_rng);
            let bits = |p: &ParamSet| p.flatten().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            proptest::prop_assert_eq!(bits(&fast), bits(&oracle), "s̃ = {}", s_tilde);
            proptest::prop_assert_eq!(fast_rng.0.gen::<u64>(), oracle_rng.0.gen::<u64>());
        }
    }

    #[test]
    fn largest_noise_below_the_bound_rounds_away() {
        // u1 = 2⁻²⁴ and u2 ∈ {0, ½}: ε = ±max, the worst case the bound
        // must absorb, at s̃ one step below the bound for each binade.
        for v in [1.0f32, 1.5, -3.0, 1e-30, 1e-36, 2f32.powi(-100), f32::MAX] {
            let s_tilde = f32::from_bits((ulp_below(v) / 12.0).to_bits() - 1);
            for u2_bits in [0u64, 1 << 31] {
                let eps = gaussian(&mut Scripted(
                    [(1u64 << 8) << 32, u2_bits << 32].into_iter(),
                ));
                assert!(eps.abs() > 5.76, "not the extreme draw: {eps}");
                assert_eq!((v + s_tilde * eps).to_bits(), v.to_bits(), "v = {v}");
            }
        }
    }

    #[test]
    fn resolve_noise_modes() {
        let a = arch();
        assert_eq!(resolve_noise(NoiseLevel::Off, &a, 100, 10.0, 2.0), 0.0);
        assert_eq!(
            resolve_noise(NoiseLevel::Fixed(0.3), &a, 100, 10.0, 2.0),
            0.3
        );
        let t = resolve_noise(NoiseLevel::Theory, &a, 80_000, 10_000.0, 2.0);
        assert!(t > 0.0 && t < 1e-3);
    }
}
