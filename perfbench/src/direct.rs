//! Direct calls into single layers at a workload's own shapes, for the
//! per-layer metrics that no decorator can reach.

use crate::workloads::{Def, Method};
use fedbiad_compress::codec::encode_weights;
use fedbiad_core::spike_slab::sample_theta;
use fedbiad_core::{keep_count, DropPattern};
use fedbiad_data::FedDataset;
use fedbiad_nn::{ModelMask, ParamSet};
use fedbiad_tensor::ops::{gemm_nt, gemm_tn_acc};
use fedbiad_tensor::rng::{stream, StreamTag};
use fedbiad_tensor::Matrix;
use std::hint::black_box;
use std::time::Instant;

/// Time budget of one direct-call series, seconds.
const BUDGET_S: f64 = 0.25;
/// Calls per series at most.
const MAX_CALLS: usize = 400;
/// Posterior noise scale for `sample_theta`; any s̃ > 0 takes the
/// Gaussian path, whose cost does not depend on the value.
const S_TILDE: f32 = 1e-3;

/// Call `f` until the budget or the call cap is spent (at least 5 calls),
/// returning each call's duration in microseconds.
fn series(mut f: impl FnMut()) -> Vec<f64> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.len() < 5 || (out.len() < MAX_CALLS && t0.elapsed().as_secs_f64() < BUDGET_S) {
        let t = Instant::now();
        f();
        out.push(t.elapsed().as_secs_f64() * 1e6);
    }
    out
}

/// The dropping pattern a FedBIAD client starts from at rate `p`.
fn pattern(params: &ParamSet, p: f32) -> DropPattern {
    let j = params.num_row_units();
    DropPattern::sample_global(
        j,
        keep_count(j, p),
        &mut stream(1, StreamTag::Pattern, 0, 0),
    )
}

/// `spike_slab::sample_theta` at the workload's parameter shapes and
/// dropout rate, microseconds per call.
pub fn sample_theta_us(params: &ParamSet, dropout_rate: f32) -> Vec<f64> {
    let pat = pattern(params, dropout_rate);
    let mut rng = stream(2, StreamTag::PosteriorNoise, 0, 0);
    series(|| {
        black_box(sample_theta(black_box(params), &pat, S_TILDE, &mut rng));
    })
}

/// GEMM throughput at the workload's shapes: for every weight matrix
/// W (r × c), one forward `gemm_nt` (m × c by Wᵀ) and one weight-gradient `gemm_tn_acc`
/// (k = m), with m the local batch size. Returns
/// (flops per pass, bytes moved per pass, microseconds per pass); flops
/// and bytes are computed from the shapes, not measured.
pub fn gemm(params: &ParamSet, batch: usize) -> (f64, f64, Vec<f64>) {
    let shapes: Vec<(usize, usize)> = (0..params.num_entries())
        .map(|e| (params.mat(e).rows(), params.mat(e).cols()))
        .collect();
    let mut flops = 0.0;
    let mut bytes = 0.0;
    for &(r, c) in &shapes {
        let m = batch;
        flops += 2.0 * 2.0 * (m * r * c) as f64;
        // gemm_nt reads A (m×c) and W (r×c), writes C (m×r); gemm_tn_acc
        // reads dY (m×r) and X (m×c), reads and writes dW (r×c).
        bytes += 4.0 * ((m * c + r * c + m * r) + (m * r + m * c + 2 * r * c)) as f64;
    }
    let bufs: Vec<(Vec<f32>, Matrix, Vec<f32>, Matrix)> = shapes
        .iter()
        .map(|&(r, c)| {
            let a: Vec<f32> = (0..batch * c).map(|i| ((i % 7 + 1) as f32) * 0.1).collect();
            let dy: Vec<f32> = (0..batch * r).map(|i| ((i % 5 + 1) as f32) * 0.1).collect();
            (a, Matrix::full(r, c, 0.01), dy, Matrix::zeros(r, c))
        })
        .collect();
    let mut out: Vec<Vec<f32>> = shapes.iter().map(|&(r, _)| vec![0.0; batch * r]).collect();
    let mut bufs = bufs;
    let us = series(|| {
        for ((a, w, dy, wg), c) in bufs.iter_mut().zip(out.iter_mut()) {
            gemm_nt(black_box(a), w, batch, c);
            gemm_tn_acc(black_box(dy), a, batch, wg);
        }
        black_box(&out);
    });
    (flops, bytes, us)
}

/// `FedDataset::client(id)` for each id, microseconds per call.
pub fn shard_us(data: &FedDataset, ids: &[usize]) -> Vec<f64> {
    ids.iter()
        .map(|&id| {
            let t = Instant::now();
            black_box(data.client(black_box(id)));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

/// `codec::encode_weights` of a full-model upload (FedAvg), microseconds
/// per call. `None` for methods that upload through a `Compressor`, which
/// the decorator times instead.
pub fn encode_us(def: &Def, params: &ParamSet) -> Option<Vec<f64>> {
    if def.method != Method::FedAvg {
        return None;
    }
    let mask = ModelMask::full(params);
    Some(series(|| {
        black_box(encode_weights(black_box(params), &mask));
    }))
}
