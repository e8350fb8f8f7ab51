//! Measures one workload of the benchmark and prints its raw samples as
//! one JSON object on the last line of standard output. `run.py` turns
//! the samples into the benchmark's metrics.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! The run sets the workload up several times, then runs one closed-loop
//! experiment with as many rounds as fill `S` seconds on the reference
//! box. With `--trace 1` it also runs the same experiment traced, then
//! times the layers that need direct calls. Last it sets the workload up
//! several times more, so that set-up is timed before and after the
//! experiment.

mod direct;
mod probe;
mod workloads;

use fedbiad_fl::adversary::is_adversary;
use fedbiad_fl::round::resolve_cohort;
use fedbiad_fl::ExperimentLog;
use serde::Serialize;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Def, RepOut, Setup};

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1";

/// Set-up repetitions per window: at least this many…
const SETUP_MIN_REPS: usize = 3;
/// …and more while they fit in this many seconds, up to the cap. On a
/// shared VM short single-thread work runs in fast and slow spells, ~1.5x
/// apart, that last from a tenth of a second to about a minute. A window
/// spans many of the short spells; two windows, one before and one after
/// the experiment, fall in two of the long ones.
const SETUP_WINDOW_S: f64 = 1.5;
const SETUP_MAX_REPS: usize = 500;

struct Args {
    workload: Def,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workloads::find(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// FNV-1a over the log's deterministic fields (wall-clock and RSS fields
/// left out), as in the repository's golden-trace test.
fn digest(log: &ExperimentLog) -> u64 {
    let mut canon = format!(
        "dataset={};method={};seed={};",
        log.dataset, log.method, log.seed
    );
    for r in &log.records {
        let _ = write!(
            canon,
            "round={};train={:08x};test_loss={:016x};test_acc={:016x};up_mean={};up_max={};down={};contrib={};",
            r.round,
            r.train_loss.to_bits(),
            r.test_loss.to_bits(),
            r.test_acc.to_bits(),
            r.upload_bytes_mean,
            r.upload_bytes_max,
            r.download_bytes,
            r.contributors,
        );
    }
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in canon.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A named correctness check; the first failure's detail is kept.
#[derive(Serialize)]
struct Check {
    name: &'static str,
    ok: bool,
    detail: String,
}

impl Check {
    fn new(name: &'static str) -> Self {
        Self {
            name,
            ok: true,
            detail: String::new(),
        }
    }

    fn require(&mut self, ok: bool, detail: impl FnOnce() -> String) {
        if !ok && self.ok {
            self.ok = false;
            self.detail = detail();
        }
    }
}

/// Per-layer timings taken by direct calls (traced runs only).
#[derive(Serialize)]
struct Direct {
    /// `spike_slab::sample_theta`, microseconds per call.
    sample_theta_us: Vec<f64>,
    /// Floating-point operations of one GEMM pass (computed).
    gemm_flops: f64,
    /// Bytes one GEMM pass moves (computed).
    gemm_bytes: f64,
    /// GEMM passes, microseconds each.
    gemm_us: Vec<f64>,
    /// `FedDataset::client(id)` for the sampled ids, microseconds each.
    shard_us: Vec<f64>,
    /// `codec::encode_weights` when the method has no compressor.
    encode_us: Option<Vec<f64>>,
}

/// The program's result line. Times of runs and spans are nanoseconds
/// since each run's recorder was made.
#[derive(Serialize)]
struct Output {
    workload: &'static str,
    seed: u64,
    trace: bool,
    width: usize,
    rounds: usize,
    cohort: usize,
    model_bytes: u64,
    /// `workload::build_with` seconds, per set-up window.
    build_s: [Vec<f64>; 2],
    /// Set-up seconds, per set-up window.
    setup_s: [Vec<f64>; 2],
    peak_rss_bytes: u64,
    /// Result digest of each run, for information only.
    digests: Vec<String>,
    /// Updates made by adversarial clients, over all runs.
    adversarial_updates: usize,
    runs: Vec<RepOut>,
    direct: Option<Direct>,
    checks: Vec<Check>,
}

/// Updates made by adversarial clients (0 without an adversary model).
fn adversarial_updates(def: &Def, seed: u64, rep: &RepOut) -> usize {
    def.adversary.map_or(0, |adv| {
        rep.accounts
            .iter()
            .flat_map(|a| &a.clients)
            .filter(|&&c| is_adversary(seed, adv.fraction, c))
            .count()
    })
}

fn checks(def: &Def, seed: u64, rounds: usize, cohort: usize, reps: &[RepOut]) -> Vec<Check> {
    let mut recorded = Check::new("every_round_recorded");
    let mut finite = Check::new("losses_and_accuracies_finite");
    let mut cohort_acct = Check::new("contributors_plus_failed_equals_cohort");
    let mut bytes = Check::new("wire_bytes_agree_with_upload_bytes_mean");
    let mut same = Check::new("runs_agree_on_deterministic_fields");
    let mut traced_same = Check::new("traced_log_equals_untraced_log");
    let mut batched = Check::new("model_calls_take_the_batched_path");
    let mut attack = Check::new("adversarial_uploads_aggregated");
    let first = digest(&reps[0].log);
    let first_untraced = reps.iter().find(|r| !r.traced).map(|r| digest(&r.log));
    for (i, rep) in reps.iter().enumerate() {
        let recs = &rep.log.records;
        recorded.require(
            recs.len() == rounds
                && recs.iter().enumerate().all(|(k, r)| r.round == k)
                && rep.round_marks_ns.len() == rounds + 1
                && rep.accounts.len() == rounds,
            || {
                format!(
                    "run {i}: {} records, {} round clock reads, {} accounts for {} rounds",
                    recs.len(),
                    rep.round_marks_ns.len().saturating_sub(1),
                    rep.accounts.len(),
                    rounds
                )
            },
        );
        for r in recs {
            finite.require(
                r.train_loss.is_finite()
                    && r.test_loss.is_finite()
                    && r.test_acc.is_finite()
                    && (0.0..=1.0).contains(&r.test_acc),
                || {
                    format!(
                        "run {i} round {}: train {} test {} acc {}",
                        r.round, r.train_loss, r.test_loss, r.test_acc
                    )
                },
            );
        }
        for (r, a) in recs.iter().zip(&rep.accounts) {
            let failed = a.attempted.saturating_sub(a.aggregated);
            cohort_acct.require(
                a.attempted == cohort as u64
                    && a.aggregated == r.contributors as u64
                    && r.contributors as u64 + failed == cohort as u64,
                || {
                    format!(
                        "run {i} round {}: {} attempted, {} aggregated, {} contributors, cohort {cohort}",
                        r.round, a.attempted, a.aggregated, r.contributors
                    )
                },
            );
            bytes.require(
                a.aggregated > 0 && (a.wire_bytes / a.aggregated).max(1) == r.upload_bytes_mean,
                || {
                    format!(
                        "run {i} round {}: Σ wire bytes {} over {} uploads vs upload_bytes_mean {}",
                        r.round, a.wire_bytes, a.aggregated, r.upload_bytes_mean
                    )
                },
            );
        }
        let d = digest(&rep.log);
        same.require(d == first, || {
            format!("run {i}: digest {d:#018x} != {first:#018x}")
        });
        if rep.traced {
            traced_same.require(Some(d) == first_untraced, || {
                format!("traced run {i}: digest {d:#018x} != untraced {first_untraced:#x?}")
            });
            let reference = rep
                .spans
                .iter()
                .filter(|s| s.name.ends_with("_reference"))
                .count();
            batched.require(reference == 0, || {
                format!("traced run {i}: {reference} per-sample reference model calls")
            });
        }
        if def.adversary.is_some() {
            let hostile = adversarial_updates(def, seed, rep);
            attack.require(
                hostile > 0 && recs.iter().all(|r| r.contributors == cohort),
                || {
                    let contributors: Vec<usize> = recs.iter().map(|r| r.contributors).collect();
                    format!("run {i}: {hostile} adversarial updates; contributors {contributors:?}")
                },
            );
        }
    }
    let mut out = vec![recorded, finite, cohort_acct, bytes, same];
    if reps.iter().any(|r| r.traced) {
        out.push(traced_same);
        out.push(batched);
    }
    if def.adversary.is_some() {
        out.push(attack);
    }
    out
}

/// Set the workload up (spec → ready bundle) repeatedly for one window,
/// recording each repetition's times; returns the last set-up.
fn setup_window(def: &Def, seed: u64, build_s: &mut Vec<f64>, setup_s: &mut Vec<f64>) -> Setup {
    let t0 = Instant::now();
    let mut last = None;
    let mut reps = 0;
    while reps < SETUP_MIN_REPS
        || (reps < SETUP_MAX_REPS && t0.elapsed().as_secs_f64() < SETUP_WINDOW_S)
    {
        drop(last.take());
        let s = workloads::setup(def, seed);
        build_s.push(s.build_s);
        setup_s.push(s.setup_s);
        last = Some(s);
        reps += 1;
    }
    last.expect("at least one set-up")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let def = args.workload;
    let width = rayon::current_num_threads().min(
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    );

    let mut build_s = [Vec::new(), Vec::new()];
    let mut setup_s = [Vec::new(), Vec::new()];
    let setup = setup_window(&def, args.seed, &mut build_s[0], &mut setup_s[0]);
    let bundle = &setup.bundle;
    let cohort = resolve_cohort(bundle.data.num_clients(), workloads::KAPPA, def.cohort)
        .expect("workload cohort is valid");

    // One experiment fills the measuring time; a traced run adds a traced
    // twin of it, and which of the two goes first alternates with the seed.
    let rounds = def.rounds(args.seconds);
    let order: &[bool] = match (args.trace, args.seed % 2) {
        (false, _) => &[false],
        (true, 0) => &[false, true],
        (true, _) => &[true, false],
    };
    let reps: Vec<RepOut> = order
        .iter()
        .map(|&traced| workloads::run(&def, bundle, args.seed, rounds, traced))
        .collect();

    let direct = args.trace.then(|| {
        let ids: Vec<usize> = reps
            .iter()
            .find(|r| r.traced)
            .map(|r| {
                r.accounts
                    .iter()
                    .flat_map(|a| a.clients.iter().copied())
                    .collect()
            })
            .unwrap_or_default();
        let (gemm_flops, gemm_bytes, gemm_us) =
            direct::gemm(&setup.params, bundle.train.batch_size);
        Direct {
            sample_theta_us: direct::sample_theta_us(&setup.params, bundle.dropout_rate),
            gemm_flops,
            gemm_bytes,
            gemm_us,
            shard_us: direct::shard_us(&bundle.data, &ids),
            encode_us: direct::encode_us(&def, &setup.params),
        }
    });

    let checks = checks(&def, args.seed, rounds, cohort, &reps);
    let model_bytes = setup.params.total_bytes();
    drop(setup);
    drop(setup_window(
        &def,
        args.seed,
        &mut build_s[1],
        &mut setup_s[1],
    ));
    let out = Output {
        workload: def.name,
        seed: args.seed,
        trace: args.trace,
        width,
        rounds,
        cohort,
        model_bytes,
        build_s,
        setup_s,
        peak_rss_bytes: fedbiad_fl::metrics::peak_rss_bytes(),
        digests: reps
            .iter()
            .map(|r| format!("{:#018x}", digest(&r.log)))
            .collect(),
        adversarial_updates: reps
            .iter()
            .map(|r| adversarial_updates(&def, args.seed, r))
            .sum(),
        runs: reps,
        direct,
        checks,
    };
    println!(
        "{}",
        serde_json::to_string(&out).expect("benchmark output serialises")
    );
    ExitCode::SUCCESS
}
