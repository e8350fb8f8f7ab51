//! The benchmark's two workloads and the code that runs one of them.
//!
//! Every workload is closed loop: the round driver starts round r + 1 only
//! after round r has committed, and all load comes from this one process
//! (its rayon pool is capped at the machine's available parallelism).

use crate::probe::{ProbedAlgorithm, ProbedCompressor, ProbedModel, Recorder, RoundAccount, Span};
use fedbiad_compress::dgc::Dgc;
use fedbiad_compress::Compressor;
use fedbiad_core::baselines::FedAvg;
use fedbiad_core::{FedBiad, FedBiadConfig};
use fedbiad_data::FedDataset;
use fedbiad_fl::round::SamplerKind;
use fedbiad_fl::workload::{
    build_with, PopulationOverride, Scale, Workload, WorkloadBundle, WorkloadOverrides,
};
use fedbiad_fl::{
    AdversarySpec, AggSettings, AttackMode, Experiment, ExperimentConfig, ExperimentLog,
    FlAlgorithm, RobustKind,
};
use fedbiad_nn::{Model, ParamSet};
use fedbiad_sim::{HeterogeneityProfile, SimConfig, Simulator, SyncBarrier};
use fedbiad_tensor::rng::{stream, StreamTag};
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

/// Which FL method a workload runs (named as in the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// FedBIAD composed with DGC (the paper's Fig. 5 combination).
    FedBiadDgc,
    /// FedAvg, uploads are full weights.
    FedAvg,
}

/// Which round driver runs the rounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Driver {
    /// `fl::runner::Experiment` (lock-step rounds).
    Lockstep,
    /// `sim::Simulator` under the synchronous barrier, homogeneous 5G.
    SimSync,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Def {
    /// Benchmark name.
    pub name: &'static str,
    /// Dataset/model pair.
    pub workload: Workload,
    /// Lazily registered population (clients, samples per client).
    pub population: Option<(usize, usize)>,
    /// Explicit cohort; `None` = ⌊κK⌋ with κ = 0.1.
    pub cohort: Option<usize>,
    /// Wall seconds of one round on the reference box (2-core Xeon VM,
    /// rayon width 2); sets how many rounds fill a run.
    pub nominal_round_s: f64,
    /// FL method.
    pub method: Method,
    /// Round driver.
    pub driver: Driver,
    /// Aggregation estimator.
    pub robust: RobustKind,
    /// Byzantine adversary.
    pub adversary: Option<AdversarySpec>,
}

/// Client fraction κ of every workload (the paper's 0.1).
pub const KAPPA: f32 = 0.1;
/// Test samples evaluated per round (the scenario engine's default cap).
pub const EVAL_MAX_SAMPLES: usize = 2_000;
/// Streaming-aggregation shard size (the scenario default).
pub const SHARD_KB: u32 = 64;
/// Seed of the synthetic datasets. Like a real benchmark corpus, the data
/// stays the same from run to run; `--seed` drives everything the
/// experiment draws (init, client sampling, batches, FedBIAD's patterns,
/// the adversary). A per-seed dataset would add its own accuracy spread
/// on top of the experiment's.
pub const DATA_SEED: u64 = 42;

/// All workloads, in `BENCHMARK.json` order.
pub const ALL: [Def; 2] = [
    Def {
        name: "mlp_fedbiad_dgc",
        workload: Workload::MnistLike,
        population: None,
        cohort: None,
        nominal_round_s: 1.35,
        method: Method::FedBiadDgc,
        driver: Driver::Lockstep,
        robust: RobustKind::Mean,
        adversary: None,
    },
    Def {
        name: "agg_trimmed_1m",
        workload: Workload::MnistLike,
        population: Some((1_000_000, 60)),
        cohort: Some(200),
        nominal_round_s: 3.5,
        method: Method::FedAvg,
        driver: Driver::SimSync,
        robust: RobustKind::TrimmedMean { trim_frac: 0.2 },
        adversary: Some(AdversarySpec {
            fraction: 0.2,
            mode: AttackMode::SignFlip,
        }),
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<Def> {
    ALL.into_iter().find(|d| d.name == name)
}

impl Def {
    /// Rounds of one experiment: as many as fill `seconds` on the
    /// reference box, at least two. The count depends only on `seconds`,
    /// never on measured speed, so a faster program runs the same
    /// experiment and must reach the same accuracy.
    pub fn rounds(&self, seconds: f64) -> usize {
        ((seconds / self.nominal_round_s).round() as usize).max(2)
    }

    fn overrides(&self) -> WorkloadOverrides {
        WorkloadOverrides {
            image_partition: None,
            population: self
                .population
                .map(|(clients, samples_per_client)| PopulationOverride {
                    clients,
                    samples_per_client,
                }),
        }
    }

    /// The experiment configuration for `seed`.
    pub fn config(&self, bundle: &WorkloadBundle, seed: u64, rounds: usize) -> ExperimentConfig {
        ExperimentConfig {
            rounds,
            client_fraction: KAPPA,
            seed,
            train: bundle.train,
            eval_topk: bundle.eval_topk,
            eval_every: 1,
            eval_max_samples: EVAL_MAX_SAMPLES,
            agg: AggSettings::sharded(SHARD_KB).with_robust(self.robust),
            cohort: self.cohort,
            sampler: if self.population.is_some() {
                SamplerKind::Sparse
            } else {
                SamplerKind::Shuffle
            },
            adversary: self.adversary,
            churn: None,
        }
    }
}

/// A built workload and what building it cost.
pub struct Setup {
    /// The bundle (data + model + hyper-parameters).
    pub bundle: WorkloadBundle,
    /// Initial global parameters.
    pub params: ParamSet,
    /// Seconds in `workload::build_with`.
    pub build_s: f64,
    /// Seconds from spec to ready bundle: build plus model init.
    pub setup_s: f64,
}

/// Build the workload's dataset and initialise its model for `seed`.
pub fn setup(def: &Def, seed: u64) -> Setup {
    let t0 = Instant::now();
    let bundle = build_with(def.workload, Scale::Lab, DATA_SEED, &def.overrides());
    let build_s = t0.elapsed().as_secs_f64();
    let params = bundle
        .model
        .init_params(&mut stream(seed, StreamTag::Init, 0, 0));
    let setup_s = t0.elapsed().as_secs_f64();
    Setup {
        bundle,
        params,
        build_s,
        setup_s,
    }
}

/// What one experiment run produced.
#[derive(Serialize)]
pub struct RepOut {
    /// Whether the spans were recorded.
    pub traced: bool,
    /// The experiment log.
    pub log: ExperimentLog,
    /// Run wall time, nanoseconds.
    pub wall_ns: u64,
    /// Clock reads at each `begin_round`, then the run's return.
    pub round_marks_ns: Vec<u64>,
    /// Local-training samples fed to the model.
    pub samples: u64,
    /// Per-round accounting at the algorithm boundary.
    pub accounts: Vec<RoundAccount>,
    /// Recorded spans (traced runs only).
    pub spans: Vec<Span>,
    /// Simulator trace events (0 under the lock-step driver).
    pub sim_events: usize,
}

/// FedBIAD's stage boundary R_b = R − 5, as the paper's 55 of 60 rounds
/// (the scenario engine's default).
fn stage_boundary(rounds: usize) -> usize {
    rounds.saturating_sub(5).max(1)
}

/// Run one `rounds`-round experiment of `def` on `bundle`.
pub fn run(def: &Def, bundle: &WorkloadBundle, seed: u64, rounds: usize, trace: bool) -> RepOut {
    let rec = Recorder::new(trace);
    let probed = ProbedModel::new(bundle.model.as_ref(), Arc::clone(&rec));
    let model: &dyn Model = if trace {
        &probed
    } else {
        bundle.model.as_ref()
    };
    let cfg = def.config(bundle, seed, rounds);
    let start = rec.clock_ns();
    let (log, sim_events) = match def.method {
        Method::FedBiadDgc => {
            let dgc: Arc<dyn Compressor> = Arc::new(Dgc::paper());
            let dgc: Arc<dyn Compressor> = if trace {
                Arc::new(ProbedCompressor::new(dgc, Arc::clone(&rec)))
            } else {
                dgc
            };
            drive(
                def,
                model,
                &bundle.data,
                cfg,
                ProbedAlgorithm::new(
                    FedBiad::with_sketch(
                        FedBiadConfig::paper(bundle.dropout_rate, stage_boundary(rounds)),
                        dgc,
                    ),
                    Arc::clone(&rec),
                ),
            )
        }
        Method::FedAvg => drive(
            def,
            model,
            &bundle.data,
            cfg,
            ProbedAlgorithm::new(FedAvg::new(), Arc::clone(&rec)),
        ),
    };
    let end = rec.clock_ns();
    rec.finish(end);
    let mut round_marks_ns = rec.round_starts();
    round_marks_ns.push(end);
    RepOut {
        traced: trace,
        log,
        wall_ns: end - start,
        round_marks_ns,
        samples: rec.samples(),
        accounts: rec.accounts(),
        spans: rec.spans(),
        sim_events,
    }
}

fn drive<A: FlAlgorithm>(
    def: &Def,
    model: &dyn Model,
    data: &FedDataset,
    cfg: ExperimentConfig,
    algo: A,
) -> (ExperimentLog, usize) {
    match def.driver {
        Driver::Lockstep => (Experiment::new(model, data, algo, cfg).run(), 0),
        Driver::SimSync => {
            let sim = SimConfig::new(cfg, HeterogeneityProfile::homogeneous_5g());
            let report = Simulator::new(model, data, algo, SyncBarrier, sim).run();
            (report.log, report.trace.len())
        }
    }
}
