//! Decorators over the program's public layer APIs, and the in-memory span
//! recorder they write to.
//!
//! The program itself is not instrumented for this benchmark: every span
//! here is opened by a wrapper that forwards to the wrapped layer.
//!
//! * [`ProbedAlgorithm`] wraps a `FlAlgorithm`. It always reads the clock
//!   once per `begin_round` (rounds are measured between consecutive
//!   `begin_round` calls) and keeps the per-round accounting the
//!   correctness checks need. With tracing on it also records
//!   `core.local_update`, `fl.aggregate` and `fl.eval_params` spans.
//! * [`ProbedModel`] wraps a `Model` and records `nn.loss_grad` and
//!   `nn.eval` spans. It forwards the batched entry points explicitly:
//!   the trait defaults would fall back to the per-sample reference path,
//!   which is bit-identical and so invisible to every log comparison.
//! * [`ProbedCompressor`] wraps a `Compressor` and records
//!   `compress.compress` spans.

use fedbiad_compress::{ClientState as SketchState, Compressed, Compressor};
use fedbiad_data::ClientData;
use fedbiad_fl::algorithm::{FlAlgorithm, LocalResult, RoundInfo, TrainConfig};
use fedbiad_nn::{ArchInfo, Batch, EvalAccum, Model, ParamSet};
use fedbiad_tensor::Workspace;
use rand::rngs::StdRng;
use serde::Serialize;
use std::cell::RefCell;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug, Serialize)]
pub struct Span {
    /// Layer call name, e.g. `nn.loss_grad`.
    pub name: &'static str,
    /// Round the span belongs to.
    pub round: usize,
    /// Small per-recorder thread number.
    pub thread: usize,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the parent span in the recorder, if any.
    pub parent: Option<usize>,
    /// Bytes handled by the call (aggregate: Σ upload wire bytes).
    pub bytes: u64,
}

/// Per-round accounting taken at the algorithm boundary.
#[derive(Clone, Debug, Default, Serialize)]
pub struct RoundAccount {
    /// `local_update` calls (updates attempted).
    pub attempted: u64,
    /// Uploads handed to `aggregate` (updates that reached aggregation).
    pub aggregated: u64,
    /// Σ upload `wire_bytes` handed to `aggregate`.
    pub wire_bytes: u64,
    /// Client ids whose `local_update` ran, in call order.
    pub clients: Vec<usize>,
}

/// In-memory recorder for one experiment run.
pub struct Recorder {
    trace: bool,
    epoch: Instant,
    round: AtomicUsize,
    round_span: AtomicI64,
    samples: AtomicU64,
    round_starts: Mutex<Vec<u64>>,
    accounts: Mutex<Vec<RoundAccount>>,
    spans: Mutex<Vec<Span>>,
    threads: Mutex<Vec<std::thread::ThreadId>>,
}

thread_local! {
    /// Open spans of this thread, innermost last: (recorder address, index).
    static OPEN: RefCell<Vec<(usize, usize)>> = const { RefCell::new(Vec::new()) };
}

impl Recorder {
    /// A recorder; with `trace` off it keeps only round clock reads and
    /// accounting, never spans.
    pub fn new(trace: bool) -> Arc<Self> {
        Arc::new(Self {
            trace,
            epoch: Instant::now(),
            round: AtomicUsize::new(0),
            round_span: AtomicI64::new(-1),
            samples: AtomicU64::new(0),
            round_starts: Mutex::new(Vec::new()),
            accounts: Mutex::new(Vec::new()),
            spans: Mutex::new(Vec::new()),
            threads: Mutex::new(Vec::new()),
        })
    }

    /// Nanoseconds since the recorder was made.
    pub fn clock_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn thread_no(&self) -> usize {
        let id = std::thread::current().id();
        let mut t = self.threads.lock().expect("thread table poisoned");
        match t.iter().position(|&x| x == id) {
            Some(i) => i,
            None => {
                t.push(id);
                t.len() - 1
            }
        }
    }

    fn begin_round(&self, round: usize) {
        let t = self.clock_ns();
        self.round_starts
            .lock()
            .expect("round clock poisoned")
            .push(t);
        self.round.store(round, Ordering::SeqCst);
        let mut acc = self.accounts.lock().expect("accounts poisoned");
        if acc.len() <= round {
            acc.resize(round + 1, RoundAccount::default());
        }
        drop(acc);
        if self.trace {
            let mut spans = self.spans.lock().expect("spans poisoned");
            let prev = self.round_span.load(Ordering::SeqCst);
            if prev >= 0 {
                spans[prev as usize].end_ns = t;
            }
            spans.push(Span {
                name: "round",
                round,
                thread: 0,
                start_ns: t,
                end_ns: t,
                parent: None,
                bytes: 0,
            });
            self.round_span
                .store(spans.len() as i64 - 1, Ordering::SeqCst);
        }
    }

    /// Close the last round span at `end_ns` (the run's return).
    pub fn finish(&self, end_ns: u64) {
        if self.trace {
            let prev = self.round_span.load(Ordering::SeqCst);
            if prev >= 0 {
                self.spans.lock().expect("spans poisoned")[prev as usize].end_ns = end_ns;
            }
        }
    }

    /// Open a span when tracing; the guard closes it.
    pub fn span(self: &Arc<Self>, name: &'static str, bytes: u64) -> Option<SpanGuard> {
        if !self.trace {
            return None;
        }
        let key = Arc::as_ptr(self) as usize;
        let parent = OPEN.with(|o| {
            o.borrow()
                .iter()
                .rev()
                .find(|(k, _)| *k == key)
                .map(|&(_, i)| i)
        });
        let parent = parent.or_else(|| {
            let r = self.round_span.load(Ordering::SeqCst);
            (r >= 0).then_some(r as usize)
        });
        let thread = self.thread_no();
        let start_ns = self.clock_ns();
        let index = {
            let mut spans = self.spans.lock().expect("spans poisoned");
            spans.push(Span {
                name,
                round: self.round.load(Ordering::SeqCst),
                thread,
                start_ns,
                end_ns: start_ns,
                parent,
                bytes,
            });
            spans.len() - 1
        };
        OPEN.with(|o| o.borrow_mut().push((key, index)));
        Some(SpanGuard {
            rec: Arc::clone(self),
            index,
        })
    }

    /// Clock reads taken at each `begin_round`.
    pub fn round_starts(&self) -> Vec<u64> {
        self.round_starts
            .lock()
            .expect("round clock poisoned")
            .clone()
    }

    /// Per-round accounting.
    pub fn accounts(&self) -> Vec<RoundAccount> {
        self.accounts.lock().expect("accounts poisoned").clone()
    }

    /// Local-training samples fed to the model so far.
    pub fn samples(&self) -> u64 {
        self.samples.load(Ordering::SeqCst)
    }

    /// Recorded spans, in open order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("spans poisoned").clone()
    }

    fn with_account(&self, round: usize, f: impl FnOnce(&mut RoundAccount)) {
        let mut acc = self.accounts.lock().expect("accounts poisoned");
        if acc.len() <= round {
            acc.resize(round + 1, RoundAccount::default());
        }
        f(&mut acc[round]);
    }
}

/// Closes its span on drop.
pub struct SpanGuard {
    rec: Arc<Recorder>,
    index: usize,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end = self.rec.clock_ns();
        if let Ok(mut spans) = self.rec.spans.lock() {
            spans[self.index].end_ns = end;
        }
        let key = Arc::as_ptr(&self.rec) as usize;
        OPEN.with(|o| {
            let mut o = o.borrow_mut();
            if let Some(pos) = o.iter().rposition(|&(k, i)| k == key && i == self.index) {
                o.remove(pos);
            }
        });
    }
}

/// Samples one local run feeds through the model: `local_iters` batches of
/// `min(batch_size, |D_k|)` samples (images) or windows (text), exactly as
/// `fl::client::run_local_training` draws them.
fn local_samples(data: &ClientData, cfg: &TrainConfig) -> u64 {
    (cfg.local_iters * cfg.batch_size.min(data.num_samples())) as u64
}

/// A `FlAlgorithm` decorator (see the module docs).
pub struct ProbedAlgorithm<A> {
    inner: A,
    rec: Arc<Recorder>,
}

impl<A> ProbedAlgorithm<A> {
    /// Wrap `inner`, recording into `rec`.
    pub fn new(inner: A, rec: Arc<Recorder>) -> Self {
        Self { inner, rec }
    }
}

impl<A: FlAlgorithm> FlAlgorithm for ProbedAlgorithm<A> {
    type ClientState = A::ClientState;
    type RoundCtx = A::RoundCtx;

    fn name(&self) -> String {
        self.inner.name()
    }

    fn init_client_state(
        &self,
        client_id: usize,
        model: &dyn Model,
        global: &ParamSet,
    ) -> Self::ClientState {
        self.inner.init_client_state(client_id, model, global)
    }

    fn begin_round(&mut self, info: RoundInfo, global: &ParamSet) -> Self::RoundCtx {
        self.rec.begin_round(info.round);
        self.inner.begin_round(info, global)
    }

    fn local_update(
        &self,
        info: RoundInfo,
        rctx: &Self::RoundCtx,
        client_id: usize,
        state: &mut Self::ClientState,
        global: &ParamSet,
        data: &ClientData,
        model: &dyn Model,
        cfg: &TrainConfig,
    ) -> LocalResult {
        self.rec
            .samples
            .fetch_add(local_samples(data, cfg), Ordering::Relaxed);
        self.rec.with_account(info.round, |a| {
            a.attempted += 1;
            a.clients.push(client_id);
        });
        let _span = self.rec.span("core.local_update", 0);
        self.inner
            .local_update(info, rctx, client_id, state, global, data, model, cfg)
    }

    fn aggregate(
        &mut self,
        info: RoundInfo,
        rctx: &Self::RoundCtx,
        global: &mut ParamSet,
        results: &[(usize, LocalResult)],
    ) {
        let bytes: u64 = results.iter().map(|(_, r)| r.upload.wire_bytes).sum();
        self.rec.with_account(info.round, |a| {
            a.aggregated += results.len() as u64;
            a.wire_bytes += bytes;
        });
        let _span = self.rec.span("fl.aggregate", bytes);
        self.inner.aggregate(info, rctx, global, results)
    }

    fn eval_params(&self, global: &ParamSet) -> ParamSet {
        let _span = self.rec.span("fl.eval_params", 0);
        self.inner.eval_params(global)
    }
}

/// A `Model` decorator (see the module docs).
pub struct ProbedModel<'a> {
    inner: &'a dyn Model,
    rec: Arc<Recorder>,
}

impl<'a> ProbedModel<'a> {
    /// Wrap `inner`, recording into `rec`.
    pub fn new(inner: &'a dyn Model, rec: Arc<Recorder>) -> Self {
        Self { inner, rec }
    }
}

impl Model for ProbedModel<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn arch(&self) -> ArchInfo {
        self.inner.arch()
    }

    fn init_params(&self, rng: &mut StdRng) -> ParamSet {
        self.inner.init_params(rng)
    }

    fn loss_grad(&self, params: &ParamSet, batch: &Batch<'_>, grads: &mut ParamSet) -> f32 {
        let _span = self.rec.span("nn.loss_grad_reference", 0);
        self.inner.loss_grad(params, batch, grads)
    }

    fn evaluate(&self, params: &ParamSet, batch: &Batch<'_>, k: usize) -> EvalAccum {
        let _span = self.rec.span("nn.eval_reference", 0);
        self.inner.evaluate(params, batch, k)
    }

    fn loss_grad_batched(
        &self,
        params: &ParamSet,
        batch: &Batch<'_>,
        grads: &mut ParamSet,
        ws: &mut Workspace,
    ) -> f32 {
        let _span = self.rec.span("nn.loss_grad", 0);
        self.inner.loss_grad_batched(params, batch, grads, ws)
    }

    fn evaluate_batched(
        &self,
        params: &ParamSet,
        batch: &Batch<'_>,
        k: usize,
        ws: &mut Workspace,
    ) -> EvalAccum {
        let _span = self.rec.span("nn.eval", 0);
        self.inner.evaluate_batched(params, batch, k, ws)
    }
}

/// A `Compressor` decorator (see the module docs).
pub struct ProbedCompressor {
    inner: Arc<dyn Compressor>,
    rec: Arc<Recorder>,
}

impl ProbedCompressor {
    /// Wrap `inner`, recording into `rec`.
    pub fn new(inner: Arc<dyn Compressor>, rec: Arc<Recorder>) -> Self {
        Self { inner, rec }
    }
}

impl Compressor for ProbedCompressor {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn compress(
        &self,
        state: &mut SketchState,
        delta: &[f32],
        round: usize,
        rng: &mut StdRng,
    ) -> Compressed {
        let _span = self.rec.span("compress.compress", (delta.len() * 4) as u64);
        self.inner.compress(state, delta, round, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedbiad_nn::mlp::MlpModel;
    use fedbiad_tensor::rng::{stream, StreamTag};

    /// A model whose per-sample reference entry points panic: only a
    /// decorator that forwards the batched calls explicitly survives it.
    struct BatchedOnly(MlpModel);

    impl Model for BatchedOnly {
        fn name(&self) -> &str {
            "batched-only"
        }
        fn arch(&self) -> ArchInfo {
            self.0.arch()
        }
        fn init_params(&self, rng: &mut StdRng) -> ParamSet {
            self.0.init_params(rng)
        }
        fn loss_grad(&self, _: &ParamSet, _: &Batch<'_>, _: &mut ParamSet) -> f32 {
            panic!("reference loss_grad reached through the decorator")
        }
        fn evaluate(&self, _: &ParamSet, _: &Batch<'_>, _: usize) -> EvalAccum {
            panic!("reference evaluate reached through the decorator")
        }
        fn loss_grad_batched(
            &self,
            p: &ParamSet,
            b: &Batch<'_>,
            g: &mut ParamSet,
            ws: &mut Workspace,
        ) -> f32 {
            self.0.loss_grad_batched(p, b, g, ws)
        }
        fn evaluate_batched(
            &self,
            p: &ParamSet,
            b: &Batch<'_>,
            k: usize,
            ws: &mut Workspace,
        ) -> EvalAccum {
            self.0.evaluate_batched(p, b, k, ws)
        }
    }

    #[test]
    fn model_decorator_forwards_the_batched_entry_points() {
        let inner = BatchedOnly(MlpModel::new(4, 3, 2));
        let rec = Recorder::new(true);
        let probed = ProbedModel::new(&inner, Arc::clone(&rec));
        let params = probed.init_params(&mut stream(1, StreamTag::Init, 0, 0));
        let mut grads = params.zeros_like();
        let x = [0.5f32; 8];
        let y = [0u32, 1];
        let batch = Batch::Dense {
            x: &x,
            y: &y,
            dim: 4,
        };
        let mut ws = Workspace::new();
        let loss = probed.loss_grad_batched(&params, &batch, &mut grads, &mut ws);
        assert!(loss.is_finite());
        let acc = probed.evaluate_batched(&params, &batch, 1, &mut ws);
        assert_eq!(acc.count, 2);
        let names: Vec<&str> = rec.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["nn.loss_grad", "nn.eval"]);
    }

    #[test]
    fn spans_nest_on_one_thread_and_fall_back_to_the_round() {
        let rec = Recorder::new(true);
        rec.begin_round(0);
        {
            let _outer = rec.span("core.local_update", 0);
            let _inner = rec.span("nn.loss_grad", 0);
        }
        let _agg = rec.span("fl.aggregate", 7);
        drop(_agg);
        rec.finish(rec.clock_ns());
        let s = rec.spans();
        assert_eq!(s[0].name, "round");
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[3].parent, Some(0));
        assert_eq!(s[3].bytes, 7);
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
    }

    #[test]
    fn untraced_recorder_keeps_only_the_round_clock() {
        let rec = Recorder::new(false);
        rec.begin_round(0);
        assert!(rec.span("nn.loss_grad", 0).is_none());
        rec.begin_round(1);
        assert_eq!(rec.round_starts().len(), 2);
        assert!(rec.spans().is_empty());
    }
}
