//! Pid-sharded analysis over a supervised persistent worker pool: the
//! one execution path behind every
//! [`AnalysisSession`](crate::session::AnalysisSession), at any worker
//! count.
//!
//! Every piece of state the analysis pipeline carries between events is
//! per-process: the trace filter's descriptor-provenance map and cwd
//! relevance live in a per-pid entry, and coverage accumulation is a sum
//! of per-event contributions. A trace can therefore be sharded *by pid*
//! across worker threads with no cross-shard communication: each worker
//! runs an ordinary [`StreamingAnalyzer`] over its pids' events in trace
//! order, and the per-worker reports are combined with
//! [`AnalysisReport::merge`]. Because every aggregate in a report is an
//! order-independent sum over `BTreeMap`s, the merged report is
//! **identical** to a serial run — same keys, same counts, same
//! serialized bytes — regardless of the worker count. All shards
//! accumulate through one shared [`StrInterner`], so the pool builds a
//! single symbol table instead of N. `--jobs 1` is this same pool with
//! one worker thread.
//!
//! The shard threads are **persistent**: they are spawned on the first
//! dispatched batch and fed over bounded channels of depth
//! [`PIPELINE_DEPTH`], so the caller can decode (or, in a feedback
//! campaign, execute) the next chunk while the workers analyze the
//! previous one. Batches are shared as `Arc<EventBatch>` — one columnar
//! block broadcast to every worker, each of which walks it by reference
//! and keeps only its own pids. Batches smaller than
//! [`PARALLEL_THRESHOLD`] events are coalesced in a caller-side buffer
//! so per-batch channel overhead never dominates tiny feeds.
//!
//! # Supervision
//!
//! Worker panics are caught with `catch_unwind`, converted into
//! structured [`ShardError`] values, and absorbed by restarting the
//! failed shard with exponential backoff (see [`SupervisorPolicy`]).
//! Every dispatched batch is retained (`Arc`-shared, so retention costs
//! pointers, not copies) as the replay log: a restarted shard replays
//! it into a fresh [`StreamingAnalyzer`], so a recovered run's report is
//! byte-identical to a fault-free one. Restarts never double-count
//! metrics: each worker *incarnation* accumulates into a private
//! [`PipelineMetrics`] whose snapshot is absorbed into the shared
//! instance only on clean completion. With
//! [`SupervisorPolicy::shard_timeout`] set, a shard that stops
//! heartbeating is declared stalled, abandoned, and replayed the same
//! way.
//!
//! # Checkpoint cuts
//!
//! A cut drains the pool: every shard finishes its incarnation, its
//! report merges into the running base report and its per-pid relevance
//! states replace the base states, and the replay log is cleared. The
//! next batch spawns successors seeded with those states — the exact
//! resume invariant the checkpoint tests prove, which also makes
//! resuming from a checkpoint free. The per-shard supervision ledger is
//! *not* reset by a cut: [`SupervisorPolicy::max_restarts`] bounds a
//! whole run, and a shard that exhausts it (`gave_up`) stays abandoned
//! until finish. Its pids are omitted from every later cut and from the
//! final report, and a single [`ShardFailureRecord`] per failed shard
//! says exactly what is missing.

use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use iocov_trace::{EventBatch, EventView, StrInterner};

use crate::checkpoint::PidStateSnapshot;
use crate::coverage::AnalysisReport;
use crate::filter::TraceFilter;
use crate::metrics::{MetricsSnapshot, PipelineMetrics, ShardFailureRecord};
use crate::streaming::StreamingAnalyzer;

/// A progress hook observed by every shard worker: `(shard, tick)`,
/// where `tick` is the batch ordinal within the current worker
/// incarnation. Fault injection (`iocov-faults`) plugs in here to panic
/// or stall a specific shard at a specific point.
pub type ShardHook = Arc<dyn Fn(usize, u64) + Send + Sync>;

/// Restart budget, backoff curve, and stall watchdog for supervised
/// shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorPolicy {
    /// Restarts allowed per shard over a whole run before it is
    /// abandoned (`gave_up`).
    pub max_restarts: u32,
    /// Backoff before the first restart; doubles per restart.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// If set, a shard with no heartbeat progress for this long (while
    /// the supervisor is waiting on it) is declared stalled and
    /// replayed. `None` waits forever, like an unsupervised join.
    pub shard_timeout: Option<Duration>,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        SupervisorPolicy {
            max_restarts: 3,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
            shard_timeout: None,
        }
    }
}

impl SupervisorPolicy {
    /// The backoff before the `attempt`-th restart (1-based):
    /// `base_backoff * 2^(attempt-1)`, capped at `max_backoff`.
    #[must_use]
    pub fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.saturating_sub(1).min(16);
        self.base_backoff
            .saturating_mul(factor)
            .min(self.max_backoff)
    }

    /// The backoff before the `attempt`-th restart with bounded
    /// deterministic jitter: the exponential [`backoff`](Self::backoff)
    /// plus up to half of itself, where the extra fraction is drawn
    /// from a SplitMix64 mix of `(seed, attempt)`. The result always
    /// stays within `[base_backoff, max_backoff]`, and the same
    /// `(seed, attempt)` pair always yields the same duration — so
    /// simultaneous worker deaths fan out instead of restarting in
    /// lockstep, while fault schedules stay reproducible.
    #[must_use]
    pub fn jittered_backoff(&self, attempt: u32, seed: u64) -> Duration {
        let exp = self.backoff(attempt);
        let nanos = u64::try_from(exp.as_nanos()).unwrap_or(u64::MAX);
        let extra = splitmix64(seed, u64::from(attempt)) % (nanos / 2 + 1);
        Duration::from_nanos(nanos.saturating_add(extra)).clamp(self.base_backoff, self.max_backoff)
    }

    /// Sets the stall watchdog timeout.
    #[must_use]
    pub fn with_shard_timeout(mut self, timeout: Duration) -> Self {
        self.shard_timeout = Some(timeout);
        self
    }

    /// Sets the restart budget.
    #[must_use]
    pub fn with_max_restarts(mut self, max_restarts: u32) -> Self {
        self.max_restarts = max_restarts;
        self
    }
}

/// SplitMix64 finalizer over `(seed, n)` — the same construction the
/// workload generator uses for per-round keys. Dependency-free and
/// byte-reproducible, which is all restart jitter needs.
#[must_use]
pub fn splitmix64(seed: u64, n: u64) -> u64 {
    let mut z = seed.wrapping_add(n.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A structured shard failure, as observed by the supervisor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// The worker panicked; carries the panic payload rendered to text.
    Panicked(String),
    /// The worker produced no heartbeat for longer than the watchdog
    /// allows.
    Stalled {
        /// How long the supervisor waited without progress.
        waited: Duration,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Panicked(msg) => write!(f, "worker panicked: {msg}"),
            ShardError::Stalled { waited } => {
                write!(
                    f,
                    "worker stalled: no heartbeat for {}ms",
                    waited.as_millis()
                )
            }
        }
    }
}

thread_local! {
    static IN_SUPERVISED_SCAN: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Whether the current thread is inside a supervised shard scan — a
/// panic raised here is caught, converted into a structured
/// [`ShardError::Panicked`], and handled by the supervisor (restart or
/// degrade), never an abort. Binaries can install a panic hook that
/// consults this to keep recovered panics off stderr; the panic message
/// still reaches the failure manifest.
#[must_use]
pub fn in_supervised_scan() -> bool {
    IN_SUPERVISED_SCAN.with(std::cell::Cell::get)
}

/// RAII: marks the current thread supervised for the guard's lifetime
/// (cleared on unwind too, so a panic leaves the thread unmarked once
/// the supervisor has taken over).
struct SupervisedScanGuard;

impl SupervisedScanGuard {
    fn enter() -> Self {
        IN_SUPERVISED_SCAN.with(|flag| flag.set(true));
        SupervisedScanGuard
    }
}

impl Drop for SupervisedScanGuard {
    fn drop(&mut self) {
        IN_SUPERVISED_SCAN.with(|flag| flag.set(false));
    }
}

/// Renders a `catch_unwind` payload to text.
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Per-pid relevance states, keyed by pid.
type PidStates = BTreeMap<u32, PidStateSnapshot>;

/// What a worker incarnation hands back on clean completion.
struct ShardOutput {
    report: AnalysisReport,
    /// The shard's per-pid relevance states (its restored base subset
    /// plus every pid it saw since).
    states: PidStates,
    /// The incarnation's private metrics (snapshot + stage timings),
    /// for the supervisor to absorb.
    counters: Option<(MetricsSnapshot, BTreeMap<String, u64>)>,
}

/// A worker incarnation's exit message: its output, or the panic
/// message it died with.
type WorkerExit = Result<Box<ShardOutput>, String>;

/// One live worker incarnation as the supervisor sees it.
struct Slot {
    /// Batch queue sender; `None` once the queue is closed (at drain
    /// time) or the shard abandoned.
    jobs: Option<SyncSender<Arc<EventBatch>>>,
    /// Exit-message channel from the incarnation.
    done: Receiver<WorkerExit>,
    /// Bumped by the worker after every processed batch — the liveness
    /// signal the stall watchdog reads.
    heartbeat: Arc<AtomicU64>,
    /// Batches from the supervisor's log already delivered to this
    /// incarnation.
    sent: usize,
}

impl Slot {
    /// A slot with no worker behind it (abandoned, or never spawned):
    /// every interaction sees a dead channel.
    fn dead() -> Self {
        let (_, done) = sync_channel(1);
        Slot {
            jobs: None,
            done,
            heartbeat: Arc::new(AtomicU64::new(0)),
            sent: 0,
        }
    }
}

/// Per-shard supervision ledger, kept for the whole run.
#[derive(Debug, Clone, Default)]
struct ShardSupervision {
    restarts: u32,
    gave_up: bool,
    last_error: Option<String>,
}

/// The stall watchdog over one slot while the supervisor waits on it:
/// fails once the heartbeat has not moved for the policy's timeout.
struct Watchdog<'a> {
    heartbeat: &'a AtomicU64,
    limit: Option<Duration>,
    last_beat: u64,
    progress_at: Instant,
}

impl<'a> Watchdog<'a> {
    fn new(slot: &'a Slot, limit: Option<Duration>) -> Self {
        Watchdog {
            heartbeat: &slot.heartbeat,
            limit,
            last_beat: slot.heartbeat.load(Ordering::Relaxed),
            progress_at: Instant::now(),
        }
    }

    fn check(&mut self) -> Result<(), ShardError> {
        let Some(limit) = self.limit else {
            return Ok(());
        };
        let beat = self.heartbeat.load(Ordering::Relaxed);
        if beat != self.last_beat {
            self.last_beat = beat;
            self.progress_at = Instant::now();
        } else if self.progress_at.elapsed() >= limit {
            return Err(ShardError::Stalled {
                waited: self.progress_at.elapsed(),
            });
        }
        Ok(())
    }
}

/// The loop run by each persistent shard thread: drain batches (keeping
/// only `pid % n == w`) until the queue closes, then hand back the
/// shard's report and pid states.
fn worker_loop(
    w: usize,
    n: usize,
    mut shard: StreamingAnalyzer,
    jobs: Receiver<Arc<EventBatch>>,
    metrics: Option<Arc<PipelineMetrics>>,
    heartbeat: Arc<AtomicU64>,
    hook: Option<ShardHook>,
) -> (AnalysisReport, PidStates) {
    let mut tick = 0u64;
    while let Ok(batch) = jobs.recv() {
        if let Some(hook) = &hook {
            hook(w, tick);
        }
        tick += 1;
        // Each worker times its own scan, so the "analyze" stage total
        // is summed across shards (CPU time, not wall clock).
        let _timer = metrics.as_deref().map(|m| m.time_stage("analyze"));
        // Walk the shared columns by reference: no owned event is
        // materialized on the worker side either.
        for event in batch.iter() {
            if event.pid() as usize % n == w {
                shard.push(&event);
            }
        }
        heartbeat.fetch_add(1, Ordering::Relaxed);
    }
    heartbeat.fetch_add(1, Ordering::Relaxed);
    let states = shard.pid_states();
    (shard.finish(), states)
}

/// The supervised pool: N **persistent** worker threads, each owning a
/// [`StreamingAnalyzer`] shard for the pids with `pid % N == shard
/// index`, plus the cumulative report and pid states of every completed
/// cut.
///
/// Shard state survives across [`push`](Self::push) calls, so feeding a
/// long trace batch by batch preserves descriptor provenance exactly
/// like a single serial [`StreamingAnalyzer`] would. A shard that
/// panics or stalls is restarted with a fresh analyzer and replayed
/// from the first batch since the last cut, reproducing the exact
/// per-shard event sequence.
pub(crate) struct ParallelStreamingAnalyzer {
    filter: TraceFilter,
    nworkers: usize,
    interner: Arc<StrInterner>,
    metrics: Option<Arc<PipelineMetrics>>,
    policy: SupervisorPolicy,
    hook: Option<ShardHook>,
    /// Live incarnations; empty until the first dispatch after
    /// construction or a cut.
    slots: Vec<Slot>,
    /// Every batch dispatched since the last cut, in order — the replay
    /// log.
    batch_log: Vec<Arc<EventBatch>>,
    /// Per-shard restart ledger over the whole run.
    supervision: Vec<ShardSupervision>,
    /// Caller-side coalescing buffer for batches below
    /// [`PARALLEL_THRESHOLD`].
    pending: EventBatch,
    /// Reports merged out of previous cuts (and a resumed checkpoint).
    base_report: AnalysisReport,
    /// Per-pid relevance states at the last cut (or resume); each shard
    /// incarnation restores its `pid % N == shard` subset before
    /// scanning, supervised respawns included.
    base_states: PidStates,
}

impl ParallelStreamingAnalyzer {
    /// A pool of `workers` shards (clamped to at least 1) over clones of
    /// `filter`; `resume` seeds the cumulative report and pid states
    /// from a checkpoint. Threads are spawned on the first dispatched
    /// batch, not here.
    pub(crate) fn new(
        filter: TraceFilter,
        workers: usize,
        metrics: Option<Arc<PipelineMetrics>>,
        policy: SupervisorPolicy,
        hook: Option<ShardHook>,
        resume: Option<(AnalysisReport, PidStates)>,
    ) -> Self {
        let nworkers = workers.max(1);
        let (base_report, base_states) = resume.unwrap_or_default();
        ParallelStreamingAnalyzer {
            filter,
            nworkers,
            interner: Arc::new(StrInterner::new()),
            metrics,
            policy,
            hook,
            slots: Vec::new(),
            batch_log: Vec::new(),
            supervision: vec![ShardSupervision::default(); nworkers],
            pending: EventBatch::new(),
            base_report,
            base_states,
        }
    }

    /// Spawns one fresh worker incarnation for shard `w`.
    fn spawn_slot(&self, w: usize) -> std::io::Result<Slot> {
        let n = self.nworkers;
        let (jobs, queue) = sync_channel::<Arc<EventBatch>>(PIPELINE_DEPTH);
        let (done_tx, done) = sync_channel::<WorkerExit>(1);
        let heartbeat = Arc::new(AtomicU64::new(0));
        // Filter cloned per incarnation: the worker thread owns its
        // analyzer (and dies with it on panic), so it cannot borrow
        // the supervisor's copy.
        let mut shard =
            StreamingAnalyzer::with_interner(self.filter.clone(), Arc::clone(&self.interner));
        if !self.base_states.is_empty() {
            // Cloned, not moved: the base states must survive as the
            // seed for every *future* incarnation of this shard — a
            // supervised respawn replays the log on the same base.
            let subset: PidStates = self
                .base_states
                .iter()
                .filter(|(&pid, _)| pid as usize % n == w)
                .map(|(&pid, state)| (pid, state.clone()))
                .collect();
            shard.restore_pid_states(&subset);
        }
        // Private metrics per incarnation; absorbed by the supervisor
        // only on clean completion.
        let local = self
            .metrics
            .as_ref()
            .map(|_| Arc::new(PipelineMetrics::default()));
        if let Some(m) = &local {
            shard = shard.with_metrics(Arc::clone(m));
        }
        let beat = Arc::clone(&heartbeat);
        let hook = self.hook.clone();
        std::thread::Builder::new()
            .name(format!("iocov-shard-{w}"))
            .spawn(move || {
                let loop_metrics = local.clone();
                let result = catch_unwind(AssertUnwindSafe(move || {
                    let _supervised = SupervisedScanGuard::enter();
                    worker_loop(w, n, shard, queue, loop_metrics, beat, hook)
                }));
                let exit = result
                    .map(|(report, states)| {
                        Box::new(ShardOutput {
                            report,
                            states,
                            counters: local.map(|m| (m.snapshot(), m.stage_timings())),
                        })
                    })
                    .map_err(|payload| panic_message(payload.as_ref()));
                let _ = done_tx.send(exit);
            })?;
        Ok(Slot {
            jobs: Some(jobs),
            done,
            heartbeat,
            sent: 0,
        })
    }

    /// Spawns shard `w`, burning restart budget on spawn failure. A
    /// shard that has given up, or whose worker cannot be spawned at
    /// all, gets a dead slot instead of aborting the run.
    fn spawned_slot(&mut self, w: usize) -> Slot {
        while !self.supervision[w].gave_up {
            match self.spawn_slot(w) {
                Ok(slot) => return slot,
                Err(e) => self.record_failure(w, format!("spawn shard worker: {e}")),
            }
        }
        Slot::dead()
    }

    /// Records a failure of shard `w`: charges a restart (with backoff)
    /// or, once the budget is spent, abandons the shard.
    fn record_failure(&mut self, w: usize, error: String) {
        let ledger = &mut self.supervision[w];
        ledger.last_error = Some(error);
        if ledger.restarts >= self.policy.max_restarts {
            ledger.gave_up = true;
            return;
        }
        ledger.restarts += 1;
        let restarts = ledger.restarts;
        if let Some(metrics) = &self.metrics {
            metrics.record_shard_restart();
        }
        std::thread::sleep(self.policy.backoff(restarts));
    }

    /// Offers one batch to shard `w`, spinning on a full queue (with the
    /// stall watchdog active) and detecting a dead worker.
    fn offer(&self, w: usize, mut batch: Arc<EventBatch>) -> Result<(), ShardError> {
        let slot = &self.slots[w];
        let Some(jobs) = &slot.jobs else {
            return Err(ShardError::Panicked("worker unavailable".into()));
        };
        let mut watchdog = Watchdog::new(slot, self.policy.shard_timeout);
        loop {
            match jobs.try_send(batch) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Disconnected(_)) => return Err(self.reap_exit(w)),
                Err(TrySendError::Full(back)) => {
                    batch = back;
                    watchdog.check()?;
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
    }

    /// Fetches the exit message of a worker whose queue disconnected.
    fn reap_exit(&self, w: usize) -> ShardError {
        match self.slots[w].done.recv_timeout(Duration::from_secs(5)) {
            Ok(Err(msg)) => ShardError::Panicked(msg),
            Ok(Ok(_)) => ShardError::Panicked("worker exited before its queue closed".into()),
            Err(_) => ShardError::Panicked("worker terminated without reporting".into()),
        }
    }

    /// Records a failure for shard `w` and either respawns a fresh
    /// incarnation (the caller replays the log into it) or abandons the
    /// shard once the restart budget is spent.
    fn recover(&mut self, w: usize, error: &ShardError) {
        // Abandon the failed incarnation: dropping the sender lets a
        // live-but-stalled one drain and exit on its own; its report is
        // discarded.
        self.slots[w].jobs = None;
        self.record_failure(w, error.to_string());
        if !self.supervision[w].gave_up {
            self.slots[w] = self.spawned_slot(w);
        }
    }

    /// Delivers log batches to shard `w` until its incarnation has seen
    /// the first `target` batches (restarting and replaying as needed).
    fn deliver_up_to(&mut self, w: usize, target: usize) {
        while !self.supervision[w].gave_up && self.slots[w].sent < target {
            let idx = self.slots[w].sent;
            match self.offer(w, Arc::clone(&self.batch_log[idx])) {
                Ok(()) => self.slots[w].sent = idx + 1,
                Err(error) => self.recover(w, &error),
            }
        }
    }

    /// Waits for shard `w`'s incarnation to exit after its queue was
    /// closed, watching for stalls.
    fn await_exit(&self, w: usize) -> Result<Box<ShardOutput>, ShardError> {
        let slot = &self.slots[w];
        let mut watchdog = Watchdog::new(slot, self.policy.shard_timeout);
        loop {
            match slot.done.recv_timeout(Duration::from_millis(20)) {
                Ok(exit) => return exit.map_err(ShardError::Panicked),
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(ShardError::Panicked(
                        "worker terminated without reporting".into(),
                    ))
                }
                Err(RecvTimeoutError::Timeout) => watchdog.check()?,
            }
        }
    }

    /// Hands one batch to every worker. Blocks only when a worker's
    /// queue is [`PIPELINE_DEPTH`] batches behind — the backpressure
    /// that bounds memory to `depth × batch` per shard (plus the
    /// `Arc`-shared replay log).
    fn dispatch(&mut self, batch: Arc<EventBatch>) {
        if self.slots.is_empty() {
            self.slots = (0..self.nworkers).map(|w| self.spawned_slot(w)).collect();
        }
        self.batch_log.push(batch);
        let target = self.batch_log.len();
        for w in 0..self.nworkers {
            self.deliver_up_to(w, target);
        }
    }

    /// Consumes one columnar batch: a batch of at least
    /// [`PARALLEL_THRESHOLD`] events is wrapped in an `Arc` and
    /// broadcast as is (one refcount bump per shard); smaller batches
    /// are coalesced column-to-column and dispatched once the buffer
    /// reaches the threshold.
    pub(crate) fn push(&mut self, batch: EventBatch) {
        if self.pending.is_empty() && batch.len() >= PARALLEL_THRESHOLD {
            self.dispatch(Arc::new(batch));
            return;
        }
        self.pending.append_batch(&batch);
        if self.pending.len() >= PARALLEL_THRESHOLD {
            self.flush_pending();
        }
    }

    /// Dispatches the coalescing buffer, if non-empty.
    fn flush_pending(&mut self) {
        if !self.pending.is_empty() {
            let batch = Arc::new(std::mem::take(&mut self.pending));
            self.dispatch(batch);
        }
    }

    /// Drains the pool into the cumulative base: flushes the coalescing
    /// buffer, closes every queue, and merges each shard's report and
    /// pid states in shard order — supervising throughout. A shard that
    /// panics or stalls at any point (the drain included) is restarted
    /// and replayed; an abandoned shard contributes nothing. The
    /// supervision ledger survives; the next batch spawns successors.
    fn drain(&mut self) {
        self.flush_pending();
        let target = self.batch_log.len();
        for w in 0..self.slots.len() {
            loop {
                self.deliver_up_to(w, target);
                if self.supervision[w].gave_up {
                    break;
                }
                // Close this incarnation's queue so it can finish.
                self.slots[w].jobs = None;
                match self.await_exit(w) {
                    Ok(output) => {
                        self.base_report.merge(&output.report);
                        // The worker's map already contains its
                        // restored base subset, so extend replaces
                        // exactly this shard's pids.
                        self.base_states.extend(output.states);
                        if let (Some(shared), Some((snapshot, timings))) =
                            (&self.metrics, output.counters)
                        {
                            shared.absorb(&snapshot);
                            shared.absorb_stage_timings(&timings);
                        }
                        break;
                    }
                    Err(error) => self.recover(w, &error),
                }
            }
        }
        self.slots.clear();
        self.batch_log.clear();
    }

    /// A checkpoint cut: the cumulative report and per-pid relevance
    /// states over everything pushed so far. Subsequent pushes continue
    /// seamlessly.
    pub(crate) fn cut(&mut self) -> (AnalysisReport, PidStates) {
        self.drain();
        (self.base_report.clone(), self.base_states.clone())
    }

    /// Drains the pool: the final report and the shard-failure manifest
    /// (one record per shard that needed restarting, in shard order,
    /// also recorded once in the attached metrics). A degraded run
    /// returns the partial report — never panics.
    pub(crate) fn finish(mut self) -> (AnalysisReport, Vec<ShardFailureRecord>) {
        self.drain();
        let failures: Vec<ShardFailureRecord> = self
            .supervision
            .iter()
            .enumerate()
            .filter(|(_, s)| s.restarts > 0 || s.gave_up)
            .map(|(w, s)| ShardFailureRecord {
                shard: w,
                restarts: s.restarts,
                gave_up: s.gave_up,
                last_error: s.last_error.clone().unwrap_or_default(),
            })
            .collect();
        if let Some(metrics) = &self.metrics {
            for failure in &failures {
                metrics.record_shard_failure(failure.clone());
            }
        }
        (self.base_report, failures)
    }
}

/// Batches smaller than this are coalesced in the pool's caller-side
/// buffer before dispatch; per-batch dispatch costs more than analyzing
/// this few events.
pub const PARALLEL_THRESHOLD: usize = 1024;

/// Bounded depth of each worker's job queue: the caller may run at most
/// this many batches ahead of the slowest shard.
pub const PIPELINE_DEPTH: usize = 2;

#[cfg(test)]
pub(crate) mod tests {
    //! Supervision and equivalence through the one execution path: an
    //! [`AnalysisSession`] at one worker and at several.

    use super::*;
    use crate::pipeline::PipelineBuilder;
    use crate::session::AnalysisSession;
    use crate::{Analyzer, ArgName};
    use iocov_trace::{ArgValue, Trace, TraceEvent};

    /// A multi-pid trace exercising every provenance rule: opens, dups,
    /// renames, chdir, interleaved across `pids` processes.
    pub(crate) fn multi_pid_trace(pids: u32, per_pid: usize) -> Vec<TraceEvent> {
        let mut events = Vec::new();
        for round in 0..per_pid {
            for pid in 0..pids {
                let fd = 3 + round as i32;
                let mount = pid % 2 == 0; // odd pids are pure noise
                let root = if mount { "/mnt/test" } else { "/somewhere" };
                let mut step = vec![
                    TraceEvent::build(
                        "open",
                        2,
                        vec![
                            ArgValue::Path(format!("{root}/f{round}")),
                            ArgValue::Flags(0o101),
                            ArgValue::Mode(0o644),
                        ],
                        i64::from(fd),
                    ),
                    TraceEvent::build(
                        "dup2",
                        33,
                        vec![ArgValue::Fd(fd), ArgValue::Fd(fd + 64)],
                        i64::from(fd + 64),
                    ),
                    TraceEvent::build(
                        "write",
                        1,
                        vec![
                            ArgValue::Fd(fd + 64),
                            ArgValue::Ptr(1),
                            ArgValue::UInt(1 << (round % 20)),
                        ],
                        1 << (round % 20),
                    ),
                    TraceEvent::build(
                        "rename",
                        82,
                        vec![
                            ArgValue::Path(format!("/tmp/stage{round}")),
                            ArgValue::Path(format!("{root}/dst{round}")),
                        ],
                        0,
                    ),
                    TraceEvent::build("chdir", 80, vec![ArgValue::Path(root.to_owned())], 0),
                    TraceEvent::build(
                        "open",
                        2,
                        vec![
                            ArgValue::Path("relative".into()),
                            ArgValue::Flags(0),
                            ArgValue::Mode(0),
                        ],
                        i64::from(fd + 100),
                    ),
                    TraceEvent::build("close", 3, vec![ArgValue::Fd(fd)], 0),
                ];
                for event in &mut step {
                    event.pid = pid;
                }
                events.extend(step);
            }
        }
        events
    }

    pub(crate) fn filter() -> TraceFilter {
        TraceFilter::mount_point("/mnt/test").unwrap()
    }

    /// A hook that panics the first `times` times shard `shard` reaches
    /// tick `tick`, then disarms (mirrors `iocov_faults::PanicSchedule`,
    /// which this crate cannot depend on).
    fn panic_hook(shard: usize, tick: u64, times: u64) -> ShardHook {
        let fired = Arc::new(AtomicU64::new(0));
        Arc::new(move |w, t| {
            if w == shard && t == tick && fired.fetch_add(1, Ordering::SeqCst) < times {
                panic!("injected test panic (shard {w}, tick {t})");
            }
        })
    }

    /// A fast-retry policy so tests don't sleep through real backoff.
    fn fast_policy() -> SupervisorPolicy {
        SupervisorPolicy {
            max_restarts: 3,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(2),
            shard_timeout: None,
        }
    }

    /// A session at `jobs` workers under `policy`, with an optional
    /// fault hook and shared metrics.
    fn session(
        jobs: usize,
        policy: SupervisorPolicy,
        hook: Option<ShardHook>,
        metrics: Option<&Arc<PipelineMetrics>>,
    ) -> AnalysisSession {
        let mut builder = PipelineBuilder::new(filter()).jobs(jobs).policy(policy);
        if let Some(hook) = hook {
            builder = builder.hook(hook);
        }
        if let Some(m) = metrics {
            builder = builder.metrics(Arc::clone(m));
        }
        builder.build_session()
    }

    /// Feeds `events` in `chunk`-sized owned batches and finishes.
    fn run(
        mut session: AnalysisSession,
        events: &[TraceEvent],
        chunk: usize,
    ) -> (AnalysisReport, Vec<ShardFailureRecord>) {
        for part in events.chunks(chunk) {
            session.feed_owned(part.to_vec());
        }
        session.finish()
    }

    fn serial(events: &[TraceEvent]) -> String {
        let trace = Trace::from_events(events.to_vec());
        serde_json::to_string(&Analyzer::new(filter()).analyze(&trace)).unwrap()
    }

    /// The serial report over the events of every shard except
    /// `failed` — what a run that abandoned that shard must report.
    fn serial_without_shard(events: &[TraceEvent], jobs: usize, failed: usize) -> String {
        let kept: Vec<TraceEvent> = events
            .iter()
            .filter(|e| e.pid as usize % jobs != failed)
            .cloned()
            .collect();
        serial(&kept)
    }

    #[test]
    fn jittered_backoff_is_bounded_and_reproducible() {
        let policy = SupervisorPolicy::default();
        for seed in [0u64, 1, 0xdead_beef, u64::MAX] {
            for attempt in 1..=8u32 {
                let a = policy.jittered_backoff(attempt, seed);
                let b = policy.jittered_backoff(attempt, seed);
                // Byte-reproducible per (seed, attempt).
                assert_eq!(a, b, "seed={seed} attempt={attempt}");
                assert!(
                    a >= policy.base_backoff && a <= policy.max_backoff,
                    "seed={seed} attempt={attempt}: {a:?} outside [base, max]"
                );
                // Never less than the un-jittered exponential floor
                // (until the ceiling compresses everything onto max).
                assert!(a >= policy.backoff(attempt).min(policy.max_backoff));
            }
        }
        // Different seeds actually fan out (the point of the jitter).
        let spread: std::collections::BTreeSet<Duration> = (0..16u64)
            .map(|seed| policy.jittered_backoff(2, seed))
            .collect();
        assert!(spread.len() > 1, "jitter produced identical backoffs");
    }

    #[test]
    fn session_matches_serial_at_every_worker_count() {
        // Small chunks exercise the coalescing buffer; threshold-sized
        // ones the direct broadcast. 8 workers over 7 pids leaves one
        // shard idle.
        let events = multi_pid_trace(7, 60);
        assert!(events.len() >= 2 * PARALLEL_THRESHOLD);
        let expected = serial(&events);
        for workers in 1..=8 {
            for chunk in [7, PARALLEL_THRESHOLD] {
                let (report, failures) =
                    run(session(workers, fast_policy(), None, None), &events, chunk);
                assert!(failures.is_empty());
                assert_eq!(
                    expected,
                    serde_json::to_string(&report).unwrap(),
                    "diverged at {workers} workers, chunk {chunk}"
                );
            }
        }
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let pool = ParallelStreamingAnalyzer::new(
            TraceFilter::keep_all(),
            0,
            None,
            SupervisorPolicy::default(),
            None,
            None,
        );
        assert_eq!(pool.nworkers, 1);
    }

    #[test]
    fn empty_session_finishes_to_default_report() {
        for jobs in [1, 4] {
            let (report, failures) = session(jobs, fast_policy(), None, None).finish();
            assert_eq!(report, AnalysisReport::default());
            assert!(failures.is_empty());
        }
    }

    #[test]
    fn provenance_survives_batch_boundaries() {
        // fd opened in batch 1, duplicated in batch 2, written via the
        // duplicate in batch 3: per-batch analysis would lose the
        // attribution, the sharded session must not.
        let mut open = TraceEvent::build(
            "open",
            2,
            vec![
                ArgValue::Path("/mnt/test/a".into()),
                ArgValue::Flags(0),
                ArgValue::Mode(0),
            ],
            3,
        );
        open.pid = 6;
        let mut dup = TraceEvent::build("dup", 32, vec![ArgValue::Fd(3)], 9);
        dup.pid = 6;
        let mut write = TraceEvent::build(
            "write",
            1,
            vec![ArgValue::Fd(9), ArgValue::Ptr(1), ArgValue::UInt(128)],
            128,
        );
        write.pid = 6;
        for jobs in [1, 4] {
            let mut session = session(jobs, fast_policy(), None, None);
            for event in [&open, &dup, &write] {
                session.feed_owned(vec![event.clone()]);
                // A cut between batches must not lose the state either.
                let _ = session.cut();
            }
            let (report, _) = session.finish();
            assert_eq!(report.input_coverage(ArgName::WriteCount).calls, 1);
            assert_eq!(report.filter_stats.kept, 3);
        }
    }

    #[test]
    fn metrics_snapshot_is_byte_identical_to_serial() {
        // Large enough to clear PARALLEL_THRESHOLD, so real threads race
        // on the shared atomics. The reference is a serial Analyzer's
        // snapshot plus the batch-shape counters the session records on
        // feed (per-event sums, so one whole-trace record matches any
        // chunking).
        let events = multi_pid_trace(7, 40);
        assert!(events.len() >= PARALLEL_THRESHOLD);
        let serial_metrics = Arc::new(PipelineMetrics::default());
        let _ = Analyzer::new(filter())
            .with_metrics(Arc::clone(&serial_metrics))
            .analyze(&Trace::from_events(events.clone()));
        let whole = EventBatch::from_events(&events);
        serial_metrics.record_batch(whole.len() as u64, whole.estimated_owned_allocs());
        let reference = serde_json::to_string(&serial_metrics.snapshot()).unwrap();
        // Chunks of 5 go through the coalescing buffer; threshold-sized
        // ones are broadcast as they come.
        for jobs in [1, 3, 4] {
            for chunk in [5, PARALLEL_THRESHOLD] {
                let metrics = Arc::new(PipelineMetrics::default());
                let (report, _) = run(
                    session(jobs, fast_policy(), None, Some(&metrics)),
                    &events,
                    chunk,
                );
                assert_eq!(serial(&events), serde_json::to_string(&report).unwrap());
                let snap = metrics.snapshot();
                assert_eq!(
                    reference,
                    serde_json::to_string(&snap).unwrap(),
                    "metrics diverged at {jobs} workers, chunk {chunk}"
                );
                assert_eq!(snap.events_read, events.len() as u64);
                assert!(snap.total_dropped() > 0);
                // Filter-stage drops account for exactly the events not
                // kept (unknown-syscall drops happen after the filter,
                // inside kept).
                assert_eq!(
                    snap.events_read
                        - snap.filter_dropped["wrong-mount"]
                        - snap.filter_dropped["irrelevant-fd"],
                    report.filter_stats.kept as u64
                );
                assert!(metrics.stage_timings().contains_key("analyze"));
            }
        }
    }

    #[test]
    fn injected_panic_recovers_byte_identical() {
        // Panic on the second batch of shard 0: state replay (not just
        // the failing batch) must reconstruct batch 0's contribution.
        let events = multi_pid_trace(7, 40);
        let expected = serial(&events);
        for jobs in [1, 3] {
            let hook = panic_hook(0, 1, 1);
            let (report, failures) = run(
                session(jobs, fast_policy(), Some(hook), None),
                &events,
                PARALLEL_THRESHOLD,
            );
            assert_eq!(expected, serde_json::to_string(&report).unwrap());
            assert_eq!(failures.len(), 1, "jobs {jobs}");
            assert_eq!(failures[0].shard, 0);
            assert_eq!(failures[0].restarts, 1);
            assert!(!failures[0].gave_up);
            assert!(failures[0].last_error.contains("injected test panic"));
        }
    }

    #[test]
    fn metrics_not_double_counted_across_restart() {
        let events = multi_pid_trace(6, 40);
        let reference = Arc::new(PipelineMetrics::default());
        let _ = run(
            session(1, fast_policy(), None, Some(&reference)),
            &events,
            PARALLEL_THRESHOLD,
        );
        for jobs in [1, 2] {
            let metrics = Arc::new(PipelineMetrics::default());
            let hook = panic_hook(0, 1, 1);
            let _ = run(
                session(jobs, fast_policy(), Some(hook), Some(&metrics)),
                &events,
                PARALLEL_THRESHOLD,
            );
            let snap = metrics.snapshot();
            let clean = reference.snapshot();
            // The restarted shard replays its events, but only the
            // successful incarnation's counters are absorbed.
            assert_eq!(snap.events_read, clean.events_read);
            assert_eq!(snap.filter_dropped, clean.filter_dropped);
            assert_eq!(snap.partition_records, clean.partition_records);
            // And the recovery itself is accounted, once.
            assert_eq!(snap.shard_restarts, 1);
            assert_eq!(snap.shard_failures.len(), 1);
            assert!(!snap.shard_failures[0].gave_up);
        }
    }

    #[test]
    fn exhausted_restarts_degrade_to_partial_report() {
        let events = multi_pid_trace(4, 8);
        for jobs in [1, 2] {
            let failed = jobs - 1;
            let metrics = Arc::new(PipelineMetrics::default());
            let hook = panic_hook(failed, 0, u64::MAX);
            let (report, failures) = run(
                session(jobs, fast_policy(), Some(hook), Some(&metrics)),
                &events,
                events.len(),
            );
            assert_eq!(failures.len(), 1);
            assert_eq!(failures[0].shard, failed);
            assert!(failures[0].gave_up);
            assert_eq!(failures[0].restarts, fast_policy().max_restarts);
            // The surviving shards' pids are still fully analyzed.
            assert_eq!(
                serial_without_shard(&events, jobs, failed),
                serde_json::to_string(&report).unwrap()
            );
            let snap = metrics.snapshot();
            assert_eq!(snap.shard_restarts, u64::from(fast_policy().max_restarts));
            assert_eq!(snap.shard_failures.len(), 1);
            if jobs == 1 {
                // No half-counted incarnation leaked into the counters.
                assert_eq!(snap.events_read, 0);
            }
        }
    }

    #[test]
    fn restart_budget_spans_checkpoint_cuts() {
        // Cutting after every batch drains and respawns the pool; the
        // supervision ledger must survive, so the budget bounds the
        // whole run and the abandoned shard never comes back — even
        // when the fault schedule runs dry after it gave up.
        let budget = fast_policy().max_restarts;
        let events = multi_pid_trace(4, 8);
        for times in [u64::MAX, u64::from(budget) + 2] {
            for jobs in [1, 2, 4] {
                let metrics = Arc::new(PipelineMetrics::default());
                let hook = panic_hook(0, 0, times);
                let mut session = session(jobs, fast_policy(), Some(hook), Some(&metrics));
                for part in events.chunks(10) {
                    session.feed_owned(part.to_vec());
                    let _ = session.cut();
                }
                let (report, failures) = session.finish();
                assert_eq!(failures.len(), 1, "jobs {jobs}, times {times}");
                assert_eq!(failures[0].shard, 0);
                assert!(failures[0].gave_up);
                assert_eq!(failures[0].restarts, budget);
                assert_eq!(
                    serial_without_shard(&events, jobs, 0),
                    serde_json::to_string(&report).unwrap(),
                    "jobs {jobs}, times {times}"
                );
                let snap = metrics.snapshot();
                assert_eq!(snap.shard_restarts, u64::from(budget));
                assert_eq!(snap.shard_failures, failures);
            }
        }
    }

    #[test]
    fn stall_watchdog_replays_stalled_shard() {
        let events = multi_pid_trace(6, 20);
        let expected = serial(&events);
        for jobs in [1, 2] {
            // Shard 0 freezes for 5s on its first batch; the 50ms
            // watchdog must abandon and replay it rather than wait.
            let stalled = Arc::new(AtomicU64::new(0));
            let hook: ShardHook = Arc::new(move |w, t| {
                if w == 0 && t == 0 && stalled.fetch_add(1, Ordering::SeqCst) == 0 {
                    std::thread::sleep(Duration::from_secs(5));
                }
            });
            let policy = fast_policy().with_shard_timeout(Duration::from_millis(50));
            let started = Instant::now();
            let (report, failures) = run(
                session(jobs, policy, Some(hook), None),
                &events,
                events.len(),
            );
            assert!(
                started.elapsed() < Duration::from_secs(4),
                "watchdog must not wait out the stall"
            );
            assert_eq!(expected, serde_json::to_string(&report).unwrap());
            assert_eq!(failures.len(), 1);
            assert_eq!(failures[0].shard, 0);
            assert!(!failures[0].gave_up);
            assert!(
                failures[0].last_error.contains("stalled"),
                "{}",
                failures[0].last_error
            );
        }
    }

    #[test]
    fn snapshot_after_injected_panic_then_more_batches_matches_serial() {
        // A mid-stream snapshot cuts the pool; a panic before it is
        // replayed, and feeding more afterwards still converges on the
        // serial report.
        let events = multi_pid_trace(7, 40);
        let (left, right) = events.split_at(events.len() / 3);
        let expected = serial(&events);
        for jobs in [1, 4] {
            let hook = panic_hook(0, 0, 1);
            let mut session = session(jobs, fast_policy(), Some(hook), None);
            session.feed_owned(left.to_vec());
            assert_eq!(session.snapshot().filter_stats.total, left.len());
            session.feed_owned(right.to_vec());
            let (report, failures) = session.finish();
            assert_eq!(expected, serde_json::to_string(&report).unwrap());
            assert_eq!(failures.len(), 1);
            assert!(!failures[0].gave_up);
        }
    }
}
