//! The unified analysis pipeline: one builder, one execution path.
//!
//! The paper's §3 analysis is a single pipeline (filter → variant merge
//! → partition → report). This module joins its two stages:
//!
//! ```text
//!   EventSource (iocov_trace::source)        AnalysisSession (session)
//!  ┌───────────────────────────────┐   ┌─────────────────────────────┐
//!  │ open_source(path, options)    │   │ supervised pid-sharded pool │
//!  │   ├─ JsonlSource (strict/lossy│   │   (crate::parallel), at one │
//!  │   │   via ReadOptions)        │──▶│   worker or N; drains and   │
//!  │   ├─ IotbSource  (strict/lossy│   │   reseeds at checkpoint     │
//!  │   │   via ReadOptions)        │   │   cuts                      │
//!  │   └─ IotbBlockSource (v2 only;│   │                             │
//!  │       parallel block decode)  │   │                             │
//!  │ next_batch / position /       │   │                             │
//!  │ skip_ledger                   │   │                             │
//!  └───────────────────────────────┘   └─────────────────────────────┘
//!                   │                                 │
//!                   └────────── Driver::run ──────────┘
//!                     (chunking, checkpoint cuts, stop-after,
//!                      parse-skip metrics, resume seeding)
//! ```
//!
//! A [`PipelineBuilder`] builds either the resident
//! [`AnalysisSession`] alone
//! ([`build_session`](PipelineBuilder::build_session), for callers that
//! feed events themselves) or a [`Driver`] that pulls batches from any
//! [`EventSource`](iocov_trace::EventSource)
//! ([`build`](PipelineBuilder::build)), so every flag combination — any
//! source × any worker count × checkpointing × metrics — runs the same
//! loop over the same pool. The
//! non-negotiable invariant: the serialized report is **byte-identical**
//! across every cell of that matrix to a plain serial
//! [`Analyzer`](crate::Analyzer) run over the same events.
//!
//! Parallelism therefore layers at *two* independent stages. Upstream,
//! a block-indexed `.iotb` v2 container opened with
//! `SourceOptions::decode_jobs > 1` decodes blocks on worker threads
//! inside `IotbBlockSource`, but reassembles them in file order before
//! `next_batch` returns — so to this module it is indistinguishable
//! from a serial source. Downstream, the session's pool shards the
//! decoded events by pid. Byte-identity composes because each stage
//! preserves event order at its boundary.
//!
//! # Checkpoint cuts
//!
//! [`AnalysisSession::cut`] returns the *cumulative* `(report, pid
//! states)` pair a [`CheckpointDoc`] needs: the pool drains its workers,
//! merges their reports into a running base, and seeds their successors
//! with the captured states. The same seeding makes resume free: a
//! resumed run is a session whose pool starts from the checkpoint's
//! `(report, states)` instead of empty ones.

use std::io;
use std::path::PathBuf;
use std::sync::Arc;

use iocov_trace::{SkippedLine, TraceIoError};

use crate::checkpoint::CheckpointDoc;
use crate::coverage::AnalysisReport;
use crate::filter::TraceFilter;
use crate::metrics::{PipelineMetrics, ShardFailureRecord};
use crate::parallel::{ParallelStreamingAnalyzer, ShardHook, SupervisorPolicy};
use crate::session::{AnalysisSession, Driver};

/// Default batch size pulled from the source per session feed.
pub const DEFAULT_CHUNK: usize = 4096;

/// When (and where) to persist resumable state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Write a checkpoint every this many events.
    pub every: u64,
    /// Checkpoint file path.
    pub path: PathBuf,
}

/// Why a pipeline run failed.
#[derive(Debug)]
pub enum PipelineError {
    /// The event source failed (open, decode, or I/O).
    Source(TraceIoError),
    /// Persisting a checkpoint failed.
    Checkpoint {
        /// The checkpoint path being written.
        path: PathBuf,
        /// The underlying I/O error.
        error: io::Error,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Source(e) => write!(f, "{e}"),
            PipelineError::Checkpoint { path, error } => {
                write!(f, "cannot write checkpoint {}: {error}", path.display())
            }
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Source(e) => Some(e),
            PipelineError::Checkpoint { error, .. } => Some(error),
        }
    }
}

/// Outcome of a pipeline run.
#[derive(Debug)]
pub struct PipelineRun {
    /// The merged coverage report (default/empty when `stopped`).
    pub report: AnalysisReport,
    /// Shard-failure manifest (empty on a fault-free run or when
    /// `stopped`).
    pub failures: Vec<ShardFailureRecord>,
    /// The source's lossy-skip ledger, including any skips restored
    /// from a resumed checkpoint.
    pub skipped: Vec<SkippedLine>,
    /// Events consumed, counted from the start of the trace (a resumed
    /// run starts at the checkpoint's count).
    pub events: u64,
    /// Whether `stop_after` ended the run before end-of-input
    /// (simulated kill: no report is produced).
    pub stopped: bool,
}

/// Configures and builds an [`AnalysisSession`] or a [`Driver`] over
/// one.
pub struct PipelineBuilder {
    filter: TraceFilter,
    mount: Option<String>,
    jobs: usize,
    chunk: usize,
    policy: SupervisorPolicy,
    hook: Option<ShardHook>,
    metrics: Option<Arc<PipelineMetrics>>,
    checkpoint: Option<CheckpointPolicy>,
    resume: Option<CheckpointDoc>,
    stop_after: Option<u64>,
}

impl PipelineBuilder {
    /// A builder over `filter` with one worker and no checkpointing.
    #[must_use]
    pub fn new(filter: TraceFilter) -> Self {
        PipelineBuilder {
            filter,
            mount: None,
            jobs: 1,
            chunk: DEFAULT_CHUNK,
            policy: SupervisorPolicy::default(),
            hook: None,
            metrics: None,
            checkpoint: None,
            resume: None,
            stop_after: None,
        }
    }

    /// Records the mount point the filter was built from, for
    /// checkpoint provenance.
    #[must_use]
    pub fn mount(mut self, mount: Option<String>) -> Self {
        self.mount = mount;
        self
    }

    /// Worker count of the session's pid-sharded pool (at least 1).
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Events pulled from the source per session feed.
    #[must_use]
    pub fn chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk.max(1);
        self
    }

    /// Supervision policy for the pool's workers.
    #[must_use]
    pub fn policy(mut self, policy: SupervisorPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Worker progress hook (fault injection).
    #[must_use]
    pub fn hook(mut self, hook: ShardHook) -> Self {
        self.hook = Some(hook);
        self
    }

    /// Shared pipeline metrics.
    #[must_use]
    pub fn metrics(mut self, metrics: Arc<PipelineMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Periodic checkpointing policy.
    #[must_use]
    pub fn checkpoint(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = Some(policy);
        self
    }

    /// Seeds the run from a loaded checkpoint (the caller opens the
    /// source at the matching position).
    #[must_use]
    pub fn resume(mut self, doc: CheckpointDoc) -> Self {
        self.resume = Some(doc);
        self
    }

    /// Stop (simulating a kill) after this many events.
    #[must_use]
    pub fn stop_after(mut self, events: u64) -> Self {
        self.stop_after = Some(events);
        self
    }

    /// Builds the resident session alone and seeds it (and the
    /// metrics) from any resume checkpoint. This is the entry point for
    /// callers that feed events themselves (`iocov serve`, feedback
    /// campaigns, incremental oracles); batch callers use
    /// [`build`](Self::build).
    #[must_use]
    pub fn build_session(self) -> AnalysisSession {
        let events = self.resume.as_ref().map_or(0, |doc| doc.cursor.events);
        let seed = self.resume.map(|doc| {
            // The checkpointed snapshot carries the counters for
            // everything before the cursor; live metrics continue from
            // there.
            if let Some(m) = &self.metrics {
                m.absorb(&doc.metrics);
            }
            (doc.report, doc.pid_states)
        });
        let pool = ParallelStreamingAnalyzer::new(
            self.filter,
            self.jobs,
            self.metrics.clone(),
            self.policy,
            self.hook,
            seed,
        );
        AnalysisSession::new(pool, self.mount, self.metrics, self.checkpoint, events)
    }

    /// Builds the batch driver: a [`build_session`](Self::build_session)
    /// session paired with the chunk and stop-after configuration. Run
    /// it over an [`EventSource`](iocov_trace::EventSource) with
    /// [`Driver::run`].
    #[must_use]
    pub fn build(self) -> Driver {
        let chunk = self.chunk;
        let stop_after = self.stop_after;
        Driver::new(self.build_session(), chunk, stop_after)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::tests::{filter, multi_pid_trace};
    use crate::Analyzer;
    use iocov_trace::{JsonlSource, ReadOptions, Trace};

    fn serial(events: &[iocov_trace::TraceEvent]) -> String {
        let trace = Trace::from_events(events.to_vec());
        serde_json::to_string(&Analyzer::new(filter()).analyze(&trace)).unwrap()
    }

    #[test]
    fn run_over_source_matches_serial_analyzer() {
        let events = multi_pid_trace(4, 5);
        let trace = Trace::from_events(events.clone());
        let mut bytes = Vec::new();
        iocov_trace::write_jsonl(&mut bytes, &trace).unwrap();
        for jobs in [1, 3] {
            let mut source = JsonlSource::new(&bytes[..], ReadOptions::default());
            let run = PipelineBuilder::new(filter())
                .jobs(jobs)
                .chunk(13)
                .build()
                .run(&mut source)
                .unwrap();
            assert_eq!(run.events, events.len() as u64);
            assert!(!run.stopped);
            assert_eq!(serial(&events), serde_json::to_string(&run.report).unwrap());
        }
    }

    #[test]
    fn checkpoint_cuts_preserve_byte_identity() {
        // Draining and reseeding the pool at every cut must not disturb
        // the final report.
        let events = multi_pid_trace(5, 6);
        let expected = serial(&events);
        for jobs in [1, 2, 4] {
            let mut session = PipelineBuilder::new(filter()).jobs(jobs).build_session();
            let mut last_cut = None;
            for chunk in events.chunks(11) {
                session.feed_owned(chunk.to_vec());
                last_cut = Some(session.cut());
            }
            let (report, failures) = session.finish();
            assert!(failures.is_empty());
            assert_eq!(
                expected,
                serde_json::to_string(&report).unwrap(),
                "diverged at {jobs} jobs"
            );
            // The last cut already carries the full report.
            let (last_report, _) = last_cut.unwrap();
            assert_eq!(expected, serde_json::to_string(&last_report).unwrap());
        }
    }

    #[test]
    fn resume_from_cut_matches_uninterrupted() {
        let events = multi_pid_trace(4, 6);
        let expected = serial(&events);
        let cut_at = events.len() / 2;
        for jobs in [1, 3] {
            let mut head = PipelineBuilder::new(filter()).jobs(jobs).build_session();
            head.feed_owned(events[..cut_at].to_vec());
            let (head_report, head_states) = head.cut();
            let doc = CheckpointDoc {
                report: head_report,
                pid_states: head_states,
                ..CheckpointDoc::default()
            };
            // Round-trip through serialization like a real resume.
            let doc: CheckpointDoc =
                serde_json::from_str(&serde_json::to_string(&doc).unwrap()).unwrap();
            let mut tail = PipelineBuilder::new(filter())
                .jobs(jobs)
                .resume(doc)
                .build_session();
            tail.feed_owned(events[cut_at..].to_vec());
            let (report, _) = tail.finish();
            assert_eq!(
                expected,
                serde_json::to_string(&report).unwrap(),
                "diverged at {jobs} jobs"
            );
        }
    }

    #[test]
    fn run_writes_checkpoints_and_stop_simulates_kill() {
        let events = multi_pid_trace(2, 3);
        let trace = Trace::from_events(events.clone());
        let mut bytes = Vec::new();
        iocov_trace::write_jsonl(&mut bytes, &trace).unwrap();
        let path =
            std::env::temp_dir().join(format!("iocov-pipeline-test-{}.iockpt", std::process::id()));
        let mut source = JsonlSource::new(&bytes[..], ReadOptions::default());
        let run = PipelineBuilder::new(filter())
            .checkpoint(CheckpointPolicy {
                every: 4,
                path: path.clone(),
            })
            .stop_after(10)
            .build()
            .run(&mut source)
            .unwrap();
        assert!(run.stopped);
        assert_eq!(run.events, 10);
        let doc = crate::checkpoint::read_checkpoint(&path).unwrap();
        assert_eq!(doc.cursor.events, 8, "last boundary before the stop");

        // Resume from the checkpoint over a cursor seeked to its
        // offset: byte-identical to an uninterrupted run.
        let offset = usize::try_from(doc.cursor.byte_offset).unwrap();
        let mut source =
            JsonlSource::resume(&bytes[offset..], ReadOptions::default(), doc.cursor.clone());
        let resumed = PipelineBuilder::new(filter())
            .resume(doc)
            .build()
            .run(&mut source)
            .unwrap();
        assert_eq!(
            serial(&events),
            serde_json::to_string(&resumed.report).unwrap()
        );
        let _ = std::fs::remove_file(&path);
    }
}
