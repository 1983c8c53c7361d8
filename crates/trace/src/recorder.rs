//! The trace recorder: thread-safe event sink with optional ring buffering.
//!
//! Events are born columnar: the recorder's one buffer is an
//! [`EventBatch`], and [`Recorder::record_view`] appends a row straight
//! from borrowed parts (the syscall layer passes stack arrays of
//! [`ArgView`]s), so recording a call builds no owned [`TraceEvent`].
//! [`Recorder::take_batch`] hands the whole batch over by swap — the
//! analysis side consumes it without re-packing — while
//! [`Recorder::take`] and [`Recorder::peek`] materialize owned events
//! only for callers that want a [`Trace`].
//!
//! Ring mode ([`Recorder::with_capacity`]) runs on the same batch. A
//! record that finds `capacity` live rows marks the oldest one stale and
//! counts a drop, exactly when the bounded buffer would have
//! overwritten it; stale rows are compacted away in one pass once the
//! batch holds twice the capacity (amortized O(1) per record). `len`,
//! `take`, `take_batch` and `peek` see only the live, newest rows.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::batch::{ArgView, EventBatch, EventRef};
use crate::event::TraceEvent;
use crate::Trace;

/// Statistics about a recording session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecorderStats {
    /// Events accepted into the buffer.
    pub recorded: u64,
    /// Events discarded because the ring buffer was full (oldest-first),
    /// mirroring LTTng's `discard`/`overwrite` accounting.
    pub dropped: u64,
}

/// The recorder's buffer: recorded rows, of which the oldest `stale`
/// have been overwritten in ring mode and await compaction.
#[derive(Debug, Default)]
struct Buffer {
    batch: EventBatch,
    stale: usize,
}

impl Buffer {
    fn live(&self) -> usize {
        self.batch.len() - self.stale
    }

    fn live_rows(&self) -> impl Iterator<Item = EventRef<'_>> + '_ {
        self.batch.iter().skip(self.stale)
    }

    fn compact(&mut self) {
        self.batch.drop_front(self.stale);
        self.stale = 0;
    }
}

/// A thread-safe syscall-event sink.
///
/// Mirrors the essential behaviour of an LTTng session:
///
/// * recording can be paused/resumed ([`set_enabled`](Self::set_enabled));
/// * an optional capacity bound turns the buffer into a ring that
///   overwrites the oldest events and counts drops;
/// * each accepted event is stamped with a monotonic sequence number and a
///   logical nanosecond timestamp (deterministic, not wall-clock, so runs
///   are reproducible).
///
/// ```
/// use iocov_trace::{Recorder, TraceEvent};
///
/// let rec = Recorder::with_capacity(2);
/// for i in 0..3 {
///     rec.record(TraceEvent::build("close", 3, vec![], i));
/// }
/// let stats = rec.stats();
/// assert_eq!(stats.recorded, 3);
/// assert_eq!(stats.dropped, 1);
/// assert_eq!(rec.take().len(), 2);
/// ```
#[derive(Debug)]
pub struct Recorder {
    buffer: Mutex<Buffer>,
    capacity: Option<usize>,
    enabled: AtomicBool,
    seq: AtomicU64,
    clock_ns: AtomicU64,
    dropped: AtomicU64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An unbounded recorder.
    #[must_use]
    pub fn new() -> Self {
        Recorder {
            buffer: Mutex::new(Buffer::default()),
            capacity: None,
            enabled: AtomicBool::new(true),
            seq: AtomicU64::new(0),
            clock_ns: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// A ring-buffered recorder keeping at most `capacity` events
    /// (oldest events are overwritten and counted as dropped).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Recorder {
            capacity: Some(capacity),
            ..Recorder::new()
        }
    }

    /// Pauses or resumes recording. Events arriving while paused are
    /// silently ignored (not counted as drops), like a stopped LTTng
    /// session.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether the recorder currently accepts events.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Records an event, stamping `seq`, `timestamp_ns`, and leaving `pid`
    /// as provided by the caller.
    pub fn record(&self, mut event: TraceEvent) {
        self.append(|batch, seq, timestamp_ns| {
            event.seq = seq;
            event.timestamp_ns = timestamp_ns;
            batch.push_event(&event);
        });
    }

    /// Records one call from borrowed parts, stamping `seq` and
    /// `timestamp_ns` like [`record`](Self::record). Nothing is
    /// allocated per call beyond amortized column growth.
    pub fn record_view(&self, pid: u32, name: &str, sysno: u32, args: &[ArgView<'_>], retval: i64) {
        self.append(|batch, seq, timestamp_ns| {
            batch.push_row(seq, timestamp_ns, pid, name, sysno, args, retval);
        });
    }

    /// Stamps the next identity and lets `push` append one row, applying
    /// the enable switch and ring-mode accounting.
    fn append(&self, push: impl FnOnce(&mut EventBatch, u64, u64)) {
        if !self.is_enabled() {
            return;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        // Logical clock: 1 µs per event keeps timestamps strictly
        // increasing and human-scaled without being wall-clock dependent.
        let timestamp_ns = self.clock_ns.fetch_add(1_000, Ordering::Relaxed);
        let mut buf = self.buffer.lock();
        if let Some(cap) = self.capacity {
            if cap == 0 {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return;
            }
            if buf.live() >= cap {
                buf.stale += 1;
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
        push(&mut buf.batch, seq, timestamp_ns);
        if let Some(cap) = self.capacity {
            if buf.batch.len() >= cap.saturating_mul(2) {
                buf.compact();
            }
        }
    }

    /// Number of currently buffered events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buffer.lock().live()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Session statistics (total recorded and dropped).
    #[must_use]
    pub fn stats(&self) -> RecorderStats {
        RecorderStats {
            recorded: self.seq.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }

    /// Drains the buffer into a [`Trace`] of owned events, leaving the
    /// recorder running (sequence numbers keep increasing across takes).
    #[must_use]
    pub fn take(&self) -> Trace {
        let mut buf = self.buffer.lock();
        let events = buf.live_rows().map(EventRef::to_event).collect();
        buf.batch.clear();
        buf.stale = 0;
        Trace::from_events(events)
    }

    /// Drains the buffer as the columnar batch itself, handed over by
    /// swap: no row is copied or materialized. The recorder continues
    /// into a fresh, empty batch.
    #[must_use]
    pub fn take_batch(&self) -> EventBatch {
        let mut buf = self.buffer.lock();
        buf.compact();
        std::mem::take(&mut buf.batch)
    }

    /// Copies the current buffer contents without draining.
    #[must_use]
    pub fn peek(&self) -> Trace {
        let buf = self.buffer.lock();
        Trace::from_events(buf.live_rows().map(EventRef::to_event).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ArgValue;

    fn ev(retval: i64) -> TraceEvent {
        TraceEvent::build("read", 0, vec![ArgValue::Fd(3)], retval)
    }

    #[test]
    fn record_stamps_monotonic_identity() {
        let rec = Recorder::new();
        rec.record(ev(1));
        rec.record(ev(2));
        let t = rec.take();
        assert_eq!(t.events()[0].seq, 0);
        assert_eq!(t.events()[1].seq, 1);
        assert!(t.events()[0].timestamp_ns < t.events()[1].timestamp_ns);
    }

    #[test]
    fn disabled_recorder_ignores_events() {
        let rec = Recorder::new();
        rec.set_enabled(false);
        assert!(!rec.is_enabled());
        rec.record(ev(0));
        assert!(rec.is_empty());
        assert_eq!(rec.stats().recorded, 0);
        rec.set_enabled(true);
        rec.record(ev(0));
        assert_eq!(rec.len(), 1);
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let rec = Recorder::with_capacity(3);
        for i in 0..5 {
            rec.record(ev(i));
        }
        let t = rec.take();
        assert_eq!(t.len(), 3);
        let retvals: Vec<i64> = t.iter().map(|e| e.retval).collect();
        assert_eq!(retvals, [2, 3, 4]);
        assert_eq!(rec.stats().dropped, 2);
        assert_eq!(rec.stats().recorded, 5);
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let rec = Recorder::with_capacity(0);
        rec.record(ev(0));
        assert!(rec.is_empty());
        assert_eq!(rec.stats().dropped, 1);
    }

    #[test]
    fn take_drains_but_keeps_sequencing() {
        let rec = Recorder::new();
        rec.record(ev(0));
        let first = rec.take();
        assert_eq!(first.len(), 1);
        assert!(rec.is_empty());
        rec.record(ev(0));
        let second = rec.take();
        assert_eq!(second.events()[0].seq, 1);
    }

    #[test]
    fn peek_does_not_drain() {
        let rec = Recorder::new();
        rec.record(ev(0));
        assert_eq!(rec.peek().len(), 1);
        assert_eq!(rec.len(), 1);
    }

    #[test]
    fn concurrent_recording_loses_nothing_when_unbounded() {
        let rec = std::sync::Arc::new(Recorder::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let rec = std::sync::Arc::clone(&rec);
            handles.push(std::thread::spawn(move || {
                for i in 0..500 {
                    rec.record(ev(i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rec.len(), 2000);
        let t = rec.take();
        let mut seqs: Vec<u64> = t.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), 2000, "sequence numbers must be unique");
    }
}
