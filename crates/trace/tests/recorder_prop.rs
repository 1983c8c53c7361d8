//! The batch-backed `Recorder` against a reference model of the owned
//! `VecDeque<TraceEvent>` ring it replaced: for random sequences of
//! `record` / `record_view` / `take` / `take_batch` / `peek` /
//! `set_enabled`, unbounded and at ring capacities 0, 1, 3 and 64, every
//! drained or peeked event (seq and timestamp included), every `len` and
//! every `stats()` must match.

use std::collections::VecDeque;

use iocov_trace::{ArgValue, ArgView, Recorder, RecorderStats, TraceEvent};
use proptest::collection::vec;
use proptest::prelude::*;

/// The recorder as it was: one owned event per record in a deque,
/// oldest popped (and counted) when a bounded ring is full.
struct Model {
    buf: VecDeque<TraceEvent>,
    capacity: Option<usize>,
    enabled: bool,
    seq: u64,
    clock_ns: u64,
    dropped: u64,
}

impl Model {
    fn new(capacity: Option<usize>) -> Self {
        Model {
            buf: VecDeque::new(),
            capacity,
            enabled: true,
            seq: 0,
            clock_ns: 0,
            dropped: 0,
        }
    }

    fn record(&mut self, mut event: TraceEvent) {
        if !self.enabled {
            return;
        }
        event.seq = self.seq;
        self.seq += 1;
        event.timestamp_ns = self.clock_ns;
        self.clock_ns += 1_000;
        if let Some(cap) = self.capacity {
            if self.buf.len() >= cap && cap > 0 {
                self.buf.pop_front();
                self.dropped += 1;
            }
            if cap == 0 {
                self.dropped += 1;
                return;
            }
        }
        self.buf.push_back(event);
    }

    fn take(&mut self) -> Vec<TraceEvent> {
        self.buf.drain(..).collect()
    }

    fn stats(&self) -> RecorderStats {
        RecorderStats {
            recorded: self.seq,
            dropped: self.dropped,
        }
    }
}

/// One generated call: `(kind, n, pid, retval)`.
type Call = (u8, u32, u32, i64);

/// A call of one of four shapes: path-carrying, scalar-only, string-
/// and path-carrying, and argument-less, so compaction has to re-base
/// text ranges around rows without payloads.
fn event_of((kind, n, pid, retval): Call) -> TraceEvent {
    let mut event = match kind {
        0 => TraceEvent::build(
            "open",
            2,
            vec![
                ArgValue::Path(format!("/mnt/test/{}", "f".repeat(n as usize % 9 + 1))),
                ArgValue::Flags(n),
                ArgValue::Mode(0o644),
            ],
            retval,
        ),
        1 => TraceEvent::build(
            "pwrite64",
            18,
            vec![
                ArgValue::Fd(3),
                ArgValue::Ptr(1),
                ArgValue::UInt(u64::from(n)),
                ArgValue::Int(-i64::from(n)),
            ],
            retval,
        ),
        2 => TraceEvent::build(
            "setxattr",
            188,
            vec![
                ArgValue::Path(format!("/mnt/test/x{n}")),
                ArgValue::Str(format!("user.{}", n % 7)),
                ArgValue::Ptr(1),
                ArgValue::UInt(4),
                ArgValue::Whence(n % 3),
            ],
            retval,
        ),
        _ => TraceEvent::build("sync", 162, vec![], retval),
    };
    event.pid = pid;
    event
}

#[derive(Debug, Clone)]
enum Op {
    Record(Call),
    RecordView(Call),
    /// `len` back-to-back records, owned or by view: runs long enough to
    /// wrap the 64-row ring and trigger compaction.
    Burst(u32, bool),
    Take,
    TakeBatch,
    Peek,
    SetEnabled(bool),
}

fn arb_call() -> impl Strategy<Value = Call> {
    (0u8..4, 0u32..1000, 0u32..4, -5i64..5)
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_call().prop_map(Op::Record),
        arb_call().prop_map(Op::Record),
        arb_call().prop_map(Op::RecordView),
        arb_call().prop_map(Op::RecordView),
        (1u32..200, any::<bool>()).prop_map(|(n, view)| Op::Burst(n, view)),
        Just(Op::Take),
        Just(Op::TakeBatch),
        Just(Op::Peek),
        any::<bool>().prop_map(Op::SetEnabled),
    ]
}

const CAPACITIES: [Option<usize>; 5] = [None, Some(0), Some(1), Some(3), Some(64)];

fn record_view(rec: &Recorder, event: &TraceEvent) {
    let args: Vec<ArgView<'_>> = event.args.iter().map(ArgView::of).collect();
    rec.record_view(event.pid, &event.name, event.sysno, &args, event.retval);
}

proptest! {
    #[test]
    fn batch_recorder_matches_the_deque_model(
        cap in 0usize..CAPACITIES.len(),
        ops in vec(arb_op(), 1..120),
    ) {
        let capacity = CAPACITIES[cap];
        let rec = match capacity {
            Some(c) => Recorder::with_capacity(c),
            None => Recorder::new(),
        };
        let mut model = Model::new(capacity);
        let mut burst_n = 0u32;
        for op in ops {
            match op {
                Op::Record(call) => {
                    rec.record(event_of(call));
                    model.record(event_of(call));
                }
                Op::RecordView(call) => {
                    record_view(&rec, &event_of(call));
                    model.record(event_of(call));
                }
                Op::Burst(len, view) => {
                    for _ in 0..len {
                        burst_n += 1;
                        let call = ((burst_n % 4) as u8, burst_n, burst_n % 3, 0);
                        if view {
                            record_view(&rec, &event_of(call));
                        } else {
                            rec.record(event_of(call));
                        }
                        model.record(event_of(call));
                    }
                }
                Op::Take => prop_assert_eq!(rec.take().into_events(), model.take()),
                Op::TakeBatch => prop_assert_eq!(rec.take_batch().to_events(), model.take()),
                Op::Peek => {
                    let peeked: Vec<TraceEvent> = model.buf.iter().cloned().collect();
                    prop_assert_eq!(rec.peek().into_events(), peeked);
                }
                Op::SetEnabled(on) => {
                    rec.set_enabled(on);
                    model.enabled = on;
                }
            }
            prop_assert_eq!(rec.len(), model.buf.len());
            prop_assert_eq!(rec.is_empty(), model.buf.is_empty());
            prop_assert_eq!(rec.stats(), model.stats());
        }
        prop_assert_eq!(rec.take().into_events(), model.take());
    }
}
