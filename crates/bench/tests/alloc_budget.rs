//! Allocation budgets of the ingest hot path, gated exactly: allocator
//! calls are deterministic, unlike wall-clock time.
//!
//! * `JsonlSource::next_batch` over canonical lines decodes straight
//!   into the batch columns, so it allocates per batch (column and
//!   arena growth), not per event.
//! * `TraceFilter::path_relevant` under a mount-point filter runs the
//!   regex VM on stack thread lists and allocates nothing, for paths
//!   inside and outside the mount.
//!
//! One `#[test]` per binary: the counting allocator is process-wide.

use iocov::{TraceFilter, DEFAULT_CHUNK};
use iocov_bench::{alloc_calls, CountingAlloc};
use iocov_trace::{
    write_jsonl, ArgValue, EventSource, JsonlSource, ReadOptions, Trace, TraceEvent,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const EVENTS: usize = 10_000;

fn corpus() -> Vec<u8> {
    let events = (0..EVENTS)
        .map(|i| {
            let mut event = match i % 3 {
                0 => TraceEvent::build(
                    "openat",
                    257,
                    vec![
                        ArgValue::Fd(-100),
                        ArgValue::Path(format!("/mnt/test/dir/f{i}")),
                        ArgValue::Flags(0o101),
                        ArgValue::Mode(0o644),
                    ],
                    3,
                ),
                1 => TraceEvent::build(
                    "write",
                    1,
                    vec![ArgValue::Fd(3), ArgValue::Ptr(1), ArgValue::UInt(4096)],
                    4096,
                ),
                _ => TraceEvent::build("close", 3, vec![ArgValue::Fd(3)], -9),
            };
            event.seq = i as u64;
            event.timestamp_ns = i as u64 * 10;
            event.pid = 100 + (i % 8) as u32;
            event
        })
        .collect();
    let mut bytes = Vec::new();
    write_jsonl(&mut bytes, &Trace::from_events(events)).unwrap();
    bytes
}

#[test]
fn ingest_hot_path_allocation_budgets() {
    let bytes = corpus();
    let mut source = JsonlSource::new(&bytes[..], ReadOptions::default());
    let mut batches = Vec::new();
    let before = alloc_calls();
    loop {
        let batch = source.next_batch(DEFAULT_CHUNK).unwrap();
        if batch.is_empty() {
            break;
        }
        batches.push(batch);
    }
    let allocs = alloc_calls() - before;
    let events: usize = batches.iter().map(|b| b.len()).sum();
    assert_eq!(events, EVENTS);
    let per_event = allocs as f64 / EVENTS as f64;
    println!("next_batch: {allocs} allocations, {per_event:.4}/event");
    assert!(
        per_event < 0.05,
        "next_batch made {allocs} allocations for {EVENTS} events ({per_event:.3}/event)"
    );

    let filter = TraceFilter::mount_point("/mnt/test").unwrap();
    let paths = [
        "/mnt/test",
        "/mnt/test/dir/file",
        "/mnt/testdir/file",
        "/home/user/.cache/some/long/path/outside/the/mount",
        "relative/path",
        "/mnt/tést/ünïcode",
    ];
    let mut kept = [false; 6];
    let before = alloc_calls();
    for (keep, path) in kept.iter_mut().zip(paths) {
        *keep = filter.path_relevant(path);
    }
    assert_eq!(alloc_calls() - before, 0, "path_relevant allocated");
    assert_eq!(kept, [true, true, false, false, false, false]);
}
