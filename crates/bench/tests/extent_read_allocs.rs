//! `ExtentStore::read` makes exactly one allocation per non-empty read —
//! the output buffer — whatever mix of literal, fill and hole ranges it
//! crosses, including reads that start inside an extent and reads that
//! run past EOF.
//!
//! One `#[test]` per binary: the counting allocator is process-wide.

use iocov_bench::{alloc_calls, CountingAlloc};
use iocov_vfs::ExtentStore;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn extent_read_allocates_once() {
    let mut store = ExtentStore::new();
    store.write(0, b"literal bytes");
    store.write_fill(64, b'a', 1 << 20);
    store.write(4096, b"overwrite inside the fill run");
    store.punch_hole(8192, 4096);
    store.truncate((1 << 20) + 4096);
    for (offset, len) in [
        (0, 13),
        (5, 100),
        (60, 10_000),
        (4100, 8192),
        (0, 2 << 20),
        ((1 << 20) + 4000, 500),
    ] {
        let before = alloc_calls();
        let out = store.read(offset, len);
        let allocs = alloc_calls() - before;
        assert!(!out.is_empty());
        assert_eq!(allocs, 1, "read({offset}, {len}) made {allocs} allocations");
        drop(out);
    }
}
