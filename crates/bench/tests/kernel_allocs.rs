//! The kernel layer's allocation count repeats exactly: the same
//! XfstestsSim range, run twice on fresh kernels in one process, makes
//! the same number of allocator calls. The VFS maps hash with fixed
//! keys, so their rehash points — and the allocations those trigger —
//! no longer depend on a random per-map seed.
//!
//! The count is also bounded per traced call: the syscall layer records
//! borrowed argument views straight into the recorder's columnar batch
//! and path resolution walks borrowed components, so what remains is
//! the VFS's own work (new inodes, names, extents, descriptor slots)
//! plus amortized column growth.
//!
//! One `#[test]` per binary: the counting allocator is process-wide.

use iocov_bench::{alloc_calls, CountingAlloc};
use iocov_workloads::{TestEnv, XfstestsSim};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// At most this many allocator calls per traced call of the range.
const MAX_ALLOCS_PER_CALL: f64 = 2.5;

/// Allocator calls made by the kernel running one xfstests range, and
/// the number of calls it traced.
fn kernel_allocs() -> (u64, usize) {
    let env = TestEnv::new();
    let mut kernel = env.fresh_kernel();
    let sim = XfstestsSim::new(7, 0.002);
    let range = 0..sim.total_tests().min(60);
    let before = alloc_calls();
    let _ = sim.run_range(&mut kernel, range);
    let allocs = alloc_calls() - before;
    let calls = env.recorder().len();
    assert!(calls > 0);
    (allocs, calls)
}

#[test]
fn kernel_allocation_count_repeats_exactly() {
    let (first, calls) = kernel_allocs();
    assert!(first > 0, "the counting allocator is not registered");
    for _ in 0..3 {
        assert_eq!(kernel_allocs(), (first, calls));
    }
    let per_call = first as f64 / calls as f64;
    assert!(
        per_call <= MAX_ALLOCS_PER_CALL,
        "{first} allocations over {calls} traced calls = {per_call:.2} per call \
         (bound {MAX_ALLOCS_PER_CALL})"
    );
}
