//! The kernel layer's allocation count repeats exactly: the same
//! XfstestsSim range, run twice on fresh kernels in one process, makes
//! the same number of allocator calls. The VFS maps hash with fixed
//! keys, so their rehash points — and the allocations those trigger —
//! no longer depend on a random per-map seed.
//!
//! One `#[test]` per binary: the counting allocator is process-wide.

use iocov_bench::{alloc_calls, CountingAlloc};
use iocov_workloads::{TestEnv, XfstestsSim};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocator calls made by the kernel running one xfstests range.
fn kernel_allocs() -> u64 {
    let env = TestEnv::new();
    let mut kernel = env.fresh_kernel();
    let sim = XfstestsSim::new(7, 0.002);
    let range = 0..sim.total_tests().min(60);
    let before = alloc_calls();
    let _ = sim.run_range(&mut kernel, range);
    let allocs = alloc_calls() - before;
    assert!(!env.take_trace().is_empty());
    allocs
}

#[test]
fn kernel_allocation_count_repeats_exactly() {
    let first = kernel_allocs();
    assert!(first > 0, "the counting allocator is not registered");
    for _ in 0..3 {
        assert_eq!(kernel_allocs(), first);
    }
}
