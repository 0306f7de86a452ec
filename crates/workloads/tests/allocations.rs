//! The synthetic generators allocate a fixed number of blocks, however
//! many tasks they emit: a description holds interned names, so no task
//! carries a heap string of its own.

use rp_sim::SimDuration;
use rp_workloads::{mixed_workload, null_workload, task_count};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread. Per thread, so the test
    /// harness's own threads do not show up in the count.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation on the calling thread.
struct Counting;

// SAFETY: every call goes to `System` unchanged; the counter is a
// const-initialized thread-local `Cell`, which neither allocates nor
// needs a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Blocks this thread allocates while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

#[test]
fn synthetic_generators_allocate_a_fixed_number_of_blocks() {
    // Intern the function payload's name before counting: the name
    // table grows once per distinct name per process.
    drop(mixed_workload(1, SimDuration::ZERO));
    for nodes in [1, 64] {
        let (n, tasks) = allocations(|| null_workload(nodes));
        assert_eq!(tasks.len() as u64, task_count(nodes));
        assert!(n <= 2, "null_workload({nodes}): {n} allocations");
        let (n, tasks) = allocations(|| mixed_workload(nodes, SimDuration::from_secs(1)));
        assert_eq!(tasks.len() as u64, task_count(nodes));
        assert!(n <= 2, "mixed_workload({nodes}): {n} allocations");
    }
}
