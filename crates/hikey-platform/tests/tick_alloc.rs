//! The zero-allocation contract of `Platform::tick`: once warmed up, a
//! steady-state tick performs no heap allocation.
//!
//! This file is its own test binary so that its counting global allocator
//! sees only this test's allocations. The counter is thread-local, so the
//! harness's other threads cannot disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hikey_platform::{Platform, PlatformConfig};
use hmc_types::CoreId;
use workloads::{Benchmark, QosSpec, Workload};

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot may already be gone while the thread exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter only observes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn steady_state_tick_does_not_allocate() {
    let mut platform = Platform::new(PlatformConfig::default());
    let w = Workload::single(Benchmark::Syr2k, QosSpec::FractionOfMaxBig(0.2));
    let mut spec = *w.iter().next().unwrap();
    spec.total_instructions = Some(u64::MAX);
    // Ids 0 and 2 share big core 4; id 1 sits on LITTLE core 1 between
    // them, so ascending-id order interleaves the cores.
    for core in [4, 1, 4] {
        platform.admit(&spec, CoreId::new(core));
    }
    for _ in 0..50 {
        platform.tick();
    }

    let before = allocations();
    for _ in 0..1_000 {
        platform.tick();
    }
    let allocated = allocations() - before;

    assert_eq!(platform.app_count(), 3, "the apps must still be running");
    assert_eq!(
        allocated, 0,
        "Platform::tick allocated {allocated} times over 1,000 steady-state ticks"
    );
}
