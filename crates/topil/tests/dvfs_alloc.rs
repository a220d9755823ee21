//! The zero-allocation contract of the DVFS control loop: once warmed up,
//! ticking the platform and running the loop every 50 ms performs no heap
//! allocation (the loop reads the platform's borrowed QoS view instead of
//! building per-app snapshots).
//!
//! This file is its own test binary so that its counting global allocator
//! sees only this test's allocations. The counter is thread-local, so the
//! harness's other threads cannot disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hikey_platform::{Platform, PlatformConfig};
use hmc_types::CoreId;
use topil::dvfs::DvfsControlLoop;
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

/// Ticks `ticks` times, running the DVFS loop after every 50th tick.
fn run(platform: &mut Platform, dvfs: &mut DvfsControlLoop, ticks: u64) {
    for tick in 1..=ticks {
        platform.tick();
        if tick.is_multiple_of(50) {
            dvfs.run(platform);
        }
    }
}

#[test]
fn warmed_ticks_with_dvfs_do_not_allocate() {
    let mut platform = Platform::new(PlatformConfig::default());
    // Phased and steady apps on both clusters; two share big core 4.
    for (benchmark, core) in [
        (Benchmark::Dedup, 4),
        (Benchmark::Syr2k, 1),
        (Benchmark::Facesim, 4),
        (Benchmark::Canneal, 6),
    ] {
        let w = Workload::single(benchmark, QosSpec::FractionOfMaxBig(0.3));
        let mut spec = *w.iter().next().unwrap();
        spec.total_instructions = Some(u64::MAX);
        platform.admit(&spec, CoreId::new(core));
    }
    let mut dvfs = DvfsControlLoop::new();
    run(&mut platform, &mut dvfs, 200);

    let before = allocations();
    run(&mut platform, &mut dvfs, 1_000);
    let allocated = allocations() - before;

    assert_eq!(platform.app_count(), 4, "the apps must still be running");
    assert!(
        platform.metrics().governor_time().as_micros() > 0,
        "the loop must have run"
    );
    assert_eq!(
        allocated, 0,
        "1,000 ticks with the DVFS loop every 50 allocated {allocated} times"
    );
}
