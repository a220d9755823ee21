//! The allocation budget of the serving path: once warmed up, serving one
//! edge request through a saturated tier allocates about once — the
//! reply's output — and everything else reuses buffers.
//!
//! This file is its own test binary so that its counting global allocator
//! sees only this test's allocations. The counter is thread-local, so the
//! harness's other threads cannot disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hmc_types::{SimDuration, SimTime};
use nn::Mlp;
use npu_serve::{
    seeded_payload, ClientId, ServeConfig, TierConfig, TierOutcome, TierSubmit, TieredService,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

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

/// Heap allocations per submitted request allowed in steady state. The
/// tier measures 1.04: the reply's output matrix, plus a job list per
/// batch and the per-flush bookkeeping.
const BUDGET_PER_REQUEST: f64 = 1.1;

/// Requests per 100 ms epoch: the edge fleet's 6× load on one rack.
const PER_EPOCH: u64 = 1_870;

/// The edge fleet's tier (`edge_sim::tier_config`) with one rack: rack
/// and regional pools sized for open-loop volume, a 5 ms hedge floor and
/// a 20 ms backbone round trip.
fn edge_tier() -> TierConfig {
    TierConfig {
        racks: 1,
        rack_serve: ServeConfig {
            devices: 4,
            max_batch: 32,
            queue_capacity: 512,
            policy_cache: 512,
            ..ServeConfig::default()
        },
        regional_serve: ServeConfig {
            devices: 8,
            max_batch: 64,
            queue_capacity: 2_048,
            policy_cache: 2_048,
            ..ServeConfig::default()
        },
        hedge_min: SimDuration::from_millis(5),
        breaker_threshold: 2,
        breaker_cooldown: 3,
        regional_rtt: SimDuration::from_millis(20),
        ..TierConfig::default()
    }
}

/// Runs one epoch, counting only the tier's allocations (the payloads
/// are made before the count starts). Returns `(allocations, replies)`.
fn epoch(tier: &mut TieredService, width: usize, index: u64) -> (u64, u64) {
    let epoch_ns = SimDuration::from_millis(100).as_nanos();
    let base = index * epoch_ns;
    let payloads: Vec<_> = (0..PER_EPOCH)
        .map(|i| seeded_payload(base + i, 1, width))
        .collect();
    let mut tickets = Vec::with_capacity(PER_EPOCH as usize);
    let before = allocations();
    for (i, payload) in (0..PER_EPOCH).zip(payloads) {
        // The epoch's demand lands in its first 10 ms: more than the
        // rack's pool can drain, so its queue overflows to the regional
        // tier.
        let at = SimTime::from_nanos(base + i * (epoch_ns / 10) / PER_EPOCH);
        let opts = TierSubmit {
            rack: 0,
            client: ClientId::new(i % 256),
            deadline: Some(at + SimDuration::from_millis(98)),
        };
        tickets.push(tier.submit(payload, at, opts).expect("valid payload"));
    }
    tier.flush(SimTime::from_nanos(base + epoch_ns));
    let mut replies = 0;
    for ticket in tickets.drain(..) {
        if let Some(TierOutcome::Reply(_)) = tier.take_outcome(ticket) {
            replies += 1;
        }
    }
    (allocations() - before, replies)
}

#[test]
fn serving_a_request_allocates_about_once() {
    let mlp = Mlp::with_topology(12, 2, 16, 4, &mut StdRng::seed_from_u64(7));
    let mut tier = TieredService::new(&mlp, edge_tier());
    // Warm up: fill both policy caches and size every reused buffer.
    for index in 0..30 {
        epoch(&mut tier, mlp.input_size(), index);
    }

    let (mut allocated, mut replies) = (0, 0);
    for index in 30..40 {
        let (a, r) = epoch(&mut tier, mlp.input_size(), index);
        allocated += a;
        replies += r;
    }
    let submitted = 10 * PER_EPOCH;
    let per_request = allocated as f64 / submitted as f64;
    let stats = tier.stats();
    assert!(stats.hedges > 0, "the saturated rack must hedge");
    assert!(stats.regional_served > 0, "the regional tier must serve");
    assert!(replies > submitted / 2, "the tier must keep serving");
    assert!(
        per_request <= BUDGET_PER_REQUEST,
        "{per_request:.2} allocations per request over {submitted} requests \
         (budget {BUDGET_PER_REQUEST})"
    );
}
