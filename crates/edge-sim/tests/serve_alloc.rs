//! The allocation budget of the edge serving path, on the edge fleet's
//! own tier (`edge_sim::tier_config`).
//!
//! * **Warmed up**, an epoch of a saturated one-rack tier allocates
//!   nothing: payloads are refilled in place, reply outputs and job lists
//!   go back to the service that filed them, and every other buffer is
//!   reused. The one exception is each service's per-request latency
//!   sample Vec, whose doubling is set apart.
//! * **Cold**, a whole `edge_sim::run` from fresh services — what every
//!   perfbench run pays — allocates a bounded number of times per
//!   submitted request, on both perfbench edge shapes.
//!
//! This file is its own test binary so that its counting global allocator
//! sees only this test's allocations. The counters are thread-local, so
//! the harness's other threads cannot disturb them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use edge_sim::EdgeConfig;
use hmc_types::{SimDuration, SimTime};
use nn::Matrix;
use npu_serve::{seeded_payload_into, TierOutcome, TierSubmit, TieredService};

struct CountingAlloc;

/// What the allocator has been asked for on one thread.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`).
    calls: u64,
    /// Bytes requested: the size of each allocation, the new size of
    /// each reallocation.
    bytes: u64,
    /// Reallocations that grew a service's sample Vec, counted apart
    /// from `calls` and `bytes` (see [`is_sample_growth`]).
    sample_growths: u64,
}

thread_local! {
    static TALLY: Cell<Tally> = const {
        Cell::new(Tally {
            calls: 0,
            bytes: 0,
            sample_growths: 0,
        })
    };
}

fn count(size: usize) {
    // `try_with`: the slot may already be gone while the thread exits.
    let _ = TALLY.try_with(|t| {
        let mut tally = t.get();
        tally.calls += 1;
        tally.bytes += size as u64;
        t.set(tally);
    });
}

fn count_sample_growth() {
    let _ = TALLY.try_with(|t| {
        let mut tally = t.get();
        tally.sample_growths += 1;
        t.set(tally);
    });
}

/// Buffers at least this large that double are a service's sample Vec.
const SAMPLE_VEC_FLOOR: usize = 64 * 1024;

/// Whether a reallocation is the amortized growth of a service's latency
/// samples (`ServeStats`), which keep one `u64` per request for the
/// service's life: a power-of-two `u64` buffer of at least
/// [`SAMPLE_VEC_FLOOR`] bytes doubling. A buffer built within one flush
/// cannot pass as one: before it reaches the floor it is allocated
/// smaller, which is counted.
fn is_sample_growth(layout: Layout, new_size: usize) -> bool {
    layout.align() == std::mem::align_of::<u64>()
        && layout.size() >= SAMPLE_VEC_FLOOR
        && layout.size().is_power_of_two()
        && new_size == 2 * layout.size()
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter only observes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if is_sample_growth(layout, new_size) {
            count_sample_growth();
        } else {
            count(new_size);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn tally() -> Tally {
    TALLY.with(Cell::get)
}

/// Sample Vecs of the one-rack tier: the latencies of its rack service
/// and of its regional service. Each doubles at most once an epoch.
const SAMPLE_VECS: u64 = 2;

/// Requests per 100 ms epoch: the edge fleet's 6× load on one rack.
const PER_EPOCH: u64 = 1_870;

/// One region of the edge fleet with one rack.
fn one_rack() -> EdgeConfig {
    EdgeConfig {
        regions: 1,
        racks_per_region: 1,
        ..EdgeConfig::default()
    }
}

/// What one epoch asked of the allocator, and what it served.
struct Epoch {
    calls: u64,
    bytes: u64,
    sample_growths: u64,
    replies: u64,
}

/// Runs one epoch as the edge fleet does: each payload refilled in a
/// buffer the tier handed back, each reply's output handed back to the
/// tier. Everything is counted.
fn epoch(tier: &mut TieredService, payloads: &mut Vec<Matrix>, width: usize, index: u64) -> Epoch {
    let epoch_ns = SimDuration::from_millis(100).as_nanos();
    let base = index * epoch_ns;
    let mut tickets = Vec::with_capacity(PER_EPOCH as usize);
    let before = tally();
    for i in 0..PER_EPOCH {
        // The epoch's demand lands in its first 10 ms: more than the
        // rack's pool can drain, so its queue overflows to the regional
        // tier.
        let at = SimTime::from_nanos(base + i * (epoch_ns / 10) / PER_EPOCH);
        let mut payload = payloads.pop().unwrap_or_else(|| Matrix::zeros(1, width));
        seeded_payload_into(base + i, &mut payload);
        let opts = TierSubmit {
            rack: 0,
            deadline: Some(at + SimDuration::from_millis(98)),
        };
        tickets.push(tier.submit(payload, at, opts).expect("valid payload"));
    }
    tier.flush(SimTime::from_nanos(base + epoch_ns));
    let mut replies = 0;
    for ticket in tickets.drain(..) {
        let (outcome, payload) = tier.take_filed(ticket).expect("flushed");
        if let TierOutcome::Reply(reply) = outcome {
            replies += 1;
            tier.recycle(reply);
        }
        payloads.push(payload);
    }
    let after = tally();
    Epoch {
        calls: after.calls - before.calls,
        bytes: after.bytes - before.bytes,
        sample_growths: after.sample_growths - before.sample_growths,
        replies,
    }
}

#[test]
fn a_warmed_up_epoch_allocates_nothing() {
    let config = one_rack();
    let mlp = edge_sim::region_policy(&config, 0);
    let mut tier = TieredService::new(&mlp, edge_sim::tier_config(&config));
    let mut payloads = Vec::new();
    // Warm up: size every reused buffer.
    for index in 0..30 {
        epoch(&mut tier, &mut payloads, mlp.input_size(), index);
    }

    let epochs: Vec<Epoch> = (30..40)
        .map(|index| epoch(&mut tier, &mut payloads, mlp.input_size(), index))
        .collect();
    let replies: u64 = epochs.iter().map(|e| e.replies).sum();
    let stats = tier.stats();
    assert!(stats.hedges > 0, "the saturated rack must hedge");
    assert!(stats.regional_served > 0, "the regional tier must serve");
    assert!(replies > 10 * PER_EPOCH / 2, "the tier must keep serving");
    assert!(
        payloads.len() <= PER_EPOCH as usize,
        "{} payloads held for an epoch of {PER_EPOCH}",
        payloads.len()
    );
    for (index, e) in (30..).zip(&epochs) {
        assert_eq!(
            e.calls, 0,
            "epoch {index} made {} allocation calls for {} bytes",
            e.calls, e.bytes
        );
        assert!(
            e.sample_growths <= SAMPLE_VECS,
            "epoch {index} doubled {} large buffers; the tier has {SAMPLE_VECS} sample Vecs",
            e.sample_growths
        );
    }
}

/// Allocation calls per submitted request allowed in a cold run, per
/// perfbench edge shape: fresh services size every reused buffer once,
/// and nothing else allocates per request. A run measures 1.03 on
/// edge-nominal, whose 36 services see few requests each, and 0.33 on
/// edge-overload6 (5.6 and 2.4 while every request allocated its
/// payload, its reply output, its batch's job list and a policy-cache
/// entry).
const COLD_BUDGETS: [(&str, f64); 2] = [("edge-nominal", 1.1), ("edge-overload6", 0.4)];

/// perfbench's edge workloads: 256 boards, 25,000 users and 24 epochs,
/// nominal load with the backbone outage, or 6× load on one region with
/// one rack.
fn perfbench_shape(name: &str) -> EdgeConfig {
    let fleet = EdgeConfig {
        boards: 256,
        users: 25_000,
        epochs: 24,
        seed: 1,
        ..EdgeConfig::default()
    };
    match name {
        "edge-overload6" => EdgeConfig {
            load: 6.0,
            regions: 1,
            racks_per_region: 1,
            ..fleet
        },
        _ => EdgeConfig {
            outage: true,
            ..fleet
        },
    }
}

#[test]
fn a_cold_run_allocates_a_bounded_number_of_times_per_request() {
    for (name, budget) in COLD_BUDGETS {
        let config = perfbench_shape(name);
        let before = tally();
        let report = edge_sim::run(&config);
        let after = tally();
        // The sample Vecs' doubling is an allocation a cold run pays too.
        let calls = after.calls + after.sample_growths - before.calls - before.sample_growths;
        assert!(
            report.violations.is_empty(),
            "{name}: {:?}",
            report.violations
        );
        let per_request = calls as f64 / report.submitted as f64;
        assert!(
            per_request <= budget,
            "{name}: {calls} allocations for {} requests, {per_request:.2} per request \
             (budget {budget})",
            report.submitted
        );
    }
}
