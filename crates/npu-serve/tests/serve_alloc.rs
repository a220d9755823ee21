//! The allocation budget of the serving path: once warmed up, serving one
//! edge request through a saturated tier allocates about once — the
//! reply's output — and everything else reuses buffers. Counting calls
//! alone would pass a buffer allocated once per flush however large it
//! is, so the bytes are budgeted too: beyond the reply outputs, no
//! warmed-up epoch's bytes and no single allocation may grow with the
//! epoch's request count.
//!
//! This file is its own test binary so that its counting global allocator
//! sees only this test's allocations. The counters are thread-local, so
//! the harness's other threads cannot disturb them.

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

/// What the allocator has been asked for on one thread.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`).
    calls: u64,
    /// Bytes requested: the size of each allocation, the new size of
    /// each reallocation.
    bytes: u64,
    /// The largest single request since the last [`reset_largest`].
    largest: u64,
    /// Reallocations that grew a service's sample Vec, counted apart
    /// from `calls` and `bytes` (see [`is_sample_growth`]).
    sample_growths: u64,
}

thread_local! {
    static TALLY: Cell<Tally> = const {
        Cell::new(Tally {
            calls: 0,
            bytes: 0,
            largest: 0,
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
        tally.largest = tally.largest.max(size as u64);
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

/// Buffers at least this large that double are a service's sample Vecs.
const SAMPLE_VEC_FLOOR: usize = 64 * 1024;

/// Whether a reallocation is the amortized growth of a service's latency
/// or queue-wait samples (`ServeStats`), which keep one `u64` per request
/// for the service's life: a power-of-two `u64` buffer of at least
/// [`SAMPLE_VEC_FLOOR`] bytes doubling. A buffer built within one flush
/// cannot pass as one: before it reaches the floor it makes an
/// allocation above [`LARGEST_BYTES`], which is counted.
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

fn reset_largest() {
    TALLY.with(|t| {
        t.set(Tally {
            largest: 0,
            ..t.get()
        })
    });
}

/// Heap allocations per submitted request allowed in steady state. The
/// tier measures 1.04: the reply's output matrix, plus a job list per
/// batch.
const BUDGET_PER_REQUEST: f64 = 1.1;

/// Bytes of one reply's output: one row of the policy's 4 outputs.
const OUTPUT_BYTES: u64 = 4 * 4;

/// Bytes an epoch may request beyond its reply outputs. The tier
/// measures about 2 KB: one 32-byte job list per batch (a batch holds up
/// to 32 requests) and a few small odds and ends. A buffer sized by the
/// epoch's requests costs more than this on its own: 1,870 entries of
/// even one byte.
const EPOCH_SLACK_BYTES: u64 = 4 * 1024;

/// The largest allocation a steady-state epoch may make: a reply output
/// and a job list are 16 and 32 bytes.
const LARGEST_BYTES: u64 = 1024;

/// Sample Vecs of the one-rack tier: latencies and queue waits of its
/// rack service and of its regional service. Each doubles at most once
/// an epoch.
const SAMPLE_VECS: u64 = 4;

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

/// What one epoch asked of the allocator, and what it served.
struct Epoch {
    calls: u64,
    bytes: u64,
    largest: u64,
    sample_growths: u64,
    replies: u64,
}

/// Runs one epoch, counting only the tier's allocations (the payloads
/// are made before the count starts).
fn epoch(tier: &mut TieredService, width: usize, index: u64) -> Epoch {
    let epoch_ns = SimDuration::from_millis(100).as_nanos();
    let base = index * epoch_ns;
    let payloads: Vec<_> = (0..PER_EPOCH)
        .map(|i| seeded_payload(base + i, 1, width))
        .collect();
    let mut tickets = Vec::with_capacity(PER_EPOCH as usize);
    reset_largest();
    let before = tally();
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
    let after = tally();
    Epoch {
        calls: after.calls - before.calls,
        bytes: after.bytes - before.bytes,
        largest: after.largest,
        sample_growths: after.sample_growths - before.sample_growths,
        replies,
    }
}

#[test]
fn serving_a_request_allocates_about_once() {
    let mlp = Mlp::with_topology(12, 2, 16, 4, &mut StdRng::seed_from_u64(7));
    let mut tier = TieredService::new(&mlp, edge_tier());
    // Warm up: fill both policy caches and size every reused buffer.
    for index in 0..30 {
        epoch(&mut tier, mlp.input_size(), index);
    }

    let epochs: Vec<Epoch> = (30..40)
        .map(|index| epoch(&mut tier, mlp.input_size(), index))
        .collect();
    let allocated: u64 = epochs.iter().map(|e| e.calls).sum();
    let replies: u64 = epochs.iter().map(|e| e.replies).sum();
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

    // Every warmed-up epoch: the sample Vecs' growth is set apart by
    // `is_sample_growth`, so nothing else may make a large request.
    for (index, e) in (30..).zip(&epochs) {
        let beyond = e.bytes.saturating_sub(e.replies * OUTPUT_BYTES);
        assert!(
            beyond <= EPOCH_SLACK_BYTES,
            "epoch {index} requested {beyond} bytes beyond its reply outputs \
             (budget {EPOCH_SLACK_BYTES})"
        );
        assert!(
            e.largest <= LARGEST_BYTES,
            "epoch {index} made an allocation of {} bytes (budget {LARGEST_BYTES})",
            e.largest
        );
        assert!(
            e.sample_growths <= SAMPLE_VECS,
            "epoch {index} doubled {} large buffers; the tier has {SAMPLE_VECS} sample Vecs",
            e.sample_growths
        );
    }
}
