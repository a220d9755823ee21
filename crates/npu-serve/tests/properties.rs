//! Property: serving through the shared batched service is bit-identical
//! to issuing every request on its own dedicated device, for any request
//! mix, submission interleaving and pool shape.

use std::collections::HashSet;

use faults::{FaultInjector, FaultPlan};
use hmc_types::{SimDuration, SimTime};
use nn::{Matrix, Mlp};
use npu::{KernelMode, NpuModel};
use npu_serve::{NpuService, ServeConfig, ServeStats};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A deterministic pseudo-random feature batch for request `i`, `width`
/// features per row.
fn request(seed: u64, i: usize, rows: usize, width: usize) -> Matrix {
    Matrix::from_rows(
        (0..rows)
            .map(|r| {
                (0..width)
                    .map(|c| {
                        let h = seed
                            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            .wrapping_add((i * 131 + r * 17 + c) as u64)
                            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
                        ((h >> 40) as f32 / (1u64 << 24) as f32) - 0.5
                    })
                    .collect()
            })
            .collect(),
    )
}

proptest! {
    #[test]
    fn batched_replies_match_dedicated_issuance(
        seed in 0u64..64,
        row_counts in proptest::collection::vec(1usize..5, 1..12),
        jitter_us in proptest::collection::vec(0u64..4000, 12),
        devices in 1usize..4,
        max_batch in 1usize..9,
    ) {
        let mlp = Mlp::with_topology(21, 4, 64, 8, &mut StdRng::seed_from_u64(seed));
        // Dedicated issuance: the compiled model serves each request
        // alone (exactly what a per-board HiaiClient computes).
        let dedicated = NpuModel::compile(&mlp);

        let config = ServeConfig {
            devices,
            max_batch,
            queue_capacity: 64,
            ..ServeConfig::default()
        };
        let mut service = NpuService::new(&mlp, config);

        let requests: Vec<Matrix> = row_counts
            .iter()
            .enumerate()
            .map(|(i, &rows)| request(seed, i, rows, 21))
            .collect();
        // Arbitrary submission interleaving: jittered stamps, including
        // out-of-order ones the service clamps to its monotone clock.
        let tickets: Vec<_> = requests
            .iter()
            .zip(&jitter_us)
            .map(|(r, &us)| {
                let at = SimTime::from_nanos(us * 1_000);
                service.submit(r, at).expect("capacity fits every request")
            })
            .collect();
        service.flush(SimTime::from_secs(1));

        prop_assert_eq!(service.stats().dropped(), 0);
        for (r, ticket) in requests.iter().zip(tickets) {
            let reply = service.take_reply(ticket).expect("flushed");
            prop_assert!(!reply.fallback_active);
            let output = reply.output.expect("served");
            // Bit-identical, regardless of which batch the request
            // landed in or which device served it.
            prop_assert_eq!(&output, &dedicated.infer(r, KernelMode::default()));
        }
    }

    /// A compute drain that holds many plans — one-row and multi-row
    /// requests, cache hits, a payload repeated within one drain, and
    /// CPU-fallback plans (failed device attempts) in between — files
    /// every plan from its own slice of the drain's one kernel pass:
    /// every NPU reply equals dedicated `infer`, every fallback reply the
    /// float model, and the stats equal a per-plan reference. That
    /// reference is the same schedule without the cache (the cache
    /// replays numbers only, so everything else must match), with hits
    /// and misses counted plan by plan: a request hits when an NPU-path
    /// plan of an earlier drain computed its payload, and every miss is
    /// inserted once its drain has probed.
    #[test]
    fn many_plan_drains_file_each_plan_from_its_slice(
        seed in 0u64..1_000,
        ops in proptest::collection::vec(0u64..1_000, 8..48),
        max_batch in 1usize..4,
        devices in 1usize..3,
        failure_pct in 0u64..40,
    ) {
        let mlp = Mlp::new(&[12, 16, 16, 4], &mut StdRng::seed_from_u64(seed));
        let dedicated = NpuModel::compile(&mlp);
        let serve = |policy_cache| {
            let config = ServeConfig {
                devices,
                max_batch,
                queue_capacity: 64,
                policy_cache,
                ..ServeConfig::default()
            };
            let mut plan = FaultPlan::none(seed);
            plan.serve.failure_rate = failure_pct as f64 / 100.0;
            NpuService::new(&mlp, config).with_fault_injector(FaultInjector::new(plan))
        };
        let (mut cached, mut reference) = (serve(4_096), serve(0));
        let (mut computed, mut hits, mut misses) = (HashSet::new(), 0u64, 0u64);
        // Each op code is one request; a code divisible by 7 also closes
        // the drain after it.
        let mut drain: Vec<(u64, usize, Matrix)> = Vec::new();
        let mut now = SimTime::ZERO;
        for (i, &op) in ops.iter().enumerate() {
            // Payload ids repeat: a small id space gives hits across
            // drains and repeats within one.
            let (id, rows) = (op % 11, 1 + (op / 11 % 5) as usize % 3);
            drain.push((id, rows, request(seed, id as usize, rows, 12)));
            if op % 7 != 0 && i + 1 < ops.len() {
                continue;
            }
            let tickets: Vec<_> = drain
                .iter()
                .map(|(_, _, r)| {
                    let cached = cached.submit(r, now).expect("capacity fits the drain");
                    (cached, reference.submit(r, now).expect("capacity fits the drain"))
                })
                .collect();
            now += SimDuration::from_millis(50);
            cached.flush(now);
            reference.flush(now);
            let mut npu_keys = Vec::new();
            for ((id, rows, r), (a, b)) in drain.drain(..).zip(tickets) {
                let reply = cached.take_reply(a).expect("flushed");
                let twin = reference.take_reply(b).expect("flushed");
                prop_assert_eq!(reply.fallback_active, twin.fallback_active);
                let output = reply.output.expect("served");
                if reply.fallback_active {
                    prop_assert_eq!(&output, &mlp.forward_batch(&r));
                } else {
                    prop_assert_eq!(&output, &dedicated.infer(&r, KernelMode::default()));
                    if computed.contains(&(id, rows)) {
                        hits += 1;
                    } else {
                        misses += 1;
                    }
                    npu_keys.push((id, rows));
                }
                prop_assert_eq!(&Some(output), &twin.output);
            }
            computed.extend(npu_keys);
        }
        let mut expected: ServeStats = reference.stats().clone();
        (expected.cache_hits, expected.cache_misses) = (hits, misses);
        prop_assert_eq!(cached.stats(), &expected);
    }
}
