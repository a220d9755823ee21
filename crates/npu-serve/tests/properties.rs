//! Property: serving through the shared batched service is bit-identical
//! to issuing every request on its own dedicated device, for any request
//! mix, submission interleaving and pool shape.

use hmc_types::SimTime;
use nn::{Matrix, Mlp};
use npu::{KernelMode, NpuModel};
use npu_serve::{NpuService, ServeConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A deterministic pseudo-random feature batch for request `i`.
fn request(seed: u64, i: usize, rows: usize) -> Matrix {
    Matrix::from_rows(
        (0..rows)
            .map(|r| {
                (0..21)
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
            .map(|(i, &rows)| request(seed, i, rows))
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
}
