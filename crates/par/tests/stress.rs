//! Stress and soak tests for the deterministic pool: thousands of tiny
//! tasks and seeded fault-injected worker panics (via `faults`).

use std::panic::{catch_unwind, AssertUnwindSafe};

use faults::TaskFaultPlan;
use par::{par_map, Budget};

/// 10k tiny tasks with seeded injected panics: for every thread count the
/// pool must drain (join all workers, no deadlock) and re-throw the panic
/// of the lowest-indexed faulted task — the same failure a serial loop
/// hits first.
#[test]
#[ignore = "10k-task soak; run via ci.sh FULL=1 (--include-ignored)"]
fn soak_faulted_pool_drains_and_panics_deterministically() {
    const TASKS: u64 = 10_000;
    for seed in [1u64, 7, 42] {
        let plan = TaskFaultPlan {
            seed,
            panic_rate: 0.001,
        };
        let expected_first = (0..TASKS).find(|&t| plan.should_panic(t));
        let items: Vec<u64> = (0..TASKS).collect();
        for threads in [1, 2, 4, 7] {
            let result = catch_unwind(AssertUnwindSafe(|| {
                par_map(&Budget::with_threads(threads), &items, |_, &t| {
                    assert!(!plan.should_panic(t), "injected fault on task {t}");
                    t.wrapping_mul(0x9E37_79B9)
                })
            }));
            match expected_first {
                None => {
                    let out = result.expect("no injected faults, pool must succeed");
                    assert_eq!(out.len(), TASKS as usize);
                }
                Some(first) => {
                    let payload = result.expect_err("injected faults must propagate");
                    let message = payload
                        .downcast_ref::<String>()
                        .expect("assert! panics carry a String");
                    assert!(
                        message.contains(&format!("injected fault on task {first}")),
                        "seed={seed} threads={threads}: expected task {first}, got: {message}"
                    );
                }
            }
        }
    }
}

/// A clean 10k-task soak: every thread count produces the identical
/// result vector, exercising the dynamic cursor under heavy contention.
#[test]
#[ignore = "10k-task soak; run via ci.sh FULL=1 (--include-ignored)"]
fn soak_clean_pool_is_order_preserving() {
    let items: Vec<u64> = (0..10_000).collect();
    let reference: Vec<u64> = items.iter().map(|&t| t ^ (t << 7)).collect();
    for threads in [2, 4, 7] {
        let got = par_map(&Budget::with_threads(threads), &items, |_, &t| t ^ (t << 7));
        assert_eq!(got, reference, "threads={threads}");
    }
}
