//! The tier's invariant checker, run by the harness that drives a
//! [`TieredService`](crate::TieredService) (the edge fleet's regions,
//! storm presets included), plus the seeded request payload it submits.
//!
//! [`TierChecker`] watches every submit, outcome, barrier and breaker
//! transition of one tier:
//!
//! * **request conservation** — every admitted request resolves exactly
//!   once: a reply, or a typed failure (full queue / deadline / failed-over),
//! * **zero late replies** — a reply past its deadline is a violation;
//!   the tier must fail typed instead,
//! * **bounded hedge amplification** — at most one hedge per submitted
//!   request,
//! * **legal breaker transitions** — only `Closed→Open`, `Open→HalfOpen`,
//!   `HalfOpen→{Closed,Open}`, plus probation entries into `HalfOpen`,
//!   each continuing from the scope's previous state,
//! * **virtual-time monotonicity** — barrier instants strictly increase,
//!   transition and completion times never run backwards.

use std::collections::BTreeMap;

use faults::BreakerState;
use hmc_types::SimTime;
use nn::Matrix;

use crate::{TierOutcome, TierScope, TierStats, TierTransition};

/// Always-on invariant checker fed during a run; violations are
/// collected (never panicking) so reports stay comparable across thread
/// budgets even when an invariant breaks.
#[derive(Debug, Default)]
pub struct TierChecker {
    submitted: u64,
    resolved: u64,
    violations: Vec<String>,
    /// Last observed breaker state and transition instant per scope.
    /// Scopes start `Closed` at time zero. Monotonicity is per scope: two
    /// components may legitimately move at interleaved instants, but one
    /// component's history never runs backwards.
    breaker_last: BTreeMap<TierScope, (BreakerState, SimTime)>,
    last_barrier: Option<SimTime>,
}

/// Whether a breaker edge is legal. Probation entries (a rejoining
/// board's rack) may come from any state but must land in `HalfOpen`.
fn legal_edge(from: BreakerState, to: BreakerState, probation: bool) -> bool {
    if probation {
        return to == BreakerState::HalfOpen;
    }
    matches!(
        (from, to),
        (BreakerState::Closed, BreakerState::Open)
            | (BreakerState::Open, BreakerState::HalfOpen)
            | (BreakerState::HalfOpen, BreakerState::Closed)
            | (BreakerState::HalfOpen, BreakerState::Open)
    )
}

impl TierChecker {
    /// Records an admitted submission.
    pub fn observe_submit(&mut self) {
        self.submitted += 1;
    }

    /// Checks one barrier instant: virtual time must move strictly
    /// forward.
    pub fn observe_barrier(&mut self, at: SimTime) {
        if let Some(last) = self.last_barrier {
            if at <= last {
                self.violations
                    .push(format!("barrier time went backwards: {last} -> {at}"));
            }
        }
        self.last_barrier = Some(at);
    }

    /// Checks one resolved request: exactly-once (the caller redeems
    /// each ticket once; a missing outcome is reported through
    /// [`TierChecker::observe_lost_ticket`]), no late replies, completion
    /// not before submission.
    pub fn observe_outcome(
        &mut self,
        submit_at: SimTime,
        deadline: SimTime,
        outcome: &TierOutcome,
    ) {
        self.resolved += 1;
        if let TierOutcome::Reply(reply) = outcome {
            if reply.completed_at < submit_at {
                self.violations.push(format!(
                    "reply completed at {} before its submission at {}",
                    reply.completed_at, submit_at
                ));
            }
            if reply.completed_at > deadline {
                self.violations.push(format!(
                    "late reply delivered: completed {} past deadline {}",
                    reply.completed_at, deadline
                ));
            }
        }
    }

    /// Records a ticket that never produced an outcome — a conservation
    /// violation in itself.
    pub fn observe_lost_ticket(&mut self, submit_at: SimTime) {
        self.violations.push(format!(
            "request submitted at {submit_at} has no outcome after the flush"
        ));
    }

    /// Checks a drained batch of tier breaker transitions: legal edges,
    /// continuity with the scope's previous state, monotone timestamps.
    pub fn observe_transitions(&mut self, transitions: &[TierTransition]) {
        for t in transitions {
            let (last_state, last_at) = *self
                .breaker_last
                .get(&t.scope)
                .unwrap_or(&(BreakerState::Closed, SimTime::ZERO));
            if t.at < last_at {
                self.violations.push(format!(
                    "breaker {:?} transition time went backwards: {} -> {}",
                    t.scope, last_at, t.at
                ));
            }
            if t.from != last_state {
                self.violations.push(format!(
                    "breaker {:?} transition from {:?} does not continue from {:?}",
                    t.scope, t.from, last_state
                ));
            }
            if !legal_edge(t.from, t.to, t.probation) {
                self.violations.push(format!(
                    "illegal breaker edge {:?}: {:?} -> {:?} (probation {})",
                    t.scope, t.from, t.to, t.probation
                ));
            }
            self.breaker_last.insert(t.scope, (t.to, t.at.max(last_at)));
        }
    }

    /// Final conservation and amplification checks against the tier's
    /// own counters; returns the collected violations.
    pub fn finish(mut self, stats: &TierStats) -> Vec<String> {
        if self.resolved != self.submitted {
            self.violations.push(format!(
                "conservation: {} submitted but {} resolved",
                self.submitted, self.resolved
            ));
        }
        if stats.replies + stats.failed != stats.submitted {
            self.violations.push(format!(
                "conservation (tier stats): {} replies + {} failed != {} submitted",
                stats.replies, stats.failed, stats.submitted
            ));
        }
        if stats.hedges > stats.submitted {
            self.violations.push(format!(
                "hedge amplification: {} hedges exceed {} submitted",
                stats.hedges, stats.submitted
            ));
        }
        self.violations
    }
}

/// A `rows × width` request payload as a pure function of its seed:
/// entries are uniform on `[-1, 1)` in steps of 0.001.
pub fn seeded_payload(seed: u64, rows: usize, width: usize) -> Matrix {
    let mut payload = Matrix::zeros(rows, width);
    seeded_payload_into(seed, &mut payload);
    payload
}

/// Refills `payload` in place, keeping its shape, with the entries
/// [`seeded_payload`] makes for `seed`.
pub fn seeded_payload_into(seed: u64, payload: &mut Matrix) {
    for (i, entry) in payload.as_mut_slice().iter_mut().enumerate() {
        let draw = sim_core::splitmix64(seed ^ ((i as u64) << 1));
        *entry = (draw % 2_000) as f32 / 1_000.0 - 1.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ServedBy, TierReply};
    use hmc_types::SimDuration;

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    fn reply_at(completed_at: SimTime) -> TierOutcome {
        TierOutcome::Reply(TierReply {
            output: Matrix::from_flat(1, 1, vec![0.0]),
            latency: SimDuration::ZERO,
            completed_at,
            served_by: ServedBy::Rack(0),
            hedged: false,
            hedge_won: false,
            failed_over: false,
        })
    }

    fn edge(at: u64, scope: TierScope, from: BreakerState, to: BreakerState) -> TierTransition {
        TierTransition {
            at: ms(at),
            scope,
            from,
            to,
            probation: false,
        }
    }

    /// One submitted request answered on time, as consistent tier stats.
    fn served(n: u64) -> TierStats {
        TierStats {
            submitted: n,
            replies: n,
            ..TierStats::default()
        }
    }

    #[test]
    fn each_violation_kind_is_reported_once_with_its_text() {
        use BreakerState::{Closed, HalfOpen, Open};
        type Case = (&'static str, fn(&mut TierChecker), TierStats, &'static str);
        let cases: [Case; 10] = [
            (
                "barrier backwards",
                |c| {
                    c.observe_barrier(ms(200));
                    c.observe_barrier(ms(100));
                },
                TierStats::default(),
                "barrier time went backwards: 0.200 s -> 0.100 s",
            ),
            (
                "reply before submit",
                |c| {
                    c.observe_submit();
                    c.observe_outcome(ms(20), ms(50), &reply_at(ms(10)));
                },
                served(1),
                "reply completed at 0.010 s before its submission at 0.020 s",
            ),
            (
                "late reply",
                |c| {
                    c.observe_submit();
                    c.observe_outcome(ms(10), ms(50), &reply_at(ms(60)));
                },
                served(1),
                "late reply delivered: completed 0.060 s past deadline 0.050 s",
            ),
            (
                "lost ticket",
                |c| c.observe_lost_ticket(ms(30)),
                TierStats::default(),
                "request submitted at 0.030 s has no outcome after the flush",
            ),
            (
                "transition time backwards",
                |c| {
                    c.observe_transitions(&[
                        edge(50, TierScope::Rack(1), Closed, Open),
                        edge(40, TierScope::Rack(1), Open, HalfOpen),
                    ]);
                },
                TierStats::default(),
                "breaker Rack(1) transition time went backwards: 0.050 s -> 0.040 s",
            ),
            (
                "discontinuous from",
                |c| c.observe_transitions(&[edge(10, TierScope::Rack(0), Open, HalfOpen)]),
                TierStats::default(),
                "breaker Rack(0) transition from Open does not continue from Closed",
            ),
            (
                "illegal edge",
                |c| c.observe_transitions(&[edge(0, TierScope::Regional, Closed, HalfOpen)]),
                TierStats::default(),
                "illegal breaker edge Regional: Closed -> HalfOpen (probation false)",
            ),
            (
                "conservation mismatch",
                |c| {
                    c.observe_submit();
                    c.observe_submit();
                    c.observe_outcome(ms(10), ms(50), &reply_at(ms(20)));
                },
                served(2),
                "conservation: 2 submitted but 1 resolved",
            ),
            (
                "tier-stats conservation mismatch",
                |_| {},
                TierStats {
                    submitted: 3,
                    replies: 1,
                    failed: 1,
                    ..TierStats::default()
                },
                "conservation (tier stats): 1 replies + 1 failed != 3 submitted",
            ),
            (
                "hedge amplification",
                |_| {},
                TierStats {
                    hedges: 3,
                    ..served(2)
                },
                "hedge amplification: 3 hedges exceed 2 submitted",
            ),
        ];
        for (kind, feed, stats, expected) in cases {
            let mut checker = TierChecker::default();
            feed(&mut checker);
            assert_eq!(checker.finish(&stats), vec![expected.to_string()], "{kind}");
        }
    }

    #[test]
    fn a_refilled_payload_equals_a_fresh_one_bit_for_bit() {
        let mut reused = seeded_payload(99, 2, 12);
        for seed in [0, 1, 0x9e37_79b9, u64::MAX] {
            seeded_payload_into(seed, &mut reused);
            // The entries as the payload was first defined: one splitmix
            // draw per entry index.
            let expected = (0..24u64).map(|i| {
                let draw = sim_core::splitmix64(seed ^ (i << 1));
                (draw % 2_000) as f32 / 1_000.0 - 1.0
            });
            for (got, want) in reused.as_slice().iter().zip(expected) {
                assert_eq!(got.to_bits(), want.to_bits(), "seed {seed}");
            }
            assert_eq!(reused, seeded_payload(seed, 2, 12));
        }
    }

    #[test]
    fn a_clean_run_has_no_violations() {
        use BreakerState::{Closed, HalfOpen, Open};
        let mut checker = TierChecker::default();
        for epoch in 1..=3 {
            checker.observe_barrier(ms(100 * epoch));
            checker.observe_submit();
            checker.observe_outcome(
                ms(100 * epoch - 50),
                ms(100 * epoch),
                &reply_at(ms(100 * epoch)),
            );
        }
        checker.observe_transitions(&[
            edge(100, TierScope::Rack(0), Closed, Open),
            edge(100, TierScope::Regional, Closed, Open),
            edge(200, TierScope::Rack(0), Open, HalfOpen),
            edge(300, TierScope::Rack(0), HalfOpen, Closed),
            TierTransition {
                probation: true,
                ..edge(300, TierScope::Regional, Open, HalfOpen)
            },
            edge(300, TierScope::Regional, HalfOpen, Open),
        ]);
        let stats = TierStats {
            hedges: 3,
            ..served(3)
        };
        assert_eq!(checker.finish(&stats), Vec::<String>::new());
    }
}
