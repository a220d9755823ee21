//! Breaker-ladder behavior under fault storms: breakers open and recover
//! through half-open probes (whose legality `faults::breaker` pins), and
//! no admitted request is ever lost — a fenced-off pool drains to the CPU.

use faults::{BreakerState, FaultInjector, FaultPlan};
use hmc_types::{SimDuration, SimTime};
use nn::{Matrix, Mlp};
use npu_serve::{
    ClientId, NpuService, ServeConfig, TierConfig, TierOutcome, TierScope, TierSubmit,
    TieredService,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn mlp() -> Mlp {
    Mlp::with_topology(21, 4, 64, 8, &mut StdRng::seed_from_u64(3))
}

fn request(seed: usize) -> Matrix {
    Matrix::from_rows(vec![(0..21)
        .map(|c| ((seed * 31 + c * 3) % 17) as f32 / 17.0 - 0.5)
        .collect()])
}

fn ms(t: u64) -> SimTime {
    SimTime::from_millis(t)
}

#[test]
fn intermittent_storm_recovers_half_open_to_closed() {
    let net = mlp();
    // One device, hair-trigger breaker, one-dispatch cooldown: an
    // intermittent storm (deterministic seed) keeps cycling the ladder.
    let mut plan = FaultPlan::none(21);
    plan.serve.failure_rate = 0.5;
    let config = ServeConfig {
        devices: 1,
        max_batch: 1,
        breaker_threshold: 1,
        breaker_cooldown: 1,
        ..ServeConfig::default()
    };
    let mut service = NpuService::new(&net, config).with_fault_injector(FaultInjector::new(plan));
    let mut replies = Vec::new();
    // The device's breaker state after every flush.
    let mut states = Vec::new();
    for i in 0..40 {
        let t = service.submit(&request(i), ms(i as u64)).unwrap();
        service.flush(ms(i as u64));
        replies.push(service.take_reply(t).expect("flushed"));
        states.extend(service.breaker_states());
    }
    // Zero lost replies through the whole storm.
    assert_eq!(service.stats().dropped(), 0);
    assert!(replies.iter().all(|r| r.output.is_some()));
    assert!(
        service.breaker_opens() > 1,
        "the storm must trip the breaker"
    );

    // The breaker is seen open, and closed again later: leaving Open
    // takes a half-open probe that succeeded.
    let opened = states
        .iter()
        .position(|s| *s == BreakerState::Open)
        .expect("the storm must open the breaker");
    assert!(
        states[opened..].contains(&BreakerState::Closed),
        "a half-open probe must succeed and close the breaker: {states:?}"
    );
}

#[test]
fn total_storm_fences_the_pool_and_drains_to_cpu_without_loss() {
    let net = mlp();
    let mut plan = FaultPlan::none(11);
    plan.serve.failure_rate = 1.0;
    let config = ServeConfig {
        devices: 3,
        max_batch: 1,
        breaker_threshold: 1,
        breaker_cooldown: 1_000,
        ..ServeConfig::default()
    };
    let mut service = NpuService::new(&net, config).with_fault_injector(FaultInjector::new(plan));
    let mut replies = Vec::new();
    let mut samples = Vec::new();
    for i in 0..12 {
        let t = service.submit(&request(i), ms(i as u64)).unwrap();
        service.flush(ms(i as u64));
        replies.push(service.take_reply(t).expect("flushed"));
        samples.push(service.breaker_states());
    }
    // Each device fails once and is fenced off; everything after drains
    // straight to the CPU fallback — with zero lost replies.
    assert!(service.all_breakers_open());
    assert_eq!(service.breaker_opens(), 3);
    assert_eq!(service.stats().dropped(), 0);
    assert_eq!(service.stats().served, 12);
    assert!(replies.iter().all(|r| r.output.is_some()));
    assert!(replies.iter().all(|r| r.fallback_active));
    // The last replies never even attempt a device.
    assert_eq!(replies.last().unwrap().npu_failures, 0);

    // No recovery (the cooldown outlives the run): once a device's
    // breaker reads open, it stays open in every later sample.
    for device in 0..3 {
        let opened = samples
            .iter()
            .position(|s| s[device] == BreakerState::Open)
            .expect("every device fails once");
        assert!(samples[opened..]
            .iter()
            .all(|s| s[device] == BreakerState::Open));
    }
}

#[test]
fn storm_with_deadlines_never_serves_late() {
    let net = mlp();
    // A half-and-half storm with tight-but-feasible deadlines: admitted
    // requests are either served on time or failed fast — never computed
    // past their deadline.
    let mut plan = FaultPlan::none(5);
    plan.serve.failure_rate = 0.4;
    plan.serve.slowdown_rate = 0.4;
    plan.serve.slowdown_factor = 8.0;
    let config = ServeConfig {
        devices: 2,
        max_batch: 2,
        breaker_threshold: 2,
        breaker_cooldown: 2,
        ..ServeConfig::default()
    };
    let mut service = NpuService::new(&net, config).with_fault_injector(FaultInjector::new(plan));
    let mut tickets = Vec::new();
    for i in 0..30u64 {
        let opts = npu_serve::SubmitOptions {
            deadline: Some(ms(i + 12)),
            ..npu_serve::SubmitOptions::default()
        };
        match service.submit_with(&request(i as usize), ms(i), opts) {
            Ok(t) => tickets.push(t),
            Err(err) => assert!(
                err.retry_after().is_some() || err.retry_class() == npu_serve::RetryClass::Terminal
            ),
        }
    }
    service.flush(ms(500));
    let mut outcomes = 0;
    for t in tickets {
        match service.take_outcome(t).expect("flushed") {
            Ok(reply) => assert!(reply.output.is_some()),
            Err(err) => assert!(matches!(
                err,
                npu_serve::ServeError::DeadlineExceeded { .. }
            )),
        }
        outcomes += 1;
    }
    assert!(outcomes > 0);
    // The invariant under any storm: zero late replies.
    assert_eq!(service.stats().deadline_misses, 0);
    assert_eq!(service.stats().dropped(), 0);
}

/// A churn-friendly tier: two racks, a 50 ms heartbeat with a 160 ms
/// timeout, and a cooldown long enough that only an explicit rejoin can
/// half-open a tripped breaker within a test.
fn tier() -> TieredService {
    TieredService::new(
        &mlp(),
        TierConfig {
            racks: 2,
            hedge_min: SimDuration::from_millis(20),
            breaker_cooldown: 1_000,
            ..TierConfig::default()
        },
    )
}

fn tier_request(seed: usize) -> Matrix {
    request(seed)
}

#[test]
fn breaker_opens_while_its_board_is_crashing() {
    let mut service = tier();
    // The board behind rack 0 starts crashing at t=0: its heartbeats stop
    // mid-run while a request is still in flight on the rack.
    service.set_heartbeat_silent(0, true, ms(0));
    let early = service
        .submit(
            tier_request(0),
            ms(10),
            TierSubmit {
                rack: 0,
                client: ClientId::new(1),
                deadline: None,
            },
        )
        .expect("valid request");
    // The flush crosses the 160 ms silence threshold: the failure
    // detector must suspect the rack and trip its breaker open — and the
    // in-flight request must still resolve exactly once.
    service.flush(ms(300));
    assert!(service.suspected(0), "silent rack must be suspected");
    assert_eq!(
        service.breaker_state(TierScope::Rack(0)),
        BreakerState::Open
    );
    assert!(
        service.take_outcome(early).is_some(),
        "the in-flight request must drain despite the crash"
    );
    let trip = service
        .drain_transitions()
        .into_iter()
        .find(|t| t.scope == TierScope::Rack(0) && t.to == BreakerState::Open)
        .expect("the detector trip must be traced");
    assert_eq!(trip.from, BreakerState::Closed);
    assert!(!trip.probation);
    assert_eq!(
        trip.at,
        ms(160),
        "the trip carries the exact suspicion instant"
    );

    // Later submissions from the crashed board's clients fail over away
    // from the dead rack; nothing is lost.
    let late = service
        .submit(
            tier_request(1),
            ms(350),
            TierSubmit {
                rack: 0,
                client: ClientId::new(1),
                deadline: None,
            },
        )
        .expect("valid request");
    service.flush(ms(500));
    match service.take_outcome(late).expect("flushed") {
        TierOutcome::Reply(reply) => assert!(reply.failed_over, "a dead rack cannot serve"),
        TierOutcome::Failed(err) => panic!("failover path lost the request: {err}"),
    }
    let stats = *service.stats();
    assert_eq!(stats.suspects, 1);
    assert_eq!(stats.replies + stats.failed, stats.submitted);
    assert!(stats.failovers > 0);
}

#[test]
fn rejoining_board_starts_with_a_half_open_breaker() {
    let mut service = tier();
    // Crash: silence trips the rack breaker open (as above).
    service.set_heartbeat_silent(0, true, ms(0));
    service.flush(ms(300));
    assert_eq!(
        service.breaker_state(TierScope::Rack(0)),
        BreakerState::Open
    );
    service.drain_transitions();

    // Rejoin: heartbeats resume and the fleet enters the rack into
    // probation — the breaker must come back half-open, never closed.
    service.set_heartbeat_silent(0, false, ms(400));
    service.begin_rack_probation(0, ms(400));
    assert_eq!(
        service.breaker_state(TierScope::Rack(0)),
        BreakerState::HalfOpen
    );
    let probation = service
        .drain_transitions()
        .into_iter()
        .find(|t| t.scope == TierScope::Rack(0) && t.to == BreakerState::HalfOpen)
        .expect("the probation entry must be traced");
    assert!(probation.probation);
    assert_eq!(probation.from, BreakerState::Open);

    // Let the detector hear a heartbeat again, then send the probe: a
    // successful request through the rejoined rack closes the breaker.
    service.flush(ms(500));
    assert!(!service.suspected(0), "heard heartbeats clear suspicion");
    let probe = service
        .submit(
            tier_request(2),
            ms(510),
            TierSubmit {
                rack: 0,
                client: ClientId::new(2),
                deadline: None,
            },
        )
        .expect("valid request");
    service.flush(ms(700));
    match service.take_outcome(probe).expect("flushed") {
        TierOutcome::Reply(reply) => {
            assert!(!reply.failed_over, "a half-open rack admits its probe");
            assert_eq!(reply.served_by, npu_serve::ServedBy::Rack(0));
        }
        TierOutcome::Failed(err) => panic!("the probe must succeed: {err}"),
    }
    assert_eq!(
        service.breaker_state(TierScope::Rack(0)),
        BreakerState::Closed
    );
    let closes = service
        .drain_transitions()
        .into_iter()
        .filter(|t| t.scope == TierScope::Rack(0))
        .collect::<Vec<_>>();
    assert!(closes
        .iter()
        .any(|t| t.from == BreakerState::HalfOpen && t.to == BreakerState::Closed));
    let stats = *service.stats();
    assert_eq!(stats.recoveries, 1);
    assert_eq!(stats.replies + stats.failed, stats.submitted);
}
