//! Golden-trace regression suite: every governor runs the same fixed
//! workload under full-granularity tracing, and the resulting trace hash
//! must match the committed fixture in `tests/golden/`.
//!
//! Regenerate fixtures after an intentional behavior change with:
//!
//! ```text
//! BLESS=1 cargo test --test golden_traces
//! ```
//!
//! Fixtures of RNG-sensitive governors (TOP-IL trains a network, TOP-RL
//! explores ε-greedily) additionally record the `StdRng` stream
//! fingerprint they were blessed under and are skipped — with a notice —
//! under a different stream, so they stay portable across the offline
//! stub RNG and the real dependency.

mod common;

use common::{check_golden, golden_sim, golden_workload, quick_model};
use top_il::prelude::*;
use top_il::topil::oracle_governor::OracleGovernor;
use top_il::topil::RobustnessConfig;

#[test]
fn golden_trace_topil() {
    check_golden("topil", true, || {
        let mut governor = TopIlGovernor::new(quick_model(0));
        Simulator::new(golden_sim()).run(&golden_workload(), &mut governor)
    });
}

/// The TOP-IL fixture run under NPU failures, hangs and latency spikes
/// plus sensor dropout: pins the degradation ladder's retries, breaker,
/// half-open resets and CPU fallback, as the fault-free fixture cannot.
#[test]
fn golden_trace_topil_faults() {
    check_golden("topil_faults", true, || {
        let mut governor = TopIlGovernor::new(quick_model(0)).with_fault_plan(golden_faults());
        let sim = SimConfig {
            fault_plan: Some(golden_faults()),
            ..golden_sim()
        };
        Simulator::new(sim).run(&golden_workload(), &mut governor)
    });
}

/// The same faults with every mitigation off: one attempt per epoch, no
/// breaker (a lost device stays lost), no CPU fallback and no sensor
/// filter.
#[test]
fn golden_trace_topil_faults_unguarded() {
    check_golden("topil_faults_unguarded", true, || {
        let mut governor = TopIlGovernor::new(quick_model(0))
            .with_fault_plan(golden_faults())
            .with_robustness(RobustnessConfig::Disabled);
        let sim = SimConfig {
            fault_plan: Some(golden_faults()),
            sensor_filter: None,
            ..golden_sim()
        };
        Simulator::new(sim).run(&golden_workload(), &mut governor)
    });
}

/// The fault plan of the two fault fixtures.
fn golden_faults() -> FaultPlan {
    let mut plan = FaultPlan::none(0x60_1D);
    plan.npu.failure_rate = 0.1;
    plan.npu.timeout_rate = 0.1;
    plan.npu.latency_spike_rate = 0.2;
    plan.npu.latency_spike_factor = 5.0;
    plan.sensor.dropout_rate = 0.1;
    plan
}

#[test]
fn golden_trace_toprl() {
    check_golden("toprl", true, || {
        let mut governor = TopRlGovernor::new(7);
        Simulator::new(golden_sim()).run(&golden_workload(), &mut governor)
    });
}

#[test]
fn golden_trace_gts_ondemand() {
    check_golden("gts_ondemand", false, || {
        let mut governor = LinuxGovernor::gts_ondemand();
        Simulator::new(golden_sim()).run(&golden_workload(), &mut governor)
    });
}

#[test]
fn golden_trace_gts_powersave() {
    check_golden("gts_powersave", false, || {
        let mut governor = LinuxGovernor::gts_powersave();
        Simulator::new(golden_sim()).run(&golden_workload(), &mut governor)
    });
}

#[test]
fn golden_trace_oracle() {
    check_golden("oracle", false, || {
        let mut governor = OracleGovernor::new(Cooling::fan());
        Simulator::new(golden_sim()).run(&golden_workload(), &mut governor)
    });
}

/// Kernel differential: the TOP-IL fixture run repeated with the scalar
/// reference kernel forced must produce the identical FNV-64 trace
/// stream — every decision, logit and migration bit-for-bit. A kernel
/// change that drifts outputs fails here, with a first-divergence diff,
/// instead of surfacing as an opaque hash mismatch in the ci.sh edge
/// gate.
#[test]
fn golden_trace_topil_is_kernel_invariant() {
    let model = quick_model(0);
    let run = |kernel: top_il::npu::KernelMode| {
        let mut governor = TopIlGovernor::new(model.clone()).with_kernel(kernel);
        Simulator::new(golden_sim()).run(&golden_workload(), &mut governor)
    };
    let vectorized = run(top_il::npu::KernelMode::Vectorized);
    let scalar = run(top_il::npu::KernelMode::Scalar);
    let vec_log = vectorized.events.as_ref().expect("tracing enabled");
    let sca_log = scalar.events.as_ref().expect("tracing enabled");
    assert_eq!(vec_log.emitted, sca_log.emitted, "event counts diverged");
    if vec_log.hash != sca_log.hash {
        let diff = top_il::trace::TraceDiff::new(vec_log, sca_log);
        panic!(
            "scalar and vectorized kernels produced different traces:\n{}",
            diff.report()
        );
    }
}
