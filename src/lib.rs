//! # TOP-IL — reproduction of "NPU-Accelerated Imitation Learning for
//! Thermal Optimization of QoS-Constrained Heterogeneous Multi-Cores"
//!
//! This umbrella crate re-exports the whole stack:
//!
//! | crate | contents |
//! |---|---|
//! | [`types`] | shared strong types (frequencies, temperatures, IDs, time) |
//! | [`faults`] | deterministic NPU / sensor / DVFS fault injection |
//! | [`thermal`] | RC thermal network of the HiKey 970 SoC |
//! | [`workloads`] | synthetic PARSEC/Polybench models + workload generators |
//! | [`platform`] | full-system big.LITTLE simulator (DVFS, DTM, counters) |
//! | [`nn`] | from-scratch MLP + Adam + NAS |
//! | [`npu`] | Kirin 970 NPU device model: int8 models, batch latency, a board's own NPU |
//! | [`topil`] | the paper's contribution: IL migration + DVFS governor |
//! | [`toprl`] | the multi-agent Q-learning baseline |
//! | [`governors`] | GTS/ondemand and GTS/powersave baselines |
//! | [`trace`] | structured epoch-level event tracing + golden-run hashing |
//! | [`par`] | deterministic parallel execution (ordered map / tree reduction) |
//!
//! # Quickstart
//!
//! ```
//! use top_il::prelude::*;
//!
//! // 1. Design time: collect oracle demonstrations and train the model.
//! let scenarios = Scenario::standard_set(4, 7);
//! let mut settings = TrainSettings::default();
//! settings.nn.max_epochs = 20; // keep the doctest fast
//! let model = IlTrainer::new(settings).train(&scenarios, 0);
//!
//! // 2. Run time: let the governor manage a workload.
//! let workload = Workload::single(Benchmark::Adi, QosSpec::FractionOfMaxBig(0.3));
//! let config = SimConfig { max_duration: SimDuration::from_secs(2), ..SimConfig::default() };
//! let report = Simulator::new(config).run(&workload, &mut TopIlGovernor::new(model));
//! assert_eq!(report.policy, "TOP-IL");
//! ```

pub use faults;
pub use governors;
pub use hikey_platform as platform;
pub use hmc_types as types;
pub use nn;
pub use npu;
pub use par;
pub use sim_core;
pub use thermal;
pub use topil;
pub use toprl;
pub use trace;
pub use workloads;

/// The most common imports for working with the stack.
pub mod prelude {
    pub use faults::{FaultInjector, FaultPlan};
    pub use governors::LinuxGovernor;
    pub use hikey_platform::{
        AppOutcome, Platform, PlatformConfig, Policy, RunMetrics, RunReport, SimConfig, Simulator,
    };
    pub use hmc_types::{
        AppId, Celsius, Cluster, CoreId, Frequency, Ips, QosTarget, SimDuration, SimTime, Watts,
    };
    pub use thermal::{Cooling, SocThermal};
    pub use topil::oracle::{Scenario, TraceCollector};
    pub use topil::training::{IlModel, IlTrainer, TrainSettings};
    pub use topil::TopIlGovernor;
    pub use toprl::TopRlGovernor;
    pub use trace::{TraceConfig, TraceDiff, TraceEvent, TraceGranularity, TraceHash, TraceLog};
    pub use workloads::{Benchmark, MixedWorkloadConfig, QosSpec, Workload, WorkloadGenerator};
}
