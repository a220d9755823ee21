//! Deterministic fault injection for the NPU / sensor / DVFS stack.
//!
//! Real HiKey 970 deployments see transient failures the idealized
//! simulator never produces: NPU jobs that error out or hang inside the
//! HiAI driver, thermal-sensor glitches (stuck-at registers, dropped
//! samples, impulse noise on the shared I²C bus), and cpufreq transitions
//! that the firmware rejects or applies late. This crate models those as a
//! declarative [`FaultPlan`] executed by a [`FaultInjector`]:
//!
//! * the plan is plain data (seed + per-domain rates) and serializable, so
//!   an experiment's fault schedule is part of its configuration,
//! * the injector draws from **one seeded RNG stream per fault domain**
//!   (NPU / sensor / DVFS), so enabling faults in one domain never
//!   perturbs the schedule of another,
//! * the same seed always reproduces the same fault schedule, and a plan
//!   with all rates at zero draws nothing at all — a zero-fault run is
//!   bit-identical to a run without any injector.
//!
//! # Fault taxonomy
//!
//! Two fault families. **Rate-driven** domains draw per operation from
//! seeded per-domain RNG streams inside [`FaultInjector`]; **timed**
//! fleet faults are barrier-epoch events derived through pure
//! splitmix64 hashes by the [`StormBuilder`] schedule builder, which
//! freezes them into a [`FleetSchedule`].
//!
//! | Fault | Family | Unit | Effect |
//! |---|---|---|---|
//! | [`NpuFault`] | rate | NPU job | device fault / driver hang / latency spike |
//! | [`ServeFault`] | rate | dispatched batch | batch failure (breaker) / slowdown |
//! | sensor (via [`SensorFaultConfig`]) | rate | sample | dropout / stuck-at / noise / spike |
//! | [`DvfsFault`] | rate | V/f transition | reject / late apply |
//! | [`StorageFault`] | rate | checkpoint write | torn write / bit flip |
//! | [`TaskFaultPlan`] | pure per-index | pool task | injected panic |
//! | [`FleetFault::BoardCrash`] / [`FleetFault::BoardRejoin`] | timed | board | leave fleet, drain, restore from checkpoint |
//! | [`FleetFault::RackPartition`] / [`FleetFault::RackHeal`] | timed | rack | rack unreachable from the regional tier |
//! | [`FleetFault::HeartbeatLoss`] / [`FleetFault::HeartbeatRestore`] | timed | rack | failure detector sees silence |
//! | [`FleetFault::TierSlow`] / [`FleetFault::TierRecover`] | timed | regional tier | latency multiplied |
//!
//! # Examples
//!
//! ```
//! use faults::{FaultInjector, FaultPlan, NpuFault};
//!
//! let mut plan = FaultPlan::none(42);
//! plan.npu.failure_rate = 1.0;
//! let mut injector = FaultInjector::new(plan);
//! assert_eq!(injector.npu_job(), NpuFault::DeviceFault);
//! assert_eq!(injector.stats().npu_device_faults, 1);
//! ```

#![warn(missing_docs)]

mod breaker;
mod fleet;
mod injector;
mod plan;
mod storage;

pub use breaker::{BreakerState, CircuitBreaker};
pub use fleet::{FleetFault, FleetFaultEvent, FleetSchedule, StormBuilder};
pub use injector::{DvfsFault, FaultInjector, FaultStats, NpuFault, ServeFault};
pub use plan::{
    DvfsFaultConfig, FaultPlan, NpuFaultConfig, SensorFaultConfig, ServeFaultConfig, TaskFaultPlan,
};
pub use storage::{StorageFault, StorageFaultConfig};
