//! **TOP-IL** — the paper's primary contribution: NPU-accelerated
//! imitation learning for thermal optimization of QoS-constrained
//! heterogeneous multi-cores.
//!
//! The crate is organized along the paper's sections:
//!
//! * [`features`] — the 21-dimensional feature vector of Table 2,
//! * [`oracle`] — design-time trace collection and training-data
//!   extraction with soft labels (Eq. 4),
//! * [`training`] — the IL model (NN + standardizer), its training
//!   pipeline and the NAS grid search (Fig. 3),
//! * [`dvfs`] — the run-time per-cluster DVFS control loop (§5.2, Eq. 1),
//! * [`migration`] — the run-time migration policy with batched NPU
//!   inference (§5.1, Eq. 5),
//! * [`governor`] — the integrated [`TopIlGovernor`] implementing
//!   [`hikey_platform::Policy`],
//! * [`eval`] — isolated model evaluation (§7.4: fraction of decisions
//!   within 1 °C of the optimum).
//!
//! # Examples
//!
//! Train a small model on synthetic oracle data and run the governor:
//!
//! ```
//! use topil::oracle::Scenario;
//! use topil::training::{IlTrainer, TrainSettings};
//! use topil::TopIlGovernor;
//! use hikey_platform::{SimConfig, Simulator};
//! use hmc_types::SimDuration;
//! use workloads::{Benchmark, QosSpec, Workload};
//!
//! let scenarios = Scenario::standard_set(4, 7);
//! let mut settings = TrainSettings::default();
//! settings.nn.max_epochs = 30;
//! let model = IlTrainer::new(settings).train(&scenarios, 1);
//!
//! let mut governor = TopIlGovernor::new(model);
//! let config = SimConfig { max_duration: SimDuration::from_secs(2), ..SimConfig::default() };
//! let workload = Workload::single(Benchmark::Adi, QosSpec::FractionOfMaxBig(0.3));
//! let report = Simulator::new(config).run(&workload, &mut governor);
//! assert!(report.metrics.outcomes().len() == 1);
//! ```

#![warn(missing_docs)]

pub mod ckpt;
pub mod dvfs;
pub mod eval;
pub mod features;
pub mod governor;
pub mod migration;
pub mod oracle;
pub mod oracle_governor;
pub mod training;
mod util;

pub use ckpt::{AggregationBuffer, CheckpointedTrainOutcome, CkptConfig, IlTrainCheckpoint};
pub use features::{Features, FEATURE_COUNT};
pub use governor::{GovernorStats, TopIlGovernor};
pub use migration::{
    BreakerState, ClientJob, ClientReply, DedicatedNpuClient, InferenceBackend, MigrationPolicy,
    PreparedEpoch, RobustnessConfig,
};
pub use training::IlModel;
pub use util::estimate_min_level;
