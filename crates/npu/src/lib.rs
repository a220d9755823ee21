//! Device model of the Kirin 970 NPU with a HiAI-DDK-shaped API.
//!
//! The paper accelerates the IL model's batch inference on the HiKey 970's
//! NPU through the *HiAI DDK* (a non-blocking user-space driver). Neither
//! the silicon nor the proprietary DDK is available here, so this crate
//! substitutes both:
//!
//! * [`NpuModel`] — an offline-"compiled" network: int8-quantized weights
//!   per layer (symmetric per-tensor scales), executed in integer
//!   arithmetic with float rescaling, reproducing realistic quantization
//!   error,
//! * [`NpuDevice`] — a cycle-cost model (MACs/cycle, DMA setup, driver
//!   round-trip) whose key property matches the paper's measurement: batch
//!   inference latency is **nearly constant in the batch size**, because
//!   the driver round-trip dominates the tiny per-sample compute,
//! * [`HiaiClient`] — the DDK-shaped non-blocking submit/poll interface
//!   used by the TOP-IL migration policy, plus a [`CpuInference`] cost
//!   model for the no-NPU ablation (linear in batch size).
//!
//! # Examples
//!
//! ```
//! use nn::{Matrix, Mlp};
//! use npu::{HiaiClient, NpuDevice};
//! use hmc_types::SimTime;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mlp = Mlp::with_topology(21, 4, 64, 8, &mut rng);
//! let mut client = HiaiClient::load(NpuDevice::kirin970(), &mlp);
//!
//! let batch = Matrix::from_rows(vec![vec![0.1; 21], vec![-0.1; 21]]);
//! let job = client.submit(&batch, SimTime::ZERO);
//! let done = client.wait(job);
//! assert_eq!(done.output.rows(), 2);
//! ```

#![warn(missing_docs)]

mod cache;
mod ddk;
mod device;
mod error;
mod model;
mod quant;

pub use cache::{CacheKey, CacheStats, PolicyCache};
pub use ddk::{CompletedJob, CpuInference, HiaiClient, JobHandle, JobRecord, JobStatus};
pub use device::{NpuDevice, Occupancy};
pub use error::NpuError;
pub use model::{InferScratch, NpuModel};
pub use nn::kernel::KernelMode;
pub use quant::QuantizedTensor;
