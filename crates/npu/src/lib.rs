//! Device model of the Kirin 970 NPU.
//!
//! The paper accelerates the IL model's batch inference on the HiKey 970's
//! NPU through the *HiAI DDK* (a non-blocking user-space driver). Neither
//! the silicon nor the proprietary DDK is available here, so this crate
//! substitutes both:
//!
//! * [`NpuModel`] — an offline-"compiled" network: int8-quantized weights
//!   per layer (symmetric per-tensor scales), executed in integer
//!   arithmetic with float rescaling, reproducing realistic quantization
//!   error. It has one inference path, [`NpuModel::infer_groups`], over
//!   prequantized groups of rows, and [`NpuModel::infer`] runs a whole
//!   batch through it as one group,
//! * [`NpuDevice`] — a cycle-cost model (MACs/cycle, DMA setup, driver
//!   round-trip) whose key property matches the paper's measurement: batch
//!   inference latency is **nearly constant in the batch size**, because
//!   the driver round-trip dominates the tiny per-sample compute,
//! * [`DedicatedNpu`] — a board's own NPU with the model loaded: one
//!   synchronous call per job, resolved against the caller's deadline,
//!   with injected device faults, hangs and latency spikes. It backs the
//!   TOP-IL governor's NPU client; plus a [`CpuInference`] cost model for
//!   the no-NPU ablation (linear in batch size).
//!
//! The DDK's non-blocking submit/redeem shape lives in the shared serving
//! path (the `npu-serve` crate), where requests of many boards overlap.
//!
//! # Examples
//!
//! ```
//! use hmc_types::SimDuration;
//! use nn::{Matrix, Mlp};
//! use npu::{DedicatedNpu, NpuDevice};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mlp = Mlp::with_topology(21, 4, 64, 8, &mut rng);
//! let mut npu = DedicatedNpu::load(NpuDevice::kirin970(), &mlp);
//!
//! let batch = Matrix::from_rows(vec![vec![0.1; 21], vec![-0.1; 21]]);
//! let job = npu.run(&batch, SimDuration::from_millis(30));
//! assert_eq!(job.output.expect("fault-free").rows(), 2);
//! ```

#![warn(missing_docs)]

mod cache;
mod device;
mod error;
mod model;

pub use cache::{CacheKey, CacheStats, PolicyCache};
pub use device::{CpuInference, DedicatedNpu, DeviceJob, NpuDevice, Occupancy};
pub use error::NpuError;
pub use model::{InferScratch, NpuModel};
pub use nn::kernel::KernelMode;
