//! Latency/cycle model of the NPU.

use hmc_types::{Joules, SimDuration, SimTime};

use crate::NpuModel;

/// The NPU device cost model.
///
/// Latency of a batch inference is
///
/// ```text
/// driver_round_trip + weight_dma (first use) + batch · setup
///     + ceil(batch / lanes) · macs / (macs_per_cycle · clock)
/// ```
///
/// For the tiny IL model the driver round-trip dominates, so the latency is
/// nearly **constant in the batch size** — the property the paper exploits
/// to keep migration overhead flat in the number of applications (Fig. 11).
///
/// # Examples
///
/// ```
/// use npu::NpuDevice;
/// let dev = NpuDevice::kirin970();
/// assert!(dev.clock_hz() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NpuDevice {
    clock_hz: f64,
    macs_per_cycle: f64,
    /// Parallel inference lanes (batch dimension executed concurrently).
    lanes: usize,
    /// Driver/ioctl round-trip per job, in nanoseconds.
    driver_ns: u64,
    /// Per-sample input/output DMA and descriptor setup, in nanoseconds.
    per_sample_ns: u64,
    /// One-time weight upload bandwidth, bytes per second.
    dma_bytes_per_sec: f64,
    /// Power draw while actively computing, in watts.
    active_power_w: f64,
    /// Energy of the driver/controller path per job, in joules.
    job_overhead_j: f64,
}

impl NpuDevice {
    /// The Kirin 970 NPU (≈1.92 TFLOPS fp16; modelled as 960 MACs/cycle at
    /// 1 GHz) behind the HiAI driver, whose user-space round trip is the
    /// dominant cost for small models.
    pub fn kirin970() -> Self {
        NpuDevice {
            clock_hz: 1.0e9,
            macs_per_cycle: 960.0,
            lanes: 8,
            driver_ns: 3_900_000, // ~3.9 ms ioctl + scheduling round trip
            per_sample_ns: 18_000,
            dma_bytes_per_sec: 2.0e9,
            active_power_w: 2.0,
            job_overhead_j: 0.004,
        }
    }

    /// NPU core clock in Hz.
    pub fn clock_hz(&self) -> f64 {
        self.clock_hz
    }

    /// Time to upload a model's weights to NPU SRAM (paid once at load).
    pub fn load_latency(&self, model: &NpuModel) -> SimDuration {
        let secs = model.weight_bytes() as f64 / self.dma_bytes_per_sec;
        SimDuration::from_secs_f64(secs) + SimDuration::from_nanos(self.driver_ns)
    }

    /// End-to-end latency of one batch inference job.
    pub fn inference_latency(&self, model: &NpuModel, batch: usize) -> SimDuration {
        if batch == 0 {
            return SimDuration::ZERO;
        }
        let waves = batch.div_ceil(self.lanes);
        let compute_s = waves as f64 * model.macs() as f64 / (self.macs_per_cycle * self.clock_hz);
        SimDuration::from_nanos(self.driver_ns)
            + SimDuration::from_nanos(self.per_sample_ns * batch as u64)
            + SimDuration::from_secs_f64(compute_s)
    }

    /// Energy the NPU consumes for one batch inference job: active
    /// compute energy plus the controller/DMA overhead. The tiny IL model
    /// computes in microseconds, so the per-job overhead dominates — yet
    /// the total stays far below what a CPU core would burn over its much
    /// longer inference (the accelerator-efficiency argument the paper
    /// builds on).
    pub fn inference_energy(&self, model: &NpuModel, batch: usize) -> Joules {
        if batch == 0 {
            return Joules::ZERO;
        }
        let waves = batch.div_ceil(self.lanes);
        let compute_s = waves as f64 * model.macs() as f64 / (self.macs_per_cycle * self.clock_hz);
        Joules::new(self.job_overhead_j + self.active_power_w * compute_s)
    }

    /// The CPU time the host spends on a job (submit + completion
    /// handling); the rest of the latency is asynchronous NPU time, which
    /// is why the paper's call is non-blocking.
    pub fn host_cpu_time(&self, batch: usize) -> SimDuration {
        if batch == 0 {
            return SimDuration::ZERO;
        }
        // Driver submit/ioctl path plus per-sample marshalling.
        SimDuration::from_nanos(self.driver_ns / 2 + self.per_sample_ns * batch as u64 / 2)
    }
}

impl Default for NpuDevice {
    fn default() -> Self {
        NpuDevice::kirin970()
    }
}

/// Occupancy bookkeeping for one pooled NPU device.
///
/// The single-board [`HiaiClient`](crate::HiaiClient) assumes a dedicated
/// device (each job completes `latency` after submission regardless of
/// overlap). A shared serving pool must model contention: a batch
/// dispatched while the device is still executing the previous one queues
/// behind it. `Occupancy` tracks the device's `busy_until` horizon and
/// accumulates busy time for utilization reporting.
///
/// # Examples
///
/// ```
/// use hmc_types::{SimDuration, SimTime};
/// use npu::Occupancy;
///
/// let mut occ = Occupancy::new();
/// let (start, end) = occ.reserve(SimTime::ZERO, SimDuration::from_millis(4));
/// assert_eq!(start, SimTime::ZERO);
/// // A second job dispatched immediately queues behind the first.
/// let (start2, _) = occ.reserve(SimTime::ZERO, SimDuration::from_millis(4));
/// assert_eq!(start2, end);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Occupancy {
    busy_until: SimTime,
    busy_time: SimDuration,
    jobs: u64,
}

impl Occupancy {
    /// A fresh, idle device.
    pub fn new() -> Self {
        Occupancy::default()
    }

    /// The instant the device next becomes free.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// When a job dispatched at `now` could start on this device.
    pub fn next_start(&self, now: SimTime) -> SimTime {
        self.busy_until.max(now)
    }

    /// Reserves the device for a job of `duration` dispatched at `now`:
    /// returns its `(start, completion)` instants and advances the busy
    /// horizon to the completion.
    pub fn reserve(&mut self, now: SimTime, duration: SimDuration) -> (SimTime, SimTime) {
        let start = self.next_start(now);
        let end = start + duration;
        self.busy_until = end;
        self.busy_time += duration;
        self.jobs += 1;
        (start, end)
    }

    /// Total busy time accumulated across all reserved jobs.
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }

    /// Jobs reserved so far.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn::Mlp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> NpuModel {
        let mlp = Mlp::with_topology(21, 4, 64, 8, &mut StdRng::seed_from_u64(1));
        NpuModel::compile(&mlp)
    }

    #[test]
    fn latency_nearly_constant_in_batch() {
        let dev = NpuDevice::kirin970();
        let m = model();
        let one = dev.inference_latency(&m, 1);
        let sixteen = dev.inference_latency(&m, 16);
        // Paper's Fig. 11: overhead "barely changes" with more apps.
        let growth = sixteen.as_secs_f64() / one.as_secs_f64();
        assert!(
            growth < 1.15,
            "batch-16 latency grew {growth}x over batch-1"
        );
    }

    #[test]
    fn latency_in_papers_range() {
        // The paper reports 4.3 ms per migration invocation (dominated by
        // the inference).
        let dev = NpuDevice::kirin970();
        let m = model();
        let lat = dev.inference_latency(&m, 8);
        let ms = lat.as_secs_f64() * 1e3;
        assert!((3.0..6.0).contains(&ms), "latency {ms} ms out of range");
    }

    #[test]
    fn zero_batch_is_free() {
        let dev = NpuDevice::kirin970();
        assert_eq!(dev.inference_latency(&model(), 0), SimDuration::ZERO);
        assert_eq!(dev.host_cpu_time(0), SimDuration::ZERO);
    }

    #[test]
    fn host_time_below_total_latency() {
        let dev = NpuDevice::kirin970();
        let m = model();
        for batch in [1, 4, 16] {
            assert!(dev.host_cpu_time(batch) < dev.inference_latency(&m, batch));
        }
    }

    #[test]
    fn inference_energy_beats_cpu_core() {
        let dev = NpuDevice::kirin970();
        let m = model();
        let batch = 16;
        let npu_j = dev.inference_energy(&m, batch).value();
        // A Cortex-A73 at ~2 W running the CPU inference for its latency.
        let cpu = crate::CpuInference::cortex_a73();
        let cpu_j = 2.0 * cpu.latency(m.macs(), batch).as_secs_f64();
        assert!(npu_j > 0.0);
        assert!(
            npu_j < cpu_j,
            "NPU inference should be cheaper: {npu_j} J vs {cpu_j} J"
        );
        assert_eq!(dev.inference_energy(&m, 0).value(), 0.0);
    }

    #[test]
    fn occupancy_serializes_overlapping_jobs() {
        let mut occ = Occupancy::new();
        let ms = SimDuration::from_millis;
        // First job at t=0 runs [0, 4ms).
        let (s1, e1) = occ.reserve(SimTime::ZERO, ms(4));
        assert_eq!(s1, SimTime::ZERO);
        assert_eq!(e1, SimTime::ZERO + ms(4));
        // Second job dispatched at t=1ms queues behind the first.
        let (s2, e2) = occ.reserve(SimTime::ZERO + ms(1), ms(4));
        assert_eq!(s2, e1);
        assert_eq!(e2, e1 + ms(4));
        // A job dispatched after the device drained starts immediately.
        let idle_at = e2 + ms(10);
        let (s3, _) = occ.reserve(idle_at, ms(2));
        assert_eq!(s3, idle_at);
        assert_eq!(occ.jobs(), 3);
        assert_eq!(occ.busy_time(), ms(10));
        assert_eq!(occ.busy_until(), idle_at + ms(2));
    }

    #[test]
    fn idle_occupancy_starts_now() {
        let occ = Occupancy::new();
        let t = SimTime::ZERO + SimDuration::from_secs(3);
        assert_eq!(occ.next_start(t), t);
        assert_eq!(occ.busy_time(), SimDuration::ZERO);
        assert_eq!(occ.jobs(), 0);
    }

    #[test]
    fn load_latency_scales_with_weights() {
        let dev = NpuDevice::kirin970();
        let small = NpuModel::compile(&Mlp::with_topology(
            21,
            1,
            8,
            8,
            &mut StdRng::seed_from_u64(2),
        ));
        let big = model();
        assert!(dev.load_latency(&big) >= dev.load_latency(&small));
    }
}
