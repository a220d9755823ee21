//! Latency/cycle model of the NPU, a board's own NPU, and the CPU
//! inference it is compared against.

use faults::{FaultInjector, NpuFault};
use hmc_types::{Joules, SimDuration, SimTime};
use nn::kernel::KernelMode;
use nn::{Matrix, Mlp};

use crate::{NpuError, NpuModel};

/// How long a hung job stays in the driver before the driver itself
/// reports a timeout. Callers impose their own, much shorter deadlines.
const DRIVER_HANG_TIMEOUT: SimDuration = SimDuration::from_secs(3600);

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
/// A board's [`DedicatedNpu`] assumes a dedicated
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

/// One job on a board's [`DedicatedNpu`], resolved against the caller's
/// deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceJob {
    /// Model outputs (one row per input sample), or why the job failed.
    pub output: Result<Matrix, NpuError>,
    /// Time from submission to the outcome: the device latency when the
    /// job resolved in time, the caller's deadline when it did not.
    pub latency: SimDuration,
    /// Host CPU time of the submit and completion path; the rest of the
    /// latency ran on the NPU.
    pub host_cpu_time: SimDuration,
}

/// A board's own NPU with one model loaded. Each job is one synchronous
/// call that resolves against the caller's deadline.
///
/// An optional [`FaultInjector`] draws a fate for every job that reaches
/// the device: a device fault (the device then fails every job until
/// [`Self::reset`]), a hang (the job resolves at the caller's deadline) or
/// a latency spike. Without one the device is fault-free.
///
/// # Examples
///
/// ```
/// use hmc_types::SimDuration;
/// use nn::{Matrix, Mlp};
/// use npu::{DedicatedNpu, NpuDevice};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mlp = Mlp::with_topology(21, 4, 64, 8, &mut StdRng::seed_from_u64(0));
/// let mut npu = DedicatedNpu::load(NpuDevice::kirin970(), &mlp);
/// let batch = Matrix::from_rows(vec![vec![0.1; 21], vec![-0.1; 21]]);
/// let job = npu.run(&batch, SimDuration::from_millis(30));
/// assert_eq!(job.output.expect("fault-free").rows(), 2);
/// assert!(job.host_cpu_time < job.latency);
/// ```
#[derive(Debug, Clone)]
pub struct DedicatedNpu {
    device: NpuDevice,
    model: NpuModel,
    /// Numeric kernel running the jobs (bit-identical either way;
    /// selectable for differential testing).
    kernel: KernelMode,
    injector: Option<FaultInjector>,
    /// Set by a device fault; every job fails until [`Self::reset`].
    lost: bool,
}

impl DedicatedNpu {
    /// Compiles and loads `mlp` onto the device.
    pub fn load(device: NpuDevice, mlp: &Mlp) -> Self {
        DedicatedNpu {
            device,
            model: NpuModel::compile(mlp),
            kernel: KernelMode::default(),
            injector: None,
            lost: false,
        }
    }

    /// Attaches a fault injector deciding the fate of every job.
    pub fn with_injector(mut self, injector: FaultInjector) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Selects the numeric kernel. Outputs are bit-identical across modes;
    /// `Scalar` forces the reference loop for differential runs.
    pub fn with_kernel(mut self, kernel: KernelMode) -> Self {
        self.kernel = kernel;
        self
    }

    /// Resets the device after a fault and reloads the model.
    pub fn reset(&mut self) {
        self.lost = false;
    }

    /// Runs one batch with a deadline of `timeout` after submission.
    ///
    /// While the device is lost the job fails with
    /// [`NpuError::ModelNotLoaded`] after the host round trip, and no
    /// fate is drawn. A job still running at the deadline fails with
    /// [`NpuError::Timeout`] and reports the deadline as its latency.
    pub fn run(&mut self, batch: &Matrix, timeout: SimDuration) -> DeviceJob {
        let host_cpu_time = self.device.host_cpu_time(batch.rows());
        let mut latency = self.device.inference_latency(&self.model, batch.rows());
        let mut fate = Ok(());
        if self.lost {
            // The driver notices the dead device within the host round trip.
            fate = Err(NpuError::ModelNotLoaded);
            latency = host_cpu_time;
        } else if let Some(injector) = &mut self.injector {
            match injector.npu_job() {
                NpuFault::None => {}
                NpuFault::DeviceFault => {
                    fate = Err(NpuError::DeviceFault);
                    self.lost = true;
                }
                NpuFault::Timeout => {
                    fate = Err(NpuError::Timeout);
                    latency = DRIVER_HANG_TIMEOUT;
                }
                NpuFault::LatencySpike(factor) => {
                    latency = SimDuration::from_secs_f64(latency.as_secs_f64() * factor);
                }
            }
        }
        if latency > timeout {
            return DeviceJob {
                output: Err(NpuError::Timeout),
                latency: timeout,
                host_cpu_time,
            };
        }
        DeviceJob {
            output: fate.map(|()| self.model.infer(batch, self.kernel)),
            latency,
            host_cpu_time,
        }
    }
}

/// Cost model for running the same inference on a CPU core instead of the
/// NPU — the ablation behind the paper's claim that the NPU keeps the
/// migration overhead constant.
///
/// # Examples
///
/// ```
/// use npu::CpuInference;
/// let cpu = CpuInference::cortex_a73();
/// let one = cpu.latency(14_000, 1);
/// let many = cpu.latency(14_000, 16);
/// assert!(many > one * 4); // grows with batch, unlike the NPU
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuInference {
    /// Sustained multiply-accumulate rate, MACs per second.
    macs_per_sec: f64,
    /// Fixed per-invocation overhead.
    fixed: SimDuration,
}

impl CpuInference {
    /// A Cortex-A73 core running scalar f32 inference.
    pub fn cortex_a73() -> Self {
        CpuInference {
            macs_per_sec: 6.0e7,
            fixed: SimDuration::from_micros(300),
        }
    }

    /// Latency of inferring `batch` samples of a model with `macs`
    /// multiply-accumulates per sample.
    pub fn latency(&self, macs: usize, batch: usize) -> SimDuration {
        if batch == 0 {
            return SimDuration::ZERO;
        }
        let compute = SimDuration::from_secs_f64(macs as f64 * batch as f64 / self.macs_per_sec);
        self.fixed + compute
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faults::FaultPlan;
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
        let cpu = CpuInference::cortex_a73();
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

    fn fault_free() -> DedicatedNpu {
        let mlp = Mlp::with_topology(21, 4, 64, 8, &mut StdRng::seed_from_u64(3));
        DedicatedNpu::load(NpuDevice::kirin970(), &mlp)
    }

    fn faulty_npu(configure: impl FnOnce(&mut FaultPlan)) -> DedicatedNpu {
        let mut plan = FaultPlan::none(5);
        configure(&mut plan);
        fault_free().with_injector(FaultInjector::new(plan))
    }

    const DEADLINE: SimDuration = SimDuration::from_millis(30);

    #[test]
    fn outputs_match_direct_model_inference() {
        let mlp = Mlp::with_topology(21, 2, 16, 8, &mut StdRng::seed_from_u64(4));
        let mut npu = DedicatedNpu::load(NpuDevice::kirin970(), &mlp);
        let batch = Matrix::from_rows(vec![vec![0.25; 21]]);
        let job = npu.run(&batch, DEADLINE);
        let compiled = NpuModel::compile(&mlp);
        assert_eq!(
            job.output,
            Ok(compiled.infer(&batch, KernelMode::default()))
        );
        let dev = NpuDevice::kirin970();
        assert_eq!(job.latency, dev.inference_latency(&compiled, 1));
        assert_eq!(job.host_cpu_time, dev.host_cpu_time(1));
    }

    #[test]
    fn cpu_inference_linear_in_batch() {
        let cpu = CpuInference::cortex_a73();
        let macs = 14_000;
        let l1 = cpu.latency(macs, 1).as_secs_f64();
        let l16 = cpu.latency(macs, 16).as_secs_f64();
        assert!(l16 > 8.0 * l1 * 0.5, "should grow with batch");
        assert_eq!(cpu.latency(macs, 0), SimDuration::ZERO);
    }

    #[test]
    fn device_loss_persists_until_the_reset() {
        let mut npu = faulty_npu(|p| p.npu.failure_rate = 1.0);
        let batch = Matrix::from_rows(vec![vec![0.1; 21]]);
        let fault = npu.run(&batch, DEADLINE);
        assert_eq!(fault.output, Err(NpuError::DeviceFault));
        let healthy = fault_free().run(&batch, DEADLINE);
        assert_eq!(fault.latency, healthy.latency, "a fault resolves in time");
        // Every later job fails fast, after the host round trip.
        for _ in 0..3 {
            let lost = npu.run(&batch, DEADLINE);
            assert_eq!(lost.output, Err(NpuError::ModelNotLoaded));
            assert_eq!(lost.latency, lost.host_cpu_time);
        }
        // After the reset jobs reach the device again and draw a fate
        // (with rate 1.0, another device fault).
        npu.reset();
        assert_eq!(npu.run(&batch, DEADLINE).output, Err(NpuError::DeviceFault));
    }

    #[test]
    fn a_hang_resolves_at_the_deadline_and_is_not_a_loss() {
        let mut npu = faulty_npu(|p| p.npu.timeout_rate = 1.0);
        let batch = Matrix::from_rows(vec![vec![0.1; 21]; 3]);
        for deadline in [DEADLINE, SimDuration::from_millis(250)] {
            let hung = npu.run(&batch, deadline);
            // The job's record carries the caller's deadline, and the next
            // job still reaches the device (it hangs again, rate 1.0).
            assert_eq!(hung.output, Err(NpuError::Timeout));
            assert_eq!(hung.latency, deadline);
        }
    }

    #[test]
    fn a_deadline_before_the_latency_times_out_a_healthy_job() {
        let mut npu = fault_free();
        let batch = Matrix::from_rows(vec![vec![0.1; 21]; 2]);
        let early = SimDuration::from_millis(1);
        let job = npu.run(&batch, early);
        assert_eq!(job.output, Err(NpuError::Timeout));
        assert_eq!(job.latency, early);
        assert!(npu.run(&batch, DEADLINE).output.is_ok(), "not a loss");
    }

    #[test]
    fn latency_spike_inflates_latency_only() {
        let mut plain = fault_free();
        let mut spiky = faulty_npu(|p| {
            p.npu.latency_spike_rate = 1.0;
            p.npu.latency_spike_factor = 10.0;
        });
        let batch = Matrix::from_rows(vec![vec![0.1; 21]; 4]);
        let normal = plain.run(&batch, DEADLINE);
        let spiked = spiky.run(&batch, SimDuration::from_secs(10));
        assert_eq!(spiked.output, normal.output, "results are unaffected");
        assert_eq!(spiked.host_cpu_time, normal.host_cpu_time);
        let ratio = spiked.latency.as_secs_f64() / normal.latency.as_secs_f64();
        assert!((ratio - 10.0).abs() < 1e-9, "latency x{ratio}");
        // Past the caller's deadline the spiked job times out there.
        let late = spiky.run(&batch, DEADLINE);
        assert_eq!(late.output, Err(NpuError::Timeout));
        assert_eq!(late.latency, DEADLINE);
    }

    #[test]
    fn zero_fault_injector_is_transparent() {
        let mut plain = fault_free();
        let mut injected = faulty_npu(|_| {});
        let batch = Matrix::from_rows(vec![vec![0.3; 21]; 3]);
        for _ in 0..3 {
            assert_eq!(plain.run(&batch, DEADLINE), injected.run(&batch, DEADLINE));
        }
    }
}
