//! The run-time migration policy with batched NPU inference (§5.1).
//!
//! Every 500 ms the policy treats **each** running application as the AoI
//! once, builds the 21-feature vector per AoI, and submits the whole batch
//! to the NPU in a single job (the device's parallelism makes the latency
//! independent of the application count — Fig. 11). The inference output
//! is the rating matrix `l̃_{k,c}`; the executed migration maximizes the
//! improvement over the current mapping (Eq. 5):
//!
//! ```text
//! k̂, ĉ = argmax_{k, c} ( l̃_{k,c} − l̃_{k,c(k)} )
//! ```
//!
//! Only one application migrates per epoch, which keeps the action space
//! tractable and the thermal effect attributable.

use std::sync::Arc;

use faults::FaultInjector;
pub use faults::{BreakerState, CircuitBreaker};
use hikey_platform::Platform;
use hmc_types::{AppId, CoreId, SimDuration, SimTime};
use nn::Matrix;
use npu::{CpuInference, HiaiClient, NpuDevice};
use trace::{FaultKind, TraceBackend, TraceEvent};

use crate::features::Features;
use crate::training::IlModel;

/// Per-application cost of building the feature vector.
const FEATURE_COST_PER_APP: SimDuration = SimDuration::from_micros(25);

/// Default minimum predicted rating improvement required to execute a
/// migration. With the soft labels of Eq. 4, a rating gap of 0.1
/// corresponds to a predicted temperature difference of ≈0.1 K — below
/// that, migrating would churn between equal-quality mappings (the paper
/// tolerates near-equal mappings by design: "several mappings result in a
/// very close temperature").
pub const DEFAULT_IMPROVEMENT_THRESHOLD: f32 = 0.1;

/// Where the batched inference executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InferenceBackend {
    /// The NPU via the (simulated) HiAI DDK — the paper's configuration.
    Npu,
    /// A CPU core — the ablation whose overhead grows with the number of
    /// applications.
    Cpu,
}

/// Configuration of the NPU retry / circuit-breaker degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RobustnessConfig {
    /// Maximum inference attempts per epoch (first try + retries).
    pub max_attempts: u32,
    /// Deadline imposed on a single NPU attempt.
    pub attempt_timeout: SimDuration,
    /// Backoff inserted before each retry.
    pub retry_backoff: SimDuration,
    /// Total wall-clock budget for inference within one migration epoch;
    /// once exhausted the epoch's migration is skipped.
    pub epoch_budget: SimDuration,
    /// Consecutive NPU failures after which the circuit breaker opens.
    pub breaker_threshold: u32,
    /// Epochs the breaker stays open before a half-open probe (the device
    /// is reset and one real attempt is made).
    pub breaker_cooldown_epochs: u32,
    /// Whether to serve inference from the CPU while the NPU is
    /// unavailable.
    pub cpu_fallback: bool,
}

impl Default for RobustnessConfig {
    fn default() -> Self {
        RobustnessConfig {
            max_attempts: 3,
            attempt_timeout: SimDuration::from_millis(30),
            retry_backoff: SimDuration::from_millis(5),
            epoch_budget: SimDuration::from_millis(250),
            breaker_threshold: 3,
            breaker_cooldown_epochs: 4,
            cpu_fallback: true,
        }
    }
}

impl RobustnessConfig {
    /// Disables the degradation ladder: one attempt, no retries, no CPU
    /// fallback, breaker never opens. A failed epoch simply skips its
    /// migration (the naive deployment the robustness experiment compares
    /// against).
    pub fn disabled() -> Self {
        RobustnessConfig {
            max_attempts: 1,
            attempt_timeout: SimDuration::from_millis(250),
            retry_backoff: SimDuration::ZERO,
            epoch_budget: SimDuration::from_millis(250),
            breaker_threshold: u32::MAX,
            breaker_cooldown_epochs: u32::MAX,
            cpu_fallback: false,
        }
    }
}

/// The outcome of one migration epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationOutcome {
    /// The executed migration, if any.
    pub migrated: Option<(AppId, CoreId)>,
    /// Wall-clock latency of the invocation (feature build + inference,
    /// including failed attempts and backoffs).
    pub latency: SimDuration,
    /// CPU time charged to the platform.
    pub cpu_time: SimDuration,
    /// Backend that served the epoch's inference.
    pub backend: InferenceBackend,
    /// NPU job failures observed this epoch (before recovery).
    pub npu_failures: u32,
    /// Whether the CPU fallback served this epoch (breaker open or retries
    /// exhausted).
    pub fallback_active: bool,
    /// The epoch's inference missed its deadline entirely; the migration
    /// step was skipped.
    pub deadline_missed: bool,
}

/// One device job executed while serving an inference request, in
/// submission order — replayed into `NpuJob` trace events by the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientJob {
    /// Rows in the submitted batch.
    pub batch: u32,
    /// End-to-end latency of the job.
    pub latency: SimDuration,
    /// Substrate that executed the job.
    pub backend: TraceBackend,
    /// Whether the job completed successfully.
    pub ok: bool,
}

/// The reply to one epoch's inference request, from the board's
/// [`DedicatedNpuClient`] or from a shared service (the `npu-serve`
/// crate) via [`MigrationPolicy::complete`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClientReply {
    /// Rating matrix, or `None` when the epoch's deadline was missed.
    pub output: Option<Matrix>,
    /// Wall-clock latency of the request (including failed attempts,
    /// backoffs and queueing).
    pub latency: SimDuration,
    /// CPU time the request charged to the requesting board.
    pub cpu_time: SimDuration,
    /// Backend that ultimately served the request.
    pub backend: InferenceBackend,
    /// Device-job failures observed while serving (before recovery).
    pub npu_failures: u32,
    /// Whether a CPU fallback served the request.
    pub fallback_active: bool,
    /// Device jobs executed for this request, in submission order. A
    /// shared service hands every request of one batch the same list.
    pub jobs: Arc<[ClientJob]>,
    /// Whether the client's circuit breaker opened while serving.
    pub breaker_opened: bool,
}

/// The paper's deployment: a dedicated (simulated) NPU per board, guarded
/// by the degradation ladder of [`RobustnessConfig`] — bounded retries
/// with backoff, a consecutive-failure circuit breaker with half-open
/// probing, and an optional CPU fallback.
#[derive(Debug, Clone)]
pub struct DedicatedNpuClient {
    model: IlModel,
    client: HiaiClient,
    cpu: CpuInference,
    backend: InferenceBackend,
    robustness: RobustnessConfig,
    breaker: CircuitBreaker,
}

impl DedicatedNpuClient {
    /// Loads `model` onto a dedicated Kirin 970 NPU.
    pub fn new(model: IlModel) -> Self {
        // The job log only fills between epochs and is drained every
        // request; its records feed `NpuJob` trace events when tracing is
        // on.
        let client = HiaiClient::load(NpuDevice::kirin970(), model.mlp()).with_job_log();
        let robustness = RobustnessConfig::default();
        DedicatedNpuClient {
            model,
            client,
            cpu: CpuInference::cortex_a73(),
            backend: InferenceBackend::Npu,
            robustness,
            breaker: CircuitBreaker::new(
                robustness.breaker_threshold,
                robustness.breaker_cooldown_epochs,
            ),
        }
    }

    /// The active degradation-ladder configuration.
    pub fn robustness(&self) -> &RobustnessConfig {
        &self.robustness
    }

    /// Runs the batch on the CPU cost model.
    fn cpu_reply(&self, batch: &Matrix, fallback: bool) -> ClientReply {
        let output = self.model.mlp().forward_batch(batch);
        let latency = self.cpu.latency(self.model.mlp().macs(), batch.rows());
        ClientReply {
            output: Some(output),
            latency,
            cpu_time: latency,
            backend: InferenceBackend::Cpu,
            npu_failures: 0,
            fallback_active: fallback,
            jobs: Arc::default(),
            breaker_opened: false,
        }
    }

    /// NPU inference behind the degradation ladder: bounded retries with
    /// backoff, a consecutive-failure circuit breaker with half-open
    /// probing, and an optional CPU fallback. On pristine hardware this is
    /// exactly one submit + collect, identical to the fault-free path.
    fn npu_with_recovery(&mut self, batch: &Matrix, now: SimTime) -> ClientReply {
        let cfg = self.robustness;
        let mut spent = SimDuration::ZERO;
        // Failed attempts cost wall time only: the governor sleeps between
        // polls, so no CPU time is charged for them.
        let cpu_time = SimDuration::ZERO;
        let mut failures = 0u32;

        if self.breaker.state() == BreakerState::Open {
            let probe = self.breaker.epoch_elapsed();
            if !probe {
                // Still cooling down: bypass the NPU entirely this epoch.
                if cfg.cpu_fallback {
                    return self.cpu_reply(batch, true);
                }
                return ClientReply {
                    output: None,
                    latency: SimDuration::ZERO,
                    cpu_time: SimDuration::ZERO,
                    backend: InferenceBackend::Npu,
                    npu_failures: 0,
                    fallback_active: false,
                    jobs: Arc::default(),
                    breaker_opened: false,
                };
            }
            // Half-open: reset the device and probe with a real attempt.
            self.client.reset();
        }

        for attempt in 0..cfg.max_attempts {
            if attempt > 0 {
                spent += cfg.retry_backoff;
            }
            let timeout = cfg.attempt_timeout.min(cfg.epoch_budget - spent);
            if timeout.is_zero() {
                break;
            }
            let submit_at = now + spent;
            let job = self.client.submit(batch, submit_at);
            match self.client.poll_until(job, submit_at + timeout) {
                Ok(done) => {
                    self.breaker.record_success();
                    return ClientReply {
                        output: Some(done.output),
                        latency: spent + done.latency,
                        cpu_time: cpu_time + done.host_cpu_time,
                        backend: InferenceBackend::Npu,
                        npu_failures: failures,
                        fallback_active: false,
                        jobs: Arc::default(),
                        breaker_opened: false,
                    };
                }
                Err(_) => {
                    failures += 1;
                    // The governor discovers a failure at its polling
                    // deadline, so a failed attempt costs its full timeout.
                    spent += timeout;
                    self.breaker.record_failure();
                    if self.breaker.state() == BreakerState::Open {
                        break;
                    }
                }
            }
        }

        // Retries exhausted (or the breaker tripped mid-epoch).
        if cfg.cpu_fallback && spent < cfg.epoch_budget {
            let fallback = self.cpu_reply(batch, true);
            return ClientReply {
                output: fallback.output,
                latency: spent + fallback.latency,
                cpu_time: cpu_time + fallback.cpu_time,
                backend: InferenceBackend::Cpu,
                npu_failures: failures,
                fallback_active: true,
                jobs: Arc::default(),
                breaker_opened: false,
            };
        }
        ClientReply {
            output: None,
            latency: spent,
            cpu_time,
            backend: InferenceBackend::Npu,
            npu_failures: failures,
            fallback_active: false,
            jobs: Arc::default(),
            breaker_opened: false,
        }
    }

    /// Serves one epoch's batched inference request submitted at `now`.
    pub fn infer(&mut self, batch: &Matrix, now: SimTime) -> ClientReply {
        let opens_before = self.breaker.opens();
        let mut reply = match self.backend {
            InferenceBackend::Npu => self.npu_with_recovery(batch, now),
            InferenceBackend::Cpu => self.cpu_reply(batch, false),
        };
        // Replay the device's job log into the reply (drained even when
        // the caller won't trace it, so it never grows across epochs).
        let mut jobs: Vec<ClientJob> = self
            .client
            .drain_job_log()
            .into_iter()
            .map(|record| ClientJob {
                batch: record.batch,
                latency: record.latency,
                backend: TraceBackend::Npu,
                ok: record.ok,
            })
            .collect();
        if reply.backend == InferenceBackend::Cpu && reply.output.is_some() {
            jobs.push(ClientJob {
                batch: batch.rows() as u32,
                latency: self.cpu.latency(self.model.mlp().macs(), batch.rows()),
                backend: TraceBackend::Cpu,
                ok: true,
            });
        }
        reply.jobs = jobs.into();
        reply.breaker_opened = self.breaker.opens() > opens_before;
        reply
    }

    /// State of the circuit breaker guarding the dedicated NPU.
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }

    /// Times the breaker opened so far.
    pub fn breaker_opens(&self) -> u64 {
        self.breaker.opens()
    }
}

/// A prepared migration epoch: features built and standardized, awaiting
/// its inference reply (see [`MigrationPolicy::prepare`]).
#[derive(Debug, Clone)]
pub struct PreparedEpoch {
    batch: Matrix,
    feature_cost: SimDuration,
}

impl PreparedEpoch {
    /// The standardized feature batch to submit (one row per running
    /// application).
    pub fn batch(&self) -> &Matrix {
        &self.batch
    }
}

/// The IL migration policy.
///
/// # Examples
///
/// ```
/// use topil::migration::{InferenceBackend, MigrationPolicy};
/// use topil::oracle::Scenario;
/// use topil::training::{IlTrainer, TrainSettings};
/// use hikey_platform::{Platform, PlatformConfig};
///
/// let mut settings = TrainSettings::default();
/// settings.nn.max_epochs = 10;
/// let model = IlTrainer::new(settings).train(&Scenario::standard_set(2, 0), 0);
/// let mut policy = MigrationPolicy::new(model);
/// let mut platform = Platform::new(PlatformConfig::default());
/// let outcome = policy.run(&mut platform);
/// assert!(outcome.migrated.is_none()); // nothing to migrate yet
/// ```
#[derive(Debug, Clone)]
pub struct MigrationPolicy {
    model: IlModel,
    /// The board's own NPU transport, used by [`MigrationPolicy::run`].
    /// A fleet driver serves [`MigrationPolicy::prepare`]d batches
    /// through a shared service instead and bypasses it.
    dedicated: DedicatedNpuClient,
    threshold: f32,
}

impl MigrationPolicy {
    /// Creates the policy with the model loaded onto the Kirin 970 NPU.
    pub fn new(model: IlModel) -> Self {
        MigrationPolicy {
            dedicated: DedicatedNpuClient::new(model.clone()),
            model,
            threshold: DEFAULT_IMPROVEMENT_THRESHOLD,
        }
    }

    /// Switches the inference backend (for the overhead ablation).
    pub fn with_backend(mut self, backend: InferenceBackend) -> Self {
        self.dedicated.backend = backend;
        self
    }

    /// Attaches a fault injector to the NPU client (robustness
    /// experiments).
    pub fn with_fault_injector(mut self, injector: FaultInjector) -> Self {
        self.dedicated.client = self.dedicated.client.with_injector(injector);
        self
    }

    /// Selects the numeric kernel of the dedicated NPU client — outputs
    /// are bit-identical across modes; `Scalar` forces the reference loop
    /// for differential runs (golden-trace re-verification).
    pub fn with_kernel(mut self, kernel: npu::KernelMode) -> Self {
        self.dedicated.client = self.dedicated.client.with_kernel(kernel);
        self
    }

    /// Overrides the degradation-ladder configuration. Resets the circuit
    /// breaker.
    pub fn with_robustness(mut self, config: RobustnessConfig) -> Self {
        self.dedicated.robustness = config;
        self.dedicated.breaker =
            CircuitBreaker::new(config.breaker_threshold, config.breaker_cooldown_epochs);
        self
    }

    /// Current circuit-breaker state of the dedicated NPU.
    pub fn breaker_state(&self) -> BreakerState {
        self.dedicated.breaker_state()
    }

    /// Times the dedicated NPU's circuit breaker opened so far.
    pub fn breaker_opens(&self) -> u64 {
        self.dedicated.breaker_opens()
    }

    /// The active degradation-ladder configuration.
    pub fn robustness(&self) -> &RobustnessConfig {
        &self.dedicated.robustness
    }

    /// Overrides the migration hysteresis threshold (for ablations).
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite values.
    pub fn with_threshold(mut self, threshold: f32) -> Self {
        assert!(
            threshold.is_finite() && threshold >= 0.0,
            "invalid threshold"
        );
        self.threshold = threshold;
        self
    }

    /// The deployed model.
    pub fn model(&self) -> &IlModel {
        &self.model
    }

    /// Runs one migration epoch on the platform: prepares the feature
    /// batch, serves it on the dedicated NPU, and completes the epoch.
    /// Equivalent to [`MigrationPolicy::prepare`] +
    /// [`MigrationPolicy::complete`] with the client in between.
    pub fn run(&mut self, platform: &mut Platform) -> MigrationOutcome {
        let Some(prepared) = self.prepare(platform) else {
            return MigrationOutcome {
                migrated: None,
                latency: SimDuration::ZERO,
                cpu_time: SimDuration::ZERO,
                backend: self.dedicated.backend,
                npu_failures: 0,
                fallback_active: false,
                deadline_missed: false,
            };
        };
        let reply = self.dedicated.infer(&prepared.batch, platform.now());
        self.complete(platform, &prepared, reply)
    }

    /// Builds the epoch's standardized feature batch (every running
    /// application is the AoI once). Returns `None` when nothing runs —
    /// the epoch is a no-op then.
    ///
    /// Splitting preparation from completion lets a fleet driver gather
    /// many boards' batches, serve them through a shared service, and
    /// feed each reply back via [`MigrationPolicy::complete`].
    pub fn prepare(&self, platform: &Platform) -> Option<PreparedEpoch> {
        let snapshots = platform.snapshots();
        if snapshots.is_empty() {
            return None;
        }
        let features: Vec<Features> = snapshots
            .iter()
            .filter_map(|s| Features::from_platform(platform, s.id))
            .collect();
        let batch = self.model.standardized_batch(&features);
        let feature_cost = FEATURE_COST_PER_APP * features.len() as u64;
        Some(PreparedEpoch {
            batch,
            feature_cost,
        })
    }

    /// Completes a prepared epoch from the client's reply: emits trace
    /// events, charges governor time, and executes the Eq. 5 migration.
    pub fn complete(
        &mut self,
        platform: &mut Platform,
        prepared: &PreparedEpoch,
        reply: ClientReply,
    ) -> MigrationOutcome {
        let snapshots = platform.snapshots();
        self.emit_inference_trace(platform, &reply);
        let cpu_time = prepared.feature_cost + reply.cpu_time;
        platform.consume_governor_time(cpu_time);
        let latency = prepared.feature_cost + reply.latency;

        let Some(ratings) = reply.output else {
            // Deadline missed: skip this epoch's migration entirely.
            return MigrationOutcome {
                migrated: None,
                latency,
                cpu_time,
                backend: reply.backend,
                npu_failures: reply.npu_failures,
                fallback_active: reply.fallback_active,
                deadline_missed: true,
            };
        };

        // Eq. 5: the best single migration across all (app, free core).
        let free = platform.free_cores();
        let mut best: Option<(usize, AppId, CoreId, f32)> = None;
        for (k, snap) in snapshots.iter().enumerate() {
            let current = ratings.get(k, snap.core.index());
            for &core in &free {
                let delta = ratings.get(k, core.index()) - current;
                if delta > best.map_or(self.threshold, |(_, _, _, d)| d) {
                    best = Some((k, snap.id, core, delta));
                }
            }
        }
        if platform.trace_enabled() {
            let event = match best {
                Some((k, id, core, delta)) => TraceEvent::Decision {
                    at: platform.now(),
                    app: Some(id),
                    target: Some(core),
                    score: f64::from(delta),
                    logits: (0..ratings.cols()).map(|c| ratings.get(k, c)).collect(),
                },
                None => TraceEvent::Decision {
                    at: platform.now(),
                    app: None,
                    target: None,
                    score: 0.0,
                    logits: Vec::new(),
                },
            };
            platform.trace_emit(event);
        }
        let migrated = best.map(|(_, id, core, _)| {
            platform.migrate(id, core);
            (id, core)
        });

        MigrationOutcome {
            migrated,
            latency,
            cpu_time,
            backend: reply.backend,
            npu_failures: reply.npu_failures,
            fallback_active: reply.fallback_active,
            deadline_missed: false,
        }
    }

    /// Emits the epoch's device-job and fault events from the client's
    /// reply.
    fn emit_inference_trace(&mut self, platform: &mut Platform, reply: &ClientReply) {
        if !platform.trace_enabled() {
            return;
        }
        let at = platform.now();
        for job in reply.jobs.iter() {
            platform.trace_emit(TraceEvent::NpuJob {
                at,
                batch: job.batch,
                latency: job.latency,
                backend: job.backend,
                ok: job.ok,
            });
            if !job.ok {
                platform.trace_emit(TraceEvent::Fault {
                    at,
                    kind: FaultKind::NpuJobFailure,
                });
            }
        }
        if reply.breaker_opened {
            platform.trace_emit(TraceEvent::Fault {
                at,
                kind: FaultKind::BreakerOpen,
            });
        }
        if reply.fallback_active {
            platform.trace_emit(TraceEvent::Fault {
                at,
                kind: FaultKind::CpuFallback,
            });
        }
        if reply.output.is_none() {
            platform.trace_emit(TraceEvent::Fault {
                at,
                kind: FaultKind::DegradedEpoch,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Scenario;
    use crate::training::{IlTrainer, TrainSettings};
    use hikey_platform::PlatformConfig;
    use hmc_types::Cluster;
    use nn::TrainConfig;
    use workloads::{Benchmark, QosSpec, Workload};

    fn trained_model(seed: u64) -> IlModel {
        let settings = TrainSettings {
            nn: TrainConfig {
                max_epochs: 80,
                patience: 20,
                ..TrainConfig::default()
            },
            ..TrainSettings::default()
        };
        IlTrainer::new(settings).train(&Scenario::standard_set(12, 21), seed)
    }

    #[test]
    fn empty_platform_is_a_noop() {
        let model = trained_model(0);
        let mut policy = MigrationPolicy::new(model);
        let mut platform = Platform::new(PlatformConfig::default());
        let outcome = policy.run(&mut platform);
        assert!(outcome.migrated.is_none());
        assert_eq!(outcome.cpu_time, SimDuration::ZERO);
    }

    #[test]
    fn npu_latency_flat_cpu_latency_grows() {
        let model = trained_model(0);
        let w = Workload::single(Benchmark::Adi, QosSpec::FractionOfMaxBig(0.2));
        let spec = w.iter().next().unwrap();

        let run_with = |backend: InferenceBackend, napps: usize| {
            let mut policy = MigrationPolicy::new(trained_model(0)).with_backend(backend);
            let mut platform = Platform::new(PlatformConfig::default());
            for i in 0..napps {
                platform.admit(spec, hmc_types::CoreId::new(i));
            }
            for _ in 0..200 {
                platform.tick();
            }
            policy.run(&mut platform).latency
        };
        let _ = model;

        let npu_1 = run_with(InferenceBackend::Npu, 1).as_secs_f64();
        let npu_8 = run_with(InferenceBackend::Npu, 8).as_secs_f64();
        let cpu_1 = run_with(InferenceBackend::Cpu, 1).as_secs_f64();
        let cpu_8 = run_with(InferenceBackend::Cpu, 8).as_secs_f64();
        assert!(npu_8 / npu_1 < 1.3, "NPU latency should stay flat");
        assert!(cpu_8 / cpu_1 > 2.0, "CPU latency should grow with batch");
    }

    /// Steps the platform for one migration epoch while co-running the
    /// DVFS control loop (the policy is deployed together with it, and the
    /// training distribution assumes near-minimal operating points).
    fn epoch_with_dvfs(platform: &mut Platform, dvfs: &mut crate::dvfs::DvfsControlLoop) {
        for slot in 0..10 {
            for _ in 0..50 {
                platform.tick();
            }
            if slot >= 2 {
                dvfs.run(platform);
            }
        }
    }

    /// The end-to-end check of the paper's motivational example: the
    /// trained policy migrates adi to the big cluster and seidel-2d to the
    /// LITTLE cluster when each starts on the wrong side.
    #[test]
    fn motivational_migrations() {
        let model = trained_model(1);

        // adi on LITTLE should move to big.
        let mut policy = MigrationPolicy::new(model.clone());
        let mut dvfs = crate::dvfs::DvfsControlLoop::new();
        let mut platform = Platform::new(PlatformConfig::default());
        let w = Workload::single(Benchmark::Adi, QosSpec::FractionOfMaxBig(0.3));
        let id = platform.admit(w.iter().next().unwrap(), hmc_types::CoreId::new(2));
        let mut core = hmc_types::CoreId::new(2);
        for _ in 0..8 {
            epoch_with_dvfs(&mut platform, &mut dvfs);
            if let Some((app, c)) = policy.run(&mut platform).migrated {
                assert_eq!(app, id);
                core = c;
            }
        }
        assert_eq!(
            core.cluster(),
            Cluster::Big,
            "adi should end up on the big cluster"
        );
    }

    fn loaded_platform(napps: usize) -> Platform {
        let w = Workload::single(Benchmark::Adi, QosSpec::FractionOfMaxBig(0.2));
        let spec = w.iter().next().unwrap();
        let mut platform = Platform::new(PlatformConfig::default());
        for i in 0..napps {
            platform.admit(spec, hmc_types::CoreId::new(i));
        }
        for _ in 0..200 {
            platform.tick();
        }
        platform
    }

    fn faulty_policy(
        model: IlModel,
        configure: impl FnOnce(&mut faults::FaultPlan),
    ) -> MigrationPolicy {
        let mut plan = faults::FaultPlan::none(5);
        configure(&mut plan);
        MigrationPolicy::new(model).with_fault_injector(faults::FaultInjector::new(plan))
    }

    #[test]
    fn full_npu_failure_falls_back_to_cpu_and_opens_breaker() {
        let mut policy = faulty_policy(trained_model(0), |p| p.npu.failure_rate = 1.0);
        let mut platform = loaded_platform(2);
        let outcome = policy.run(&mut platform);
        assert!(outcome.npu_failures > 0, "every attempt must fail");
        assert!(outcome.fallback_active, "CPU fallback must serve the epoch");
        assert_eq!(outcome.backend, InferenceBackend::Cpu);
        assert!(
            !outcome.deadline_missed,
            "the fallback still produced ratings"
        );
        assert_eq!(policy.breaker_state(), BreakerState::Open);
        assert_eq!(policy.breaker_opens(), 1);
        // While open, subsequent epochs bypass the NPU without new failures.
        let outcome = policy.run(&mut platform);
        assert_eq!(outcome.npu_failures, 0);
        assert!(outcome.fallback_active);
    }

    #[test]
    fn circuit_breaker_state_machine() {
        let mut breaker = CircuitBreaker::new(3, 2);
        assert_eq!(breaker.state(), BreakerState::Closed);
        breaker.record_failure();
        breaker.record_failure();
        assert_eq!(breaker.state(), BreakerState::Closed, "below threshold");
        breaker.record_failure();
        assert_eq!(breaker.state(), BreakerState::Open);
        assert_eq!(breaker.opens(), 1);
        assert!(!breaker.epoch_elapsed(), "cooldown epoch 1 of 2");
        assert!(breaker.epoch_elapsed(), "cooldown over: probe allowed");
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        // A failed probe reopens immediately.
        breaker.record_failure();
        assert_eq!(breaker.state(), BreakerState::Open);
        assert_eq!(breaker.opens(), 2);
        assert!(!breaker.epoch_elapsed());
        assert!(breaker.epoch_elapsed());
        // A successful probe closes the breaker again.
        breaker.record_success();
        assert_eq!(breaker.state(), BreakerState::Closed);
    }

    #[test]
    fn timeout_faults_cost_their_deadline_then_fall_back() {
        let mut policy = faulty_policy(trained_model(0), |p| p.npu.timeout_rate = 1.0);
        let mut platform = loaded_platform(1);
        let outcome = policy.run(&mut platform);
        assert!(outcome.fallback_active);
        // 3 attempts × 30 ms + 2 × 5 ms backoff = 100 ms of wall time, plus
        // the CPU fallback and feature build on top.
        assert!(
            outcome.latency >= SimDuration::from_millis(100),
            "{:?}",
            outcome.latency
        );
        assert!(
            outcome.latency < SimDuration::from_millis(260),
            "{:?}",
            outcome.latency
        );
    }

    #[test]
    fn disabled_ladder_skips_the_epoch_without_panicking() {
        let mut policy = faulty_policy(trained_model(0), |p| p.npu.failure_rate = 1.0)
            .with_robustness(RobustnessConfig::disabled());
        let mut platform = loaded_platform(2);
        for _ in 0..3 {
            let outcome = policy.run(&mut platform);
            assert!(outcome.deadline_missed, "no ladder: the epoch is lost");
            assert!(outcome.migrated.is_none());
            assert!(!outcome.fallback_active);
            assert_eq!(outcome.backend, InferenceBackend::Npu);
        }
        assert_eq!(
            policy.breaker_state(),
            BreakerState::Closed,
            "breaker disabled"
        );
    }

    #[test]
    fn zero_fault_injector_matches_uninstrumented_policy() {
        let model = trained_model(0);
        let mut plain = MigrationPolicy::new(model.clone());
        let mut injected = faulty_policy(model, |_| {});
        let mut p1 = loaded_platform(3);
        let mut p2 = loaded_platform(3);
        for _ in 0..3 {
            let a = plain.run(&mut p1);
            let b = injected.run(&mut p2);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn does_not_churn_on_equal_mappings() {
        // After reaching a good mapping, repeated invocations should not
        // keep migrating between equally rated cores of the same cluster.
        let model = trained_model(2);
        let mut policy = MigrationPolicy::new(model);
        let mut dvfs = crate::dvfs::DvfsControlLoop::new();
        let mut platform = Platform::new(PlatformConfig::default());
        let w = Workload::single(Benchmark::SeidelTwoD, QosSpec::FractionOfMaxBig(0.3));
        platform.admit(w.iter().next().unwrap(), hmc_types::CoreId::new(1));
        let mut migrations = 0;
        for _ in 0..12 {
            epoch_with_dvfs(&mut platform, &mut dvfs);
            if policy.run(&mut platform).migrated.is_some() {
                migrations += 1;
            }
        }
        assert!(
            migrations <= 3,
            "stable policy should settle, saw {migrations} migrations"
        );
    }
}
