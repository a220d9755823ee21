//! Design-time oracle: trace collection and training-data extraction
//! (§4.2, Fig. 2, Fig. 4).
//!
//! The oracle executes a *scenario* (an AoI plus background applications on
//! fixed cores) for every combination of per-cluster V/f levels from a
//! reduced OPP grid and every free core the AoI could run on, recording the
//! AoI's performance and the peak temperature. Training data is then
//! extracted by sweeping QoS targets and background V/f requirements over
//! the traces — the paper's redundancy-avoiding two-stage pipeline.

use hikey_platform::{OppTable, Platform, PlatformConfig, PowerModel};
use hmc_types::{
    Celsius, Cluster, CoreId, Frequency, Ips, QosTarget, SimDuration, Watts, NUM_CORES,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use thermal::{Cooling, SocThermal};
use workloads::Benchmark;

use crate::features::Features;

/// A training scenario: one AoI and a set of background applications
/// pinned to distinct cores.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The application of interest.
    pub aoi: Benchmark,
    /// Background applications and the cores they occupy.
    pub background: Vec<(Benchmark, CoreId)>,
}

impl Scenario {
    /// Creates a scenario.
    ///
    /// # Panics
    ///
    /// Panics if background cores collide or no core remains free.
    pub fn new(aoi: Benchmark, background: Vec<(Benchmark, CoreId)>) -> Self {
        let mut seen = [false; NUM_CORES];
        for (_, core) in &background {
            assert!(!seen[core.index()], "background cores must be distinct");
            seen[core.index()] = true;
        }
        assert!(
            background.len() < NUM_CORES,
            "at least one core must remain free for the AoI"
        );
        Scenario { aoi, background }
    }

    /// Cores not occupied by background applications.
    pub fn free_cores(&self) -> Vec<CoreId> {
        CoreId::all()
            .filter(|c| !self.background.iter().any(|(_, b)| b == c))
            .collect()
    }

    /// Draws a random scenario: AoI from the training set, 0–6 background
    /// applications on random distinct cores (0 covers the paper's
    /// single-application Scenario 1).
    pub fn random<R: RngExt + ?Sized>(rng: &mut R) -> Scenario {
        let training = Benchmark::training_set();
        let aoi = training[rng.random_range(0..training.len())];
        let n_bg = rng.random_range(0..=6);
        let mut cores: Vec<usize> = (0..NUM_CORES).collect();
        // Partial Fisher–Yates for a random core subset.
        for i in 0..n_bg {
            let j = rng.random_range(i..NUM_CORES);
            cores.swap(i, j);
        }
        let background = (0..n_bg)
            .map(|i| {
                (
                    training[rng.random_range(0..training.len())],
                    CoreId::new(cores[i]),
                )
            })
            .collect();
        Scenario::new(aoi, background)
    }

    /// A reproducible set of `n` random scenarios (the paper uses 100
    /// combinations of AoI and background).
    pub fn standard_set(n: usize, seed: u64) -> Vec<Scenario> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Scenario::random(&mut rng)).collect()
    }
}

/// One trace measurement: the AoI mapped to one core at one V/f point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Mean AoI performance.
    pub ips: Ips,
    /// Mean AoI L2D access rate.
    pub l2d_per_sec: f64,
    /// Peak (steady-state) sensor temperature.
    pub peak_temp: Celsius,
}

/// All traces of one scenario over the V/f grid and free cores.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioTraces {
    /// The traced scenario.
    pub scenario: Scenario,
    /// LITTLE-cluster grid frequencies (ascending).
    pub little_freqs: Vec<Frequency>,
    /// big-cluster grid frequencies (ascending).
    pub big_freqs: Vec<Frequency>,
    free_cores: Vec<CoreId>,
    /// Indexed `[free_core_pos][fl_idx][fb_idx]`.
    points: Vec<TracePoint>,
}

impl ScenarioTraces {
    /// Cores the AoI was traced on.
    pub fn free_cores(&self) -> &[CoreId] {
        &self.free_cores
    }

    /// The trace point for the AoI on `core` at grid indices
    /// `(fl_idx, fb_idx)`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is not free in this scenario or an index is out of
    /// range.
    pub fn point(&self, core: CoreId, fl_idx: usize, fb_idx: usize) -> TracePoint {
        let pos = self
            .free_cores
            .iter()
            .position(|&c| c == core)
            .expect("core was not traced");
        let nl = self.little_freqs.len();
        let nb = self.big_freqs.len();
        assert!(fl_idx < nl && fb_idx < nb, "grid index out of range");
        self.points[(pos * nl + fl_idx) * nb + fb_idx]
    }

    /// The maximum AoI performance observed anywhere in the traces.
    pub fn max_ips(&self) -> Ips {
        self.points.iter().map(|p| p.ips).fold(Ips::ZERO, Ips::max)
    }
}

/// How traces are obtained.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fidelity {
    /// Solve the thermal network's steady state with a leakage fixed
    /// point — fast, used for mass training-data generation. Valid because
    /// the paper's training benchmarks have constant behaviour.
    SteadyState,
    /// Full transient simulation: background warm-up, then run the AoI for
    /// a fixed instruction budget, recording the true peak temperature
    /// (the paper's physical procedure).
    Transient {
        /// Background warm-up before the AoI starts (paper: 2 min).
        warmup: SimDuration,
        /// AoI instruction budget per trace (paper: 10^10).
        aoi_instructions: u64,
    },
}

/// Collects [`ScenarioTraces`] over a reduced V/f grid with active (fan)
/// cooling, exactly like the paper's design-time procedure.
#[derive(Debug, Clone)]
pub struct TraceCollector {
    cooling: Cooling,
    fidelity: Fidelity,
    little_grid: OppTable,
    big_grid: OppTable,
}

impl TraceCollector {
    /// The paper's setup: fan cooling, reduced OPP grid, steady-state
    /// fidelity for fast collection.
    pub fn new() -> Self {
        TraceCollector {
            cooling: Cooling::fan(),
            fidelity: Fidelity::SteadyState,
            little_grid: OppTable::hikey970_reduced(Cluster::Little),
            big_grid: OppTable::hikey970_reduced(Cluster::Big),
        }
    }

    /// Overrides the fidelity.
    pub fn with_fidelity(mut self, fidelity: Fidelity) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// Overrides the cooling configuration.
    pub fn with_cooling(mut self, cooling: Cooling) -> Self {
        self.cooling = cooling;
        self
    }

    /// Overrides the V/f grids (e.g. the full OPP tables instead of the
    /// reduced collection grid).
    ///
    /// # Panics
    ///
    /// Panics if a table is passed for the wrong cluster.
    pub fn with_grids(mut self, little: OppTable, big: OppTable) -> Self {
        assert_eq!(
            little.cluster(),
            Cluster::Little,
            "wrong cluster for little grid"
        );
        assert_eq!(big.cluster(), Cluster::Big, "wrong cluster for big grid");
        self.little_grid = little;
        self.big_grid = big;
        self
    }

    /// The LITTLE-cluster trace grid.
    pub fn little_grid(&self) -> &OppTable {
        &self.little_grid
    }

    /// The big-cluster trace grid.
    pub fn big_grid(&self) -> &OppTable {
        &self.big_grid
    }

    /// Collects traces for one scenario.
    pub fn collect(&self, scenario: &Scenario) -> ScenarioTraces {
        let free_cores = scenario.free_cores();
        let nl = self.little_grid.len();
        let nb = self.big_grid.len();
        let mut points = Vec::with_capacity(free_cores.len() * nl * nb);
        for &core in &free_cores {
            for fl in 0..nl {
                for fb in 0..nb {
                    let point = match self.fidelity {
                        Fidelity::SteadyState => self.steady_state_point(scenario, core, fl, fb),
                        Fidelity::Transient {
                            warmup,
                            aoi_instructions,
                        } => self.transient_point(scenario, core, fl, fb, warmup, aoi_instructions),
                    };
                    points.push(point);
                }
            }
        }
        ScenarioTraces {
            scenario: scenario.clone(),
            little_freqs: self.little_grid.frequencies(),
            big_freqs: self.big_grid.frequencies(),
            free_cores,
            points,
        }
    }

    /// Analytic steady-state trace point with a leakage fixed point.
    fn steady_state_point(
        &self,
        scenario: &Scenario,
        aoi_core: CoreId,
        fl: usize,
        fb: usize,
    ) -> TracePoint {
        let opps = [self.little_grid.opp(fl), self.big_grid.opp(fb)];
        let mut placement: Vec<(hmc_types::AppModel, CoreId)> = scenario
            .background
            .iter()
            .map(|&(benchmark, core)| (benchmark.model(), core))
            .collect();
        let aoi_model = scenario.aoi.model();
        placement.push((aoi_model.clone(), aoi_core));
        let sensor = steady_state_temperature(&placement, opps, self.cooling);

        let f = opps[aoi_core.cluster().index()].frequency;
        let ips = aoi_model.ips(aoi_core.cluster(), f, 1.0);
        TracePoint {
            ips,
            l2d_per_sec: ips.value() * aoi_model.l2d_per_kinst() / 1000.0,
            peak_temp: sensor,
        }
    }

    /// Full transient trace point on the platform simulator.
    fn transient_point(
        &self,
        scenario: &Scenario,
        aoi_core: CoreId,
        fl: usize,
        fb: usize,
        warmup: SimDuration,
        aoi_instructions: u64,
    ) -> TracePoint {
        let mut platform = Platform::new(PlatformConfig {
            cooling: self.cooling,
            ..PlatformConfig::default()
        });
        platform.set_cluster_frequency(Cluster::Little, self.little_grid.opp(fl).frequency);
        platform.set_cluster_frequency(Cluster::Big, self.big_grid.opp(fb).frequency);
        for &(benchmark, core) in &scenario.background {
            platform.admit_model(benchmark.model(), QosTarget::NONE, core, Some(u64::MAX));
        }
        let warmup_ticks = warmup.as_nanos() / platform.tick_duration().as_nanos();
        for _ in 0..warmup_ticks {
            platform.tick();
        }
        let aoi = platform.admit_model(
            scenario.aoi.model(),
            QosTarget::NONE,
            aoi_core,
            Some(aoi_instructions),
        );
        let start = platform.now();
        let mut peak = platform.sensor();
        let mut l2d = 0.0;
        while platform.snapshots().iter().any(|s| s.id == aoi) {
            platform.tick();
            peak = peak.max(platform.sensor());
            if let Some(s) = platform.snapshots().iter().find(|s| s.id == aoi) {
                l2d = s.l2d_per_sec;
            }
        }
        let elapsed = platform.now().since(start).as_secs_f64();
        let ips = Ips::new(aoi_instructions as f64 / elapsed.max(1e-9));
        TracePoint {
            ips,
            l2d_per_sec: l2d,
            peak_temp: peak,
        }
    }
}

impl Default for TraceCollector {
    fn default() -> Self {
        TraceCollector::new()
    }
}

/// Computes the steady-state sensor temperature for an arbitrary
/// application placement at fixed per-cluster operating points, with the
/// leakage↔temperature fixed point iterated to convergence.
///
/// This is the analytic heart of the oracle (and of the
/// [`OracleGovernor`](crate::oracle_governor::OracleGovernor) upper
/// bound). Applications are evaluated in their neutral phase; cores
/// hosting several applications split their time evenly.
pub fn steady_state_temperature(
    placement: &[(hmc_types::AppModel, CoreId)],
    opps: [hikey_platform::Opp; 2],
    cooling: Cooling,
) -> Celsius {
    let power_model = PowerModel::kirin970();
    let soc = SocThermal::new(cooling);

    let mut per_core_apps = [0usize; NUM_CORES];
    for (_, core) in placement {
        per_core_apps[core.index()] += 1;
    }
    let mut activity = [0.0f64; NUM_CORES];
    let mut occupied = [false; NUM_CORES];
    for (model, core) in placement {
        let cluster = core.cluster();
        let f = opps[cluster.index()].frequency;
        let cpu_s = model.cpi(cluster) / f.as_hz();
        let mem_s = model.mem_stall_ns(cluster) * 1e-9;
        let share = 1.0 / per_core_apps[core.index()] as f64;
        activity[core.index()] +=
            model.activity() * PowerModel::compute_fraction(cpu_s, mem_s) * share;
        occupied[core.index()] = true;
    }

    // Leakage depends on temperature: iterate power -> steady state.
    let mut core_temps = [soc.ambient(); NUM_CORES];
    let mut sensor = soc.ambient();
    for _ in 0..6 {
        let mut core_powers = [Watts::ZERO; NUM_CORES];
        for core in CoreId::all() {
            let opp = opps[core.cluster().index()];
            core_powers[core.index()] = power_model.core_power(
                core.cluster(),
                opp.frequency,
                opp.voltage,
                activity[core.index()],
                core_temps[core.index()],
            );
        }
        let cluster_powers = [
            power_model.uncore_power(
                Cluster::Little,
                opps[0].frequency,
                opps[0].voltage,
                Cluster::Little.cores().any(|c| occupied[c.index()]),
            ),
            power_model.uncore_power(
                Cluster::Big,
                opps[1].frequency,
                opps[1].voltage,
                Cluster::Big.cores().any(|c| occupied[c.index()]),
            ),
        ];
        sensor = soc.steady_state_sensor_with_soc(
            &core_powers,
            cluster_powers,
            power_model.soc_static_power(),
        );
        // A uniform sensor estimate is enough for the leakage iteration.
        core_temps.fill(sensor);
    }
    sensor
}

/// Which source mappings get a training example per labeled case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourcePolicy {
    /// One example per free core — the paper's exhaustive scheme ("the
    /// policy is trained to recover from each potential mapping", which is
    /// why DAgger is unnecessary).
    EveryFreeCore,
    /// Only the oracle-optimal source — mimics naive behavioural cloning
    /// of optimal trajectories, the setting DAgger was invented to fix.
    OptimalCoreOnly,
}

/// Settings for training-data extraction from traces.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractionConfig {
    /// QoS targets swept as fractions of the AoI's maximum observed IPS.
    pub qos_fractions: Vec<f64>,
    /// Label sharpness `α` in Eq. 4 (the paper sets 1.0).
    pub alpha: f64,
    /// Source exhaustiveness (the paper uses every free core).
    pub sources: SourcePolicy,
}

impl Default for ExtractionConfig {
    fn default() -> Self {
        ExtractionConfig {
            qos_fractions: vec![0.15, 0.3, 0.45, 0.6],
            alpha: 1.0,
            sources: SourcePolicy::EveryFreeCore,
        }
    }
}

/// One labeled oracle case: the soft labels of Eq. 4 for a specific
/// `(Q_AoI, f̃_{l∖AoI}, f̃_{b∖AoI})` selection, plus one feature vector per
/// free source core.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleCase {
    /// One feature vector per free core the AoI could currently occupy.
    pub sources: Vec<Features>,
    /// Per-core soft labels (Eq. 4): 0 = occupied, −1 = QoS-infeasible,
    /// `exp(−α·(T_j − T_min))` otherwise.
    pub labels: [f32; NUM_CORES],
    /// Peak temperature per feasible mapping (for model evaluation).
    pub temperatures: [Option<Celsius>; NUM_CORES],
}

impl OracleCase {
    /// The core with the best (coolest feasible) mapping.
    pub fn optimal_core(&self) -> Option<CoreId> {
        self.temperatures
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.map(|t| (i, t)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("temps finite"))
            .map(|(i, _)| CoreId::new(i))
    }
}

/// Extracts labeled oracle cases from the traces of one scenario by
/// sweeping QoS targets and background V/f requirements (Fig. 2, bottom).
pub fn extract_cases(traces: &ScenarioTraces, config: &ExtractionConfig) -> Vec<OracleCase> {
    let max_ips = traces.max_ips();
    // A cluster without background applications has no background V/f
    // requirement: only the lowest level is consistent for it (matching
    // the run-time feature extraction).
    let bg_on = |cluster: Cluster| {
        traces
            .scenario
            .background
            .iter()
            .any(|(_, c)| c.cluster() == cluster)
    };
    let nl = if bg_on(Cluster::Little) {
        traces.little_freqs.len()
    } else {
        1
    };
    let nb = if bg_on(Cluster::Big) {
        traces.big_freqs.len()
    } else {
        1
    };
    let mut cases = Vec::new();
    for &fraction in &config.qos_fractions {
        let target = QosTarget::new(max_ips.scaled(fraction));
        for bg_fl in 0..nl {
            for bg_fb in 0..nb {
                if let Some(case) =
                    build_case(traces, target, bg_fl, bg_fb, config.alpha, config.sources)
                {
                    cases.push(case);
                }
            }
        }
    }
    cases
}

/// The operating point selected for the AoI on one core: Eq. 3.
#[derive(Debug, Clone, Copy)]
struct OperatingPoint {
    fl: usize,
    fb: usize,
    feasible: bool,
}

fn operating_point(
    traces: &ScenarioTraces,
    core: CoreId,
    target: QosTarget,
    bg_fl: usize,
    bg_fb: usize,
) -> OperatingPoint {
    let nl = traces.little_freqs.len();
    let nb = traces.big_freqs.len();
    match core.cluster() {
        Cluster::Little => {
            for fl in bg_fl..nl {
                if traces.point(core, fl, bg_fb).ips.meets(target.ips()) {
                    return OperatingPoint {
                        fl,
                        fb: bg_fb,
                        feasible: true,
                    };
                }
            }
            OperatingPoint {
                fl: nl - 1,
                fb: bg_fb,
                feasible: false,
            }
        }
        Cluster::Big => {
            for fb in bg_fb..nb {
                if traces.point(core, bg_fl, fb).ips.meets(target.ips()) {
                    return OperatingPoint {
                        fl: bg_fl,
                        fb,
                        feasible: true,
                    };
                }
            }
            OperatingPoint {
                fl: bg_fl,
                fb: nb - 1,
                feasible: false,
            }
        }
    }
}

fn build_case(
    traces: &ScenarioTraces,
    target: QosTarget,
    bg_fl: usize,
    bg_fb: usize,
    alpha: f64,
    source_policy: SourcePolicy,
) -> Option<OracleCase> {
    let free = traces.free_cores();
    // Determine the operating point and temperature per free core.
    let mut ops: Vec<(CoreId, OperatingPoint)> = Vec::with_capacity(free.len());
    let mut temps: [Option<Celsius>; NUM_CORES] = [None; NUM_CORES];
    for &core in free {
        let op = operating_point(traces, core, target, bg_fl, bg_fb);
        if op.feasible {
            temps[core.index()] = Some(traces.point(core, op.fl, op.fb).peak_temp);
        }
        ops.push((core, op));
    }
    let t_min = temps
        .iter()
        .flatten()
        .fold(None::<Celsius>, |m, &t| Some(m.map_or(t, |m| m.min(t))));

    // Labels per Eq. 4.
    let mut labels = [0.0f32; NUM_CORES];
    for &(core, ref op) in &ops {
        labels[core.index()] = if !op.feasible {
            -1.0
        } else {
            let t = temps[core.index()].expect("feasible core has a temperature");
            let t_min = t_min.expect("at least one feasible mapping exists");
            (-alpha * t.degrees_above(t_min)).exp() as f32
        };
    }

    // One feature vector per free source core (the AoI currently there, at
    // that source's own operating point).
    let mut util = [0.0f64; NUM_CORES];
    for (_, core) in &traces.scenario.background {
        util[core.index()] = 1.0;
    }
    let optimal = temps
        .iter()
        .enumerate()
        .filter_map(|(i, t)| t.map(|t| (i, t)))
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("temps finite"))
        .map(|(i, _)| i);
    let sources = ops
        .iter()
        .filter(|&&(core, _)| match source_policy {
            SourcePolicy::EveryFreeCore => true,
            SourcePolicy::OptimalCoreOnly => Some(core.index()) == optimal,
        })
        .map(|&(core, op)| {
            let point = traces.point(core, op.fl, op.fb);
            let f_l = traces.little_freqs[op.fl];
            let f_b = traces.big_freqs[op.fb];
            Features {
                qos_current: point.ips,
                l2d_per_sec: point.l2d_per_sec,
                current_core: core,
                qos_target: target,
                required_vf_ratio: [
                    traces.little_freqs[bg_fl].ratio(f_l),
                    traces.big_freqs[bg_fb].ratio(f_b),
                ],
                core_utilization: util,
            }
        })
        .collect();

    Some(OracleCase {
        sources,
        labels,
        temperatures: temps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_scenario() -> Scenario {
        // The paper's illustrative setup: seidel-2d as AoI, cores 3 and 6
        // free, the rest running background applications.
        Scenario::new(
            Benchmark::SeidelTwoD,
            vec![
                (Benchmark::Adi, CoreId::new(0)),
                (Benchmark::Syr2k, CoreId::new(1)),
                (Benchmark::Gramschmidt, CoreId::new(2)),
                (Benchmark::FdtdTwoD, CoreId::new(4)),
                (Benchmark::HeatThreeD, CoreId::new(5)),
                (Benchmark::FloydWarshall, CoreId::new(7)),
            ],
        )
    }

    #[test]
    fn scenario_free_cores() {
        let s = small_scenario();
        assert_eq!(s.free_cores(), vec![CoreId::new(3), CoreId::new(6)]);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn scenario_rejects_core_collision() {
        let _ = Scenario::new(
            Benchmark::Adi,
            vec![
                (Benchmark::Syr2k, CoreId::new(0)),
                (Benchmark::Adi, CoreId::new(0)),
            ],
        );
    }

    #[test]
    fn random_scenarios_are_reproducible_and_valid() {
        let a = Scenario::standard_set(10, 3);
        let b = Scenario::standard_set(10, 3);
        assert_eq!(a, b);
        for s in &a {
            assert!(!s.free_cores().is_empty());
            assert!(Benchmark::training_set().contains(&s.aoi));
        }
    }

    #[test]
    fn traces_cover_grid_and_cores() {
        let traces = TraceCollector::new().collect(&small_scenario());
        assert_eq!(traces.free_cores().len(), 2);
        let p = traces.point(CoreId::new(3), 0, 0);
        assert!(p.ips.value() > 0.0);
        assert!(p.peak_temp.value() > 25.0);
    }

    #[test]
    fn trace_ips_monotone_in_own_cluster_frequency() {
        let traces = TraceCollector::new().collect(&small_scenario());
        let nl = traces.little_freqs.len();
        for fl in 1..nl {
            let lo = traces.point(CoreId::new(3), fl - 1, 0).ips.value();
            let hi = traces.point(CoreId::new(3), fl, 0).ips.value();
            assert!(hi >= lo);
        }
    }

    #[test]
    fn trace_temperature_monotone_in_frequency() {
        let traces = TraceCollector::new().collect(&small_scenario());
        let nb = traces.big_freqs.len();
        for fb in 1..nb {
            let lo = traces.point(CoreId::new(6), 0, fb - 1).peak_temp.value();
            let hi = traces.point(CoreId::new(6), 0, fb).peak_temp.value();
            assert!(hi >= lo - 1e-9);
        }
    }

    #[test]
    fn extraction_produces_valid_labels() {
        let traces = TraceCollector::new().collect(&small_scenario());
        let cases = extract_cases(&traces, &ExtractionConfig::default());
        assert!(!cases.is_empty());
        for case in &cases {
            // Occupied cores are 0.
            for (_, core) in &traces.scenario.background {
                assert_eq!(case.labels[core.index()], 0.0);
            }
            // Labels of free cores are -1 or in (0, 1].
            for core in traces.free_cores() {
                let l = case.labels[core.index()];
                assert!(l == -1.0 || (0.0 < l && l <= 1.0), "label {l}");
            }
            // If any mapping is feasible, the best one has label 1.
            if case.temperatures.iter().any(Option::is_some) {
                let best = case.optimal_core().unwrap();
                assert!((case.labels[best.index()] - 1.0).abs() < 1e-6);
            }
            // One source per free core.
            assert_eq!(case.sources.len(), traces.free_cores().len());
        }
    }

    #[test]
    fn harder_targets_make_little_infeasible() {
        // With a QoS target at 60 % of max, the LITTLE cluster cannot keep
        // up for seidel-2d in many V/f selections; with 15 % it mostly can.
        let traces = TraceCollector::new().collect(&small_scenario());
        let easy = extract_cases(
            &traces,
            &ExtractionConfig {
                qos_fractions: vec![0.15],
                alpha: 1.0,
                ..ExtractionConfig::default()
            },
        );
        let hard = extract_cases(
            &traces,
            &ExtractionConfig {
                qos_fractions: vec![0.75],
                alpha: 1.0,
                ..ExtractionConfig::default()
            },
        );
        let infeasible = |cases: &[OracleCase]| {
            cases.iter().filter(|c| c.labels[3] == -1.0).count() as f64 / cases.len() as f64
        };
        assert!(infeasible(&hard) > infeasible(&easy));
    }

    #[test]
    fn steady_state_close_to_transient_peak() {
        // The fast steady-state oracle must agree with the physical
        // (transient) procedure for steady benchmarks.
        let scenario = Scenario::new(Benchmark::Syr2k, vec![(Benchmark::Adi, CoreId::new(4))]);
        let fast = TraceCollector::new().collect(&scenario);
        let slow = TraceCollector::new()
            .with_fidelity(Fidelity::Transient {
                warmup: SimDuration::from_secs(120),
                aoi_instructions: 10_000_000_000,
            })
            .collect(&scenario);
        let core = CoreId::new(5);
        let grid_max = (fast.little_freqs.len() - 1, fast.big_freqs.len() - 1);
        let f = fast.point(core, grid_max.0, grid_max.1);
        let t = slow.point(core, grid_max.0, grid_max.1);
        // The steady-state oracle bounds the finite-length transient trace
        // from above (the board has not fully settled after 10^10 AoI
        // instructions, just like in the paper's measurement procedure).
        let gap = f.peak_temp.value() - t.peak_temp.value();
        assert!(
            (-0.5..4.0).contains(&gap),
            "steady {} vs transient {}",
            f.peak_temp,
            t.peak_temp
        );
        assert!(
            (f.ips.value() - t.ips.value()).abs() / f.ips.value() < 0.05,
            "steady {} vs transient {}",
            f.ips,
            t.ips
        );
    }

    #[test]
    fn alpha_controls_label_sharpness() {
        let traces = TraceCollector::new().collect(&small_scenario());
        let soft = extract_cases(
            &traces,
            &ExtractionConfig {
                qos_fractions: vec![0.3],
                alpha: 0.1,
                ..ExtractionConfig::default()
            },
        );
        let sharp = extract_cases(
            &traces,
            &ExtractionConfig {
                qos_fractions: vec![0.3],
                alpha: 10.0,
                ..ExtractionConfig::default()
            },
        );
        // With higher alpha, suboptimal feasible labels shrink.
        let mean_nonoptimal = |cases: &[OracleCase]| {
            let mut sum = 0.0;
            let mut n = 0;
            for c in cases {
                for &l in &c.labels {
                    if l > 0.0 && l < 0.999 {
                        sum += l as f64;
                        n += 1;
                    }
                }
            }
            sum / n.max(1) as f64
        };
        assert!(mean_nonoptimal(&soft) > mean_nonoptimal(&sharp));
    }
}
