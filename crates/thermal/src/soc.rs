//! HiKey 970 SoC floorplan instantiation of the RC network.

use hmc_types::{Celsius, Cluster, CoreId, SimDuration, Watts, NUM_CORES};

use crate::{Cooling, NodeId, RcNetwork, RcNetworkBuilder};

/// Heat capacities in J/K.
const C_LITTLE_CORE: f64 = 0.12;
const C_BIG_CORE: f64 = 0.25;
const C_CLUSTER: f64 = 0.8;
const C_SOC: f64 = 2.5;
const C_BOARD: f64 = 25.0;

/// Conductances in W/K.
const G_LITTLE_LATERAL: f64 = 0.25;
const G_BIG_LATERAL: f64 = 0.4;
const G_LITTLE_TO_CLUSTER: f64 = 0.5;
const G_BIG_TO_CLUSTER: f64 = 0.8;
const G_CLUSTER_TO_SOC: f64 = 1.2;
const G_CLUSTER_TO_CLUSTER: f64 = 0.5;
const G_SOC_TO_BOARD: f64 = 1.2;

/// Multiplicative perturbations of the calibrated thermal parameters, for
/// sensitivity analysis: how robust are conclusions drawn on this model to
/// its calibration?
///
/// # Examples
///
/// ```
/// use thermal::{Cooling, SocThermal, ThermalParams};
/// let stiff = ThermalParams {
///     lateral_scale: 2.0,
///     ..ThermalParams::default()
/// };
/// let soc = SocThermal::with_params(Cooling::fan(), stiff);
/// assert_eq!(soc.ambient().value(), 25.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalParams {
    /// Scales core↔core lateral conductances.
    pub lateral_scale: f64,
    /// Scales core↔cluster and cluster↔SoC conductances.
    pub stack_scale: f64,
    /// Scales all heat capacities (thermal inertia).
    pub capacity_scale: f64,
    /// Scales the SoC/board coupling to ambient (cooling effectiveness).
    pub ambient_scale: f64,
}

impl Default for ThermalParams {
    fn default() -> Self {
        ThermalParams {
            lateral_scale: 1.0,
            stack_scale: 1.0,
            capacity_scale: 1.0,
            ambient_scale: 1.0,
        }
    }
}

impl ThermalParams {
    /// Validates that every scale is positive and finite.
    fn validate(&self) {
        for (name, v) in [
            ("lateral_scale", self.lateral_scale),
            ("stack_scale", self.stack_scale),
            ("capacity_scale", self.capacity_scale),
            ("ambient_scale", self.ambient_scale),
        ] {
            assert!(v.is_finite() && v > 0.0, "{name} must be positive, got {v}");
        }
    }
}

/// Thermal model of the HiKey 970: 8 core nodes, 2 cluster uncore nodes, a
/// SoC package node and the board, coupled to ambient according to a
/// [`Cooling`] configuration.
///
/// Within each cluster the cores form a linear strip (`0-1-2-3`), so heat
/// produced on one core raises its neighbours' temperatures — the spatial
/// effect that makes the *placement* of an application thermally relevant.
///
/// # Examples
///
/// ```
/// use hmc_types::{CoreId, SimDuration, Watts};
/// use thermal::{Cooling, SocThermal};
///
/// let mut soc = SocThermal::new(Cooling::fan());
/// let mut powers = [Watts::ZERO; 8];
/// powers[6] = Watts::new(1.9); // a busy big core
/// for _ in 0..2_000 {
///     soc.step(&powers, [Watts::ZERO; 2], SimDuration::from_millis(10));
/// }
/// let busy = soc.core_temperature(CoreId::new(6));
/// let idle_far = soc.core_temperature(CoreId::new(0));
/// assert!(busy > idle_far);
/// ```
#[derive(Debug, Clone)]
pub struct SocThermal {
    net: RcNetwork,
    cores: [NodeId; NUM_CORES],
    clusters: [NodeId; 2],
    soc: NodeId,
    board: NodeId,
    cooling: Cooling,
    params: ThermalParams,
}

impl SocThermal {
    /// Builds the HiKey 970 thermal model with the given cooling setup.
    ///
    /// All nodes start at ambient temperature.
    pub fn new(cooling: Cooling) -> Self {
        Self::with_params(cooling, ThermalParams::default())
    }

    /// Builds the model with perturbed parameters (sensitivity analysis).
    ///
    /// # Panics
    ///
    /// Panics if any scale in `params` is non-positive or non-finite.
    pub fn with_params(cooling: Cooling, params: ThermalParams) -> Self {
        params.validate();
        let mut b = RcNetworkBuilder::new(cooling.ambient_celsius());
        let cores: [NodeId; NUM_CORES] = std::array::from_fn(|i| {
            let core = CoreId::new(i);
            let cap = match core.cluster() {
                Cluster::Little => C_LITTLE_CORE,
                Cluster::Big => C_BIG_CORE,
            };
            b.add_node(format!("core{i}"), cap * params.capacity_scale, 0.0)
        });
        let clusters = [
            b.add_node("little-uncore", C_CLUSTER * params.capacity_scale, 0.0),
            b.add_node("big-uncore", C_CLUSTER * params.capacity_scale, 0.0),
        ];
        let soc = b.add_node(
            "soc",
            C_SOC * params.capacity_scale,
            cooling.soc_to_ambient_g() * params.ambient_scale,
        );
        let board = b.add_node(
            "board",
            C_BOARD * params.capacity_scale,
            cooling.board_to_ambient_g() * params.ambient_scale,
        );

        for cluster in Cluster::ALL {
            let (lateral, to_cluster) = match cluster {
                Cluster::Little => (G_LITTLE_LATERAL, G_LITTLE_TO_CLUSTER),
                Cluster::Big => (G_BIG_LATERAL, G_BIG_TO_CLUSTER),
            };
            let ids: Vec<CoreId> = cluster.cores().collect();
            for pair in ids.windows(2) {
                b.connect(
                    cores[pair[0].index()],
                    cores[pair[1].index()],
                    lateral * params.lateral_scale,
                );
            }
            for id in ids {
                b.connect(
                    cores[id.index()],
                    clusters[cluster.index()],
                    to_cluster * params.stack_scale,
                );
            }
            b.connect(
                clusters[cluster.index()],
                soc,
                G_CLUSTER_TO_SOC * params.stack_scale,
            );
        }
        b.connect(
            clusters[0],
            clusters[1],
            G_CLUSTER_TO_CLUSTER * params.lateral_scale,
        );
        b.connect(soc, board, G_SOC_TO_BOARD * params.stack_scale);

        SocThermal {
            net: b.build(),
            cores,
            clusters,
            soc,
            board,
            cooling,
            params,
        }
    }

    /// Returns the active cooling configuration.
    pub fn cooling(&self) -> Cooling {
        self.cooling
    }

    /// Switches the cooling configuration without resetting temperatures.
    pub fn set_cooling(&mut self, cooling: Cooling) {
        self.cooling = cooling;
        self.net.set_ambient_conductance(
            self.soc,
            cooling.soc_to_ambient_g() * self.params.ambient_scale,
        );
        self.net.set_ambient_conductance(
            self.board,
            cooling.board_to_ambient_g() * self.params.ambient_scale,
        );
    }

    /// Returns the ambient temperature.
    pub fn ambient(&self) -> Celsius {
        self.net.ambient()
    }

    /// Advances the model by `dt` under the given per-core and per-cluster
    /// (uncore) power dissipation.
    pub fn step(
        &mut self,
        core_powers: &[Watts; NUM_CORES],
        cluster_powers: [Watts; 2],
        dt: SimDuration,
    ) {
        self.step_with_soc(core_powers, cluster_powers, Watts::ZERO, dt);
    }

    /// Like [`SocThermal::step`] with additional power dissipated directly
    /// in the SoC package node (rails, memory controller, I/O — constant
    /// on the real board).
    pub fn step_with_soc(
        &mut self,
        core_powers: &[Watts; NUM_CORES],
        cluster_powers: [Watts; 2],
        soc_power: Watts,
        dt: SimDuration,
    ) {
        let mut powers = [Watts::ZERO; NUM_CORES + 4];
        powers[..NUM_CORES].copy_from_slice(core_powers);
        powers[NUM_CORES] = cluster_powers[0];
        powers[NUM_CORES + 1] = cluster_powers[1];
        powers[NUM_CORES + 2] = soc_power;
        self.net.step(&powers, dt);
    }

    /// Longest forward-Euler sub-step of the network, in seconds (see
    /// [`RcNetwork::dt_max`]).
    pub fn dt_max(&self) -> f64 {
        self.net.dt_max()
    }

    /// Returns the current temperature of a core.
    pub fn core_temperature(&self, core: CoreId) -> Celsius {
        self.net.temperature(self.cores[core.index()])
    }

    /// Returns the current temperature of a cluster's uncore node.
    pub fn cluster_temperature(&self, cluster: Cluster) -> Celsius {
        self.net.temperature(self.clusters[cluster.index()])
    }

    /// Returns the SoC package temperature.
    pub fn soc_temperature(&self) -> Celsius {
        self.net.temperature(self.soc)
    }

    /// Returns the board temperature.
    pub fn board_temperature(&self) -> Celsius {
        self.net.temperature(self.board)
    }

    /// Reading of the single on-board thermal sensor: the hottest on-die
    /// node (cores, uncores or package), matching the coarse observability
    /// the paper works with.
    pub fn sensor(&self) -> Celsius {
        let mut t = self.soc_temperature();
        for core in CoreId::all() {
            t = t.max(self.core_temperature(core));
        }
        for cluster in Cluster::ALL {
            t = t.max(self.cluster_temperature(cluster));
        }
        t
    }

    /// Resets every node to ambient (a fully cooled-down board, as after the
    /// paper's 10-minute cool-down between experiments).
    pub fn reset_to_ambient(&mut self) {
        self.net.set_uniform(self.net.ambient());
    }

    /// Computes the steady-state sensor temperature under constant powers,
    /// without disturbing the transient state.
    pub fn steady_state_sensor(
        &self,
        core_powers: &[Watts; NUM_CORES],
        cluster_powers: [Watts; 2],
    ) -> Celsius {
        self.steady_state_sensor_with_soc(core_powers, cluster_powers, Watts::ZERO)
    }

    /// Like [`SocThermal::steady_state_sensor`] with additional constant
    /// power in the SoC package node.
    pub fn steady_state_sensor_with_soc(
        &self,
        core_powers: &[Watts; NUM_CORES],
        cluster_powers: [Watts; 2],
        soc_power: Watts,
    ) -> Celsius {
        let mut powers = [Watts::ZERO; NUM_CORES + 4];
        powers[..NUM_CORES].copy_from_slice(core_powers);
        powers[NUM_CORES] = cluster_powers[0];
        powers[NUM_CORES + 1] = cluster_powers[1];
        powers[NUM_CORES + 2] = soc_power;
        let ss = self
            .net
            .steady_state(&powers)
            .expect("SoC network always has an ambient path");
        let die_nodes = self
            .cores
            .iter()
            .chain(self.clusters.iter())
            .chain(std::iter::once(&self.soc));
        die_nodes
            .map(|n| ss[n.index()])
            .fold(Celsius::new(f64::NEG_INFINITY), Celsius::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settle(soc: &mut SocThermal, core_powers: &[Watts; NUM_CORES], secs: u64) {
        for _ in 0..secs * 10 {
            soc.step(core_powers, [Watts::ZERO; 2], SimDuration::from_millis(100));
        }
    }

    #[test]
    fn idle_stays_at_ambient() {
        let mut soc = SocThermal::new(Cooling::fan());
        settle(&mut soc, &[Watts::ZERO; NUM_CORES], 100);
        assert!((soc.sensor().value() - 25.0).abs() < 0.01);
    }

    #[test]
    fn fully_loaded_fan_temperature_plausible() {
        // ~2 W per big core + ~0.45 W per LITTLE core: a heavy mixed load.
        let mut soc = SocThermal::new(Cooling::fan());
        let mut powers = [Watts::new(0.45); NUM_CORES];
        for c in Cluster::Big.cores() {
            powers[c.index()] = Watts::new(1.9);
        }
        let cluster_powers = [Watts::new(0.3); 2];
        let t = soc.steady_state_sensor(&powers, cluster_powers);
        assert!(
            t.value() > 40.0 && t.value() < 70.0,
            "fan-cooled full load should land in the paper's range, got {t}"
        );
        for _ in 0..6_000 {
            soc.step(&powers, cluster_powers, SimDuration::from_millis(100));
        }
        assert!((soc.sensor().value() - t.value()).abs() < 1.0);
    }

    #[test]
    fn passive_cooling_is_hotter() {
        let powers = {
            let mut p = [Watts::new(0.45); NUM_CORES];
            for c in Cluster::Big.cores() {
                p[c.index()] = Watts::new(1.9);
            }
            p
        };
        let fan = SocThermal::new(Cooling::fan()).steady_state_sensor(&powers, [Watts::ZERO; 2]);
        let nofan =
            SocThermal::new(Cooling::passive()).steady_state_sensor(&powers, [Watts::ZERO; 2]);
        assert!(
            nofan.value() > fan.value() + 10.0,
            "no-fan {nofan} should be well above fan {fan}"
        );
    }

    #[test]
    fn busy_core_is_hottest_and_heat_spreads() {
        let mut soc = SocThermal::new(Cooling::fan());
        let mut powers = [Watts::ZERO; NUM_CORES];
        powers[4] = Watts::new(2.0);
        settle(&mut soc, &powers, 300);
        let t4 = soc.core_temperature(CoreId::new(4)).value();
        let t5 = soc.core_temperature(CoreId::new(5)).value();
        let t7 = soc.core_temperature(CoreId::new(7)).value();
        let t0 = soc.core_temperature(CoreId::new(0)).value();
        assert!(
            t4 > t5 && t5 > t7,
            "heat should decay with distance: {t4} {t5} {t7}"
        );
        assert!(
            t7 > t0,
            "same-cluster cores should be warmer than other cluster"
        );
        assert!(
            t0 > 25.5,
            "even the far cluster should warm a little, got {t0}"
        );
    }

    #[test]
    fn switching_cooling_changes_trajectory() {
        let mut soc = SocThermal::new(Cooling::fan());
        let powers = [Watts::new(1.0); NUM_CORES];
        settle(&mut soc, &powers, 600);
        let with_fan = soc.sensor();
        soc.set_cooling(Cooling::passive());
        settle(&mut soc, &powers, 600);
        let without_fan = soc.sensor();
        assert!(without_fan.value() > with_fan.value() + 5.0);
    }

    #[test]
    fn set_cooling_matches_a_fresh_model() {
        let mut switched = SocThermal::new(Cooling::fan());
        switched.set_cooling(Cooling::passive());
        let mut fresh = SocThermal::new(Cooling::passive());
        let mut powers = [Watts::new(0.4); NUM_CORES];
        powers[5] = Watts::new(1.8);
        for _ in 0..1_000 {
            switched.step(&powers, [Watts::new(0.2); 2], SimDuration::from_millis(1));
            fresh.step(&powers, [Watts::new(0.2); 2], SimDuration::from_millis(1));
        }
        let bits = |soc: &SocThermal| -> Vec<u64> {
            soc.net
                .temperatures()
                .iter()
                .map(|t| t.value().to_bits())
                .collect()
        };
        assert_eq!(bits(&switched), bits(&fresh));
    }

    #[test]
    fn reset_to_ambient_clears_state() {
        let mut soc = SocThermal::new(Cooling::fan());
        settle(&mut soc, &[Watts::new(1.5); NUM_CORES], 100);
        assert!(soc.sensor().value() > 30.0);
        soc.reset_to_ambient();
        assert!((soc.sensor().value() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn perturbed_params_shift_steady_state_as_expected() {
        let powers = [Watts::new(1.0); NUM_CORES];
        let base = SocThermal::new(Cooling::fan()).steady_state_sensor(&powers, [Watts::ZERO; 2]);
        // Better cooling -> cooler; worse cooling -> hotter.
        let better = SocThermal::with_params(
            Cooling::fan(),
            ThermalParams {
                ambient_scale: 2.0,
                ..ThermalParams::default()
            },
        )
        .steady_state_sensor(&powers, [Watts::ZERO; 2]);
        let worse = SocThermal::with_params(
            Cooling::fan(),
            ThermalParams {
                ambient_scale: 0.5,
                ..ThermalParams::default()
            },
        )
        .steady_state_sensor(&powers, [Watts::ZERO; 2]);
        assert!(better.value() < base.value());
        assert!(worse.value() > base.value());
        // Capacity scaling must not change the steady state at all.
        let heavy = SocThermal::with_params(
            Cooling::fan(),
            ThermalParams {
                capacity_scale: 3.0,
                ..ThermalParams::default()
            },
        )
        .steady_state_sensor(&powers, [Watts::ZERO; 2]);
        assert!((heavy.value() - base.value()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn invalid_params_rejected() {
        let _ = SocThermal::with_params(
            Cooling::fan(),
            ThermalParams {
                lateral_scale: 0.0,
                ..ThermalParams::default()
            },
        );
    }

    #[test]
    fn sensor_is_max_of_die_nodes() {
        let mut soc = SocThermal::new(Cooling::fan());
        let mut powers = [Watts::ZERO; NUM_CORES];
        powers[6] = Watts::new(2.0);
        settle(&mut soc, &powers, 120);
        assert_eq!(soc.sensor(), soc.core_temperature(CoreId::new(6)));
    }
}
