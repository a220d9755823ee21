//! **Thermal-model sensitivity analysis** (extension beyond the paper).
//!
//! The reproduction replaces the paper's physical testbed with a lumped RC
//! thermal model, so every conclusion could in principle be an artifact of
//! that calibration. This experiment perturbs the thermal parameters by
//! ±50 % (lateral spreading, vertical stack, heat capacity, cooling
//! effectiveness) and re-runs the headline comparison: the paper's
//! qualitative conclusions must hold under **every** perturbation:
//!
//! 1. TOP-IL is cooler than GTS/ondemand,
//! 2. GTS/powersave is coolest but violates far more targets,
//! 3. TOP-IL keeps violations near zero.

use std::fmt;

use governors::LinuxGovernor;
use hikey_platform::{Policy, SimConfig, Simulator};
use hmc_types::SimDuration;
use rand::rngs::StdRng;
use rand::SeedableRng;
use thermal::ThermalParams;
use topil::TopIlGovernor;
use workloads::{MixedWorkloadConfig, WorkloadGenerator};

use crate::harness::{Effort, TrainedArtifacts};

/// Results for one thermal perturbation.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityRow {
    /// Perturbation label.
    pub label: String,
    /// `(policy, avg temp °C, violations)` triples.
    pub outcomes: Vec<(String, f64, usize)>,
}

impl SensitivityRow {
    fn metric(&self, policy: &str) -> Option<(f64, usize)> {
        self.outcomes
            .iter()
            .find(|(p, _, _)| p == policy)
            .map(|&(_, t, v)| (t, v))
    }

    /// Whether the paper's qualitative conclusions hold under this
    /// perturbation.
    pub fn conclusions_hold(&self) -> bool {
        let Some((t_il, v_il)) = self.metric("TOP-IL") else {
            return false;
        };
        let Some((t_on, _)) = self.metric("GTS/ondemand") else {
            return false;
        };
        let Some((t_ps, v_ps)) = self.metric("GTS/powersave") else {
            return false;
        };
        t_il < t_on && t_ps <= t_il + 0.5 && v_ps > v_il + 2
    }
}

/// The sensitivity report.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityReport {
    /// One row per perturbation.
    pub rows: Vec<SensitivityRow>,
}

impl fmt::Display for SensitivityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Thermal-model sensitivity — headline conclusions under ±50 % parameter perturbations"
        )?;
        for row in &self.rows {
            writeln!(f, "\n{}:", row.label)?;
            for (policy, temp, violations) in &row.outcomes {
                writeln!(
                    f,
                    "  {policy:<16} {temp:>7.2} °C  {violations:>2} violations"
                )?;
            }
            writeln!(
                f,
                "  conclusions hold: {}",
                if row.conclusions_hold() { "yes" } else { "NO" }
            )?;
        }
        Ok(())
    }
}

/// The perturbation grid.
pub fn perturbations() -> Vec<(String, ThermalParams)> {
    let base = ThermalParams::default();
    vec![
        ("calibrated".to_string(), base),
        (
            "lateral x0.5".to_string(),
            ThermalParams {
                lateral_scale: 0.5,
                ..base
            },
        ),
        (
            "lateral x2.0".to_string(),
            ThermalParams {
                lateral_scale: 2.0,
                ..base
            },
        ),
        (
            "stack x0.5".to_string(),
            ThermalParams {
                stack_scale: 0.5,
                ..base
            },
        ),
        (
            "stack x2.0".to_string(),
            ThermalParams {
                stack_scale: 2.0,
                ..base
            },
        ),
        (
            "capacity x0.5".to_string(),
            ThermalParams {
                capacity_scale: 0.5,
                ..base
            },
        ),
        (
            "capacity x2.0".to_string(),
            ThermalParams {
                capacity_scale: 2.0,
                ..base
            },
        ),
        (
            "cooling x0.7".to_string(),
            ThermalParams {
                ambient_scale: 0.7,
                ..base
            },
        ),
        (
            "cooling x1.5".to_string(),
            ThermalParams {
                ambient_scale: 1.5,
                ..base
            },
        ),
    ]
}

/// Runs the sensitivity sweep with the first trained model.
pub fn run(artifacts: &TrainedArtifacts, effort: Effort) -> SensitivityReport {
    let workload_cfg = MixedWorkloadConfig {
        num_apps: 12,
        mean_interarrival: SimDuration::from_secs(6),
        total_instructions: Some(effort.app_instructions()),
        ..MixedWorkloadConfig::default()
    };
    let workload = WorkloadGenerator::mixed(&workload_cfg, &mut StdRng::seed_from_u64(99));

    let rows = perturbations()
        .into_iter()
        .map(|(label, params)| {
            let sim = SimConfig {
                max_duration: SimDuration::from_secs(1200),
                thermal_params: params,
                ..SimConfig::default()
            };
            let mut outcomes = Vec::new();
            let mut run_one = |mut policy: Box<dyn Policy>| {
                let report = Simulator::new(sim).run(&workload, policy.as_mut());
                outcomes.push((
                    report.policy.clone(),
                    report.metrics.avg_temperature().value(),
                    report.metrics.qos_violations(),
                ));
            };
            run_one(Box::new(TopIlGovernor::new(artifacts.il_models[0].clone())));
            run_one(Box::new(LinuxGovernor::gts_ondemand()));
            run_one(Box::new(LinuxGovernor::gts_powersave()));
            SensitivityRow { label, outcomes }
        })
        .collect();
    SensitivityReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::train_artifacts;
    use hikey_platform::THERMAL_PERIOD;
    use thermal::{Cooling, SocThermal};

    /// The platform's thermal step integrates a whole `THERMAL_PERIOD` at
    /// once; under every perturbation and both coolings that must stay a
    /// single forward-Euler sub-step (the tightest, `capacity x0.5`, has a
    /// 30 ms limit).
    #[test]
    fn thermal_period_is_one_euler_substep_under_every_perturbation() {
        let mut tightest = f64::INFINITY;
        for (label, params) in perturbations() {
            for cooling in [Cooling::fan(), Cooling::passive()] {
                let dt_max = SocThermal::with_params(cooling, params).dt_max();
                assert!(
                    THERMAL_PERIOD.as_secs_f64() <= dt_max,
                    "`{label}` ({}): thermal period exceeds dt_max {dt_max} s",
                    cooling.name()
                );
                tightest = tightest.min(dt_max);
            }
        }
        assert!(
            (tightest - 0.030).abs() < 1e-9,
            "tightest dt_max {tightest}"
        );
    }

    #[test]
    fn conclusions_robust_to_thermal_calibration() {
        let artifacts = train_artifacts(Effort::Quick);
        let report = run(&artifacts, Effort::Quick);
        assert_eq!(report.rows.len(), 9);
        for row in &report.rows {
            assert!(
                row.conclusions_hold(),
                "conclusions break under `{}`: {:?}",
                row.label,
                row.outcomes
            );
        }
    }
}
