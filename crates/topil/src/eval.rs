//! Isolated model evaluation (§7.4).
//!
//! Splits benchmarks by AoI (seven train / rest test), predicts a mapping
//! for every oracle case and compares the resulting temperature with the
//! optimum. The paper reports 82 ± 5 % of decisions within 1 °C and a mean
//! excess of 0.5 ± 0.2 °C.

use hmc_types::CoreId;

use crate::oracle::OracleCase;
use crate::training::IlModel;

/// Aggregate model-evaluation metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalResult {
    /// Decisions evaluated (one per source per case).
    pub decisions: usize,
    /// Fraction of decisions whose mapping lies within 1 °C of the optimum.
    pub within_1c: f64,
    /// Mean temperature excess over the optimum, in kelvin (feasible
    /// choices only).
    pub mean_excess: f64,
    /// Fraction of decisions that chose a QoS-infeasible mapping.
    pub infeasible_rate: f64,
}

/// Evaluates `model` against oracle `cases`: for every source feature
/// vector the model's argmax over the free cores is compared with the
/// oracle's optimum.
pub fn evaluate_model(model: &IlModel, cases: &[OracleCase]) -> EvalResult {
    let mut decisions = 0usize;
    let mut within = 0usize;
    let mut excess_sum = 0.0f64;
    let mut excess_n = 0usize;
    let mut infeasible = 0usize;

    for case in cases {
        let Some(t_min) = case
            .temperatures
            .iter()
            .flatten()
            .map(|t| t.value())
            .min_by(|a, b| a.total_cmp(b))
        else {
            continue; // no feasible mapping at all
        };
        // Candidate cores: the free ones (label != 0 means free here:
        // either feasible (>0) or infeasible (-1)).
        let candidates: Vec<CoreId> = (0..case.labels.len())
            .filter(|&i| case.labels[i] != 0.0)
            .map(CoreId::new)
            .collect();
        for source in &case.sources {
            let ratings = model.predict(source);
            let Some(chosen) = candidates
                .iter()
                .copied()
                .max_by(|a, b| ratings[a.index()].total_cmp(&ratings[b.index()]))
            else {
                continue; // a case with no free core yields no decision
            };
            decisions += 1;
            match case.temperatures[chosen.index()] {
                Some(t) => {
                    let excess = t.value() - t_min;
                    excess_sum += excess;
                    excess_n += 1;
                    if excess <= 1.0 {
                        within += 1;
                    }
                }
                None => infeasible += 1,
            }
        }
    }

    EvalResult {
        decisions,
        within_1c: within as f64 / decisions.max(1) as f64,
        mean_excess: excess_sum / excess_n.max(1) as f64,
        infeasible_rate: infeasible as f64 / decisions.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{Scenario, TraceCollector};
    use crate::training::{IlTrainer, TrainSettings};
    use nn::TrainConfig;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use workloads::Benchmark;

    fn settings() -> TrainSettings {
        TrainSettings {
            nn: TrainConfig {
                max_epochs: 100,
                patience: 20,
                ..TrainConfig::default()
            },
            ..TrainSettings::default()
        }
    }

    /// A test-only scenario generator over the *unseen* benchmark set.
    fn unseen_scenarios(n: usize, seed: u64) -> Vec<Scenario> {
        let mut rng = StdRng::seed_from_u64(seed);
        let pool = Benchmark::unseen_set();
        (0..n)
            .map(|_| {
                let mut s = Scenario::random(&mut rng);
                s.aoi = pool[rng.random_range(0..pool.len())];
                s
            })
            .collect()
    }

    #[test]
    fn trained_model_beats_random_on_unseen_aois() {
        let trainer = IlTrainer::new(settings());
        let model = trainer.train(&Scenario::standard_set(14, 91), 0);

        let collector = TraceCollector::new();
        let test_cases: Vec<_> = unseen_scenarios(4, 17)
            .iter()
            .flat_map(|s| {
                let traces = collector.collect(s);
                crate::oracle::extract_cases(&traces, &Default::default())
            })
            .collect();

        let result = evaluate_model(&model, &test_cases);
        assert!(result.decisions > 50);
        assert!(
            result.within_1c > 0.5,
            "model within 1°C only {:.0}% of the time",
            result.within_1c * 100.0
        );
        assert!(
            result.mean_excess < 3.0,
            "mean excess {:.2} °C too high",
            result.mean_excess
        );
    }

    #[test]
    fn perfect_oracle_model_scores_one() {
        // Evaluating a model that always predicts the labels themselves
        // must give within_1c = 1.0 - sanity of the metric plumbing.
        // We emulate it by scoring the oracle labels directly: pick cases
        // and check that choosing the optimal core yields zero excess.
        let collector = TraceCollector::new();
        let scenarios = Scenario::standard_set(2, 7);
        for s in &scenarios {
            let traces = collector.collect(s);
            let cases = crate::oracle::extract_cases(&traces, &Default::default());
            for case in cases {
                if let Some(best) = case.optimal_core() {
                    let t_best = case.temperatures[best.index()].unwrap();
                    let t_min = case
                        .temperatures
                        .iter()
                        .flatten()
                        .fold(t_best, |m, &t| m.min(t));
                    assert_eq!(t_best, t_min);
                }
            }
        }
    }
}
