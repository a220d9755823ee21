//! IL model creation and training (§4.3).
//!
//! A fully-connected network maps the 21 features of Table 2 to 8 per-core
//! ratings. The topology defaults to the paper's NAS winner (4 hidden
//! layers × 64 neurons); [`IlTrainer::nas`] reruns the grid search of
//! Fig. 3. Training uses Adam, MSE loss, an exponentially decaying
//! learning rate and early stopping — all implemented in the [`nn`] crate.

use hmc_types::NUM_CORES;
use nn::{nas, Dataset, Matrix, Mlp, Standardizer, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::features::{Features, FEATURE_COUNT};
use crate::oracle::{extract_cases, ExtractionConfig, OracleCase, Scenario, TraceCollector};

/// The deployable IL model: the trained network plus the feature
/// standardizer fitted on the training data.
///
/// # Examples
///
/// See [`IlTrainer::train`].
#[derive(Debug, Clone, PartialEq)]
pub struct IlModel {
    mlp: Mlp,
    standardizer: Standardizer,
}

impl IlModel {
    /// Wraps a trained network and its standardizer.
    pub fn new(mlp: Mlp, standardizer: Standardizer) -> Self {
        assert_eq!(mlp.input_size(), FEATURE_COUNT, "feature width mismatch");
        assert_eq!(mlp.output_size(), NUM_CORES, "output width mismatch");
        IlModel { mlp, standardizer }
    }

    /// The underlying network (e.g. for NPU compilation).
    pub fn mlp(&self) -> &Mlp {
        &self.mlp
    }

    /// The fitted feature standardizer.
    pub fn standardizer(&self) -> &Standardizer {
        &self.standardizer
    }

    /// Standardizes a batch of feature vectors into the network's input
    /// matrix (one row per AoI) — the tensor submitted to the NPU.
    pub fn standardized_batch(&self, features: &[Features]) -> Matrix {
        let rows = features
            .iter()
            .map(|f| self.standardizer.transform_row(&f.to_array()))
            .collect();
        Matrix::from_rows(rows)
    }

    /// Persists the model (network + standardizer) to a file in the plain
    /// text format of [`nn::persist`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        nn::persist::write_standardizer(&self.standardizer, &mut file)?;
        nn::persist::write_mlp(&self.mlp, &mut file)
    }

    /// Loads a model persisted with [`IlModel::save`].
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for malformed files or shape mismatches with
    /// the 21-feature / 8-output contract.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<IlModel> {
        let mut file = std::io::BufReader::new(std::fs::File::open(path)?);
        let standardizer = nn::persist::read_standardizer(&mut file)?;
        let mlp = nn::persist::read_mlp(&mut file)?;
        if mlp.input_size() != FEATURE_COUNT
            || mlp.output_size() != NUM_CORES
            || standardizer.width() != FEATURE_COUNT
        {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "model shape does not match the TOP-IL feature contract",
            ));
        }
        Ok(IlModel { mlp, standardizer })
    }

    /// Predicts the 8 per-core ratings for one AoI on the CPU.
    pub fn predict(&self, features: &Features) -> [f32; NUM_CORES] {
        let x = self.standardizer.transform_row(&features.to_array());
        let out = self.mlp.forward(&x);
        let mut ratings = [0.0f32; NUM_CORES];
        ratings.copy_from_slice(&out);
        ratings
    }
}

/// Settings of the full training pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainSettings {
    /// NN hyper-parameters (paper defaults).
    pub nn: TrainConfig,
    /// Training-data extraction sweep.
    pub extraction: ExtractionConfig,
    /// Hidden layers of the topology (NAS winner: 4).
    pub hidden_layers: usize,
    /// Neurons per hidden layer (NAS winner: 64).
    pub width: usize,
}

impl Default for TrainSettings {
    fn default() -> Self {
        TrainSettings {
            nn: TrainConfig::default(),
            extraction: ExtractionConfig::default(),
            hidden_layers: 4,
            width: 64,
        }
    }
}

/// The design-time training pipeline: scenarios → traces → oracle cases →
/// dataset → trained [`IlModel`].
#[derive(Debug, Clone, Default)]
pub struct IlTrainer {
    settings: TrainSettings,
    collector: TraceCollector,
    budget: par::Budget,
}

impl IlTrainer {
    /// Creates a trainer with the given settings and the default (fan,
    /// steady-state) trace collector.
    pub fn new(settings: TrainSettings) -> Self {
        IlTrainer {
            settings,
            collector: TraceCollector::new(),
            budget: par::Budget::serial(),
        }
    }

    /// Overrides the trace collector.
    pub fn with_collector(mut self, collector: TraceCollector) -> Self {
        self.collector = collector;
        self
    }

    /// Sets the thread budget for per-scenario trace collection. Each
    /// scenario's simulation is independent, so the cases are identical at
    /// every budget (results are assembled in scenario order).
    pub fn with_budget(mut self, budget: par::Budget) -> Self {
        self.budget = budget;
        self
    }

    /// The trainer's settings.
    pub fn settings(&self) -> &TrainSettings {
        &self.settings
    }

    /// Collects traces and extracts oracle cases for all scenarios,
    /// simulating scenarios in parallel under the trainer's budget.
    pub fn collect_cases(&self, scenarios: &[Scenario]) -> Vec<OracleCase> {
        par::par_map(&self.budget, scenarios, |_, s| {
            let traces = self.collector.collect(s);
            extract_cases(&traces, &self.settings.extraction)
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Flattens oracle cases into a supervised dataset (one example per
    /// source core) and fits the standardizer.
    pub fn build_dataset(cases: &[OracleCase]) -> (Dataset, Standardizer) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for case in cases {
            for source in &case.sources {
                xs.push(source.to_array().to_vec());
                ys.push(case.labels.to_vec());
            }
        }
        assert!(!xs.is_empty(), "no training examples extracted");
        let x_raw = Matrix::from_rows(xs);
        let standardizer = Standardizer::fit(&x_raw);
        let x = standardizer.transform(&x_raw);
        (Dataset::new(x, Matrix::from_rows(ys)), standardizer)
    }

    /// Runs the whole pipeline: traces, extraction, training. `seed`
    /// controls weight initialization and shuffling (the paper trains
    /// three models with different seeds).
    pub fn train(&self, scenarios: &[Scenario], seed: u64) -> IlModel {
        let cases = self.collect_cases(scenarios);
        self.train_from_cases(&cases, seed)
    }

    /// Trains from pre-extracted oracle cases (lets callers reuse traces
    /// across seeds, as the paper does).
    pub fn train_from_cases(&self, cases: &[OracleCase], seed: u64) -> IlModel {
        let (dataset, standardizer) = Self::build_dataset(cases);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mlp = Mlp::with_topology(
            FEATURE_COUNT,
            self.settings.hidden_layers,
            self.settings.width,
            NUM_CORES,
            &mut rng,
        );
        nn::train(&mut mlp, &dataset, &self.settings.nn, &mut rng);
        IlModel::new(mlp, standardizer)
    }

    /// The paper's NAS (Fig. 3): a grid search over depth × width on the
    /// extracted dataset.
    pub fn nas(
        &self,
        scenarios: &[Scenario],
        depths: &[usize],
        widths: &[usize],
        seeds: &[u64],
    ) -> nas::GridSearchResult {
        let cases = self.collect_cases(scenarios);
        let (dataset, _) = Self::build_dataset(&cases);
        nas::grid_search(
            FEATURE_COUNT,
            NUM_CORES,
            depths,
            widths,
            &dataset,
            &self.settings.nn,
            seeds,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_types::CoreId;

    fn quick_settings() -> TrainSettings {
        TrainSettings {
            nn: TrainConfig {
                max_epochs: 60,
                patience: 15,
                ..TrainConfig::default()
            },
            extraction: ExtractionConfig::default(),
            hidden_layers: 2,
            width: 32,
        }
    }

    #[test]
    fn pipeline_trains_a_usable_model() {
        let scenarios = Scenario::standard_set(6, 11);
        let trainer = IlTrainer::new(quick_settings());
        let cases = trainer.collect_cases(&scenarios);
        assert!(
            cases.len() > 100,
            "expected a rich case set, got {}",
            cases.len()
        );
        let model = trainer.train_from_cases(&cases, 0);

        // The model should rate the oracle-optimal core above the worst
        // feasible core in a clear majority of cases.
        let mut better = 0;
        let mut total = 0;
        for case in &cases {
            let Some(best) = case.optimal_core() else {
                continue;
            };
            let worst = case
                .temperatures
                .iter()
                .enumerate()
                .filter_map(|(i, t)| t.map(|t| (i, t)))
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .map(|(i, _)| CoreId::new(i))
                .unwrap();
            if best == worst {
                continue;
            }
            let ratings = model.predict(&case.sources[0]);
            if ratings[best.index()] > ratings[worst.index()] {
                better += 1;
            }
            total += 1;
        }
        assert!(
            total > 0 && better as f64 / total as f64 > 0.7,
            "model prefers optimal over worst in only {better}/{total} cases"
        );
    }

    #[test]
    fn training_is_seed_reproducible() {
        let scenarios = Scenario::standard_set(3, 5);
        let trainer = IlTrainer::new(quick_settings());
        let cases = trainer.collect_cases(&scenarios);
        let a = trainer.train_from_cases(&cases, 7);
        let b = trainer.train_from_cases(&cases, 7);
        assert_eq!(a, b);
        let c = trainer.train_from_cases(&cases, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn dataset_dimensions() {
        let scenarios = Scenario::standard_set(2, 1);
        let trainer = IlTrainer::new(quick_settings());
        let cases = trainer.collect_cases(&scenarios);
        let (dataset, standardizer) = IlTrainer::build_dataset(&cases);
        assert_eq!(dataset.x().cols(), FEATURE_COUNT);
        assert_eq!(dataset.y().cols(), NUM_CORES);
        assert_eq!(standardizer.width(), FEATURE_COUNT);
        let expected: usize = cases.iter().map(|c| c.sources.len()).sum();
        assert_eq!(dataset.len(), expected);
    }

    #[test]
    fn save_load_round_trip() {
        let scenarios = Scenario::standard_set(2, 4);
        let trainer = IlTrainer::new(quick_settings());
        let model = trainer.train(&scenarios, 0);
        let path = std::env::temp_dir().join("topil-model-roundtrip.txt");
        model.save(&path).unwrap();
        let back = IlModel::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(model, back);
    }

    #[test]
    fn load_rejects_wrong_shape() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let path = std::env::temp_dir().join("topil-model-bad-shape.txt");
        {
            let mut file = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
            let data = nn::Matrix::from_rows(vec![vec![0.0; 3], vec![1.0; 3]]);
            let standardizer = nn::Standardizer::fit(&data);
            nn::persist::write_standardizer(&standardizer, &mut file).unwrap();
            let mlp = nn::Mlp::new(&[3, 4, 2], &mut StdRng::seed_from_u64(0));
            nn::persist::write_mlp(&mlp, &mut file).unwrap();
        }
        let err = IlModel::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn predict_batch_matches_single() {
        let scenarios = Scenario::standard_set(2, 2);
        let trainer = IlTrainer::new(quick_settings());
        let cases = trainer.collect_cases(&scenarios);
        let model = trainer.train_from_cases(&cases, 1);
        let features: Vec<Features> = cases.iter().take(3).map(|c| c.sources[0]).collect();
        let batch = model.standardized_batch(&features);
        let out = model.mlp().forward_batch(&batch);
        for (i, f) in features.iter().enumerate() {
            let single = model.predict(f);
            #[allow(clippy::needless_range_loop)]
            for c in 0..NUM_CORES {
                assert!((single[c] - out.get(i, c)).abs() < 1e-5);
            }
        }
    }
}
