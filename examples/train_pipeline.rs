//! The full design-time pipeline, step by step: oracle trace collection,
//! training-data extraction with soft labels, NAS over the topology grid,
//! final training, NPU compilation, and isolated model evaluation.
//!
//! ```text
//! cargo run --example train_pipeline
//! ```

use nn::Matrix;
use npu::{KernelMode, NpuDevice, NpuModel};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use top_il::prelude::*;
use topil::eval::evaluate_model;
use topil::oracle::{extract_cases, ExtractionConfig};
use topil::training::IlTrainer;

fn main() {
    // 1. Scenarios: combinations of AoI and background applications.
    let scenarios = Scenario::standard_set(20, 1234);
    println!(
        "step 1: {} scenarios (AoIs from the 7-benchmark training set)",
        scenarios.len()
    );

    // 2. Trace collection over the reduced V/f grid (fan cooling).
    let collector = TraceCollector::new();
    let traces: Vec<_> = scenarios.iter().map(|s| collector.collect(s)).collect();
    let points: usize = traces
        .iter()
        .map(|t| t.free_cores().len() * t.little_freqs.len() * t.big_freqs.len())
        .sum();
    println!("step 2: collected {points} trace points");

    // 3. Training-data extraction: sweep QoS targets and background V/f
    //    requirements, label with Eq. 4.
    let config = ExtractionConfig::default();
    let cases: Vec<_> = traces
        .iter()
        .flat_map(|t| extract_cases(t, &config))
        .collect();
    let examples: usize = cases.iter().map(|c| c.sources.len()).sum();
    println!(
        "step 3: {} labeled cases -> {examples} training examples",
        cases.len()
    );

    // 4. NAS over depth x width (a reduced grid for the example).
    let settings = TrainSettings::default();
    let trainer = IlTrainer::new(settings.clone());
    let (dataset, _) = IlTrainer::build_dataset(&cases);
    let nas = nn::nas::grid_search(
        topil::FEATURE_COUNT,
        8,
        &[2, 4],
        &[32, 64],
        &dataset,
        &settings.nn,
        &[0],
    );
    for p in &nas.points {
        println!(
            "step 4: topology {}x{:<3} -> val loss {:.4}",
            p.hidden_layers, p.width, p.val_loss
        );
    }
    let best = nas.best();
    println!(
        "step 4: best topology {}x{}",
        best.hidden_layers, best.width
    );

    // 5. Final training (three seeds, like the paper).
    let models: Vec<IlModel> = (0..3)
        .map(|seed| trainer.train_from_cases(&cases, seed))
        .collect();
    println!("step 5: trained {} models", models.len());

    // 6. NPU compilation and a sanity batch inference.
    let compiled = NpuModel::compile(models[0].mlp());
    let device = NpuDevice::kirin970();
    let batch = Matrix::from_rows(vec![vec![0.0; topil::FEATURE_COUNT]; 4]);
    assert_eq!(compiled.infer(&batch, KernelMode::default()).rows(), 4);
    println!(
        "step 6: compiled to {} int8 weight bytes; batch-4 inference in {} (host CPU {})",
        compiled.weight_bytes(),
        device.inference_latency(&compiled, batch.rows()),
        device.host_cpu_time(batch.rows()),
    );

    // 7. Isolated evaluation on unseen-AoI oracle cases.
    let mut rng = StdRng::seed_from_u64(99);
    let unseen = Benchmark::unseen_set();
    let test_cases: Vec<_> = (0..5)
        .flat_map(|_| {
            let mut s = Scenario::random(&mut rng);
            s.aoi = unseen[rng.random_range(0..unseen.len())];
            extract_cases(&collector.collect(&s), &config)
        })
        .collect();
    for (i, model) in models.iter().enumerate() {
        let result = evaluate_model(model, &test_cases);
        println!(
            "step 7: seed {i}: within 1 °C in {:.0} % of {} decisions, mean excess {:.2} K",
            result.within_1c * 100.0,
            result.decisions,
            result.mean_excess,
        );
    }
}
