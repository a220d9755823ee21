//! Shared infrastructure of the golden test suites: the canonical traced
//! runs, golden-fixture I/O with `BLESS=1` regeneration for trace hashes
//! and CSV digests alike, and the RNG fingerprint that gates fixtures
//! blessed under a different `StdRng` implementation (the offline build
//! substitutes a stub stream).

#![allow(dead_code)]

use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use top_il::prelude::*;
use top_il::trace::Fnv64;
use top_il::workloads::ArrivalSpec;

/// Fingerprint of the ambient `StdRng` stream. Golden fixtures for
/// RNG-sensitive governors record this value; a fixture blessed under a
/// different stream (e.g. the offline stub) is skipped, not failed.
pub fn rng_fingerprint() -> String {
    let mut rng = StdRng::seed_from_u64(0x51D);
    let mut hasher = Fnv64::new();
    for _ in 0..8 {
        hasher.write_u64(rng.next_u64());
    }
    format!("{:016x}", hasher.finish())
}

/// Fingerprint sentinel for runs that draw no random numbers at all.
pub const FINGERPRINT_ANY: &str = "any";

/// The fixed, RNG-free workload every golden run uses: three staggered
/// applications whose optimal mappings differ (adi wants big, seidel-2d
/// wants LITTLE).
pub fn golden_workload() -> Workload {
    Workload::new(vec![
        ArrivalSpec {
            at: SimTime::ZERO,
            benchmark: Benchmark::Adi,
            qos: QosSpec::FractionOfMaxBig(0.3),
            total_instructions: Some(6_000_000_000),
        },
        ArrivalSpec {
            at: SimTime::from_millis(500),
            benchmark: Benchmark::SeidelTwoD,
            qos: QosSpec::FractionOfMaxBig(0.25),
            total_instructions: Some(5_000_000_000),
        },
        ArrivalSpec {
            at: SimTime::from_secs(1),
            benchmark: Benchmark::Syr2k,
            qos: QosSpec::FractionOfMaxBig(0.3),
            total_instructions: Some(6_000_000_000),
        },
    ])
}

/// The shared simulation configuration of every golden run: fixed 10 s,
/// full-granularity tracing, pristine hardware.
pub fn golden_sim() -> SimConfig {
    SimConfig {
        max_duration: SimDuration::from_secs(10),
        stop_when_idle: false,
        trace: TraceConfig::full(),
        ..SimConfig::default()
    }
}

/// A quickly trained IL model (same budget as the determinism suite).
pub fn quick_model(seed: u64) -> IlModel {
    let scenarios = Scenario::standard_set(6, 9);
    let mut settings = TrainSettings::default();
    settings.nn.max_epochs = 30;
    IlTrainer::new(settings).train(&scenarios, seed)
}

/// A run whose observable output a golden fixture pins.
pub trait Golden {
    /// Directory of this kind's fixtures, relative to `tests/golden`.
    const DIR: &'static str;
    /// Fixture header naming the kind of output pinned.
    const TITLE: &'static str;
    /// The test target whose `BLESS=1` run regenerates these fixtures.
    const SUITE: &'static str;

    /// The fields the fixture records, in file order (the RNG
    /// fingerprint is appended after them).
    fn fields(&self) -> Vec<(&'static str, String)>;

    /// How `rerun`, a repeat of the identical run, diverged from this
    /// one; `None` when the two are the same.
    fn divergence(&self, rerun: &Self) -> Option<String>;
}

impl Golden for RunReport {
    const DIR: &'static str = "";
    const TITLE: &'static str = "Golden trace fixture";
    const SUITE: &'static str = "golden_traces";

    fn fields(&self) -> Vec<(&'static str, String)> {
        let log = self.events.as_ref().expect("golden runs enable tracing");
        vec![
            ("policy", self.policy.clone()),
            ("hash", log.hash.to_string()),
            ("events", log.emitted.to_string()),
        ]
    }

    fn divergence(&self, rerun: &Self) -> Option<String> {
        let log = self.events.as_ref().expect("golden runs enable tracing");
        let rerun_log = rerun.events.as_ref().expect("golden runs enable tracing");
        (log.hash != rerun_log.hash).then(|| top_il::trace::TraceDiff::new(log, rerun_log).report())
    }
}

/// The bytes of one harness CSV, pinned by their FNV-64 digest.
#[derive(Debug)]
pub struct CsvDigest {
    /// The CSV writer that produced the bytes (`fleet`, `chaos`, ...).
    pub csv: &'static str,
    /// The CSV itself.
    pub bytes: String,
}

impl Golden for CsvDigest {
    const DIR: &'static str = "digests";
    const TITLE: &'static str = "Golden CSV digest";
    const SUITE: &'static str = "golden_digests";

    fn fields(&self) -> Vec<(&'static str, String)> {
        let mut hasher = Fnv64::new();
        hasher.write_bytes(self.bytes.as_bytes());
        vec![
            ("csv", self.csv.to_string()),
            ("hash", format!("{:016x}", hasher.finish())),
            ("bytes", self.bytes.len().to_string()),
        ]
    }

    fn divergence(&self, rerun: &Self) -> Option<String> {
        if self.bytes == rerun.bytes {
            return None;
        }
        let a: Vec<&str> = self.bytes.lines().collect();
        let b: Vec<&str> = rerun.bytes.lines().collect();
        let first = (0..a.len().max(b.len()))
            .find(|&i| a.get(i) != b.get(i))
            .unwrap_or(a.len());
        Some(format!(
            "first differing line {}:\n  first run: {:?}\n  rerun:     {:?}",
            first + 1,
            a.get(first),
            b.get(first)
        ))
    }
}

/// The parameters of trained models, pinned bit for bit: every weight,
/// bias and standardizer value, in layer order, by its IEEE-754 bits.
/// A training drift then shows up here, at the training layer, before it
/// reaches any simulator CSV.
#[derive(Debug)]
pub struct ModelDigest {
    /// Each model's name and its parameters' bit patterns.
    pub models: Vec<(&'static str, Vec<u32>)>,
}

impl ModelDigest {
    /// Flattens `models` into their parameter bits.
    pub fn of(models: &[(&'static str, &IlModel)]) -> Self {
        let models = models
            .iter()
            .map(|&(name, model)| {
                let mlp = model.mlp();
                let standardizer = model.standardizer();
                let mut bits = Vec::new();
                for i in 0..mlp.layer_count() {
                    bits.extend(mlp.weights(i).as_slice().iter().map(|v| v.to_bits()));
                    bits.extend(mlp.biases(i).iter().map(|v| v.to_bits()));
                }
                bits.extend(standardizer.mean().iter().map(|v| v.to_bits()));
                bits.extend(standardizer.std().iter().map(|v| v.to_bits()));
                (name, bits)
            })
            .collect();
        ModelDigest { models }
    }
}

impl Golden for ModelDigest {
    const DIR: &'static str = "digests";
    const TITLE: &'static str = "Golden model digest";
    const SUITE: &'static str = "golden_digests";

    fn fields(&self) -> Vec<(&'static str, String)> {
        let mut fields = Vec::new();
        for (name, bits) in &self.models {
            let mut hasher = Fnv64::new();
            for &b in bits {
                hasher.write_bytes(&b.to_le_bytes());
            }
            fields.push((*name, format!("{:016x}", hasher.finish())));
        }
        fields
    }

    fn divergence(&self, rerun: &Self) -> Option<String> {
        self.models
            .iter()
            .zip(&rerun.models)
            .find_map(|((name, a), (_, b))| {
                let at = (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i))?;
                Some(format!(
                    "{name}: first differing parameter {at}: {:?} vs {:?}",
                    a.get(at).map(|&v| f32::from_bits(v)),
                    b.get(at).map(|&v| f32::from_bits(v))
                ))
            })
    }
}

fn fixture_dir<G: Golden>() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(G::DIR)
}

/// Parses `key=value` lines, skipping blanks and `#` comments.
fn parse_fixture(name: &str, contents: &str) -> Vec<(String, String)> {
    contents
        .lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| {
            let (key, value) = line
                .split_once('=')
                .unwrap_or_else(|| panic!("malformed fixture line in {name}: {line:?}"));
            (key.to_string(), value.to_string())
        })
        .collect()
}

fn render_fixture<G: Golden>(fields: &[(&'static str, String)], fingerprint: &str) -> String {
    let mut out = format!(
        "# {} — regenerate with: BLESS=1 cargo test --test {}\n",
        G::TITLE,
        G::SUITE
    );
    for (key, value) in fields {
        out.push_str(&format!("{key}={value}\n"));
    }
    out.push_str(&format!("fingerprint={fingerprint}\n"));
    out
}

/// Runs `run` and compares its output against the committed fixture
/// `tests/golden/<G::DIR>/<name>.golden`.
///
/// * `BLESS=1` rewrites the fixture from the current run instead.
/// * `rng_sensitive` marks runs whose output depends on the `StdRng`
///   stream (model training, ε-greedy exploration, seeded payloads);
///   their fixtures are skipped under a different stream rather than
///   failed.
/// * On a mismatch the run is repeated: if the rerun diverges too, the
///   failure is in-process nondeterminism and the report pinpoints the
///   first divergence; otherwise the behavior drifted from the fixture
///   and the message says how to re-bless.
pub fn check_golden<G: Golden>(name: &str, rng_sensitive: bool, run: impl Fn() -> G) {
    let path = fixture_dir::<G>().join(format!("{name}.golden"));
    let output = run();
    let fields = output.fields();
    let fingerprint = if rng_sensitive {
        rng_fingerprint()
    } else {
        FINGERPRINT_ANY.to_string()
    };

    if std::env::var("BLESS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(fixture_dir::<G>()).expect("create the fixture directory");
        std::fs::write(&path, render_fixture::<G>(&fields, &fingerprint)).expect("write fixture");
        eprintln!("blessed {}", path.display());
        return;
    }

    let contents = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); generate it with \
             `BLESS=1 cargo test --test {}`",
            path.display(),
            G::SUITE
        )
    });
    let mut fixture = parse_fixture(name, &contents);
    let blessed_under = match fixture.iter().position(|(key, _)| key == "fingerprint") {
        Some(at) => fixture.remove(at).1,
        None => panic!("fixture {name} misses `fingerprint`"),
    };
    for (key, _) in &fixture {
        assert!(
            fields.iter().any(|(k, _)| k == key),
            "unknown fixture key in {name}: {key:?}"
        );
    }
    if blessed_under != FINGERPRINT_ANY && blessed_under != fingerprint {
        eprintln!(
            "skipping golden fixture {name}: blessed under StdRng fingerprint \
             {blessed_under}, current stream is {fingerprint}"
        );
        return;
    }

    let expected: Vec<(&str, &str)> = fixture
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    let got: Vec<(&str, &str)> = fields.iter().map(|(k, v)| (*k, v.as_str())).collect();
    if expected == got {
        return;
    }

    // Mismatch: a rerun separates nondeterminism from behavior drift.
    if let Some(diff) = output.divergence(&run()) {
        panic!("golden run {name} is nondeterministic: two identical runs diverged.\n{diff}");
    }
    panic!(
        "golden mismatch for {name}:\n  fixture: {expected:?}\n  current: {got:?}\n\
         If the behavior change is intentional, re-bless with \
         `BLESS=1 cargo test --test {}`.",
        G::SUITE
    );
}
