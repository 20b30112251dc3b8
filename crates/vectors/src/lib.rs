//! Golden-vector regression corpus for the attack/defense pipeline.
//!
//! A committed directory of canonical artifacts — ZigBee chip sequences,
//! WiFi-emulated baseband blocks, impaired channel outputs, detector
//! feature triples, gateway JSONL event streams — regenerated through the
//! *live* code on every CI run and compared under per-stage tolerances.
//! A regression anywhere in TX → emulation → channel → RX → detection
//! surfaces as a first-divergence report naming the stage, the sample, and
//! the magnitude, instead of a downstream accuracy metric quietly shifting.
//!
//! Three layers:
//!
//! - [`mod@format`] — the self-describing `.ctcv` container (kind, tolerance,
//!   checksum travel with the data).
//! - [`corpus`] — deterministic generation: every stage a pure function of
//!   a [`CorpusSpec`], stochastic stages seeded with the same splitmix
//!   scheme the Monte-Carlo engine uses.
//! - [`mod@compare`] — tolerance-aware comparison with first-divergence
//!   reporting (bit-exact for digital stages, ULP/epsilon bands for float
//!   DSP stages).
//!
//! Corpus-level operations ([`write_corpus`], [`read_corpus`],
//! [`check_corpus`]) tie them together around a `manifest.json` that
//! records the generation spec and per-file checksums for review.

pub mod compare;
pub mod corpus;
pub mod format;

pub use compare::{compare, deviation, Deviation, Divergence, StageFailure, StageReport};
pub use corpus::{generate, normalize_events, CorpusSpec, CORPUS_SEED, STAGE_NAMES};
pub use format::{Kind, Payload, Tolerance, Vector, FORMAT_VERSION};

use ctc_obs::json::{hex, parse, unhex, JsonObject, JsonValue};
use std::fs;
use std::io;
use std::path::Path;

/// The corpus index file name.
pub const MANIFEST_NAME: &str = "manifest.json";

/// Writes a corpus directory: one `.ctcv` file per vector plus
/// [`MANIFEST_NAME`] recording the spec and per-file checksums.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_corpus(dir: &Path, spec: &CorpusSpec, vectors: &[Vector]) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    for v in vectors {
        fs::write(dir.join(v.file_name()), v.encode())?;
    }
    fs::write(dir.join(MANIFEST_NAME), manifest_json(spec, vectors))?;
    Ok(())
}

/// Renders the manifest: generation parameters plus a per-vector index
/// (name, kind, tolerance, element count, FNV-1a 64 checksum).
pub fn manifest_json(spec: &CorpusSpec, vectors: &[Vector]) -> String {
    let entries: Vec<String> = vectors
        .iter()
        .map(|v| {
            JsonObject::new()
                .string("name", &v.name)
                .string("file", &v.file_name())
                .string("kind", v.payload.kind().name())
                .string("tolerance", &v.tolerance.describe())
                .uint("elements", v.payload.len() as u64)
                .string("fnv64", &format!("{:016x}", v.checksum()))
                .finish()
        })
        .collect();
    let mut manifest = JsonObject::new()
        .uint("format_version", u64::from(FORMAT_VERSION))
        // Seed as a string: JSON numbers are f64 and would corrupt seeds
        // above 2^53.
        .string("seed", &spec.seed.to_string())
        .string("payload_hex", &hex(&spec.payload))
        .float("snr_db", spec.snr_db)
        .float("cfo_hz", spec.cfo_hz)
        .float("phase_rad", spec.phase_rad)
        .raw("vectors", &format!("[\n  {}\n]", entries.join(",\n  ")))
        .finish();
    manifest.push('\n');
    manifest
}

fn bad_corpus(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn manifest_str<'a>(m: &'a JsonValue, key: &str) -> io::Result<&'a str> {
    m.get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| bad_corpus(format!("manifest: missing string field {key:?}")))
}

fn manifest_f64(m: &JsonValue, key: &str) -> io::Result<f64> {
    m.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| bad_corpus(format!("manifest: missing number field {key:?}")))
}

/// Reads a corpus directory back: parses the manifest, loads every listed
/// `.ctcv` file, and cross-checks each file's payload checksum against the
/// manifest entry (so a stale manifest is as loud as a corrupt vector).
///
/// # Errors
///
/// `InvalidData` for manifest/vector disagreement or corruption; other
/// I/O errors pass through.
pub fn read_corpus(dir: &Path) -> io::Result<(CorpusSpec, Vec<Vector>)> {
    let manifest_path = dir.join(MANIFEST_NAME);
    let text = fs::read_to_string(&manifest_path)?;
    let manifest = parse(&text).map_err(|e| bad_corpus(format!("manifest: {e}")))?;

    let version = manifest_f64(&manifest, "format_version")? as u64;
    if version != u64::from(FORMAT_VERSION) {
        return Err(bad_corpus(format!(
            "manifest format_version {version} (this build reads {FORMAT_VERSION})"
        )));
    }
    let spec = CorpusSpec {
        seed: manifest_str(&manifest, "seed")?
            .parse()
            .map_err(|e| bad_corpus(format!("manifest: bad seed: {e}")))?,
        payload: unhex(manifest_str(&manifest, "payload_hex")?)
            .ok_or_else(|| bad_corpus("manifest: bad payload_hex".into()))?,
        snr_db: manifest_f64(&manifest, "snr_db")?,
        cfo_hz: manifest_f64(&manifest, "cfo_hz")?,
        phase_rad: manifest_f64(&manifest, "phase_rad")?,
    };

    let entries = manifest
        .get("vectors")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| bad_corpus("manifest: missing vectors array".into()))?;
    let mut vectors = Vec::with_capacity(entries.len());
    for entry in entries {
        let name = manifest_str(entry, "name")?;
        let file = manifest_str(entry, "file")?;
        let fnv64 = manifest_str(entry, "fnv64")?;
        let vector = Vector::read_from(fs::File::open(dir.join(file))?)?;
        if vector.name != name {
            return Err(bad_corpus(format!(
                "{file}: names itself {:?} but manifest says {name:?}",
                vector.name
            )));
        }
        let sum = format!("{:016x}", vector.checksum());
        if sum != fnv64 {
            return Err(bad_corpus(format!(
                "{file}: checksum {sum} does not match manifest {fnv64} \
                 (regenerate the corpus or restore the file)"
            )));
        }
        vectors.push(vector);
    }
    Ok((spec, vectors))
}

/// Why a corpus check failed.
#[derive(Debug)]
pub enum CheckError {
    /// Corpus directory unreadable, corrupt, or inconsistent.
    Io(io::Error),
    /// Live regeneration itself failed.
    Generate(ctc_core::Error),
    /// The live pipeline produces a stage the corpus does not contain
    /// (stale corpus after adding a stage).
    MissingStage(String),
    /// The corpus contains a stage the live pipeline no longer produces.
    ExtraStage(String),
    /// A stage replayed outside its tolerance. Carries the first
    /// out-of-tolerance location plus whole-stage deviation statistics.
    Diverged(Box<StageFailure>),
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::Io(e) => write!(f, "corpus unreadable: {e}"),
            CheckError::Generate(e) => write!(f, "regeneration failed: {e}"),
            CheckError::MissingStage(s) => write!(
                f,
                "stage {s:?} exists in the live pipeline but not in the corpus \
                 (run `ctc vectors generate` and commit the result)"
            ),
            CheckError::ExtraStage(s) => write!(
                f,
                "corpus stage {s:?} is no longer produced by the live pipeline"
            ),
            CheckError::Diverged(d) => d.fmt(f),
        }
    }
}

impl std::error::Error for CheckError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckError::Io(e) => Some(e),
            CheckError::Generate(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckError {
    fn from(e: io::Error) -> Self {
        CheckError::Io(e)
    }
}

/// Replays the committed corpus through the live pipeline and compares
/// every stage. The regression gate CI runs on every PR.
///
/// # Errors
///
/// The first [`CheckError`] encountered — an unreadable/corrupt corpus, a
/// stage-set mismatch, or the first out-of-tolerance divergence.
pub fn check_corpus(dir: &Path) -> Result<Vec<StageReport>, CheckError> {
    let (spec, golden) = read_corpus(dir)?;
    let live = generate(&spec).map_err(CheckError::Generate)?;
    pair_stages(&golden, &live)?
        .into_iter()
        .map(|(g, l)| {
            compare(g, l).map_err(|divergence| {
                CheckError::Diverged(Box::new(StageFailure {
                    divergence: *divergence,
                    stats: compare::full_scan_report(g, l),
                }))
            })
        })
        .collect()
}

/// Full-scan diff of the committed corpus against a live regeneration:
/// per-stage deviation statistics even when everything passes.
///
/// # Errors
///
/// Same as [`check_corpus`] for unreadable corpora and stage-set
/// mismatches; divergences are *reported*, not returned as errors.
pub fn diff_corpus(dir: &Path) -> Result<Vec<Deviation>, CheckError> {
    let (spec, golden) = read_corpus(dir)?;
    let live = generate(&spec).map_err(CheckError::Generate)?;
    Ok(pair_stages(&golden, &live)?
        .into_iter()
        .map(|(g, l)| deviation(g, l))
        .collect())
}

/// Pairs golden and live vectors by stage name, in live order; both
/// directions of a stage-set mismatch are errors.
fn pair_stages<'a>(
    golden: &'a [Vector],
    live: &'a [Vector],
) -> Result<Vec<(&'a Vector, &'a Vector)>, CheckError> {
    if let Some(extra) = golden
        .iter()
        .find(|g| !live.iter().any(|l| l.name == g.name))
    {
        return Err(CheckError::ExtraStage(extra.name.clone()));
    }
    live.iter()
        .map(|l| {
            golden
                .iter()
                .find(|g| g.name == l.name)
                .map(|g| (g, l))
                .ok_or_else(|| CheckError::MissingStage(l.name.clone()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Self-cleaning temp dir under the target directory.
    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir =
                std::env::temp_dir().join(format!("ctc-vectors-{tag}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn small_spec() -> CorpusSpec {
        // Default spec, default seed — the same corpus CI commits.
        CorpusSpec::default()
    }

    #[test]
    fn corpus_roundtrips_and_checks_clean() {
        let tmp = TempDir::new("roundtrip");
        let spec = small_spec();
        let vectors = generate(&spec).unwrap();
        write_corpus(tmp.path(), &spec, &vectors).unwrap();

        let (read_spec, read_vectors) = read_corpus(tmp.path()).unwrap();
        assert_eq!(read_spec, spec);
        assert_eq!(read_vectors, vectors);

        let reports = check_corpus(tmp.path()).unwrap();
        assert_eq!(reports.len(), STAGE_NAMES.len());
        for r in &reports {
            assert_eq!(r.max_abs, 0.0, "{}", r.stage);
        }

        let diffs = diff_corpus(tmp.path()).unwrap();
        assert!(diffs.iter().all(|d| d.first_divergence.is_none()));
    }

    #[test]
    fn failed_check_names_stage_and_whole_stage_deviation() {
        let tmp = TempDir::new("diverged");
        let spec = small_spec();
        let mut vectors = generate(&spec).unwrap();
        // Corrupt one float stage: an early element a little out of
        // tolerance, a later element much worse — the report must surface
        // both the first divergence and the true worst element.
        let stage = vectors
            .iter_mut()
            .find(|v| v.name == "captured_4mhz")
            .unwrap();
        let Payload::Samples(s) = &mut stage.payload else {
            panic!("captured_4mhz holds samples");
        };
        s[3].re += 1e-6;
        s[40].im += 1e-3;
        write_corpus(tmp.path(), &spec, &vectors).unwrap();

        let err = check_corpus(tmp.path()).unwrap_err();
        let CheckError::Diverged(failure) = &err else {
            panic!("expected Diverged, got {err:?}");
        };
        assert_eq!(failure.divergence.stage, "captured_4mhz");
        assert_eq!(failure.divergence.index, 3);
        let stats = failure.stats.as_ref().expect("same shape, full scan");
        assert_eq!(stats.worst_index, 40);
        assert!((stats.max_abs - 1e-3).abs() < 1e-9, "{}", stats.max_abs);
        let text = err.to_string();
        assert!(text.contains("captured_4mhz"), "{text}");
        assert!(text.contains("whole stage"), "{text}");
    }

    #[test]
    fn stale_manifest_checksum_is_detected() {
        let tmp = TempDir::new("stale");
        let spec = small_spec();
        let mut vectors = generate(&spec).unwrap();
        write_corpus(tmp.path(), &spec, &vectors).unwrap();
        // Rewrite one vector file after the manifest was produced.
        if let Payload::Bytes(b) = &mut vectors[0].payload {
            b[0] ^= 1;
        }
        fs::write(tmp.path().join(vectors[0].file_name()), vectors[0].encode()).unwrap();
        let err = read_corpus(tmp.path()).unwrap_err();
        assert!(err.to_string().contains("manifest"), "{err}");
    }

    #[test]
    fn missing_and_extra_stages_are_named() {
        let tmp = TempDir::new("stages");
        let spec = small_spec();
        let mut vectors = generate(&spec).unwrap();

        // Corpus missing a stage the pipeline produces.
        let dropped = vectors.pop().unwrap();
        write_corpus(tmp.path(), &spec, &vectors).unwrap();
        match check_corpus(tmp.path()) {
            Err(CheckError::MissingStage(s)) => assert_eq!(s, dropped.name),
            other => panic!("expected MissingStage, got {other:?}"),
        }

        // Corpus with a stage the pipeline does not produce.
        vectors.push(dropped);
        vectors.push(Vector {
            name: "retired_stage".into(),
            tolerance: Tolerance::Exact,
            payload: Payload::Bytes(vec![1]),
        });
        write_corpus(tmp.path(), &spec, &vectors).unwrap();
        match check_corpus(tmp.path()) {
            Err(CheckError::ExtraStage(s)) => assert_eq!(s, "retired_stage"),
            other => panic!("expected ExtraStage, got {other:?}"),
        }
    }

    #[test]
    fn manifest_survives_its_own_parser() {
        let spec = small_spec();
        let vectors = generate(&spec).unwrap();
        let m = parse(&manifest_json(&spec, &vectors)).unwrap();
        assert_eq!(
            m.get("seed").and_then(JsonValue::as_str),
            Some(spec.seed.to_string().as_str())
        );
        let listed = m.get("vectors").and_then(JsonValue::as_array).unwrap();
        assert_eq!(listed.len(), vectors.len());
    }
}
