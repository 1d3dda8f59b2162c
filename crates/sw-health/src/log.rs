//! The streamed health log and the fatal-verdict diagnostic bundle.
//!
//! The log is append-only JSONL — one [`HealthRecord`] per line,
//! flushed per record so a killed run still leaves every probe on
//! disk. A single log is safely shared across simulated MPI ranks
//! (the writer is mutex-guarded and each line is written atomically),
//! so a multirank run interleaves rank records in one stream; readers
//! sort by `(step, rank)`.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::record::HealthRecord;

/// Append-only JSONL sink for health records.
pub struct HealthLog {
    path: PathBuf,
    writer: Mutex<BufWriter<File>>,
}

impl std::fmt::Debug for HealthLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthLog").field("path", &self.path).finish()
    }
}

impl HealthLog {
    /// Create (truncating any existing file) a log at `path`.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        Ok(HealthLog { path, writer: Mutex::new(BufWriter::new(file)) })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one record as a JSON line and flush it to disk.
    pub fn append(&self, record: &HealthRecord) -> std::io::Result<()> {
        let line = serde_json::to_string(record)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let mut w = self.writer.lock().expect("health log writer poisoned");
        writeln!(w, "{line}")?;
        w.flush()
    }
}

/// Parse a JSONL health log back into records (for tests and offline
/// analysis).
pub fn read_log(path: impl AsRef<Path>) -> std::io::Result<Vec<HealthRecord>> {
    let text = std::fs::read_to_string(path)?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            serde_json::from_str(l)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
        })
        .collect()
}

/// A small window of one field around a blow-up site, captured for the
/// diagnostic bundle. Values are `None` where the entry is non-finite:
/// JSON has no NaN/Inf, so the absence *is* the signal, and the
/// `nan`/`inf` counts in the accompanying records disambiguate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FieldSnapshot {
    pub field: String,
    pub step: u64,
    pub rank: usize,
    /// Grid index the window is centred on (the first bad entry).
    pub center: (usize, usize, usize),
    /// Window origin in grid coordinates.
    pub origin: (usize, usize, usize),
    /// Window extent; `values` is `nx × ny × nz`, x-major then y then z.
    pub extent: (usize, usize, usize),
    pub values: Vec<Option<f64>>,
}

/// Paths written by [`write_bundle`].
#[derive(Debug, Clone, PartialEq)]
pub struct BundlePaths {
    pub dir: PathBuf,
    pub records: PathBuf,
    pub snapshot: PathBuf,
}

/// Write one rank's diagnostic bundle: the last-N health records as
/// JSONL plus the field snapshot around the blow-up site. The
/// directory is created if needed and is shared by all ranks (files
/// are namespaced by rank).
pub fn write_bundle<'a>(
    dir: impl AsRef<Path>,
    rank: usize,
    records: impl IntoIterator<Item = &'a HealthRecord>,
    snapshot: &FieldSnapshot,
) -> std::io::Result<BundlePaths> {
    let dir = dir.as_ref().to_path_buf();
    std::fs::create_dir_all(&dir)?;

    let records_path = dir.join(format!("rank{rank}_records.jsonl"));
    let log = HealthLog::create(&records_path)?;
    for r in records {
        log.append(r)?;
    }

    let snapshot_path = dir.join(format!("rank{rank}_snapshot.json"));
    let text = serde_json::to_string(snapshot)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(&snapshot_path, text)?;

    Ok(BundlePaths { dir, records: records_path, snapshot: snapshot_path })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Fatal, FieldProbe, Verdict, SCHEMA_VERSION};

    fn record(step: u64, verdict: Verdict) -> HealthRecord {
        HealthRecord {
            schema_version: SCHEMA_VERSION,
            step,
            time: step as f64 * 0.01,
            rank: 0,
            max_velocity: 1.0e-3,
            max_stress: 2.0e4,
            kinetic_energy: Some(42.0),
            nan_count: 0,
            inf_count: 0,
            subnormal_count: 0,
            verdict,
            fields: vec![FieldProbe {
                name: "u".into(),
                max_abs: 1.0e-3,
                nan_count: 0,
                inf_count: 0,
                subnormal_count: 0,
                first_bad: None,
            }],
        }
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sw_health_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn log_streams_and_reads_back() {
        let dir = tmpdir("log");
        let path = dir.join("health.jsonl");
        let log = HealthLog::create(&path).unwrap();
        let records = vec![record(10, Verdict::Healthy), record(20, Verdict::Warning(vec![]))];
        for r in &records {
            log.append(r).unwrap();
        }
        // Flushed per record: readable while the log is still open.
        let back = read_log(&path).unwrap();
        assert_eq!(back, records);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bundle_holds_last_records_and_snapshot_with_non_finite_holes() {
        let dir = tmpdir("bundle");
        let snapshot = FieldSnapshot {
            field: "u".into(),
            step: 30,
            rank: 1,
            center: (4, 5, 6),
            origin: (3, 4, 5),
            extent: (3, 3, 3),
            values: {
                let mut v: Vec<Option<f64>> = (0..27).map(|i| Some(i as f64)).collect();
                v[13] = None; // the non-finite centre
                v
            },
        };
        let fatal = record(30, Verdict::Fatal(Fatal::Nan { field: "u".into(), index: (4, 5, 6) }));
        let records = vec![record(10, Verdict::Healthy), fatal];
        let paths = write_bundle(dir.join("bundle"), 1, &records, &snapshot).unwrap();
        assert_eq!(read_log(&paths.records).unwrap(), records);
        let text = std::fs::read_to_string(&paths.snapshot).unwrap();
        let back: FieldSnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back, snapshot);
        assert_eq!(back.values[13], None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
