//! Durable checkpoint store: a directory of atomic checkpoint files plus
//! a versioned manifest tracking generations.
//!
//! The layout under the checkpoint directory is
//!
//! ```text
//! MANIFEST.json            versioned index of committed generations
//! ckpt-00000120-r0.swq     rank 0's image for the step-120 generation
//! ckpt-00000120-r1.swq     rank 1's image …
//! ```
//!
//! A *generation* is one step's images for every rank. Ranks stage their
//! files first (each via the atomic temp-fsync-rename protocol of
//! [`crate::checkpoint::write_atomic`]); only after all ranks have
//! written does one caller commit the generation by atomically rewriting
//! the manifest. The manifest is therefore the single source of truth: a
//! crash between file writes and the commit leaves a generation that is
//! simply never referenced, and a crash mid-manifest-write leaves the
//! previous manifest.
//!
//! [`CheckpointStore::write_rank`] and
//! [`CheckpointStore::commit_generation`] are synchronous building
//! blocks. A single-rank run does not call them on its step thread: it
//! hands each encoded image to a [`GenerationWriter`], which runs the two
//! on a thread of their own, one generation at a time, so the fsyncs
//! overlap the following steps.
//!
//! Retention keeps the newest `keep` generations; on restore,
//! [`CheckpointStore::restore_newest_valid`] walks generations newest
//! first, fully decoding every rank image, and falls back past any
//! generation that fails validation — returning which ones were skipped
//! and why so the caller can surface a health Warning instead of dying.

use std::borrow::Cow;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::checkpoint::{self, Checkpoint, ReadError};
use sw_fault::{FaultHook, FaultKind};

/// On-disk manifest schema version (bump on any layout change; the
/// golden-file test pins the serialized form).
pub const MANIFEST_SCHEMA_VERSION: u32 = 1;

/// Manifest file name inside the checkpoint directory.
pub const MANIFEST_NAME: &str = "MANIFEST.json";

/// Default generations retained.
pub const DEFAULT_KEEP: usize = 3;

/// One committed checkpoint generation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ManifestGeneration {
    /// Step the generation snapshots.
    pub step: u64,
    /// Simulated time at `step`, s.
    pub time: f64,
    /// Number of ranks (and files).
    pub ranks: usize,
    /// File names relative to the checkpoint directory, rank order.
    pub files: Vec<String>,
    /// Total encoded bytes across the generation's files.
    pub encoded_bytes: u64,
}

/// The versioned checkpoint index.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Schema version of this file.
    pub schema_version: u32,
    /// Retention: newest generations kept.
    pub keep: usize,
    /// Committed generations, oldest first.
    pub generations: Vec<ManifestGeneration>,
}

/// Error writing one rank's checkpoint image.
#[derive(Debug)]
pub enum WriteError {
    /// The underlying write failed (or a fault plan injected a failure).
    Io(std::io::Error),
    /// An injected mid-write kill: the temp file was staged but never
    /// renamed, exactly as if the process died between the two.
    Killed,
}

impl std::fmt::Display for WriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WriteError::Io(e) => write!(f, "checkpoint write failed: {e}"),
            WriteError::Killed => write!(f, "killed mid-checkpoint-write (injected)"),
        }
    }
}

impl std::error::Error for WriteError {}

/// Error opening or updating the store.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io {
        /// Path involved.
        path: PathBuf,
        /// Underlying error.
        source: std::io::Error,
    },
    /// The manifest is missing, unparsable, or the wrong schema.
    BadManifest {
        /// Manifest path.
        path: PathBuf,
        /// What's wrong.
        detail: String,
    },
    /// The manifest's generations expect a different rank count than
    /// the resuming run provides.
    RankMismatch {
        /// Ranks recorded in the newest generation.
        manifest: usize,
        /// Ranks the resuming run has.
        run: usize,
    },
    /// Every committed generation failed validation (or none exist).
    NoValidGeneration {
        /// Generations that were tried and why each was rejected.
        tried: Vec<(u64, String)>,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "checkpoint store I/O error at {}: {source}", path.display())
            }
            StoreError::BadManifest { path, detail } => {
                write!(f, "bad checkpoint manifest {}: {detail}", path.display())
            }
            StoreError::RankMismatch { manifest, run } => write!(
                f,
                "checkpoint store holds {manifest}-rank generations but the run has {run} ranks"
            ),
            StoreError::NoValidGeneration { tried } => {
                if tried.is_empty() {
                    write!(f, "checkpoint store has no committed generations to resume from")
                } else {
                    write!(f, "no valid checkpoint generation (tried ")?;
                    for (i, (step, why)) in tried.iter().enumerate() {
                        if i > 0 {
                            write!(f, "; ")?;
                        }
                        write!(f, "step {step}: {why}")?;
                    }
                    write!(f, ")")
                }
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// A generation restored from disk, plus what had to be skipped to
/// reach it.
#[derive(Debug)]
pub struct RestoredGeneration {
    /// Step of the restored generation.
    pub step: u64,
    /// Simulated time at `step`, s.
    pub time: f64,
    /// Decoded per-rank checkpoints, rank order.
    pub checkpoints: Vec<Checkpoint>,
    /// Newer generations skipped as invalid: `(step, reason)` — surface
    /// these as Warnings, they mean the fallback path actually fired.
    pub skipped: Vec<(u64, String)>,
}

/// Durable checkpoint store rooted at one directory.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    keep: usize,
    manifest: Mutex<Manifest>,
    fault: FaultHook,
}

fn io_err(path: &Path, source: std::io::Error) -> StoreError {
    StoreError::Io { path: path.to_path_buf(), source }
}

impl CheckpointStore {
    /// Start a fresh store: create the directory, clear any checkpoint
    /// files and staging leftovers from prior runs, write an empty
    /// manifest.
    pub fn create(dir: &Path, keep: usize) -> Result<Self, StoreError> {
        std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        let store = Self {
            dir: dir.to_path_buf(),
            keep: keep.max(1),
            manifest: Mutex::new(Manifest {
                schema_version: MANIFEST_SCHEMA_VERSION,
                keep: keep.max(1),
                generations: Vec::new(),
            }),
            fault: None,
        };
        store.sweep(true)?;
        store.persist_manifest()?;
        Ok(store)
    }

    /// Open an existing store for resume: the manifest must be present
    /// and valid. Staging leftovers from a crashed writer are swept;
    /// committed checkpoint files are untouched.
    pub fn open(dir: &Path, keep: usize) -> Result<Self, StoreError> {
        let path = dir.join(MANIFEST_NAME);
        let text = std::fs::read_to_string(&path).map_err(|source| {
            if source.kind() == std::io::ErrorKind::NotFound {
                StoreError::BadManifest {
                    path: path.clone(),
                    detail: "manifest not found (was this run checkpointed?)".into(),
                }
            } else {
                io_err(&path, source)
            }
        })?;
        let manifest: Manifest = serde_json::from_str(&text)
            .map_err(|e| StoreError::BadManifest { path: path.clone(), detail: e.to_string() })?;
        if manifest.schema_version != MANIFEST_SCHEMA_VERSION {
            return Err(StoreError::BadManifest {
                path,
                detail: format!(
                    "schema_version {} (this build reads {MANIFEST_SCHEMA_VERSION})",
                    manifest.schema_version
                ),
            });
        }
        let store = Self {
            dir: dir.to_path_buf(),
            keep: keep.max(1),
            manifest: Mutex::new(manifest),
            fault: None,
        };
        store.sweep(false)?;
        Ok(store)
    }

    /// Attach a fault-injection plan (drills only; `None` in production).
    pub fn with_fault(mut self, fault: FaultHook) -> Self {
        self.fault = fault;
        self
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Manifest path inside `dir`.
    pub fn manifest_path(dir: &Path) -> PathBuf {
        dir.join(MANIFEST_NAME)
    }

    /// Snapshot of the current manifest.
    pub fn manifest(&self) -> Manifest {
        self.manifest.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// Conventional file name for `(step, rank)`.
    pub fn rank_file_name(step: u64, rank: usize) -> String {
        format!("ckpt-{step:08}-r{rank}.swq")
    }

    fn rank_path(&self, step: u64, rank: usize) -> PathBuf {
        self.dir.join(Self::rank_file_name(step, rank))
    }

    /// Remove staging leftovers (`*.tmp`), and with `all_checkpoints`
    /// also any `ckpt-*.swq` from prior runs (fresh-start semantics).
    fn sweep(&self, all_checkpoints: bool) -> Result<(), StoreError> {
        let entries = std::fs::read_dir(&self.dir).map_err(|e| io_err(&self.dir, e))?;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let stale_tmp = name.ends_with(".tmp");
            let stale_ckpt = all_checkpoints && name.starts_with("ckpt-") && name.ends_with(".swq");
            if stale_tmp || stale_ckpt {
                std::fs::remove_file(entry.path()).map_err(|e| io_err(&entry.path(), e))?;
            }
        }
        Ok(())
    }

    /// Write one rank's encoded image for the step-`step` generation.
    /// Atomic on the real path; any fault the plan schedules for
    /// `(step, rank)` is injected here. Returns the bytes written.
    pub fn write_rank(&self, step: u64, rank: usize, image: &[u8]) -> Result<u64, WriteError> {
        let mut image = Cow::Borrowed(image);
        let path = self.rank_path(step, rank);
        if let Some(plan) = &self.fault {
            if let Some(event) = plan.write_fault(step, rank) {
                match event.kind {
                    FaultKind::IoError => {
                        return Err(WriteError::Io(std::io::Error::other(format!(
                            "injected I/O error at step {step} rank {rank}"
                        ))));
                    }
                    FaultKind::KillMidWrite => {
                        // Stage the temp file, then "die": the rename
                        // never happens, so the generation is never
                        // visible and the previous one stays valid.
                        let _ = checkpoint::stage_temp(&path, &image);
                        return Err(WriteError::Killed);
                    }
                    _ => {
                        // torn / flip: commit the damaged image so the
                        // restore-side fallback has something to catch.
                        plan.corrupt(&event, step, rank, image.to_mut());
                    }
                }
            }
        }
        checkpoint::write_atomic(&path, &image).map_err(WriteError::Io)?;
        Ok(image.len() as u64)
    }

    /// Commit the step-`step` generation after all `ranks` images are on
    /// disk: append it to the manifest, enforce retention, atomically
    /// rewrite the manifest. In multirank runs exactly one rank calls
    /// this, after a barrier.
    pub fn commit_generation(&self, step: u64, time: f64, ranks: usize) -> Result<(), StoreError> {
        let files: Vec<String> = (0..ranks).map(|r| Self::rank_file_name(step, r)).collect();
        let mut encoded_bytes = 0u64;
        for f in &files {
            let path = self.dir.join(f);
            encoded_bytes += std::fs::metadata(&path).map_err(|e| io_err(&path, e))?.len();
        }
        let mut expired: Vec<ManifestGeneration> = Vec::new();
        {
            let mut m = self.manifest.lock().unwrap_or_else(|p| p.into_inner());
            m.generations.push(ManifestGeneration { step, time, ranks, files, encoded_bytes });
            while m.generations.len() > self.keep {
                expired.push(m.generations.remove(0));
            }
        }
        self.persist_manifest()?;
        // Only delete expired files after the manifest no longer
        // references them: a crash in between leaves unreferenced files,
        // never dangling references.
        for gen in expired {
            for f in gen.files {
                std::fs::remove_file(self.dir.join(f)).ok();
            }
        }
        Ok(())
    }

    fn persist_manifest(&self) -> Result<(), StoreError> {
        let path = Self::manifest_path(&self.dir);
        let text = {
            let m = self.manifest.lock().unwrap_or_else(|p| p.into_inner());
            serde_json::to_string_pretty(&*m).expect("manifest serializes")
        };
        checkpoint::write_atomic(&path, text.as_bytes()).map_err(|e| io_err(&path, e))
    }

    /// Restore the newest generation whose every rank image decodes
    /// cleanly and matches the generation's step; invalid generations
    /// are skipped (recorded in [`RestoredGeneration::skipped`]) and the
    /// walk falls back to older ones. All decoding happens here, before
    /// any rank thread starts, so multirank resumes agree on one
    /// generation by construction.
    pub fn restore_newest_valid(&self, ranks: usize) -> Result<RestoredGeneration, StoreError> {
        let generations = {
            let m = self.manifest.lock().unwrap_or_else(|p| p.into_inner());
            m.generations.clone()
        };
        if let Some(newest) = generations.last() {
            if newest.ranks != ranks {
                return Err(StoreError::RankMismatch { manifest: newest.ranks, run: ranks });
            }
        }
        let mut skipped: Vec<(u64, String)> = Vec::new();
        for gen in generations.iter().rev() {
            match self.load_generation(gen) {
                Ok(checkpoints) => {
                    return Ok(RestoredGeneration {
                        step: gen.step,
                        time: gen.time,
                        checkpoints,
                        skipped,
                    });
                }
                Err(reason) => skipped.push((gen.step, reason)),
            }
        }
        Err(StoreError::NoValidGeneration { tried: skipped })
    }

    /// Decode every rank image of one generation, or say why not.
    fn load_generation(&self, gen: &ManifestGeneration) -> Result<Vec<Checkpoint>, String> {
        let mut checkpoints = Vec::with_capacity(gen.files.len());
        for (rank, file) in gen.files.iter().enumerate() {
            let path = self.dir.join(file);
            let ckpt = Checkpoint::read_file(&path).map_err(|e| match e {
                ReadError::Io { source, .. } => format!("rank {rank}: {source}"),
                ReadError::Decode { error, .. } => format!("rank {rank}: {error}"),
            })?;
            if ckpt.step != gen.step {
                return Err(format!(
                    "rank {rank}: image is for step {} but the manifest says {}",
                    ckpt.step, gen.step
                ));
            }
            checkpoints.push(ckpt);
        }
        Ok(checkpoints)
    }
}

/// What became of one generation handed to a [`GenerationWriter`].
#[derive(Debug)]
pub struct GenerationOutcome {
    /// Step of the generation.
    pub step: u64,
    /// Bytes of the rank image on disk, or why it is not there.
    pub written: Result<u64, WriteError>,
    /// The manifest commit's result; `None` when the write failed or the
    /// caller commits centrally (multirank).
    pub committed: Option<Result<(), StoreError>>,
    /// Wall time of the write and commit on the writer's thread, s.
    pub wall_s: f64,
}

/// The one-deep generation writer: takes an encoded image off the step
/// thread and runs [`CheckpointStore::write_rank`] +
/// [`CheckpointStore::commit_generation`] on a thread of its own.
///
/// What crosses the thread is the encoded bytes — owned, immutable, a
/// fraction of the state — never a cloned [`Checkpoint`]. At most one
/// generation is in flight: [`GenerationWriter::stage`] first waits for
/// the previous one, so generations reach the manifest in step order
/// and the memory held is one image. A thread is spawned per generation
/// (tens of microseconds against a write of tens of milliseconds), which
/// makes the `JoinHandle` the whole hand-off: no channel, no parked
/// thread, nothing running between generations or before the first.
/// Dropping the writer waits for the generation in flight.
#[derive(Debug)]
pub struct GenerationWriter {
    store: Arc<CheckpointStore>,
    in_flight: Option<(u64, JoinHandle<GenerationOutcome>)>,
}

impl GenerationWriter {
    /// A writer into `store`; spawns nothing until the first
    /// [`GenerationWriter::stage`].
    pub fn new(store: Arc<CheckpointStore>) -> Self {
        Self { store, in_flight: None }
    }

    /// Hand over `image` as rank `rank`'s file of the step-`step`
    /// generation, committing the generation afterwards when `commit`.
    /// Blocks until the previous generation (if any) is finished and
    /// returns its outcome.
    pub fn stage(
        &mut self,
        step: u64,
        time: f64,
        rank: usize,
        image: Vec<u8>,
        commit: bool,
    ) -> Option<GenerationOutcome> {
        let previous = self.join();
        let store = Arc::clone(&self.store);
        let handle = std::thread::spawn(move || {
            let t0 = Instant::now();
            let written = store.write_rank(step, rank, &image);
            let committed =
                (commit && written.is_ok()).then(|| store.commit_generation(step, time, 1));
            GenerationOutcome { step, written, committed, wall_s: t0.elapsed().as_secs_f64() }
        });
        self.in_flight = Some((step, handle));
        previous
    }

    /// Wait for the generation in flight; `None` when there is none.
    pub fn join(&mut self) -> Option<GenerationOutcome> {
        let (step, handle) = self.in_flight.take()?;
        // A panic on the writer thread is a failed write, not a reason
        // to take the run down with it.
        Some(handle.join().unwrap_or_else(|_| GenerationOutcome {
            step,
            written: Err(WriteError::Io(std::io::Error::other("checkpoint writer panicked"))),
            committed: None,
            wall_s: 0.0,
        }))
    }
}

impl Drop for GenerationWriter {
    fn drop(&mut self) {
        self.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_fault::FaultPlan;
    use sw_grid::{Dims3, Field3};

    fn ckpt(step: u64) -> Checkpoint {
        let d = Dims3::new(4, 3, 5);
        let mut u = Field3::new(d, 2);
        u.fill_with(|x, y, z| (x + y + z) as f32 + step as f32);
        Checkpoint {
            step,
            time: step as f64 * 0.01,
            flops: step as f64 * 1e6,
            fields: vec![("u".into(), u)],
            seismograms: Vec::new(),
            pgv: None,
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("swquake_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn lifecycle_commit_restore_retention() {
        let dir = tmpdir("lifecycle");
        let store = CheckpointStore::create(&dir, 2).unwrap();
        for step in [10u64, 20, 30] {
            store.write_rank(step, 0, &ckpt(step).encode()).unwrap();
            store.commit_generation(step, step as f64 * 0.01, 1).unwrap();
        }
        let m = store.manifest();
        assert_eq!(m.schema_version, MANIFEST_SCHEMA_VERSION);
        assert_eq!(
            m.generations.iter().map(|g| g.step).collect::<Vec<_>>(),
            vec![20, 30],
            "keep=2 retains only the newest two generations"
        );
        assert!(
            !dir.join(CheckpointStore::rank_file_name(10, 0)).exists(),
            "retention deletes expired generation files"
        );
        let restored = store.restore_newest_valid(1).unwrap();
        assert_eq!(restored.step, 30);
        assert!(restored.skipped.is_empty());
        assert_eq!(restored.checkpoints[0].fields[0].1.get(0, 0, 0), 30.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_resumes_the_manifest_and_sweeps_tmp() {
        let dir = tmpdir("reopen");
        let store = CheckpointStore::create(&dir, 3).unwrap();
        store.write_rank(50, 0, &ckpt(50).encode()).unwrap();
        store.commit_generation(50, 0.5, 1).unwrap();
        // A crashed writer's staging leftovers…
        std::fs::write(dir.join("ckpt-00000060-r0.swq.tmp"), b"partial").unwrap();
        drop(store);
        let reopened = CheckpointStore::open(&dir, 3).unwrap();
        assert!(!dir.join("ckpt-00000060-r0.swq.tmp").exists(), "open sweeps .tmp strays");
        assert_eq!(reopened.restore_newest_valid(1).unwrap().step, 50);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_newest_generation_falls_back() {
        let dir = tmpdir("fallback");
        let store = CheckpointStore::create(&dir, 3).unwrap();
        for step in [10u64, 20] {
            store.write_rank(step, 0, &ckpt(step).encode()).unwrap();
            store.commit_generation(step, 0.0, 1).unwrap();
        }
        // Flip a byte in the newest image.
        let newest = dir.join(CheckpointStore::rank_file_name(20, 0));
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&newest, bytes).unwrap();
        let restored = store.restore_newest_valid(1).unwrap();
        assert_eq!(restored.step, 10, "falls back past the corrupt newest generation");
        assert_eq!(restored.skipped.len(), 1);
        assert_eq!(restored.skipped[0].0, 20);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn all_generations_corrupt_is_a_classified_error() {
        let dir = tmpdir("exhausted");
        let store = CheckpointStore::create(&dir, 3).unwrap();
        store.write_rank(10, 0, &ckpt(10).encode()).unwrap();
        store.commit_generation(10, 0.1, 1).unwrap();
        std::fs::write(dir.join(CheckpointStore::rank_file_name(10, 0)), b"garbage").unwrap();
        match store.restore_newest_valid(1) {
            Err(StoreError::NoValidGeneration { tried }) => assert_eq!(tried.len(), 1),
            other => panic!("expected NoValidGeneration, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rank_mismatch_is_rejected() {
        let dir = tmpdir("ranks");
        let store = CheckpointStore::create(&dir, 3).unwrap();
        store.write_rank(10, 0, &ckpt(10).encode()).unwrap();
        store.commit_generation(10, 0.1, 1).unwrap();
        assert!(matches!(
            store.restore_newest_valid(4),
            Err(StoreError::RankMismatch { manifest: 1, run: 4 })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_without_manifest_is_a_clear_error() {
        let dir = tmpdir("nomanifest");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(matches!(CheckpointStore::open(&dir, 3), Err(StoreError::BadManifest { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_ioerr_torn_and_killwrite() {
        let dir = tmpdir("faults");
        let plan = FaultPlan::parse("seed=3;ioerr@10;torn@20:frac=0.5;killwrite@30").unwrap();
        let store =
            CheckpointStore::create(&dir, 5).unwrap().with_fault(Some(std::sync::Arc::new(plan)));

        assert!(matches!(store.write_rank(10, 0, &ckpt(10).encode()), Err(WriteError::Io(_))));
        assert!(!dir.join(CheckpointStore::rank_file_name(10, 0)).exists());

        // Torn write commits a truncated image; restore must fall back.
        store.write_rank(15, 0, &ckpt(15).encode()).unwrap();
        store.commit_generation(15, 0.15, 1).unwrap();
        store.write_rank(20, 0, &ckpt(20).encode()).unwrap();
        store.commit_generation(20, 0.2, 1).unwrap();
        let restored = store.restore_newest_valid(1).unwrap();
        assert_eq!(restored.step, 15);
        assert_eq!(restored.skipped.len(), 1);

        // Kill mid-write stages the temp but never renames.
        assert!(matches!(store.write_rank(30, 0, &ckpt(30).encode()), Err(WriteError::Killed)));
        assert!(!dir.join(CheckpointStore::rank_file_name(30, 0)).exists());
        assert!(
            checkpoint::temp_path(&dir.join(CheckpointStore::rank_file_name(30, 0))).exists(),
            "the staged temp file is the crash's only trace"
        );
        // …and a reopen sweeps it.
        drop(store);
        let reopened = CheckpointStore::open(&dir, 5).unwrap();
        assert!(!checkpoint::temp_path(&dir.join(CheckpointStore::rank_file_name(30, 0))).exists());
        assert_eq!(reopened.restore_newest_valid(1).unwrap().step, 15);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writer_is_one_deep_ordered_and_joined_on_drop() {
        let dir = tmpdir("writer");
        let store = Arc::new(CheckpointStore::create(&dir, 5).unwrap());
        let mut writer = GenerationWriter::new(Arc::clone(&store));
        assert!(writer.join().is_none(), "nothing staged, nothing to wait for");
        assert!(writer.stage(10, 0.1, 0, ckpt(10).encode(), true).is_none());
        // Staging the next generation hands back the previous one, done.
        let first = writer.stage(20, 0.2, 0, ckpt(20).encode(), true).expect("10 was in flight");
        assert_eq!(first.step, 10);
        assert_eq!(first.written.unwrap(), ckpt(10).encode().len() as u64);
        assert!(matches!(first.committed, Some(Ok(()))));
        assert_eq!(store.manifest().generations[0].step, 10, "committed before 20 was staged");
        // Without `commit` the file lands but the manifest is the caller's.
        let second = writer.stage(30, 0.3, 0, ckpt(30).encode(), false).unwrap();
        assert_eq!(second.step, 20);
        let third = writer.join().expect("30 was in flight");
        assert!(third.written.is_ok() && third.committed.is_none());
        assert!(dir.join(CheckpointStore::rank_file_name(30, 0)).exists());
        assert_eq!(store.manifest().generations.len(), 2);
        // Dropping the writer waits for the generation in flight.
        writer.stage(40, 0.4, 0, ckpt(40).encode(), true);
        drop(writer);
        let steps: Vec<u64> = store.manifest().generations.iter().map(|g| g.step).collect();
        assert_eq!(steps, vec![10, 20, 40]);
        assert_eq!(store.restore_newest_valid(1).unwrap().step, 40);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writer_reports_injected_faults_at_the_join() {
        let dir = tmpdir("writer_faults");
        let plan = FaultPlan::parse("seed=3;ioerr@10;killwrite@20").unwrap();
        let store =
            Arc::new(CheckpointStore::create(&dir, 5).unwrap().with_fault(Some(Arc::new(plan))));
        let mut writer = GenerationWriter::new(Arc::clone(&store));
        writer.stage(10, 0.1, 0, ckpt(10).encode(), true);
        let failed = writer.stage(20, 0.2, 0, ckpt(20).encode(), true).unwrap();
        assert!(matches!(failed.written, Err(WriteError::Io(_))) && failed.committed.is_none());
        let killed = writer.join().unwrap();
        assert!(matches!(killed.written, Err(WriteError::Killed)));
        assert_eq!(killed.step, 20);
        assert!(store.manifest().generations.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
