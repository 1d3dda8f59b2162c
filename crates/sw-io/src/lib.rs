//! I/O subsystems (the bottom band of Fig. 3: "LZ4 Compression, Group I/O,
//! Balanced I/O Forwarding") plus the observation recorders.
//!
//! * [`checkpoint`] — checkpoint/restart of the full wavefield state with
//!   from-scratch LZ4 block compression and integrity checksums (§6.2: the
//!   16-m Tangshan case would need 108 TB of restart wavefields without
//!   compression);
//! * [`store`] — the durable checkpoint lifecycle: atomic generation
//!   files, a versioned manifest with keep-N retention,
//!   corrupt-generation fallback on restore, and the one-deep writer
//!   thread that keeps the fsyncs off the step thread;
//! * [`groupio`] — the group-I/O and balanced-forwarding aggregation model
//!   that reaches "a peak I/O bandwidth of 120 GB/s (92.3 % of the file
//!   system we use)";
//! * [`doc`] — durable single-JSON-document files (campaign manifests)
//!   reusing the store's atomic-write and temp-sweep conventions;
//! * [`recorder`] — seismogram, snapshot and peak-ground-velocity
//!   recorders (the "Snapshot/Seismo Recorder" box of Fig. 3).

pub mod checkpoint;
pub mod doc;
pub mod groupio;
pub mod recorder;
pub mod store;

pub use checkpoint::{Checkpoint, CheckpointError, ReadError};
pub use doc::DocFile;
pub use groupio::GroupIoModel;
pub use recorder::{PgvRecorder, SeismogramRecorder, SnapshotRecorder, Station};
pub use store::{
    CheckpointStore, GenerationWriter, Manifest, ManifestGeneration, RestoredGeneration, StoreError,
};
