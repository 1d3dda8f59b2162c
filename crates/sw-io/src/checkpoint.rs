//! Checkpoint / restart.
//!
//! "The toughest challenge comes from the checkpoints for restart. All the
//! wavefields required by the checkpoint aggregate to a size of 108 TB in
//! the 16-meter resolution case … therefore, we integrate the LZ4
//! compression to reduce the size for a smoother run." (§6.2)
//!
//! A [`Checkpoint`] carries every named wavefield (interior only — halos
//! are re-exchanged on restart), LZ4-compressed per field, plus the
//! observation state accumulated so far (seismogram histories, the PGV
//! accumulator, the useful-flops counter) so a resumed run reproduces the
//! uninterrupted run's outputs byte-for-byte — not just its wavefields.
//!
//! Integrity is layered: a whole-file 64-bit checksum (the trailing 8
//! bytes, [`checksum64`]) is verified *before* any length field is
//! trusted, so a bit flip or truncation anywhere in the image is a
//! classified [`CheckpointError`] rather than a panic, allocation
//! blow-up, or silent wrong decode; per-field checksums then localize
//! which wavefield a deeper corruption hit. The checksum is not
//! cryptographic, so the lengths it vouches for are still bounded against
//! what the image's own bytes could expand to before anything is sized
//! by them.
//!
//! There is one encoder, [`encode_image`], over *borrowed* fields — the
//! driver cuts a generation straight from its live state, and
//! [`Checkpoint::encode`] is the same call on an owned snapshot — and one
//! decoder, [`Checkpoint::decode`]. Both run the per-field work (checksum
//! + LZ4) as one order-preserving map over the worker pool.
//!
//! [`Checkpoint::write_file`] is crash-consistent: the image is staged to
//! a temp file, fsynced, atomically renamed over the destination, and the
//! directory is fsynced — a crash at any instant leaves either the old
//! file or the new one, never a torn hybrid.

use std::path::{Path, PathBuf};

use crate::recorder::{Seismogram, Station};
use sw_compress::{lz4, par};
use sw_grid::{Dims3, Field3};

/// Minimal little-endian cursor over a byte slice (replaces `bytes::Buf`;
/// the crate registry is unreachable in this build environment).
///
/// All `get_*` methods assume the caller checked `remaining()` first,
/// matching how the decoder below is written.
trait ReadLe {
    fn remaining(&self) -> usize;
    fn advance(&mut self, n: usize);
    fn get_u8(&mut self) -> u8;
    fn get_u16_le(&mut self) -> u16;
    fn get_u32_le(&mut self) -> u32;
    fn get_u64_le(&mut self) -> u64;
    fn get_f32_le(&mut self) -> f32;
    fn get_f64_le(&mut self) -> f64;
}

impl ReadLe for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, n: usize) {
        *self = &self[n..];
    }

    fn get_u8(&mut self) -> u8 {
        let v = self[0];
        self.advance(1);
        v
    }

    fn get_u16_le(&mut self) -> u16 {
        let v = u16::from_le_bytes(self[..2].try_into().unwrap());
        self.advance(2);
        v
    }

    fn get_u32_le(&mut self) -> u32 {
        let v = u32::from_le_bytes(self[..4].try_into().unwrap());
        self.advance(4);
        v
    }

    fn get_u64_le(&mut self) -> u64 {
        let v = u64::from_le_bytes(self[..8].try_into().unwrap());
        self.advance(8);
        v
    }

    fn get_f32_le(&mut self) -> f32 {
        f32::from_bits(self.get_u32_le())
    }

    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }
}

/// Serialization magic (format v3: v2's layout — recorder state,
/// whole-file checksum — with [`checksum64`] sums in place of byte-wise
/// FNV-1a).
const MAGIC: u32 = 0x5351_4b33; // "SQK3"

/// Magics of the older formats (v1 pre-recorder, v2 FNV sums), recognized
/// only to give a clearer error than "not a checkpoint".
const OLDER_MAGICS: [u32; 2] = [0x5351_4b31, 0x5351_4b32]; // "SQK1", "SQK2"

/// Widest halo a field section may declare. The solver's is
/// [`sw_grid::HALO_WIDTH`] (2); the format stores a `u32`, and the padded
/// allocation grows with its cube.
const MAX_HALO: usize = 8;

/// Error decoding a checkpoint image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Wrong magic or too short to carry the fixed header.
    BadHeader,
    /// Written by an incompatible format version.
    BadVersion {
        /// The magic found in the file.
        found: u32,
    },
    /// Whole-file checksum mismatch: the image was truncated or
    /// bit-flipped somewhere after it was encoded.
    CorruptFile,
    /// LZ4 payload failed to decode or a section is inconsistent.
    BadPayload,
    /// Per-field checksum mismatch (corruption localized to one field).
    Corrupt {
        /// Field whose checksum failed.
        field: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadHeader => write!(f, "not a swquake checkpoint"),
            CheckpointError::BadVersion { found } => {
                write!(f, "unsupported checkpoint format (magic {found:#010x})")
            }
            CheckpointError::CorruptFile => {
                write!(f, "checkpoint image corrupt (whole-file checksum mismatch)")
            }
            CheckpointError::BadPayload => write!(f, "LZ4 payload corrupt"),
            CheckpointError::Corrupt { field } => write!(f, "checksum mismatch in field {field}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Error reading a checkpoint from disk: either the file couldn't be
/// read at all, or its contents failed to decode. This flattens the old
/// `io::Result<Result<_, CheckpointError>>` nesting into one variant set
/// callers can match directly.
#[derive(Debug)]
pub enum ReadError {
    /// The file couldn't be read.
    Io {
        /// Path of the checkpoint file.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The file's contents are not a valid checkpoint.
    Decode {
        /// Path of the checkpoint file.
        path: PathBuf,
        /// What's wrong with the image.
        error: CheckpointError,
    },
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Io { path, source } => {
                write!(f, "cannot read checkpoint {}: {source}", path.display())
            }
            ReadError::Decode { path, error } => {
                write!(f, "checkpoint {} invalid: {error}", path.display())
            }
        }
    }
}

impl std::error::Error for ReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadError::Io { source, .. } => Some(source),
            ReadError::Decode { error, .. } => Some(error),
        }
    }
}

/// A snapshot of the simulation state at one step.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Time-step index.
    pub step: u64,
    /// Simulated time, s.
    pub time: f64,
    /// Useful flops accumulated up to `step` (resumes continue the
    /// telemetry counter instead of restarting it at zero).
    pub flops: f64,
    /// Named wavefields (name, field).
    pub fields: Vec<(String, Field3)>,
    /// Full station histories up to `step`: a resumed run appends to
    /// these and writes byte-identical seismogram CSVs.
    pub seismograms: Vec<Seismogram>,
    /// PGV accumulator `(nx, ny, values)`, when hazard recording is on.
    pub pgv: Option<(usize, usize, Vec<f32>)>,
}

/// FNV-1a over raw bytes: cheap, order-sensitive, dependency-free. One
/// multiply per byte — fine for the short strings `sw_campaign::cache`
/// keys, far too slow for images (see [`checksum64`]).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// SplitMix64's finalizer: every input bit reaches every output bit.
#[inline(always)]
fn avalanche(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The image and per-field checksum: four independent lanes each absorb
/// one little-endian `u64` per 32-byte block (xor, odd multiply, fold the
/// high half down), then the lanes and the length are avalanched
/// together. The lanes have no dependency on each other, so the
/// multiplies overlap and the loop runs at memory speed rather than at
/// one multiply latency per byte.
///
/// Each lane step is a bijection of the lane for a fixed word and of the
/// word for a fixed lane, so any change confined to one word changes the
/// sum. The fold matters: an odd multiply alone never moves a difference
/// in bit 63 anywhere else, and two flipped top bits would cancel.
pub fn checksum64(bytes: &[u8]) -> u64 {
    const LANE_MUL: [u64; 4] = [
        0x9E37_79B9_7F4A_7C15,
        0xC2B2_AE3D_27D4_EB4F,
        0x1656_67B1_9E37_79F9,
        0xD6E8_FEB8_6659_FD93,
    ];
    let mut lanes: [u64; 4] = [
        0xcbf2_9ce4_8422_2325,
        0x8422_2325_cbf2_9ce4,
        0x2545_F491_4F6C_DD1D,
        0x27D4_EB2F_1656_67C5,
    ];
    let absorb = |lanes: &mut [u64; 4], block: &[u8; 32]| {
        for (l, word) in block.chunks_exact(8).enumerate() {
            let mut w = [0u8; 8];
            w.copy_from_slice(word);
            let h = (lanes[l] ^ u64::from_le_bytes(w)).wrapping_mul(LANE_MUL[l]);
            lanes[l] = h ^ (h >> 32);
        }
    };
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        let mut b = [0u8; 32];
        b.copy_from_slice(block);
        absorb(&mut lanes, &b);
    }
    // The zero-padded tail; the length below tells padding from data.
    let tail = blocks.remainder();
    if !tail.is_empty() {
        let mut b = [0u8; 32];
        b[..tail.len()].copy_from_slice(tail);
        absorb(&mut lanes, &b);
    }
    lanes.iter().fold(bytes.len() as u64, |h, lane| avalanche(h ^ lane))
}

/// Crash-consistent file write: stage to `<path>.tmp`, fsync, rename over
/// `path`, fsync the directory. A crash at any point leaves either the
/// previous file or the complete new one.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = stage_temp(path, bytes)?;
    commit_staged(&tmp, path)
}

/// First half of [`write_atomic`]: write + fsync the temp file, return
/// its path. Split out so fault injection can crash "between" the halves.
pub fn stage_temp(path: &Path, bytes: &[u8]) -> std::io::Result<PathBuf> {
    use std::io::Write;
    let tmp = temp_path(path);
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    Ok(tmp)
}

/// Second half of [`write_atomic`]: rename the staged temp file into
/// place and fsync the parent directory so the rename itself is durable.
pub fn commit_staged(tmp: &Path, path: &Path) -> std::io::Result<()> {
    std::fs::rename(tmp, path)?;
    if let Some(dir) = path.parent() {
        // Directory fsync is advisory on some filesystems; opening can
        // fail (e.g. on exotic mounts) without threatening the rename.
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// The staging name used by [`write_atomic`] (stray `.tmp` files from a
/// crashed writer are cleaned up by the checkpoint store on open).
pub fn temp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// The scalar header of an image.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImageMeta {
    /// Time-step index.
    pub step: u64,
    /// Simulated time, s.
    pub time: f64,
    /// Useful flops accumulated up to `step`.
    pub flops: f64,
}

/// One field section: name, shape, checksum of the interior's
/// little-endian bytes, and those bytes as one LZ4 block — built row by
/// row from the field's own storage.
fn encode_field(name: &str, field: &Field3) -> Vec<u8> {
    let d = field.dims();
    let mut raw = vec![0u8; d.bytes_f32()];
    if !raw.is_empty() {
        let mut rows = raw.chunks_exact_mut(d.nz * 4);
        for x in 0..d.nx {
            for y in 0..d.ny {
                let dst = rows.next().expect("one chunk per interior row");
                lz4::f32_le_bytes(field.row(x, y), dst);
            }
        }
    }
    let mut out = Vec::with_capacity(64 + name.len() + raw.len() / 2);
    out.extend_from_slice(&(name.len() as u16).to_le_bytes());
    out.extend_from_slice(name.as_bytes());
    out.extend_from_slice(&(d.nx as u64).to_le_bytes());
    out.extend_from_slice(&(d.ny as u64).to_le_bytes());
    out.extend_from_slice(&(d.nz as u64).to_le_bytes());
    out.extend_from_slice(&(field.halo() as u32).to_le_bytes());
    out.extend_from_slice(&checksum64(&raw).to_le_bytes());
    let len_at = out.len();
    out.extend_from_slice(&0u64.to_le_bytes());
    lz4::compress_into(&raw, &mut out);
    let compressed = (out.len() - len_at - 8) as u64;
    out[len_at..len_at + 8].copy_from_slice(&compressed.to_le_bytes());
    out
}

/// Serialize one image: header, per-field sections, seismogram and PGV
/// sections, then the trailing whole-file [`checksum64`].
///
/// The fields are only borrowed, so a caller holding live state (the
/// driver) cuts a generation without first cloning it into a
/// [`Checkpoint`]. With `parallel` the field sections are built by one
/// order-preserving map over the worker pool; the bytes are the same
/// either way, for any pool width.
pub fn encode_image(
    meta: ImageMeta,
    fields: &[(&str, &Field3)],
    seismograms: &[Seismogram],
    pgv: Option<(usize, usize, &[f32])>,
    parallel: bool,
) -> Vec<u8> {
    let sections =
        par::map_ordered(fields.to_vec(), parallel, |(name, field)| encode_field(name, field));
    let mut out = Vec::with_capacity(64 + sections.iter().map(Vec::len).sum::<usize>());
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&meta.step.to_le_bytes());
    out.extend_from_slice(&meta.time.to_le_bytes());
    out.extend_from_slice(&meta.flops.to_le_bytes());
    out.extend_from_slice(&(fields.len() as u32).to_le_bytes());
    for section in &sections {
        out.extend_from_slice(section);
    }
    out.extend_from_slice(&(seismograms.len() as u32).to_le_bytes());
    for s in seismograms {
        out.extend_from_slice(&(s.station.name.len() as u16).to_le_bytes());
        out.extend_from_slice(s.station.name.as_bytes());
        out.extend_from_slice(&(s.station.ix as u64).to_le_bytes());
        out.extend_from_slice(&(s.station.iy as u64).to_le_bytes());
        out.extend_from_slice(&s.dt.to_le_bytes());
        out.extend_from_slice(&(s.samples.len() as u64).to_le_bytes());
        for sample in &s.samples {
            for c in sample {
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
    }
    match pgv {
        Some((nx, ny, values)) => {
            out.push(1);
            out.extend_from_slice(&(nx as u64).to_le_bytes());
            out.extend_from_slice(&(ny as u64).to_le_bytes());
            for v in values {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        None => out.push(0),
    }
    let file_sum = checksum64(&out);
    out.extend_from_slice(&file_sum.to_le_bytes());
    out
}

/// A field section's header, its payload still compressed.
struct FieldSection<'a> {
    name: String,
    dims: Dims3,
    halo: usize,
    sum: u64,
    payload: &'a [u8],
}

impl FieldSection<'_> {
    /// The shape a section header declares, if a `payload_len`-byte LZ4
    /// block could decode to it at all and its padded allocation stays
    /// addressable. The file checksum is no proof against a crafted
    /// image, so this runs before anything is sized by the header.
    fn checked_shape(n: [u64; 3], halo: u32, payload_len: usize) -> Option<(Dims3, usize)> {
        let [nx, ny, nz] = n.map(|v| usize::try_from(v).ok());
        let (nx, ny, nz, halo) = (nx?, ny?, nz?, usize::try_from(halo).ok()?);
        let raw_len = nx.checked_mul(ny)?.checked_mul(nz)?.checked_mul(4)?;
        if !lz4::can_expand_to(payload_len, raw_len) || halo > MAX_HALO {
            return None;
        }
        let pad = |v: usize| v.checked_add(2 * halo);
        pad(nx)?.checked_mul(pad(ny)?)?.checked_mul(pad(nz)?)?.checked_mul(4)?;
        Some((Dims3::new(nx, ny, nz), halo))
    }

    /// Decompress (to exactly the declared interior, never past it),
    /// verify, and rebuild the padded field.
    fn decode(self) -> Result<(String, Field3), CheckpointError> {
        let d = self.dims;
        let raw = lz4::decompress_into(self.payload, d.bytes_f32())
            .map_err(|_| CheckpointError::BadPayload)?;
        if checksum64(&raw) != self.sum {
            return Err(CheckpointError::Corrupt { field: self.name });
        }
        let mut field = Field3::new(d, self.halo);
        if !raw.is_empty() {
            let mut rows = raw.chunks_exact(d.nz * 4);
            for x in 0..d.nx {
                for y in 0..d.ny {
                    let src = rows.next().expect("one chunk per interior row");
                    lz4::f32_from_le_bytes(src, field.row_mut(x, y));
                }
            }
        }
        Ok((self.name, field))
    }
}

impl Checkpoint {
    /// Serialize (see [`encode_image`], which this calls on its own
    /// fields, over the worker pool).
    pub fn encode(&self) -> Vec<u8> {
        let fields: Vec<(&str, &Field3)> =
            self.fields.iter().map(|(name, field)| (name.as_str(), field)).collect();
        let pgv = self.pgv.as_ref().map(|(nx, ny, values)| (*nx, *ny, values.as_slice()));
        encode_image(
            ImageMeta { step: self.step, time: self.time, flops: self.flops },
            &fields,
            &self.seismograms,
            pgv,
            true,
        )
    }

    /// Deserialize and verify.
    ///
    /// The whole-file checksum is verified before anything else, so on
    /// any post-encode corruption — flipped bits, truncation, garbage —
    /// this returns a classified error without trusting a single length
    /// field from the damaged image. The section headers are then walked
    /// serially and the fields decoded by the same pool map the encoder
    /// uses.
    pub fn decode(mut buf: &[u8]) -> Result<Self, CheckpointError> {
        if buf.remaining() < 4 {
            return Err(CheckpointError::BadHeader);
        }
        let magic = u32::from_le_bytes(buf[..4].try_into().unwrap());
        if magic != MAGIC {
            if OLDER_MAGICS.contains(&magic) {
                return Err(CheckpointError::BadVersion { found: magic });
            }
            return Err(CheckpointError::BadHeader);
        }
        // Fixed header (magic + step + time + flops + n_fields) plus the
        // trailing checksum is the smallest possible valid image.
        if buf.remaining() < 4 + 8 + 8 + 8 + 4 + 8 {
            return Err(CheckpointError::CorruptFile);
        }
        let body_len = buf.remaining() - 8;
        let stored_sum = u64::from_le_bytes(buf[body_len..].try_into().unwrap());
        if checksum64(&buf[..body_len]) != stored_sum {
            return Err(CheckpointError::CorruptFile);
        }
        buf = &buf[..body_len];
        buf.advance(4); // magic, already checked
        let step = buf.get_u64_le();
        let time = buf.get_f64_le();
        let flops = buf.get_f64_le();
        let n = buf.get_u32_le() as usize;
        // The checksum already vouched for the image, so a failed bound
        // below means an encoder bug or a crafted file; either way it
        // stays an error instead of a panic or an allocation.
        let mut sections = Vec::with_capacity(n.min(buf.remaining()));
        for _ in 0..n {
            if buf.remaining() < 2 {
                return Err(CheckpointError::CorruptFile);
            }
            let name_len = buf.get_u16_le() as usize;
            if buf.remaining() < name_len {
                return Err(CheckpointError::CorruptFile);
            }
            let name = String::from_utf8_lossy(&buf[..name_len]).into_owned();
            buf.advance(name_len);
            if buf.remaining() < 8 * 3 + 4 + 8 + 8 {
                return Err(CheckpointError::CorruptFile);
            }
            let shape = [buf.get_u64_le(), buf.get_u64_le(), buf.get_u64_le()];
            let halo = buf.get_u32_le();
            let sum = buf.get_u64_le();
            let len = usize::try_from(buf.get_u64_le()).ok().filter(|len| *len <= buf.remaining());
            let Some(len) = len else { return Err(CheckpointError::CorruptFile) };
            let Some((dims, halo)) = FieldSection::checked_shape(shape, halo, len) else {
                return Err(CheckpointError::BadPayload);
            };
            sections.push(FieldSection { name, dims, halo, sum, payload: &buf[..len] });
            buf.advance(len);
        }
        let fields = par::map_ordered(sections, true, FieldSection::decode)
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        if buf.remaining() < 4 {
            return Err(CheckpointError::CorruptFile);
        }
        let n_seismo = buf.get_u32_le() as usize;
        let mut seismograms = Vec::with_capacity(n_seismo.min(buf.remaining()));
        for _ in 0..n_seismo {
            if buf.remaining() < 2 {
                return Err(CheckpointError::CorruptFile);
            }
            let name_len = buf.get_u16_le() as usize;
            if buf.remaining() < name_len {
                return Err(CheckpointError::CorruptFile);
            }
            let name = String::from_utf8_lossy(&buf[..name_len]).into_owned();
            buf.advance(name_len);
            if buf.remaining() < 8 + 8 + 8 + 8 {
                return Err(CheckpointError::CorruptFile);
            }
            let ix = buf.get_u64_le() as usize;
            let iy = buf.get_u64_le() as usize;
            let dt = buf.get_f64_le();
            let n_samples = buf.get_u64_le() as usize;
            if buf.remaining() < n_samples.saturating_mul(12) {
                return Err(CheckpointError::CorruptFile);
            }
            let mut samples = Vec::with_capacity(n_samples);
            for _ in 0..n_samples {
                samples.push([buf.get_f32_le(), buf.get_f32_le(), buf.get_f32_le()]);
            }
            seismograms.push(Seismogram { station: Station { name, ix, iy }, dt, samples });
        }
        if buf.remaining() < 1 {
            return Err(CheckpointError::CorruptFile);
        }
        let pgv = match buf.get_u8() {
            0 => None,
            1 => {
                if buf.remaining() < 16 {
                    return Err(CheckpointError::CorruptFile);
                }
                let nx = buf.get_u64_le() as usize;
                let ny = buf.get_u64_le() as usize;
                let count = nx.saturating_mul(ny);
                if buf.remaining() < count.saturating_mul(4) {
                    return Err(CheckpointError::CorruptFile);
                }
                let mut values = Vec::with_capacity(count);
                for _ in 0..count {
                    values.push(buf.get_f32_le());
                }
                Some((nx, ny, values))
            }
            _ => return Err(CheckpointError::CorruptFile),
        };
        if buf.remaining() != 0 {
            return Err(CheckpointError::CorruptFile);
        }
        Ok(Self { step, time, flops, fields, seismograms, pgv })
    }

    /// Uncompressed wavefield payload size in bytes (the "108 TB"
    /// accounting).
    pub fn raw_bytes(&self) -> usize {
        self.fields.iter().map(|(_, f)| f.dims().bytes_f32()).sum()
    }

    /// Write to a file crash-consistently (see [`write_atomic`]).
    pub fn write_file(&self, path: &Path) -> std::io::Result<()> {
        write_atomic(path, &self.encode())
    }

    /// Read and verify a checkpoint file.
    pub fn read_file(path: &Path) -> Result<Self, ReadError> {
        let bytes = std::fs::read(path)
            .map_err(|source| ReadError::Io { path: path.to_path_buf(), source })?;
        Self::decode(&bytes).map_err(|error| ReadError::Decode { path: path.to_path_buf(), error })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let d = Dims3::new(6, 5, 7);
        let mut u = Field3::new(d, 2);
        u.fill_with(|x, y, z| ((x + 2 * y + 3 * z) as f32 * 0.01).sin());
        let mut xx = Field3::new(d, 2);
        xx.fill_with(|x, y, z| (x * y) as f32 - z as f32);
        Checkpoint {
            step: 4200,
            time: 12.75,
            flops: 3.5e9,
            fields: vec![("u".into(), u), ("xx".into(), xx)],
            seismograms: vec![Seismogram {
                station: Station { name: "Ninghe".into(), ix: 3, iy: 2 },
                dt: 0.01,
                samples: vec![[0.1, -0.2, 0.3], [0.4, 0.5, -0.6]],
            }],
            pgv: Some((2, 3, vec![0.0, 0.5, 1.0, 1.5, 2.0, 2.5])),
        }
    }

    #[test]
    fn roundtrip_is_exact() {
        let c = sample();
        let bytes = c.encode();
        let back = Checkpoint::decode(&bytes).unwrap();
        assert_eq!(back.step, 4200);
        assert_eq!(back.time, 12.75);
        assert_eq!(back.flops, 3.5e9);
        assert_eq!(back.fields.len(), 2);
        for ((an, af), (bn, bf)) in c.fields.iter().zip(&back.fields) {
            assert_eq!(an, bn);
            assert_eq!(af.max_abs_diff(bf), 0.0, "field {an} must be bit-exact");
        }
        assert_eq!(back.seismograms, c.seismograms);
        assert_eq!(back.pgv, c.pgv);
    }

    #[test]
    fn roundtrip_without_aux_state() {
        let mut c = sample();
        c.seismograms.clear();
        c.pgv = None;
        let back = Checkpoint::decode(&c.encode()).unwrap();
        assert!(back.seismograms.is_empty());
        assert!(back.pgv.is_none());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample().encode().to_vec();
        bytes[0] ^= 0xff;
        assert_eq!(Checkpoint::decode(&bytes), Err(CheckpointError::BadHeader));
    }

    #[test]
    fn older_magics_reported_as_version_mismatch() {
        // "SQK1" and "SQK2": one reader, no fallback fork.
        for found in OLDER_MAGICS {
            let mut bytes = sample().encode();
            bytes[..4].copy_from_slice(&found.to_le_bytes());
            assert_eq!(Checkpoint::decode(&bytes), Err(CheckpointError::BadVersion { found }));
        }
        assert_eq!(&MAGIC.to_le_bytes(), b"3KQS");
    }

    #[test]
    fn checksum_sees_every_byte_the_length_and_top_bit_pairs() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 37 % 251) as u8).collect();
        let base = checksum64(&data);
        for i in 0..data.len() {
            let mut d = data.clone();
            d[i] ^= 0x80;
            assert_ne!(checksum64(&d), base, "flip in byte {i} went unseen");
        }
        // Trailing zeros are data, not padding.
        let mut longer = data.clone();
        longer.push(0);
        assert_ne!(checksum64(&longer), base);
        assert_ne!(checksum64(&[]), checksum64(&[0]));
        // The trap a fold-less word-wise FNV falls into: the top bits of
        // two words of one lane (32 bytes apart) flipped together.
        for i in (7..data.len() - 32).step_by(8) {
            let mut d = data.clone();
            d[i] ^= 0x80;
            d[i + 32] ^= 0x80;
            assert_ne!(checksum64(&d), base, "top-bit pair at {i} cancelled");
        }
    }

    /// An image whose trailing checksum is *valid* (re-stamped after the
    /// edit), so only the decoder's own bounds stand between a crafted
    /// header and an allocation.
    fn restamped(mut bytes: Vec<u8>, edit: impl FnOnce(&mut [u8])) -> Vec<u8> {
        let body = bytes.len() - 8;
        edit(&mut bytes[..body]);
        let sum = checksum64(&bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    #[test]
    fn absurd_shapes_under_a_valid_checksum_are_bad_payload() {
        let c = sample();
        let image = c.encode();
        // First section: u16 name_len, "u", then nx ny nz (u64 each), halo.
        let nx_at = 4 + 8 + 8 + 8 + 4 + 2 + 1;
        let set_u64 = |at: usize, v: u64| {
            restamped(image.clone(), |b| b[at..at + 8].copy_from_slice(&v.to_le_bytes()))
        };
        // nx * ny * nz overflows; is representable but far past what the
        // payload could expand to; halo cubes past the address space.
        for crafted in [
            set_u64(nx_at, u64::MAX / 2),
            set_u64(nx_at, 1 << 40),
            set_u64(nx_at + 8, 1 << 20),
            restamped(image.clone(), |b| b[nx_at + 24..nx_at + 28].fill(0xff)),
        ] {
            assert_eq!(Checkpoint::decode(&crafted), Err(CheckpointError::BadPayload));
        }
        // A shape the payload *could* reach but does not: refused by the
        // bounded decode, one row past the real interior.
        let one_more = set_u64(nx_at, 7);
        assert_eq!(Checkpoint::decode(&one_more), Err(CheckpointError::BadPayload));
    }

    #[test]
    fn match_length_bomb_under_a_valid_checksum_is_bad_payload() {
        // One 2x1x1 field whose block claims 16 MiB of match from one
        // literal: refused at the 8 declared bytes.
        let mut bomb = vec![0x1f, 0xAA, 0x01, 0x00];
        bomb.extend(std::iter::repeat_n(255u8, 64 * 1024));
        bomb.push(0);
        let mut image = Vec::new();
        image.extend_from_slice(&MAGIC.to_le_bytes());
        image.extend_from_slice(&[0u8; 24]); // step, time, flops
        image.extend_from_slice(&1u32.to_le_bytes());
        image.extend_from_slice(&1u16.to_le_bytes());
        image.push(b'u');
        for n in [2u64, 1, 1] {
            image.extend_from_slice(&n.to_le_bytes());
        }
        image.extend_from_slice(&0u32.to_le_bytes()); // halo
        image.extend_from_slice(&0u64.to_le_bytes()); // field sum
        image.extend_from_slice(&(bomb.len() as u64).to_le_bytes());
        image.extend_from_slice(&bomb);
        image.extend_from_slice(&0u32.to_le_bytes()); // no seismograms
        image.push(0); // no pgv
        let sum = checksum64(&image);
        image.extend_from_slice(&sum.to_le_bytes());
        assert_eq!(Checkpoint::decode(&image), Err(CheckpointError::BadPayload));
    }

    #[test]
    fn serial_and_pool_encodes_are_the_same_bytes() {
        let c = sample();
        let fields: Vec<(&str, &Field3)> = c.fields.iter().map(|(n, f)| (n.as_str(), f)).collect();
        let pgv = c.pgv.as_ref().map(|(nx, ny, v)| (*nx, *ny, v.as_slice()));
        let meta = ImageMeta { step: c.step, time: c.time, flops: c.flops };
        let serial = encode_image(meta, &fields, &c.seismograms, pgv, false);
        assert_eq!(serial, encode_image(meta, &fields, &c.seismograms, pgv, true));
        assert_eq!(serial, c.encode());
    }

    #[test]
    fn corruption_is_detected() {
        let bytes = sample().encode().to_vec();
        // Flip a byte inside the image (past the header, before the
        // trailing checksum): the whole-file checksum catches it.
        let mut corrupt = bytes.clone();
        let idx = bytes.len() - 20;
        corrupt[idx] ^= 0x01;
        assert_eq!(Checkpoint::decode(&corrupt), Err(CheckpointError::CorruptFile));
    }

    #[test]
    fn truncation_is_an_error() {
        let bytes = sample().encode();
        for cut in [3, 20, bytes.len() / 2, bytes.len() - 1] {
            assert!(Checkpoint::decode(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn compression_shrinks_smooth_wavefields() {
        let c = sample();
        let encoded = c.encode().len();
        // Smooth fields leave plenty of byte-level redundancy.
        assert!(encoded < c.raw_bytes() * 2, "encoded {encoded} raw {}", c.raw_bytes());
    }

    #[test]
    fn file_roundtrip_and_flattened_errors() {
        let dir = std::env::temp_dir().join("swquake_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.swq");
        let c = sample();
        c.write_file(&path).unwrap();
        let back = Checkpoint::read_file(&path).unwrap();
        assert_eq!(back.step, c.step);
        assert!(!temp_path(&path).exists(), "atomic write must not leave its staging file behind");
        // Decode failures and I/O failures arrive as distinct variants.
        std::fs::write(&path, b"junk").unwrap();
        assert!(matches!(
            Checkpoint::read_file(&path),
            Err(ReadError::Decode { error: CheckpointError::BadHeader, .. })
        ));
        std::fs::remove_file(&path).ok();
        assert!(matches!(Checkpoint::read_file(&path), Err(ReadError::Io { .. })));
    }
}
