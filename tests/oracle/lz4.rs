//! The byte-at-a-time LZ4 block codec `sw-compress` shipped before its
//! fast-mode compressor and slice-copying decompressor: greedy matching
//! with one probe per byte and a `usize` table, matches extended and
//! copied a byte at a time. Kept, unoptimized, as the conformance
//! reference (`tests/lz4_conformance.rs`: each side's blocks decode under
//! the other's decoder, sizes stay within 2 %) and as the baseline
//! `bench_checkpoint_overhead` times the product codec against.
//!
//! Do not "improve" this file: its value is that it is obviously the old
//! code.

/// Minimum match length of the LZ4 format.
const MIN_MATCH: usize = 4;
/// No match may start after `len - MF_LIMIT`.
const MF_LIMIT: usize = 12;
/// Matches must end at least this many bytes before the block end.
const LAST_LITERALS: usize = 5;
/// Hash-table size (log2).
const HASH_LOG: u32 = 14;

/// Decompression failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lz4Error {
    /// Input ended in the middle of a sequence.
    Truncated,
    /// A match referenced data before the start of the output.
    BadOffset,
}

impl std::fmt::Display for Lz4Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Lz4Error::Truncated => write!(f, "LZ4 block truncated"),
            Lz4Error::BadOffset => write!(f, "LZ4 match offset out of range"),
        }
    }
}

impl std::error::Error for Lz4Error {}

#[inline(always)]
fn hash(seq: u32) -> usize {
    (seq.wrapping_mul(2654435761) >> (32 - HASH_LOG)) as usize
}

#[inline(always)]
fn read_u32(src: &[u8], pos: usize) -> u32 {
    u32::from_le_bytes([src[pos], src[pos + 1], src[pos + 2], src[pos + 3]])
}

fn write_length(out: &mut Vec<u8>, mut len: usize) {
    while len >= 255 {
        out.push(255);
        len -= 255;
    }
    out.push(len as u8);
}

fn emit_sequence(out: &mut Vec<u8>, literals: &[u8], offset: u16, match_len: usize) {
    debug_assert!(match_len >= MIN_MATCH);
    let lit_len = literals.len();
    let ml_code = match_len - MIN_MATCH;
    let token = ((lit_len.min(15) as u8) << 4) | ml_code.min(15) as u8;
    out.push(token);
    if lit_len >= 15 {
        write_length(out, lit_len - 15);
    }
    out.extend_from_slice(literals);
    out.extend_from_slice(&offset.to_le_bytes());
    if ml_code >= 15 {
        write_length(out, ml_code - 15);
    }
}

fn emit_last_literals(out: &mut Vec<u8>, literals: &[u8]) {
    let lit_len = literals.len();
    out.push((lit_len.min(15) as u8) << 4);
    if lit_len >= 15 {
        write_length(out, lit_len - 15);
    }
    out.extend_from_slice(literals);
}

/// Compress `src` into a fresh LZ4 block.
pub fn compress(src: &[u8]) -> Vec<u8> {
    let len = src.len();
    let mut out = Vec::with_capacity(len / 2 + 16);
    if len < MF_LIMIT + 1 {
        emit_last_literals(&mut out, src);
        return out;
    }
    let mflimit = len - MF_LIMIT;
    let matchlimit = len - LAST_LITERALS;
    let mut table = vec![0usize; 1 << HASH_LOG]; // stores pos + 1, 0 = empty
    let mut anchor = 0usize;
    let mut pos = 0usize;
    while pos <= mflimit {
        let seq = read_u32(src, pos);
        let h = hash(seq);
        let cand = table[h];
        table[h] = pos + 1;
        let found = cand > 0 && {
            let c = cand - 1;
            pos - c <= u16::MAX as usize && read_u32(src, c) == seq
        };
        if !found {
            pos += 1;
            continue;
        }
        let cand = cand - 1;
        // Extend the match forward up to the last-literals limit.
        let mut ml = MIN_MATCH;
        while pos + ml < matchlimit && src[cand + ml] == src[pos + ml] {
            ml += 1;
        }
        emit_sequence(&mut out, &src[anchor..pos], (pos - cand) as u16, ml);
        pos += ml;
        anchor = pos;
        // Seed the table inside the match so runs keep matching.
        if pos <= mflimit {
            let p = pos - 2;
            table[hash(read_u32(src, p))] = p + 1;
        }
    }
    emit_last_literals(&mut out, &src[anchor..]);
    out
}

fn read_length(src: &[u8], pos: &mut usize, base: usize) -> Result<usize, Lz4Error> {
    let mut len = base;
    if base == 15 {
        loop {
            let b = *src.get(*pos).ok_or(Lz4Error::Truncated)?;
            *pos += 1;
            len += b as usize;
            if b != 255 {
                break;
            }
        }
    }
    Ok(len)
}

/// Decompress an LZ4 block produced by [`compress`] (or any conforming
/// encoder).
pub fn decompress(src: &[u8]) -> Result<Vec<u8>, Lz4Error> {
    let mut out = Vec::with_capacity(src.len() * 3);
    let mut pos = 0usize;
    if src.is_empty() {
        return Err(Lz4Error::Truncated);
    }
    loop {
        let token = *src.get(pos).ok_or(Lz4Error::Truncated)?;
        pos += 1;
        // Literals.
        let lit_len = read_length(src, &mut pos, (token >> 4) as usize)?;
        let lit_end = pos.checked_add(lit_len).ok_or(Lz4Error::Truncated)?;
        if lit_end > src.len() {
            return Err(Lz4Error::Truncated);
        }
        out.extend_from_slice(&src[pos..lit_end]);
        pos = lit_end;
        if pos == src.len() {
            return Ok(out); // last sequence carries no match
        }
        // Match.
        if pos + 2 > src.len() {
            return Err(Lz4Error::Truncated);
        }
        let offset = u16::from_le_bytes([src[pos], src[pos + 1]]) as usize;
        pos += 2;
        if offset == 0 || offset > out.len() {
            return Err(Lz4Error::BadOffset);
        }
        let match_len = read_length(src, &mut pos, (token & 0x0f) as usize)? + MIN_MATCH;
        // Byte-by-byte copy: offsets smaller than the length overlap and
        // replicate (the RLE trick of the format).
        let start = out.len() - offset;
        for i in 0..match_len {
            let b = out[start + i];
            out.push(b);
        }
    }
}
