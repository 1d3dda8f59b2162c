//! LZ4 block-format codec, implemented from scratch.
//!
//! The paper's I/O stack "integrates the LZ4 compression to reduce the size
//! [of the 108-TB restart wavefields] for a smoother run" (§6.2). This is a
//! standard LZ4 *block* codec built the way the reference implementation's
//! fast mode is: one hash-table probe per position, a step that grows
//! while probes keep missing (incompressible stretches are skipped, not
//! crawled), matches extended eight bytes at a time, and a decompressor
//! that copies matches as slices. The sequence format (token / extended
//! lengths / little-endian 16-bit offsets, overlapping matches) and the
//! end-of-block rules of the spec are honoured: the last five bytes are
//! always literals, and no match starts within the final twelve bytes.
//! The byte-at-a-time codec this replaced lives on as the conformance
//! reference in `tests/oracle/lz4.rs`.

/// Minimum match length of the LZ4 format.
const MIN_MATCH: usize = 4;
/// No match may start after `len - MF_LIMIT`.
const MF_LIMIT: usize = 12;
/// Matches must end at least this many bytes before the block end.
const LAST_LITERALS: usize = 5;
/// Largest offset a sequence can carry.
const MAX_OFFSET: usize = u16::MAX as usize;
/// Hash-table size (log2): 2¹² `u32` slots = 16 KiB, the reference
/// implementation's default — the table has to live in L1 (at 64 KiB the
/// same loop compresses a 64³ wavefield at half the speed, for 0.1 % of
/// size).
const HASH_LOG: u32 = 12;
/// After `2^SKIP_TRIGGER` consecutive misses the search step grows by one
/// (and again after as many more). The reference implementation uses 6;
/// on mid-run wavefields 7 costs no measurable time and halves the size
/// given up to skipping (+0.5 % against probing every byte).
const SKIP_TRIGGER: u32 = 7;
/// Most output bytes one input byte can stand for (a run of `255` length
/// bytes, each worth 255 match bytes).
const MAX_EXPANSION: usize = 255;

/// Decompression failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lz4Error {
    /// Input ended in the middle of a sequence.
    Truncated,
    /// A match referenced data before the start of the output.
    BadOffset,
    /// The block expands past the length the caller expects.
    TooLong,
    /// The block ended before producing the length the caller expects.
    TooShort,
}

impl std::fmt::Display for Lz4Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Lz4Error::Truncated => write!(f, "LZ4 block truncated"),
            Lz4Error::BadOffset => write!(f, "LZ4 match offset out of range"),
            Lz4Error::TooLong => write!(f, "LZ4 block expands past the expected length"),
            Lz4Error::TooShort => write!(f, "LZ4 block ends short of the expected length"),
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
    let mut word = [0u8; 4];
    word.copy_from_slice(&src[pos..pos + 4]);
    u32::from_le_bytes(word)
}

/// Length of the common prefix of `a` and `b`, compared a word at a time:
/// the first differing byte is the lowest set byte of the xor.
#[inline(always)]
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let mut n = 0;
    let (mut wa, mut wb) = (a.chunks_exact(8), b.chunks_exact(8));
    for (x, y) in (&mut wa).zip(&mut wb) {
        let (mut p, mut q) = ([0u8; 8], [0u8; 8]);
        p.copy_from_slice(x);
        q.copy_from_slice(y);
        let diff = u64::from_le_bytes(p) ^ u64::from_le_bytes(q);
        if diff != 0 {
            return n + (diff.trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    n + a[n..].iter().zip(&b[n..]).take_while(|(x, y)| x == y).count()
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
    let mut out = Vec::new();
    compress_into(src, &mut out);
    out
}

/// Compress `src` as one LZ4 block appended to `out`.
pub fn compress_into(src: &[u8], out: &mut Vec<u8>) {
    let len = src.len();
    out.reserve(len / 2 + 16);
    if len < MF_LIMIT + 1 {
        emit_last_literals(out, src);
        return;
    }
    let mflimit = len - MF_LIMIT;
    let matchlimit = len - LAST_LITERALS;
    // Slots hold positions truncated to 32 bits; a candidate counts only
    // when it lies 1..=MAX_OFFSET behind the probe *and* its four bytes
    // match, so an empty slot (0) or a stale one can only cost a miss.
    let mut table = vec![0u32; 1 << HASH_LOG];
    let mut anchor = 0usize;
    let mut pos = 0usize;
    'block: loop {
        // Probe forward for a match, stepping faster the longer it misses.
        let mut misses = 1usize << SKIP_TRIGGER;
        let mut cand = loop {
            if pos > mflimit {
                break 'block;
            }
            let seq = read_u32(src, pos);
            let slot = &mut table[hash(seq)];
            let dist = (pos as u32).wrapping_sub(*slot) as usize;
            *slot = pos as u32;
            if dist.wrapping_sub(1) < MAX_OFFSET && dist <= pos && read_u32(src, pos - dist) == seq
            {
                break pos - dist;
            }
            pos += misses >> SKIP_TRIGGER;
            misses += 1;
        };
        // A skipped-over probe may have landed mid-match: take back the
        // literals that also match.
        while pos > anchor && cand > 0 && src[pos - 1] == src[cand - 1] {
            pos -= 1;
            cand -= 1;
        }
        let ml = MIN_MATCH
            + common_prefix(&src[cand + MIN_MATCH..matchlimit], &src[pos + MIN_MATCH..matchlimit]);
        emit_sequence(out, &src[anchor..pos], (pos - cand) as u16, ml);
        pos += ml;
        anchor = pos;
        // Seed the table inside the match so runs keep matching.
        if pos <= mflimit {
            let p = pos - 2;
            table[hash(read_u32(src, p))] = p as u32;
        }
    }
    emit_last_literals(out, &src[anchor..]);
}

fn read_length(src: &[u8], pos: &mut usize, base: usize) -> Result<usize, Lz4Error> {
    let mut len = base;
    if base == 15 {
        loop {
            let b = *src.get(*pos).ok_or(Lz4Error::Truncated)?;
            *pos += 1;
            len = len.saturating_add(b as usize);
            if b != 255 {
                break;
            }
        }
    }
    Ok(len)
}

/// Decode one block, refusing to produce more than `limit` bytes.
///
/// Nothing is reserved beyond three times the input ahead of the bytes
/// actually produced, so neither a lying `limit` nor a run of extended
/// match lengths can make a small block allocate a large buffer.
fn decode_block(src: &[u8], limit: usize) -> Result<Vec<u8>, Lz4Error> {
    let mut out = Vec::with_capacity(limit.min(src.len().saturating_mul(3)));
    let mut pos = 0usize;
    loop {
        let token = *src.get(pos).ok_or(Lz4Error::Truncated)?;
        pos += 1;
        // Literals.
        let lit_len = read_length(src, &mut pos, (token >> 4) as usize)?;
        let lit_end = pos.checked_add(lit_len).ok_or(Lz4Error::Truncated)?;
        if lit_end > src.len() {
            return Err(Lz4Error::Truncated);
        }
        if lit_len > limit - out.len() {
            return Err(Lz4Error::TooLong);
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
        let match_len =
            read_length(src, &mut pos, (token & 0x0f) as usize)?.saturating_add(MIN_MATCH);
        if match_len > limit - out.len() {
            return Err(Lz4Error::TooLong);
        }
        // An offset shorter than the length overlaps its own output and
        // replicates (the RLE trick of the format): everything from
        // `start` on is periodic in `offset`, so each pass may copy all
        // that has been produced since `start`, doubling as it goes.
        let start = out.len() - offset;
        let mut remaining = match_len;
        while remaining > 0 {
            let n = remaining.min(out.len() - start);
            out.extend_from_within(start..start + n);
            remaining -= n;
        }
    }
}

/// Decompress an LZ4 block produced by [`compress`] (or any conforming
/// encoder) whose decoded length is not known in advance.
pub fn decompress(src: &[u8]) -> Result<Vec<u8>, Lz4Error> {
    decode_block(src, src.len().saturating_mul(MAX_EXPANSION))
}

/// Decompress a block that must decode to exactly `expected_len` bytes:
/// [`Lz4Error::TooLong`] as soon as the output would pass it,
/// [`Lz4Error::TooShort`] when the block ends before reaching it.
pub fn decompress_into(src: &[u8], expected_len: usize) -> Result<Vec<u8>, Lz4Error> {
    let out = decode_block(src, expected_len)?;
    if out.len() < expected_len {
        return Err(Lz4Error::TooShort);
    }
    Ok(out)
}

/// Whether a block of `compressed_len` bytes could decode to
/// `decoded_len` at all — the check to make on a length read from
/// outside before sizing anything by it.
pub fn can_expand_to(compressed_len: usize, decoded_len: usize) -> bool {
    decoded_len <= compressed_len.saturating_mul(MAX_EXPANSION)
}

/// Little-endian bytes of an f32 slice.
pub fn f32_le_bytes(src: &[f32], dst: &mut [u8]) {
    assert_eq!(dst.len(), src.len() * 4);
    for (b, v) in dst.chunks_exact_mut(4).zip(src) {
        b.copy_from_slice(&v.to_le_bytes());
    }
}

/// The f32 values of little-endian bytes (inverse of [`f32_le_bytes`]).
pub fn f32_from_le_bytes(src: &[u8], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len() * 4);
    for (v, b) in dst.iter_mut().zip(src.chunks_exact(4)) {
        *v = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    }
}

/// Convenience: compress a f32 slice.
pub fn compress_f32(src: &[f32]) -> Vec<u8> {
    let mut bytes = vec![0u8; src.len() * 4];
    f32_le_bytes(src, &mut bytes);
    compress(&bytes)
}

/// Convenience: decompress back into f32 values.
pub fn decompress_f32(src: &[u8]) -> Result<Vec<f32>, Lz4Error> {
    let bytes = decompress(src)?;
    if bytes.len() % 4 != 0 {
        return Err(Lz4Error::Truncated);
    }
    let mut out = vec![0.0f32; bytes.len() / 4];
    f32_from_le_bytes(&bytes, &mut out);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c).expect("decompress");
        assert_eq!(d, data, "roundtrip of {} bytes failed", data.len());
        assert_eq!(decompress_into(&c, data.len()).expect("decompress_into"), data);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"hello world!"); // below MF_LIMIT: literal-only
    }

    #[test]
    fn compressible_zeros() {
        let data = vec![0u8; 10_000];
        let c = compress(&data);
        assert!(c.len() < 100, "zeros must compress hard: {} B", c.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn repeated_pattern_uses_overlap() {
        let data: Vec<u8> = b"abcd".iter().cycle().take(4096).copied().collect();
        let c = compress(&data);
        assert!(c.len() < data.len() / 10);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn text_roundtrip() {
        let text = "The dynamic rupture generator is based on the CG-FDM code, \
                    with functions to initialize the fault stress, to perform \
                    friction law control, and to generate the sources through \
                    wave propagation. "
            .repeat(20);
        roundtrip(text.as_bytes());
        let c = compress(text.as_bytes());
        assert!(c.len() < text.len() / 2, "text compresses at least 2x");
    }

    #[test]
    fn incompressible_random_roundtrips() {
        // xorshift noise — incompressible but must round-trip with bounded
        // expansion.
        let mut state = 0x12345678u32;
        let data: Vec<u8> = (0..8192)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                state as u8
            })
            .collect();
        let c = compress(&data);
        assert!(c.len() < data.len() + data.len() / 128 + 32);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn long_literal_and_match_lengths() {
        // > 255+15 literals then a long run to exercise extended lengths.
        let mut data = Vec::new();
        for i in 0..300u32 {
            data.extend_from_slice(&(i.wrapping_mul(2654435761)).to_le_bytes());
        }
        data.extend(std::iter::repeat_n(7u8, 5000));
        roundtrip(&data);
    }

    #[test]
    fn overlapping_matches_of_every_short_offset() {
        // Period-p runs decode through the doubling copy for p < length.
        for period in 1..=9usize {
            let data: Vec<u8> = (0..700).map(|i| (i % period) as u8 + 1).collect();
            roundtrip(&data);
        }
    }

    #[test]
    fn truncated_input_is_an_error() {
        let c = compress(&vec![1u8; 1000]);
        for cut in [0, 1, c.len() / 2] {
            assert!(decompress(&c[..cut]).is_err());
        }
    }

    #[test]
    fn bad_offset_is_an_error() {
        // token: 0 literals, match len 4; offset 5 with empty output.
        let bogus = [0x00u8, 0x05, 0x00];
        assert_eq!(decompress(&bogus), Err(Lz4Error::BadOffset));
    }

    #[test]
    fn expected_length_bounds_the_output_both_ways() {
        let data = vec![9u8; 4000];
        let c = compress(&data);
        assert_eq!(decompress_into(&c, 4000).unwrap(), data);
        assert_eq!(decompress_into(&c, 3999), Err(Lz4Error::TooLong));
        assert_eq!(decompress_into(&c, 4001), Err(Lz4Error::TooShort));
        // A match-length bomb: one literal, then a match whose extended
        // length claims ~255 bytes per input byte. It is refused at the
        // expected length, long before the claimed megabytes exist.
        let mut bomb = vec![0x1f, 0xAA, 0x01, 0x00];
        bomb.extend(std::iter::repeat_n(255u8, 64 * 1024));
        bomb.push(0);
        assert_eq!(decompress_into(&bomb, 16), Err(Lz4Error::TooLong));
        assert!(can_expand_to(c.len(), 4000));
        assert!(!can_expand_to(16, 16 * 255 + 1));
    }

    #[test]
    fn f32_wavefield_compresses() {
        // A smooth wavefield has very regular bytes in the exponent lanes;
        // LZ4 should find structure but stay lossless.
        let field: Vec<f32> = (0..4096).map(|i| ((i as f32) * 0.01).sin() * 1e-3).collect();
        let c = compress_f32(&field);
        let d = decompress_f32(&c).unwrap();
        assert_eq!(d, field);
    }

    #[test]
    fn zero_checkpoint_shrinks_enormously() {
        // Early-simulation wavefields are mostly zero — the case that makes
        // the 108-TB checkpoint tractable.
        let field = vec![0.0f32; 65536];
        let c = compress_f32(&field);
        assert!(c.len() * 100 < field.len() * 4);
        assert_eq!(decompress_f32(&c).unwrap(), field);
    }
}
