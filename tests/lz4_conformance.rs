//! LZ4 conformance, in both directions, against the byte-at-a-time codec
//! the product used to ship (`tests/oracle/lz4.rs`): the product
//! compressor's blocks decode under the reference decoder and the
//! reference compressor's blocks under the product decoder, every block
//! either side produces obeys the block format's end-of-block rules, and
//! the fast compressor gives up at most 2 % of size on real wavefields.

mod oracle;

use oracle::lz4 as reference;
use swquake::compress::lz4;
use swquake::core::{SimConfig, Simulation};
use swquake::grid::Dims3;
use swquake::model::LayeredModel;
use swquake::source::{MomentTensor, PointSource, SourceTimeFunction};

/// SplitMix64, as in `tests/checkpoint_durability.rs`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next() as u8).collect()
    }
}

/// The byte textures `lz4_round_trips_seeded_buffers` draws (empty,
/// constant runs, a counter, seeded mixes of runs and noise).
fn seeded_textures() -> Vec<Vec<u8>> {
    let mut rng = Rng(23);
    let mut corpus: Vec<Vec<u8>> = vec![
        Vec::new(),
        vec![0u8; 1],
        vec![0u8; 4096],
        vec![0xAB; 777],
        (0..=255u8).cycle().take(3000).collect(),
    ];
    for _ in 0..20 {
        let n = rng.below(5000);
        let mut buf = Vec::with_capacity(n);
        while buf.len() < n {
            if rng.next().is_multiple_of(3) {
                let run = 1 + rng.below(64);
                let b = (rng.next() & 0xFF) as u8;
                buf.extend(std::iter::repeat_n(b, run.min(n - buf.len())));
            } else {
                buf.push((rng.next() & 0xFF) as u8);
            }
        }
        corpus.push(buf);
    }
    corpus
}

/// The interior bytes of every checkpointed field of a 24³ attenuating
/// run after `steps` steps — what the checkpoint encoder hands to LZ4.
fn wavefield_bytes(steps: usize) -> Vec<Vec<u8>> {
    let mut cfg = SimConfig::new(Dims3::cube(24), 150.0, steps);
    cfg.options.sponge_width = 4;
    cfg.options.attenuation = true;
    cfg.sources = vec![PointSource {
        ix: 12,
        iy: 11,
        iz: 6,
        moment: MomentTensor::double_couple(30.0, 80.0, 170.0, 3.0e14),
        stf: SourceTimeFunction::Triangle { onset: 0.02, duration: 0.3 },
    }];
    let mut sim = Simulation::new(&LayeredModel::north_china(), &cfg).expect("valid config");
    sim.run(steps);
    let ckpt = sim.make_checkpoint();
    ckpt.fields
        .iter()
        .map(|(_, f)| f.interior_to_vec().iter().flat_map(|v| v.to_le_bytes()).collect())
        .collect()
}

/// Walk a block's sequences and assert the format's rules: offsets in
/// `1..=65535` and inside the output so far, the block ends on a
/// literal-only sequence, no match starts within the last 12 bytes or
/// reaches into the last 5. Returns the decoded length.
fn check_block_format(block: &[u8], what: &str) -> usize {
    fn length(block: &[u8], pos: &mut usize, base: usize) -> usize {
        let mut len = base;
        if base == 15 {
            loop {
                let b = block[*pos];
                *pos += 1;
                len += b as usize;
                if b != 255 {
                    break;
                }
            }
        }
        len
    }
    assert!(!block.is_empty(), "{what}: even an empty input is one token");
    let mut matches: Vec<(usize, usize)> = Vec::new(); // (start, end) in output
    let (mut pos, mut out) = (0usize, 0usize);
    loop {
        let token = block[pos];
        pos += 1;
        let literals = length(block, &mut pos, (token >> 4) as usize);
        pos += literals;
        out += literals;
        assert!(pos <= block.len(), "{what}: literals run past the block");
        if pos == block.len() {
            assert_eq!(token & 0x0f, 0, "{what}: the last sequence carries no match");
            break;
        }
        let offset = u16::from_le_bytes([block[pos], block[pos + 1]]) as usize;
        pos += 2;
        assert!((1..=out).contains(&offset), "{what}: offset {offset} at output {out}");
        let len = length(block, &mut pos, (token & 0x0f) as usize) + 4;
        matches.push((out, out + len));
        out += len;
    }
    for (start, end) in matches {
        assert!(start + 12 <= out, "{what}: a match starts {} bytes before the end", out - start);
        assert!(end + 5 <= out, "{what}: a match ends {} bytes before the end", out - end);
    }
    out
}

/// Both compressors on `data`: format-checked, cross-decoded. Returns
/// `(product size, reference size)`.
fn conform(data: &[u8], what: &str) -> (usize, usize) {
    let fast = lz4::compress(data);
    let slow = reference::compress(data);
    assert_eq!(check_block_format(&fast, what), data.len(), "{what}: product block length");
    assert_eq!(check_block_format(&slow, what), data.len(), "{what}: reference block length");
    assert_eq!(reference::decompress(&fast).expect(what), data, "{what}: product -> reference");
    assert_eq!(lz4::decompress(&slow).expect(what), data, "{what}: reference -> product");
    assert_eq!(lz4::decompress_into(&slow, data.len()).expect(what), data, "{what}: bounded");
    assert_eq!(lz4::decompress(&fast).expect(what), data, "{what}: product -> product");
    (fast.len(), slow.len())
}

#[test]
fn seeded_textures_conform_both_ways() {
    for (i, buf) in seeded_textures().iter().enumerate() {
        conform(buf, &format!("texture {i} ({} B)", buf.len()));
    }
}

#[test]
fn every_short_length_conforms() {
    // 0..=64 spans literal-only blocks (< 13 B), the first inputs that may
    // hold a match, and the 8-byte tail of the match extension.
    let mut rng = Rng(5);
    for len in 0..=64usize {
        conform(&vec![7u8; len], &format!("run of {len}"));
        conform(&rng.bytes(len), &format!("noise of {len}"));
        let period: Vec<u8> = (0..len).map(|i| (i % 3) as u8).collect();
        conform(&period, &format!("period-3 of {len}"));
    }
}

#[test]
fn the_65535_offset_boundary_is_taken_and_not_overstepped() {
    // noise P, a zero run, P again: the second P can only be matched
    // against the first, `distance` bytes back. 65 535 is the largest
    // offset a sequence can carry; one more and P must go out as literals.
    let p = Rng(77).bytes(64);
    let block = |distance: usize| {
        let mut data = p.clone();
        data.extend(std::iter::repeat_n(0u8, distance - p.len()));
        data.extend_from_slice(&p);
        data.extend(std::iter::repeat_n(0u8, 32));
        data
    };
    let (at, past) = (block(65_535), block(65_536));
    let (fast_at, slow_at) = conform(&at, "distance 65535");
    let (fast_past, slow_past) = conform(&past, "distance 65536");
    assert!(fast_at + 40 < fast_past, "product: {fast_at} B at the boundary, {fast_past} B past");
    assert!(slow_at + 40 < slow_past, "reference: {slow_at} B at the boundary, {slow_past} B past");
}

#[test]
fn real_wavefields_conform_and_stay_within_two_percent() {
    let sizes = |fields: &[Vec<u8>], what: &str| {
        fields.iter().enumerate().fold((0, 0), |(fast, slow), (i, bytes)| {
            let (f, s) = conform(bytes, &format!("{what} field {i}"));
            (fast + f, slow + s)
        })
    };
    // Early: the wave has barely left the source, most cells are zero.
    let early = wavefield_bytes(3);
    let raw: usize = early.iter().map(Vec::len).sum();
    let (fast, slow) = sizes(&early, "early");
    assert!(slow * 20 < raw, "early wavefields are mostly zero: {slow} of {raw} B");
    assert!(fast * 100 <= slow * 102, "early: product {fast} B, reference {slow} B");
    // Mid-run: the wave fills the mesh.
    let (fast, slow) = sizes(&wavefield_bytes(60), "mid-run");
    assert!(fast * 100 <= slow * 102, "mid-run: product {fast} B, reference {slow} B");
    // All-zero input: not a byte larger.
    let zeros = vec![0u8; 24 * 24 * 24 * 4];
    let (fast, slow) = conform(&zeros, "zeros");
    assert!(fast <= slow, "zeros: product {fast} B, reference {slow} B");
}
