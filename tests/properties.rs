//! Property-style tests on the core data structures and invariants across
//! crates.
//!
//! The crate registry is unreachable in the build environment, so instead
//! of `proptest` these run each property over many cases drawn from a
//! deterministic in-test PRNG (splitmix64) — same invariants, fixed seeds,
//! reproducible failures.

use swquake::compress::{lz4, AdaptiveCodec, Codec16, F16Codec, FieldStats, NormCodec};
use swquake::grid::halo::{Face, HaloSpec};
use swquake::grid::{Dims3, Field3};
use swquake::source::{m0_from_mw, mw_from_m0, MomentTensor};

/// splitmix64: tiny, statistically solid, and fully deterministic.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform f64 in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform f64 in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next_u64() as u8).collect()
    }
}

#[test]
fn lz4_roundtrip() {
    let mut rng = Rng(0x5351_0001);
    for _ in 0..64 {
        let len = rng.below(4096);
        let data = rng.bytes(len);
        let c = lz4::compress(&data);
        let d = lz4::decompress(&c).expect("decompress");
        assert_eq!(d, data);
    }
}

#[test]
fn lz4_roundtrip_repetitive() {
    // Repeats trigger the overlap-copy path.
    let mut rng = Rng(0x5351_0002);
    for _ in 0..32 {
        let byte = rng.next_u64() as u8;
        let n = rng.below(20_000);
        let period = 1 + rng.below(8);
        let data: Vec<u8> = (0..n).map(|i| byte.wrapping_add((i % period) as u8)).collect();
        let c = lz4::compress(&data);
        assert_eq!(lz4::decompress(&c).expect("decompress"), data);
    }
}

#[test]
fn norm_codec_error_bound() {
    // The normalization codec respects its declared error bound for any
    // range and any in-range value.
    let mut rng = Rng(0x5351_0003);
    for _ in 0..256 {
        let lo = rng.range(-1.0e6, 1.0e6) as f32;
        let span = rng.range(1.0e-3, 1.0e6) as f32;
        let t = rng.unit() as f32;
        let codec = NormCodec::new(lo, lo + span);
        let v = lo + t * span;
        let r = codec.decode(codec.encode(v));
        assert!(
            (r - v).abs() <= codec.max_abs_error() * 1.001,
            "v={v} r={r} bound={}",
            codec.max_abs_error()
        );
    }
}

#[test]
fn f16_relative_error() {
    // binary16 keeps relative error below 2^-11 for normal-range values.
    let mut rng = Rng(0x5351_0004);
    for _ in 0..256 {
        let v = rng.range(-6.0e4, 6.0e4) as f32;
        if v.abs() <= 1e-4 {
            continue;
        }
        let r = F16Codec.decode(F16Codec.encode(v));
        assert!(((r - v) / v).abs() <= 4.9e-4, "v={v} r={r}");
    }
}

#[test]
fn adaptive_codec_in_range() {
    // The adaptive codec covers whatever range the statistics declare.
    let mut rng = Rng(0x5351_0005);
    for _ in 0..128 {
        let e_lo = -18 + rng.below(18) as i32;
        let e_hi = 1 + rng.below(11) as i32;
        let m = rng.range(1.0, 2.0) as f32;
        let codec = AdaptiveCodec::new(e_lo, e_hi);
        for e in [e_lo, (e_lo + e_hi) / 2, e_hi] {
            let v = m * 2.0f32.powi(e);
            let r = codec.decode(codec.encode(v));
            assert!(((r - v) / v).abs() < 0.02, "v={v} r={r} ({e_lo}..{e_hi})");
        }
    }
}

#[test]
fn stats_merge_is_consistent() {
    // Field statistics merge like a monoid: observing everything at once
    // equals merging the halves.
    let mut rng = Rng(0x5351_0006);
    for _ in 0..64 {
        let mk = |rng: &mut Rng| -> Vec<f32> {
            (0..1 + rng.below(63)).map(|_| rng.range(-1.0e3, 1.0e3) as f32).collect()
        };
        let a = mk(&mut rng);
        let b = mk(&mut rng);
        let whole: Vec<f32> = a.iter().chain(b.iter()).copied().collect();
        let merged = FieldStats::of_slice(&a).merge(&FieldStats::of_slice(&b));
        let direct = FieldStats::of_slice(&whole);
        assert_eq!(merged, direct);
    }
}

#[test]
fn halo_pack_unpack_lossless() {
    // Halo pack → unpack is lossless for every face.
    let mut rng = Rng(0x5351_0008);
    for _ in 0..32 {
        let nx = 3 + rng.below(5);
        let ny = 3 + rng.below(5);
        let nz = 2 + rng.below(4);
        let d = Dims3::new(nx, ny, nz);
        let mut f = Field3::new(d, 2);
        f.fill_with(|x, y, z| (x * 10007 + y * 101 + z) as f32);
        let spec = HaloSpec { width: 2 };
        for face in Face::ALL {
            let mut buf = Vec::new();
            spec.pack(&f, face, &mut buf);
            let mut g = Field3::new(d, 2);
            spec.unpack(&mut g, face.opposite(), &buf);
            // the receiving halo must reproduce the packed slabs exactly
            match face {
                Face::East => {
                    for y in 0..ny {
                        for z in 0..nz {
                            assert_eq!(g.at_i(-1, y as isize, z as isize), f.get(nx - 1, y, z));
                        }
                    }
                }
                Face::North => {
                    for x in 0..nx {
                        for z in 0..nz {
                            assert_eq!(g.at_i(x as isize, -1, z as isize), f.get(x, ny - 1, z));
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

#[test]
fn magnitude_moment_roundtrip() {
    // Moment magnitude and scalar moment are inverse maps.
    let mut rng = Rng(0x5351_0009);
    for _ in 0..256 {
        let mw = rng.range(-2.0, 10.0);
        assert!((mw_from_m0(m0_from_mw(mw)) - mw).abs() < 1e-9);
    }
}

#[test]
fn double_couple_invariants() {
    // Double couples are traceless with the requested scalar moment for
    // arbitrary fault angles.
    let mut rng = Rng(0x5351_000a);
    for _ in 0..128 {
        let s = rng.range(0.0, 360.0);
        let d = rng.range(1.0, 90.0);
        let r = rng.range(-180.0, 180.0);
        let m0 = 1.0e17;
        let m = MomentTensor::double_couple(s, d, r, m0);
        assert!(m.trace().abs() < m0 * 1e-6);
        assert!(((m.scalar_moment() - m0) / m0).abs() < 1e-6);
    }
}

#[test]
fn dims_offset_roundtrip() {
    // Dims3 offset/coords are inverse for arbitrary extents.
    let mut rng = Rng(0x5351_000b);
    for _ in 0..256 {
        let d = Dims3::new(1 + rng.below(19), 1 + rng.below(19), 1 + rng.below(19));
        let o = rng.below(d.len());
        let (x, y, z) = d.coords(o);
        assert_eq!(d.offset(x, y, z), o);
    }
}
