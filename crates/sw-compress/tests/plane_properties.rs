//! Property and seeded-fuzz tests for the plane-granular resident codecs.
//!
//! The resident store keeps lossy 16-bit state *live* across thousands of
//! steps, so these tests pin the codec contract on adversarial inputs:
//! denormals, magnitudes adjacent to ±∞, all-zero planes, and sign flips —
//! and check that the streaming plane/z-run paths agree bit for bit with
//! whole-field encodes.

use sw_compress::{
    calibrated_codec, max_abs_bucket, Codec, Codec16, CompressedField3, EncodeStats, FieldStats,
    ResidentField3,
};
use sw_grid::{Dims3, Field3};

/// Deterministic xorshift PRNG so "fuzz" failures replay exactly.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform in [-1, 1).
    fn uniform(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 23) as f32 * 2.0 - 1.0
    }

    /// Uniform integer in [lo, hi].
    fn int(&mut self, lo: i32, hi: i32) -> i32 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i32
    }
}

fn bases() -> [(&'static str, Codec); 3] {
    let empty = FieldStats::empty();
    [
        ("adaptive", Codec::paper_assignment("xx", &empty)),
        ("norm", Codec::paper_assignment("lam", &empty)),
        ("f16", Codec::paper_assignment("u", &empty)),
    ]
}

/// The per-plane error bound the calibration contract promises for a plane
/// whose finite max-abs lands in `bucket` (within the clamp window — the
/// extreme-magnitude saturation cases are pinned separately below).
/// Every codec encodes an f32-subnormal input as signed zero, so the
/// floor of any bound is the subnormal's own magnitude.
fn binade_bound(family: &str, codec: &Codec, bucket: i32, max_abs: f32) -> f32 {
    let bound = match family {
        // Declared worst case of the calibrated window.
        "adaptive" | "norm" => codec.max_abs_error(),
        // binary16: half-ULP relative error down to the subnormal floor.
        "f16" => {
            let _ = bucket;
            max_abs * 2.0f32.powi(-10) + 2.0f32.powi(-24)
        }
        _ => unreachable!(),
    };
    bound.max(f32::MIN_POSITIVE)
}

fn encode_one_plane(base: Codec, values: &[f32]) -> (ResidentField3, EncodeStats, usize) {
    // One interior x-plane wide enough to hold `values` in its first row.
    let d = Dims3::new(1, 1, values.len());
    let mut f = Field3::new(d, 2);
    for (z, &v) in values.iter().enumerate() {
        f.set(0, 0, z, v);
    }
    let mut r = ResidentField3::new(d, 2, base);
    let p = 2; // first interior plane (halo = 2)
    let stats = r.encode_plane_sampled(p, f.plane(p));
    (r, stats, p)
}

#[test]
fn adversarial_planes_respect_binade_bound() {
    let adversarial: &[&[f32]] = &[
        // Denormal-only plane.
        &[1.0e-40, -3.0e-39, 7.7e-42, 0.0, -1.2e-44],
        // Mixed denormal/normal.
        &[1.0e-40, 2.0e-20, -5.0e-30, 4.0e-38],
        // Tiny normals straddling the smallest-normal boundary.
        &[f32::MIN_POSITIVE, -f32::MIN_POSITIVE * 0.5, f32::MIN_POSITIVE * 2.0],
        // Moderate values with sign flips.
        &[0.5, -0.5, 0.25, -0.25, 1.0e-3, -1.0e-3],
        // Wide dynamic range within one plane (34 binades, f16-finite).
        &[1.0e-6, -3.0e2, 7.0e-1, -2.0e4],
    ];
    for (family, base) in bases() {
        for (i, plane) in adversarial.iter().enumerate() {
            let (r, stats, p) = encode_one_plane(base, plane);
            let bucket = max_abs_bucket(stats.max_abs);
            let codec = calibrated_codec(&base, bucket);
            let bound = binade_bound(family, &codec, bucket, stats.max_abs);
            assert!(
                stats.max_err <= bound,
                "{family} plane {i}: err {} vs bound {bound}",
                stats.max_err
            );
            assert_eq!(stats.nonfinite, 0);
            // Spot-check through the point decoder too.
            for (z, &v) in plane.iter().enumerate() {
                let got = r.get(0, 0, z);
                assert!((got - v).abs() <= bound, "{family} plane {i} z {z}: {got} vs {v}");
            }
            let _ = p;
        }
    }
}

#[test]
fn infinity_adjacent_magnitudes_saturate_deterministically() {
    // |v| near f32::MAX exceeds every calibrated window; the contract is
    // deterministic saturation (or f16 overflow to ±inf), never garbage.
    let plane: &[f32] = &[3.0e38, -3.0e38, f32::MAX, -f32::MAX, 1.0];
    for (family, base) in bases() {
        let (r, stats, _) = encode_one_plane(base, plane);
        assert_eq!(stats.nonfinite, 0, "inputs are finite");
        for (z, &v) in plane.iter().enumerate() {
            let got = r.get(0, 0, z);
            if family == "f16" && v.abs() > 65504.0 {
                assert!(got.is_infinite() && got.signum() == v.signum(), "{family}: {got}");
            } else {
                assert!(got.is_finite(), "{family} z {z}: {got}");
                assert_eq!(got.signum(), v.signum(), "{family} z {z}");
                assert!(got.abs() <= v.abs() * 1.01, "{family} z {z}: {got} vs {v}");
            }
        }
        // Saturation must be stable: re-encoding the decoded plane is a
        // fixed point (no walk-down on repeated round trips).
        let f1 = r.to_field();
        let r2 = ResidentField3::from_field_with_buckets(&f1, base, r.plane_buckets());
        if family != "f16" {
            assert_eq!(r.to_field().raw(), r2.to_field().raw(), "{family}: unstable saturation");
        }
    }
}

#[test]
fn all_zero_planes_are_exact_and_free() {
    for (family, base) in bases() {
        let (r, stats, _) = encode_one_plane(base, &[0.0; 32]);
        assert_eq!(stats.max_abs, 0.0, "{family}");
        assert_eq!(stats.max_err, 0.0, "{family}");
        assert_eq!(stats.rel_err(), 0.0, "{family}");
        let f = r.to_field();
        assert_eq!(f.max_abs(), 0.0, "{family}: zero plane must decode to exact zeros");
    }
}

#[test]
fn sign_flip_symmetry() {
    let values: Vec<f32> = (0..64).map(|i| ((i as f32 * 0.37).sin()) * 0.8).collect();
    let negated: Vec<f32> = values.iter().map(|v| -v).collect();
    for (family, base) in bases() {
        let (r_pos, _, _) = encode_one_plane(base, &values);
        let (r_neg, _, _) = encode_one_plane(base, &negated);
        for z in 0..values.len() {
            let a = r_pos.get(0, 0, z);
            let b = r_neg.get(0, 0, z);
            match family {
                // Sign lives in a dedicated bit: mirroring is exact.
                "adaptive" | "f16" => {
                    assert_eq!((-a).to_bits(), b.to_bits(), "{family} z {z}: {a} vs {b}")
                }
                // Affine normalization is symmetric only to within one
                // quantum of the (power-of-two) range.
                "norm" => {
                    let quantum = calibrated_codec(&base, r_pos.plane_buckets()[2]).max_abs_error();
                    assert!((a + b).abs() <= 2.0 * quantum, "{family} z {z}: {a} vs {b}");
                }
                _ => unreachable!(),
            }
        }
    }
}

#[test]
fn seeded_fuzz_roundtrip_error_bounded() {
    let mut rng = Rng::new(0x5eed_cafe_f00d);
    for trial in 0..200 {
        // Random binade from deep denormal to near-overflow-safe.
        let exp = rng.int(-135, 110);
        let scale = 2.0f32.powi(exp);
        let n = 16 + (rng.next_u64() % 48) as usize;
        let plane: Vec<f32> = (0..n)
            .map(|_| {
                let v = rng.uniform() * scale;
                // Sprinkle exact zeros.
                if rng.next_u64().is_multiple_of(7) {
                    0.0
                } else {
                    v
                }
            })
            .collect();
        for (family, base) in bases() {
            let (_, stats, _) = encode_one_plane(base, &plane);
            if stats.max_abs == 0.0 {
                assert_eq!(stats.max_err, 0.0);
                continue;
            }
            if family == "f16" && stats.max_abs > 65504.0 {
                // binary16 overflows to ±inf above its max finite value;
                // the health feed sees the unbounded error and trips the
                // budget gate — the contract for out-of-format planes.
                assert!(stats.max_err.is_infinite(), "trial {trial}: expected f16 overflow");
                continue;
            }
            let bucket = max_abs_bucket(stats.max_abs);
            let codec = calibrated_codec(&base, bucket);
            let bound = binade_bound(family, &codec, bucket, stats.max_abs);
            assert!(
                stats.max_err <= bound,
                "trial {trial} {family}: exp {exp} err {} vs bound {bound}",
                stats.max_err
            );
        }
    }
}

#[test]
fn z_run_encode_agrees_bitwise_with_whole_field_encode() {
    let d = Dims3::new(5, 4, 16);
    let mut f = Field3::new(d, 2);
    f.fill_with(|x, y, z| ((x * 31 + y * 7 + z) as f32 * 0.618).sin() * 0.4);
    let stats = FieldStats::of_field(&f);
    for name in ["u", "xx", "lam"] {
        let codec = Codec::paper_assignment(name, &stats);
        let whole = CompressedField3::from_field(&f, codec);
        // Streaming path: encode interior z-run by z-run into a fresh field.
        let mut streamed = CompressedField3::new(d, 2, codec);
        for x in 0..d.nx {
            for y in 0..d.ny {
                streamed.encode_z_run(x, y, f.row(x, y));
            }
        }
        for x in 0..d.nx {
            for y in 0..d.ny {
                for z in 0..d.nz {
                    assert_eq!(
                        streamed.get(x, y, z).to_bits(),
                        whole.get(x, y, z).to_bits(),
                        "{name} ({x},{y},{z})"
                    );
                }
            }
        }
    }
}

#[test]
fn resident_plane_path_agrees_bitwise_with_whole_field_decode() {
    let d = Dims3::new(6, 5, 9);
    let mut f = Field3::new(d, 2);
    f.fill_with(|x, y, z| ((x * 13 + y * 5 + z * 3) as f32).cos() * 2.0f32.powi(x as i32 - 3));
    for (_, base) in bases() {
        let r = ResidentField3::from_field(&f, base);
        let whole = r.to_field();
        // Point decodes and streaming plane decodes must match the
        // whole-field decode bit for bit.
        let mut buf = vec![0.0f32; r.plane_len()];
        for p in 0..r.plane_count() {
            r.decode_plane_into(p, &mut buf);
            assert_eq!(&buf[..], whole.plane(p), "plane {p}");
        }
        for x in 0..d.nx {
            for y in 0..d.ny {
                for z in 0..d.nz {
                    assert_eq!(r.get(x, y, z).to_bits(), whole.get(x, y, z).to_bits());
                }
            }
        }
    }
}

/// The error statistics are a read-only pass over what the calibrating
/// encode stored: a plane encoded with and without them has identical
/// codes, bucket and `plane_max`, the scan half of the statistics is
/// the same either way, and only the sampled encode fills the errors.
#[test]
fn error_statistics_never_change_what_is_stored() {
    let mut rng = Rng::new(0x0b5e_55ed_c0de);
    let d = Dims3::new(3, 7, 37);
    for trial in 0..40 {
        let scale = 2.0f32.powi(rng.int(-60, 40));
        let mut f = Field3::new(d, 2);
        for v in f.raw_mut() {
            *v = rng.uniform() * scale;
        }
        if trial % 4 == 0 {
            f.set(1, 2, 3, f32::NAN);
            f.set(2, 6, 36, f32::NEG_INFINITY);
        }
        for (family, base) in bases() {
            let mut plain = ResidentField3::new(d, 2, base);
            let mut sampled = ResidentField3::new(d, 2, base);
            let mut any_error = false;
            for p in 0..plain.plane_count() {
                let a = plain.encode_plane(p, f.plane(p));
                let b = sampled.encode_plane_sampled(p, f.plane(p));
                assert_eq!(
                    (a.max_abs.to_bits(), a.count, a.nonfinite),
                    (b.max_abs.to_bits(), b.count, b.nonfinite),
                    "{family} trial {trial} plane {p}: scan"
                );
                assert_eq!((a.max_err, a.sum_sq_err), (0.0, 0.0), "{family}: unsampled errors");
                any_error |= b.max_err > 0.0 && b.sum_sq_err > 0.0;
            }
            assert!(any_error, "{family} trial {trial}: the sampled encode measured nothing");
            assert_eq!(plain, sampled, "{family} trial {trial}: codes / buckets");
            let bits = |r: &ResidentField3| -> Vec<u32> {
                r.plane_max().iter().map(|m| m.to_bits()).collect()
            };
            assert_eq!(bits(&plain), bits(&sampled), "{family} trial {trial}: plane_max");
            // Construction and restore take the unsampled path.
            let built = ResidentField3::from_field(&f, base);
            assert_eq!(built, plain, "{family} trial {trial}: from_field");
            assert_eq!(bits(&built), bits(&plain), "{family} trial {trial}: from_field plane_max");
        }
    }
}
