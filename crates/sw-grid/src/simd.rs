//! Fixed-width `f32` lanes, and the one place that decides how wide the
//! CPU runs them.
//!
//! An [`F32x8`] is a plain `[f32; 8]` whose element-wise operators
//! unroll into straight-line, bounds-check-free lane arithmetic (no
//! nightly `std::simd`, no intrinsics). Each lane evaluates the same
//! expression tree as the scalar kernel, in the same order, so kernels
//! built from these lanes are bit-identical to their scalar counterparts
//! lane by lane; only loop structure changes, never per-element FP order.
//!
//! What the compiler makes of those eight lanes depends on the
//! instruction set it may assume, and the build assumes only the
//! architecture's baseline (there is no `-C target-cpu`: such a binary
//! dies with `SIGILL` on an older host). On x86-64 that baseline is
//! SSE2, where the hot blocks come out as 8-way unrolled scalar or
//! 4-wide code. [`wide`] is how a lane loop gets the registers the host
//! really has: it runs a closure inside a function compiled for the best
//! [`LaneTier`] the CPU reports, chosen at run time. Everything
//! `#[inline(always)]` under that call — the lane operators here, the
//! codec bodies of `sw-compress`, the kernels' row blocks — is inlined
//! into, and therefore compiled for, that tier; the same source is
//! monomorphized once per tier and nothing is written twice. Wider
//! registers change how many lanes one instruction carries, never what a
//! lane computes: no tier enables contraction or reassociation (Rust
//! emits neither), VEX/EVEX arithmetic rounds as SSE does and obeys the
//! same `MXCSR` ([`crate::fpenv`]), so every tier produces the same bits
//! (`tests/kernel_matrix.rs`, `tests/codec_lanes.rs` and
//! `tests/exec_equivalence.rs` run under each tier the host offers).
//!
//! Lanes load from and store to the contiguous interior rows exposed by
//! [`Field3::row`](crate::Field3::row) /
//! [`Field3::row_tile`](crate::Field3::row_tile) — z is the fastest
//! axis, so a row is the innermost contiguous run every stencil kernel
//! vectorizes over.
//!
//! This file holds one of the workspace's three `unsafe` blocks (the call
//! from undetected into detected code); DESIGN.md ("The `unsafe`
//! policy") has the argument.

use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Lane count of the fixed-width vector type: one AVX2 / AVX-512VL
/// register of `f32` under the wide tiers, two SSE2 or NEON registers
/// at the baseline.
pub const LANES: usize = 8;

/// The instruction-set tiers a lane loop can be compiled for, narrowest
/// first. The order is the dispatch order: [`wide`] runs the highest
/// tier that is both detected and under the cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LaneTier {
    /// What the build targets: SSE2 on x86-64, NEON on aarch64.
    Baseline,
    /// x86-64 AVX2: 256-bit integer and float lanes.
    Avx2,
    /// x86-64 AVX-512 F + VL + BW + DQ: masks, 32 registers, 512-bit
    /// lanes where a loop is long enough.
    Avx512,
}

impl LaneTier {
    const ALL: [LaneTier; 3] = [LaneTier::Baseline, LaneTier::Avx2, LaneTier::Avx512];

    /// The name reports and ledgers carry.
    pub fn name(self) -> &'static str {
        match self {
            LaneTier::Baseline => "baseline",
            LaneTier::Avx2 => "avx2",
            LaneTier::Avx512 => "avx512",
        }
    }

    /// The best tier this CPU reports (std caches the `cpuid` reads).
    pub fn detected() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512vl")
                && is_x86_feature_detected!("avx512bw")
                && is_x86_feature_detected!("avx512dq")
            {
                return LaneTier::Avx512;
            }
            if is_x86_feature_detected!("avx2") {
                return LaneTier::Avx2;
            }
        }
        LaneTier::Baseline
    }

    /// The tier [`wide`] dispatches to right now.
    pub fn active() -> Self {
        let cap = Self::ALL[usize::from(CAP.load(Ordering::Relaxed))];
        Self::detected().min(cap)
    }

    /// Baseline and every wider tier this host offers, narrowest first —
    /// what a tier-forced equivalence test loops over.
    pub fn available() -> impl Iterator<Item = LaneTier> {
        Self::ALL.into_iter().filter(|&t| t <= Self::detected())
    }
}

impl fmt::Display for LaneTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// No cap: the widest tier there is.
const UNCAPPED: u8 = LaneTier::Avx512 as u8;

/// Index into [`LaneTier::ALL`] of the highest tier [`wide`] may pick.
/// `Relaxed` everywhere: the value publishes no other data, and every
/// tier computes the same bits, so a racing reader is merely early or
/// late.
static CAP: AtomicU8 = AtomicU8::new(UNCAPPED);

/// Serializes the holders of a [`LaneCap`].
static CAP_HOLDER: Mutex<()> = Mutex::new(());

/// Lowers the tier of every [`wide`] call in the process until dropped.
#[doc(hidden)]
#[must_use = "the cap ends when the guard is dropped"]
pub struct LaneCap {
    _turn: MutexGuard<'static, ()>,
}

impl Drop for LaneCap {
    fn drop(&mut self) {
        CAP.store(UNCAPPED, Ordering::Relaxed);
    }
}

/// Tests and benches only (nothing on the CLI, in the environment or in
/// a config file reaches this): run every lane loop at `tier` or below
/// — `Baseline` is the path hosts without AVX2 and other architectures
/// take. One holder at a time: a second caller waits for the first
/// guard to drop.
#[doc(hidden)]
pub fn cap_lanes(tier: LaneTier) -> LaneCap {
    // A holder that panicked (a failed test) has already reset the cap.
    let turn = CAP_HOLDER.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    CAP.store(tier as u8, Ordering::Relaxed);
    LaneCap { _turn: turn }
}

/// `run(tier)` under a cap at baseline and at every wider tier this host
/// offers, narrowest first (the last entry is what an uncapped run
/// dispatches to) — the loop of the tier-forced tests and benches.
#[doc(hidden)]
pub fn per_tier<T>(mut run: impl FnMut(LaneTier) -> T) -> Vec<(LaneTier, T)> {
    LaneTier::available()
        .map(|tier| {
            let _cap = cap_lanes(tier);
            (tier, run(tier))
        })
        .collect()
}

/// Run `f` compiled for the widest tier this CPU has.
///
/// `f` should be an `#[inline(always)]` closure (or call only such
/// functions on its hot path): what is inlined into the call is compiled
/// for the tier, what is not stays baseline code. A non-feature callee
/// may inline into a feature caller, never the reverse — so call this
/// *at the loop*, on the thread that runs it, not around a region that
/// hands work to other threads.
#[inline]
pub fn wide<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    {
        #[target_feature(enable = "avx512f,avx512vl,avx512bw,avx512dq")]
        fn avx512<R>(f: impl FnOnce() -> R) -> R {
            f()
        }
        #[target_feature(enable = "avx2")]
        fn avx2<R>(f: impl FnOnce() -> R) -> R {
            f()
        }
        match LaneTier::active() {
            LaneTier::Baseline => f(),
            // SAFETY: a `#[target_feature]` function may only run on a
            // CPU that has the features. `active()` never exceeds
            // `detected()`, which returns a tier only after
            // `is_x86_feature_detected!` confirmed every feature that
            // tier's function enables (and that the OS saves the wider
            // register state). The callees take and return ordinary Rust
            // values and contain nothing but the call of `f`: the
            // attribute changes which instructions the compiler may pick
            // for `f`'s body, not what it computes.
            tier => unsafe {
                match tier {
                    LaneTier::Avx512 => avx512(f),
                    _ => avx2(f),
                }
            },
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    f()
}

/// Eight `f32` lanes with element-wise arithmetic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F32x8(pub [f32; LANES]);

impl F32x8 {
    /// All lanes set to `v`.
    #[inline(always)]
    pub fn splat(v: f32) -> Self {
        Self([v; LANES])
    }

    /// Load the first [`LANES`] elements of `s`.
    #[inline(always)]
    pub fn load(s: &[f32]) -> Self {
        let mut out = [0.0f32; LANES];
        out.copy_from_slice(&s[..LANES]);
        Self(out)
    }

    /// Store into the first [`LANES`] elements of `out`.
    #[inline(always)]
    pub fn store(self, out: &mut [f32]) {
        out[..LANES].copy_from_slice(&self.0);
    }

    /// Element-wise `self * a + b` — written as separate mul and add so
    /// the FP result matches the scalar `x * a + b` exactly (no fused
    /// multiply-add contraction).
    #[inline(always)]
    pub fn mul_add_exact(self, a: Self, b: Self) -> Self {
        self * a + b
    }
}

macro_rules! lane_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for F32x8 {
            type Output = F32x8;
            #[inline(always)]
            fn $method(self, rhs: F32x8) -> F32x8 {
                let mut out = [0.0f32; LANES];
                for i in 0..LANES {
                    out[i] = self.0[i] $op rhs.0[i];
                }
                F32x8(out)
            }
        }
    };
}

lane_binop!(Add, add, +);
lane_binop!(Sub, sub, -);
lane_binop!(Mul, mul, *);

impl Neg for F32x8 {
    type Output = F32x8;
    #[inline(always)]
    fn neg(self) -> F32x8 {
        let mut out = [0.0f32; LANES];
        for (o, v) in out.iter_mut().zip(self.0) {
            *o = -v;
        }
        F32x8(out)
    }
}

impl Mul<F32x8> for f32 {
    type Output = F32x8;
    #[inline(always)]
    fn mul(self, rhs: F32x8) -> F32x8 {
        F32x8::splat(self) * rhs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_arithmetic_matches_scalar_bitwise() {
        let a: Vec<f32> = (0..LANES).map(|i| 0.1f32 + i as f32 * 1.7).collect();
        let b: Vec<f32> = (0..LANES).map(|i| -3.3f32 + i as f32 * 0.9).collect();
        let va = F32x8::load(&a);
        let vb = F32x8::load(&b);
        let got = 1.125f32 * (va - vb) + F32x8::splat(-1.0 / 24.0) * (vb * va);
        for i in 0..LANES {
            let want = 1.125f32 * (a[i] - b[i]) + (-1.0f32 / 24.0) * (b[i] * a[i]);
            assert_eq!(got.0[i].to_bits(), want.to_bits(), "lane {i}");
        }
    }

    /// The same lane expression inside `wide` at every tier the host
    /// offers: same bits, the cap is what `active()` reports while held,
    /// a cap above the host's tier changes nothing, and dropping the
    /// guard gives the host its tier back.
    #[test]
    fn every_tier_computes_the_same_bits_and_the_cap_only_lowers() {
        let a: Vec<f32> = (0..LANES).map(|i| 0.1f32 + i as f32 * 1.7).collect();
        let b: Vec<f32> = (0..LANES).map(|i| -3.3f32 + i as f32 * 0.9).collect();
        let runs = per_tier(|tier| {
            assert_eq!(LaneTier::active(), tier);
            wide(
                #[inline(always)]
                || {
                    let (va, vb) = (F32x8::load(&a), F32x8::load(&b));
                    (1.125f32 * (va - vb) + F32x8::splat(-1.0 / 24.0) * (vb * va))
                        .0
                        .map(f32::to_bits)
                },
            )
        });
        assert_eq!(runs[0].0, LaneTier::Baseline);
        assert_eq!(runs[runs.len() - 1].0, LaneTier::detected());
        assert!(runs.iter().all(|(_, bits)| *bits == runs[0].1), "{runs:?}");
        {
            let _cap = cap_lanes(LaneTier::Avx512);
            assert_eq!(LaneTier::active(), LaneTier::detected());
        }
        assert_eq!(LaneTier::active(), LaneTier::detected());
        assert_eq!(LaneTier::Avx2.to_string(), "avx2");
    }

    #[test]
    fn load_store_roundtrip() {
        let src: Vec<f32> = (0..LANES + 3).map(|i| i as f32).collect();
        let v = F32x8::load(&src[2..]);
        assert_eq!(v.0[0], 2.0);
        let mut dst = vec![0.0f32; LANES + 1];
        v.store(&mut dst);
        assert_eq!(&dst[..LANES], &src[2..2 + LANES]);
        assert_eq!(dst[LANES], 0.0, "store writes exactly LANES elements");
    }

    #[test]
    fn neg_and_mul_add_exact() {
        let v = F32x8::splat(2.0);
        assert_eq!((-v).0[7], -2.0);
        let r = v.mul_add_exact(F32x8::splat(3.0), F32x8::splat(1.0));
        assert_eq!(r.0[0], 7.0);
    }
}
