//! Flop accounting, following §7.1's measurement convention.
//!
//! "The number of floating point operations are measured … by counting
//! all floating point arithmetic instructions … Note that all the
//! operations added for optimization purposes, such as the
//! compression-related operations, are not counted in the number of
//! FLOPs." The counts below are the per-point arithmetic of the kernels
//! as written in this crate (counted from the source expressions). The
//! perf ledger's per-step rows multiply them by the cells each kernel
//! touches, and a run's flop total is the sum of those rows' flops.

/// Per-point flops of one velocity-component divergence: three 4th-order
/// differences (7 flops each) + combine (2) + scale (2).
const VEL_FLOPS_PER_COMPONENT: f64 = 25.0;
/// Velocity kernel: 3 components + buoyancy division.
pub const DVELC_FLOPS: f64 = 3.0 * VEL_FLOPS_PER_COMPONENT + 1.0;
/// Stress kernel: 6 strain rates (7 each) + 6 stress rates (~4 each) +
/// divergence (2) + the attenuation terms.
pub const DSTRQC_FLOPS: f64 = 6.0 * 7.0 + 6.0 * 4.0 + 2.0 + ATTENUATION_FLOPS;
/// The part of [`DSTRQC_FLOPS`] the coarse-grained attenuation spends:
/// 6 memory-variable updates (~6 each). The fused kernel skips it on an
/// elastic state.
pub const ATTENUATION_FLOPS: f64 = 6.0 * 6.0;
/// Plasticity calc: mean (3) + deviator (6) + J2 (11) + sqrt (1) + yield
/// (5) + compare/ratio (2).
pub const DRPRECPC_CALC_FLOPS: f64 = 28.0;
/// Plasticity apply on a yielding point: return mapping (14) + strain (6).
pub const DRPRECPC_APP_FLOPS: f64 = 20.0;
/// Free-surface imaging per surface point.
pub const FSTR_FLOPS: f64 = 8.0;
/// Sponge per damped cell of an elastic state: one multiply per
/// wavefield. With attenuation the six memory variables add one each
/// ([`crate::kernels::sponge::damped_arrays`]).
pub const SPONGE_FLOPS: f64 = 9.0;

/// Flop counter accumulated over a run: the simulation adds the flops of
/// its per-step perf-ledger rows once per step.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FlopCounter {
    /// Useful flops (§7.1 convention).
    pub flops: f64,
}

impl FlopCounter {
    /// Sustained flop rate for a measured wall time.
    pub fn rate(&self, elapsed_seconds: f64) -> f64 {
        if elapsed_seconds > 0.0 {
            self.flops / elapsed_seconds
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_is_flops_over_wall() {
        let c = FlopCounter { flops: 4.0e9 };
        assert_eq!(c.rate(2.0), 2.0e9);
        assert_eq!(c.rate(0.0), 0.0);
    }

    #[test]
    fn per_point_order_of_magnitude() {
        // A nonlinear attenuated step is a few hundred flops per point —
        // the regime of the paper's accounting.
        let per_point = DVELC_FLOPS + DSTRQC_FLOPS + DRPRECPC_CALC_FLOPS + DRPRECPC_APP_FLOPS;
        assert!((100.0..400.0).contains(&per_point), "per point {per_point}");
        assert_eq!(DSTRQC_FLOPS, 104.0);
    }
}
