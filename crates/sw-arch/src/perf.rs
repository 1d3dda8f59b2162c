//! Per-kernel performance model (Fig. 7, Table 4).
//!
//! The wave-propagation kernels are memory-bound on SW26010 (byte-to-flop
//! ratio 0.038, 1/5 of Titan), so kernel time is dominated by DMA traffic at
//! the block-size-dependent bandwidth of Table 3. The model charges, per
//! grid point and per kernel:
//!
//! * **MPE** — the original single-core version: all traffic at the MPE's
//!   effective cache-miss bandwidth;
//! * **PAR** — the 64-CPE Athread version: DMA with unfused ≤128-byte
//!   blocks and redundant halo loads (no register communication yet);
//! * **MEM** — all memory optimizations of §6.4: fused arrays (≥384-byte
//!   blocks), register-communication halos, analytic-model blocking;
//! * **CMPR** — §6.5 on-the-fly compression: DMA bytes halved, extra
//!   decompress/compress ops charged against the CPE issue rate (and *not*
//!   counted as useful flops, matching §7.1's measurement convention).
//!
//! Constants are calibrated so that the model reproduces the paper's
//! anchors: Table 4's ~98.7 Gflops / ~25 GB/s / 5.2 GB per CG, Fig. 7's
//! ~13× (PAR) → ~24× (MEM) → ~28–47× (CMPR) speedups with `fstr` stuck near
//! 4–5×, and Fig. 8's 10.7 / 15.2 / 14.2 / 18.9 Pflops sustained rates.

use crate::dma::{DmaDirection, DmaEngine};
use crate::spec::CoreGroupSpec;
use serde::{Deserialize, Serialize};
use sw_grid::Dims3;

/// Optimization level, matching Fig. 7's bar groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OptLevel {
    /// Original code on the management processing element only.
    Mpe,
    /// Parallelized over the 64 CPEs (naive DMA).
    Par,
    /// All §6.4 memory optimizations.
    Mem,
    /// §6.5 on-the-fly compression on top of `Mem`.
    Cmpr,
}

impl OptLevel {
    /// All levels in Fig. 7 order.
    pub const ALL: [OptLevel; 4] = [OptLevel::Mpe, OptLevel::Par, OptLevel::Mem, OptLevel::Cmpr];
}

/// Effective MPE bandwidth for strided stencil traffic (calibrated so PAR
/// lands at the ~13× of Fig. 7).
const MPE_BANDWIDTH: f64 = 1.06e9;
/// Redundant-traffic factor of the PAR level (halo re-reads without
/// register communication).
const PAR_REDUNDANCY: f64 = 1.30;
/// Redundant-traffic factor after the §6.4 scheme (only CG-boundary halos).
const MEM_REDUNDANCY: f64 = 1.02;
/// Compression ratio of the 32→16-bit codecs.
const CMPR_RATIO: f64 = 0.5;
/// Decompress + compress overhead, ops per f32 moved (optimized, §6.5's
/// final design: DMA blocks enlarged, cheap normalization codec, register-
/// resident coupling).
const CMPR_OPS_PER_FLOAT: f64 = 97.8;
/// Same, for the naive first version the paper reports at 1/3 of the
/// uncompressed performance.
const CMPR_NAIVE_OPS_PER_FLOAT: f64 = 430.0;
/// Combined integer + floating issue throughput of a CPE cluster, ops/s
/// (the CPEs dual-issue integer and floating pipelines; 765 Gflop/s is the
/// floating peak alone).
const CPE_ISSUE_RATE: f64 = 915.0e9;
/// Floating-only effective rate for pure stencil arithmetic.
const CPE_FLOP_RATE: f64 = 400.0e9;

/// Memory shape and arithmetic of one kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelProfile {
    /// Kernel name as the paper spells it.
    pub name: &'static str,
    /// Fraction of the domain volume the kernel touches per step.
    pub coverage: f64,
    /// f32 values read per touched point.
    pub floats_read: usize,
    /// f32 values written per touched point.
    pub floats_written: usize,
    /// Useful flops per touched point (PERF convention — compression ops
    /// excluded).
    pub flops: f64,
    /// DMA block bytes at the PAR level (unfused).
    pub par_block: usize,
    /// DMA block bytes at the MEM/CMPR level (fused).
    pub mem_block: usize,
    /// True for the nonlinear-only plasticity kernels.
    pub nonlinear_only: bool,
}

impl KernelProfile {
    /// Bytes moved per touched point.
    pub fn bytes_per_point(&self) -> f64 {
        (self.floats_read + self.floats_written) as f64 * 4.0
    }

    /// The paper's kernel set. Traffic counts follow the array lists of
    /// §6.4/Fig. 5; flop counts are calibrated to the paper's measured
    /// rates (see module docs).
    pub fn paper_kernels() -> Vec<KernelProfile> {
        vec![
            // velocity update, central region (reads u,v,w,xx..yz,d; writes u,v,w)
            KernelProfile {
                name: "dvelcx",
                coverage: 0.95,
                floats_read: 10,
                floats_written: 3,
                flops: 160.0,
                par_block: 128,
                mem_block: 432,
                nonlinear_only: false,
            },
            // velocity update, y halo strips
            KernelProfile {
                name: "dvelcy",
                coverage: 0.05,
                floats_read: 10,
                floats_written: 3,
                flops: 160.0,
                par_block: 128,
                mem_block: 432,
                nonlinear_only: false,
            },
            // stress update with attenuation memory variables
            KernelProfile {
                name: "dstrqc",
                coverage: 1.0,
                floats_read: 19,
                floats_written: 12,
                flops: 320.0,
                par_block: 84,
                mem_block: 512,
                nonlinear_only: false,
            },
            // free-surface stress imaging (2-D, extremely low arithmetic density)
            KernelProfile {
                name: "fstr",
                coverage: 0.01,
                floats_read: 9,
                floats_written: 6,
                flops: 30.0,
                par_block: 32,
                mem_block: 48,
                nonlinear_only: false,
            },
            // Drucker-Prager yield-factor computation
            KernelProfile {
                name: "drprecpc_calc",
                coverage: 1.0,
                floats_read: 14,
                floats_written: 4,
                flops: 600.0,
                par_block: 128,
                mem_block: 432,
                nonlinear_only: true,
            },
            // Drucker-Prager stress adjustment
            KernelProfile {
                name: "drprecpc_app",
                coverage: 1.0,
                floats_read: 8,
                floats_written: 6,
                flops: 361.0,
                par_block: 128,
                mem_block: 432,
                nonlinear_only: true,
            },
        ]
    }
}

/// Model output for one kernel at one optimization level.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KernelPoint {
    /// Seconds per touched grid point.
    pub seconds_per_point: f64,
    /// Speedup over the MPE level.
    pub speedup: f64,
    /// Achieved DMA bandwidth, bytes/s (per CG).
    pub dma_bandwidth: f64,
    /// Fraction of the 34 GB/s DDR3 peak.
    pub bandwidth_utilization: f64,
}

/// The per-kernel / per-variant performance model of one core group.
#[derive(Debug, Clone)]
pub struct KernelPerfModel {
    cg: CoreGroupSpec,
    dma: DmaEngine,
    kernels: Vec<KernelProfile>,
}

impl KernelPerfModel {
    /// Model with the paper's kernel set on the SW26010 CG.
    pub fn paper() -> Self {
        Self {
            cg: CoreGroupSpec::sw26010(),
            dma: DmaEngine::one_cg(),
            kernels: KernelProfile::paper_kernels(),
        }
    }

    /// The kernel profiles.
    pub fn kernels(&self) -> &[KernelProfile] {
        &self.kernels
    }

    /// Seconds per touched point for `kernel` at `level`.
    pub fn seconds_per_point(&self, kernel: &KernelProfile, level: OptLevel) -> f64 {
        let bytes = kernel.bytes_per_point();
        let floats = (kernel.floats_read + kernel.floats_written) as f64;
        match level {
            OptLevel::Mpe => bytes / MPE_BANDWIDTH,
            OptLevel::Par => {
                let bw = self.dma.bandwidth(DmaDirection::Get, kernel.par_block);
                bytes * PAR_REDUNDANCY / bw
            }
            OptLevel::Mem => {
                let bw = self.dma.bandwidth(DmaDirection::Get, kernel.mem_block);
                let t_mem = bytes * MEM_REDUNDANCY / bw;
                let t_fp = kernel.flops / CPE_FLOP_RATE;
                t_mem.max(t_fp)
            }
            OptLevel::Cmpr => {
                let bw = self.dma.bandwidth(DmaDirection::Get, kernel.mem_block);
                let t_mem = bytes * MEM_REDUNDANCY * CMPR_RATIO / bw;
                let t_issue = (kernel.flops + floats * CMPR_OPS_PER_FLOAT) / CPE_ISSUE_RATE;
                t_mem.max(t_issue)
            }
        }
    }

    /// The naive first compression version (§6.5: "our first version with
    /// compression only achieves 1/3 of the performance without
    /// compression").
    pub fn seconds_per_point_naive_cmpr(&self, kernel: &KernelProfile) -> f64 {
        let floats = (kernel.floats_read + kernel.floats_written) as f64;
        // Small blocks (the 70 % extra DMA loads not yet removed) …
        let bw = self.dma.bandwidth(DmaDirection::Get, kernel.par_block);
        let t_mem = kernel.bytes_per_point() * MEM_REDUNDANCY * CMPR_RATIO / bw;
        // … and heavy LDM load/store traffic in the codec.
        let t_issue = (kernel.flops + floats * CMPR_NAIVE_OPS_PER_FLOAT) / CPE_ISSUE_RATE;
        t_mem.max(t_issue)
    }

    /// Full model point for `kernel` at `level` (Fig. 7 bar values).
    pub fn point(&self, kernel: &KernelProfile, level: OptLevel) -> KernelPoint {
        let secs = self.seconds_per_point(kernel, level);
        let mpe = self.seconds_per_point(kernel, OptLevel::Mpe);
        let moved = match level {
            OptLevel::Cmpr => kernel.bytes_per_point() * CMPR_RATIO,
            _ => kernel.bytes_per_point(),
        };
        let dma_bandwidth = moved / secs;
        KernelPoint {
            seconds_per_point: secs,
            speedup: mpe / secs,
            dma_bandwidth,
            bandwidth_utilization: dma_bandwidth / self.cg.mem_bandwidth,
        }
    }

    /// Seconds per grid point per time step for a whole variant
    /// (coverage-weighted sum over kernels).
    pub fn step_seconds_per_point(&self, nonlinear: bool, level: OptLevel) -> f64 {
        self.kernels
            .iter()
            .filter(|k| nonlinear || !k.nonlinear_only)
            .map(|k| k.coverage * self.seconds_per_point(k, level))
            .sum()
    }

    /// Useful flops per grid point per step (§7.1 convention).
    pub fn flops_per_point(&self, nonlinear: bool) -> f64 {
        self.kernels
            .iter()
            .filter(|k| nonlinear || !k.nonlinear_only)
            .map(|k| k.coverage * k.flops)
            .sum()
    }

    /// DMA bytes per grid point per step.
    pub fn bytes_per_point(&self, nonlinear: bool, level: OptLevel) -> f64 {
        let ratio = if level == OptLevel::Cmpr { CMPR_RATIO } else { 1.0 };
        let red = match level {
            OptLevel::Mpe => 1.0,
            OptLevel::Par => PAR_REDUNDANCY,
            _ => MEM_REDUNDANCY,
        };
        self.kernels
            .iter()
            .filter(|k| nonlinear || !k.nonlinear_only)
            .map(|k| k.coverage * k.bytes_per_point())
            .sum::<f64>()
            * ratio
            * red
    }

    /// Sustained flop rate of one CG, flop/s.
    pub fn cg_flop_rate(&self, nonlinear: bool, level: OptLevel) -> f64 {
        self.flops_per_point(nonlinear) / self.step_seconds_per_point(nonlinear, level)
    }

    /// Fraction of the CG's floating peak achieved.
    pub fn cg_efficiency(&self, nonlinear: bool, level: OptLevel) -> f64 {
        self.cg_flop_rate(nonlinear, level) / self.cg.peak_flops
    }

    /// Achieved DMA bandwidth for a whole variant step, bytes/s.
    pub fn cg_bandwidth(&self, nonlinear: bool, level: OptLevel) -> f64 {
        self.bytes_per_point(nonlinear, level) / self.step_seconds_per_point(nonlinear, level)
    }

    /// Memory per grid point in bytes for a variant (array count × 4 B):
    /// 28 3-D arrays linear, 35+ nonlinear (§3), plus ~10 % workspace.
    pub fn mem_bytes_per_point(&self, nonlinear: bool, compressed: bool) -> f64 {
        let arrays = if nonlinear { 35.0 } else { 28.0 };
        let per = if compressed { 2.0 } else { 4.0 };
        arrays * per * 1.10
    }

    /// Largest per-CG block (points) fitting the usable memory — doubling
    /// under compression is the paper's headline capacity claim.
    pub fn max_points_per_cg(&self, nonlinear: bool, compressed: bool) -> f64 {
        self.cg.usable_mem_bytes as f64 / self.mem_bytes_per_point(nonlinear, compressed)
    }
}

impl Default for KernelPerfModel {
    fn default() -> Self {
        Self::paper()
    }
}

/// Modeled DMA bytes per point of the sponge pass (9 wavefields read +
/// written, 4 bytes each).
const SPONGE_BYTES_PER_POINT: f64 = 72.0;

/// Modeled DMA bytes per point of the §6.5 compression round trip:
/// 9 wavefields × (encode 4r+2w, decode 2r+4w).
const COMPRESSION_BYTES_PER_POINT: f64 = 108.0;

/// What one kernel costs per time step on one core group.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelCost {
    /// Kernel name as the paper spells it.
    pub kernel: &'static str,
    /// Grid points the kernel touches per step.
    pub cells: f64,
    /// DMA bytes per touched point at the run's level (halved by §6.5
    /// compression).
    pub bytes_per_cell: f64,
    /// Modeled seconds per step.
    pub model_seconds: f64,
}

impl KernelCost {
    /// Modeled DMA bytes per step.
    pub fn dma_bytes(&self) -> f64 {
        self.cells * self.bytes_per_cell
    }
}

/// The SW26010 cost of one time step over a mesh: the one table the
/// perf ledger's byte and roofline columns read. The ledger multiplies
/// it by the steps a run took.
#[derive(Debug, Clone, PartialEq)]
pub struct StepCosts {
    /// The §6.4 kernels, in the paper's order.
    pub kernels: Vec<KernelCost>,
    /// The whole-mesh passes the §6.4 profiles do not cover — `sponge`,
    /// and `compression` when it is on — priced at the DDR3 bandwidth
    /// floor.
    pub passes: Vec<KernelCost>,
}

impl StepCosts {
    /// Look up a kernel or pass by name.
    pub fn get(&self, name: &str) -> Option<&KernelCost> {
        self.kernels.iter().chain(&self.passes).find(|k| k.kernel == name)
    }
}

/// Price one time step over `dims`: the §6.4 kernels at the `Mem` level
/// (`Cmpr` with §6.5 compression on; the plasticity kernels only when
/// `nonlinear`) and the unprofiled passes. A pure function of its
/// arguments — evaluate it once per mesh, never per step.
pub fn step_costs(dims: Dims3, nonlinear: bool, compression: bool) -> StepCosts {
    let model = KernelPerfModel::paper();
    let level = if compression { OptLevel::Cmpr } else { OptLevel::Mem };
    let ratio = if compression { CMPR_RATIO } else { 1.0 };
    let points = dims.len() as f64;
    let kernels = model
        .kernels()
        .iter()
        .filter(|k| nonlinear || !k.nonlinear_only)
        .map(|k| {
            let cells = points * k.coverage;
            KernelCost {
                kernel: k.name,
                cells,
                bytes_per_cell: k.bytes_per_point() * ratio,
                model_seconds: cells * model.seconds_per_point(k, level),
            }
        })
        .collect();
    let pass = |kernel, bytes_per_cell: f64| KernelCost {
        kernel,
        cells: points,
        bytes_per_cell,
        model_seconds: points * bytes_per_cell / model.cg.mem_bandwidth,
    };
    let mut passes = vec![pass("sponge", SPONGE_BYTES_PER_POINT * ratio)];
    if compression {
        passes.push(pass("compression", COMPRESSION_BYTES_PER_POINT));
    }
    StepCosts { kernels, passes }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> KernelPerfModel {
        KernelPerfModel::paper()
    }

    #[test]
    fn levels_strictly_improve_for_main_kernels() {
        let m = model();
        for k in m.kernels().iter().filter(|k| k.name != "fstr") {
            let mut prev = f64::INFINITY;
            for level in OptLevel::ALL {
                let t = m.seconds_per_point(k, level);
                assert!(t < prev, "{} must speed up at {:?}", k.name, level);
                prev = t;
            }
        }
    }

    /// Fig. 7 shape: PAR ≈ 13×, MEM ≈ 20–30×, CMPR ≈ 25–50×; `fstr` stuck
    /// at 4–6× because of its tiny 2-D blocks.
    #[test]
    fn fig7_speedup_ranges() {
        let m = model();
        for k in m.kernels() {
            let par = m.point(k, OptLevel::Par).speedup;
            let mem = m.point(k, OptLevel::Mem).speedup;
            let cmpr = m.point(k, OptLevel::Cmpr).speedup;
            if k.name == "fstr" {
                assert!((2.0..8.0).contains(&mem), "fstr MEM {mem}");
                continue;
            }
            assert!((7.0..20.0).contains(&par), "{} PAR {par}", k.name);
            assert!((18.0..35.0).contains(&mem), "{} MEM {mem}", k.name);
            assert!((22.0..55.0).contains(&cmpr), "{} CMPR {cmpr}", k.name);
            assert!(cmpr > mem, "{} compression must win", k.name);
        }
    }

    /// Fig. 7's bandwidth chart: the MEM level runs at 54–80 % of the DDR3
    /// peak for the fused kernels.
    #[test]
    fn fig7_bandwidth_utilization() {
        let m = model();
        for k in m.kernels().iter().filter(|k| k.name != "fstr") {
            let u = m.point(k, OptLevel::Mem).bandwidth_utilization;
            assert!((0.54..0.85).contains(&u), "{} MEM util {u}", k.name);
        }
    }

    /// Table 4 anchors: ~98.7 Gflops effectively used per CG (12.9 % of the
    /// 765 Gflops peak) and ~25 GB/s (73.5 %) for the nonlinear case.
    #[test]
    fn table4_per_cg_anchors() {
        let m = model();
        let rate = m.cg_flop_rate(true, OptLevel::Mem) / 1e9;
        assert!((98.7 - rate).abs() / 98.7 < 0.30, "CG rate {rate} Gflops");
        let eff = m.cg_efficiency(true, OptLevel::Mem);
        assert!((0.10..0.17).contains(&eff), "CG efficiency {eff}");
        let bw = m.cg_bandwidth(true, OptLevel::Mem) / 1e9;
        assert!((25.0 - bw).abs() / 25.0 < 0.10, "CG bandwidth {bw} GB/s");
    }

    /// §6.5: compression improves whole-application performance by ≈ 24 %
    /// (nonlinear) and ≈ 33 % (linear, 10.7 → 14.2 Pflops).
    #[test]
    fn compression_gains_match_paper() {
        let m = model();
        let gain_nl = m.step_seconds_per_point(true, OptLevel::Mem)
            / m.step_seconds_per_point(true, OptLevel::Cmpr);
        assert!((1.15..1.35).contains(&gain_nl), "nonlinear gain {gain_nl}");
        let gain_lin = m.step_seconds_per_point(false, OptLevel::Mem)
            / m.step_seconds_per_point(false, OptLevel::Cmpr);
        assert!((1.22..1.45).contains(&gain_lin), "linear gain {gain_lin}");
        assert!(gain_lin > gain_nl, "linear benefits more, as in Fig. 8");
    }

    /// §6.5: the naive compression version runs at ~1/3 of the
    /// uncompressed performance.
    #[test]
    fn naive_compression_is_about_3x_slower() {
        let m = model();
        let naive: f64 =
            m.kernels().iter().map(|k| k.coverage * m.seconds_per_point_naive_cmpr(k)).sum();
        let mem = m.step_seconds_per_point(true, OptLevel::Mem);
        let slowdown = naive / mem;
        assert!((2.2..4.0).contains(&slowdown), "naive slowdown {slowdown}");
    }

    /// Nonlinear runs more flops per point (the 25 % array increase of §3
    /// comes with roughly 2-3× the arithmetic).
    #[test]
    fn nonlinear_flops_exceed_linear() {
        let m = model();
        let lin = m.flops_per_point(false);
        let nl = m.flops_per_point(true);
        assert!(nl > 1.8 * lin, "nonlinear {nl} vs linear {lin}");
    }

    /// The compression capacity claim: max problem size doubles.
    #[test]
    fn compression_doubles_capacity() {
        let m = model();
        let plain = m.max_points_per_cg(true, false);
        let comp = m.max_points_per_cg(true, true);
        assert!((comp / plain - 2.0).abs() < 1e-9);
        // Extreme case: 7.8 T points over 160,000 CGs → 48.75 M points/CG
        // must fit compressed but not uncompressed.
        let per_cg = 7.8e12 / 160_000.0;
        assert!(comp > per_cg, "compressed capacity {comp} vs {per_cg}");
        assert!(plain < per_cg, "uncompressed cannot hold the 7.8 T case");
    }

    /// `step_costs` against the numbers the driver's three per-step
    /// charge tables held before it replaced them (recorded from them at
    /// PR 20): per kernel `(dma bytes, cycles)` truncated to integers,
    /// and the passes' `(bytes, seconds)`.
    #[test]
    fn step_costs_match_the_recorded_charge_tables() {
        struct Pinned {
            dims: Dims3,
            /// Nonlinear + compressed, or linear + uncompressed.
            production: bool,
            kernels: &'static [(&'static str, u64, u64)],
            passes: &'static [(&'static str, u64, f64)],
        }
        let small = Dims3::new(48, 48, 24);
        let large = Dims3::cube(80);
        let cases = [
            Pinned {
                dims: small,
                production: false,
                kernels: &[
                    ("dvelcx", 2_731_622, 153_477),
                    ("dvelcy", 143_769, 8_077),
                    ("dstrqc", 6_856_704, 364_786),
                    ("fstr", 33_177, 9_120),
                ],
                passes: &[("sponge", 3_981_312, 0.00011709741176470588)],
            },
            Pinned {
                dims: small,
                production: true,
                kernels: &[
                    ("dvelcx", 1_365_811, 119_158),
                    ("dvelcy", 71_884, 6_271),
                    ("dstrqc", 3_428_352, 293_709),
                    ("fstr", 16_588, 4_560),
                    ("drprecpc_calc", 1_990_656, 206_836),
                    ("drprecpc_app", 1_548_288, 151_613),
                ],
                passes: &[
                    ("sponge", 1_990_656, 5.854870588235294e-5),
                    ("compression", 5_971_968, 0.00017564611764705882),
                ],
            },
            Pinned {
                dims: large,
                production: false,
                kernels: &[
                    ("dvelcx", 25_292_800, 1_421_085),
                    ("dvelcy", 1_331_200, 74_793),
                    ("dstrqc", 63_488_000, 3_377_652),
                    ("fstr", 307_200, 84_450),
                ],
                passes: &[("sponge", 36_864_000, 0.0010842352941176471)],
            },
            Pinned {
                dims: large,
                production: true,
                kernels: &[
                    ("dvelcx", 12_646_400, 1_103_319),
                    ("dvelcy", 665_600, 58_069),
                    ("dstrqc", 31_744_000, 2_719_536),
                    ("fstr", 153_600, 42_225),
                    ("drprecpc_calc", 18_432_000, 1_915_148),
                    ("drprecpc_app", 14_336_000, 1_403_825),
                ],
                passes: &[
                    ("sponge", 18_432_000, 0.0005421176470588236),
                    ("compression", 55_296_000, 0.0016263529411764705),
                ],
            },
        ];
        let clock = CoreGroupSpec::sw26010().clock_hz;
        for want in cases {
            let dims = want.dims;
            let costs = step_costs(dims, want.production, want.production);
            let kernels: Vec<(&str, u64, u64)> = costs
                .kernels
                .iter()
                .map(|k| (k.kernel, k.dma_bytes() as u64, (k.model_seconds * clock) as u64))
                .collect();
            assert_eq!(kernels, want.kernels, "{dims} production {}", want.production);
            let passes: Vec<(&str, u64, f64)> = costs
                .passes
                .iter()
                .map(|k| (k.kernel, k.dma_bytes() as u64, k.model_seconds))
                .collect();
            assert_eq!(passes, want.passes, "{dims} production {}", want.production);
            assert!(costs.get("sponge").is_some() && costs.get("dvelcx").is_some());
            assert_eq!(costs.get("compression").is_some(), want.production);
        }
    }

    /// The plasticity part is the most time-consuming of the program (§7.2).
    #[test]
    fn plasticity_dominates_step_time() {
        let m = model();
        let t = |name: &str| {
            let k = m.kernels().iter().find(|k| k.name == name).unwrap();
            k.coverage * m.seconds_per_point(k, OptLevel::Mem)
        };
        let plast = t("drprecpc_calc") + t("drprecpc_app");
        assert!(plast > t("dstrqc"));
        assert!(plast > t("dvelcx") + t("dvelcy"));
    }
}
