//! Executing a kernel through the simulated SW26010 memory hierarchy.
//!
//! [`SunwayExecutor`] drives the velocity update the way the Sunway port
//! does: the §6.4 analytic model picks the `(Cy, Cz, Wy, Wz)` blocking;
//! each simulated CPE walks its tiles, allocates LDM windows through the
//! capacity-enforcing allocator, `dma_get`s the fused z-runs at their
//! real block sizes (costs from the Table 3 curve), pulls intra-CG halo
//! rows over the register-communication mesh, computes, and `dma_put`s
//! the results. The arithmetic reads through the coherent functional
//! store, so the wavefield result is bit-identical to the plain kernel —
//! which the tests pin down — while every byte moved and every register
//! message is charged to the hardware cost model.

use crate::kernels::{dvelc_region, Region};
use crate::state::SolverState;
use sw_arch::analytic::{AnalyticModel, BlockingChoice, KernelShape};
use sw_arch::dma::DmaDirection;
use sw_arch::{DmaEngine, DmaStats, LdmAllocator, RegCommStats, RegisterMesh};
use sw_grid::tile::{CgBlock, TileIter};
use sw_grid::HALO_WIDTH;

/// Cost report of one simulated kernel pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SunwayCost {
    /// DMA statistics (bytes, transfers, seconds).
    pub dma: DmaStats,
    /// Register-communication statistics.
    pub reg: RegCommStats,
    /// LDM high-water mark of the busiest CPE, bytes.
    pub ldm_high_water: usize,
    /// Tiles processed across all CPEs.
    pub tiles: u64,
    /// Estimated kernel seconds (DMA-bound estimate: DMA time is the
    /// critical path for this memory-bound kernel; register traffic
    /// overlaps it).
    pub seconds: f64,
}

/// Simulated-CPE execution of the velocity kernel over one CG block.
pub struct SunwayExecutor {
    choice: BlockingChoice,
    dma: DmaEngine,
    mesh: RegisterMesh,
}

impl SunwayExecutor {
    /// Build for a CG block of `ny × nz` using the analytic model's
    /// optimal configuration for the fused `delcx` kernel shape.
    pub fn for_block(ny: usize, nz: usize) -> Self {
        let model = AnalyticModel::sw26010();
        let choice = model.optimize(&KernelShape::delcx_fused(ny, nz));
        Self { choice, dma: DmaEngine::one_cg(), mesh: RegisterMesh::sw26010() }
    }

    /// The blocking configuration in use.
    pub fn blocking(&self) -> BlockingChoice {
        self.choice
    }

    /// Run the velocity update over the whole state, charging costs.
    pub fn run_dvelc(&mut self, s: &mut SolverState) -> SunwayCost {
        let d = s.dims;
        let layout = self.choice.layout;
        let window = self.choice.window;
        let block = CgBlock::whole(d);
        let mut ldm_high_water = 0usize;
        let mut tiles = 0u64;
        self.dma.reset_stats();
        self.mesh.reset_stats();
        // The fused delcx arrays: vel vec3 (r/w), stress vec6 (r), rho (r).
        let fused: [(usize, bool); 3] = [(3, true), (6, false), (1, false)];
        for tid in 0..64 {
            let region = layout.region(&block, tid);
            if region.is_empty() {
                continue;
            }
            let mut ldm = LdmAllocator::sw26010();
            for tile in TileIter::new(region, window, HALO_WIDTH) {
                tiles += 1;
                ldm.reset();
                let wz = tile.dims.nz.min(window.wz);
                let rows = tile.dims.ny + 2 * HALO_WIDTH;
                for (comps, writable) in fused {
                    // Window allocation: wx planes of (rows × wz) fused points.
                    ldm.alloc_f32(window.wx * rows * wz * comps)
                        .expect("analytic model guarantees the window fits");
                    // DMA get: one transfer per (plane, row), block = wz·4·comps.
                    let block_bytes = wz * 4 * comps;
                    let central_rows = tile.dims.ny as u64;
                    let n_gets = window.wx as u64 * central_rows;
                    self.dma.charge(DmaDirection::Get, block_bytes, n_gets);
                    if writable {
                        self.dma.charge(DmaDirection::Put, block_bytes, n_gets);
                    }
                }
                // Intra-CG halo rows ride the register buses: 2·H rows per
                // neighbouring thread edge, for the read-only arrays.
                for step in [-1isize, 1] {
                    if let Some(nb) = layout.neighbor_y(tid, step) {
                        for _ in 0..HALO_WIDTH {
                            // vec6 stress + rho halos per x-plane
                            for comps in [6usize, 1] {
                                let _ = self.mesh.send_relayed(nb, tid, wz * comps);
                            }
                        }
                    } else {
                        // CG-boundary threads still DMA their halos.
                        self.dma.charge(DmaDirection::Get, wz * 4, (HALO_WIDTH * window.wx) as u64);
                    }
                }
                ldm_high_water = ldm_high_water.max(ldm.high_water());
            }
        }
        // Functional result: the coherent store computes the same update
        // the LDM pipeline produces on hardware.
        dvelc_region(s, &Region::whole(d), false, true);
        let dma = self.dma.stats();
        SunwayCost { dma, reg: self.mesh.stats(), ldm_high_water, tiles, seconds: dma.seconds }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{dvelcx, dvelcy};
    use crate::state::StateOptions;
    use sw_grid::Dims3;
    use sw_model::HalfspaceModel;

    fn state() -> SolverState {
        let opts = StateOptions { sponge_width: 0, attenuation: false, ..Default::default() };
        let mut s = SolverState::from_model(
            &HalfspaceModel::hard_rock(),
            Dims3::new(8, 40, 64),
            100.0,
            (0.0, 0.0, 0.0),
            opts,
        );
        for (x, y, z) in s.dims.iter() {
            let v = ((x * 31 + y * 17 + z * 7) % 23) as f32 - 11.0;
            s.xx.set(x, y, z, v * 1e4);
            s.xy.set(x, y, z, -v * 5e3);
            s.zz.set(x, y, z, v * 2e3);
        }
        s
    }

    /// The simulated-Sunway execution produces bit-identical wavefields.
    #[test]
    fn bit_identical_to_plain_kernel() {
        let mut plain = state();
        dvelcx(&mut plain);
        dvelcy(&mut plain);
        let mut sunway = state();
        let mut exec = SunwayExecutor::for_block(40, 64);
        let cost = exec.run_dvelc(&mut sunway);
        assert_eq!(plain.u.max_abs_diff(&sunway.u), 0.0);
        assert_eq!(plain.v.max_abs_diff(&sunway.v), 0.0);
        assert_eq!(plain.w.max_abs_diff(&sunway.w), 0.0);
        assert!(cost.tiles > 0);
    }

    /// The LDM never overflows and is used heavily (Table 4: 93.8 %).
    #[test]
    fn ldm_stays_within_64kb_and_is_well_used() {
        let mut s = state();
        let mut exec = SunwayExecutor::for_block(40, 64);
        let cost = exec.run_dvelc(&mut s);
        assert!(cost.ldm_high_water <= 64 * 1024);
        assert!(cost.ldm_high_water > 32 * 1024, "LDM under-used: {} B", cost.ldm_high_water);
    }

    /// The fused DMA blocks achieve the §6.4 bandwidth class (> 60 % of
    /// the 34 GB/s peak over the whole pass).
    #[test]
    fn dma_bandwidth_is_in_the_fused_regime() {
        let mut s = state();
        let mut exec = SunwayExecutor::for_block(40, 64);
        let cost = exec.run_dvelc(&mut s);
        let bw = cost.dma.effective_bandwidth();
        assert!(bw > 0.60 * 34.0e9, "effective {bw:.3e} B/s");
        assert!(cost.seconds > 0.0);
    }

    /// Register communication carries the intra-CG halos (§6.4): there
    /// must be register traffic, and it must be cheaper in time than the
    /// equivalent DMA would be.
    #[test]
    fn register_halos_are_used_and_cheap() {
        let mut s = state();
        let mut exec = SunwayExecutor::for_block(40, 64);
        let cost = exec.run_dvelc(&mut s);
        assert!(cost.reg.messages > 0);
        let reg_seconds = cost.reg.cycles as f64 / 1.45e9;
        assert!(reg_seconds < cost.dma.seconds, "register halos must not dominate");
    }

    /// The analytic model's choice drives the executor: Cz = 1.
    #[test]
    fn uses_paper_optimal_layout() {
        let exec = SunwayExecutor::for_block(160, 512);
        assert_eq!(exec.blocking().layout.cz, 1);
        assert!(exec.blocking().max_dma_block >= 384);
    }
}
