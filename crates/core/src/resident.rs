//! Compressed-resident wavefields: the dynamic state lives as 16-bit
//! planes and each step streams x-column tiles through a small f32 slab.
//!
//! [`ResidentMode::Compressed16`] halves the footprint of the dynamic
//! arrays (9 wavefields, + 6 memory variables with attenuation) by
//! keeping them in [`ResidentField3`] stores — one calibrated codec per
//! x-plane — and never materializing a full f32 copy. Every step phase runs as a sweep
//! over column tiles: decode the tile (plus the two columns each side
//! that the x-stencils reach) into a reusable slab [`SolverState`], run
//! the *unchanged* region kernels on the core columns (calling-thread
//! iteration of the one body per kernel), and re-encode only the planes
//! the phase updated. The slab is the only f32 working set, so a scenario
//! whose f32 wavefields exceed RAM (or a configured cap) still runs; the
//! cap solves the tile width.
//!
//! Correctness leans on two properties of the serial step, both pinned by
//! tests:
//!
//! * **Column locality** — every z-direction stencil and every halo value
//!   written by `fstr` is read back at the same `(x, y)` column, and the
//!   x-stencils reach at most two columns sideways. A two-column skirt
//!   therefore reproduces the full-grid kernels on the core columns
//!   exactly (up to the 16-bit quantization of the *inputs*, which is the
//!   documented accuracy contract).
//! * **No cross-tile flow inside a phase** — the velocity sweep writes
//!   only `u,v,w` but stencils only stresses; the stress sweep writes only
//!   stresses (and `r`) but stencils only velocities; plasticity and the
//!   sponge are pointwise. Tiles within one sweep are independent, so the
//!   result is bit-for-bit independent of the tile width (and hence of
//!   the memory cap).
//!
//! The sponge runs in its own pointwise sweep *after* the stress sweep
//! (fused with plasticity), mirroring the full-mode phase order.

use crate::kernels::{self, Region};
use crate::state::SolverState;
use std::fmt;
use std::ops::Range;
use std::str::FromStr;
use std::time::Instant;
use sw_compress::{Codec, EncodeStats, FieldStats, ResidentField3};
use sw_grid::{Dims3, Field3, HALO_WIDTH};
use sw_source::PointSource;

/// How the dynamic fields are stored between steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResidentMode {
    /// Plain f32 [`Field3`] arrays (the reference representation).
    #[default]
    Full,
    /// 16-bit plane-compressed stores streamed through an f32 slab.
    Compressed16,
}

impl FromStr for ResidentMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "full" => Ok(ResidentMode::Full),
            "compressed16" => Ok(ResidentMode::Compressed16),
            other => Err(format!("unknown resident mode `{other}` (expected full|compressed16)")),
        }
    }
}

impl fmt::Display for ResidentMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ResidentMode::Full => "full",
            ResidentMode::Compressed16 => "compressed16",
        })
    }
}

/// The compressed-resident dynamic fields, in store order: the nine
/// wavefields, then the six attenuation memory variables.
pub const RESIDENT_FIELDS: [&str; 15] =
    ["u", "v", "w", "xx", "yy", "zz", "xy", "xz", "yz", "r1", "r2", "r3", "r4", "r5", "r6"];

/// Pseudo-field name carrying the per-plane binade buckets in checkpoints
/// (the restore path re-encodes under pinned buckets to stay byte-exact).
pub const SIDECAR_FIELD: &str = "__resident_planes";

/// Default tile width (core columns per slab pass) when no memory cap
/// constrains it.
pub const DEFAULT_TILE_W: usize = 8;

const H: usize = HALO_WIDTH;

/// Decode/encode traffic of one step, for the perf ledger's
/// `resident_decode` / `resident_encode` kernel rows.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResidentPerf {
    /// Wall seconds spent decoding planes into the slab.
    pub decode_s: f64,
    /// Wall seconds spent re-encoding updated planes.
    pub encode_s: f64,
    /// f32 values decoded.
    pub decoded_cells: u64,
    /// f32 values encoded.
    pub encoded_cells: u64,
}

/// The 15 compressed stores plus the reusable f32 slab the sweeps stream
/// tiles through.
pub struct ResidentEngine {
    stores: Vec<ResidentField3>,
    slab: SolverState,
    dims: Dims3,
    tile_w: usize,
    step_stats: [EncodeStats; 15],
    /// Whether this step's encodes also measure their round-trip error.
    sample_errors: bool,
    perf: ResidentPerf,
}

/// Solve the widest tile whose slab working set — `arrays` f32 arrays —
/// fits `cap` bytes (`None` → [`DEFAULT_TILE_W`]). The floor is one
/// column — the cap is a target for the *slab*; the compressed stores
/// themselves are a fixed cost of the scenario.
pub fn tile_width_for_cap(dims: Dims3, arrays: usize, cap: Option<u64>) -> usize {
    let w = match cap {
        None => DEFAULT_TILE_W,
        Some(cap) => {
            let plane = ((dims.ny + 2 * H) * (dims.nz + 2 * H)) as u64;
            let per_column = (arrays * 4) as u64 * plane;
            // slab padded width = tile_w + 4·H: the x-stencil reach (2·H
            // planes, decoded) + the slab field's own x-halo (2·H, unread)
            (cap / per_column.max(1)).saturating_sub(4 * H as u64) as usize
        }
    };
    w.clamp(1, dims.nx.max(1))
}

impl ResidentEngine {
    /// Compress `state`'s dynamic fields into resident stores — empty
    /// ones for the memory variables a state without attenuation does
    /// not carry — and build the f32 slab sized for `cap` bytes. `state`
    /// itself is not modified; the driver detaches its dynamic arrays
    /// afterwards.
    pub fn new(state: &SolverState, cap: Option<u64>) -> Self {
        let dims = state.dims;
        let stores: Vec<ResidentField3> = RESIDENT_FIELDS
            .iter()
            .zip(state.dynamic())
            .map(|(name, f)| {
                if f.is_detached() {
                    ResidentField3::new(Dims3::new(0, 0, 0), 0, base_codec(name))
                } else {
                    ResidentField3::from_field(f, base_codec(name))
                }
            })
            .collect();
        // How many arrays a slab carries does not depend on its width.
        let arrays = slab_state(state, 0).arrays().count();
        let tile_w = tile_width_for_cap(dims, arrays, cap);
        let slab = slab_state(state, tile_w);
        Self {
            stores,
            slab,
            dims,
            tile_w,
            step_stats: [EncodeStats::empty(); 15],
            sample_errors: false,
            perf: ResidentPerf::default(),
        }
    }

    /// Bytes held by the 16-bit store of field `idx`.
    pub fn stored_bytes(&self, idx: usize) -> u64 {
        self.stores[idx].stored_bytes() as u64
    }

    /// f32 bytes of the reusable slab — the step's whole decompressed
    /// working set, and the quantity the memory cap bounds.
    pub fn working_set_bytes(&self) -> u64 {
        self.slab.arrays().map(|(_, _, f)| f.resident_bytes() as u64).sum()
    }

    /// Index and name of every dynamic field this run carries (the empty
    /// stores are the ones it does not).
    pub fn carried(&self) -> impl Iterator<Item = (usize, &'static str)> + '_ {
        let names = RESIDENT_FIELDS.iter().copied().enumerate();
        names.filter(|&(i, _)| self.stores[i].stored_bytes() > 0)
    }

    /// Per-field encode statistics merged over every encode of the
    /// current step (reset by [`begin_step`](Self::begin_step)); pairs
    /// with [`RESIDENT_FIELDS`]. `max_abs`, `count` and `nonfinite` come
    /// from the calibration scan and are always filled; `max_err` and
    /// `sum_sq_err` are zero unless the step was started with
    /// [`sample_encode_errors`](Self::sample_encode_errors).
    pub fn step_stats(&self) -> impl Iterator<Item = (&'static str, EncodeStats)> + '_ {
        RESIDENT_FIELDS.iter().copied().zip(self.step_stats.iter().copied())
    }

    /// Decode/encode traffic of the current step (reset by
    /// [`begin_step`](Self::begin_step)).
    pub fn perf(&self) -> ResidentPerf {
        self.perf
    }

    /// Reset the per-step statistics; call once at the top of each step.
    pub fn begin_step(&mut self) {
        self.step_stats = [EncodeStats::empty(); 15];
        self.sample_errors = false;
        self.perf = ResidentPerf::default();
    }

    /// Make the step just begun measure the round-trip error of every
    /// plane it encodes (one extra decode per plane). The driver asks on
    /// the steps whose statistics the health monitor will read; stored
    /// codes and buckets do not depend on it.
    pub fn sample_encode_errors(&mut self) {
        self.sample_errors = true;
    }

    /// Decode one interior value of field `idx` (seismogram taps, PGV
    /// scans, spot checks).
    pub fn sample(&self, idx: usize, x: usize, y: usize, z: usize) -> f32 {
        self.stores[idx].get(x, y, z)
    }

    /// Decompress field `idx` into a fresh f32 field (checkpoints,
    /// statistics).
    pub fn to_field(&self, idx: usize) -> Field3 {
        self.stores[idx].to_field()
    }

    /// Decode-scan the interior of field `idx`: `(nan, inf, first_bad)`
    /// in the same x-major order as a full-field probe. Only called on
    /// the cold path (a step whose encodes saw nonfinite values).
    pub fn scan_nonfinite(&self, idx: usize) -> (u64, u64, Option<(usize, usize, usize)>) {
        let store = &self.stores[idx];
        let d = self.dims;
        let (mut nan, mut inf) = (0u64, 0u64);
        let mut first = None;
        let mut buf = vec![0.0f32; store.plane_len()];
        let pnz = d.nz + 2 * H;
        for x in 0..d.nx {
            store.decode_plane_into(x + H, &mut buf);
            for y in 0..d.ny {
                for z in 0..d.nz {
                    let v = buf[(y + H) * pnz + z + H];
                    if v.is_nan() {
                        nan += 1;
                    } else if v.is_infinite() {
                        inf += 1;
                    } else {
                        continue;
                    }
                    if first.is_none() {
                        first = Some((x, y, z));
                    }
                }
            }
        }
        (nan, inf, first)
    }

    /// The per-plane buckets of every store, packed as an f32 pseudo-field
    /// of dims `(15, plane_count, 1)` with no halo — the checkpoint
    /// sidecar. Bucket integers (including the `i32::MIN` zero sentinel)
    /// are exactly representable in f32.
    pub fn sidecar(&self) -> Field3 {
        let planes = self.stores[0].plane_count();
        let mut f = Field3::new(Dims3::new(RESIDENT_FIELDS.len(), planes, 1), 0);
        for (i, store) in self.stores.iter().enumerate() {
            for (p, &b) in store.plane_buckets().iter().enumerate() {
                f.set(i, p, 0, b as f32);
            }
        }
        f
    }

    /// Rebuild the store of `name` from checkpointed f32 content. With
    /// `sidecar` buckets the re-encode is byte-identical to the store the
    /// checkpoint was taken from; without (a checkpoint written by a
    /// full-mode run) the buckets are re-derived from the content.
    /// Returns `false` when `name` is not a resident field of this run.
    pub fn restore_field(&mut self, name: &str, f: &Field3, sidecar: Option<&Field3>) -> bool {
        let Some((idx, _)) = self.carried().find(|(_, n)| *n == name) else {
            return false;
        };
        assert_eq!(f.dims(), self.dims, "checkpoint field dims mismatch for {name}");
        let base = base_codec(name);
        self.stores[idx] = match sidecar {
            Some(side) => {
                let buckets: Vec<i32> = (0..self.stores[idx].plane_count())
                    .map(|p| side.get(idx, p, 0) as i32)
                    .collect();
                ResidentField3::from_field_with_buckets(f, base, &buckets)
            }
            None => ResidentField3::from_field(f, base),
        };
        true
    }

    /// Whether the plasticity/sponge sweep has any work for this state.
    pub fn wants_plastic_sponge(&self) -> bool {
        self.slab.options.nonlinear || self.slab.options.sponge_width > 0
    }

    /// The velocity half-step: free-surface imaging + `dvelc` per tile.
    pub fn velocity_sweep(&mut self, main: &SolverState) {
        for tile in self.tiles() {
            self.velocity_tile(main, tile);
        }
    }

    /// The stress half-step: free-surface imaging + `dstrqc` per tile.
    pub fn stress_sweep(&mut self, main: &SolverState) {
        for tile in self.tiles() {
            self.stress_tile(main, tile);
        }
    }

    /// `addsrc` on the compressed stores: decode–add–re-encode each
    /// source cell in place (escalating a plane's bucket only when the
    /// increment outgrows it).
    pub fn inject_sources(&mut self, main: &SolverState, sources: &[PointSource], t: f64) {
        let d = self.dims;
        let vol = main.dx * main.dx * main.dx;
        let mut adds: [Vec<(usize, usize, usize, f32)>; 6] = Default::default();
        for src in sources {
            if src.ix >= d.nx || src.iy >= d.ny || src.iz >= d.nz {
                continue;
            }
            let inc = src.stress_increment(t, main.dt, vol);
            for (c, list) in adds.iter_mut().enumerate() {
                list.push((src.ix, src.iy, src.iz, inc[c]));
            }
        }
        for (c, list) in adds.iter().enumerate() {
            if !list.is_empty() {
                self.stores[3 + c].apply_adds(list);
            }
        }
    }

    /// Plasticity and the absorbing sponge, fused in one pointwise sweep.
    /// Writes the accumulated plastic strain back into `main.eqp` (the
    /// only dynamic array that stays f32-resident).
    pub fn plastic_sponge_sweep(&mut self, main: &mut SolverState) {
        if self.wants_plastic_sponge() {
            for tile in self.tiles() {
                self.plastic_sponge_tile(main, tile);
            }
        }
    }

    /// The column tiles of one sweep, in ascending x.
    fn tiles(&self) -> impl Iterator<Item = Tile> {
        let (nx, w) = (self.dims.nx, self.tile_w);
        (0..nx).step_by(w).map(move |c0| Tile {
            w0: c0.saturating_sub(H),
            c0,
            c1: (c0 + w).min(nx),
        })
    }

    /// Decode the dynamic `fields` ([`RESIDENT_FIELDS`] indices) this run
    /// carries into the slab: the tile's core columns, plus — `reach` —
    /// the `H` columns each side that the x-stencils read. Returns the
    /// number of values decoded.
    fn decode(&mut self, fields: Range<usize>, reach: bool, t: Tile) -> u64 {
        let slab = &mut self.slab.dynamic_mut()[fields.clone()];
        let carried = self.stores[fields].iter().zip(slab).filter(|(s, _)| s.stored_bytes() > 0);
        carried
            .map(|(s, f)| if reach { decode_window(s, f, t) } else { decode_core(s, f, t) })
            .sum()
    }

    /// Re-encode the core columns of the dynamic `fields` this run
    /// carries from the slab, folding the encode statistics (with the
    /// round-trip errors on a sampled step) into the step's.
    fn encode(&mut self, fields: Range<usize>, t: Tile) {
        let t1 = Instant::now();
        let slab = &self.slab.dynamic()[fields.clone()];
        let stats = &mut self.step_stats[fields.clone()];
        let stores = self.stores[fields].iter_mut().zip(slab).zip(stats);
        for ((store, f), stats) in stores.filter(|((s, _), _)| s.stored_bytes() > 0) {
            self.perf.encoded_cells += encode_core(store, f, t, self.sample_errors, stats);
        }
        self.perf.encode_s += t1.elapsed().as_secs_f64();
    }

    fn velocity_tile(&mut self, main: &SolverState, t: Tile) {
        let t0 = Instant::now();
        // Stresses feed the velocity stencils: decode the core columns
        // plus the H columns each side the x-stencils reach. Velocities
        // are read and written same-cell: core columns only.
        let cells = self.decode(STRESSES, true, t) + self.decode(VELOCITIES, false, t);
        // Buoyancy is read pointwise at the updated cell.
        copy_core(&mut self.slab.buoyancy, &main.buoyancy, t);
        self.perf.decode_s += t0.elapsed().as_secs_f64();
        self.perf.decoded_cells += cells;

        kernels::fstr_region(&mut self.slab, t.core());
        // The slab's own image stays the one `w` is encoded with.
        let core = Region::new(t.core(), 0..self.dims.ny);
        kernels::dvelc_region(&mut self.slab, &core, false, false);
        self.encode(VELOCITIES, t);
    }

    fn stress_tile(&mut self, main: &SolverState, t: Tile) {
        let t0 = Instant::now();
        // Velocities feed the strain-rate stencils: core + reach. Stresses
        // and memory variables update same-cell: core only.
        let cells = self.decode(VELOCITIES, true, t) + self.decode(STRESS_SIDE, false, t);
        // Moduli (and the Q weights, with attenuation) are read
        // pointwise at the updated cell.
        let s = &mut self.slab;
        for (src, dst) in [
            (&main.lam, &mut s.lam),
            (&main.mu, &mut s.mu),
            (&main.wp, &mut s.wp),
            (&main.ws, &mut s.ws),
        ] {
            copy_core(dst, src, t);
        }
        self.perf.decode_s += t0.elapsed().as_secs_f64();
        self.perf.decoded_cells += cells;

        kernels::fstr_region(&mut self.slab, t.core());
        // The memory variables are tapered in the plasticity/sponge sweep.
        let core = Region::new(t.core(), 0..self.dims.ny);
        kernels::dstrqc_region(&mut self.slab, &core, false, None);
        self.encode(STRESS_SIDE, t);
    }

    fn plastic_sponge_tile(&mut self, main: &mut SolverState, t: Tile) {
        let nonlinear = self.slab.options.nonlinear;
        // The sponge damps every dynamic field, plasticity the stresses.
        let damped = if self.slab.options.sponge_width > 0 { DYNAMIC } else { STRESSES };
        let t0 = Instant::now();
        let cells = self.decode(damped.clone(), false, t);
        let s = &mut self.slab;
        s.sponge = main.sponge.shifted(t.w0);
        if nonlinear {
            for (src, dst) in [
                (&main.mu, &mut s.mu),
                (&main.sigma0, &mut s.sigma0),
                (&main.cohes, &mut s.cohes),
                (&main.cosphi, &mut s.cosphi),
                (&main.sinphi, &mut s.sinphi),
                (&main.pf, &mut s.pf),
                (&main.eqp, &mut s.eqp),
            ] {
                copy_core(dst, src, t);
            }
        }
        self.perf.decode_s += t0.elapsed().as_secs_f64();
        self.perf.decoded_cells += cells;

        if nonlinear {
            kernels::drprecpc_calc_region(&mut self.slab, t.core(), false);
            kernels::drprecpc_app_region(&mut self.slab, t.core(), false);
        }
        kernels::apply_sponge_region(&mut self.slab, t.core(), false);
        self.encode(damped, t);
        if nonlinear {
            main.eqp.copy_planes_from(&self.slab.eqp, t.c0 - t.w0 + H, t.c0 + H, t.c1 - t.c0);
        }
    }
}

/// [`RESIDENT_FIELDS`] indices of the velocities, of the stresses, of
/// what the stress half updates (the stresses and their memory variables)
/// and of every dynamic field.
const VELOCITIES: Range<usize> = 0..3;
const STRESSES: Range<usize> = 3..9;
const STRESS_SIDE: Range<usize> = 3..15;
const DYNAMIC: Range<usize> = 0..15;

/// One pass of the slab: global core columns `c0..c1`, decoded with the
/// slab's padded plane `q` holding global padded plane `q + w0`.
#[derive(Clone, Copy)]
struct Tile {
    w0: usize,
    c0: usize,
    c1: usize,
}

impl Tile {
    /// The core columns in the slab's interior coordinates.
    fn core(self) -> Range<usize> {
        self.c0 - self.w0..self.c1 - self.w0
    }
}

/// Base codec for a resident field: Fig. 5d's assignment with per-plane
/// calibration layered on top (the empty stats are calibrated away per
/// plane at encode time).
fn base_codec(name: &str) -> Codec {
    Codec::paper_assignment(name, &FieldStats::empty())
}

/// Build the reusable slab: a narrow [`SolverState`] of `tile_w + 2·H`
/// interior columns whose padded planes map to the global padded planes
/// `q ↦ q + w0` for the tile starting at `w0 = c0 − H`. It carries the
/// arrays `main`'s options call for, except `rho`, which only seeds
/// `buoyancy` (and feeds the energy probe the resident path skips).
fn slab_state(main: &SolverState, tile_w: usize) -> SolverState {
    let dims = Dims3::new((tile_w + 2 * H).min(main.dims.nx), main.dims.ny, main.dims.nz);
    let mut slab = SolverState::blank(dims, main.dx, main.dt, main.dt_stable, main.options);
    slab.rho = Field3::detached(dims, H);
    slab
}

/// Decode the slab planes the region kernels read when updating core
/// columns `c0..c1`: the core and `H` columns each side, i.e. global
/// padded planes `c0 .. c1 + 2·H` (all inside the grid's own padding)
/// into slab padded planes `g − w0`. The slab field's outermost planes —
/// its own x-halo, `2·H` of its `tile_w + 4·H` — are read by nothing and
/// keep whatever an earlier tile left there. Returns the number of values
/// decoded.
fn decode_window(store: &ResidentField3, dst: &mut Field3, t: Tile) -> u64 {
    for g in t.c0..t.c1 + 2 * H {
        store.decode_plane_into(g, dst.plane_mut(g - t.w0));
    }
    ((t.c1 - t.c0 + 2 * H) * dst.plane_len()) as u64
}

/// Decode only the core interior planes `c0..c1` (global column indices).
fn decode_core(store: &ResidentField3, dst: &mut Field3, t: Tile) -> u64 {
    for x in t.c0..t.c1 {
        store.decode_plane_into(x + H, dst.plane_mut(x - t.w0 + H));
    }
    ((t.c1 - t.c0) * dst.plane_len()) as u64
}

/// Re-encode the core interior planes `c0..c1` from the slab, folding the
/// encode statistics into `stats` — with the round-trip errors when
/// `sample`. Returns the number of values read.
fn encode_core(
    store: &mut ResidentField3,
    src: &Field3,
    t: Tile,
    sample: bool,
    stats: &mut EncodeStats,
) -> u64 {
    for x in t.c0..t.c1 {
        let plane = src.plane(x - t.w0 + H);
        stats.merge(&if sample {
            store.encode_plane_sampled(x + H, plane)
        } else {
            store.encode_plane(x + H, plane)
        });
    }
    ((t.c1 - t.c0) * src.plane_len()) as u64
}

/// Copy the core interior planes of a pointwise-read material array into
/// the slab (stale columns outside the core are never read by the region
/// kernels). An array the options rule out is detached on both sides.
fn copy_core(dst: &mut Field3, src: &Field3, t: Tile) {
    if !src.is_detached() {
        dst.copy_planes_from(src, t.c0 + H, t.c0 - t.w0 + H, t.c1 - t.c0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StateOptions;

    #[test]
    fn mode_parsing_round_trips() {
        for mode in [ResidentMode::Full, ResidentMode::Compressed16] {
            assert_eq!(mode.to_string().parse::<ResidentMode>().unwrap(), mode);
        }
        assert_eq!("COMPRESSED16".parse::<ResidentMode>().unwrap(), ResidentMode::Compressed16);
        assert!("f16".parse::<ResidentMode>().is_err());
    }

    /// The slab is a state like any other: each array at its slot's
    /// cache phase, no two at one (DESIGN.md, "Array placement").
    #[test]
    fn the_slab_sits_at_the_slots_cache_phases() {
        let options = StateOptions { attenuation: true, nonlinear: true, ..Default::default() };
        let main = SolverState::blank(Dims3::new(20, 9, 11), 100.0, 1e-3, 1e-3, options);
        for cap in [None, Some(1 << 20)] {
            let slab = ResidentEngine::new(&main, cap).slab;
            assert_eq!(slab.misplaced(), None);
            let mut phases: Vec<usize> = slab.arrays().map(|(_, _, f)| f.phase()).collect();
            let count = phases.len();
            phases.sort_unstable();
            phases.dedup();
            assert_eq!((phases.len(), count), (27, 27), "one phase per array, `rho` detached");
        }
    }

    #[test]
    fn tile_width_honours_the_cap() {
        let d = Dims3::new(64, 32, 32);
        assert_eq!(tile_width_for_cap(d, 20, None), DEFAULT_TILE_W);
        // A huge cap admits the whole grid as one tile.
        assert_eq!(tile_width_for_cap(d, 20, Some(u64::MAX)), 64);
        // A tiny cap clamps to the one-column floor instead of failing.
        assert_eq!(tile_width_for_cap(d, 20, Some(1)), 1);
        // The solved width's slab actually fits the cap when above floor,
        // and fewer arrays buy a wider tile.
        let cap = 4u64 << 20;
        let w = tile_width_for_cap(d, 20, Some(cap));
        let plane = ((d.ny + 2 * H) * (d.nz + 2 * H)) as u64;
        assert!(20 * 4 * plane * (w as u64 + 4 * H as u64) <= cap);
        assert!(w >= 1 && tile_width_for_cap(d, 12, Some(cap)) > w);
    }
}
