//! Register communication across the 8×8 CPE mesh.
//!
//! SW26010 CPEs in the same row or column of a core group can exchange
//! register contents directly over row/column buses — 11 cycles to a remote
//! register versus 120+ cycles to main memory (Fig. 2). The paper uses this
//! for on-chip halo exchange: "the CPE thread only needs to load its
//! corresponding central region, and can acquire the halo regions from the
//! neighboring threads through register communication" (§6.4), removing the
//! redundant DMA loads that eq. (7) counts.
//!
//! [`RegisterMesh`] enforces the topology constraint (same row or same
//! column only) and accounts cycles; the functional data movement happens in
//! the caller's shared address space, which is bit-exact by construction.

use serde::{Deserialize, Serialize};

/// A register-communication message is moved in 256-bit (8 × f32) register
/// chunks.
pub const FLOATS_PER_REGISTER: usize = 8;

/// Cumulative register-communication statistics for a core group.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegCommStats {
    /// Point-to-point messages sent.
    pub messages: u64,
    /// f32 values moved.
    pub floats: u64,
    /// Simulated CPE cycles charged.
    pub cycles: u64,
}

/// The row/column register-communication buses of one CPE cluster.
#[derive(Debug, Clone)]
pub struct RegisterMesh {
    side: usize,
    remote_cycles: u64,
    stats: RegCommStats,
}

/// Error for a transfer between CPEs that share neither a row nor a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotOnBusError {
    /// Sender thread id.
    pub from: usize,
    /// Receiver thread id.
    pub to: usize,
}

impl std::fmt::Display for NotOnBusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CPEs {} and {} share neither a row nor a column; register \
             communication requires a two-hop relay",
            self.from, self.to
        )
    }
}

impl std::error::Error for NotOnBusError {}

impl RegisterMesh {
    /// The SW26010's 8×8 mesh with 11-cycle remote access.
    pub fn sw26010() -> Self {
        Self { side: 8, remote_cycles: 11, stats: RegCommStats::default() }
    }

    /// Mesh row of a thread id (threads are row-major over the mesh).
    pub fn row(&self, tid: usize) -> usize {
        tid / self.side
    }

    /// Mesh column of a thread id.
    pub fn col(&self, tid: usize) -> usize {
        tid % self.side
    }

    /// True when two CPEs can talk directly over a row or column bus.
    pub fn on_same_bus(&self, a: usize, b: usize) -> bool {
        self.row(a) == self.row(b) || self.col(a) == self.col(b)
    }

    /// Charge a point-to-point transfer of `floats` f32 values from CPE
    /// `from` to CPE `to`. Returns the cycles charged.
    ///
    /// Cost model: one 11-cycle bus transaction per 256-bit register chunk.
    /// Back-to-back chunks pipeline on the bus, so throughput-dominated
    /// messages pay ~1 transaction per chunk rather than latency × chunks.
    pub fn send(&mut self, from: usize, to: usize, floats: usize) -> Result<u64, NotOnBusError> {
        let n = self.side * self.side;
        assert!(from < n && to < n, "thread id out of the CPE mesh");
        if !self.on_same_bus(from, to) {
            return Err(NotOnBusError { from, to });
        }
        let chunks = floats.div_ceil(FLOATS_PER_REGISTER) as u64;
        let cycles = self.remote_cycles + chunks.saturating_sub(1);
        self.stats.messages += 1;
        self.stats.floats += floats as u64;
        self.stats.cycles += cycles;
        Ok(cycles)
    }

    /// Charge a two-hop relay (row then column) for CPEs not sharing a bus.
    pub fn send_relayed(&mut self, from: usize, to: usize, floats: usize) -> u64 {
        let corner = self.row(from) * self.side + self.col(to);
        let a = self.send(from, corner, floats).expect("corner shares the row");
        let b = self.send(corner, to, floats).expect("corner shares the column");
        a + b
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> RegCommStats {
        self.stats
    }

    /// Clear statistics.
    pub fn reset_stats(&mut self) {
        self.stats = RegCommStats::default();
    }

    /// Seconds equivalent of the charged cycles at `clock_hz`.
    pub fn seconds(&self, clock_hz: f64) -> f64 {
        self.stats.cycles as f64 / clock_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_col_of_row_major_ids() {
        let m = RegisterMesh::sw26010();
        assert_eq!(m.row(0), 0);
        assert_eq!(m.col(7), 7);
        assert_eq!(m.row(8), 1);
        assert_eq!(m.col(8), 0);
        assert_eq!(m.row(63), 7);
        assert_eq!(m.col(63), 7);
    }

    #[test]
    fn same_bus_constraint() {
        let mut m = RegisterMesh::sw26010();
        // same row
        assert!(m.send(0, 7, 8).is_ok());
        // same column
        assert!(m.send(0, 56, 8).is_ok());
        // diagonal requires a relay
        let err = m.send(0, 9, 8).unwrap_err();
        assert_eq!((err.from, err.to), (0, 9));
    }

    #[test]
    fn single_register_costs_11_cycles() {
        let mut m = RegisterMesh::sw26010();
        assert_eq!(m.send(0, 1, 8).unwrap(), 11);
        // larger messages pipeline: 11 + (chunks-1)
        assert_eq!(m.send(0, 1, 64).unwrap(), 11 + 7);
        assert_eq!(m.send(0, 1, 65).unwrap(), 11 + 8);
    }

    #[test]
    fn relay_costs_two_hops() {
        let mut m = RegisterMesh::sw26010();
        let c = m.send_relayed(0, 9, 8);
        assert_eq!(c, 22);
        assert_eq!(m.stats().messages, 2);
    }

    /// On-chip halo exchange beats DMA: fetching a 2-row halo of 108 floats
    /// from a neighbour costs tens of cycles, while the same fetch from
    /// main memory costs ≥ 120 cycles of latency before the first byte.
    #[test]
    fn halo_via_registers_cheaper_than_memory_latency() {
        let mut m = RegisterMesh::sw26010();
        let cycles = m.send(1, 2, 108).unwrap();
        assert!(cycles < 120, "register halo ({cycles} cy) must beat DRAM latency");
    }

    #[test]
    fn stats_accumulate() {
        let mut m = RegisterMesh::sw26010();
        m.send(0, 1, 16).unwrap();
        m.send(1, 0, 16).unwrap();
        let s = m.stats();
        assert_eq!(s.messages, 2);
        assert_eq!(s.floats, 32);
        assert!(s.cycles >= 22);
        assert!(m.seconds(1.45e9) > 0.0);
        m.reset_stats();
        assert_eq!(m.stats(), RegCommStats::default());
    }
}
