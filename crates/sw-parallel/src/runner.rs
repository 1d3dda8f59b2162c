//! The rank runner: one OS thread per simulated MPI rank.
//!
//! # Composition with the shared Rayon pool
//!
//! `run_ranks` deliberately spawns plain *scoped OS threads*, one per
//! rank, rather than submitting ranks to the Rayon pool: a rank blocks in
//! `recv` waiting for its neighbours, and parking a bounded pool worker on
//! a cross-rank dependency could deadlock the pool. Inside a rank the
//! solver is free to fan its kernels out over the shared Rayon worker
//! budget (`ExecMode::Parallel` in `swquake-core` does exactly that).
//!
//! That nesting is safe by construction, and the contract is:
//!
//! * **No deadlock.** Helper acquisition in the vendored `rayon` never
//!   blocks — a rank that finds the budget empty runs its loop inline on
//!   its own rank thread. There is no wait-for cycle between ranks and
//!   pool workers.
//! * **Bounded oversubscription.** The helper budget is global and capped
//!   at `threads − 1`, so a run with `R` ranks keeps at most
//!   `R + threads − 1` OS threads busy regardless of how many ranks fan
//!   out at once — not `R × threads`, which is what per-rank pools would
//!   give. Pin `threads` to the core count (`--threads` /
//!   `SWQUAKE_THREADS`) and rank threads simply soak up the slack the
//!   helpers leave.
//! * **Balanced budget.** Every helper borrowed during a rank body is
//!   returned before the corresponding parallel call returns; `run_ranks`
//!   debug-asserts that the budget is never overdrawn once all ranks
//!   join, and the `nested_*` tests below pin full balance.
//!
//! Rank threads compute in the caller's floating-point mode: a caller
//! that flushes subnormals ([`sw_grid::fpenv`]) gets rank threads that do.

use crate::fabric::{Fabric, RankComm};
use crate::grid::RankGrid;
use sw_grid::fpenv;

/// Run `body` on every rank of `grid` concurrently and collect the results
/// in rank order. Panics in any rank propagate.
///
/// Rank bodies may use the shared Rayon pool (nested data parallelism);
/// see the module docs for the composition contract.
pub fn run_ranks<T, F>(grid: RankGrid, body: F) -> Vec<T>
where
    T: Send,
    F: Fn(&RankComm) -> T + Sync,
{
    let comms = Fabric::build(grid);
    let mut slots: Vec<Option<T>> = (0..grid.len()).map(|_| None).collect();
    let flushing = fpenv::is_flushing();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(grid.len());
        for comm in &comms {
            let body = &body;
            handles.push(scope.spawn(move || {
                let _fp = flushing.then(fpenv::flush_subnormals);
                (comm.rank, body(comm))
            }));
        }
        for h in handles {
            let (rank, value) = h.join().expect("rank thread panicked");
            slots[rank] = Some(value);
        }
    });
    // Nested parallel rank bodies must never overdraw the shared helper
    // budget (other threads may hold helpers concurrently, so `borrowed`
    // need not be zero here — but it can never exceed the cap).
    let (borrowed, cap) = rayon::worker_budget();
    debug_assert!(
        borrowed <= cap,
        "rank bodies overdrew the Rayon helper budget ({borrowed} > {cap})"
    );
    slots.into_iter().map(|s| s.expect("rank produced no result")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_grid::halo::Face;

    #[test]
    fn results_come_back_in_rank_order() {
        let grid = RankGrid::new(4, 2);
        let out = run_ranks(grid, |c| c.rank * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn ranks_can_talk_during_the_run() {
        // A relay along the x axis: each rank forwards a counter east.
        let grid = RankGrid::new(4, 1);
        let out = run_ranks(grid, |c| {
            let (px, _) = c.grid.coords_of(c.rank);
            if px == 0 {
                c.send(Face::East, vec![1.0]);
                0.0
            } else {
                let v = c.recv(Face::West).unwrap()[0] + 1.0;
                c.send(Face::East, vec![v]);
                v
            }
        });
        assert_eq!(out, vec![0.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn single_rank_works() {
        let out = run_ranks(RankGrid::new(1, 1), |c| c.grid.len());
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn nested_rank_and_pool_parallelism_completes_and_balances() {
        use rayon::prelude::*;

        // More ranks than pool helpers, every rank fanning out at once,
        // with a cross-rank halo exchange between the two parallel
        // regions — the exact shape that deadlocks a blocking pool.
        rayon::ThreadPoolBuilder::new().num_threads(4).build_global().unwrap();
        let grid = RankGrid::new(3, 2);
        let out = run_ranks(grid, |c| {
            let local: Vec<usize> =
                (0..1000usize).into_par_iter().map(|i| i * (c.rank + 1)).collect();
            let sum: usize = local.iter().sum();
            // Ring exchange along x so ranks genuinely wait on each other
            // between their parallel regions.
            let (px, _) = c.grid.coords_of(c.rank);
            if px == 0 {
                c.send(Face::East, vec![sum as f32]);
                0.0f32
            } else {
                let west = c.recv(Face::West).unwrap()[0];
                c.send(Face::East, vec![west + sum as f32]);
                west
            }
        });
        assert_eq!(out.len(), 6);
        // All ranks joined and this test's own parallel work is done:
        // the budget must be fully repaid (other tests in this binary
        // don't use the pool).
        let (borrowed, cap) = rayon::worker_budget();
        assert_eq!(borrowed, 0, "nested run leaked helpers (cap {cap})");
        // The nested map is deterministic: rank r computed
        // sum(0..1000)*(r+1) and each rank returned the accumulated sums
        // of the ranks west of it in its row.
        let base: usize = (0..1000).sum();
        let rank_at: std::collections::HashMap<(usize, usize), usize> =
            (0..grid.len()).map(|r| (grid.coords_of(r), r)).collect();
        for (r, &got) in out.iter().enumerate() {
            let (px, py) = grid.coords_of(r);
            let expected: f32 = (0..px).map(|qx| (base * (rank_at[&(qx, py)] + 1)) as f32).sum();
            assert_eq!(got, expected, "rank {r} at ({px}, {py})");
        }
    }
}
