//! Field halo exchange over the fabric.
//!
//! [`HaloExchanger::exchange`] is the blocking variant; the
//! [`post`](HaloExchanger::post)/[`finish`](HaloExchanger::finish) pair
//! splits it so interior computation can run between the two calls — the
//! communication/computation overlap the paper inherits from AWP-ODC and
//! whose erosion at small subdomains drives the strong-scaling roll-off of
//! Fig. 9.
//!
//! With a telemetry handle attached ([`HaloExchanger::with_telemetry`]),
//! each rank reports its pack time (`halo.pack.rankN`), receive-wait time
//! (`halo.wait.rankN`), unpack time (`halo.unpack.rankN`) and bytes moved
//! (`halo.bytes_sent`, plus a per-rank breakdown). When the handle also
//! carries a tracer, those timings appear as spans on the calling rank's
//! lane, plus `halo.send`/`halo.recv` instant events tagging the bytes on
//! the wire.
//!
//! With a timeline recorder attached ([`HaloExchanger::with_timeline`]),
//! the same wait/pack/unpack split also feeds the step-aligned run
//! timeline (`halo.wait` per rank is the load-imbalance signal: time a
//! rank spends blocked on a slower neighbor).

use crate::fabric::RankComm;
use std::sync::Arc;
use std::time::Instant;
use sw_grid::halo::{Face, HaloSpec};
use sw_grid::Field3;
use sw_telemetry::timeline::{phase, TimelineRecorder};
use sw_telemetry::Telemetry;

/// Exchanges the halos of a set of fields between neighbouring ranks.
#[derive(Debug, Clone)]
pub struct HaloExchanger {
    /// Halo geometry (width 2 for the 4th-order scheme).
    pub spec: HaloSpec,
    telemetry: Telemetry,
    timeline: Option<Arc<TimelineRecorder>>,
}

impl HaloExchanger {
    /// Exchanger with the solver's standard halo width.
    pub fn standard() -> Self {
        Self {
            spec: HaloSpec { width: sw_grid::HALO_WIDTH },
            telemetry: Telemetry::disabled(),
            timeline: None,
        }
    }

    /// Attach a telemetry handle recording per-rank fabric timings.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Attach a timeline recorder: every exchange's pack/wait/unpack
    /// seconds accumulate into the per-rank run timeline.
    #[must_use]
    pub fn with_timeline(mut self, timeline: Arc<TimelineRecorder>) -> Self {
        self.timeline = Some(timeline);
        self
    }

    /// Whether anything reads the pack/wait/unpack split.
    fn timed(&self) -> bool {
        self.telemetry.is_enabled() || self.timeline.is_some()
    }

    /// One measured duration of `rank`, to every armed sink: the
    /// `<phase>.rank<N>` timer (and trace span) and the run timeline.
    fn record(&self, rank: usize, phase: &str, seconds: f64) {
        if self.telemetry.is_enabled() {
            self.telemetry.record_duration(&format!("{phase}.rank{rank}"), seconds);
        }
        if let Some(tl) = &self.timeline {
            tl.record_phase(rank, phase, seconds);
        }
    }

    /// Post all faces of all `fields` (pack + non-blocking send). Fields
    /// are packed in order into one buffer per face, so one message per
    /// face carries every field — fewer, larger messages, as on the real
    /// network.
    pub fn post(&self, comm: &RankComm, fields: &[&Field3]) {
        let start = self.timed().then(Instant::now);
        let mut bytes = 0usize;
        let mut scratch = Vec::new();
        for face in Face::ALL {
            if !comm.has_neighbor(face) {
                continue;
            }
            let mut msg = Vec::new();
            for f in fields {
                self.spec.pack(f, face, &mut scratch);
                msg.extend_from_slice(&scratch);
            }
            bytes += msg.len() * 4;
            comm.send(face, msg);
        }
        let rank = comm.rank;
        if let Some(start) = start {
            self.record(rank, phase::HALO_PACK, start.elapsed().as_secs_f64());
        }
        if self.telemetry.is_enabled() {
            self.telemetry.add("halo.bytes_sent", bytes as u64);
            self.telemetry.add(&format!("halo.bytes_sent.rank{rank}"), bytes as u64);
        }
        self.telemetry.event("halo.send", &[("rank", rank as f64), ("bytes", bytes as f64)]);
    }

    /// Receive and unpack all faces into the fields' halo slabs.
    pub fn finish(&self, comm: &RankComm, fields: &mut [&mut Field3]) {
        let enabled = self.timed();
        let mut wait_s = 0.0;
        let mut unpack_s = 0.0;
        let mut recv_bytes = 0usize;
        for face in Face::ALL {
            let t_wait = enabled.then(Instant::now);
            let Some(msg) = comm.recv(face) else { continue };
            if let Some(t) = t_wait {
                wait_s += t.elapsed().as_secs_f64();
            }
            recv_bytes += msg.len() * 4;
            let t_unpack = enabled.then(Instant::now);
            let mut offset = 0usize;
            for f in fields.iter_mut() {
                let lens = self.spec.face_len(f);
                let n = match face {
                    Face::West | Face::East => lens.x_face,
                    Face::South | Face::North => lens.y_face,
                };
                self.spec.unpack(f, face, &msg[offset..offset + n]);
                offset += n;
            }
            assert_eq!(offset, msg.len(), "face message length mismatch");
            if let Some(t) = t_unpack {
                unpack_s += t.elapsed().as_secs_f64();
            }
        }
        if enabled {
            self.record(comm.rank, phase::HALO_WAIT, wait_s);
            self.record(comm.rank, phase::HALO_UNPACK, unpack_s);
        }
        self.telemetry
            .event("halo.recv", &[("rank", comm.rank as f64), ("bytes", recv_bytes as f64)]);
    }

    /// Blocking exchange (post + finish).
    pub fn exchange(&self, comm: &RankComm, fields: &mut [&mut Field3]) {
        {
            let refs: Vec<&Field3> = fields.iter().map(|f| &**f).collect();
            self.post(comm, &refs);
        }
        self.finish(comm, fields);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::Fabric;
    use crate::grid::RankGrid;
    use crate::runner::run_ranks;
    use sw_grid::Dims3;

    /// Each rank fills its field with its rank id; after one exchange,
    /// every halo slab must carry the neighbour's id.
    #[test]
    fn halos_carry_neighbor_values() {
        let grid = RankGrid::new(3, 2);
        let d = Dims3::new(4, 5, 3);
        let ex = HaloExchanger::standard();
        let results = run_ranks(grid, |comm| {
            let mut f = Field3::filled(d, 2, comm.rank as f32);
            ex.exchange(comm, &mut [&mut f]);
            f
        });
        for (rank, f) in results.iter().enumerate() {
            for face in Face::ALL {
                let Some(nb) = grid.neighbor(rank, face) else {
                    continue;
                };
                let probe = match face {
                    Face::West => f.at_i(-1, 0, 0),
                    Face::East => f.at_i(d.nx as isize, 0, 0),
                    Face::South => f.at_i(0, -1, 0),
                    Face::North => f.at_i(0, d.ny as isize, 0),
                };
                assert_eq!(probe, nb as f32, "rank {rank} face {face:?}");
            }
        }
    }

    /// Multiple fields per message must unpack to the right fields.
    #[test]
    fn multi_field_exchange_keeps_fields_separate() {
        let grid = RankGrid::new(2, 1);
        let d = Dims3::new(3, 3, 3);
        let ex = HaloExchanger::standard();
        let results = run_ranks(grid, |comm| {
            let mut a = Field3::filled(d, 2, 10.0 + comm.rank as f32);
            let mut b = Field3::filled(d, 2, 20.0 + comm.rank as f32);
            ex.exchange(comm, &mut [&mut a, &mut b]);
            (a, b)
        });
        let (a0, b0) = &results[0];
        assert_eq!(a0.at_i(d.nx as isize, 0, 0), 11.0, "field a got rank 1's a");
        assert_eq!(b0.at_i(d.nx as isize, 0, 0), 21.0, "field b got rank 1's b");
    }

    /// Post/finish with computation in between gives the same result as
    /// the blocking variant.
    #[test]
    fn overlapped_equals_blocking() {
        let grid = RankGrid::new(2, 2);
        let d = Dims3::new(4, 4, 4);
        let ex = HaloExchanger::standard();
        let results = run_ranks(grid, |comm| {
            let mut f = Field3::filled(d, 2, comm.rank as f32);
            ex.post(comm, &[&f]);
            // "interior computation" while messages are in flight
            let interior_sum: f32 = (0..d.nx).map(|x| f.get(x, 0, 0)).sum();
            ex.finish(comm, &mut [&mut f]);
            (f, interior_sum)
        });
        let blocking = run_ranks(grid, |comm| {
            let mut f = Field3::filled(d, 2, comm.rank as f32);
            ex.exchange(comm, &mut [&mut f]);
            f
        });
        for (r, (f, _)) in results.iter().enumerate() {
            assert_eq!(f, &blocking[r], "rank {r} differs");
        }
    }

    /// Domain-boundary halos stay untouched (absorbing boundary owns them).
    #[test]
    fn boundary_halos_unchanged() {
        let grid = RankGrid::new(1, 1);
        let comms = Fabric::build(grid);
        let d = Dims3::new(3, 3, 3);
        let mut f = Field3::filled(d, 2, 5.0);
        f.set_i(-1, 0, 0, -99.0);
        HaloExchanger::standard().exchange(&comms[0], &mut [&mut f]);
        assert_eq!(f.at_i(-1, 0, 0), -99.0);
    }

    /// With a timeline recorder attached (and telemetry off), every rank
    /// still accumulates the pack/wait/unpack split into the timeline.
    #[test]
    fn timeline_hook_records_wait_compute_split() {
        let grid = RankGrid::new(2, 1);
        let d = Dims3::new(4, 4, 4);
        let rec = Arc::new(TimelineRecorder::new());
        let ex = HaloExchanger::standard().with_timeline(rec.clone());
        let ex = &ex;
        run_ranks(grid, |comm| {
            let mut f = Field3::filled(d, 2, comm.rank as f32);
            ex.exchange(comm, &mut [&mut f]);
        });
        let rep = rec.report();
        assert_eq!(rep.ranks, 2);
        for name in [phase::HALO_PACK, phase::HALO_WAIT, phase::HALO_UNPACK] {
            let p = rep.phases.iter().find(|p| p.name == name).unwrap_or_else(|| {
                panic!("missing timeline phase {name}");
            });
            assert!(p.calls.iter().all(|&c| c > 0), "{name} recorded on every rank");
        }
    }

    /// With telemetry attached, every rank reports pack/wait/unpack
    /// timings and the byte counters add up across ranks.
    #[test]
    fn telemetry_records_per_rank_fabric_traffic() {
        let grid = RankGrid::new(2, 1);
        let d = Dims3::new(4, 4, 4);
        let tel = Telemetry::enabled();
        let ex = HaloExchanger::standard().with_telemetry(tel.clone());
        let ex = &ex;
        run_ranks(grid, |comm| {
            let mut f = Field3::filled(d, 2, comm.rank as f32);
            ex.exchange(comm, &mut [&mut f]);
        });
        let r = tel.report();
        for rank in 0..2 {
            for kind in ["pack", "wait", "unpack"] {
                let name = format!("halo.{kind}.rank{rank}");
                assert!(r.timer(&name).is_some(), "missing {name}");
            }
        }
        let total = r.counter("halo.bytes_sent").unwrap();
        let per_rank: u64 =
            (0..2).map(|rank| r.counter(&format!("halo.bytes_sent.rank{rank}")).unwrap()).sum();
        assert!(total > 0);
        assert_eq!(total, per_rank);
    }
}
