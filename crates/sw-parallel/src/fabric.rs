//! The communication fabric: per-rank mailboxes over channels.
//!
//! Each rank owns one receiver per face and senders into its neighbours'
//! mailboxes. Sends are non-blocking (unbounded channels) so a rank can
//! post all four faces and go compute — the overlap pattern of AWP-ODC's
//! "well-designed MPI scheme".

use crate::grid::RankGrid;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use sw_grid::halo::Face;

/// A message is one packed halo face.
pub type FaceBuffer = Vec<f32>;

fn face_index(f: Face) -> usize {
    match f {
        Face::West => 0,
        Face::East => 1,
        Face::South => 2,
        Face::North => 3,
    }
}

/// One rank's endpoints. A clone is another handle to the same
/// mailboxes, so a rank's solver can hold its endpoints for the run.
#[derive(Debug, Clone)]
pub struct RankComm {
    /// This rank's id.
    pub rank: usize,
    /// The rank grid.
    pub grid: RankGrid,
    senders: Arc<[Option<Sender<FaceBuffer>>; 4]>,
    // `mpsc::Receiver` is `!Sync`; the Mutex restores `Sync` so scoped
    // rank threads can share `&RankComm`. Each face's receiver is only
    // ever drained by its owning rank, so the lock is uncontended.
    receivers: Arc<[Option<Mutex<Receiver<FaceBuffer>>>; 4]>,
}

impl RankComm {
    /// Post a face towards the neighbour behind `face`. Returns `false`
    /// (dropping the buffer) when there is no neighbour there.
    pub fn send(&self, face: Face, buf: FaceBuffer) -> bool {
        match &self.senders[face_index(face)] {
            Some(tx) => {
                tx.send(buf).expect("neighbour rank hung up");
                true
            }
            None => false,
        }
    }

    /// Receive the face the neighbour behind `face` sent us (blocking).
    /// Returns `None` when there is no neighbour on that side.
    pub fn recv(&self, face: Face) -> Option<FaceBuffer> {
        self.receivers[face_index(face)]
            .as_ref()
            .map(|rx| rx.lock().unwrap().recv().expect("neighbour rank hung up"))
    }

    /// True when a neighbour exists behind `face`.
    pub fn has_neighbor(&self, face: Face) -> bool {
        self.senders[face_index(face)].is_some()
    }
}

/// Builds the full mesh of channels for a rank grid.
pub struct Fabric;

impl Fabric {
    /// Create one [`RankComm`] per rank, fully wired.
    pub fn build(grid: RankGrid) -> Vec<RankComm> {
        let n = grid.len();
        // receivers[rank][face]: the mailbox where the neighbour behind
        // `face` deposits its halo.
        let mut senders: Vec<[Option<Sender<FaceBuffer>>; 4]> =
            (0..n).map(|_| [None, None, None, None]).collect();
        let mut receivers: Vec<[Option<Mutex<Receiver<FaceBuffer>>>; 4]> =
            (0..n).map(|_| [None, None, None, None]).collect();
        for (rank, sender_row) in senders.iter_mut().enumerate() {
            for face in Face::ALL {
                if let Some(nb) = grid.neighbor(rank, face) {
                    // What `rank` sends towards `face` arrives in the
                    // neighbour's mailbox for the opposite face.
                    let (tx, rx) = channel();
                    sender_row[face_index(face)] = Some(tx);
                    receivers[nb][face_index(face.opposite())] = Some(Mutex::new(rx));
                }
            }
        }
        senders
            .into_iter()
            .zip(receivers)
            .enumerate()
            .map(|(rank, (s, r))| RankComm {
                rank,
                grid,
                senders: Arc::new(s),
                receivers: Arc::new(r),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_ranks_exchange_along_x() {
        let grid = RankGrid::new(2, 1);
        let mut comms = Fabric::build(grid);
        let right = comms.pop().unwrap();
        let left = comms.pop().unwrap();
        assert!(left.send(Face::East, vec![1.0, 2.0]));
        assert!(right.send(Face::West, vec![3.0]));
        assert_eq!(right.recv(Face::West).unwrap(), vec![1.0, 2.0]);
        assert_eq!(left.recv(Face::East).unwrap(), vec![3.0]);
    }

    #[test]
    fn boundary_faces_have_no_channel() {
        let grid = RankGrid::new(2, 2);
        let comms = Fabric::build(grid);
        let r00 = &comms[grid.rank_of(0, 0)];
        assert!(!r00.has_neighbor(Face::West));
        assert!(!r00.has_neighbor(Face::South));
        assert!(r00.has_neighbor(Face::East));
        assert!(r00.has_neighbor(Face::North));
        assert!(!r00.send(Face::West, vec![0.0]));
        assert!(r00.recv(Face::South).is_none());
    }

    #[test]
    fn messages_keep_fifo_order() {
        let grid = RankGrid::new(2, 1);
        let comms = Fabric::build(grid);
        comms[0].send(Face::East, vec![1.0]);
        comms[0].send(Face::East, vec![2.0]);
        assert_eq!(comms[1].recv(Face::West).unwrap(), vec![1.0]);
        assert_eq!(comms[1].recv(Face::West).unwrap(), vec![2.0]);
    }

    #[test]
    fn full_grid_all_to_all_faces() {
        let grid = RankGrid::new(3, 3);
        let comms = Fabric::build(grid);
        // Every rank posts its id on every available face…
        for c in &comms {
            for f in Face::ALL {
                c.send(f, vec![c.rank as f32]);
            }
        }
        // …and receives exactly its neighbour's id from each.
        for c in &comms {
            for f in Face::ALL {
                if let Some(buf) = c.recv(f) {
                    let nb = grid.neighbor(c.rank, f).unwrap();
                    assert_eq!(buf, vec![nb as f32]);
                }
            }
        }
    }
}
