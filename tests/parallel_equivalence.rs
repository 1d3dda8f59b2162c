//! The decomposition contract: a multi-rank run is bit-identical to the
//! single-rank run — the property the paper's level-1 MPI decomposition
//! relies on and the reason halo exchange exists. Each test checks its
//! cases of the one test matrix (`tests/matrix/`).

mod matrix;

/// 2×1 ranks bit-match one rank.
#[test]
fn two_by_one_matches_single_rank() {
    matrix::check(file!(), "two_by_one_matches_single_rank");
}

/// 1×2 ranks bit-match one rank.
#[test]
fn one_by_two_matches_single_rank() {
    matrix::check(file!(), "one_by_two_matches_single_rank");
}

/// 2×2 ranks bit-match one rank.
#[test]
fn two_by_two_matches_single_rank() {
    matrix::check(file!(), "two_by_two_matches_single_rank");
}

/// 3×2 ranks bit-match one rank.
#[test]
fn three_by_two_matches_single_rank() {
    matrix::check(file!(), "three_by_two_matches_single_rank");
}

/// An uneven split (7×3 does not divide 30×28) on the Tangshan basin.
#[test]
fn uneven_decomposition_matches() {
    matrix::check(file!(), "uneven_decomposition_matches");
}

/// The flop total (with every other observable) of 2×2 ranks fanning out
/// over the pool matches one serial rank.
#[test]
fn flops_are_decomposition_invariant() {
    matrix::check(file!(), "flops_are_decomposition_invariant");
}
