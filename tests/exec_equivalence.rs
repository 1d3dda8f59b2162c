//! Exec equivalence: `Parallel` (and its `Simd` alias) bit-match the
//! serial run — single rank, on 2×2 ranks, through the monitor's records
//! and across a checkpoint cut under one mode and resumed under the
//! other. Each test checks its cases of the one test matrix
//! (`tests/matrix/`).

mod matrix;

/// Single rank: `Parallel` bit-matches `Serial` on the full store, at every
/// lane tier, and every tier matches the baseline.
#[test]
fn parallel_matches_serial_single_rank() {
    matrix::check(file!(), "parallel_matches_serial_single_rank");
}

/// 2×2 ranks on the global statistics of a coarse pre-run, serial and
/// fanning out over the pool at every lane tier, bit-match one rank.
#[test]
fn parallel_matches_serial_across_2x2_ranks() {
    matrix::check(file!(), "parallel_matches_serial_across_2x2_ranks");
}

/// The probe's kinetic energy, with every field of its stride-3 records,
/// is the same bits under `Parallel` as under `Serial`.
#[test]
fn kinetic_energy_reduction_is_bitwise_deterministic() {
    matrix::check(file!(), "kinetic_energy_reduction_is_bitwise_deterministic");
}

/// The monitor is bit-neutral (stride 3 on `Full`, stride 5 on the round
/// trip), and a monitored round-trip run's records, checks, warnings and
/// budget ledger are identical under `Parallel` and `Serial`.
#[test]
fn health_records_are_identical_across_exec_modes() {
    matrix::check(file!(), "health_records_are_identical_across_exec_modes");
}

/// An image cut under one exec (or lane tier) and resumed under the other
/// ends on the uninterrupted run, on the full store and the round trip.
#[test]
fn checkpoint_restore_is_mode_agnostic() {
    matrix::check(file!(), "checkpoint_restore_is_mode_agnostic");
}

/// The `Simd` alias bit-matches the serial reference.
#[test]
fn simd_matches_serial_single_rank() {
    matrix::check(file!(), "simd_matches_serial_single_rank");
}

/// An image cut under `Simd` resumes under `Serial`, and the other way,
/// on the uninterrupted serial run.
#[test]
fn simd_checkpoint_restore_is_mode_agnostic() {
    matrix::check(file!(), "simd_checkpoint_restore_is_mode_agnostic");
}

/// The round trip under `Parallel` bit-matches `Serial`: its deviation,
/// and so its spend of any error budget, is zero.
#[test]
fn exec_mode_deviation_spends_zero_error_budget() {
    matrix::check(file!(), "exec_mode_deviation_spends_zero_error_budget");
}
