//! The §6.5 16-bit resident store: within the epsilon tier of `Full`,
//! bit-neutral for `Full` itself, bounded under a memory cap, inside the
//! health budget, and across restarts. Each test checks its cases of the
//! one test matrix (`tests/matrix/`).

mod matrix;

/// `Compressed16`, serial, parallel and capped, within the epsilon tier of
/// `Full`; serial and parallel 16-bit runs bit for bit the same.
#[test]
fn compressed16_matches_full_within_epsilon_across_exec_modes() {
    matrix::check(file!(), "compressed16_matches_full_within_epsilon_across_exec_modes");
}

/// `Full` spelled out, or under a memory cap, is the default run bit for bit.
#[test]
fn full_mode_is_bitwise_unchanged_by_resident_knobs() {
    matrix::check(file!(), "full_mode_is_bitwise_unchanged_by_resident_knobs");
}

/// A mesh whose f32 footprint is over twice the cap runs capped in 16
/// bits: slab within the cap, stores and slab under the footprint, results
/// within the epsilon tier.
#[test]
fn over_cap_scenario_completes_with_bounded_working_set() {
    matrix::check(file!(), "over_cap_scenario_completes_with_bounded_working_set");
}

/// The budget promoted to fatal at stride 3: the capped 16-bit run
/// completes, bit for bit the unmonitored one.
#[test]
fn health_budget_gate_passes_under_compressed16() {
    matrix::check(file!(), "health_budget_gate_passes_under_compressed16");
}

/// The round-trip error pass at stride 3 is bit-neutral: the monitored
/// 16-bit run is the unmonitored one bit for bit.
#[test]
fn error_statistics_ride_only_the_sampled_steps() {
    matrix::check(file!(), "error_statistics_ride_only_the_sampled_steps");
}

/// A 16-bit image resumed in `Full`, and a `Full` image resumed in 16
/// bits, land within the epsilon tier of the uninterrupted `Full` run.
#[test]
fn checkpoints_cross_the_resident_mode_boundary() {
    matrix::check(file!(), "checkpoints_cross_the_resident_mode_boundary");
}

/// The capped 16-bit run is the same bits at every lane tier, half image
/// included; an image cut at one tier and resumed at the other ends on the
/// uninterrupted run.
#[test]
fn checkpoints_cross_the_lane_tier_boundary() {
    matrix::check(file!(), "checkpoints_cross_the_lane_tier_boundary");
}
