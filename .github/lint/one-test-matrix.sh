#!/usr/bin/env bash
# One test matrix (DESIGN.md, "One test matrix"): exec, lane-tier, rank,
# store, restart and health equivalence of whole runs is pinned by the
# run cases of tests/matrix/ alone. The tests/*_equivalence.rs files keep
# the contracts' test names and hold nothing but one-line tests that
# check those cases. Exits 1, naming the file and line, when the git
# checkout in the current directory puts anything else in one of them (a
# config, a run or a comparison of its own), or brings back the parallel
# kinetic-energy reduction that only such a suite called.
allowed='^\s*(//.*|mod matrix;|#\[test\]|fn [a-z0-9_]+\(\) \{|matrix::check\(file!\(\), "[a-z0-9_]+"\);|\})?\s*$'
if git ls-files -z -- 'tests/*_equivalence.rs' | xargs -0 -r grep -nvE "$allowed"; then
    echo "an equivalence suite outside the one test matrix (tests/matrix/) is back" >&2
    exit 1
fi
if git grep -n 'kinetic_energy_par' -- '*.rs'; then
    echo "SolverState::kinetic_energy_par is back" >&2
    exit 1
fi
