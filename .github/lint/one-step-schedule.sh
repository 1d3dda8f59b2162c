#!/usr/bin/env bash
# One step schedule (DESIGN.md, "One step schedule"): `Simulation::step`
# is the only place the halves, the finish and the halo exchanges are
# called from, `run` / `run_checked` hold the only loops over steps (so
# `.step()` has two callers, `run` and `step_checked`, and
# `.step_checked()` one), and neither the resident copy of `finish_step`,
# the kernel-sequence shortcut nor the CLI's second result writer comes
# back. Exits 1, naming what broke it, when the git checkout in the
# current directory does not hold to that.
driver=crates/core/src/driver.rs
tests_at="$(grep -n '^#\[cfg(test)\]' "$driver" | head -1 | cut -d: -f1)"
product="$(head -n "$((tests_at - 1))" "$driver")"
count() { grep -c "$1" <<<"$product"; }
for call in velocity_half stress_half finish_step; do
    n="$(count "\.${call}(")"
    if [ "$n" -ne 1 ]; then
        echo "$driver calls .${call}( $n times, not once" >&2
        exit 1
    fi
done
for pattern in '\.exchange(:2:at most' '\.step():2:exactly' '\.step_checked():1:exactly'; do
    IFS=: read -r call want how <<<"$pattern"
    n="$(count "$call")"
    if { [ "$how" = 'at most' ] && [ "$n" -gt "$want" ]; } \
        || { [ "$how" = exactly ] && [ "$n" -ne "$want" ]; }; then
        echo "$driver has $n calls of ${call//\\/}, not $how $want" >&2
        exit 1
    fi
done
if git grep -nE 'finish_step_resident|step_interior|write_multirank_outputs' -- crates src; then
    echo "a second copy of the step schedule or of its tail is back" >&2
    exit 1
fi
