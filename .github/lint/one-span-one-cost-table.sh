#!/usr/bin/env bash
# One span, one cost table (DESIGN.md, "One span, one cost table"): the
# step loop records what it measured and nothing modeled. The driver does
# not name the perf model (it reads `sw_arch::perf::step_costs` once per
# simulation), reads the clock only in `step`, `span`, the
# `compress.roundtrip` sub-timer and the two checkpoint-writer waits,
# and neither the per-step charge tables nor the second clock (the phase
# guard and its path stack, the ledger's scoped timer) come back. Exits
# 1, naming what broke it, when the git checkout in the current
# directory does not hold to that.
driver=crates/core/src/driver.rs
tests_at="$(grep -n '^#\[cfg(test)\]' "$driver" | head -1 | cut -d: -f1)"
product="$(head -n "$((tests_at - 1))" "$driver")"
if grep -n KernelPerfModel <<<"$product"; then
    echo "the driver prices kernels itself again" >&2
    exit 1
fi
n="$(grep -c 'Instant::now' <<<"$product")"
if [ "$n" -ne 5 ]; then
    echo "$driver reads the clock in $n places, not 5" >&2
    exit 1
fi
for owner in 'pub fn step' 'fn span' 'fn compression_roundtrip' 'fn stage_generation' 'fn join_writer'; do
    body="$(sed -n "/ ${owner}[<(]/,/^    }/p" <<<"$product")"
    n="$(grep -c 'Instant::now' <<<"$body")"
    if [ "$n" -ne 1 ]; then
        echo "\`$owner\` reads the clock $n times, not once" >&2
        exit 1
    fi
done
if git grep -nE 'PhaseGuard|PHASE_STACK|ArchCharges|PerfCharges|modeled_step_seconds|PerfScope' -- crates src; then
    echo "a per-step charge table or the second clock is back" >&2
    exit 1
fi
