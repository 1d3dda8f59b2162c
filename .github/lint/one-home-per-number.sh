#!/usr/bin/env bash
# One home per number (DESIGN.md, "One home per number"): the perf ledger
# is the one per-kernel account of what a step costs and `swquake
# inspect` the one campaign roll-up. Exits 1, naming the line, when the
# git checkout in the current directory brings back the model's copy in
# the metrics registry (`arch.*`), the second flop table, the constant
# series or the summary's rollups anywhere under the product's sources.
names='charge_model|charge_step|PerfRollup|TimelineRollup|"arch\.|step\.flops|achieved_ratio'
if git grep -nE "$names" -- 'crates/*/src/*' 'src/*'; then
    echo "a second home for a number is back" >&2
    exit 1
fi
