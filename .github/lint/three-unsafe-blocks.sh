#!/usr/bin/env bash
# Three unsafe blocks, all in sw-grid (DESIGN.md, "The unsafe policy"):
# exactly one block in sw_grid::fpenv (it switches the FP control word),
# exactly one in sw_grid::simd (the call from undetected into detected
# code), exactly one in sw_grid::hugepage (the huge-page advice over a
# field's own store), and the word nowhere else. Exits 1, naming what
# broke it, when the git checkout in the current directory does not hold
# to that.
files=(crates/sw-grid/src/fpenv.rs crates/sw-grid/src/simd.rs crates/sw-grid/src/hugepage.rs)
if git grep -n unsafe -- '*.rs' "${files[@]/#/:!}"; then
    echo "unsafe outside crates/sw-grid/src/{fpenv,simd,hugepage}.rs" >&2
    exit 1
fi
for file in "${files[@]}"; do
    blocks="$(grep -c 'unsafe {' "$file")"
    if [ "$blocks" -ne 1 ]; then
        echo "$file holds $blocks unsafe blocks, not 1" >&2
        exit 1
    fi
done
