#!/usr/bin/env bash
# One body per kernel (DESIGN.md, "One body per kernel"): no build
# configuration selects code, the fused-layout wall is gone for good, and
# the pool is entered from exactly one function under the kernels: the
# plane iterator. Exits 1, naming what broke it, when the git checkout in
# the current directory does not hold to that.
if git grep -n 'cfg(feature' -- crates src; then
    echo "a cargo feature gates product code" >&2
    exit 1
fi
if git grep -n FusedUnsupported -- crates src tests; then
    echo "the fused layout is back" >&2
    exit 1
fi
plane=crates/core/src/kernels/plane.rs
entries='par_chunks_mut|into_par_iter'
files="$(git grep -lE "$entries" -- crates/core/src/kernels)"
if [ "$files" != "$plane" ]; then
    echo "the pool is entered under the kernels from: $(echo $files)" >&2
    exit 1
fi
calls="$(git grep -cE "$entries" -- "$plane" | cut -d: -f2)"
if [ "$calls" -ne 1 ]; then
    echo "$plane enters the pool $calls times, not once" >&2
    exit 1
fi
