#!/usr/bin/env bash
# One list of arrays (DESIGN.md, "One list of arrays"): `core::state` alone
# knows which arrays exist. Exits 1, naming what broke it, when the git
# checkout in the current directory brings back the whole-mesh Cerjan
# array or its builder, the slab's own array count, the borrow helper
# that existed to hand the sponge its array, or the two environment
# defaults nothing but tests set; or when the plasticity set is named
# anywhere but where it is allocated and sampled (state), read (the
# plasticity kernels) and copied tile by tile (the resident slab) — a new
# list of "the material arrays" elsewhere would have to name it.
if git grep -nE 'dcrj|build_sponge|SLAB_FIELDS|dynamic_mut_and_damping|SWQUAKE_RESIDENT|SWQUAKE_HEALTH_STRIDE' -- crates src; then
    echo "a second list of arrays, the whole-mesh sponge array or a deleted env default is back" >&2
    exit 1
fi
named="$(git grep -lE '\.(cohes|sinphi)\b' -- crates src | sort | tr '\n' ' ')"
if [ "$named" != "crates/core/src/kernels/plastic.rs crates/core/src/resident.rs crates/core/src/state.rs " ]; then
    echo "the plasticity arrays are named in: $named" >&2
    exit 1
fi
