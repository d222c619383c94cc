#!/bin/sh
# Tier-1 at each SIMD dispatch level numpy can pick on an x86-64 host: the
# default, then with numpy's AVX-512 (X86_V4) loops switched off, then with
# its AVX2 (X86_V3) loops off too.  Stops after the first level that fails.
# Arguments go to every pytest run:
#
#     scripts/dispatch_levels.sh [PYTEST_ARGS...]
#
# numpy ignores a feature it does not dispatch, so a level this host does
# not have runs the suite at the levels below it once more.
set -e
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
for off in "" "X86_V4 AVX512_ICL AVX512_SPR" "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"; do
    echo "NPY_DISABLE_CPU_FEATURES=\"$off\""
    NPY_DISABLE_CPU_FEATURES="$off" python3 -m pytest -q --continue-on-collection-errors "$@"
done
