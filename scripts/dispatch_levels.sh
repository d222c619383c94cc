#!/bin/sh
# Tier-1 at each SIMD dispatch level numpy can pick on an x86-64 host: the
# default, then with numpy's AVX-512 (X86_V4) loops switched off, then with
# its AVX2 (X86_V3) loops off too.  Stops after the first level that fails.
# Arguments go to every pytest run:
#
#     scripts/dispatch_levels.sh [PYTEST_ARGS...]
#
# numpy ignores a feature it does not dispatch, so a level whose CPU
# features (numpy's `__cpu_features__`) equal the previous level's would
# run the suite at that level once more: it is skipped, and said so.
set -e
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
previous=""
for off in "" "X86_V4 AVX512_ICL AVX512_SPR" "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"; do
    features=$(NPY_DISABLE_CPU_FEATURES="$off" python3 -c \
        "import numpy._core._multiarray_umath as m; print(m.__cpu_features__)")
    if [ "$features" = "$previous" ]; then
        echo "NPY_DISABLE_CPU_FEATURES=\"$off\" skipped: this host dispatches the same features as at the level before"
        continue
    fi
    previous=$features
    echo "NPY_DISABLE_CPU_FEATURES=\"$off\""
    NPY_DISABLE_CPU_FEATURES="$off" python3 -m pytest -q --continue-on-collection-errors "$@"
done
