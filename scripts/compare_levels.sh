#!/bin/sh
# Compare the sha256 of every artifact the benchmark's workloads write
# (`perfbench/digests.py`) between this checkout and the commit PARENT, at
# each SIMD dispatch level numpy can pick on an x86-64 host: the default,
# then with numpy's AVX-512 (X86_V4) loops switched off, then with its
# AVX2 (X86_V3) loops off too.  PARENT is taken with `git archive` into a
# temporary directory, and both sides run on this checkout's perfbench:
#
#     scripts/compare_levels.sh PARENT
#
# A level whose CPU features equal the previous level's is skipped, and
# said so, as in `dispatch_levels.sh`.  Every level runs; each differing,
# missing or new artifact is printed, and the exit code is 1 if any level
# had one.
set -e
if [ $# -ne 1 ]; then
    echo "usage: scripts/compare_levels.sh PARENT" >&2
    exit 2
fi
cd "$(dirname "$0")/.."
commit=$(git rev-parse --verify --quiet "$1^{commit}") || {
    echo "error: $1 names no commit" >&2
    exit 2
}
parent=$(mktemp -d)
trap 'rm -rf "$parent"' EXIT
git archive "$commit" | tar -x -C "$parent"
previous=""
status=0
for off in "" "X86_V4 AVX512_ICL AVX512_SPR" "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"; do
    features=$(NPY_DISABLE_CPU_FEATURES="$off" python3 -c \
        "import numpy._core._multiarray_umath as m; print(m.__cpu_features__)")
    if [ "$features" = "$previous" ]; then
        echo "NPY_DISABLE_CPU_FEATURES=\"$off\" skipped: this host dispatches the same features as at the level before"
        continue
    fi
    previous=$features
    echo "NPY_DISABLE_CPU_FEATURES=\"$off\""
    NPY_DISABLE_CPU_FEATURES="$off" python3 perfbench/digests.py --src "$parent/src" \
        -o "$parent/digests.json" > /dev/null
    NPY_DISABLE_CPU_FEATURES="$off" python3 perfbench/digests.py \
        --compare "$parent/digests.json" > /dev/null || status=1
done
exit $status
