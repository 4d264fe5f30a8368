#!/bin/sh
# check_unreached.sh — gate on library code that no shipped binary
# reaches.
#
# Every function in libse should be reached from a program the repo
# ships: a bench, an example, or the benchmark driver (perfbench/).
# Code that only the tests reach is a second copy of behaviour nobody
# runs; it either earns a bench row or goes. This gate builds libse at
# -O0 with one section per function, links every bench, every example
# and perfbench with --gc-sections, and lists the libse functions
# (global and file-local text symbols) that no linked binary keeps.
# Any such function outside ALLOWLIST below fails the gate, and so
# does an allowlist entry that no longer names an unreached function
# (it was deleted, or a binary reaches it now: drop the entry).
#
# -O0 matters: at the default -O2 a callee inlined into its only
# caller in the same TU leaves no symbol behind, and the gate would
# report it although a binary runs its code.
#
#   tools/lint/check_unreached.sh              # the gate (CI lint job)
#   tools/lint/check_unreached.sh --self-test  # empty the allowlist and
#                                              # assert the detector
#                                              # reports every entry,
#                                              # and no reached function
#
# The build goes to build-unreached/ (ignored by git) and is reused,
# so a self-test after the gate only relinks. Needs cmake, nm, c++filt
# and the gtest package the root CMakeLists.txt configures with.
# Exit 0 = clean (or self-test detector fired); non-zero otherwise.

set -eu
export LC_ALL=C  # one collation for sort and comm

cd "$(dirname "$0")/../.."
BUILD=build-unreached
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# Demangled-name patterns (grep -E, one function per line) of the
# libse functions the gate accepts without a shipped caller.
cat > "$WORK/allowlist" <<'EOF'
^se::failpoint::arm\(
^se::failpoint::disarm\(
^se::failpoint::hitCount\(
^se::failpoint::fireCount\(
^se::runtime::DecompCache::size\(
^se::runtime::DecompCache::misses\(
^se::runtime::DecompCache::diskHits\(
^se::runtime::DecompCache::spills\(
^se::runtime::DecompCache::spillFailures\(
^se::runtime::DecompCache::corruptDropped\(
^se::runtime::DecompCache::clear\(
^se::runtime::DecompCache::purgeSpill\(
^se::serve::ServeFront::engine\(
^se::serve::ServeFront::engineBuilt\(
^se::serve::ModelRegistry::contains\(
^se::serve::ModelRegistry::generationOf\(
^se::serve::ModelRegistry::replace\(
^se::serve::BoundModel::layers\(
^se::serve::InferenceSession::clearRebuildCache\(
^se::encode::BitWriter::bytes\(
^se::quant::Pow2Alphabet::project\(
^se::quant::Pow2Alphabet::contains\(
^se::linalg::transpose\(
^se::linalg::choleskySolve\(
^se::core::loadModel\(
^se::core::loadModelFile\(
^se::core::installModelBundle\(
^se::core::StreamedModel::bundle\(
^se::compiler::annotateFromReport\(
EOF
# Why each group is there:
# - failpoint arm/disarm/hitCount/fireCount, the DecompCache counters
#   and resets, ServeFront::engine/engineBuilt and the ModelRegistry
#   accessors: the documented test and failure hooks.
# - BoundModel::layers, InferenceSession::clearRebuildCache,
#   BitWriter::bytes: accessors the serve and bitstream walls read.
# - Pow2Alphabet::project/contains, linalg::transpose/choleskySolve:
#   the scalar projection and the Tensor normal equations the quant
#   and ALS walls diff the library's fused paths against.
# - loadModel, loadModelFile, installModelBundle,
#   StreamedModel::bundle: the pre-v4 bundle API, which goes with the
#   v2/v3 formats (ROADMAP item 2).
# - compiler::annotateFromReport: kept for the accelerator model on
#   the served bundle (ROADMAP item 7).

FLAGS="-DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG=-O0"
FLAGS="$FLAGS -DCMAKE_CXX_FLAGS=-ffunction-sections"
FLAGS="$FLAGS -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"
JOBS="$(nproc 2>/dev/null || echo 2)"

# The shipped binaries: every bench, every example, and perfbench.
TARGETS=""
for src in bench/*.cc examples/*.cpp; do
    name="$(basename "$src")"
    TARGETS="$TARGETS ${name%.*}"
done

build() {
    # shellcheck disable=SC2086
    if ! { cmake -S . -B "$BUILD" $FLAGS &&
           cmake --build "$BUILD" -j "$JOBS" --target $TARGETS &&
           cmake -S perfbench -B "$BUILD/perfbench" $FLAGS &&
           cmake --build "$BUILD/perfbench" -j "$JOBS" \
                 --target perfbench; } > "$WORK/build.log" 2>&1; then
        tail -30 "$WORK/build.log" >&2
        echo "check_unreached: the -O0 build failed" >&2
        exit 1
    fi
}

# Mangled names of the defined text symbols (global T, local t) in $@.
text_symbols() {
    nm --defined-only "$@" 2>/dev/null |
        awk '$2 == "T" || $2 == "t" { print $3 }' | sort -u
}

# Demangled libse functions that no shipped binary keeps.
unreached() {
    text_symbols "$BUILD/libse.a" > "$WORK/lib"
    bins=""
    for t in $TARGETS; do
        bins="$bins $BUILD/$t"
    done
    # shellcheck disable=SC2086
    text_symbols $bins "$BUILD/perfbench/perfbench" > "$WORK/kept"
    if [ ! -s "$WORK/lib" ] || [ ! -s "$WORK/kept" ]; then
        echo "check_unreached: no symbols read — nothing was checked" >&2
        exit 1
    fi
    comm -23 "$WORK/lib" "$WORK/kept" | c++filt | sort
}

build
unreached > "$WORK/unreached"

if [ "${1:-}" = "--self-test" ]; then
    # With the allowlist emptied, every entry is a seeded violation:
    # the detector must report each one. It must also keep quiet on a
    # function a shipped binary runs, or it reports everything.
    status=0
    while IFS= read -r pat; do
        if ! grep -Eq "$pat" "$WORK/unreached"; then
            echo "check_unreached SELF-TEST FAILED: allowlisted" \
                 "'$pat' not reported with the allowlist emptied —" \
                 "the detector is blind" >&2
            status=1
        fi
    done < "$WORK/allowlist"
    if grep -Eq '^se::kernels::gemmCeBLayer\(' "$WORK/unreached"; then
        echo "check_unreached SELF-TEST FAILED: kernels::gemmCeBLayer," \
             "which the serve benches run, reported unreached" >&2
        status=1
    fi
    [ "$status" -eq 0 ] &&
        echo "check_unreached self-test OK: detector reported all" \
             "$(wc -l < "$WORK/allowlist") allowlisted functions and" \
             "kept quiet on a reached one"
    exit $status
fi

status=0
bad="$(grep -Ev -f "$WORK/allowlist" "$WORK/unreached" || true)"
if [ -n "$bad" ]; then
    echo "check_unreached: libse functions no bench, example or" \
         "perfbench binary reaches:" >&2
    echo "$bad" | sed 's/^/  /' >&2
    echo "Delete them (with the tests that only test them), give them" \
         "a shipped caller, or allowlist a documented hook in" \
         "$0." >&2
    status=1
fi
while IFS= read -r pat; do
    if ! grep -Eq "$pat" "$WORK/unreached"; then
        echo "check_unreached: stale allowlist entry '$pat': it names" \
             "no unreached function — drop it" >&2
        status=1
    fi
done < "$WORK/allowlist"
[ "$status" -eq 0 ] &&
    echo "check_unreached: clean ($(wc -l < "$WORK/lib") libse" \
         "functions, $(wc -l < "$WORK/unreached") unreached, all" \
         "allowlisted)"
exit $status
