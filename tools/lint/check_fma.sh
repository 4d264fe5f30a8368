#!/bin/sh
# check_fma.sh — objdump gate on the TUs that hold bit-pinned float
# chains.
#
# The bit-identity contract (README "Runtime ISA dispatch") requires
# src/kernels/dispatch_avx2.cc to round twice per multiply-add
# (mul-round-add-round); a fused multiply-add rounds once. The build
# enforces this by compiling the TU with -mavx2 and never -mfma; this
# check enforces it from the other side: compile the TU standalone
# under the house flag sets, disassemble, and fail on ANY fused
# multiply-add mnemonic (vfmadd/vfmsub/vfnmadd/vfnmsub).
#
# The scalar reference panels (src/kernels/dispatch.cc, which the
# AVX2 table also runs for its remainder columns), the ALS refits
# (src/linalg/linalg.cc), the decomposition loop
# (src/core/smart_exchange.cc), the dense Ce*B install kernel
# (src/core/ce_basis.cc), the seeded normal draws
# (src/base/random.cc: the polar method's x*x + y*y and its
# ret*stddev + mean) and the eval BatchNorm2d expression
# (src/nn/layers.cc: gamma * xhat + beta in double, which the fused
# BN+ReLU pass must repeat byte for byte) keep their own float
# chains, pinned by the decomposition digests, the install wall
# against the reference matmul, the goldens, the Rng identity walls
# and the fused eval wall. The se target compiles them with -ffp-contract=off, so even
# an FMA-capable -march cannot fuse them; the gate compiles each with
# that flag at -O2 -march=x86-64-v3 (FMA enabled) and fails on any
# fused instruction.
#
# The AVX-512 TU (src/kernels/dispatch_avx512.cc) holds only the
# double chain, whose steps are explicit zmm fused multiply-adds: both
# factors are floats widened to double, so the product is exact and
# the fused step rounds once, at the add, as the scalar chain does. It
# gets no ISA flag from either build: it enables AVX-512F (which
# includes FMA) in its own source, and switches contraction off there
# so the compiler fuses nothing else. The gate compiles it the way the
# benchmark build does (plain -O2, no -ffp-contract=off) and allows
# only packed-double zmm fused steps: it fails on any fused ps, ss or
# sd mnemonic, on any fused instruction on xmm or ymm registers, and
# when the object holds no zmm vfmadd...pd (the double-chain panel was
# not checked).
#
#   tools/lint/check_fma.sh              # the gate (CI, ctest -L lint)
#   tools/lint/check_fma.sh --self-test  # seed violations (-mfma
#                                        # -ffp-contract=fast for the
#                                        # AVX2 TU, no -ffp-contract=off
#                                        # for the others, a float and
#                                        # a ymm fused step appended to
#                                        # the AVX-512 TU) and assert
#                                        # the detector fires on each;
#                                        # and assert that deleting the
#                                        # AVX-512 TU's contraction
#                                        # pragma adds no fused step
#
# Exit 0 = clean (or self-test detector fired); non-zero otherwise.
# Runs from the repo root. $CXX overrides the compiler (default c++).

set -eu

cd "$(dirname "$0")/../.."
CXX="${CXX:-c++}"
TU=src/kernels/dispatch_avx2.cc
TU512=src/kernels/dispatch_avx512.cc
# The line of $TU512 that switches contraction off; the self-test
# deletes it to seed fused zmm instructions.
NO_CONTRACT_PRAGMA='^#pragma GCC optimize("fp-contract=off")$'
CHAIN_TUS="src/kernels/dispatch.cc src/linalg/linalg.cc src/core/smart_exchange.cc
src/core/ce_basis.cc src/base/random.cc src/nn/layers.cc"
# The se target's contraction flag (CMakeLists.txt); checked below so
# the gate and the build cannot drift apart.
NO_CONTRACT=-ffp-contract=off
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

FMA_RE='vfmadd|vfmsub|vfnmadd|vfnmsub'

# Disassemble $1.o, print count of fused-multiply-add instructions.
count_fma() {
    objdump -d "$1" | grep -cE "$FMA_RE" || true
}

# Sanity gate: the object must actually contain AVX2 code (ymm
# registers) — otherwise the TU compiled to the nullptr fallback and
# the FMA scan inspected nothing.
count_ymm() {
    objdump -d "$1" | grep -c '%ymm' || true
}

# Second sanity gate: the double-chain panel's ymm double-precision
# multiplies must be in the scanned object too — otherwise that panel
# moved out of this TU (or compiled away) and escaped the FMA scan.
count_ymm_mulpd() {
    objdump -d "$1" | grep -E 'vmulpd' | grep -c '%ymm' || true
}

# The AVX-512 TU's rule on object $1: its fused instructions must all
# be packed-double zmm steps, and there must be some. Prints the
# count of those; on a violation it says why on stderr and returns 1.
check_zmm_pd_only() {
    fused="$(objdump -d "$1" | grep -E "$FMA_RE" || true)"
    not_pd=$(printf '%s\n' "$fused" | grep -E "$FMA_RE" |
             grep -cvE '(vfmadd|vfmsub|vfnmadd|vfnmsub)[a-z0-9]*pd[[:space:]]' ||
             true)
    narrow=$(printf '%s\n' "$fused" | grep -cE '%[xy]mm' || true)
    zmm_pd=$(printf '%s\n' "$fused" | grep -E 'pd[[:space:]]' |
             grep -c '%zmm' || true)
    if [ "$not_pd" -ne 0 ]; then
        echo "$not_pd fused ps/ss/sd instruction(s) — only the exact" \
             "double chain may fuse:" >&2
        printf '%s\n' "$fused" | grep -vE 'pd[[:space:]]' | head -5 >&2
        return 1
    fi
    if [ "$narrow" -ne 0 ]; then
        echo "$narrow fused instruction(s) on xmm or ymm registers —" \
             "only zmm steps may fuse:" >&2
        printf '%s\n' "$fused" | grep -E '%[xy]mm' | head -5 >&2
        return 1
    fi
    if [ "$zmm_pd" -eq 0 ]; then
        echo "no zmm vfmadd...pd — the AVX-512 double chain compiled" \
             "away or moved, so nothing was checked" >&2
        return 1
    fi
    echo "$zmm_pd"
}

# Count of scalar/packed float multiplies in $1.o: a chain TU whose
# object has none compiled its float chains away and checked nothing.
count_mul() {
    objdump -d "$1" | grep -cE 'vmul[sp][sd]' || true
}

compile() {
    # $1 = output object, rest = extra flags
    out="$1"; shift
    "$CXX" -std=c++17 -c -Isrc "$@" "$TU" -o "$out"
}

# $1 = TU, $2 = output object, rest = extra flags
compile_tu() {
    tu="$1"; out="$2"; shift 2
    "$CXX" -std=c++17 -c -Isrc "$@" "$tu" -o "$out"
}

if [ "${1:-}" = "--self-test" ]; then
    # Seed the violation the gate exists to catch: same TU, FMA ISA
    # enabled and contraction explicitly allowed. The detector MUST
    # fire — if it does not, the gate is blind and every green run
    # it ever produced is meaningless.
    compile "$WORK/seeded.o" -O2 -mavx2 -mfma -ffp-contract=fast
    n=$(count_fma "$WORK/seeded.o")
    if [ "$n" -eq 0 ]; then
        echo "check_fma SELF-TEST FAILED: compiled with -mfma" \
             "-ffp-contract=fast yet found 0 fused instructions —" \
             "the detector is blind" >&2
        exit 1
    fi
    for tu in $CHAIN_TUS; do
        # Same TU and -march as the gate, contraction left to the
        # compiler's default.
        compile_tu "$tu" "$WORK/seeded.o" -O2 -march=x86-64-v3
        m=$(count_fma "$WORK/seeded.o")
        if [ "$m" -eq 0 ]; then
            echo "check_fma SELF-TEST FAILED: $tu without" \
                 "$NO_CONTRACT at -march=x86-64-v3 yet found 0 fused" \
                 "instructions — the detector is blind" >&2
            exit 1
        fi
        n="$n, $m in $tu"
    done
    # The AVX-512 TU with a float fused step, then with a ymm fused
    # step, appended: the rule must refuse each, for its own reason.
    mkdir -p "$WORK/src/kernels"
    seed_refused() {
        # $1 = the code to append, $2 = the reason the rule must give
        { cat "$TU512"; echo '#include <immintrin.h>'; echo "$1"; } \
            >"$WORK/$TU512"
        compile_tu "$WORK/$TU512" "$WORK/seeded.o" -O2
        if check_zmm_pd_only "$WORK/seeded.o" >/dev/null 2>"$WORK/why" ||
           ! grep -q "$2" "$WORK/why"; then
            echo "check_fma SELF-TEST FAILED: $TU512 with a seeded" \
                 "fused step was not refused for \"$2\" — the" \
                 "detector is blind:" >&2
            echo "$1" >&2
            exit 1
        fi
    }
    seed_refused '__attribute__((target("avx512f"))) __m512
        seededFusedPs(__m512 a, __m512 b, __m512 c)
        { return _mm512_fmadd_ps(a, b, c); }' 'ps/ss/sd'
    seed_refused '__attribute__((target("avx2,fma"))) __m256d
        seededFusedYmm(__m256d a, __m256d b, __m256d c)
        { return _mm256_fmadd_pd(a, b, c); }' 'xmm or ymm'
    # The same TU minus the pragma that switches contraction off: it
    # must fuse exactly as often as with it, so every fused step in
    # the file is an explicit one.
    grep -q "$NO_CONTRACT_PRAGMA" "$TU512" || {
        echo "check_fma SELF-TEST FAILED: $TU512 has no line" \
             "matching $NO_CONTRACT_PRAGMA to delete" >&2
        exit 1
    }
    compile_tu "$TU512" "$WORK/gate512.o" -O2
    grep -v "$NO_CONTRACT_PRAGMA" "$TU512" >"$WORK/$TU512"
    compile_tu "$WORK/$TU512" "$WORK/seeded.o" -O2
    with=$(count_fma "$WORK/gate512.o")
    without=$(count_fma "$WORK/seeded.o")
    if [ "$with" -ne "$without" ]; then
        echo "check_fma SELF-TEST FAILED: $TU512 fuses $with steps" \
             "with its contraction pragma and $without without it —" \
             "some mul+add pair is left for the compiler to contract" >&2
        exit 1
    fi
    n="$n; float and ymm seeds refused in $TU512, which fuses $with"
    n="$n steps with or without its pragma"
    echo "check_fma self-test OK: detector fired ($n)"
    exit 0
fi

status=0
if ! grep -q -- "$NO_CONTRACT" CMakeLists.txt; then
    echo "check_fma: CMakeLists.txt no longer passes $NO_CONTRACT to" \
         "the se target — the chain TUs below are gated with a flag" \
         "the build does not use" >&2
    status=1
fi
for tu in $CHAIN_TUS; do
    compile_tu "$tu" "$WORK/chain.o" -O2 -march=x86-64-v3 "$NO_CONTRACT"
    muls=$(count_mul "$WORK/chain.o")
    if [ "$muls" -eq 0 ]; then
        echo "check_fma: $tu produced no VEX multiplies at" \
             "-march=x86-64-v3 — nothing was checked" >&2
        status=1
        continue
    fi
    n=$(count_fma "$WORK/chain.o")
    if [ "$n" -ne 0 ]; then
        echo "check_fma: [$NO_CONTRACT -march=x86-64-v3] emitted $n" \
             "fused multiply-add instruction(s) in $tu:" >&2
        objdump -d "$WORK/chain.o" | grep -E "$FMA_RE" | head -5 >&2
        status=1
    else
        echo "check_fma: $tu clean ($muls VEX multiplies, 0 fused)"
    fi
done
for flags in "-O2 -mavx2" "-O2 -DNDEBUG -mavx2" "-O3 -DNDEBUG -mavx2"; do
    # shellcheck disable=SC2086
    compile "$WORK/gate.o" $flags
    ymm=$(count_ymm "$WORK/gate.o")
    if [ "$ymm" -eq 0 ]; then
        echo "check_fma: [$flags] produced no AVX2 code (0 ymm" \
             "references) — nothing was checked" >&2
        status=1
        continue
    fi
    mulpd=$(count_ymm_mulpd "$WORK/gate.o")
    if [ "$mulpd" -eq 0 ]; then
        echo "check_fma: [$flags] produced no ymm vmulpd — the" \
             "double-chain panel is not in $TU, so it was not" \
             "checked" >&2
        status=1
        continue
    fi
    n=$(count_fma "$WORK/gate.o")
    if [ "$n" -ne 0 ]; then
        echo "check_fma: [$flags] emitted $n fused multiply-add" \
             "instruction(s) in $TU — the mul-round-add-round" \
             "bit-identity contract is broken:" >&2
        objdump -d "$WORK/gate.o" | grep -E "$FMA_RE" | head -5 >&2
        status=1
    else
        echo "check_fma: [$flags] clean ($ymm ymm refs," \
             "$mulpd ymm vmulpd, 0 fused)"
    fi
done
for flags in "-O2" "-O2 -DNDEBUG" "-O3 -DNDEBUG"; do
    # shellcheck disable=SC2086
    compile_tu "$TU512" "$WORK/gate512.o" $flags
    if zmm=$(check_zmm_pd_only "$WORK/gate512.o" 2>"$WORK/why"); then
        echo "check_fma: $TU512 [$flags] clean ($zmm zmm vfmadd...pd," \
             "no other fused instruction)"
    else
        echo "check_fma: [$flags] $TU512: $(cat "$WORK/why")" >&2
        status=1
    fi
done
exit $status
