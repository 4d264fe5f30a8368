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
# The AVX-512 TU (src/kernels/dispatch_avx512.cc) gets no ISA flag
# from either build: it enables AVX-512F, which includes FMA, in its
# own source, and must switch contraction off there too. The gate
# compiles it the way the benchmark build does (plain -O2, no
# -ffp-contract=off) and fails on any fused mnemonic, or when the
# object holds no zmm vmulpd (the double-chain panel was not checked).
#
#   tools/lint/check_fma.sh              # the gate (CI, ctest -L lint)
#   tools/lint/check_fma.sh --self-test  # seed violations (-mfma
#                                        # -ffp-contract=fast for the
#                                        # AVX2 TU, no -ffp-contract=off
#                                        # for the others, the AVX-512
#                                        # TU with its contraction
#                                        # pragma deleted) and assert
#                                        # the detector fires on each
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

# The same two counts restricted to zmm operands, for the AVX-512 TU.
count_zmm_fma() {
    objdump -d "$1" | grep -E "$FMA_RE" | grep -c '%zmm' || true
}
count_zmm_mulpd() {
    objdump -d "$1" | grep -E 'vmulpd' | grep -c '%zmm' || true
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
    # The AVX-512 TU as the benchmark compiles it, minus the pragma
    # that keeps GCC from contracting its mul+add pairs.
    grep -q "$NO_CONTRACT_PRAGMA" "$TU512" || {
        echo "check_fma SELF-TEST FAILED: $TU512 has no line" \
             "matching $NO_CONTRACT_PRAGMA to delete" >&2
        exit 1
    }
    mkdir -p "$WORK/src/kernels"
    grep -v "$NO_CONTRACT_PRAGMA" "$TU512" >"$WORK/$TU512"
    compile_tu "$WORK/$TU512" "$WORK/seeded.o" -O2
    m=$(count_zmm_fma "$WORK/seeded.o")
    if [ "$m" -eq 0 ]; then
        echo "check_fma SELF-TEST FAILED: $TU512 without its" \
             "contraction pragma yet found 0 fused zmm instructions" \
             "— the detector is blind" >&2
        exit 1
    fi
    n="$n, $m zmm in $TU512"
    echo "check_fma self-test OK: detector fired ($n fused" \
         "instructions in the seeded builds)"
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
    mulpd=$(count_zmm_mulpd "$WORK/gate512.o")
    if [ "$mulpd" -eq 0 ]; then
        echo "check_fma: [$flags] produced no zmm vmulpd in $TU512 —" \
             "the AVX-512 double chain compiled away or moved, so" \
             "nothing was checked" >&2
        status=1
        continue
    fi
    n=$(count_fma "$WORK/gate512.o")
    if [ "$n" -ne 0 ]; then
        echo "check_fma: [$flags] emitted $n fused multiply-add" \
             "instruction(s) in $TU512 — its contraction pragma no" \
             "longer holds:" >&2
        objdump -d "$WORK/gate512.o" | grep -E "$FMA_RE" | head -5 >&2
        status=1
    else
        echo "check_fma: $TU512 [$flags] clean ($mulpd zmm vmulpd," \
             "0 fused)"
    fi
done
exit $status
