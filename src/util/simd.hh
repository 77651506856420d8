/**
 * @file
 * Runtime SIMD backend selection for the batch kernels.
 *
 * The bit-parallel SHD mask kernels (align/shd_simd.cc) and the
 * interleaved banded-affine DP engine (align/affine_simd.cc) are
 * compiled three times — portable scalar, AVX2 and AVX-512 — behind
 * function-multiversioning target attributes, so the library builds
 * with no global -m flags and picks the widest ISA the host supports
 * at runtime (CPUID, resolved once). Every backend computes the same
 * per-lane arithmetic as the scalar oracles, so mapping output is
 * bit-identical no matter which one runs; only throughput differs.
 * The golden-corpus SAM digest is pinned under all three by
 * tests/test_simd.cc.
 *
 * `GPX_SIMD=scalar|avx2|avx512` overrides the choice (testing and the
 * CI portable-path job); requesting an ISA the host lacks clamps down
 * to the widest supported one with a warning.
 */

#ifndef GPX_UTIL_SIMD_HH
#define GPX_UTIL_SIMD_HH

#include <string>

#include "util/types.hh"

/**
 * True where the per-function target("avx2") / target("avx512...")
 * multiversioning the batch kernels use is available. Elsewhere the
 * kernels compile as plain portable code and detection reports scalar
 * only, so dispatch never reaches them.
 */
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define GPX_SIMD_MULTIVERSION 1
#else
#define GPX_SIMD_MULTIVERSION 0
#endif

namespace gpx {
namespace util {

/** The batch-kernel instruction sets, widest last. */
enum class SimdBackend : u8
{
    Scalar = 0,
    Avx2,
    Avx512,
};

/** Stable lowercase name ("scalar", "avx2", "avx512"). */
const char *simdBackendName(SimdBackend backend);

/**
 * The backend every batch kernel dispatches on. Resolved once from
 * CPUID + the GPX_SIMD override on first use; constant afterwards
 * unless forceSimdBackend() intervenes.
 */
SimdBackend activeSimdBackend();

/** Widest backend the host CPU can execute (ignores GPX_SIMD). */
SimdBackend maxSimdBackend();

/**
 * One-line provenance of the active choice, e.g. "avx2 (cpuid)",
 * "scalar (GPX_SIMD override)", "avx2 (GPX_SIMD=avx512 unsupported,
 * clamped)". Surfaced in --stats-json, serve STATS and the bench
 * JSON context blocks so every recorded number names its code path.
 */
const std::string &simdBackendReason();

/**
 * Force the backend from code (tests and benches sweep lane widths
 * with this). Requests above maxSimdBackend() clamp; returns the
 * backend actually installed.
 */
SimdBackend forceSimdBackend(SimdBackend backend);

/**
 * Widest DP lane group (i16 lanes per register) under @p b: 1 / 16 /
 * 32. Under AVX-512 a group of at most 16 tasks runs the 16-lane
 * kernel.
 */
inline u32
simdDpLanes(SimdBackend b)
{
    switch (b) {
    case SimdBackend::Avx512: return 32;
    case SimdBackend::Avx2: return 16;
    case SimdBackend::Scalar: break;
    }
    return 1;
}

/** SHD mask words (u64 lanes) processed per vector op (1 / 4 / 8). */
inline u32
simdMaskLanes(SimdBackend b)
{
    switch (b) {
    case SimdBackend::Avx512: return 8;
    case SimdBackend::Avx2: return 4;
    case SimdBackend::Scalar: break;
    }
    return 1;
}

} // namespace util
} // namespace gpx

#endif // GPX_UTIL_SIMD_HH
