/**
 * @file
 * Inter-sequence interleaved banded-affine fitting alignment in exact
 * 16-bit lanes.
 *
 * fitAlignBatch() advances up to L independent alignments per band
 * sweep: lane l of every lane-major row (H, F1, F2, operand codes)
 * belongs to task l of the current lane group, so one pass over the
 * band columns updates L DP cells with the recurrence of the scalar
 * branchless engine (affine.cc). Lanes never exchange data — per-lane
 * activity masks cover ragged target lengths, differing bands and
 * early-drained lanes — so every per-task result is bit-identical to
 * fitAlign(); the randomized oracle tests in tests/test_simd.cc pin
 * that lane for lane.
 *
 * Vector layer: the recurrence (fitFill) is written once over a small
 * ISA layer of intrinsic wrappers, one struct per register width, and
 * compiled twice behind function-level target attributes: 32 lanes
 * per zmm register under AVX-512BW (Zmm, k-register lane masks) and 16
 * lanes per ymm register under AVX2 (Ymm, vector lane masks).
 * util/simd.hh picks the backend at run time; there are no global -m
 * flags, and nothing is left to the auto-vectorizer.
 *
 * Exactness of i16: every value the recurrence computes in an active
 * lane is either real — derived from the 0 of row 0 or the
 * -gapCost(i) of column 0 — or derived from the minus-infinity
 * sentinel. A real value at cell (i, j) lies within (i + j) * C of
 * zero, C being the largest per-step cost (match, mismatch, either gap
 * open+extend). Sentinel-derived values occur only at a row's first
 * band column (E) and a band's newly entering column (F) and lie
 * within 2C below the sentinel. With the i16 sentinel at
 * INT16_MIN + 2C and (m + nMax + 2) * C < 2^15, no value wraps and
 * every real value is above every sentinel-derived one, exactly as in
 * i32 — each sentinel-derived value is the i32 one shifted by the same
 * constant — so every comparison, hence every score, end cell and
 * traceback byte, matches the scalar engine. A group outside that
 * bound, or whose lane-major traceback (lanes * (m + 1) * (nMax + 1)
 * bytes) would pass the scalar engine's 2^27-byte matrix cap, runs the
 * scalar fitAlign instead. Under the sr preset (C = 33) the bound is
 * m + nMax <= 990: full DP aligns a read in a window of read + 96, so
 * reads up to 447 bp stay in i16; DP at candidates uses read + 48, so
 * reads up to 471 bp do.
 *
 * Layout notes:
 *  - Rows are lane-major: row[j*L + l]. The traceback matrix is too
 *    ([(i*(nMax+1)+j)*L + l]), so the L flag bytes of cell (i, j) form
 *    one contiguous store per sweep step; the traceback walk reads one
 *    lane back out through a strided accessor.
 *  - Lane groups are consecutive tasks with equal query length m (the
 *    rows of a group share the query index i): up to 32 per zmm sweep
 *    under AVX-512, 16 per ymm sweep under AVX2. A partial group runs
 *    the full-width kernel: sending AVX-512 groups of at most 16 tasks
 *    to the ymm kernel instead measured slower end to end
 *    (EXPERIMENTS.md, "One DP sweep per fallback batch"). A group of
 *    one runs the scalar engine: one active lane sweeps slower than
 *    fitAlign() and writes an L-times larger traceback (7.4 MB for a
 *    395 bp long-read tail chunk under AVX-512, against 236 KB).
 */

#include <algorithm>
#include <cstdint>

#include "align/affine.hh"
#include "align/affine_internal.hh"
#include "util/simd.hh"

#if GPX_SIMD_MULTIVERSION
#include <immintrin.h>
#endif

namespace gpx {
namespace align {

using genomics::DnaView;
using genomics::ScoringScheme;

namespace {

using namespace affine_detail;

#if GPX_SIMD_MULTIVERSION

/*
 * The ISA layer: one struct per register width with the dozen i16
 * operations the recurrence needs, each a thin wrapper of one or two
 * intrinsics compiled under its width's target. M is the lane mask of
 * a comparison — a vector of all-ones lanes under AVX2, a k-register
 * under AVX-512. sel(m, a, b) is m ? a : b per lane; orIf(acc, m, b)
 * is acc | (m ? b : 0); storeFlags narrows (act ? flags : 0) to one
 * traceback byte per lane. The wrappers are not always_inline: GCC
 * inlines them into the target-attributed kernels below, where the
 * ISA matches, but refuses target-specific always_inline callees in
 * the generic fitFill template before that template is inlined.
 */
#define GPX_YMM __attribute__((target("avx2")))
#define GPX_ZMM __attribute__((target("avx512f,avx512bw,avx512dq,avx512vl")))

struct Ymm ///< AVX2: 16 i16 lanes per ymm register
{
    static constexpr u32 kLanes = 16;
    using V = __m256i;
    using M = __m256i;

    GPX_YMM static V set1(i16 x) { return _mm256_set1_epi16(x); }
    GPX_YMM static V
    load(const i16 *p)
    {
        return _mm256_load_si256(reinterpret_cast<const __m256i *>(p));
    }
    GPX_YMM static void
    store(i16 *p, V v)
    {
        _mm256_store_si256(reinterpret_cast<__m256i *>(p), v);
    }
    GPX_YMM static V add(V a, V b) { return _mm256_add_epi16(a, b); }
    GPX_YMM static V sub(V a, V b) { return _mm256_sub_epi16(a, b); }
    GPX_YMM static V max(V a, V b) { return _mm256_max_epi16(a, b); }
    GPX_YMM static M gt(V a, V b) { return _mm256_cmpgt_epi16(a, b); }
    GPX_YMM static M eq(V a, V b) { return _mm256_cmpeq_epi16(a, b); }
    GPX_YMM static M both(M a, M b) { return _mm256_and_si256(a, b); }
    GPX_YMM static V sel(M m, V a, V b) { return _mm256_blendv_epi8(b, a, m); }
    GPX_YMM static V
    orIf(V acc, M m, V bits)
    {
        return _mm256_or_si256(acc, _mm256_and_si256(m, bits));
    }
    GPX_YMM static void
    storeFlags(u8 *p, M act, V flags)
    {
        const __m256i f = _mm256_and_si256(act, flags);
        _mm_store_si128(reinterpret_cast<__m128i *>(p),
                        _mm_packus_epi16(_mm256_castsi256_si128(f),
                                         _mm256_extracti128_si256(f, 1)));
    }
};

struct Zmm ///< AVX-512BW: 32 i16 lanes per zmm register
{
    static constexpr u32 kLanes = 32;
    using V = __m512i;
    using M = __mmask32;

    GPX_ZMM static V set1(i16 x) { return _mm512_set1_epi16(x); }
    GPX_ZMM static V load(const i16 *p) { return _mm512_load_si512(p); }
    GPX_ZMM static void store(i16 *p, V v) { _mm512_store_si512(p, v); }
    GPX_ZMM static V add(V a, V b) { return _mm512_add_epi16(a, b); }
    GPX_ZMM static V sub(V a, V b) { return _mm512_sub_epi16(a, b); }
    GPX_ZMM static V max(V a, V b) { return _mm512_max_epi16(a, b); }
    GPX_ZMM static M gt(V a, V b) { return _mm512_cmpgt_epi16_mask(a, b); }
    GPX_ZMM static M eq(V a, V b) { return _mm512_cmpeq_epi16_mask(a, b); }
    GPX_ZMM static M both(M a, M b) { return _kand_mask32(a, b); }
    GPX_ZMM static V
    sel(M m, V a, V b)
    {
        return _mm512_mask_blend_epi16(m, b, a);
    }
    GPX_ZMM static V
    orIf(V acc, M m, V bits)
    {
        return _mm512_or_si512(acc, _mm512_maskz_mov_epi16(m, bits));
    }
    GPX_ZMM static void
    storeFlags(u8 *p, M act, V flags)
    {
        _mm256_store_si256(reinterpret_cast<__m256i *>(p),
                           _mm512_maskz_cvtepi16_epi8(act, flags));
    }
};

/** Per-group fill inputs (everything the hot loop touches). */
struct FillArgs
{
    std::size_t m = 0;    ///< uniform query length of the group
    std::size_t nMax = 0; ///< widest target in the group
    const std::size_t *n = nullptr; ///< per-lane target length (0 = unused)
    const i64 *band = nullptr;      ///< per-lane band (<0 = unbanded)
    const ScoringScheme *sc = nullptr; ///< checked to fit i16
    i16 neg = 0; ///< the i16 minus-infinity sentinel
    const i16 *queryCodes = nullptr;  ///< lane-major [(i-1)*L + l]
    const i16 *targetCodes = nullptr; ///< lane-major [(j-1)*L + l]
    i16 *hPrev = nullptr;             ///< lane-major rows, (nMax+1)*L
    i16 *hCur = nullptr;
    i16 *f1 = nullptr;
    i16 *f2 = nullptr;
    u8 *tb = nullptr; ///< lane-major matrix, (m+1)*(nMax+1)*L
};

/*
 * fitFill passes vectors by value to the ISA wrappers; it is only ever
 * inlined into the target-attributed kernels below, so the generic-ABI
 * form GCC warns about is never emitted.
 */
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"
#endif

/**
 * The interleaved Fit-mode fill loop over one register width W.
 * Marked always_inline so each target-attributed kernel below compiles
 * its own copy under that kernel's ISA. Every buffer is 64-byte
 * aligned. Returns the row buffer holding row m (the swap chain's
 * final hPrev).
 */
template <typename W>
[[gnu::always_inline]] inline const i16 *
fitFill(const FillArgs &a)
{
    using V = typename W::V;
    using M = typename W::M;
    constexpr u32 L = W::kLanes;
    const ScoringScheme &sc = *a.sc;
    const std::size_t stride = a.nMax + 1; // columns per row

    const V neg = W::set1(a.neg);
    const V oe1 = W::set1(static_cast<i16>(sc.gapOpen1 + sc.gapExtend1));
    const V oe2 = W::set1(static_cast<i16>(sc.gapOpen2 + sc.gapExtend2));
    const V ge1 = W::set1(static_cast<i16>(sc.gapExtend1));
    const V ge2 = W::set1(static_cast<i16>(sc.gapExtend2));
    const V match = W::set1(static_cast<i16>(sc.match));
    const V mismatch = W::set1(static_cast<i16>(-sc.mismatch));
    const V zero = W::set1(0);
    const V one = W::set1(1);
    const V srcE1 = W::set1(kSrcE1), srcE2 = W::set1(kSrcE2);
    const V srcF1 = W::set1(kSrcF1), srcF2 = W::set1(kSrcF2);
    const V extE1 = W::set1(kExtE1), extE2 = W::set1(kExtE2);
    const V extF1 = W::set1(kExtF1), extF2 = W::set1(kExtF2);

    // Locals, not a.*: the u8 traceback stores may alias anything, so
    // the compiler would reload every a.* pointer per column.
    i16 *hp = a.hPrev;
    i16 *hc = a.hCur;
    i16 *const f1 = a.f1;
    i16 *const f2 = a.f2;
    u8 *const tb = a.tb;
    const i16 *const queryCodes = a.queryCodes;
    const i16 *const targetCodes = a.targetCodes;
    const std::size_t *const n = a.n;
    const i64 *const band = a.band;

    // Row 0 (Fit): free target start up to each lane's n.
    for (std::size_t j = 0; j < stride; ++j) {
        W::store(hp + j * L, neg);
        W::store(f1 + j * L, neg);
        W::store(f2 + j * L, neg);
        W::storeFlags(tb + j * L, M{}, zero);
    }
    for (u32 l = 0; l < L; ++l) {
        for (std::size_t j = 0; j <= n[l]; ++j) {
            hp[j * L + l] = 0;
            tb[j * L + l] = kSrcStart;
        }
    }

    // Per-lane band of the current row as lo-1 / hi+1, so activity is
    // two strict compares: lo-1 < j < hi+1.
    alignas(64) i16 loM1[L];
    alignas(64) i16 hiP1[L];

    for (std::size_t i = 1; i <= a.m; ++i) {
        std::size_t jMin = stride, jMax = 0;
        for (u32 l = 0; l < L; ++l) {
            i64 lo = 1, hi = static_cast<i64>(n[l]);
            if (band[l] >= 0) {
                lo = std::max<i64>(1, static_cast<i64>(i) - band[l]);
                hi = std::min<i64>(hi, static_cast<i64>(i) + band[l]);
            }
            loM1[l] = static_cast<i16>(lo - 1);
            hiP1[l] = static_cast<i16>(std::max<i64>(hi, lo - 1) + 1);
            if (n[l] == 0)
                continue; // unused lane: hi already < lo
            if (hi >= lo) {
                jMin = std::min(jMin, static_cast<std::size_t>(lo));
                jMax = std::max(jMax, static_cast<std::size_t>(hi));
            }
            // Maintain F across the banded region; reset off-band
            // columns (clamped, matching the scalar engines).
            if (band[l] >= 0 && lo > 1 &&
                lo - 1 <= static_cast<i64>(n[l])) {
                f1[static_cast<std::size_t>(lo - 1) * L + l] = a.neg;
                f2[static_cast<std::size_t>(lo - 1) * L + l] = a.neg;
            }
        }
        if (jMin > jMax)
            jMax = jMin - 1; // no lane has a cell in this row

        u8 *tbRow = tb + i * stride * L;

        // Column 0: query-only gap (uniform across lanes — same i).
        {
            const bool piece1 =
                sc.gapOpen1 + static_cast<i32>(i) * sc.gapExtend1 <=
                sc.gapOpen2 + static_cast<i32>(i) * sc.gapExtend2;
            i16 flags = piece1 ? kSrcF1 : kSrcF2;
            if (i > 1)
                flags |= piece1 ? kExtF1 : kExtF2;
            W::store(hc, W::set1(static_cast<i16>(
                             -sc.gapCost(static_cast<u32>(i)))));
            W::storeFlags(tbRow, W::eq(zero, zero), W::set1(flags));
        }
        // Columns outside every lane's band: H = sentinel, no flags.
        for (std::size_t j = 1; j < jMin; ++j) {
            W::store(hc + j * L, neg);
            W::storeFlags(tbRow + j * L, M{}, zero);
        }
        for (std::size_t j = jMax + 1; j < stride; ++j) {
            W::store(hc + j * L, neg);
            W::storeFlags(tbRow + j * L, M{}, zero);
        }

        const V bandLo = W::load(loM1);
        const V bandHi = W::load(hiP1);
        const V q = W::load(queryCodes + (i - 1) * L);
        V e1 = neg, e2 = neg;
        V hLeft = W::load(hc + (jMin - 1) * L);
        V hDiag = W::load(hp + (jMin - 1) * L);
        V jj = W::set1(static_cast<i16>(jMin));

        for (std::size_t j = jMin; j <= jMax; ++j) {
            const M act = W::both(W::gt(jj, bandLo), W::gt(bandHi, jj));
            jj = W::add(jj, one);

            // E: gap consuming target (deletion from the read).
            const V e1Open = W::sub(hLeft, oe1);
            const V e1Ext = W::sub(e1, ge1);
            const M x1 = W::gt(e1Ext, e1Open);
            const V e1v = W::max(e1Ext, e1Open);
            const V e2Open = W::sub(hLeft, oe2);
            const V e2Ext = W::sub(e2, ge2);
            const M x2 = W::gt(e2Ext, e2Open);
            const V e2v = W::max(e2Ext, e2Open);

            // F: gap consuming query (insertion).
            i16 *f1j = f1 + j * L;
            i16 *f2j = f2 + j * L;
            const V hUp = W::load(hp + j * L);
            const V f1Old = W::load(f1j);
            const V f2Old = W::load(f2j);
            const V f1Open = W::sub(hUp, oe1);
            const V f1Ext = W::sub(f1Old, ge1);
            const M x3 = W::gt(f1Ext, f1Open);
            const V f1v = W::max(f1Ext, f1Open);
            const V f2Open = W::sub(hUp, oe2);
            const V f2Ext = W::sub(f2Old, ge2);
            const M x4 = W::gt(f2Ext, f2Open);
            const V f2v = W::max(f2Ext, f2Open);

            const V t = W::load(targetCodes + (j - 1) * L);
            const V sub = W::sel(W::eq(q, t), match, mismatch);
            const V diag =
                W::sel(W::eq(hDiag, neg), neg, W::add(hDiag, sub));

            // H: the first strict maximum wins, as in the scalar engine.
            V h = diag;
            V src = zero;
            src = W::sel(W::gt(e1v, h), srcE1, src);
            h = W::max(h, e1v);
            src = W::sel(W::gt(e2v, h), srcE2, src);
            h = W::max(h, e2v);
            src = W::sel(W::gt(f1v, h), srcF1, src);
            h = W::max(h, f1v);
            src = W::sel(W::gt(f2v, h), srcF2, src);
            h = W::max(h, f2v);

            V flags = W::orIf(src, x1, extE1);
            flags = W::orIf(flags, x2, extE2);
            flags = W::orIf(flags, x3, extF1);
            flags = W::orIf(flags, x4, extF2);

            e1 = W::sel(act, e1v, e1);
            e2 = W::sel(act, e2v, e2);
            W::store(f1j, W::sel(act, f1v, f1Old));
            W::store(f2j, W::sel(act, f2v, f2Old));
            hLeft = W::sel(act, h, neg);
            W::store(hc + j * L, hLeft);
            W::storeFlags(tbRow + j * L, act, flags);
            hDiag = hUp;
        }
        std::swap(hp, hc);
    }
    return hp;
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

GPX_YMM const i16 *
fitFillYmm(const FillArgs &a)
{
    return fitFill<Ymm>(a);
}

GPX_ZMM const i16 *
fitFillZmm(const FillArgs &a)
{
    return fitFill<Zmm>(a);
}

/** cellUpdates of one task, exactly as the scalar engines count them. */
u64
countCells(std::size_t m, std::size_t n, i64 band)
{
    u64 cells = 0;
    for (std::size_t i = 1; i <= m; ++i) {
        i64 lo = 1, hi = static_cast<i64>(n);
        if (band >= 0) {
            lo = std::max<i64>(1, static_cast<i64>(i) - band);
            hi = std::min<i64>(hi, static_cast<i64>(i) + band);
        }
        if (hi >= lo)
            cells += static_cast<u64>(hi - lo + 1);
    }
    return cells;
}

/**
 * Largest per-step cost C of @p sc, or 0 when a negative parameter
 * puts the scheme outside the i16 range argument of the file comment.
 */
i64
stepCostBound(const ScoringScheme &sc)
{
    if (std::min({ sc.match, sc.mismatch, sc.gapOpen1, sc.gapExtend1,
                   sc.gapOpen2, sc.gapExtend2 }) < 0)
        return 0;
    return std::max<i64>({ 1, sc.match, sc.mismatch,
                           i64{ sc.gapOpen1 } + sc.gapExtend1,
                           i64{ sc.gapOpen2 } + sc.gapExtend2 });
}

/** Resize @p buf to hold @p count elements from a 64-byte boundary. */
template <typename T>
T *
aligned64(std::vector<T> &buf, std::size_t count)
{
    constexpr std::size_t slack = 64 / sizeof(T);
    if (buf.size() < count + slack)
        buf.resize(count + slack);
    const auto addr = reinterpret_cast<std::uintptr_t>(buf.data());
    return buf.data() + ((64 - addr % 64) % 64) / sizeof(T);
}

/**
 * Run one lane group of @p count (<= L) tasks with uniform query
 * length m and widest target nMax through the L-lane engine and
 * extract per-lane results. The caller has checked the i16 bound.
 */
template <typename W>
void
fitGroup(const FitTask *tasks, u32 count, std::size_t nMax, i64 stepCost,
         const ScoringScheme &sc, BatchAlignScratch &scr, AlignResult *out)
{
    constexpr u32 L = W::kLanes;
    std::size_t n[L];
    i64 band[L];
    for (u32 l = 0; l < L; ++l) {
        n[l] = l < count ? tasks[l].target.size() : 0;
        band[l] = l < count ? tasks[l].band : -1;
    }

    FillArgs a;
    a.m = tasks[0].query.size();
    a.nMax = nMax;
    a.n = n;
    a.band = band;
    a.sc = &sc;
    a.neg = static_cast<i16>(INT16_MIN + 2 * stepCost);

    const std::size_t rowElems = (nMax + 1) * L;
    i16 *queryCodes = aligned64(scr.queryCodes, a.m * L);
    i16 *targetCodes = aligned64(scr.targetCodes, nMax * L);
    a.hPrev = aligned64(scr.hPrev, rowElems);
    a.hCur = aligned64(scr.hCur, rowElems);
    a.f1 = aligned64(scr.f1, rowElems);
    a.f2 = aligned64(scr.f2, rowElems);
    a.tb = aligned64(scr.traceback, (a.m + 1) * rowElems);
    a.queryCodes = queryCodes;
    a.targetCodes = targetCodes;

    // Gather decoded operands into the lane-major stores. Lanes past a
    // task's own length keep stale codes; they are never active there.
    scr.decodeTmp.resize(std::max(a.m, nMax));
    for (u32 l = 0; l < count; ++l) {
        tasks[l].query.decodeTo(scr.decodeTmp.data());
        for (std::size_t i = 0; i < a.m; ++i)
            queryCodes[i * L + l] = scr.decodeTmp[i];
        tasks[l].target.decodeTo(scr.decodeTmp.data());
        for (std::size_t j = 0; j < n[l]; ++j)
            targetCodes[j * L + l] = scr.decodeTmp[j];
    }

    const i16 *rowM;
    if constexpr (L == Zmm::kLanes)
        rowM = fitFillZmm(a);
    else
        rowM = fitFillYmm(a);

    // Per-lane end-cell scan + traceback (identical to the scalar Fit
    // epilogue; the traceback walker reads one lane of the lane-major
    // matrix through a strided accessor).
    const u8 *tb = a.tb;
    for (u32 l = 0; l < count; ++l) {
        AlignResult &res = out[l];
        res = AlignResult{};
        res.cellUpdates = countCells(a.m, n[l], band[l]);

        i16 best = a.neg;
        std::size_t bestJ = 0;
        for (std::size_t j = 0; j <= n[l]; ++j) {
            if (rowM[j * L + l] > best) {
                best = rowM[j * L + l];
                bestJ = j;
            }
        }
        if (best == a.neg)
            continue; // band excluded every complete path

        EngineResult er;
        tracebackPath(
            er,
            [&](std::size_t ti, std::size_t tj) {
                return tb[(ti * (nMax + 1) + tj) * L + l];
            },
            Mode::Fit, best, a.m, bestJ);
        res.valid = er.valid;
        res.score = er.score;
        res.cigar = std::move(er.cigar);
        res.targetStart = er.targetStart;
        res.targetEnd = er.targetEnd;
    }
}

#endif // GPX_SIMD_MULTIVERSION

} // namespace

void
fitAlignBatch(const FitTask *tasks, std::size_t count,
              const ScoringScheme &scheme, BatchAlignScratch &scratch,
              AlignResult *out)
{
    const util::SimdBackend backend = util::activeSimdBackend();
    const u32 lanes = util::simdDpLanes(backend);
#if GPX_SIMD_MULTIVERSION
    const i64 stepCost = stepCostBound(scheme);
#endif
    std::size_t i = 0;
    while (i < count) {
        const std::size_t m = tasks[i].query.size();
        if (m == 0 || tasks[i].target.size() == 0) {
            // Degenerate task: the scalar engine reports invalid with
            // zero cells; keep that contract without burning a lane.
            out[i] = AlignResult{};
            ++i;
            continue;
        }
        std::size_t g = i + 1;
        std::size_t nMax = tasks[i].target.size();
        while (g < count && g - i < lanes &&
               tasks[g].query.size() == m && tasks[g].target.size() != 0) {
            nMax = std::max(nMax, tasks[g].target.size());
            ++g;
        }
#if GPX_SIMD_MULTIVERSION
        const u32 cnt = static_cast<u32>(g - i);
        // The lane-major traceback holds one matrix per lane; keep it
        // within the scalar engine's one-matrix cap (a light scheme,
        // C = 1, fits i16 up to m + nMax ~ 32k).
        const bool fitsI16 =
            stepCost > 0 &&
            static_cast<i64>(m + nMax + 2) * stepCost < (i64{ 1 } << 15) &&
            (m + 1) * (nMax + 1) * lanes <= kMaxDpCells;
        if (backend != util::SimdBackend::Scalar && fitsI16 && cnt > 1) {
            if (backend == util::SimdBackend::Avx512)
                fitGroup<Zmm>(tasks + i, cnt, nMax, stepCost, scheme,
                              scratch, out + i);
            else
                fitGroup<Ymm>(tasks + i, cnt, nMax, stepCost, scheme,
                              scratch, out + i);
            i = g;
            continue;
        }
#endif
        // Scalar backend, a lone task, or a group outside the i16
        // bound.
        for (; i < g; ++i)
            out[i] = fitAlign(tasks[i].query, tasks[i].target, scheme,
                              tasks[i].band, scratch.scalar);
    }
}

} // namespace align
} // namespace gpx
