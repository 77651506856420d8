#include "align/affine.hh"

#include <algorithm>
#include <limits>
#include <vector>

#include "align/affine_internal.hh"
#include "util/logging.hh"

namespace gpx {
namespace align {

using genomics::Cigar;
using genomics::CigarOp;
using genomics::DnaView;
using genomics::ScoringScheme;

namespace {

using namespace affine_detail;

/**
 * The seed DP engine, kept verbatim as the oracle for the branchless
 * engine below: computes H/E1/E2/F1/F2 row by row with a full
 * traceback matrix, one heap-allocated working set per call and a
 * branchy inner loop.
 */
EngineResult
runReference(const DnaView &query, const DnaView &target,
             const ScoringScheme &sc, Mode mode, i32 band)
{
    const std::size_t m = query.size();
    const std::size_t n = target.size();
    EngineResult out;
    if (m == 0 || n == 0)
        return out;

    gpx_assert((m + 1) * (n + 1) <= kMaxDpCells,
               "DP matrix too large; use banding or smaller windows");

    std::vector<u8> tb((m + 1) * (n + 1), 0);
    auto tbAt = [&](std::size_t i, std::size_t j) -> u8 & {
        return tb[i * (n + 1) + j];
    };

    // Decode both operands once (32 bases per word load) so the O(n*m)
    // inner loop compares plain bytes instead of re-extracting packed
    // 2-bit codes.
    std::vector<u8> qc(m), tc(n);
    query.decodeTo(qc.data());
    target.decodeTo(tc.data());

    std::vector<i32> hPrev(n + 1, kNegInf), hCur(n + 1, kNegInf);
    std::vector<i32> f1(n + 1, kNegInf), f2(n + 1, kNegInf);

    const i32 oe1 = sc.gapOpen1 + sc.gapExtend1;
    const i32 oe2 = sc.gapOpen2 + sc.gapExtend2;

    // Row 0.
    hPrev[0] = 0;
    tbAt(0, 0) = kSrcStart;
    for (std::size_t j = 1; j <= n; ++j) {
        if (mode == Mode::Global) {
            hPrev[j] = -sc.gapCost(static_cast<u32>(j));
            // Record which gap piece is cheaper so traceback extends it.
            bool piece1 = sc.gapOpen1 + static_cast<i32>(j) * sc.gapExtend1 <=
                          sc.gapOpen2 + static_cast<i32>(j) * sc.gapExtend2;
            u8 flags = piece1 ? kSrcE1 : kSrcE2;
            if (j > 1)
                flags |= piece1 ? kExtE1 : kExtE2;
            tbAt(0, j) = flags;
        } else {
            hPrev[j] = 0; // free target start
            tbAt(0, j) = kSrcStart;
        }
    }

    i32 best = kNegInf;
    std::size_t bestI = 0, bestJ = 0;

    for (std::size_t i = 1; i <= m; ++i) {
        i32 e1 = kNegInf, e2 = kNegInf;
        std::size_t jLo = 1, jHi = n;
        if (band >= 0) {
            i64 lo = static_cast<i64>(i) - band;
            i64 hi = static_cast<i64>(i) + band;
            jLo = static_cast<std::size_t>(std::max<i64>(1, lo));
            jHi = static_cast<std::size_t>(
                std::min<i64>(static_cast<i64>(n), hi));
        }
        std::fill(hCur.begin(), hCur.end(), kNegInf);

        // Column 0: query-only gap (insertion).
        if (mode == Mode::Local) {
            hCur[0] = 0;
            tbAt(i, 0) = kSrcStart;
        } else {
            hCur[0] = -sc.gapCost(static_cast<u32>(i));
            bool piece1 = sc.gapOpen1 + static_cast<i32>(i) * sc.gapExtend1 <=
                          sc.gapOpen2 + static_cast<i32>(i) * sc.gapExtend2;
            u8 flags = piece1 ? kSrcF1 : kSrcF2;
            if (i > 1)
                flags |= piece1 ? kExtF1 : kExtF2;
            tbAt(i, 0) = flags;
        }
        // Maintain F across the banded region; reset off-band columns.
        // (jLo can pass the row's end when the band excludes the whole
        // row — query much longer than target — so clamp: the seed
        // code wrote one past the buffer there, found by the oracle
        // fuzz test.)
        if (band >= 0 && jLo > 1 && jLo - 1 <= n) {
            f1[jLo - 1] = kNegInf;
            f2[jLo - 1] = kNegInf;
        }

        for (std::size_t j = jLo; j <= jHi; ++j) {
            ++out.cellUpdates;
            u8 flags = 0;

            // E: gap consuming target (deletion from the read's view).
            i32 e1Open = hCur[j - 1] - oe1;
            i32 e1Ext = e1 - sc.gapExtend1;
            if (e1Ext > e1Open) {
                e1 = e1Ext;
                flags |= kExtE1;
            } else {
                e1 = e1Open;
            }
            i32 e2Open = hCur[j - 1] - oe2;
            i32 e2Ext = e2 - sc.gapExtend2;
            if (e2Ext > e2Open) {
                e2 = e2Ext;
                flags |= kExtE2;
            } else {
                e2 = e2Open;
            }

            // F: gap consuming query (insertion).
            i32 f1Open = hPrev[j] - oe1;
            i32 f1Ext = f1[j] - sc.gapExtend1;
            if (f1Ext > f1Open) {
                f1[j] = f1Ext;
                flags |= kExtF1;
            } else {
                f1[j] = f1Open;
            }
            i32 f2Open = hPrev[j] - oe2;
            i32 f2Ext = f2[j] - sc.gapExtend2;
            if (f2Ext > f2Open) {
                f2[j] = f2Ext;
                flags |= kExtF2;
            } else {
                f2[j] = f2Open;
            }

            i32 sub = qc[i - 1] == tc[j - 1] ? sc.match : -sc.mismatch;
            i32 diag = hPrev[j - 1] == kNegInf ? kNegInf : hPrev[j - 1] + sub;

            i32 h = diag;
            u8 src = kSrcDiag;
            if (e1 > h) { h = e1; src = kSrcE1; }
            if (e2 > h) { h = e2; src = kSrcE2; }
            if (f1[j] > h) { h = f1[j]; src = kSrcF1; }
            if (f2[j] > h) { h = f2[j]; src = kSrcF2; }
            if (mode == Mode::Local && h < 0) {
                h = 0;
                src = kSrcStart;
            }
            hCur[j] = h;
            tbAt(i, j) = static_cast<u8>(flags | src);

            if (mode == Mode::Local && h > best) {
                best = h;
                bestI = i;
                bestJ = j;
            }
        }
        std::swap(hPrev, hCur);
    }

    // Pick the end cell.
    if (mode == Mode::Global) {
        best = hPrev[n];
        bestI = m;
        bestJ = n;
    } else if (mode == Mode::Fit) {
        best = kNegInf;
        bestI = m;
        for (std::size_t j = 0; j <= n; ++j) {
            if (hPrev[j] > best) {
                best = hPrev[j];
                bestJ = j;
            }
        }
    }
    if (best <= kNegInf / 2)
        return out; // band excluded every complete path

    tracebackPath(
        out,
        [&](std::size_t ti, std::size_t tj) { return tb[ti * (n + 1) + tj]; },
        mode, best, bestI, bestJ);
    return out;
}

/**
 * The production engine: identical recurrence, boundary handling and
 * traceback matrix as runReference() — the randomized oracle tests in
 * test_affine pin that — but the inner loop is branchless (every
 * min/max and flag is a conditional move; DNA comparisons are
 * unpredictable, so the reference's per-cell branches cost a
 * mispredict each) and the whole working set lives in a caller-owned
 * AlignScratch, so a driver's thousandth alignment allocates nothing.
 */
template <Mode mode>
EngineResult
runBranchless(const DnaView &query, const DnaView &target,
              const ScoringScheme &sc, i32 band, AlignScratch &scr)
{
    const std::size_t m = query.size();
    const std::size_t n = target.size();
    EngineResult out;
    if (m == 0 || n == 0)
        return out;

    gpx_assert((m + 1) * (n + 1) <= kMaxDpCells,
               "DP matrix too large; use banding or smaller windows");

    scr.traceback.assign((m + 1) * (n + 1), 0);
    scr.queryCodes.resize(m);
    scr.targetCodes.resize(n);
    query.decodeTo(scr.queryCodes.data());
    target.decodeTo(scr.targetCodes.data());
    scr.hPrev.assign(n + 1, kNegInf);
    scr.hCur.assign(n + 1, kNegInf);
    scr.f1.assign(n + 1, kNegInf);
    scr.f2.assign(n + 1, kNegInf);

    const i32 oe1 = sc.gapOpen1 + sc.gapExtend1;
    const i32 oe2 = sc.gapOpen2 + sc.gapExtend2;
    const i32 ge1 = sc.gapExtend1;
    const i32 ge2 = sc.gapExtend2;
    const i32 match = sc.match;
    const i32 mismatch = sc.mismatch;

    u8 *tb = scr.traceback.data();

    // Row 0 (identical to the reference).
    scr.hPrev[0] = 0;
    tb[0] = kSrcStart;
    for (std::size_t j = 1; j <= n; ++j) {
        if (mode == Mode::Global) {
            scr.hPrev[j] = -sc.gapCost(static_cast<u32>(j));
            bool piece1 = sc.gapOpen1 + static_cast<i32>(j) * ge1 <=
                          sc.gapOpen2 + static_cast<i32>(j) * ge2;
            u8 flags = piece1 ? kSrcE1 : kSrcE2;
            if (j > 1)
                flags |= piece1 ? kExtE1 : kExtE2;
            tb[j] = flags;
        } else {
            scr.hPrev[j] = 0; // free target start
            tb[j] = kSrcStart;
        }
    }

    i32 best = kNegInf;
    std::size_t bestI = 0, bestJ = 0;

    const u8 *qc = scr.queryCodes.data();
    const u8 *tc = scr.targetCodes.data();

    for (std::size_t i = 1; i <= m; ++i) {
        i32 e1 = kNegInf, e2 = kNegInf;
        std::size_t jLo = 1, jHi = n;
        if (band >= 0) {
            i64 lo = static_cast<i64>(i) - band;
            i64 hi = static_cast<i64>(i) + band;
            jLo = static_cast<std::size_t>(std::max<i64>(1, lo));
            jHi = static_cast<std::size_t>(
                std::min<i64>(static_cast<i64>(n), hi));
        }
        std::fill(scr.hCur.begin(), scr.hCur.end(), kNegInf);

        u8 *tbRow = tb + i * (n + 1);

        // Column 0: query-only gap (insertion).
        if (mode == Mode::Local) {
            scr.hCur[0] = 0;
            tbRow[0] = kSrcStart;
        } else {
            scr.hCur[0] = -sc.gapCost(static_cast<u32>(i));
            bool piece1 = sc.gapOpen1 + static_cast<i32>(i) * ge1 <=
                          sc.gapOpen2 + static_cast<i32>(i) * ge2;
            u8 flags = piece1 ? kSrcF1 : kSrcF2;
            if (i > 1)
                flags |= piece1 ? kExtF1 : kExtF2;
            tbRow[0] = flags;
        }
        // Maintain F across the banded region; reset off-band columns
        // (clamped: see the matching comment in runReference()).
        if (band >= 0 && jLo > 1 && jLo - 1 <= n) {
            scr.f1[jLo - 1] = kNegInf;
            scr.f2[jLo - 1] = kNegInf;
        }

        const i32 *hp = scr.hPrev.data();
        i32 *hc = scr.hCur.data();
        i32 *f1 = scr.f1.data();
        i32 *f2 = scr.f2.data();
        const u8 qi = qc[i - 1];

        for (std::size_t j = jLo; j <= jHi; ++j) {
            // E: gap consuming target (deletion from the read's view).
            const i32 hLeft = hc[j - 1];
            const i32 e1Open = hLeft - oe1;
            const i32 e1Ext = e1 - ge1;
            const bool x1 = e1Ext > e1Open;
            e1 = x1 ? e1Ext : e1Open;
            const i32 e2Open = hLeft - oe2;
            const i32 e2Ext = e2 - ge2;
            const bool x2 = e2Ext > e2Open;
            e2 = x2 ? e2Ext : e2Open;

            // F: gap consuming query (insertion).
            const i32 hUp = hp[j];
            const i32 f1Open = hUp - oe1;
            const i32 f1Ext = f1[j] - ge1;
            const bool x3 = f1Ext > f1Open;
            const i32 f1v = x3 ? f1Ext : f1Open;
            f1[j] = f1v;
            const i32 f2Open = hUp - oe2;
            const i32 f2Ext = f2[j] - ge2;
            const bool x4 = f2Ext > f2Open;
            const i32 f2v = x4 ? f2Ext : f2Open;
            f2[j] = f2v;

            const i32 hDiag = hp[j - 1];
            const i32 sub = qi == tc[j - 1] ? match : -mismatch;
            const i32 diag = hDiag == kNegInf ? kNegInf : hDiag + sub;

            i32 h = diag;
            u8 src = kSrcDiag;
            src = e1 > h ? kSrcE1 : src;
            h = e1 > h ? e1 : h;
            src = e2 > h ? kSrcE2 : src;
            h = e2 > h ? e2 : h;
            src = f1v > h ? kSrcF1 : src;
            h = f1v > h ? f1v : h;
            src = f2v > h ? kSrcF2 : src;
            h = f2v > h ? f2v : h;
            if constexpr (mode == Mode::Local) {
                src = h < 0 ? kSrcStart : src;
                h = h < 0 ? 0 : h;
            }
            hc[j] = h;
            tbRow[j] = static_cast<u8>(
                src | (static_cast<u8>(x1) << 3) |
                (static_cast<u8>(x2) << 4) | (static_cast<u8>(x3) << 5) |
                (static_cast<u8>(x4) << 6));

            if constexpr (mode == Mode::Local) {
                if (h > best) {
                    best = h;
                    bestI = i;
                    bestJ = j;
                }
            }
        }
        if (jHi >= jLo)
            out.cellUpdates += jHi - jLo + 1;
        std::swap(scr.hPrev, scr.hCur);
    }

    // Pick the end cell.
    if (mode == Mode::Global) {
        best = scr.hPrev[n];
        bestI = m;
        bestJ = n;
    } else if (mode == Mode::Fit) {
        best = kNegInf;
        bestI = m;
        for (std::size_t j = 0; j <= n; ++j) {
            if (scr.hPrev[j] > best) {
                best = scr.hPrev[j];
                bestJ = j;
            }
        }
    }
    if (best <= kNegInf / 2)
        return out; // band excluded every complete path

    const u8 *tbc = scr.traceback.data();
    tracebackPath(
        out,
        [&](std::size_t ti, std::size_t tj) { return tbc[ti * (n + 1) + tj]; },
        mode, best, bestI, bestJ);
    return out;
}

} // namespace

AlignResult
fitAlign(const DnaView &query, const DnaView &target,
         const ScoringScheme &scheme, i32 band)
{
    AlignScratch scratch;
    return fitAlign(query, target, scheme, band, scratch);
}

AlignResult
fitAlign(const DnaView &query, const DnaView &target,
         const ScoringScheme &scheme, i32 band, AlignScratch &scratch)
{
    if ((query.size() + 1) * (target.size() + 1) > kMaxDpCells)
        return AlignResult{}; // over the cap: unaligned, not an abort
    EngineResult r =
        runBranchless<Mode::Fit>(query, target, scheme, band, scratch);
    AlignResult out;
    out.valid = r.valid;
    out.score = r.score;
    out.cigar = std::move(r.cigar);
    out.targetStart = r.targetStart;
    out.targetEnd = r.targetEnd;
    out.cellUpdates = r.cellUpdates;
    return out;
}

AlignResult
fitAlignRef(const DnaView &query, const DnaView &target,
            const ScoringScheme &scheme, i32 band)
{
    EngineResult r = runReference(query, target, scheme, Mode::Fit, band);
    AlignResult out;
    out.valid = r.valid;
    out.score = r.score;
    out.cigar = std::move(r.cigar);
    out.targetStart = r.targetStart;
    out.targetEnd = r.targetEnd;
    out.cellUpdates = r.cellUpdates;
    return out;
}

AlignResult
globalAlign(const DnaView &query, const DnaView &target,
            const ScoringScheme &scheme, i32 band)
{
    AlignScratch scratch;
    EngineResult r = runBranchless<Mode::Global>(query, target, scheme,
                                                 band, scratch);
    AlignResult out;
    out.valid = r.valid;
    out.score = r.score;
    out.cigar = std::move(r.cigar);
    out.targetStart = r.targetStart;
    out.targetEnd = r.targetEnd;
    out.cellUpdates = r.cellUpdates;
    return out;
}

LocalResult
localAlign(const DnaView &query, const DnaView &target,
           const ScoringScheme &scheme)
{
    AlignScratch scratch;
    EngineResult r =
        runBranchless<Mode::Local>(query, target, scheme, -1, scratch);
    LocalResult out;
    out.valid = r.valid;
    out.score = r.score;
    out.cigar = std::move(r.cigar);
    out.queryStart = r.queryStart;
    out.targetStart = r.targetStart;
    out.cellUpdates = r.cellUpdates;
    return out;
}

} // namespace align
} // namespace gpx
