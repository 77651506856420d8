/**
 * @file
 * Property tests pinning the SIMD-across-batch kernels lane-for-lane
 * against their scalar oracles, across every backend the host can run
 * (scalar / AVX2 / AVX-512), ragged final lane groups, window
 * straddles and mixed bands. The batch kernels promise bit-identical
 * output — not "close", identical — so every comparison here is exact
 * equality on scores, positions, cell counts, mask words and CIGARs.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "align/affine.hh"
#include "align/shd.hh"
#include "filters/mask_ops.hh"
#include "filters/shd_filter.hh"
#include "genomics/reference.hh"
#include "genomics/scoring.hh"
#include "genpair/light_align.hh"
#include "util/rng.hh"
#include "util/simd.hh"

namespace {

using namespace gpx;
using genomics::DnaSequence;
using genomics::Reference;
using util::SimdBackend;

/**
 * Run @p fn under every backend the host supports, restoring the
 * session's backend afterwards. On a host without AVX2 the wider
 * requests clamp to scalar; skip those to avoid re-running the scalar
 * comparison under a misleading name.
 */
template <typename Fn>
void
forEachBackend(Fn &&fn)
{
    const SimdBackend prev = util::activeSimdBackend();
    for (SimdBackend want :
         { SimdBackend::Scalar, SimdBackend::Avx2, SimdBackend::Avx512 }) {
        const SimdBackend got = util::forceSimdBackend(want);
        if (got != want)
            continue; // host can't run it; clamped
        SCOPED_TRACE(std::string("backend=") + util::simdBackendName(got));
        fn();
    }
    util::forceSimdBackend(prev);
}

DnaSequence
randomSeq(util::Pcg32 &rng, u64 len)
{
    std::string s;
    for (u64 i = 0; i < len; ++i)
        s.push_back(genomics::baseToChar(rng.below(4)));
    return DnaSequence(s);
}

Reference
randomRef(u64 len, u64 seed)
{
    util::Pcg32 rng(seed);
    std::string s;
    for (u64 i = 0; i < len; ++i)
        s.push_back(genomics::baseToChar(rng.below(4)));
    Reference ref;
    ref.addChromosome("chr1", DnaSequence(s));
    return ref;
}

TEST(Simd, BackendNamesAndClamping)
{
    EXPECT_STREQ(util::simdBackendName(SimdBackend::Scalar), "scalar");
    EXPECT_STREQ(util::simdBackendName(SimdBackend::Avx2), "avx2");
    EXPECT_STREQ(util::simdBackendName(SimdBackend::Avx512), "avx512");

    const SimdBackend prev = util::activeSimdBackend();
    // A forced request never exceeds what the host supports, and the
    // install is reflected by activeSimdBackend.
    for (SimdBackend want :
         { SimdBackend::Scalar, SimdBackend::Avx2, SimdBackend::Avx512 }) {
        const SimdBackend got = util::forceSimdBackend(want);
        EXPECT_LE(static_cast<int>(got),
                  static_cast<int>(util::maxSimdBackend()));
        EXPECT_EQ(got, util::activeSimdBackend());
    }
    EXPECT_FALSE(util::simdBackendReason().empty());
    util::forceSimdBackend(prev);

    EXPECT_EQ(util::simdDpLanes(SimdBackend::Scalar), 1u);
    EXPECT_EQ(util::simdDpLanes(SimdBackend::Avx2), 16u);
    EXPECT_EQ(util::simdDpLanes(SimdBackend::Avx512), 32u);
    EXPECT_EQ(util::simdMaskLanes(SimdBackend::Scalar), 1u);
    EXPECT_EQ(util::simdMaskLanes(SimdBackend::Avx2), 4u);
    EXPECT_EQ(util::simdMaskLanes(SimdBackend::Avx512), 8u);
}

TEST(Simd, ZeroRunCountMatchesBitwalkOracle)
{
    util::Pcg32 rng(2024);
    for (int iter = 0; iter < 400; ++iter) {
        align::HammingMask mask;
        mask.bits = 1 + rng.below(300);
        mask.words.assign((mask.bits + 63) / 64, 0);
        // Mix densities so runs of both parities straddle word edges.
        const u32 density = 1 + rng.below(7);
        for (u32 i = 0; i < mask.bits; ++i)
            if (rng.below(8) < density)
                mask.words[i >> 6] |= u64{ 1 } << (i & 63u);
        // Leave junk above mask.bits in the last word on some iters:
        // zeroRunCount must ignore it.
        if ((mask.bits & 63u) != 0 && rng.below(2))
            mask.words.back() |= ~u64{ 0 } << (mask.bits & 63u);
        ASSERT_EQ(filters::zeroRunCount(mask), filters::zeroRunCountRef(mask))
            << "bits=" << mask.bits << " iter=" << iter;
    }

    // Edge shapes: all-zero, all-one, exact word multiples.
    for (u32 bits : { 1u, 63u, 64u, 65u, 128u, 192u }) {
        align::HammingMask zeros, ones;
        zeros.bits = ones.bits = bits;
        zeros.words.assign((bits + 63) / 64, 0);
        ones.words.assign((bits + 63) / 64, ~u64{ 0 });
        EXPECT_EQ(filters::zeroRunCount(zeros), 1u) << bits;
        EXPECT_EQ(filters::zeroRunCount(ones), 0u) << bits;
        EXPECT_EQ(filters::zeroRunCountRef(zeros), 1u) << bits;
        EXPECT_EQ(filters::zeroRunCountRef(ones), 0u) << bits;
    }
}

TEST(Simd, ShdBatchMatchesScalarMasks)
{
    forEachBackend([] {
        util::Pcg32 rng(7001);
        align::ShdBatch batch;
        std::vector<align::HammingMask> want;
        for (int iter = 0; iter < 120; ++iter) {
            const u32 e = 1 + rng.below(7);
            const u32 n = 30 + rng.below(170);
            const u32 center = e + rng.below(80);
            const u32 L = 1 + rng.below(9); // ragged vs lane width
            batch.begin(L, n, center, e);
            std::vector<DnaSequence> reads, wins;
            std::vector<align::BitPlanes> rp(L), wp(L);
            for (u32 l = 0; l < L; ++l) {
                reads.push_back(randomSeq(rng, n));
                // Windows from shorter-than-read (straddle) to ample.
                const u32 wlen = center + rng.below(n + 2 * e + 40);
                wins.push_back(randomSeq(rng, wlen ? wlen : 1));
                rp[l].assign(reads[l]);
                wp[l].assign(wins[l]);
                batch.setLane(l, rp[l], wp[l]);
            }
            batch.run();
            for (u32 l = 0; l < L; ++l) {
                align::shiftedMasksInto(rp[l], wp[l], center, e, want);
                for (u32 s = 0; s < batch.shifts(); ++s) {
                    for (u32 w = 0; w < batch.readWords; ++w)
                        ASSERT_EQ(batch.maskWord(s, w, l), want[s].words[w])
                            << "iter=" << iter << " l=" << l << " s=" << s
                            << " w=" << w << " n=" << n
                            << " center=" << center << " e=" << e
                            << " win=" << wins[l].size();
                    ASSERT_EQ(batch.pop(s, l), want[s].popcount());
                    ASSERT_EQ(batch.pre(s, l), want[s].onesPrefix());
                    ASSERT_EQ(batch.suf(s, l), want[s].onesSuffix());
                }
            }
        }
    });
}

/**
 * A target for query @p q: a copy with mismatches, deletions and
 * insertions inside @p pad random bases each side, or (when
 * @p related is false) @p len random bases.
 */
DnaSequence
fitTarget(util::Pcg32 &rng, const DnaSequence &q, bool related, u64 pad,
          u64 len)
{
    if (!related)
        return randomSeq(rng, len);
    std::string body;
    for (u64 i = 0; i < q.size(); ++i) {
        const u32 r = rng.below(20);
        char b = genomics::baseToChar(q.at(i));
        if (r == 0)
            b = genomics::baseToChar(rng.below(4));
        if (r == 1)
            continue;
        body.push_back(b);
        if (r == 2)
            body.push_back(genomics::baseToChar(rng.below(4)));
    }
    std::string left, right;
    for (u64 i = 0; i < pad; ++i) {
        left.push_back(genomics::baseToChar(rng.below(4)));
        right.push_back(genomics::baseToChar(rng.below(4)));
    }
    return DnaSequence(left + body + right);
}

/** fitAlignBatch over @p tasks equals fitAlign task by task. */
void
expectBatchMatchesScalar(const std::vector<align::FitTask> &tasks,
                         const genomics::ScoringScheme &sc,
                         align::BatchAlignScratch &bscr,
                         const std::string &label)
{
    align::AlignScratch sscr;
    std::vector<align::AlignResult> got(tasks.size());
    align::fitAlignBatch(tasks.data(), tasks.size(), sc, bscr, got.data());
    for (std::size_t k = 0; k < tasks.size(); ++k) {
        const align::AlignResult want = align::fitAlign(
            tasks[k].query, tasks[k].target, sc, tasks[k].band, sscr);
        SCOPED_TRACE(label + " k=" + std::to_string(k) +
                     " m=" + std::to_string(tasks[k].query.size()) +
                     " n=" + std::to_string(tasks[k].target.size()) +
                     " band=" + std::to_string(tasks[k].band));
        ASSERT_EQ(want.valid, got[k].valid);
        ASSERT_EQ(want.score, got[k].score);
        ASSERT_EQ(want.targetStart, got[k].targetStart);
        ASSERT_EQ(want.targetEnd, got[k].targetEnd);
        ASSERT_EQ(want.cellUpdates, got[k].cellUpdates);
        ASSERT_EQ(want.cigar.toString(), got[k].cigar.toString());
    }
}

TEST(Simd, FitAlignBatchMatchesScalar)
{
    // Each batch opens with a run of `run` tasks of one query length,
    // run = 1..80, so lane groups of every size occur: full 32- and
    // 16-lane groups and every tail from 1 to 31 (a tail of one, like
    // each lone trailing task, runs the scalar engine). Two run shapes in
    // four are the production ones: 150 bp reads in 246 bp windows
    // with band 128 (full DP, slack 48) and in 198 bp windows with
    // band 80 (DP at candidates, slack 24). A few trailing tasks of
    // other lengths close each batch.
    const genomics::ScoringScheme sc = genomics::ScoringScheme::shortRead();
    forEachBackend([&sc] {
        util::Pcg32 rng(9113);
        align::BatchAlignScratch bscr;
        for (u32 run = 1; run <= 80; ++run) {
            std::vector<DnaSequence> qs, ts;
            std::vector<i32> bands;
            const u32 shape = run % 4;
            const u64 m = shape < 2 ? 150 : 20 + rng.below(180);
            const u32 tail = rng.below(6);
            for (u32 k = 0; k < run + tail; ++k) {
                const bool inRun = k < run;
                const u64 len = inRun ? m : 20 + rng.below(180);
                DnaSequence q = randomSeq(rng, len);
                DnaSequence t;
                i32 band = -1;
                if (inRun && shape == 0) {
                    t = fitTarget(rng, q, true, 48, 0);
                    band = 128;
                } else if (inRun && shape == 1) {
                    t = fitTarget(rng, q, rng.below(8) != 0, 24, 198);
                    band = 80;
                } else {
                    t = fitTarget(rng, q, rng.below(2) != 0, 30,
                                  1 + rng.below(len + 120));
                    const u32 r = rng.below(4);
                    if (r == 0)
                        band = static_cast<i32>(8 + rng.below(40));
                    if (r == 1)
                        band = 80;
                    if (r == 2)
                        band = 128;
                }
                qs.push_back(std::move(q));
                ts.push_back(std::move(t));
                bands.push_back(band);
            }
            std::vector<align::FitTask> tasks;
            for (std::size_t k = 0; k < qs.size(); ++k)
                tasks.push_back({ qs[k], ts[k], bands[k] });
            expectBatchMatchesScalar(tasks, sc, bscr,
                                     "run=" + std::to_string(run));
        }
    });
}

TEST(Simd, FitAlignBatchRangeEdges)
{
    // A lane group runs in i16 while (m + nMax + 2) * C < 2^15, C the
    // largest per-step cost; past that it runs the scalar engine. Pin
    // both sides of the edge against fitAlign: the sr preset (C = 33,
    // m + nMax <= 990), and a heavy, nearly linear-gap scheme
    // (C = 1000, m + nMax <= 30) whose cell values really approach
    // (m + nMax) * C, i.e. the i16 floor.
    genomics::ScoringScheme heavy;
    heavy.match = 1;
    heavy.mismatch = 1000;
    heavy.gapOpen1 = 10;
    heavy.gapExtend1 = 990;
    heavy.gapOpen2 = 20;
    heavy.gapExtend2 = 980;
    struct Edge
    {
        genomics::ScoringScheme sc;
        u64 m;
        u64 nInside; ///< widest window that still fits i16
    };
    const Edge edges[] = {
        { genomics::ScoringScheme::shortRead(), 400, 590 },
        { heavy, 12, 18 },
    };
    forEachBackend([&edges] {
        util::Pcg32 rng(4242);
        align::BatchAlignScratch bscr;
        for (const Edge &e : edges) {
            for (u64 nMax : { e.nInside, e.nInside + 1 }) {
                std::vector<DnaSequence> qs, ts;
                for (u32 k = 0; k < 20; ++k) {
                    qs.push_back(randomSeq(rng, e.m));
                    // The first task sets nMax; the rest are ragged.
                    const u64 n = k == 0 ? nMax : 1 + rng.below(nMax);
                    DnaSequence t =
                        fitTarget(rng, qs.back(), k % 2 == 0, 0, n);
                    if (t.size() > n)
                        t = t.sub(0, n);
                    while (t.size() < n)
                        t.push(static_cast<u8>(rng.below(4)));
                    ts.push_back(std::move(t));
                }
                std::vector<align::FitTask> tasks;
                for (u32 k = 0; k < qs.size(); ++k)
                    tasks.push_back({ qs[k], ts[k], k % 3 ? -1 : 8 });
                expectBatchMatchesScalar(
                    tasks, e.sc, bscr,
                    "m=" + std::to_string(e.m) +
                        " nMax=" + std::to_string(nMax));
            }
        }
        // Past the 2^27-cell matrix cap a task is invalid, not an
        // abort — also under a unit-cost scheme (C = 1), whose i16
        // bound (m + nMax <= 32765) does not stop such a task.
        genomics::ScoringScheme unit;
        unit.match = 1;
        unit.mismatch = 1;
        unit.gapOpen1 = 0;
        unit.gapExtend1 = 1;
        unit.gapOpen2 = 0;
        unit.gapExtend2 = 1;
        const DnaSequence q = randomSeq(rng, 12000);
        const DnaSequence t = randomSeq(rng, 12096);
        const align::FitTask big{ q, t, 128 };
        for (const genomics::ScoringScheme &sc : { edges[0].sc, unit }) {
            align::AlignResult res;
            res.valid = true;
            align::fitAlignBatch(&big, 1, sc, bscr, &res);
            EXPECT_FALSE(res.valid);
            EXPECT_EQ(res.cellUpdates, 0u);
        }
    });
}

TEST(Simd, FitAlignBatchRunsALoneTaskOnTheScalarEngine)
{
    // A group of one shares its sweep with no lane, so it runs the
    // scalar engine even inside the i16 bound: a long read's tail chunk
    // (aligned one task at a time, 395 bp in a window of about 575 bp)
    // must not grow the lane-major traceback to L matrices. Two such
    // tasks do share a sweep.
    const genomics::ScoringScheme sc = genomics::ScoringScheme::shortRead();
    forEachBackend([&sc] {
        util::Pcg32 rng(6151);
        std::vector<DnaSequence> qs, ts;
        for (u32 k = 0; k < 2; ++k) {
            qs.push_back(randomSeq(rng, 395));
            ts.push_back(fitTarget(rng, qs.back(), true, 90, 0));
            ASSERT_LE(qs.back().size() + ts.back().size(), 990u);
        }
        align::BatchAlignScratch bscr;
        const std::vector<align::FitTask> lone{ { qs[0], ts[0], 232 } };
        expectBatchMatchesScalar(lone, sc, bscr, "lone");
        EXPECT_TRUE(bscr.traceback.empty());

        const std::vector<align::FitTask> two{ { qs[0], ts[0], 232 },
                                               { qs[1], ts[1], 232 } };
        expectBatchMatchesScalar(two, sc, bscr, "two");
        EXPECT_EQ(bscr.traceback.empty(),
                  util::activeSimdBackend() == SimdBackend::Scalar);
    });
}

TEST(Simd, ShdFilterBatchMatchesScalar)
{
    filters::ShdFilter filter;
    forEachBackend([&filter] {
        util::Pcg32 rng(5521);
        for (int iter = 0; iter < 60; ++iter) {
            const u32 e = 1 + rng.below(5);
            const u32 n = 40 + rng.below(140);
            const u32 center = e + rng.below(40);
            const std::size_t count = 1 + rng.below(13);
            const DnaSequence read = randomSeq(rng, n);
            std::vector<DnaSequence> winSeqs;
            for (std::size_t i = 0; i < count; ++i) {
                if (rng.below(2)) {
                    // Window embedding the read (should mostly accept).
                    DnaSequence w = randomSeq(rng, center + n + e + 10);
                    for (u32 j = 0; j < n; ++j) {
                        u8 b = read.at(j);
                        if (rng.below(40) == 0)
                            b = static_cast<u8>(rng.below(4));
                        w.set(center + j, b);
                    }
                    winSeqs.push_back(std::move(w));
                } else {
                    const u32 wlen = center + rng.below(n + 2 * e + 20);
                    winSeqs.push_back(randomSeq(rng, wlen ? wlen : 1));
                }
            }
            std::vector<genomics::DnaView> views;
            for (const auto &w : winSeqs)
                views.push_back(w);
            std::vector<filters::FilterDecision> got(count);
            filter.evaluateBatch(read, views.data(), count, center, e,
                                 got.data());
            for (std::size_t i = 0; i < count; ++i) {
                const filters::FilterDecision want =
                    filter.evaluate(read, views[i], center, e);
                ASSERT_EQ(want.accept, got[i].accept)
                    << "iter=" << iter << " i=" << i;
                ASSERT_EQ(want.estimatedEdits, got[i].estimatedEdits)
                    << "iter=" << iter << " i=" << i;
            }
        }
    });
}

TEST(Simd, LightAlignBatchMatchesScalar)
{
    const Reference ref = randomRef(6000, 417);
    genpair::LightAlignParams params;
    const genpair::LightAligner aligner(ref, params);
    forEachBackend([&ref, &aligner, &params] {
        util::Pcg32 rng(31337);
        genpair::LightBatchScratch scratch;
        for (int iter = 0; iter < 40; ++iter) {
            const std::size_t count = 1 + rng.below(21);
            std::vector<DnaSequence> reads;
            std::vector<align::BitPlanes> planes;
            std::vector<genpair::LightBatchItem> items;
            reads.reserve(count);
            planes.reserve(count);
            u64 len = 100 + 10 * rng.below(8);
            for (std::size_t i = 0; i < count; ++i) {
                if (rng.below(4) == 0)
                    len = 100 + 10 * rng.below(8); // ragged lane groups
                GlobalPos pos = rng.below(5800);
                if (rng.below(8) == 0)
                    pos = rng.below(2 * params.maxShift); // left edge
                if (rng.below(16) == 0)
                    pos = 5900 + rng.below(100); // straddles the ref end
                DnaSequence read = ref.window(pos, len);
                if (read.size() != len)
                    read = randomSeq(rng, len); // truncated: noise read
                // Sprinkle the Table-1 edit classes and noise.
                const u32 mode = rng.below(4);
                if (mode == 1)
                    for (u32 k = 0; k < 1 + rng.below(4); ++k)
                        read.set(rng.below(static_cast<u32>(len)),
                                 static_cast<u8>(rng.below(4)));
                if (mode == 2)
                    read = randomSeq(rng, len); // hopeless candidate
                reads.push_back(std::move(read));
                planes.emplace_back(reads.back());
                items.push_back({ &planes.back(), pos });
            }
            std::vector<genpair::LightResult> got(count);
            aligner.alignBatch(items.data(), count, scratch, got.data());
            for (std::size_t i = 0; i < count; ++i) {
                const genpair::LightResult want =
                    aligner.align(reads[i], items[i].candidate);
                SCOPED_TRACE("iter=" + std::to_string(iter) +
                             " i=" + std::to_string(i) + " pos=" +
                             std::to_string(items[i].candidate) +
                             " len=" + std::to_string(reads[i].size()));
                ASSERT_EQ(want.aligned, got[i].aligned);
                ASSERT_EQ(want.score, got[i].score);
                ASSERT_EQ(want.pos, got[i].pos);
                ASSERT_EQ(want.hypothesesTried, got[i].hypothesesTried);
                ASSERT_EQ(want.cigar.toString(), got[i].cigar.toString());
            }
        }
    });
}

} // namespace
