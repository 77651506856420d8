/**
 * @file
 * Stage-graph equivalence tests: the batched SoA engine must be
 * bit-identical to per-pair execution for any batch partition, with
 * statistics equal field by field, on inputs that exercise every
 * Fig. 10 fallback exit, with and without a light-align gate. Also
 * pins the branchless banded DP against its reference counterpart.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "align/affine.hh"
#include "baseline/mm2lite.hh"
#include "genpair/pipeline.hh"
#include "genpair/stages.hh"
#include "mm2_oracle.hh"
#include "simdata/genome_generator.hh"
#include "simdata/read_simulator.hh"
#include "test_gates.hh"
#include "util/rng.hh"

namespace {

using namespace gpx;

/** Random read of length n (not drawn from any reference). */
genomics::DnaSequence
randomSeq(util::Pcg32 &rng, std::size_t n)
{
    genomics::DnaSequence seq;
    for (std::size_t i = 0; i < n; ++i)
        seq.push(static_cast<u8>(rng.next() & 3));
    return seq;
}

/**
 * A pair set that takes every route: simulated proper pairs (light
 * fast path + light fallback), random junk (seed miss) and
 * far-apart segment pairs (PA-filter miss).
 */
class StageGraphTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        simdata::GenomeParams gp;
        gp.length = 150000;
        gp.chromosomes = 1;
        gp.seed = 77;
        ref_ = simdata::generateGenome(gp);
        // A sparse table (2^21 buckets for ~150k seeds) so the junk
        // reads below can actually miss every bucket — exit 1 needs
        // zero locations across all twelve seeds of a pair.
        genpair::SeedMapParams sp;
        sp.tableBits = 21;
        map_ = std::make_unique<genpair::SeedMap>(ref_, sp);
        mm2_ = std::make_unique<baseline::Mm2Lite>(
            ref_, baseline::Mm2LiteParams{});

        simdata::DiploidGenome donor(ref_, simdata::VariantParams{});
        simdata::ReadSimulator sim(donor, simdata::ReadSimParams{});
        pairs_ = sim.simulate(220);

        util::Pcg32 rng(1234);
        // Seed-miss pairs: reads unrelated to the reference.
        for (int i = 0; i < 12; ++i) {
            genomics::ReadPair junk;
            junk.first.name = "junk" + std::to_string(i);
            junk.first.seq = randomSeq(rng, 150);
            junk.second.name = junk.first.name;
            junk.second.seq = randomSeq(rng, 150);
            pairs_.push_back(std::move(junk));
        }
        // PA-miss pairs: both mates are real reference windows but far
        // apart, so candidates exist while no pair is within delta.
        for (int i = 0; i < 12; ++i) {
            u64 a = 1000 + static_cast<u64>(i) * 4000;
            u64 b = a + 60000;
            genomics::ReadPair far;
            far.first.name = "far" + std::to_string(i);
            far.first.seq =
                ref_.windowView(a, 150).materialize();
            far.second.name = far.first.name;
            far.second.seq =
                ref_.windowView(b, 150).materialize().revComp();
            pairs_.push_back(std::move(far));
        }
    }

    genpair::PipelineStats
    runBatched(u64 batch, std::vector<genomics::PairMapping> *out,
               genpair::LightAlignGate *gate = nullptr)
    {
        genpair::GenPairPipeline pipeline(ref_, *map_,
                                          genpair::GenPairParams{},
                                          mm2_.get());
        pipeline.setLightAlignGate(gate);
        out->resize(pairs_.size());
        for (u64 begin = 0; begin < pairs_.size(); begin += batch) {
            u64 end = std::min<u64>(pairs_.size(), begin + batch);
            pipeline.mapBatch(pairs_.data() + begin, end - begin,
                              out->data() + begin);
        }
        return pipeline.stats();
    }

    static void
    expectStatsEqual(const genpair::PipelineStats &a,
                     const genpair::PipelineStats &b)
    {
        EXPECT_EQ(a.pairsTotal, b.pairsTotal);
        EXPECT_EQ(a.seedMissFallback, b.seedMissFallback);
        EXPECT_EQ(a.paFilterFallback, b.paFilterFallback);
        EXPECT_EQ(a.lightAlignFallback, b.lightAlignFallback);
        EXPECT_EQ(a.lightAligned, b.lightAligned);
        EXPECT_EQ(a.dpAligned, b.dpAligned);
        EXPECT_EQ(a.fullDpMapped, b.fullDpMapped);
        EXPECT_EQ(a.unmapped, b.unmapped);
        EXPECT_EQ(a.query.seedLookups, b.query.seedLookups);
        EXPECT_EQ(a.query.locationsFetched, b.query.locationsFetched);
        EXPECT_EQ(a.query.filterIterations, b.query.filterIterations);
        EXPECT_EQ(a.candidatePairs, b.candidatePairs);
        EXPECT_EQ(a.lightAlignsAttempted, b.lightAlignsAttempted);
        EXPECT_EQ(a.lightHypotheses, b.lightHypotheses);
        EXPECT_EQ(a.gateRejected, b.gateRejected);
        // Per-stage item counters are partition-invariant; only the
        // batch counts depend on how the input was chopped.
        for (u32 s = 0; s < genpair::kNumStages; ++s) {
            EXPECT_EQ(a.stage[s].itemsIn, b.stage[s].itemsIn) << s;
            EXPECT_EQ(a.stage[s].itemsOut, b.stage[s].itemsOut) << s;
        }
    }

    static void
    expectMappingsEqual(const std::vector<genomics::PairMapping> &a,
                        const std::vector<genomics::PairMapping> &b)
    {
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].path, b[i].path) << i;
            EXPECT_EQ(a[i].first.pos, b[i].first.pos) << i;
            EXPECT_EQ(a[i].second.pos, b[i].second.pos) << i;
            EXPECT_EQ(a[i].first.score, b[i].first.score) << i;
            EXPECT_EQ(a[i].second.score, b[i].second.score) << i;
            EXPECT_EQ(a[i].first.cigar.toString(),
                      b[i].first.cigar.toString())
                << i;
        }
    }

    genomics::Reference ref_;
    std::unique_ptr<genpair::SeedMap> map_;
    std::unique_ptr<baseline::Mm2Lite> mm2_;
    std::vector<genomics::ReadPair> pairs_;
};

TEST_F(StageGraphTest, EveryFallbackExitIsExercised)
{
    std::vector<genomics::PairMapping> out;
    auto stats = runBatched(pairs_.size(), &out);
    EXPECT_GT(stats.lightAligned, 0u);
    EXPECT_GT(stats.lightAlignFallback, 0u);
    EXPECT_GT(stats.seedMissFallback, 0u);
    EXPECT_GT(stats.paFilterFallback, 0u);
    EXPECT_EQ(stats.pairsTotal, pairs_.size());
}

TEST_F(StageGraphTest, BatchPartitionInvariance)
{
    // mapPair() (batch of one) and every other partition must produce
    // identical mappings and identical stats, field by field. A
    // light-align gate must not change that: it is consulted while
    // candidates are staged for the lane groups.
    gpx::testing::OddPositionGate odd;
    genpair::LightAlignGate *gates[] = { nullptr, &odd };
    for (genpair::LightAlignGate *gate : gates) {
        std::vector<genomics::PairMapping> perPair;
        auto perPairStats = runBatched(1, &perPair, gate);
        EXPECT_EQ(perPairStats.gateRejected > 0, gate != nullptr);

        for (u64 batch : { u64{ 7 }, u64{ 64 }, pairs_.size() }) {
            std::vector<genomics::PairMapping> batched;
            auto batchedStats = runBatched(batch, &batched, gate);
            expectMappingsEqual(perPair, batched);
            expectStatsEqual(perPairStats, batchedStats);
        }
    }
}

TEST_F(StageGraphTest, MapPairWrapperMatchesBatch)
{
    genpair::GenPairPipeline a(ref_, *map_, genpair::GenPairParams{},
                               mm2_.get());
    genpair::GenPairPipeline b(ref_, *map_, genpair::GenPairParams{},
                               mm2_.get());
    std::vector<genomics::PairMapping> viaWrapper(pairs_.size());
    for (std::size_t i = 0; i < pairs_.size(); ++i)
        viaWrapper[i] = a.mapPair(pairs_[i]);
    std::vector<genomics::PairMapping> viaBatch(pairs_.size());
    b.mapBatch(pairs_.data(), pairs_.size(), viaBatch.data());
    expectMappingsEqual(viaWrapper, viaBatch);
    expectStatsEqual(a.stats(), b.stats());
}

TEST_F(StageGraphTest, StageCountersAreConsistent)
{
    std::vector<genomics::PairMapping> out;
    auto st = runBatched(64, &out);
    using genpair::StageId;
    const auto &seed = st.stageCounters(StageId::Seed);
    const auto &query = st.stageCounters(StageId::Query);
    const auto &pa = st.stageCounters(StageId::PaFilter);
    const auto &light = st.stageCounters(StageId::LightAlign);
    const auto &fb = st.stageCounters(StageId::Fallback);

    EXPECT_EQ(seed.itemsIn, pairs_.size());
    EXPECT_EQ(seed.itemsOut, pairs_.size());
    EXPECT_EQ(query.itemsIn, pairs_.size());
    EXPECT_EQ(query.itemsOut, pairs_.size() - st.seedMissFallback);
    EXPECT_EQ(pa.itemsOut,
              query.itemsOut - st.paFilterFallback);
    EXPECT_EQ(light.itemsIn, pa.itemsOut);
    EXPECT_EQ(light.itemsOut, st.lightAligned);
    EXPECT_EQ(fb.itemsIn, pairs_.size() - st.lightAligned);
    EXPECT_EQ(seed.batches, query.batches);
}

TEST_F(StageGraphTest, TraceRecordsMatchRouting)
{
    genpair::GenPairPipeline pipeline(ref_, *map_,
                                      genpair::GenPairParams{},
                                      mm2_.get());
    std::vector<genomics::PairMapping> out(pairs_.size());
    std::vector<genpair::PairTraceRecord> trace(pairs_.size());
    pipeline.mapBatch(pairs_.data(), pairs_.size(), out.data(),
                      trace.data());
    const auto &st = pipeline.stats();
    u64 light = 0, lightFb = 0, seedMiss = 0, paMiss = 0;
    for (const auto &tr : trace) {
        switch (tr.route) {
        case genpair::PairRoute::LightAligned: ++light; break;
        case genpair::PairRoute::LightFallback: ++lightFb; break;
        case genpair::PairRoute::SeedMiss: ++seedMiss; break;
        case genpair::PairRoute::PaMiss: ++paMiss; break;
        default: FAIL() << "unrouted trace record";
        }
    }
    EXPECT_EQ(light, st.lightAligned);
    EXPECT_EQ(lightFb, st.lightAlignFallback);
    EXPECT_EQ(seedMiss, st.seedMissFallback);
    EXPECT_EQ(paMiss, st.paFilterFallback);

    u64 filterIters = 0, lightAligns = 0;
    for (const auto &tr : trace) {
        filterIters += tr.filterIterations;
        lightAligns += tr.lightAligns;
    }
    EXPECT_EQ(filterIters, st.query.filterIterations);
    EXPECT_EQ(lightAligns, st.lightAlignsAttempted);

    // Tracing must not change the mapping.
    std::vector<genomics::PairMapping> plain;
    runBatched(pairs_.size(), &plain);
    expectMappingsEqual(plain, out);
}

TEST_F(StageGraphTest, OneDpSweepMatchesScalarFallbackCallsInTheOldOrder)
{
    // The fixture's pairs plus pairs whose read 1 keeps a clean first
    // half and a random tail: the clean half's seeds give candidate
    // pairs, light alignment rejects them (exit 3), and the left
    // window's full-read DP falls below minDpScore, so the right
    // window's speculative alignment must be dropped uncounted.
    std::vector<genomics::ReadPair> pairs = pairs_;
    util::Pcg32 rng(99);
    for (int i = 0; i < 8; ++i) {
        const u64 a = 5000 + static_cast<u64>(i) * 9000;
        genomics::ReadPair half;
        half.first.name = "half" + std::to_string(i);
        half.first.seq = ref_.windowView(a, 150).materialize();
        for (std::size_t j = 80; j < 150; ++j)
            half.first.seq.set(j, static_cast<u8>(rng.next() & 3));
        half.second.name = half.first.name;
        half.second.seq =
            ref_.windowView(a + 250, 150).materialize().revComp();
        pairs.push_back(std::move(half));
    }

    const genpair::GenPairParams params;
    const genpair::SeedMapView view = map_->view();
    genpair::PartitionedSeeder seeder(view);
    genpair::LightAligner light(ref_, params.light);
    baseline::Mm2Lite batched(ref_, baseline::Mm2LiteParams{});
    genpair::PipelineStats stats;
    const genpair::StageContext ctx{ ref_,  view,    params,   seeder,
                                     light, nullptr, &batched, stats };
    std::vector<genomics::PairMapping> out(pairs.size());
    genpair::PairBatch batch;
    batch.bind(pairs.data(), pairs.size(), out.data(), nullptr);
    genpair::runSeedStage(ctx, batch);
    genpair::runQueryStage(ctx, batch);
    genpair::runPaFilterStage(ctx, batch);
    genpair::runLightAlignStage(ctx, batch);

    // The per-pair path on the frozen per-chain oracle: mapPair() for
    // exits 1-2; for exit 3, alignAt() on each budgeted candidate's
    // left window, then on its right window only where the left
    // passed, one scalar fitAlign() per window.
    gpx::testing::PerChainMm2 scalar(ref_);
    std::vector<genomics::PairMapping> want(pairs.size());
    u64 fullDp = 0, exit3 = 0, leftMisses = 0;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        const genpair::PairRoute route = batch.route[i];
        if (route == genpair::PairRoute::LightAligned)
            continue;
        genomics::PairMapping &pm = want[i];
        if (route != genpair::PairRoute::LightFallback) {
            ++fullDp;
            pm = scalar.mapPair(pairs[i]);
            pm.path = genomics::MappingPath::FullDpFallback;
            continue;
        }
        ++exit3;
        const genomics::DnaSequence rc1 = pairs[i].first.seq.revComp();
        const genomics::DnaSequence rc2 = pairs[i].second.seq.revComp();
        bool found = false;
        i64 best = 0;
        for (u32 o = 0; o < 2; ++o) {
            const genomics::DnaSequence &left =
                o == 0 ? pairs[i].first.seq : pairs[i].second.seq;
            const genomics::DnaSequence &right = o == 0 ? rc2 : rc1;
            u32 budget = std::max<u32>(4, params.maxCandidatePairs / 4);
            for (u64 c = batch.pairOffsets[2 * i + o];
                 c < batch.pairOffsets[2 * i + o + 1]; ++c) {
                if (budget-- == 0)
                    break;
                const genpair::CandidatePair &cp = batch.candidatePairs[c];
                genomics::Mapping lm =
                    scalar.alignAt(left, cp.leftStart, params.dpSlack);
                if (!lm.mapped || lm.score < params.minDpScore) {
                    ++leftMisses;
                    continue;
                }
                genomics::Mapping rm =
                    scalar.alignAt(right, cp.rightStart, params.dpSlack);
                if (!rm.mapped || rm.score < params.minDpScore)
                    continue;
                const i64 score = static_cast<i64>(lm.score) + rm.score;
                if (found && score <= best)
                    continue;
                found = true;
                best = score;
                lm.reverse = false;
                rm.reverse = true;
                pm.path = genomics::MappingPath::DpAlignFallback;
                pm.first = o == 0 ? lm : rm;
                pm.second = o == 0 ? rm : lm;
            }
        }
        if (!found)
            pm.path = genomics::MappingPath::Unmapped;
    }
    EXPECT_GT(fullDp, 0u);
    EXPECT_GT(exit3, 0u);
    EXPECT_GT(leftMisses, 0u);

    genpair::runFallbackStage(ctx, batch);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        if (batch.route[i] == genpair::PairRoute::LightAligned)
            continue;
        SCOPED_TRACE("pair " + std::to_string(i));
        EXPECT_EQ(out[i].path, want[i].path);
        for (const auto &[got, exp] :
             { std::pair{ &out[i].first, &want[i].first },
               std::pair{ &out[i].second, &want[i].second } }) {
            EXPECT_EQ(got->mapped, exp->mapped);
            EXPECT_EQ(got->pos, exp->pos);
            EXPECT_EQ(got->reverse, exp->reverse);
            EXPECT_EQ(got->score, exp->score);
            EXPECT_EQ(got->cigar.toString(), exp->cigar.toString());
        }
    }
    EXPECT_EQ(batched.dpWork().alignCells, scalar.dpWork().alignCells);
    EXPECT_EQ(batched.dpWork().chainCells, scalar.dpWork().chainCells);
}

TEST(AffineOracleTest, BranchlessEngineMatchesReference)
{
    util::Pcg32 rng(7);
    align::AlignScratch scratch; // reused across every size mix
    for (int iter = 0; iter < 400; ++iter) {
        std::size_t qlen = 1 + rng.next() % 180;
        std::size_t tlen = 1 + rng.next() % 260;
        genomics::DnaSequence q = randomSeq(rng, qlen);
        genomics::DnaSequence t;
        if (rng.next() & 1) {
            // Related operands: t is a mutated copy of q plus flanks.
            t = randomSeq(rng, rng.next() % 40);
            t.append(q);
            for (int e = 0; e < static_cast<int>(rng.next() % 6); ++e)
                t.set(rng.next() % t.size(),
                      static_cast<u8>(rng.next() & 3));
        } else {
            t = randomSeq(rng, tlen);
        }
        i32 band = -1;
        if (rng.next() % 3 == 0)
            band = static_cast<i32>(rng.next() % 64);
        auto sc = genomics::ScoringScheme::shortRead();

        auto ref = align::fitAlignRef(q, t, sc, band);
        auto opt = align::fitAlign(q, t, sc, band, scratch);
        ASSERT_EQ(ref.valid, opt.valid) << "iter " << iter;
        ASSERT_EQ(ref.cellUpdates, opt.cellUpdates) << "iter " << iter;
        if (!ref.valid)
            continue;
        ASSERT_EQ(ref.score, opt.score) << "iter " << iter;
        ASSERT_EQ(ref.targetStart, opt.targetStart) << "iter " << iter;
        ASSERT_EQ(ref.targetEnd, opt.targetEnd) << "iter " << iter;
        ASSERT_EQ(ref.cigar.toString(), opt.cigar.toString())
            << "iter " << iter;
    }
}

} // namespace
