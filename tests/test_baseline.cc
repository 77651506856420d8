/**
 * @file
 * Unit tests for the minimizer index and the Mm2Lite baseline mapper.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "baseline/mm2lite.hh"
#include "simdata/datasets.hh"
#include "simdata/genome_generator.hh"
#include "simdata/read_simulator.hh"
#include "util/rng.hh"

namespace {

using namespace gpx;
using baseline::extractMinimizers;
using baseline::MinimizerIndex;
using baseline::MinimizerParams;
using baseline::Mm2Lite;
using baseline::Mm2LiteParams;
using genomics::DnaSequence;
using genomics::Reference;

Reference
testRef(u64 len = 200000)
{
    simdata::GenomeParams p;
    p.length = len;
    p.chromosomes = 1;
    p.seed = 21;
    return simdata::generateGenome(p);
}

TEST(Minimizers, DensityApproximatelyTwoOverW)
{
    Reference ref = testRef(100000);
    MinimizerParams mp;
    auto mins = extractMinimizers(ref.chromosome(0), mp);
    double density = static_cast<double>(mins.size()) /
                     ref.chromosome(0).size();
    EXPECT_GT(density, 0.5 / mp.w);
    EXPECT_LT(density, 4.0 / mp.w);
}

TEST(Minimizers, PositionsWithinRange)
{
    Reference ref = testRef(50000);
    MinimizerParams mp;
    auto mins = extractMinimizers(ref.chromosome(0), mp);
    for (const auto &m : mins)
        EXPECT_LE(m.pos + mp.k, ref.chromosome(0).size());
}

TEST(Minimizers, CanonicalUnderRevComp)
{
    // The canonical minimizer hashes of a sequence and its reverse
    // complement must be equal as sets.
    Reference ref = testRef(20000);
    DnaSequence fwd = ref.chromosome(0).sub(100, 400);
    DnaSequence rev = fwd.revComp();
    MinimizerParams mp;
    auto a = extractMinimizers(fwd, mp);
    auto b = extractMinimizers(rev, mp);
    std::vector<u64> ha, hb;
    for (const auto &m : a)
        ha.push_back(m.hash);
    for (const auto &m : b)
        hb.push_back(m.hash);
    std::sort(ha.begin(), ha.end());
    std::sort(hb.begin(), hb.end());
    ha.erase(std::unique(ha.begin(), ha.end()), ha.end());
    hb.erase(std::unique(hb.begin(), hb.end()), hb.end());
    EXPECT_EQ(ha, hb);
}

TEST(MinimizerIndex, LookupFindsIndexedPositions)
{
    Reference ref = testRef(50000);
    MinimizerParams mp;
    MinimizerIndex index(ref, mp);
    auto mins = extractMinimizers(ref.chromosome(0), mp);
    ASSERT_FALSE(mins.empty());
    u32 checked = 0;
    for (std::size_t i = 0; i < mins.size(); i += 37) {
        auto span = index.lookup(mins[i].hash);
        bool found = false;
        for (const auto &e : span)
            found |= e.pos == mins[i].pos;
        EXPECT_TRUE(found);
        ++checked;
    }
    EXPECT_GT(checked, 10u);
}

TEST(MinimizerIndex, UnknownHashEmpty)
{
    Reference ref = testRef(30000);
    MinimizerIndex index(ref, MinimizerParams{});
    EXPECT_TRUE(index.lookup(0xDEADBEEFDEADBEEFull).empty());
}

class Mm2LiteTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ref_ = testRef(200000);
        mapper_ = std::make_unique<Mm2Lite>(ref_, Mm2LiteParams{});
    }

    Reference ref_;
    std::unique_ptr<Mm2Lite> mapper_;
};

TEST_F(Mm2LiteTest, MapsExactForwardRead)
{
    genomics::Read read;
    read.seq = ref_.chromosome(0).sub(12345, 150);
    auto mappings = mapper_->mapRead(read);
    ASSERT_FALSE(mappings.empty());
    EXPECT_EQ(mappings[0].pos, 12345u);
    EXPECT_FALSE(mappings[0].reverse);
    EXPECT_EQ(mappings[0].score, 300);
}

TEST_F(Mm2LiteTest, MapsExactReverseRead)
{
    genomics::Read read;
    read.seq = ref_.chromosome(0).sub(54321, 150).revComp();
    auto mappings = mapper_->mapRead(read);
    ASSERT_FALSE(mappings.empty());
    EXPECT_EQ(mappings[0].pos, 54321u);
    EXPECT_TRUE(mappings[0].reverse);
}

TEST_F(Mm2LiteTest, MapsReadWithEdits)
{
    genomics::Read read;
    DnaSequence seq = ref_.chromosome(0).sub(33000, 150);
    seq.set(30, (seq.at(30) + 1) & 3u);
    seq.set(90, (seq.at(90) + 1) & 3u);
    read.seq = seq;
    auto mappings = mapper_->mapRead(read);
    ASSERT_FALSE(mappings.empty());
    EXPECT_EQ(mappings[0].pos, 33000u);
    EXPECT_EQ(mappings[0].score, 280);
}

TEST_F(Mm2LiteTest, AlignAtRecoversPosition)
{
    DnaSequence seq = ref_.chromosome(0).sub(44000, 150);
    auto m = mapper_->alignAt(seq, 44010, 24);
    ASSERT_TRUE(m.mapped);
    EXPECT_EQ(m.pos, 44000u);
    EXPECT_EQ(m.score, 300);
}

TEST_F(Mm2LiteTest, PairsProperFrOrientation)
{
    genomics::ReadPair pair;
    pair.first.seq = ref_.chromosome(0).sub(60000, 150);
    pair.second.seq = ref_.chromosome(0).sub(60250, 150).revComp();
    auto pm = mapper_->mapPair(pair);
    ASSERT_TRUE(pm.bothMapped());
    EXPECT_EQ(pm.first.pos, 60000u);
    EXPECT_EQ(pm.second.pos, 60250u);
    EXPECT_FALSE(pm.first.reverse);
    EXPECT_TRUE(pm.second.reverse);
}

TEST_F(Mm2LiteTest, StageTimersPopulated)
{
    genomics::Read read;
    read.seq = ref_.chromosome(0).sub(12345, 150);
    mapper_->mapRead(read);
    EXPECT_GT(mapper_->timers().total(), 0.0);
    EXPECT_GT(mapper_->timers().seconds(baseline::stages::kSeeding), 0.0);
}

TEST_F(Mm2LiteTest, DpWorkCounted)
{
    genomics::Read read;
    read.seq = ref_.chromosome(0).sub(12345, 150);
    mapper_->mapRead(read);
    EXPECT_GT(mapper_->dpWork().alignCells, 0u);
}

/** Field-by-field equality of two read mappings. */
void
expectSameMapping(const genomics::Mapping &a, const genomics::Mapping &b)
{
    EXPECT_EQ(a.mapped, b.mapped);
    EXPECT_EQ(a.pos, b.pos);
    EXPECT_EQ(a.reverse, b.reverse);
    EXPECT_EQ(a.score, b.score);
    EXPECT_EQ(a.cigar.toString(), b.cigar.toString());
}

TEST(Mm2LiteTandemRepeat, BatchMatchesPerPairCallsWhereChainsShareWindows)
{
    // A 2.4 kbp tandem repeat of a 24 bp unit (a few point mutations
    // apart) inside random sequence: reads in it chain against many
    // copies, and chains with the same expected start build the same
    // alignment window, which mapPairsBatch aligns once.
    util::Pcg32 rng(77);
    std::string chrom;
    for (int i = 0; i < 20000; ++i)
        chrom.push_back(genomics::baseToChar(rng.below(4)));
    std::string unit;
    for (int i = 0; i < 24; ++i)
        unit.push_back(genomics::baseToChar(rng.below(4)));
    for (int copy = 0; copy < 100; ++copy) {
        std::string u = unit;
        if (rng.below(3) == 0)
            u[rng.below(24)] = genomics::baseToChar(rng.below(4));
        chrom += u;
    }
    for (int i = 0; i < 20000; ++i)
        chrom.push_back(genomics::baseToChar(rng.below(4)));
    Reference ref;
    ref.addChromosome("chr1", DnaSequence(chrom));

    std::vector<genomics::ReadPair> pairs;
    for (u64 start = 19600; start < 22300; start += 45) {
        genomics::ReadPair pair;
        pair.first.seq = ref.chromosome(0).sub(start, 150);
        pair.second.seq = ref.chromosome(0).sub(start + 260, 150).revComp();
        if (start % 2)
            pair.first.seq.set(70, (pair.first.seq.at(70) + 1) & 3u);
        pairs.push_back(std::move(pair));
    }

    Mm2Lite single(ref, Mm2LiteParams{});
    Mm2Lite batched(ref, Mm2LiteParams{});
    std::vector<const genomics::ReadPair *> ptrs;
    for (const auto &p : pairs)
        ptrs.push_back(&p);
    std::vector<genomics::PairMapping> got(pairs.size());
    batched.mapPairsBatch(ptrs.data(), ptrs.size(), got.data());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        SCOPED_TRACE("pair " + std::to_string(i));
        const genomics::PairMapping want = single.mapPair(pairs[i]);
        EXPECT_EQ(want.path, got[i].path);
        expectSameMapping(want.first, got[i].first);
        expectSameMapping(want.second, got[i].second);
    }
    EXPECT_EQ(single.dpWork().alignCells, batched.dpWork().alignCells);
    EXPECT_EQ(single.dpWork().chainCells, batched.dpWork().chainCells);
}

TEST(Mm2LiteSimulated, HighAccuracyOnSimulatedPairs)
{
    simdata::GenomeParams gp;
    gp.length = 300000;
    gp.chromosomes = 1;
    gp.seed = 42;
    Reference ref = simdata::generateGenome(gp);
    simdata::DiploidGenome dg(ref, simdata::VariantParams{});
    simdata::ReadSimParams rp;
    simdata::ReadSimulator sim(dg, rp);
    Mm2Lite mapper(ref, Mm2LiteParams{});

    u32 correct = 0;
    const u32 n = 60;
    for (u32 i = 0; i < n; ++i) {
        auto pair = sim.simulatePair();
        auto pm = mapper.mapPair(pair);
        if (pm.first.mapped) {
            u64 diff = pm.first.pos > pair.first.truthPos
                           ? pm.first.pos - pair.first.truthPos
                           : pair.first.truthPos - pm.first.pos;
            correct += diff <= 20 && !pm.first.reverse;
        }
    }
    EXPECT_GT(correct, n * 8 / 10);
}

} // namespace
