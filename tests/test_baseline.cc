/**
 * @file
 * Unit tests for the minimizer index and the Mm2Lite baseline mapper.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "baseline/mm2lite.hh"
#include "mm2_oracle.hh"
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

/** One row of the sorted (hash, position) minimizer table. */
struct TableRow
{
    u64 hash;
    GlobalPos pos;
    bool reverse;
};

/**
 * The table MinimizerIndex stores, rebuilt independently: every
 * minimizer of every chromosome sorted by (hash, position), hashes
 * over maxOccurrences dropped.
 */
std::vector<TableRow>
sortedTable(const Reference &ref, const MinimizerParams &mp)
{
    std::vector<TableRow> all;
    for (u32 c = 0; c < ref.numChromosomes(); ++c)
        for (const auto &m : extractMinimizers(ref.chromosome(c), mp))
            all.push_back({ m.hash, ref.chromosomeStart(c) + m.pos,
                            m.reverse });
    std::sort(all.begin(), all.end(), [](const auto &a, const auto &b) {
        return a.hash != b.hash ? a.hash < b.hash : a.pos < b.pos;
    });
    std::vector<TableRow> table;
    for (std::size_t i = 0, j = 0; i < all.size(); i = j) {
        while (j < all.size() && all[j].hash == all[i].hash)
            ++j;
        if (j - i <= mp.maxOccurrences)
            table.insert(table.end(), all.begin() + i, all.begin() + j);
    }
    return table;
}

/** The oracle: what a binary search over the sorted table returns. */
void
expectLookupMatchesSearch(const MinimizerIndex &index,
                          const std::vector<TableRow> &table, u64 hash)
{
    auto lo = std::lower_bound(
        table.begin(), table.end(), hash,
        [](const TableRow &r, u64 h) { return r.hash < h; });
    auto hi = lo;
    while (hi != table.end() && hi->hash == hash)
        ++hi;
    auto got = index.lookup(hash);
    ASSERT_EQ(got.size(), static_cast<std::size_t>(hi - lo))
        << "hash " << hash;
    for (std::size_t k = 0; k < got.size(); ++k) {
        EXPECT_EQ(got[k].pos, lo[k].pos) << "hash " << hash;
        EXPECT_EQ(got[k].reverse, lo[k].reverse) << "hash " << hash;
    }
}

TEST(MinimizerIndex, LookupMatchesBinarySearchOverTheTable)
{
    // Two repeat-rich chromosomes and a low occurrence cap, so the
    // table has multi-entry hashes and filtered ones.
    simdata::GenomeParams gp;
    gp.length = 300000;
    gp.chromosomes = 2;
    gp.seed = 5;
    Reference ref = simdata::generateGenome(gp);
    MinimizerParams mp;
    mp.maxOccurrences = 3;
    MinimizerIndex index(ref, mp);
    const std::vector<TableRow> table = sortedTable(ref, mp);
    ASSERT_EQ(index.numEntries(), table.size());

    // Every extracted hash (indexed or over the cap) and its
    // neighbours, which are mostly absent.
    u32 filtered = 0;
    for (u32 c = 0; c < ref.numChromosomes(); ++c) {
        for (const auto &m : extractMinimizers(ref.chromosome(c), mp)) {
            filtered += index.lookup(m.hash).empty();
            for (u64 h : { m.hash, m.hash - 1, m.hash + 1 })
                expectLookupMatchesSearch(index, table, h);
        }
    }
    EXPECT_GT(filtered, 0u);

    // Absent hashes: random 2k-bit values, both ends of the hash
    // range and values wider than any 2k-bit hash.
    const u64 range = u64{ 1 } << (2 * mp.k);
    util::Pcg32 rng(9);
    for (int i = 0; i < 20000; ++i)
        expectLookupMatchesSearch(
            index, table, ((u64{ rng.next() } << 32) | rng.next()) % range);
    for (u64 h : { u64{ 0 }, u64{ 1 }, range - 2, range - 1, range,
                   range + 1, ~u64{ 0 } })
        expectLookupMatchesSearch(index, table, h);
}

TEST(MinimizerIndex, LookupInTheFirstAndLastBucketsOfASparseDirectory)
{
    // One k-mer per chromosome, so each chromosome adds exactly one
    // minimizer: three with hashes in the lowest 1/64 of the 2k-bit
    // range, three in the highest, four anywhere. Ten hashes get a
    // directory of at least 16 buckets, so the index has fewer hashes
    // than buckets and the low/high ones sit in the first/last bucket.
    MinimizerParams mp;
    const u64 range = u64{ 1 } << (2 * mp.k);
    util::Pcg32 rng(3);
    Reference ref;
    u32 low = 0, high = 0, any = 0;
    std::vector<u64> picked;
    while (low + high + any < 10) {
        std::string kmer;
        for (u32 i = 0; i < mp.k; ++i)
            kmer.push_back(genomics::baseToChar(rng.below(4)));
        const DnaSequence seq(kmer);
        auto mins = extractMinimizers(seq, mp);
        if (mins.size() != 1)
            continue; // palindrome
        const u64 h = mins[0].hash;
        const bool isLow = h < range / 64, isHigh = h >= range - range / 64;
        if (isLow ? low == 3 : isHigh ? high == 3 : any == 4)
            continue;
        (isLow ? low : isHigh ? high : any) += 1;
        picked.push_back(h);
        ref.addChromosome(std::to_string(picked.size()), DnaSequence(kmer));
    }
    MinimizerIndex index(ref, mp);
    const std::vector<TableRow> table = sortedTable(ref, mp);
    ASSERT_EQ(table.size(), 10u);
    const u32 bits = index.directoryBits();
    ASSERT_GE(bits, 4u);
    ASSERT_LE(bits, 6u);
    const u32 shift = 2 * mp.k - bits;
    u32 inFirst = 0, inLast = 0;
    for (u64 h : picked) {
        inFirst += (h >> shift) == 0;
        inLast += (h >> shift) == (u64{ 1 } << bits) - 1;
        for (u64 probe : { h, h - 1, h + 1 })
            expectLookupMatchesSearch(index, table, probe);
    }
    EXPECT_GE(inFirst, 3u);
    EXPECT_GE(inLast, 3u);
    for (u64 h : { u64{ 0 }, u64{ 1 }, range - 1, range, ~u64{ 0 } })
        expectLookupMatchesSearch(index, table, h);
}

TEST(MinimizerIndex, ReferenceShorterThanK)
{
    Reference ref;
    ref.addChromosome("short", DnaSequence("ACGTACGTAC"));
    MinimizerParams mp;
    MinimizerIndex index(ref, mp);
    EXPECT_EQ(index.numEntries(), 0u);
    const u64 range = u64{ 1 } << (2 * mp.k);
    for (u64 h : { u64{ 0 }, u64{ 12345 }, range - 1, range, ~u64{ 0 } })
        EXPECT_TRUE(index.lookup(h).empty()) << h;
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

    /**
     * @p read as read 1 of a proper FR pair: read 2 is the 150 bases
     * at @p mate_pos, on the strand opposite to @p read's.
     */
    genomics::ReadPair
    withMate(const DnaSequence &read, bool read_reverse, u64 mate_pos) const
    {
        genomics::ReadPair pair;
        pair.first.seq = read;
        pair.second.seq = ref_.chromosome(0).sub(mate_pos, 150);
        if (!read_reverse)
            pair.second.seq = pair.second.seq.revComp();
        return pair;
    }

    Reference ref_;
    std::unique_ptr<Mm2Lite> mapper_;
};

TEST_F(Mm2LiteTest, MapsExactForwardRead)
{
    auto pm = mapper_->mapPair(withMate(ref_.chromosome(0).sub(12345, 150),
                                        false, 12345 + 250));
    ASSERT_TRUE(pm.first.mapped);
    EXPECT_EQ(pm.first.pos, 12345u);
    EXPECT_FALSE(pm.first.reverse);
    EXPECT_EQ(pm.first.score, 300);
}

TEST_F(Mm2LiteTest, MapsExactReverseRead)
{
    auto pm = mapper_->mapPair(
        withMate(ref_.chromosome(0).sub(54321, 150).revComp(), true,
                 54321 - 250));
    ASSERT_TRUE(pm.first.mapped);
    EXPECT_EQ(pm.first.pos, 54321u);
    EXPECT_TRUE(pm.first.reverse);
}

TEST_F(Mm2LiteTest, MapsReadWithEdits)
{
    DnaSequence seq = ref_.chromosome(0).sub(33000, 150);
    seq.set(30, (seq.at(30) + 1) & 3u);
    seq.set(90, (seq.at(90) + 1) & 3u);
    auto pm = mapper_->mapPair(withMate(seq, false, 33000 + 250));
    ASSERT_TRUE(pm.first.mapped);
    EXPECT_EQ(pm.first.pos, 33000u);
    EXPECT_EQ(pm.first.score, 280);
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
    mapper_->mapPair(
        withMate(ref_.chromosome(0).sub(12345, 150), false, 12345 + 250));
    EXPECT_GT(mapper_->timers().total(), 0.0);
    EXPECT_GT(mapper_->timers().seconds(baseline::stages::kSeeding), 0.0);
}

TEST_F(Mm2LiteTest, DpWorkCounted)
{
    mapper_->mapPair(
        withMate(ref_.chromosome(0).sub(12345, 150), false, 12345 + 250));
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
    // alignment window, which planPairs plans as one task.
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

    // The reference is the frozen per-chain path, one scalar fitAlign
    // per chain; the batched engine must match it as one block and as
    // blocks of one (mapPair()).
    gpx::testing::PerChainMm2 oracle(ref);
    Mm2Lite batched(ref, Mm2LiteParams{});
    Mm2Lite single(ref, Mm2LiteParams{});
    std::vector<const genomics::ReadPair *> ptrs;
    for (const auto &p : pairs)
        ptrs.push_back(&p);
    std::vector<align::FitTask> tasks;
    batched.planPairs(ptrs.data(), ptrs.size(), tasks);
    std::vector<align::AlignResult> results(tasks.size());
    batched.alignTasks(tasks.data(), tasks.size(), results.data());
    std::vector<genomics::PairMapping> got(pairs.size());
    batched.finishPairs(results.data(), got.data());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        SCOPED_TRACE("pair " + std::to_string(i));
        const genomics::PairMapping want = oracle.mapPair(pairs[i]);
        for (const genomics::PairMapping &pm :
             { got[i], single.mapPair(pairs[i]) }) {
            EXPECT_EQ(want.path, pm.path);
            expectSameMapping(want.first, pm.first);
            expectSameMapping(want.second, pm.second);
        }
    }
    EXPECT_EQ(oracle.dpWork().alignCells, batched.dpWork().alignCells);
    EXPECT_EQ(oracle.dpWork().chainCells, batched.dpWork().chainCells);
    EXPECT_EQ(oracle.dpWork().alignCells, single.dpWork().alignCells);
    EXPECT_EQ(oracle.dpWork().chainCells, single.dpWork().chainCells);
    // Shared windows were aligned once: the distinct tasks hold fewer
    // cells than the per-chain count.
    u64 alignedCells = 0;
    for (const auto &r : results)
        alignedCells += r.cellUpdates;
    EXPECT_LT(alignedCells, batched.dpWork().alignCells);
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
