/**
 * @file
 * Unit tests for anchor chaining.
 */

#include <gtest/gtest.h>

#include "align/chain.hh"

namespace {

using namespace gpx;
using align::Anchor;
using align::Chain;
using align::ChainParams;

ChainParams
lenientParams()
{
    ChainParams p;
    p.minScore = 10;
    return p;
}

/** The chains of one chainAnchors() call from a fresh scratch. */
std::vector<Chain>
chainAnchors(const std::vector<Anchor> &anchors, const ChainParams &params)
{
    align::ChainScratch scratch;
    std::vector<Chain> chains;
    align::chainAnchors(anchors, params, scratch, chains);
    return chains;
}

TEST(Chain, EmptyInput)
{
    EXPECT_TRUE(chainAnchors({}, lenientParams()).empty());
}

TEST(Chain, SingleAnchorFormsChain)
{
    std::vector<Anchor> anchors = { { 10, 1000, 21, false } };
    auto chains = chainAnchors(anchors, lenientParams());
    ASSERT_EQ(chains.size(), 1u);
    EXPECT_EQ(chains[0].refStart, 1000u);
    EXPECT_EQ(chains[0].refEnd, 1021u);
}

TEST(Chain, ColinearAnchorsMerge)
{
    std::vector<Anchor> anchors = {
        { 0, 1000, 21, false },
        { 30, 1030, 21, false },
        { 60, 1060, 21, false },
    };
    auto chains = chainAnchors(anchors, lenientParams());
    ASSERT_GE(chains.size(), 1u);
    EXPECT_EQ(chains[0].numAnchors, 3u);
    EXPECT_EQ(chains[0].queryStart, 0u);
    EXPECT_EQ(chains[0].queryEnd, 81u);
}

TEST(Chain, DistantAnchorsSeparate)
{
    std::vector<Anchor> anchors = {
        { 0, 1000, 21, false },
        { 30, 900000, 21, false }, // far beyond maxGap
    };
    auto chains = chainAnchors(anchors, lenientParams());
    // Each anchor can only stand alone (score 21 each).
    for (const auto &c : chains)
        EXPECT_EQ(c.numAnchors, 1u);
}

TEST(Chain, SkewPenaltyBreaksDiagonalJumps)
{
    ChainParams p = lenientParams();
    p.maxSkew = 10;
    std::vector<Anchor> anchors = {
        { 0, 1000, 21, false },
        { 30, 1230, 21, false }, // query gap 9, ref gap 209 -> skew 200
    };
    auto chains = chainAnchors(anchors, p);
    for (const auto &c : chains)
        EXPECT_EQ(c.numAnchors, 1u);
}

TEST(Chain, BestChainFirst)
{
    std::vector<Anchor> anchors = {
        { 0, 1000, 21, false },
        { 30, 1030, 21, false },
        { 0, 50000, 21, false }, // lone decoy
    };
    auto chains = chainAnchors(anchors, lenientParams());
    ASSERT_GE(chains.size(), 1u);
    EXPECT_GE(chains[0].score, 40.0);
    EXPECT_EQ(chains[0].refStart, 1000u);
}

TEST(Chain, MinScoreFiltersWeakChains)
{
    ChainParams p;
    p.minScore = 100;
    std::vector<Anchor> anchors = { { 0, 1000, 21, false } };
    EXPECT_TRUE(chainAnchors(anchors, p).empty());
}

TEST(Chain, RespectsMaxChains)
{
    ChainParams p = lenientParams();
    p.maxChains = 2;
    std::vector<Anchor> anchors;
    for (int i = 0; i < 10; ++i)
        anchors.push_back({ 0, static_cast<GlobalPos>(i) * 100000, 21,
                            false });
    auto chains = chainAnchors(anchors, p);
    EXPECT_LE(chains.size(), 2u);
}

TEST(Chain, OverlappingAnchorsNotChained)
{
    // Second anchor overlaps the first on the reference.
    std::vector<Anchor> anchors = {
        { 0, 1000, 21, false },
        { 30, 1010, 21, false },
    };
    auto chains = chainAnchors(anchors, lenientParams());
    for (const auto &c : chains)
        EXPECT_LE(c.numAnchors, 1u);
}

TEST(Chain, CellsAreCountedWhenNoChainSurvives)
{
    // Three colinear anchors score about 63 as one chain, below
    // minScore: no chain is kept, yet the pass examined three
    // (anchor, predecessor) pairs.
    ChainParams p;
    p.minScore = 100;
    std::vector<Anchor> anchors = {
        { 0, 1000, 21, false },
        { 30, 1030, 21, false },
        { 60, 1060, 21, false },
    };
    align::ChainScratch scratch;
    std::vector<Chain> chains;
    const u64 cells = align::chainAnchors(anchors, p, scratch, chains);
    EXPECT_TRUE(chains.empty());
    EXPECT_EQ(cells, 3u); // anchor i examines its i predecessors
}

TEST(Chain, AppendsAfterEarlierChainsAndReusesScratch)
{
    // Mm2Lite chains both strands into one list through one scratch:
    // the second call appends, and a warm scratch gives the same
    // chains as a fresh one.
    std::vector<Anchor> fwd = {
        { 0, 1000, 21, false },
        { 30, 1030, 21, false },
    };
    std::vector<Anchor> rev = {
        { 0, 5000, 21, true },
        { 40, 5040, 21, true },
        { 80, 5080, 21, true },
    };
    align::ChainScratch scratch;
    std::vector<Chain> chains;
    EXPECT_EQ(align::chainAnchors(fwd, lenientParams(), scratch, chains),
              1u);
    EXPECT_EQ(align::chainAnchors(rev, lenientParams(), scratch, chains),
              3u);
    ASSERT_EQ(chains.size(), 2u);
    EXPECT_FALSE(chains[0].reverse);
    EXPECT_EQ(chains[0].numAnchors, 2u);
    EXPECT_TRUE(chains[1].reverse);
    EXPECT_EQ(chains[1].numAnchors, 3u);
    EXPECT_EQ(chains[1].refStart, 5000u);
    EXPECT_EQ(chains[1].queryEnd, 101u);
    EXPECT_DOUBLE_EQ(chains[1].score, chainAnchors(rev, lenientParams())
                                          .front()
                                          .score);
}

} // namespace
