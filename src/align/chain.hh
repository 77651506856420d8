/**
 * @file
 * Anchor chaining by dynamic programming.
 *
 * The seeding stage of the baseline mapper produces anchors (query
 * position, reference position, length); chaining merges colinear anchors
 * into candidate alignment regions. This is the DP stage that dominates
 * paired-end Minimap2 runtime (paper §3.1: >65% of execution time), and
 * the stage GenPair's Paired-Adjacency Filtering replaces.
 */

#ifndef GPX_ALIGN_CHAIN_HH
#define GPX_ALIGN_CHAIN_HH

#include <vector>

#include "util/types.hh"

namespace gpx {
namespace align {

/** An exact seed match between read and reference. */
struct Anchor
{
    u64 queryPos = 0;
    GlobalPos refPos = 0;
    u32 length = 0;
    bool reverse = false; ///< anchor found on the reverse-complement read
};

/** Chaining parameters (simplified Minimap2 model). */
struct ChainParams
{
    u32 maxGap = 500;       ///< maximum query/ref gap between anchors
    u32 maxSkew = 100;      ///< maximum |query gap - ref gap|
    double gapScale = 0.3;  ///< per-base penalty on the diagonal skew
    double distScale = 0.01;///< per-base penalty on the gap length
    i32 minScore = 40;      ///< discard chains below this score
    u32 maxChains = 8;      ///< keep at most this many chains per read
};

/** One chained candidate region. */
struct Chain
{
    double score = 0;
    GlobalPos refStart = 0;
    GlobalPos refEnd = 0;
    u64 queryStart = 0;
    u64 queryEnd = 0;
    u32 numAnchors = 0; ///< anchors chained into the region
    bool reverse = false;
};

/** Working set of chainAnchors(), reused across calls. */
struct ChainScratch
{
    std::vector<u32> order; ///< anchors sorted by (refPos, queryPos)
    std::vector<double> f;  ///< best chain score ending at order[i]
    std::vector<i32> pred;  ///< predecessor in order, -1 for none
    std::vector<u8> used;
    std::vector<u32> tails; ///< order indices by descending f
};

/**
 * Chain anchors of one strand with O(n^2)-bounded DP (bounded lookback,
 * as in Minimap2).
 *
 * @param anchors Anchors, all with the same `reverse` flag.
 * @param params Chaining parameters.
 * @param scratch Working set (allocation-free once warm).
 * @param out The kept chains are appended here, best first.
 * @param lookback Maximum number of predecessors examined per anchor.
 * @return DP cell updates of the pass (MCUPS accounting), counted
 *         whether or not any chain reaches params.minScore.
 */
u64 chainAnchors(const std::vector<Anchor> &anchors,
                 const ChainParams &params, ChainScratch &scratch,
                 std::vector<Chain> &out, u32 lookback = 32);

} // namespace align
} // namespace gpx

#endif // GPX_ALIGN_CHAIN_HH
