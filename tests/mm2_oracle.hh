/**
 * @file
 * The per-chain MM2-lite mapper, frozen as a test oracle.
 *
 * Mm2Lite aligns every chain window through one batched DP sweep
 * (planPairs() -> alignTasks() -> finishPairs()). This is the path it
 * replaced, rebuilt from public pieces only: extractMinimizers(),
 * MinimizerIndex::lookup(), chainAnchors() and the scalar fitAlign(),
 * one alignment per chain, in chain order. The batched engine must
 * match it mapping for mapping and DpWork counter for counter, so
 * tests that pin Mm2Lite compare against this instead of against
 * Mm2Lite itself.
 */

#ifndef GPX_TESTS_MM2_ORACLE_HH
#define GPX_TESTS_MM2_ORACLE_HH

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "align/affine.hh"
#include "align/chain.hh"
#include "baseline/minimizer_index.hh"
#include "baseline/mm2lite.hh"
#include "genomics/readpair.hh"
#include "genomics/reference.hh"

namespace gpx {
namespace testing {

class PerChainMm2
{
  public:
    PerChainMm2(const genomics::Reference &ref,
                const baseline::Mm2LiteParams &params = {})
        : ref_(ref), params_(params), index_(ref, params.minimizers)
    {
    }

    /** Both reads chain by chain, then the FR / insert-size pairing. */
    genomics::PairMapping
    mapPair(const genomics::ReadPair &pair)
    {
        const auto cands1 = mapRead(pair.first);
        const auto cands2 = mapRead(pair.second);
        genomics::PairMapping best;
        best.path = genomics::MappingPath::FullDpFallback;
        i64 bestScore = -1;
        for (const auto &m1 : cands1) {
            for (const auto &m2 : cands2) {
                if (m1.reverse == m2.reverse)
                    continue;
                const genomics::Mapping &left = m1.reverse ? m2 : m1;
                const genomics::Mapping &right = m1.reverse ? m1 : m2;
                if (right.pos < left.pos)
                    continue;
                if (right.pos + right.cigar.refSpan() - left.pos >
                    params_.maxInsert)
                    continue;
                const i64 score = static_cast<i64>(m1.score) + m2.score;
                if (score > bestScore) {
                    bestScore = score;
                    best.first = m1;
                    best.second = m2;
                }
            }
        }
        if (bestScore >= 0)
            return best;
        if (!cands1.empty())
            best.first = cands1.front();
        if (!cands2.empty())
            best.second = cands2.front();
        if (!best.first.mapped && !best.second.mapped)
            best.path = genomics::MappingPath::Unmapped;
        return best;
    }

    /** One read at a known position; a clipped window is unmapped. */
    genomics::Mapping
    alignAt(const genomics::DnaSequence &read, GlobalPos pos, u32 slack)
    {
        GlobalPos wstart = 0;
        u64 wlen = 0;
        if (!window(read.size(), pos, slack, wstart, wlen))
            return {};
        return toMapping(align::fitAlign(read, ref_.windowView(wstart, wlen),
                                         params_.scoring,
                                         static_cast<i32>(2 * slack + 32)),
                         wstart);
    }

    const baseline::DpWork &dpWork() const { return dpWork_; }

  private:
    /** Candidate mappings of one read, best first, one per locus. */
    std::vector<genomics::Mapping>
    mapRead(const genomics::Read &read)
    {
        const u32 k = params_.minimizers.k;
        std::vector<align::Anchor> fwd, rev;
        for (const auto &m :
             baseline::extractMinimizers(read.seq, params_.minimizers)) {
            for (const auto &e : index_.lookup(m.hash)) {
                align::Anchor a;
                a.length = k;
                a.reverse = m.reverse != e.reverse;
                a.queryPos = a.reverse ? read.seq.size() - k - m.pos : m.pos;
                a.refPos = e.pos;
                (a.reverse ? rev : fwd).push_back(a);
            }
        }
        std::vector<align::Chain> chains;
        align::ChainScratch scratch;
        for (const auto *side : { &fwd, &rev })
            dpWork_.chainCells +=
                align::chainAnchors(*side, params_.chain, scratch, chains);
        std::sort(chains.begin(), chains.end(),
                  [](const align::Chain &a, const align::Chain &b) {
                      return a.score > b.score;
                  });
        if (chains.size() > params_.maxCandidates)
            chains.resize(params_.maxCandidates);

        const genomics::DnaSequence rc = read.seq.revComp();
        std::vector<genomics::Mapping> mappings;
        for (const auto &chain : chains) {
            const genomics::DnaSequence &query =
                chain.reverse ? rc : read.seq;
            const GlobalPos start = chain.refStart > chain.queryStart
                                        ? chain.refStart - chain.queryStart
                                        : 0;
            genomics::Mapping m = alignAt(query, start, params_.alignSlack);
            if (!m.mapped)
                continue;
            m.reverse = chain.reverse;
            mappings.push_back(std::move(m));
        }

        std::sort(mappings.begin(), mappings.end(),
                  [](const genomics::Mapping &a, const genomics::Mapping &b) {
                      return a.score > b.score;
                  });
        std::vector<genomics::Mapping> unique;
        std::unordered_set<u64> seen;
        for (auto &m : mappings)
            if (seen.insert((m.pos << 1) | (m.reverse ? 1u : 0u)).second)
                unique.push_back(std::move(m));
        return unique;
    }

    /** [pos - slack, pos + len + slack) clipped to pos's chromosome. */
    bool
    window(u64 len, GlobalPos pos, u64 slack, GlobalPos &wstart,
           u64 &wlen) const
    {
        const genomics::ChromPos cp = ref_.toChromPos(pos);
        const u64 lo = cp.offset > slack ? cp.offset - slack : 0;
        const u64 hi = std::min<u64>(ref_.chromosomeLength(cp.chrom),
                                     cp.offset + len + slack);
        wstart = ref_.chromosomeStart(cp.chrom) + lo;
        wlen = hi > lo ? hi - lo : 0;
        return wlen >= len;
    }

    genomics::Mapping
    toMapping(align::AlignResult res, GlobalPos wstart)
    {
        dpWork_.alignCells += res.cellUpdates;
        genomics::Mapping m;
        if (!res.valid || res.score < params_.minAlignScore)
            return m;
        m.mapped = true;
        m.pos = wstart + res.targetStart;
        m.score = res.score;
        m.cigar = std::move(res.cigar);
        return m;
    }

    const genomics::Reference &ref_;
    baseline::Mm2LiteParams params_;
    baseline::MinimizerIndex index_;
    baseline::DpWork dpWork_;
};

} // namespace testing
} // namespace gpx

#endif // GPX_TESTS_MM2_ORACLE_HH
