#include "baseline/mm2lite.hh"

#include <algorithm>
#include <unordered_set>

#include "util/logging.hh"

namespace gpx {
namespace baseline {

using align::Anchor;
using align::Chain;
using genomics::DnaSequence;
using genomics::Mapping;
using genomics::MappingPath;
using genomics::PairMapping;
using genomics::Read;
using genomics::ReadPair;

namespace {

/**
 * Clamp a window [pos-slack, pos+len+slack) to the chromosome that
 * contains pos; returns the global start and the usable length.
 */
std::pair<GlobalPos, u64>
clampWindow(const genomics::Reference &ref, GlobalPos pos, u64 len,
            u64 slack)
{
    genomics::ChromPos cp = ref.toChromPos(pos);
    u64 chromLen = ref.chromosomeLength(cp.chrom);
    u64 lo = cp.offset > slack ? cp.offset - slack : 0;
    u64 hi = std::min<u64>(chromLen, cp.offset + len + slack);
    GlobalPos start = ref.chromosomeStart(cp.chrom) + lo;
    return { start, hi > lo ? hi - lo : 0 };
}

/** Expected read start on the reference of a chain. */
GlobalPos
chainStart(const Chain &chain)
{
    return chain.refStart > chain.queryStart
               ? chain.refStart - chain.queryStart
               : 0;
}

} // namespace

Mm2Lite::Mm2Lite(const genomics::Reference &ref, const Mm2LiteParams &params)
    : ref_(ref), params_(params),
      index_(std::make_shared<MinimizerIndex>(ref, params.minimizers))
{
}

Mm2Lite::Mm2Lite(const genomics::Reference &ref, const Mm2LiteParams &params,
                 std::shared_ptr<const MinimizerIndex> index)
    : ref_(ref), params_(params), index_(std::move(index))
{
    gpx_assert(index_, "shared index must not be null");
}

void
Mm2Lite::collectAnchors(const Read &read)
{
    fwdAnchors_.clear();
    revAnchors_.clear();
    const u32 k = params_.minimizers.k;
    extractMinimizers(read.seq, params_.minimizers, minimizers_);
    for (const auto &m : minimizers_) {
        for (const auto &e : index_->lookup(m.hash)) {
            Anchor a;
            a.length = k;
            a.reverse = m.reverse != e.reverse;
            // Reverse anchors are in the reverse-complemented read's
            // coordinates.
            a.queryPos = a.reverse ? read.seq.size() - k - m.pos : m.pos;
            a.refPos = e.pos;
            (a.reverse ? revAnchors_ : fwdAnchors_).push_back(a);
        }
    }
}

void
Mm2Lite::planRead(const Read &read, std::vector<Chain> &chains)
{
    {
        util::StageTimers::Scope scope(timers_, stages::kSeeding);
        collectAnchors(read);
    }

    util::StageTimers::Scope scope(timers_, stages::kChaining);
    chains.clear();
    for (const auto *side : { &fwdAnchors_, &revAnchors_ })
        dpWork_.chainCells += align::chainAnchors(*side, params_.chain,
                                                  chainScratch_, chains);
    std::sort(chains.begin(), chains.end(),
              [](const Chain &a, const Chain &b) {
                  return a.score > b.score;
              });
    if (chains.size() > params_.maxCandidates)
        chains.resize(params_.maxCandidates);
}

std::vector<Mapping>
Mm2Lite::finishRead(std::vector<Mapping> &mappings)
{
    std::sort(mappings.begin(), mappings.end(),
              [](const Mapping &a, const Mapping &b) {
                  return a.score > b.score;
              });
    // Deduplicate identical positions (multiple chains, same alignment):
    // hash-set membership keeps the first (best-scoring) occurrence in
    // O(n) instead of the old quadratic scan over the kept list.
    std::vector<Mapping> unique;
    unique.reserve(mappings.size());
    std::unordered_set<u64> seen;
    seen.reserve(mappings.size() * 2);
    for (auto &m : mappings) {
        const u64 key = (m.pos << 1) | (m.reverse ? 1u : 0u);
        if (seen.insert(key).second)
            unique.push_back(std::move(m));
    }
    return unique;
}

Mapping
Mm2Lite::alignAt(const DnaSequence &read, GlobalPos pos, u32 slack)
{
    align::FitTask task;
    const GlobalPos wstart = alignAtTask(read, pos, slack, task);
    align::AlignResult res;
    alignTasks(&task, 1, &res);
    return alignAtResult(std::move(res), wstart);
}

GlobalPos
Mm2Lite::alignAtTask(const DnaSequence &read, GlobalPos pos, u32 slack,
                     align::FitTask &task) const
{
    const auto [wstart, wlen] = clampWindow(ref_, pos, read.size(), slack);
    task = align::FitTask{};
    if (wlen < read.size())
        return wstart;
    task.query = read;
    task.target = ref_.windowView(wstart, wlen);
    // Band: the window only extends slack around the expected
    // diagonal, so a band of slack + indel headroom is lossless for any
    // alignment the window can contain.
    task.band = static_cast<i32>(2 * slack + 32);
    return wstart;
}

Mapping
Mm2Lite::alignAtResult(align::AlignResult res, GlobalPos wstart)
{
    dpWork_.alignCells += res.cellUpdates;
    Mapping m;
    if (!res.valid || res.score < params_.minAlignScore)
        return m;
    m.mapped = true;
    m.pos = wstart + res.targetStart;
    m.score = res.score;
    m.cigar = std::move(res.cigar);
    return m;
}

void
Mm2Lite::alignTasks(const align::FitTask *tasks, std::size_t count,
                    align::AlignResult *out)
{
    util::StageTimers::Scope scope(timers_, stages::kAlignment);
    align::fitAlignBatch(tasks, count, params_.scoring, batchScratch_, out);
}

PairMapping
Mm2Lite::pairFromCandidates(const std::vector<Mapping> &cands1,
                            const std::vector<Mapping> &cands2)
{
    util::StageTimers::Scope scope(timers_, stages::kPairing);
    PairMapping best;
    best.path = MappingPath::FullDpFallback;
    i64 bestScore = -1;

    // Proper FR pair: opposite strands, ordered, bounded insert.
    for (const auto &m1 : cands1) {
        for (const auto &m2 : cands2) {
            if (m1.reverse == m2.reverse)
                continue;
            const Mapping &left = m1.reverse ? m2 : m1;
            const Mapping &right = m1.reverse ? m1 : m2;
            if (right.pos < left.pos)
                continue;
            u64 span = right.pos + right.cigar.refSpan() - left.pos;
            if (span > params_.maxInsert)
                continue;
            i64 score = static_cast<i64>(m1.score) + m2.score;
            if (score > bestScore) {
                bestScore = score;
                best.first = m1;
                best.second = m2;
            }
        }
    }
    if (bestScore >= 0)
        return best;

    // No proper pair: report the best independent mappings.
    if (!cands1.empty())
        best.first = cands1.front();
    if (!cands2.empty())
        best.second = cands2.front();
    if (!best.first.mapped && !best.second.mapped)
        best.path = MappingPath::Unmapped;
    return best;
}

PairMapping
Mm2Lite::mapPair(const ReadPair &pair)
{
    PairMapping out;
    mapPairs(&pair, 1, &out);
    return out;
}

void
Mm2Lite::mapPairs(const ReadPair *pairs, std::size_t count, PairMapping *out)
{
    blockPairs_.clear();
    for (std::size_t p = 0; p < count; ++p)
        blockPairs_.push_back(&pairs[p]);
    blockTasks_.clear();
    planPairs(blockPairs_.data(), count, blockTasks_);
    blockResults_.resize(blockTasks_.size());
    alignTasks(blockTasks_.data(), blockTasks_.size(), blockResults_.data());
    finishPairs(blockResults_.data(), out);
}

void
Mm2Lite::planPairs(const ReadPair *const *pairs, std::size_t count,
                   std::vector<align::FitTask> &tasks)
{
    // Reads are 2 per pair, planned as [2 * p + side]; the slots list
    // every chain window in read order, each read's chains best first.
    plannedPairs_ = count;
    if (plannedReads_.size() < 2 * count)
        plannedReads_.resize(2 * count);
    plannedSlots_.clear();
    auto readOf = [&](std::size_t r) -> const Read & {
        return r % 2 ? pairs[r / 2]->second : pairs[r / 2]->first;
    };
    for (std::size_t r = 0; r < 2 * count; ++r) {
        PlannedRead &pr = plannedReads_[r];
        pr.haveRc = false;
        pr.mappings.clear();
        planRead(readOf(r), pr.chains);
    }

    util::StageTimers::Scope scope(timers_, stages::kAlignment);
    const std::size_t base = tasks.size();
    for (u32 r = 0; r < 2 * count; ++r) {
        const Read &read = readOf(r);
        PlannedRead &pr = plannedReads_[r];
        const std::size_t firstSlot = plannedSlots_.size();
        for (u32 ci = 0; ci < pr.chains.size(); ++ci) {
            const Chain &chain = pr.chains[ci];
            const DnaSequence *query = &read.seq;
            if (chain.reverse) {
                if (!pr.haveRc) {
                    pr.rc.assignRevComp(read.seq);
                    pr.haveRc = true;
                }
                query = &pr.rc;
            }
            align::FitTask task;
            const GlobalPos wstart = alignAtTask(
                *query, chainStart(chain), params_.alignSlack, task);
            if (task.target.size() == 0)
                continue;
            PlannedSlot slot{ r, ci, 0, wstart, task.target.size() };
            // Two chains of one read and strand with the same expected
            // start build the same window: they share one task.
            auto same = std::find_if(
                plannedSlots_.begin() + firstSlot, plannedSlots_.end(),
                [&](const PlannedSlot &s) {
                    return pr.chains[s.chain].reverse == chain.reverse &&
                           s.wstart == wstart && s.wlen == slot.wlen;
                });
            if (same != plannedSlots_.end()) {
                slot.task = same->task;
            } else {
                slot.task = static_cast<u32>(tasks.size() - base);
                tasks.push_back(task);
            }
            plannedSlots_.push_back(slot);
        }
    }
}

void
Mm2Lite::finishPairs(const align::AlignResult *results, PairMapping *out)
{
    {
        util::StageTimers::Scope scope(timers_, stages::kAlignment);
        for (const PlannedSlot &slot : plannedSlots_) {
            // A copy: a shared window's result serves each of its chains.
            Mapping m = alignAtResult(results[slot.task], slot.wstart);
            if (!m.mapped)
                continue;
            PlannedRead &pr = plannedReads_[slot.read];
            m.reverse = pr.chains[slot.chain].reverse;
            pr.mappings.push_back(std::move(m));
        }
    }
    for (std::size_t p = 0; p < plannedPairs_; ++p) {
        auto cands1 = finishRead(plannedReads_[2 * p + 0].mappings);
        auto cands2 = finishRead(plannedReads_[2 * p + 1].mappings);
        out[p] = pairFromCandidates(cands1, cands2);
    }
}

} // namespace baseline
} // namespace gpx
