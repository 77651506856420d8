#include "baseline/mm2lite.hh"

#include <algorithm>
#include <cstdint>
#include <numeric>
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

/**
 * What a DP task depends on: the query (one sequence per read and
 * strand), the window and the band. Equal keys give equal results.
 */
struct TaskKey
{
    std::uintptr_t query = 0;
    GlobalPos wstart = 0;
    u64 wlen = 0;
    i32 band = 0;

    auto operator<=>(const TaskKey &) const = default;
};

TaskKey
taskKey(const DnaSequence &query, GlobalPos wstart, u64 wlen, i32 band)
{
    return { reinterpret_cast<std::uintptr_t>(&query), wstart, wlen,
             band };
}

/**
 * Run the distinct tasks of @p tasks through one fitAlignBatch() and
 * copy each result into every slot of its key, so results[t] is what
 * aligning tasks[t] on its own gives (repeats are common: two chains
 * with the same expected start build the same window).
 */
void
alignDistinct(const std::vector<align::FitTask> &tasks,
              const std::vector<TaskKey> &keys,
              const genomics::ScoringScheme &scheme,
              align::BatchAlignScratch &scratch,
              std::vector<align::AlignResult> &results)
{
    const std::size_t count = tasks.size();
    std::vector<u32> order(count);
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(), [&](u32 a, u32 b) {
        return keys[a] < keys[b];
    });
    // first[t]: the earliest slot with tasks[t]'s key.
    std::vector<u32> first(count);
    for (std::size_t k = 0; k < count; ++k) {
        const u32 t = order[k];
        first[t] = k > 0 && keys[order[k - 1]] == keys[t]
                       ? first[order[k - 1]]
                       : t;
    }
    std::vector<align::FitTask> distinct;
    std::vector<u32> slot(count); ///< index into distinct
    for (u32 t = 0; t < count; ++t) {
        if (first[t] == t) {
            slot[t] = static_cast<u32>(distinct.size());
            distinct.push_back(tasks[t]);
        } else {
            slot[t] = slot[first[t]];
        }
    }
    std::vector<align::AlignResult> once(distinct.size());
    align::fitAlignBatch(distinct.data(), distinct.size(), scheme, scratch,
                         once.data());
    results.resize(count);
    for (std::size_t t = 0; t < count; ++t)
        results[t] = once[slot[t]];
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

std::vector<Anchor>
Mm2Lite::collectAnchors(const Read &read)
{
    std::vector<Anchor> anchors;
    const u32 k = params_.minimizers.k;
    auto mins = extractMinimizers(read.seq, params_.minimizers);
    // Resolve each minimizer's occurrence list once, size the anchor
    // vector exactly, then fill it.
    std::vector<std::span<const MinimizerIndex::Entry>> hits;
    hits.reserve(mins.size());
    std::size_t total = 0;
    for (const auto &m : mins) {
        hits.push_back(index_->lookup(m.hash));
        total += hits.back().size();
    }
    anchors.reserve(total);
    for (std::size_t mi = 0; mi < mins.size(); ++mi) {
        const auto &m = mins[mi];
        for (const auto &e : hits[mi]) {
            bool reverse = m.reverse != e.reverse;
            Anchor a;
            a.length = k;
            a.reverse = reverse;
            if (!reverse) {
                a.queryPos = m.pos;
            } else {
                // Coordinates of the reverse-complemented read.
                a.queryPos = read.seq.size() - k - m.pos;
            }
            a.refPos = e.pos;
            anchors.push_back(a);
        }
    }
    return anchors;
}

std::vector<Chain>
Mm2Lite::planRead(const Read &read)
{
    std::vector<Anchor> anchors;
    {
        util::StageTimers::Scope scope(timers_, stages::kSeeding);
        anchors = collectAnchors(read);
    }

    std::vector<Chain> chains;
    {
        util::StageTimers::Scope scope(timers_, stages::kChaining);
        std::vector<Anchor> fwd, rev;
        for (const auto &a : anchors)
            (a.reverse ? rev : fwd).push_back(a);
        for (auto *side : { &fwd, &rev }) {
            auto part = align::chainAnchors(*side, params_.chain);
            for (auto &c : part) {
                dpWork_.chainCells += c.cellUpdates;
                chains.push_back(std::move(c));
            }
        }
        std::sort(chains.begin(), chains.end(),
                  [](const Chain &a, const Chain &b) {
                      return a.score > b.score;
                  });
        if (chains.size() > params_.maxCandidates)
            chains.resize(params_.maxCandidates);
    }
    return chains;
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

std::vector<Mapping>
Mm2Lite::mapRead(const Read &read)
{
    std::vector<Chain> chains = planRead(read);

    std::vector<Mapping> mappings;
    {
        util::StageTimers::Scope scope(timers_, stages::kAlignment);
        DnaSequence rc;
        bool haveRc = false;
        for (const auto &chain : chains) {
            const DnaSequence *query = &read.seq;
            if (chain.reverse) {
                if (!haveRc) {
                    rc = read.seq.revComp();
                    haveRc = true;
                }
                query = &rc;
            }
            // Expected read start on the reference.
            GlobalPos expect = chain.refStart > chain.queryStart
                                   ? chain.refStart - chain.queryStart
                                   : 0;
            auto [wstart, wlen] = clampWindow(ref_, expect, query->size(),
                                              params_.alignSlack);
            if (wlen < query->size())
                continue;
            genomics::DnaView window = ref_.windowView(wstart, wlen);
            // Band: the window only extends alignSlack around the chain
            // diagonal, so a band of slack + indel headroom is lossless
            // for any alignment the window can contain.
            auto res = align::fitAlign(*query, window, params_.scoring,
                                       static_cast<i32>(
                                           2 * params_.alignSlack + 32),
                                       alignScratch_);
            dpWork_.alignCells += res.cellUpdates;
            if (!res.valid || res.score < params_.minAlignScore)
                continue;
            Mapping m;
            m.mapped = true;
            m.pos = wstart + res.targetStart;
            m.reverse = chain.reverse;
            m.score = res.score;
            m.cigar = std::move(res.cigar);
            mappings.push_back(std::move(m));
        }
    }

    return finishRead(mappings);
}

Mapping
Mm2Lite::alignAt(const DnaSequence &read, GlobalPos pos, u32 slack)
{
    util::StageTimers::Scope scope(timers_, stages::kAlignment);
    Mapping m;
    auto [wstart, wlen] = clampWindow(ref_, pos, read.size(), slack);
    if (wlen < read.size())
        return m;
    genomics::DnaView window = ref_.windowView(wstart, wlen);
    auto res = align::fitAlign(read, window, params_.scoring,
                               static_cast<i32>(2 * slack + 32),
                               alignScratch_);
    dpWork_.alignCells += res.cellUpdates;
    if (!res.valid || res.score < params_.minAlignScore)
        return m;
    m.mapped = true;
    m.pos = wstart + res.targetStart;
    m.score = res.score;
    m.cigar = std::move(res.cigar);
    return m;
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
    auto cands1 = mapRead(pair.first);
    auto cands2 = mapRead(pair.second);
    return pairFromCandidates(cands1, cands2);
}

void
Mm2Lite::mapPairsBatch(const ReadPair *const *pairs, std::size_t count,
                       PairMapping *out)
{
    // Plan every read of the batch first (seeding + chaining, scalar),
    // so the alignment phase can hand one flat task list to the
    // interleaved DP engine. Reads are 2 per pair, plans are indexed
    // [2 * p + side].
    struct ReadState
    {
        std::vector<Chain> chains;
        DnaSequence rc; ///< stable storage — FitTasks hold views into it
        bool haveRc = false;
        std::vector<Mapping> mappings;
    };
    std::vector<ReadState> reads(2 * count);
    for (std::size_t p = 0; p < count; ++p) {
        reads[2 * p + 0].chains = planRead(pairs[p]->first);
        reads[2 * p + 1].chains = planRead(pairs[p]->second);
    }

    // One FitTask per surviving chain window of every read, in the
    // exact order the scalar loop would visit them.
    struct TaskRef
    {
        u32 read;      ///< index into reads[]
        u32 chain;     ///< index into that read's chain list
        GlobalPos wstart;
    };
    std::vector<align::FitTask> tasks;
    std::vector<TaskKey> keys;
    std::vector<TaskRef> refs;
    std::vector<align::AlignResult> results;
    {
        util::StageTimers::Scope scope(timers_, stages::kAlignment);
        for (std::size_t p = 0; p < count; ++p) {
            for (u32 side = 0; side < 2; ++side) {
                ReadState &rs = reads[2 * p + side];
                const Read &read =
                    side == 0 ? pairs[p]->first : pairs[p]->second;
                for (u32 ci = 0; ci < rs.chains.size(); ++ci) {
                    const Chain &chain = rs.chains[ci];
                    const DnaSequence *query = &read.seq;
                    if (chain.reverse) {
                        if (!rs.haveRc) {
                            rs.rc = read.seq.revComp();
                            rs.haveRc = true;
                        }
                        query = &rs.rc;
                    }
                    GlobalPos expect =
                        chain.refStart > chain.queryStart
                            ? chain.refStart - chain.queryStart
                            : 0;
                    auto [wstart, wlen] = clampWindow(
                        ref_, expect, query->size(), params_.alignSlack);
                    if (wlen < query->size())
                        continue;
                    align::FitTask ft;
                    ft.query = *query;
                    ft.target = ref_.windowView(wstart, wlen);
                    ft.band =
                        static_cast<i32>(2 * params_.alignSlack + 32);
                    tasks.push_back(ft);
                    keys.push_back(taskKey(*query, wstart, wlen, ft.band));
                    refs.push_back({ static_cast<u32>(2 * p + side), ci,
                                     wstart });
                }
            }
        }
        alignDistinct(tasks, keys, params_.scoring, batchScratch_, results);

        // Scalar epilogue per task, replayed in visit order.
        for (std::size_t t = 0; t < tasks.size(); ++t) {
            align::AlignResult &res = results[t];
            const TaskRef &tr = refs[t];
            ReadState &rs = reads[tr.read];
            dpWork_.alignCells += res.cellUpdates;
            if (!res.valid || res.score < params_.minAlignScore)
                continue;
            Mapping m;
            m.mapped = true;
            m.pos = tr.wstart + res.targetStart;
            m.reverse = rs.chains[tr.chain].reverse;
            m.score = res.score;
            m.cigar = std::move(res.cigar);
            rs.mappings.push_back(std::move(m));
        }
    }

    for (std::size_t p = 0; p < count; ++p) {
        auto cands1 = finishRead(reads[2 * p + 0].mappings);
        auto cands2 = finishRead(reads[2 * p + 1].mappings);
        out[p] = pairFromCandidates(cands1, cands2);
    }
}

void
Mm2Lite::alignAtBatch(const AlignAtTask *batch, std::size_t count,
                      Mapping *out)
{
    util::StageTimers::Scope scope(timers_, stages::kAlignment);
    std::vector<align::FitTask> tasks(count);
    std::vector<GlobalPos> wstarts(count);
    std::vector<u8> skip(count, 0);
    for (std::size_t t = 0; t < count; ++t) {
        const AlignAtTask &at = batch[t];
        auto [wstart, wlen] =
            clampWindow(ref_, at.pos, at.read->size(), at.slack);
        wstarts[t] = wstart;
        if (wlen < at.read->size()) {
            skip[t] = 1;
            continue; // fitAlignBatch treats the empty task as invalid
        }
        tasks[t].query = *at.read;
        tasks[t].target = ref_.windowView(wstart, wlen);
        tasks[t].band = static_cast<i32>(2 * at.slack + 32);
    }
    std::vector<align::AlignResult> results(count);
    align::fitAlignBatch(tasks.data(), count, params_.scoring,
                         batchScratch_, results.data());
    for (std::size_t t = 0; t < count; ++t) {
        Mapping &m = out[t];
        m = Mapping{};
        if (skip[t])
            continue;
        align::AlignResult &res = results[t];
        dpWork_.alignCells += res.cellUpdates;
        if (!res.valid || res.score < params_.minAlignScore)
            continue;
        m.mapped = true;
        m.pos = wstarts[t] + res.targetStart;
        m.score = res.score;
        m.cigar = std::move(res.cigar);
    }
}

} // namespace baseline
} // namespace gpx
