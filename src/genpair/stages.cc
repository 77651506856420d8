#include "genpair/stages.hh"

#include <algorithm>
#include <cstdint>
#include <ostream>

#include "genpair/pipeline.hh"
#include "util/logging.hh"

namespace gpx {
namespace genpair {

using genomics::DnaSequence;
using genomics::Mapping;
using genomics::MappingPath;
using genomics::PairMapping;

namespace {

/** Left/right sequences of one orientation (see the lane convention). */
struct OrientRefs
{
    const DnaSequence *left;
    const DnaSequence *right;
    bool read1IsLeft;
};

inline OrientRefs
orientation(const PairBatch &batch, u64 i, u32 o)
{
    if (o == 0)
        return { &batch.pairs[i].first.seq, &batch.rc2[i], true };
    return { &batch.pairs[i].second.seq, &batch.rc1[i], false };
}

inline StageCounters &
counters(const StageContext &ctx, StageId id)
{
    return ctx.stats.stage[static_cast<std::size_t>(id)];
}

/** Pairs still on the fast path (for the itemsOut accounting). */
inline u64
pendingCount(const PairBatch &batch)
{
    u64 n = 0;
    for (u64 i = 0; i < batch.size; ++i)
        n += batch.route[i] == PairRoute::Pending;
    return n;
}

} // namespace

const char *
stageName(StageId id)
{
    switch (id) {
    case StageId::Seed: return "seed";
    case StageId::Query: return "query";
    case StageId::PaFilter: return "pa_filter";
    case StageId::LightAlign: return "light_align";
    case StageId::Fallback: return "fallback";
    }
    return "?";
}

void
PairTraceRecord::writeText(std::ostream &os) const
{
    os << 'P';
    for (std::size_t s = 0; s < 6; ++s)
        os << ' ' << seedHash[s] << ' ' << locCount[s];
    os << ' ' << static_cast<u32>(route) << ' ' << filterIterations
       << ' ' << lightAligns << '\n';
}

void
PairBatch::bind(const genomics::ReadPair *p, u64 n,
                genomics::PairMapping *o, PairTraceRecord *t)
{
    pairs = p;
    size = n;
    out = o;
    trace = t;
    if (rc1.size() < n) {
        rc1.resize(n);
        rc2.resize(n);
    }
    seeds.resize(4 * n);
    route.assign(n, PairRoute::Pending);
    if (lightLeft.size() < 2 * n) {
        lightLeft.resize(2 * n);
        lightRight.resize(2 * n);
    }
    lightLeftValid.assign(2 * n, 0);
    lightRightValid.assign(2 * n, 0);
}

void
runSeedStage(const StageContext &ctx, PairBatch &batch)
{
    StageCounters &sc = counters(ctx, StageId::Seed);
    ++sc.batches;
    sc.itemsIn += batch.size;
    sc.itemsOut += batch.size;

    for (u64 i = 0; i < batch.size; ++i) {
        ++ctx.stats.pairsTotal;
        const genomics::ReadPair &pair = batch.pairs[i];
        batch.rc1[i].assignRevComp(pair.first.seq);
        batch.rc2[i].assignRevComp(pair.second.seq);
        batch.seeds[4 * i + 0] = ctx.seeder.extract(pair.first.seq);
        batch.seeds[4 * i + 1] = ctx.seeder.extract(batch.rc2[i]);
        batch.seeds[4 * i + 2] = ctx.seeder.extract(pair.second.seq);
        batch.seeds[4 * i + 3] = ctx.seeder.extract(batch.rc1[i]);
    }
}

void
runQueryStage(const StageContext &ctx, PairBatch &batch)
{
    StageCounters &sc = counters(ctx, StageId::Query);
    ++sc.batches;
    sc.itemsIn += batch.size;

    batch.candidates.clear();
    batch.candOffsets.clear();
    batch.candOffsets.reserve(4 * batch.size + 1);
    batch.candOffsets.push_back(0);

    for (u64 i = 0; i < batch.size; ++i) {
        u64 total = 0;
        for (u32 lane = 0; lane < 4; ++lane) {
            total += queryCandidatesInto(ctx.map,
                                         batch.seeds[4 * i + lane],
                                         ctx.stats.query,
                                         batch.candidates);
            batch.candOffsets.push_back(batch.candidates.size());
        }
        // Fallback exit 1: the SeedMap query produced no location at
        // all (across both orientations).
        if (total == 0)
            batch.route[i] = PairRoute::SeedMiss;

        if (batch.trace) {
            // The orientation-A seed stream (lanes 0 and 1) is what the
            // Partitioned Seeding hardware emits; record raw location
            // list lengths exactly like hwsim::buildWorkload().
            PairTraceRecord &tr = batch.trace[i];
            for (u32 s = 0; s < 3; ++s) {
                const Seed &a = batch.seeds[4 * i + 0][s];
                const Seed &b = batch.seeds[4 * i + 1][s];
                tr.seedHash[s] = a.hash;
                tr.locCount[s] =
                    static_cast<u32>(ctx.map.lookup(a.hash).size());
                tr.seedHash[s + 3] = b.hash;
                tr.locCount[s + 3] =
                    static_cast<u32>(ctx.map.lookup(b.hash).size());
            }
        }
    }
    sc.itemsOut += pendingCount(batch);
}

void
runPaFilterStage(const StageContext &ctx, PairBatch &batch)
{
    StageCounters &sc = counters(ctx, StageId::PaFilter);
    ++sc.batches;
    sc.itemsIn += batch.size;

    batch.candidatePairs.clear();
    batch.pairOffsets.clear();
    batch.pairOffsets.reserve(2 * batch.size + 1);
    batch.pairOffsets.push_back(0);

    for (u64 i = 0; i < batch.size; ++i) {
        const u64 itersBefore = ctx.stats.query.filterIterations;
        u64 survivors = 0;
        for (u32 o = 0; o < 2; ++o) {
            const u64 leftBegin = batch.candOffsets[4 * i + 2 * o];
            const u64 leftEnd = batch.candOffsets[4 * i + 2 * o + 1];
            const u64 rightEnd = batch.candOffsets[4 * i + 2 * o + 2];
            std::size_t cnt = pairedAdjacencyFilterInto(
                batch.candidates.data() + leftBegin, leftEnd - leftBegin,
                batch.candidates.data() + leftEnd, rightEnd - leftEnd,
                ctx.params.delta, ctx.stats.query, batch.candidatePairs);
            ctx.stats.candidatePairs += cnt;
            survivors += cnt;
            batch.pairOffsets.push_back(batch.candidatePairs.size());
        }
        // Fallback exit 2: no candidate pair within delta.
        if (batch.route[i] == PairRoute::Pending && survivors == 0)
            batch.route[i] = PairRoute::PaMiss;
        if (batch.trace)
            batch.trace[i].filterIterations = static_cast<u32>(
                ctx.stats.query.filterIterations - itersBefore);
    }
    sc.itemsOut += pendingCount(batch);
}

namespace {

/** SS8 gate consult; a rejection is counted and skips the side. */
inline bool
gateAdmits(const StageContext &ctx, const DnaSequence &read,
           GlobalPos candidate)
{
    if (!ctx.gate || ctx.gate->admit(read, candidate))
        return true;
    ++ctx.stats.gateRejected;
    return false;
}

/** Read planes of one pair-side, built once and shared per candidate. */
inline const align::BitPlanes &
leftPlanes(PairBatch &batch, u64 i, u32 o)
{
    align::BitPlanes &planes = batch.lightLeft[2 * i + o];
    if (!batch.lightLeftValid[2 * i + o]) {
        planes.assign(*orientation(batch, i, o).left);
        batch.lightLeftValid[2 * i + o] = 1;
    }
    return planes;
}

inline const align::BitPlanes &
rightPlanes(PairBatch &batch, u64 i, u32 o)
{
    align::BitPlanes &planes = batch.lightRight[2 * i + o];
    if (!batch.lightRightValid[2 * i + o]) {
        planes.assign(*orientation(batch, i, o).right);
        batch.lightRightValid[2 * i + o] = 1;
    }
    return planes;
}

} // namespace

void
runLightAlignStage(const StageContext &ctx, PairBatch &batch)
{
    StageCounters &sc = counters(ctx, StageId::LightAlign);
    ++sc.batches;

    // Evaluate the shifted-mask filter for whole lane groups of
    // candidates per vector register. Each budgeted candidate attempts
    // its left side, and its right side only where the left aligned;
    // two phased sweeps keep that attempt set. An installed gate (paper
    // SS8) is consulted before either side is staged, and a side it
    // rejects is never attempted.
    struct CandRef
    {
        u64 pair;
        u64 cand; ///< index into batch.candidatePairs
        u32 orient;
    };
    std::vector<CandRef> cands;
    std::vector<LightBatchItem> leftItems;
    for (u64 i = 0; i < batch.size; ++i) {
        if (batch.route[i] != PairRoute::Pending)
            continue;
        ++sc.itemsIn;
        for (u32 o = 0; o < 2; ++o) {
            u32 budget = ctx.params.maxCandidatePairs;
            const u64 begin = batch.pairOffsets[2 * i + o];
            const u64 end = batch.pairOffsets[2 * i + o + 1];
            for (u64 c = begin; c < end; ++c) {
                if (budget-- == 0)
                    break;
                const GlobalPos start = batch.candidatePairs[c].leftStart;
                if (!gateAdmits(ctx, *orientation(batch, i, o).left, start))
                    continue;
                cands.push_back({ i, c, o });
                leftItems.push_back({ &leftPlanes(batch, i, o), start });
            }
        }
    }

    std::vector<LightResult> leftRes(cands.size());
    ctx.light.alignBatch(leftItems.data(), leftItems.size(),
                         batch.lightBatch, leftRes.data());

    std::vector<LightBatchItem> rightItems;
    std::vector<std::size_t> rightSlot(cands.size(), SIZE_MAX);
    for (std::size_t t = 0; t < cands.size(); ++t) {
        ++ctx.stats.lightAlignsAttempted;
        ctx.stats.lightHypotheses += leftRes[t].hypothesesTried;
        if (!leftRes[t].aligned)
            continue;
        const CandRef &ref = cands[t];
        const GlobalPos start = batch.candidatePairs[ref.cand].rightStart;
        if (!gateAdmits(ctx, *orientation(batch, ref.pair, ref.orient).right,
                        start))
            continue;
        rightSlot[t] = rightItems.size();
        rightItems.push_back(
            { &rightPlanes(batch, ref.pair, ref.orient), start });
    }
    std::vector<LightResult> rightRes(rightItems.size());
    ctx.light.alignBatch(rightItems.data(), rightItems.size(),
                         batch.lightBatch, rightRes.data());
    for (const LightResult &r : rightRes) {
        ++ctx.stats.lightAlignsAttempted;
        ctx.stats.lightHypotheses += r.hypothesesTried;
    }

    // Selection replay, per pair in candidate-visit order.
    std::size_t t = 0;
    for (u64 i = 0; i < batch.size; ++i) {
        if (batch.route[i] != PairRoute::Pending)
            continue;

        struct Best
        {
            bool found = false;
            i64 score = 0;
            LightResult left;
            LightResult right;
            bool read1IsLeft = true;
        } best;

        u32 pairAttempts = 0;
        for (; t < cands.size() && cands[t].pair == i; ++t) {
            ++pairAttempts;
            // Unstaged right side: the left failed or the gate refused.
            if (rightSlot[t] == SIZE_MAX)
                continue;
            ++pairAttempts; // the right side was attempted too
            const LightResult &la = leftRes[t];
            const LightResult &ra = rightRes[rightSlot[t]];
            if (!ra.aligned)
                continue;
            i64 score = static_cast<i64>(la.score) + ra.score;
            if (!best.found || score > best.score) {
                best.found = true;
                best.score = score;
                best.left = la;
                best.right = ra;
                best.read1IsLeft = cands[t].orient == 0;
            }
        }

        if (batch.trace)
            batch.trace[i].lightAligns = pairAttempts;

        if (best.found) {
            ++ctx.stats.lightAligned;
            ++sc.itemsOut;
            batch.route[i] = PairRoute::LightAligned;
            PairMapping &pm = batch.out[i];
            pm = {};
            pm.path = MappingPath::LightAligned;
            Mapping leftMap, rightMap;
            leftMap.mapped = true;
            leftMap.pos = best.left.pos;
            leftMap.score = best.left.score;
            leftMap.cigar = best.left.cigar;
            leftMap.reverse = false;
            rightMap.mapped = true;
            rightMap.pos = best.right.pos;
            rightMap.score = best.right.score;
            rightMap.cigar = best.right.cigar;
            rightMap.reverse = true;
            if (best.read1IsLeft) {
                pm.first = std::move(leftMap);
                pm.second = std::move(rightMap);
            } else {
                // Orientation B: read 2 maps forward, read 1 reverse.
                pm.second = std::move(leftMap);
                pm.first = std::move(rightMap);
            }
        } else {
            // Fallback exit 3: light alignment rejected every candidate.
            ++ctx.stats.lightAlignFallback;
            batch.route[i] = PairRoute::LightFallback;
        }
    }
}

void
runFallbackStage(const StageContext &ctx, PairBatch &batch)
{
    StageCounters &sc = counters(ctx, StageId::Fallback);
    ++sc.batches;
    FallbackLists &fl = batch.fallback;

    // Pass 1: classify routed pairs so the whole batch's DP work can
    // run as one interleaved sweep (the engine fills its lanes across
    // pair and class boundaries). Pairs without a fallback engine
    // resolve to Unmapped here, exactly as before.
    fl.fullDp.clear();
    fl.exit3.clear();
    for (u64 i = 0; i < batch.size; ++i) {
        const PairRoute route = batch.route[i];
        if (route == PairRoute::LightAligned)
            continue;
        ++sc.itemsIn;
        if (batch.trace)
            batch.trace[i].route = route;

        if (route == PairRoute::SeedMiss || route == PairRoute::PaMiss) {
            if (route == PairRoute::SeedMiss)
                ++ctx.stats.seedMissFallback;
            else
                ++ctx.stats.paFilterFallback;
        }
        if (!ctx.fallback) {
            ++ctx.stats.unmapped;
            PairMapping &pm = batch.out[i];
            pm = {};
            pm.path = MappingPath::Unmapped;
            continue;
        }
        if (route == PairRoute::SeedMiss || route == PairRoute::PaMiss)
            fl.fullDp.push_back(i);
        else
            fl.exit3.push_back(i);
    }
    if (fl.fullDp.empty() && fl.exit3.empty())
        return;

    // Plan: the distinct chain windows of every full-DP pair (pairs
    // GenPair could not narrow down), then a left and a right window
    // for every budgeted candidate of the exit-3 pairs (DP at known
    // candidates, no seeding or chaining). The per-pair path aligned a
    // right window only where its left passed minDpScore; here the
    // right is aligned speculatively and its result, and its cells,
    // are used only where the left passed, so every mapping and
    // counter is unchanged.
    fl.tasks.clear();
    fl.fullDpPairs.clear();
    for (u64 i : fl.fullDp)
        fl.fullDpPairs.push_back(&batch.pairs[i]);
    ctx.fallback->planPairs(fl.fullDpPairs.data(), fl.fullDpPairs.size(),
                            fl.tasks);
    const std::size_t candBase = fl.tasks.size();
    fl.candidates.clear();
    for (u64 i : fl.exit3) {
        for (u32 o = 0; o < 2; ++o) {
            const OrientRefs refs = orientation(batch, i, o);
            u32 budget = std::max<u32>(4, ctx.params.maxCandidatePairs / 4);
            const u64 begin = batch.pairOffsets[2 * i + o];
            const u64 end = batch.pairOffsets[2 * i + o + 1];
            for (u64 c = begin; c < end; ++c) {
                if (budget-- == 0)
                    break;
                const CandidatePair &cp = batch.candidatePairs[c];
                FallbackLists::Candidate cand{ i, o, 0, 0 };
                cand.leftWindow = ctx.fallback->alignAtTask(
                    *refs.left, cp.leftStart, ctx.params.dpSlack,
                    fl.tasks.emplace_back());
                cand.rightWindow = ctx.fallback->alignAtTask(
                    *refs.right, cp.rightStart, ctx.params.dpSlack,
                    fl.tasks.emplace_back());
                fl.candidates.push_back(cand);
            }
        }
    }

    // One sweep for the batch.
    fl.results.resize(fl.tasks.size());
    ctx.fallback->alignTasks(fl.tasks.data(), fl.tasks.size(),
                             fl.results.data());

    fl.fullDpOut.resize(fl.fullDp.size());
    ctx.fallback->finishPairs(fl.results.data(), fl.fullDpOut.data());
    for (std::size_t k = 0; k < fl.fullDp.size(); ++k) {
        PairMapping &pm = batch.out[fl.fullDp[k]];
        pm = std::move(fl.fullDpOut[k]);
        pm.path = MappingPath::FullDpFallback;
        if (ctx.stats.countFullDp(pm))
            ++sc.itemsOut;
    }

    // Exit-3 selection replay, per pair in candidate-visit order.
    std::size_t t = 0;
    for (u64 i : fl.exit3) {
        struct DpBest
        {
            bool found = false;
            i64 score = 0;
            Mapping left;
            Mapping right;
            bool read1IsLeft = true;
        } dpBest;

        for (; t < fl.candidates.size() && fl.candidates[t].pair == i;
             ++t) {
            const FallbackLists::Candidate &cand = fl.candidates[t];
            align::AlignResult *res = &fl.results[candBase + 2 * t];
            Mapping lm = ctx.fallback->alignAtResult(std::move(res[0]),
                                                     cand.leftWindow);
            if (!lm.mapped || lm.score < ctx.params.minDpScore)
                continue;
            Mapping rm = ctx.fallback->alignAtResult(std::move(res[1]),
                                                     cand.rightWindow);
            if (!rm.mapped || rm.score < ctx.params.minDpScore)
                continue;
            i64 score = static_cast<i64>(lm.score) + rm.score;
            if (!dpBest.found || score > dpBest.score) {
                dpBest.found = true;
                dpBest.score = score;
                dpBest.left = std::move(lm);
                dpBest.right = std::move(rm);
                dpBest.read1IsLeft = cand.orient == 0;
            }
        }

        PairMapping &pm = batch.out[i];
        pm = {};
        if (dpBest.found) {
            ++ctx.stats.dpAligned;
            ++sc.itemsOut;
            pm.path = MappingPath::DpAlignFallback;
            dpBest.left.reverse = false;
            dpBest.right.reverse = true;
            if (dpBest.read1IsLeft) {
                pm.first = std::move(dpBest.left);
                pm.second = std::move(dpBest.right);
            } else {
                pm.second = std::move(dpBest.left);
                pm.first = std::move(dpBest.right);
            }
        } else {
            ++ctx.stats.unmapped;
            pm.path = MappingPath::Unmapped;
        }
    }
}

void
runStageGraph(const StageContext &ctx, PairBatch &batch)
{
    runSeedStage(ctx, batch);
    runQueryStage(ctx, batch);
    runPaFilterStage(ctx, batch);
    runLightAlignStage(ctx, batch);
    runFallbackStage(ctx, batch);
    if (batch.trace) {
        // LightAligned pairs never reach the fallback stage; stamp
        // their final route here so every record is complete.
        for (u64 i = 0; i < batch.size; ++i)
            if (batch.route[i] == PairRoute::LightAligned)
                batch.trace[i].route = PairRoute::LightAligned;
    }
}

} // namespace genpair
} // namespace gpx
