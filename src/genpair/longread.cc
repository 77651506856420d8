#include "genpair/longread.hh"

#include <algorithm>
#include <map>
#include <ostream>

#include "util/logging.hh"

namespace gpx {
namespace genpair {

using genomics::DnaSequence;
using genomics::Mapping;
using genomics::Read;

LongReadMapper::LongReadMapper(const genomics::Reference &ref,
                               const SeedMapView &map,
                               const LongReadParams &params,
                               baseline::Mm2Lite *dp)
    : ref_(ref), map_(map), params_(params), seeder_(map), dp_(dp)
{
    gpx_assert(dp_, "long-read mapping requires the DP engine");
}

std::vector<std::pair<GlobalPos, u32>>
LongReadMapper::voteCandidates(const DnaSequence &seq)
{
    const u32 seg = params_.segmentLen;
    std::map<u64, u32> votes; // bucketed candidate read start -> count

    u64 numSegments = seq.size() / seg;
    for (u64 s = 0; s + 1 < numSegments; ++s) {
        ++stats_.pseudoPairs;
        u64 off1 = s * seg;
        u64 off2 = (s + 1) * seg;
        DnaSequence seg1 = seq.sub(off1, seg);
        DnaSequence seg2 = seq.sub(off2, seg);
        auto left = queryCandidates(map_, seeder_.extract(seg1),
                                    stats_.query);
        auto right = queryCandidates(map_, seeder_.extract(seg2),
                                     stats_.query);
        auto cands = pairedAdjacencyFilter(left, right, params_.delta,
                                           stats_.query);
        for (const auto &c : cands) {
            if (c.leftStart < off1)
                continue;
            u64 start = c.leftStart - off1;
            votes[start / params_.voteBucket] += 1;
            ++stats_.votes;
        }
    }

    std::vector<std::pair<GlobalPos, u32>> out;
    for (const auto &[bucket, count] : votes) {
        if (count >= params_.minVotes)
            out.push_back({ bucket * params_.voteBucket, count });
    }
    std::sort(out.begin(), out.end(),
              [](const auto &a, const auto &b) {
                  return a.second > b.second;
              });
    if (out.size() > 4)
        out.resize(4);
    return out;
}

Mapping
LongReadMapper::alignAtStart(const DnaSequence &seq, GlobalPos start)
{
    Mapping out;
    genomics::Cigar stitched;
    i64 total = 0;
    u64 consumedRef = 0;
    GlobalPos firstPos = kInvalidPos;

    const auto &scoring = dp_->params().scoring;
    for (u64 off = 0; off < seq.size(); off += params_.chunkLen) {
        u64 len = std::min<u64>(params_.chunkLen, seq.size() - off);
        DnaSequence chunk = seq.sub(off, len);
        // Track reference drift from previously consumed chunks so INDELs
        // accumulate correctly along the read.
        GlobalPos expect = firstPos == kInvalidPos ? start + off
                                                   : firstPos + consumedRef;
        Mapping m = dp_->alignAt(chunk, expect, params_.chunkSlack);
        i32 minScore = scoring.perfectScore(static_cast<u32>(len)) *
                       params_.minChunkScoreFrac / 100;
        if (!m.mapped || m.score < minScore)
            return {}; // a failed chunk rejects this candidate region
        if (firstPos == kInvalidPos) {
            firstPos = m.pos;
            consumedRef = 0;
        }
        consumedRef = m.pos + m.cigar.refSpan() - firstPos;
        total += m.score;
        for (const auto &e : m.cigar.elems())
            stitched.push(e.op, e.len);
    }

    out.mapped = true;
    out.pos = firstPos;
    out.score = static_cast<i32>(total);
    out.cigar = std::move(stitched);
    return out;
}

Mapping
LongReadMapper::mapRead(const Read &read)
{
    ++stats_.readsTotal;
    DnaSequence fwd = read.seq;
    DnaSequence rc = read.seq.revComp();

    struct Candidate
    {
        GlobalPos start;
        u32 votes;
        bool reverse;
    };
    std::vector<Candidate> cands;
    for (const auto &[pos, votes] : voteCandidates(fwd))
        cands.push_back({ pos, votes, false });
    for (const auto &[pos, votes] : voteCandidates(rc))
        cands.push_back({ pos, votes, true });
    std::sort(cands.begin(), cands.end(),
              [](const Candidate &a, const Candidate &b) {
                  return a.votes > b.votes;
              });

    u64 before = dp_->dpWork().alignCells;
    Mapping best;
    for (const auto &c : cands) {
        const DnaSequence &seq = c.reverse ? rc : fwd;
        Mapping m = alignAtStart(seq, c.start);
        if (m.mapped && (!best.mapped || m.score > best.score)) {
            best = std::move(m);
            best.reverse = c.reverse;
        }
    }
    stats_.dpCells += dp_->dpWork().alignCells - before;

    if (best.mapped)
        ++stats_.mapped;
    else
        ++stats_.unmapped;
    return best;
}

namespace {

/** Per-worker long-read engines (DP + voting mapper). */
struct LongReadWorkerContext : WorkerContext
{
    u32 slot;
    baseline::Mm2Lite dp;
    LongReadMapper mapper;

    LongReadWorkerContext(
        u32 worker_slot, const genomics::Reference &ref,
        const SeedMapView &map, const LongReadParams &params,
        const baseline::Mm2LiteParams &dp_params,
        std::shared_ptr<const baseline::MinimizerIndex> index)
        : slot(worker_slot), dp(ref, dp_params, std::move(index)),
          mapper(ref, map, params, &dp)
    {
    }
};

} // namespace

LongReadDriver::LongReadDriver(const genomics::Reference &ref,
                               const SeedMapView &map,
                               const LongReadParams &params,
                               const baseline::Mm2LiteParams &dp_params,
                               u32 threads)
    : ref_(ref), map_(map), params_(params), dpParams_(dp_params)
{
    sharedIndex_ = std::make_shared<const baseline::MinimizerIndex>(
        ref, dpParams_.minimizers);
    engine_ = std::make_unique<MapperEngine>(
        threads,
        [this](u32 slot) {
            return std::make_unique<LongReadWorkerContext>(
                slot, ref_, map_, params_, dpParams_, sharedIndex_);
        },
        // Long reads are ~60x the work of a short pair; a finer grain
        // keeps the cursor balanced.
        /*block_items=*/4);
}

LongReadResult
LongReadDriver::mapAll(const std::vector<genomics::Read> &reads)
{
    LongReadResult result;
    result.mappings.resize(reads.size());

    // Per-slot stats sink of this job, as in ParallelMapper::mapAll.
    std::vector<LongReadStats> slotStats(engine_->threads());
    const genomics::Read *in = reads.data();
    genomics::Mapping *out = result.mappings.data();
    result.timing = engine_->run(
        reads.size(), [&](WorkerContext &wc, u64 begin, u64 end) {
            auto &ctx = static_cast<LongReadWorkerContext &>(wc);
            ctx.mapper.resetStats();
            for (u64 i = begin; i < end; ++i)
                out[i] = ctx.mapper.mapRead(in[i]);
            slotStats[ctx.slot] += ctx.mapper.stats();
        });
    for (const auto &stats : slotStats)
        result.stats += stats;
    return result;
}

void
writeLongReadStatsJson(std::ostream &os, const LongReadStats &stats,
                       u64 ambiguous_bases)
{
    os << "{\n"
       << "  \"reads_total\": " << stats.readsTotal << ",\n"
       << "  \"mapped\": " << stats.mapped << ",\n"
       << "  \"unmapped\": " << stats.unmapped << ",\n"
       << "  \"pseudo_pairs\": " << stats.pseudoPairs << ",\n"
       << "  \"votes\": " << stats.votes << ",\n"
       << "  \"dp_cells\": " << stats.dpCells << ",\n"
       << "  \"query\": {\"seed_lookups\": " << stats.query.seedLookups
       << ", \"locations_fetched\": " << stats.query.locationsFetched
       << ", \"filter_iterations\": " << stats.query.filterIterations
       << "},\n"
       << "  \"ingest\": {\"ambiguous_bases\": " << ambiguous_bases
       << "}\n}\n";
}

} // namespace genpair
} // namespace gpx
