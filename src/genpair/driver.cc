#include "genpair/driver.hh"

#include <algorithm>

#include "util/logging.hh"

namespace gpx {
namespace genpair {

namespace {

/** Per-worker engines: DP fallback + stage-graph pipeline. */
struct PairWorkerContext : WorkerContext
{
    u32 slot;
    baseline::Mm2Lite fallback;
    GenPairPipeline pipeline;

    PairWorkerContext(
        u32 worker_slot, const genomics::Reference &ref,
        const SeedMapView &map, const DriverConfig &config,
        std::shared_ptr<const baseline::MinimizerIndex> index)
        : slot(worker_slot),
          fallback(ref, config.fallback, std::move(index)),
          pipeline(ref, map, config.pipeline, &fallback)
    {
    }
};

} // namespace

ParallelMapper::ParallelMapper(const genomics::Reference &ref,
                               const SeedMapView &map,
                               const DriverConfig &config)
    : ref_(ref), map_(map), config_(config)
{
    // The MM2-lite baseline path never fills trace records; a trace of
    // all-zero (Pending) routes would be silently unreplayable.
    gpx_assert(!config_.recordTrace || config_.useGenPair,
               "recordTrace records GenPair stage events; it requires "
               "useGenPair");
    sharedIndex_ = std::make_shared<const baseline::MinimizerIndex>(
        ref, config_.fallback.minimizers);
    engine_ = std::make_unique<MapperEngine>(
        config_.threads, [this](u32 slot) {
            return std::make_unique<PairWorkerContext>(
                slot, ref_, map_, config_, sharedIndex_);
        });
}

DriverResult
ParallelMapper::mapAll(const std::vector<genomics::ReadPair> &pairs)
{
    DriverResult result;
    result.mappings.resize(pairs.size());
    if (config_.recordTrace)
        result.trace.resize(pairs.size());

    const genomics::ReadPair *in = pairs.data();
    genomics::PairMapping *out = result.mappings.data();
    PairTraceRecord *trace =
        config_.recordTrace ? result.trace.data() : nullptr;
    const bool useGenPair = config_.useGenPair;

    // This job's stats sink: each block adds its counters to its
    // worker slot's entry, so concurrent jobs never share a counter.
    std::vector<PipelineStats> slotStats(engine_->threads());
    result.timing = engine_->run(
        pairs.size(), [&](WorkerContext &wc, u64 begin, u64 end) {
            auto &ctx = static_cast<PairWorkerContext &>(wc);
            if (useGenPair) {
                ctx.pipeline.resetStats();
                ctx.pipeline.mapBatch(in + begin, end - begin,
                                      out + begin,
                                      trace ? trace + begin : nullptr);
                slotStats[ctx.slot] += ctx.pipeline.stats();
            } else {
                // MM2-lite end to end: one DP sweep per block, and
                // every pair a full-DP pair.
                ctx.fallback.mapPairs(in + begin, end - begin,
                                      out + begin);
                PipelineStats &st = slotStats[ctx.slot];
                st.pairsTotal += end - begin;
                for (u64 i = begin; i < end; ++i)
                    st.countFullDp(out[i]);
            }
        });
    for (const auto &stats : slotStats)
        result.stats += stats;
    return result;
}

} // namespace genpair
} // namespace gpx
