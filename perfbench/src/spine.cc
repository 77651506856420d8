#include "spine.hh"

#include <atomic>
#include <map>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hh"
#include "genomics/fastq_ingest.hh"
#include "genpair/pipeline.hh"
#include "genpair/stages.hh"
#include "util/byte_stream.hh"
#include "util/channel.hh"
#include "util/gzip_stream.hh"

namespace gpx {
namespace perfbench {

namespace {

/** Per-worker engines, as ParallelMapper's PairWorkerContext builds
 *  them, plus the worker's span buffer. */
struct TracedWorker : genpair::WorkerContext
{
    baseline::Mm2Lite fallback;
    genpair::PartitionedSeeder seeder;
    genpair::LightAligner light;
    genpair::PipelineStats stats;
    genpair::PairBatch batch;
    std::vector<Span> spans;
    u32 slot;

    TracedWorker(const genomics::Reference &ref,
                 const genpair::SeedMapView &view,
                 const genpair::DriverConfig &config,
                 std::shared_ptr<const baseline::MinimizerIndex> index,
                 u32 worker_slot)
        : fallback(ref, config.fallback, std::move(index)), seeder(view),
          light(ref, config.pipeline.light), slot(worker_slot)
    {
    }
};

struct MappedChunk
{
    u64 seq = 0;
    std::vector<genomics::ReadPair> pairs;
    std::vector<genomics::PairMapping> mappings;
    std::string error;
};

using StageFn = void (*)(const genpair::StageContext &,
                         genpair::PairBatch &);

constexpr std::pair<Layer, StageFn> kStages[] = {
    { Layer::StageSeed, genpair::runSeedStage },
    { Layer::StageQuery, genpair::runQueryStage },
    { Layer::StagePaFilter, genpair::runPaFilterStage },
    { Layer::StageLightAlign, genpair::runLightAlignStage },
    { Layer::StageFallback, genpair::runFallbackStage },
};

} // namespace

TracedMapper::TracedMapper(const genomics::Reference &ref,
                           const genpair::SeedMapView &view,
                           const genpair::DriverConfig &config,
                           Tracer &tracer)
    : ref_(ref), view_(view), config_(config), tracer_(tracer)
{
    std::vector<Span> spans;
    const i64 t0 = nowNs();
    index_ = std::make_shared<const baseline::MinimizerIndex>(
        ref_, config_.fallback.minimizers);
    const i64 t1 = nowNs();
    spans.push_back({ tracer_.newId(), 0, 0, t0, t1, 0,
                      Layer::SetupMinimizer });
    engine_ = std::make_unique<genpair::MapperEngine>(
        config_.threads, [this](u32 slot) {
            return std::make_unique<TracedWorker>(ref_, view_, config_,
                                                  index_, slot);
        });
    spans.push_back({ tracer_.newId(), 0, 0, t1, nowNs(), 0,
                      Layer::SetupMapper });
    tracer_.adopt(spans);
}

void
TracedMapper::mapChunk(const std::vector<genomics::ReadPair> &pairs,
                       std::vector<genomics::PairMapping> &out, u64 trace,
                       std::vector<Span> &spans)
{
    out.resize(pairs.size());
    const genomics::ReadPair *in = pairs.data();
    genomics::PairMapping *res = out.data();
    const u64 jobId = tracer_.newId();
    const i64 jobStart = nowNs();
    engine_->run(pairs.size(), [&](genpair::WorkerContext &wc, u64 begin,
                                   u64 end) {
        auto &w = static_cast<TracedWorker &>(wc);
        const u64 blockId = tracer_.newId();
        const i64 blockStart = nowNs();
        // GenPairPipeline::mapBatch, one stage call at a time.
        w.batch.bind(in + begin, end - begin, res + begin, nullptr);
        const genpair::StageContext ctx{ ref_, view_, config_.pipeline,
                                         w.seeder, w.light, nullptr,
                                         &w.fallback, w.stats };
        i64 t = nowNs();
        for (const auto &[layer, fn] : kStages) {
            fn(ctx, w.batch);
            const i64 t2 = nowNs();
            w.spans.push_back(
                { tracer_.newId(), blockId, trace, t, t2, w.slot, layer });
            t = t2;
        }
        w.spans.push_back(
            { blockId, jobId, trace, blockStart, t, w.slot,
              Layer::EngineBlock });
    });
    spans.push_back({ jobId, 0, trace, jobStart, nowNs(), threads(),
                      Layer::EngineJob });
}

SpineResult
TracedMapper::run(std::istream &r1, std::istream &r2,
                  genomics::SamWriter &sam, u64 chunk_pairs, u32 io_threads,
                  u64 trace_base)
{
    SpineResult result;
    const std::size_t qcap =
        std::max<std::size_t>(2, static_cast<std::size_t>(io_threads) * 2);
    util::Channel<genomics::FastqChunk> rawQ(qcap);
    util::Channel<genomics::ParsedChunk> parsedQ(qcap);
    util::Channel<MappedChunk> mappedQ(2);
    std::atomic<bool> warnedAmbiguous{ false };

    // Span thread ids: workers use their slot, the spine threads follow.
    const u32 spineThread = threads() + 1;

    std::vector<Span> chunkerSpans;
    u64 inputBytes = 0;
    std::thread chunkerThread([&]() {
        util::IstreamSource raw1(r1);
        util::IstreamSource raw2(r2);
        util::AutoInflateSource inflate1(raw1);
        util::AutoInflateSource inflate2(raw2);
        util::PrefetchSource prefetch1(inflate1);
        util::PrefetchSource prefetch2(inflate2);
        genomics::PairedFastqChunker chunker(prefetch1, prefetch2,
                                             chunk_pairs);
        genomics::FastqChunk chunk;
        for (;;) {
            const i64 t0 = nowNs();
            if (!chunker.next(chunk))
                break;
            chunkerSpans.push_back({ tracer_.newId(), 0,
                                     trace_base + chunk.seq, t0, nowNs(),
                                     spineThread, Layer::IngestScan });
            inputBytes += chunk.r1Text.size() + chunk.r2Text.size();
            if (!rawQ.push(std::move(chunk)))
                break;
            chunk = genomics::FastqChunk{};
        }
        rawQ.close();
    });

    std::atomic<u32> parsersLive{ io_threads };
    std::vector<std::vector<Span>> parserSpans(io_threads);
    std::vector<std::thread> parserThreads;
    for (u32 p = 0; p < io_threads; ++p) {
        parserThreads.emplace_back([&, p]() {
            while (auto chunk = rawQ.pop()) {
                const u64 trace = trace_base + chunk->seq;
                const i64 t0 = nowNs();
                genomics::ParsedChunk parsed = genomics::parseFastqChunk(
                    std::move(*chunk), &warnedAmbiguous);
                parserSpans[p].push_back({ tracer_.newId(), 0, trace, t0,
                                           nowNs(), spineThread + 2 + p,
                                           Layer::IngestParse });
                if (!parsedQ.push(std::move(parsed)))
                    break;
            }
            if (parsersLive.fetch_sub(1) == 1)
                parsedQ.close();
        });
    }

    std::vector<Span> writerSpans;
    std::string writeError;
    std::thread writerThread([&]() {
        std::map<u64, MappedChunk> reorder;
        u64 nextSeq = 0;
        bool stopped = false;
        while (auto m = mappedQ.pop()) {
            reorder.emplace(m->seq, std::move(*m));
            while (!stopped) {
                auto it = reorder.find(nextSeq);
                if (it == reorder.end())
                    break;
                MappedChunk chunk = std::move(it->second);
                reorder.erase(it);
                if (!chunk.error.empty()) {
                    writeError = chunk.error;
                    stopped = true;
                    break;
                }
                const i64 t0 = nowNs();
                sam.writePairBatch(chunk.pairs.data(),
                                   chunk.mappings.data(),
                                   chunk.pairs.size());
                writerSpans.push_back({ tracer_.newId(), 0,
                                        trace_base + chunk.seq, t0, nowNs(),
                                        spineThread + 1,
                                        Layer::SamRender });
                if (sam.writeFailed()) {
                    writeError = sam.writeError();
                    stopped = true;
                    break;
                }
                ++nextSeq;
            }
        }
    });

    // The mapping thread's time in its two hand-offs: waiting for parsed
    // input (reader stall) and handing mapped chunks to the writer
    // (writer stall).
    std::vector<Span> mapperSpans;
    double readerStallS = 0, writerStallS = 0;
    for (;;) {
        const i64 t0 = nowNs();
        std::optional<genomics::ParsedChunk> parsed = parsedQ.pop();
        readerStallS += (nowNs() - t0) * 1e-9;
        if (!parsed)
            break;
        MappedChunk m;
        m.seq = parsed->seq;
        if (parsed->error.set()) {
            m.error = parsed->error.message;
            rawQ.close();
        } else {
            mapChunk(parsed->pairs, m.mappings, trace_base + m.seq,
                     mapperSpans);
            result.pairs += parsed->pairs.size();
            ++result.chunks;
            m.pairs = std::move(parsed->pairs);
        }
        const i64 t1 = nowNs();
        mappedQ.push(std::move(m));
        writerStallS += (nowNs() - t1) * 1e-9;
    }
    mappedQ.close();

    writerThread.join();
    rawQ.close();
    chunkerThread.join();
    for (auto &t : parserThreads)
        t.join();

    result.error = writeError;
    result.inputBytes = inputBytes;
    result.readerStallS = readerStallS;
    result.writerStallS = writerStallS;

    tracer_.adopt(chunkerSpans);
    for (auto &spans : parserSpans)
        tracer_.adopt(spans);
    tracer_.adopt(writerSpans);
    tracer_.adopt(mapperSpans);
    engine_->forEachContext([&](genpair::WorkerContext &wc) {
        tracer_.adopt(static_cast<TracedWorker &>(wc).spans);
    });
    return result;
}

genpair::PipelineStats
TracedMapper::stats()
{
    genpair::PipelineStats merged;
    engine_->forEachContext([&](genpair::WorkerContext &wc) {
        merged += static_cast<TracedWorker &>(wc).stats;
    });
    return merged;
}

std::vector<Metric>
replayMetrics(const std::vector<Span> &spans, u32 threads,
              const genpair::PipelineStats &stats, const baseline::DpWork &dp,
              const SpineResult &spine, u64 sam_bytes)
{
    const LayerTotals layers = sumLayers(spans);
    const EngineTotals engine = sumEngine(spans, threads);
    auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    auto stage = [&](genpair::StageId id) {
        return stats.stageCounters(id);
    };
    const double pairs = static_cast<double>(stats.pairsTotal);
    constexpr double kMiB = 1024.0 * 1024.0;

    std::vector<Metric> m;
    auto add = [&](const char *name, double value, const char *unit) {
        m.push_back({ name, value, unit });
    };
    add("setup.fasta_load_s", layers.self(Layer::SetupFasta), "s");
    add("setup.index_open_s", layers.self(Layer::SetupIndex), "s");
    add("setup.minimizer_build_s", layers.self(Layer::SetupMinimizer), "s");
    add("setup.mapper_start_s", layers.self(Layer::SetupMapper), "s");

    const double scanS = layers.self(Layer::IngestScan);
    const double parseS = layers.self(Layer::IngestParse);
    add("ingest.scan_s", scanS, "s");
    add("ingest.parse_s", parseS, "s");
    add("ingest.mib_per_s", ratio(spine.inputBytes / kMiB, scanS + parseS),
        "MiB/s");

    add("spine.reader_stall_s", spine.readerStallS, "s");
    add("spine.writer_stall_s", spine.writerStallS, "s");
    add("spine.chunks", static_cast<double>(spine.chunks), "count");

    add("engine.blocks", static_cast<double>(engine.blocks), "count");
    add("engine.block_p50_us", engine.blockP50Us, "us");
    add("engine.block_p99_us", engine.blockP99Us, "us");
    add("engine.busy_frac", engine.busyFrac, "fraction");
    add("engine.tail_s", engine.tailS, "s");

    using genpair::StageId;
    const std::pair<const char *, StageId> fastStages[] = {
        { "stage.seed", StageId::Seed },
        { "stage.query", StageId::Query },
        { "stage.pa_filter", StageId::PaFilter },
        { "stage.light_align", StageId::LightAlign },
    };
    const Layer fastLayers[] = { Layer::StageSeed, Layer::StageQuery,
                                 Layer::StagePaFilter,
                                 Layer::StageLightAlign };
    for (std::size_t s = 0; s < 4; ++s) {
        const std::string base = fastStages[s].first;
        const genpair::StageCounters &c = stage(fastStages[s].second);
        m.push_back({ base + ".self_s", layers.self(fastLayers[s]), "s" });
        m.push_back({ base + ".pairs_in", static_cast<double>(c.itemsIn),
                      "count" });
        m.push_back({ base + ".pairs_out", static_cast<double>(c.itemsOut),
                      "count" });
        if (fastStages[s].second == StageId::Query)
            add("stage.query.locations_per_pair",
                ratio(static_cast<double>(stats.query.locationsFetched),
                      pairs),
                "count");
        if (fastStages[s].second == StageId::PaFilter)
            add("stage.pa_filter.candidate_pairs_per_pair",
                ratio(static_cast<double>(stats.candidatePairs), pairs),
                "count");
    }
    add("stage.light_align.attempts_per_pair",
        ratio(static_cast<double>(stats.lightAlignsAttempted), pairs),
        "count");
    add("stage.light_align.accept_ratio",
        ratio(static_cast<double>(stats.lightAligned),
              static_cast<double>(stage(StageId::LightAlign).itemsIn)),
        "fraction");

    const genpair::StageCounters &fb = stage(StageId::Fallback);
    const double fallbackS = layers.self(Layer::StageFallback);
    add("stage.fallback.self_s", fallbackS, "s");
    add("stage.fallback.us_per_pair",
        ratio(fallbackS * 1e6, static_cast<double>(fb.itemsIn)), "us");
    add("stage.fallback.full_dp_pairs",
        static_cast<double>(stats.seedMissFallback + stats.paFilterFallback),
        "count");
    add("stage.fallback.dp_at_candidates_pairs",
        static_cast<double>(stats.lightAlignFallback), "count");
    add("stage.fallback.chain_cells", static_cast<double>(dp.chainCells),
        "count");
    add("stage.fallback.align_cells", static_cast<double>(dp.alignCells),
        "count");
    add("stage.fallback.mapped_ratio",
        ratio(static_cast<double>(fb.itemsOut),
              static_cast<double>(fb.itemsIn)),
        "fraction");

    add("sam.render_s", layers.self(Layer::SamRender), "s");
    add("sam.mib", static_cast<double>(sam_bytes) / kMiB, "MiB");
    return m;
}

std::vector<Metric>
medianMetrics(const std::vector<std::vector<Metric>> &runs)
{
    std::vector<Metric> out = runs.at(0);
    for (std::size_t i = 0; i < out.size(); ++i) {
        std::vector<double> values;
        for (const auto &run : runs)
            values.push_back(run.at(i).value);
        out[i].value = median(values);
    }
    return out;
}

baseline::DpWork
TracedMapper::dpWork()
{
    baseline::DpWork merged;
    engine_->forEachContext([&](genpair::WorkerContext &wc) {
        const baseline::DpWork &w =
            static_cast<TracedWorker &>(wc).fallback.dpWork();
        merged.chainCells += w.chainCells;
        merged.alignCells += w.alignCells;
    });
    return merged;
}

} // namespace perfbench
} // namespace gpx
