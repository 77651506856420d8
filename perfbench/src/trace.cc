#include "trace.hh"

#include <algorithm>
#include <fstream>
#include <unordered_map>

#include "bench.hh"
#include "util/logging.hh"

namespace gpx {
namespace perfbench {

const char *
layerName(Layer layer)
{
    switch (layer) {
    case Layer::SetupFasta: return "setup.fasta_load";
    case Layer::SetupIndex: return "setup.index_open";
    case Layer::SetupMinimizer: return "setup.minimizer_build";
    case Layer::SetupMapper: return "setup.mapper_start";
    case Layer::IngestScan: return "ingest.scan";
    case Layer::IngestParse: return "ingest.parse";
    case Layer::EngineJob: return "engine.job";
    case Layer::EngineBlock: return "engine.block";
    case Layer::StageSeed: return "stage.seed";
    case Layer::StageQuery: return "stage.query";
    case Layer::StagePaFilter: return "stage.pa_filter";
    case Layer::StageLightAlign: return "stage.light_align";
    case Layer::StageFallback: return "stage.fallback";
    case Layer::SamRender: return "sam.render";
    case Layer::ServeRequest: return "serve.request";
    case Layer::kCount: break;
    }
    return "?";
}

void
Tracer::adopt(std::vector<Span> &spans)
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.insert(spans_.end(), spans.begin(), spans.end());
    spans.clear();
}

std::vector<Span>
Tracer::take()
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> out;
    out.swap(spans_);
    return out;
}

void
Tracer::append(const std::string &path, const std::vector<Span> &spans)
{
    std::ofstream os(path, std::ios::app);
    if (!os)
        gpx_fatal("cannot write ", path);
    for (const Span &s : spans)
        os << s.trace << '\t' << s.id << '\t' << s.parent << '\t'
           << layerName(s.layer) << '\t' << s.thread << '\t' << s.startNs
           << '\t' << s.endNs << '\n';
    os.flush();
    if (!os)
        gpx_fatal("write to ", path, " failed");
}

namespace {

/** Length of the union of @p iv clipped to [lo, hi]. */
i64
coveredNs(std::vector<std::pair<i64, i64>> &iv, i64 lo, i64 hi)
{
    std::sort(iv.begin(), iv.end());
    i64 covered = 0;
    i64 curStart = 0, curEnd = 0;
    bool open = false;
    for (auto [s, e] : iv) {
        s = std::max(s, lo);
        e = std::min(e, hi);
        if (e <= s)
            continue;
        if (open && s <= curEnd) {
            curEnd = std::max(curEnd, e);
            continue;
        }
        if (open)
            covered += curEnd - curStart;
        curStart = s;
        curEnd = e;
        open = true;
    }
    if (open)
        covered += curEnd - curStart;
    return covered;
}

} // namespace

LayerTotals
sumLayers(const std::vector<Span> &spans)
{
    std::unordered_map<u64, std::vector<std::pair<i64, i64>>> children;
    for (const Span &s : spans)
        if (s.parent != 0)
            children[s.parent].emplace_back(s.startNs, s.endNs);

    LayerTotals t;
    for (const Span &s : spans) {
        i64 self = s.endNs - s.startNs;
        auto it = children.find(s.id);
        if (it != children.end())
            self -= coveredNs(it->second, s.startNs, s.endNs);
        t.selfS[static_cast<std::size_t>(s.layer)] += self * 1e-9;
    }
    return t;
}

EngineTotals
sumEngine(const std::vector<Span> &spans, u32 threads)
{
    std::unordered_map<u64, std::vector<const Span *>> blocksOf;
    std::vector<double> blockUs;
    double blockS = 0;
    for (const Span &s : spans) {
        if (s.layer != Layer::EngineBlock)
            continue;
        blocksOf[s.parent].push_back(&s);
        blockUs.push_back((s.endNs - s.startNs) * 1e-3);
        blockS += (s.endNs - s.startNs) * 1e-9;
    }

    EngineTotals t;
    t.blocks = blockUs.size();
    t.blockP50Us = quantile(blockUs, 0.50);
    t.blockP99Us = quantile(blockUs, 0.99);
    double jobS = 0;
    for (const Span &job : spans) {
        if (job.layer != Layer::EngineJob)
            continue;
        jobS += (job.endNs - job.startNs) * 1e-9;
        // A worker goes idle after its last block of the job; one that
        // claimed no block was idle from the start.
        std::unordered_map<u32, i64> lastEnd;
        for (const Span *b : blocksOf[job.id])
            lastEnd[b->thread] = std::max(lastEnd[b->thread], b->endNs);
        i64 firstIdle = job.endNs;
        if (lastEnd.size() < threads)
            firstIdle = job.startNs;
        for (const auto &[thread, end] : lastEnd)
            firstIdle = std::min(firstIdle, end);
        t.tailS += (job.endNs - firstIdle) * 1e-9;
    }
    t.busyFrac = jobS > 0 ? blockS / (threads * jobS) : 0;
    return t;
}

} // namespace perfbench
} // namespace gpx
