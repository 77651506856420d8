/**
 * @file
 * The batch workloads: gpx_map's path, FASTQ files in, SAM file out.
 *
 * An untraced pass makes gpx_map's public calls in gpx_map's order:
 * readFasta, SeedMapImage::open, SamWriter header, StreamingMapper
 * construction (the shared minimizer index and the worker pool), then
 * StreamingMapper::run. Everything up to the run is set-up; the run up
 * to the flushed SAM is the mapping window. A traced pass does the same
 * through TracedMapper. Passes repeat until the run's time is used.
 */

#include <algorithm>
#include <fstream>
#include <optional>

#include "bench.hh"
#include "genomics/fasta.hh"
#include "genomics/sam.hh"
#include "genpair/seedmap_io.hh"
#include "genpair/streaming.hh"
#include "spine.hh"
#include "util/logging.hh"
#include "util/md5.hh"
#include "util/timer.hh"

namespace gpx {
namespace perfbench {

namespace {

/** gpx_map's defaults: hardware threads, 65536-pair chunks, 1 parser. */
constexpr u64 kChunkPairs = 65536;
constexpr u32 kIoThreads = 1;

struct Pass
{
    bool traced = false;
    u64 pairs = 0;
    double setupS = 0;
    double mapS = 0;
    double cpuS = 0;
    double jobS = 0;
    double peakRssMib = 0;
    std::vector<Span> spans;    ///< traced passes only
    std::vector<Metric> layers; ///< traced passes only
};

/** Everything gpx_map holds open while it maps. */
struct Inputs
{
    genomics::Reference ref;
    std::ifstream r1;
    std::ifstream r2;
    std::optional<genpair::SeedMapImage> image;
    std::ofstream out;
};

/** readFasta, the FASTQ opens, the image open and the SAM open. */
void
openInputs(const WorkloadFiles &f, Inputs &in, Tracer *tracer)
{
    std::vector<Span> spans;
    const i64 t0 = nowNs();
    std::ifstream refFile(f.ref());
    if (!refFile)
        gpx_fatal("cannot open reference: ", f.ref());
    in.ref = genomics::readFasta(refFile);
    const i64 t1 = nowNs();
    in.r1.open(f.r1());
    in.r2.open(f.r2());
    if (!in.r1 || !in.r2)
        gpx_fatal("cannot open FASTQ in ", f.dir);
    const i64 t2 = nowNs();
    std::string err;
    in.image = genpair::SeedMapImage::open(f.index(), {}, &err);
    if (!in.image)
        gpx_fatal("index image rejected: ", err);
    const i64 t3 = nowNs();
    in.out.open(f.sam(), std::ios::binary | std::ios::trunc);
    if (!in.out)
        gpx_fatal("cannot open output: ", f.sam());
    if (tracer) {
        spans.push_back({ tracer->newId(), 0, 0, t0, t1, 0,
                          Layer::SetupFasta });
        spans.push_back({ tracer->newId(), 0, 0, t2, t3, 0,
                          Layer::SetupIndex });
        tracer->adopt(spans);
    }
}

/**
 * One gpx_map job: set-up, then the mapping window. With @p tracer the
 * job runs through TracedMapper and records spans (trace ids from
 * @p trace_base), otherwise through StreamingMapper.
 */
Pass
runPass(const WorkloadFiles &f, Tracer *tracer, u64 trace_base)
{
    Pass p;
    p.traced = tracer != nullptr;
    resetPeakRss();
    util::Stopwatch job;
    Inputs in;
    openInputs(f, in, tracer);
    genomics::SamWriter sam(in.out, in.ref);
    sam.checkWrites(f.sam(), /*fatal_on_error=*/true);
    sam.writeHeader();
    const genpair::DriverConfig config;
    std::optional<genpair::StreamingMapper> mapper;
    std::optional<TracedMapper> traced;
    if (tracer)
        traced.emplace(in.ref, in.image->view(), config, *tracer);
    else
        mapper.emplace(in.ref, in.image->view(), config, kChunkPairs,
                       kIoThreads);
    p.setupS = job.seconds();

    const double cpu0 = processCpuSeconds();
    SpineResult spine;
    if (traced)
        spine = traced->run(in.r1, in.r2, sam, kChunkPairs, kIoThreads,
                            trace_base);
    else
        spine.pairs = mapper->run(in.r1, in.r2, sam).pairs;
    in.out.flush();
    if (!in.out)
        gpx_fatal("write to ", f.sam(), " failed");
    p.cpuS = processCpuSeconds() - cpu0;
    p.jobS = job.seconds();
    p.mapS = p.jobS - p.setupS;
    p.pairs = spine.pairs;
    p.peakRssMib = peakRssMib();
    if (!spine.error.empty())
        gpx_fatal("traced replay failed: ", spine.error);
    if (traced) {
        p.spans = tracer->take();
        p.layers = replayMetrics(p.spans, traced->threads(), traced->stats(),
                                 traced->dpWork(), spine,
                                 sam.bytesWritten());
    }
    return p;
}

double
pairsPerSec(const Pass &p)
{
    return p.mapS > 0 ? static_cast<double>(p.pairs) / p.mapS : 0;
}

} // namespace

RunResult
runBatch(const Workload &w, const WorkloadFiles &f, const RunOptions &opt)
{
    RunResult r;
    Tracer tracer;
    std::vector<Pass> passes;
    std::vector<std::string> digests;
    std::string firstSam;

    // Traced runs alternate untraced and traced passes, so the overhead
    // and the digest comparison come from the same run. A corruption
    // test needs a second pass to compare against.
    const std::size_t minPasses = opt.trace || !opt.corrupt.empty() ? 2 : 1;
    util::Stopwatch window;
    while (passes.size() < minPasses || window.seconds() < opt.seconds) {
        const bool traced = opt.trace && passes.size() % 2 == 1;
        passes.push_back(
            runPass(f, traced ? &tracer : nullptr, passes.size() << 32));
        std::string sam = readFile(f.sam());
        if (opt.corrupt == "sam" && passes.size() == 2)
            corruptText(sam);
        digests.push_back(util::detail::cat(sam.size(), ":",
                                            util::md5Hex(sam)));
        if (firstSam.empty())
            firstSam = std::move(sam);
    }

    // Output checks: every pass wrote the same bytes (traced passes
    // included), and the first pass holds two correct-looking records
    // per pair.
    for (const Pass &p : passes)
        r.attempted += p.pairs;
    for (std::size_t i = 1; i < passes.size(); ++i)
        if (digests[i] != digests[0])
            r.fail(passes[i].pairs,
                   util::detail::cat("pass ", i,
                                     passes[i].traced ? " (traced)" : "",
                                     " wrote different SAM bytes than pass "
                                     "0"));
    {
        std::ifstream refFile(f.ref());
        const genomics::Reference ref = genomics::readFasta(refFile);
        const std::vector<TruthRead> truth = loadTruth(f.truth());
        const SamCheck check = checkSam(firstSam, ref, truth, 0, w.pairs);
        if (passes[0].pairs != w.pairs)
            r.fail(w.pairs, util::detail::cat("mapped ", passes[0].pairs,
                                              " of ", w.pairs, " pairs"));
        if (!check.firstProblem.empty())
            r.fail(std::max<u64>(1, check.badPairs),
                   "SAM check: " + check.firstProblem);
        if (check.accuracy() < w.minAccuracy)
            r.fail(1, util::detail::cat("accuracy ", check.accuracy(),
                                        " below ", w.minAccuracy));
        r.add("accuracy", check.accuracy(), "fraction");
    }
    r.digest = digests[0];

    std::vector<double> pps, setup, cps, jobMs, rss, tracedPps;
    std::vector<std::vector<Metric>> layerRuns;
    for (const Pass &p : passes) {
        setup.push_back(p.setupS);
        if (p.traced) {
            tracedPps.push_back(pairsPerSec(p));
            layerRuns.push_back(p.layers);
            continue;
        }
        pps.push_back(pairsPerSec(p));
        cps.push_back(p.cpuS / (static_cast<double>(p.pairs) / 1e6));
        jobMs.push_back(p.jobS * 1e3);
        rss.push_back(p.peakRssMib);
    }
    r.samples["pairs_per_s"] = pps;
    r.samples["setup_s"] = setup;
    r.samples["core_s_per_mpair"] = cps;
    r.samples["job_ms"] = jobMs;

    if (!opt.trace) {
        r.add("pairs_per_s", median(pps), "pairs/s");
        r.add("setup_s", median(setup), "s");
        r.add("core_s_per_mpair", median(cps), "core-s/Mpair");
        r.add("peak_rss_mib", median(rss), "MiB");
        // A batch job's latency is its whole wall time, set-up included
        // (what `time gpx_map` shows); the slowest pass stands for p99.
        r.add("latency_p50_ms", median(jobMs), "ms");
        r.add("latency_p99_ms", quantile(jobMs, 1.0), "ms");
        return r;
    }

    r.metrics = medianMetrics(layerRuns);
    addServeProbeMetrics(f, opt, r);
    const double traced = median(tracedPps), untraced = median(pps);
    r.add("trace.pairs_per_s", traced, "pairs/s");
    r.add("trace.untraced_pairs_per_s", untraced, "pairs/s");
    r.add("trace.overhead_frac", untraced > 0 ? 1.0 - traced / untraced : 0,
          "fraction");
    for (const Pass &p : passes)
        Tracer::append(f.spans(), p.spans);
    return r;
}

} // namespace perfbench
} // namespace gpx
