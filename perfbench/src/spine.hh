/**
 * @file
 * The traced replay of gpx's mapping path.
 *
 * TracedMapper rebuilds what ParallelMapper and StreamingMapper do from
 * the layers' public functions — MinimizerIndex, MapperEngine,
 * PairedFastqChunker::next, parseFastqChunk, the five run*Stage
 * functions on a PairBatch and SamWriter::writePairBatch — and records
 * a span around each call. The calls, their order and their inputs are
 * those of the untraced path, so the SAM it writes must be byte-
 * identical to StreamingMapper's; the benchmark checks that.
 */

#ifndef GPX_PERFBENCH_SPINE_HH
#define GPX_PERFBENCH_SPINE_HH

#include <iosfwd>
#include <memory>
#include <string>

#include "baseline/minimizer_index.hh"
#include "bench.hh"
#include "baseline/mm2lite.hh"
#include "genomics/sam.hh"
#include "genpair/driver.hh"
#include "genpair/engine.hh"
#include "trace.hh"

namespace gpx {
namespace perfbench {

/** Outcome of one traced spine run. */
struct SpineResult
{
    std::string error; ///< empty = ok
    u64 pairs = 0;
    u64 chunks = 0;
    u64 inputBytes = 0; ///< raw FASTQ text scanned, both streams
    /** Mapping-thread time waiting for parsed input. */
    double readerStallS = 0;
    /** Mapping-thread time handing mapped chunks to the writer. */
    double writerStallS = 0;
};

class TracedMapper
{
  public:
    /** Builds the shared minimizer index and the worker pool, each
     *  under a setup span. */
    TracedMapper(const genomics::Reference &ref,
                 const genpair::SeedMapView &view,
                 const genpair::DriverConfig &config, Tracer &tracer);

    TracedMapper(const TracedMapper &) = delete;
    TracedMapper &operator=(const TracedMapper &) = delete;

    /**
     * StreamingMapper::tryRun with spans: one chunker thread, @p io_threads
     * parsers, the engine on this thread and an in-order writer. Spans
     * of chunk k get trace id @p trace_base + k.
     */
    SpineResult run(std::istream &r1, std::istream &r2,
                    genomics::SamWriter &sam, u64 chunk_pairs,
                    u32 io_threads, u64 trace_base);

    /** Stage counters merged over every worker since construction. */
    genpair::PipelineStats stats();
    /** Fallback DP work merged over every worker since construction. */
    baseline::DpWork dpWork();

    u32 threads() const { return engine_->threads(); }

  private:
    /** Map one parsed chunk on the pool under an engine.job span. */
    void mapChunk(const std::vector<genomics::ReadPair> &pairs,
                  std::vector<genomics::PairMapping> &out, u64 trace,
                  std::vector<Span> &spans);

    const genomics::Reference &ref_;
    genpair::SeedMapView view_;
    genpair::DriverConfig config_;
    Tracer &tracer_;
    std::shared_ptr<const baseline::MinimizerIndex> index_;
    std::unique_ptr<genpair::MapperEngine> engine_;
};

/**
 * The setup, ingest, spine, engine, stage and sam metrics of one traced
 * replay: its spans, the stage counters and DP work it added, and its
 * spine totals (summed over runs when it made several).
 */
std::vector<Metric> replayMetrics(const std::vector<Span> &spans, u32 threads,
                                  const genpair::PipelineStats &stats,
                                  const baseline::DpWork &dp,
                                  const SpineResult &spine, u64 sam_bytes);

/** Per-name medians over several runs' metric lists (same names). */
std::vector<Metric> medianMetrics(
    const std::vector<std::vector<Metric>> &runs);

} // namespace perfbench
} // namespace gpx

#endif // GPX_PERFBENCH_SPINE_HH
