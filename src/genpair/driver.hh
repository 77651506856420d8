/**
 * @file
 * Multi-threaded mapping driver: the "GenPair + MM2 (CPU)" software
 * configuration of the paper's evaluation (§6), which runs the GenPair
 * pipeline on general-purpose cores with Minimap2-style DP fallback.
 *
 * A thin configuration layer over MapperEngine (engine.hh), which owns
 * the persistent worker pool, the block cursor and the run timing.
 * This driver contributes the per-worker engines (Mm2Lite fallback +
 * GenPairPipeline, built once at pool start-up over the shared
 * read-only index) and the block function: each claimed block runs as
 * one SoA batch through the stage graph (stages.hh). Mapping is
 * per-pair pure and results land at the pair's input index, so output
 * is bit-identical to a serial run regardless of scheduling.
 */

#ifndef GPX_GENPAIR_DRIVER_HH
#define GPX_GENPAIR_DRIVER_HH

#include <memory>
#include <vector>

#include "baseline/mm2lite.hh"
#include "genpair/engine.hh"
#include "genpair/pipeline.hh"
#include "genpair/seedmap.hh"
#include "util/types.hh"

namespace gpx {
namespace genpair {

/** Driver configuration. */
struct DriverConfig
{
    u32 threads = 0; ///< 0 = hardware concurrency
    GenPairParams pipeline;
    baseline::Mm2LiteParams fallback;
    bool useGenPair = true; ///< false = pure MM2-lite baseline runs

    /**
     * Record per-pair stage events (PairTraceRecord) for hwsim
     * co-simulation; DriverResult::trace is filled 1:1 with the input
     * when set. Off by default — tracing costs one extra SeedMap
     * lookup per seed plus the record stores.
     */
    bool recordTrace = false;
};

/** Batch mapping results. */
struct DriverResult
{
    std::vector<genomics::PairMapping> mappings; ///< 1:1 with input
    PipelineStats stats; ///< aggregated across workers
    /** Wall time of this mapAll() call on the pool, including any
     *  wait behind other callers' blocks (see RunTiming). */
    RunTiming timing;
    /** Per-pair stage events; 1:1 with input iff recordTrace was set. */
    std::vector<PairTraceRecord> trace;
};

/**
 * Parallel paired-end mapping over a shared index, backed by the
 * persistent MapperEngine pool.
 */
class ParallelMapper
{
  public:
    /**
     * @param map Non-owning SeedMap view shared read-only by every
     *            worker; its backing storage (owning SeedMap or
     *            mmap-backed image) must outlive the pool.
     */
    ParallelMapper(const genomics::Reference &ref,
                   const SeedMapView &map, const DriverConfig &config);

    /**
     * Map all pairs; mappings[i] corresponds to pairs[i]. Safe from
     * any thread: concurrent callers share the pool block by block,
     * oldest call first, and each gets the mappings and stats it would
     * get alone.
     */
    DriverResult mapAll(const std::vector<genomics::ReadPair> &pairs);

    u32 threads() const { return engine_->threads(); }

  private:
    const genomics::Reference &ref_;
    SeedMapView map_;
    DriverConfig config_;
    std::shared_ptr<const baseline::MinimizerIndex> sharedIndex_;
    /** Built after sharedIndex_ (workers capture it); one pool. */
    std::unique_ptr<MapperEngine> engine_;
};

} // namespace genpair
} // namespace gpx

#endif // GPX_GENPAIR_DRIVER_HH
