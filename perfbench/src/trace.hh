/**
 * @file
 * In-memory spans of the traced run and the per-layer sums made from
 * them.
 *
 * A span covers one call into one layer's public function. Spans carry
 * the id of the span that caused them (0 = root) and a trace id shared
 * by every span of one chunk or request. Each recording thread fills its
 * own vector; the vectors are handed to the Tracer once their thread is
 * idle, and written out when the run ends.
 */

#ifndef GPX_PERFBENCH_TRACE_HH
#define GPX_PERFBENCH_TRACE_HH

#include <array>
#include <atomic>
#include <mutex>
#include <string>
#include <vector>

#include "util/types.hh"

namespace gpx {
namespace perfbench {

enum class Layer : u8
{
    SetupFasta,
    SetupIndex,
    SetupMinimizer,
    SetupMapper,
    IngestScan,
    IngestParse,
    EngineJob,
    EngineBlock,
    StageSeed,
    StageQuery,
    StagePaFilter,
    StageLightAlign,
    StageFallback,
    SamRender,
    ServeRequest,
    kCount,
};

inline constexpr std::size_t kNumLayers =
    static_cast<std::size_t>(Layer::kCount);

/** Span name as written to the span file ("stage.seed", ...). */
const char *layerName(Layer layer);

struct Span
{
    u64 id = 0;
    u64 parent = 0; ///< 0 = root
    u64 trace = 0;  ///< chunk or request the span belongs to
    i64 startNs = 0;
    i64 endNs = 0;
    u32 thread = 0;
    Layer layer = Layer::kCount;
};

/** Owner of every finished span of a run. */
class Tracer
{
  public:
    u64 newId() { return nextId_.fetch_add(1, std::memory_order_relaxed); }

    /** Take over a thread's finished spans. */
    void adopt(std::vector<Span> &spans);

    /** Spans adopted since the last take(), leaving none. */
    std::vector<Span> take();

    /** Append @p spans to the span file at @p path (TSV). */
    static void append(const std::string &path,
                       const std::vector<Span> &spans);

  private:
    std::atomic<u64> nextId_{ 1 };
    std::mutex mu_;
    std::vector<Span> spans_; ///< guarded by mu_
};

/** Per-layer self time (span minus child cover) over a set of spans. */
struct LayerTotals
{
    std::array<double, kNumLayers> selfS{};

    double self(Layer l) const { return selfS[static_cast<std::size_t>(l)]; }
};

LayerTotals sumLayers(const std::vector<Span> &spans);

/** Worker-pool view of the engine.job / engine.block spans. */
struct EngineTotals
{
    u64 blocks = 0;
    double blockP50Us = 0;
    double blockP99Us = 0;
    /** Block time over threads x job time. */
    double busyFrac = 0;
    /** Summed over jobs: first worker idle to job end. */
    double tailS = 0;
};

EngineTotals sumEngine(const std::vector<Span> &spans, u32 threads);

} // namespace perfbench
} // namespace gpx

#endif // GPX_PERFBENCH_TRACE_HH
