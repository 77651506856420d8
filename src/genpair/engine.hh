/**
 * @file
 * MapperEngine: the single driver core behind every host mapping
 * driver.
 *
 * ParallelMapper, StreamingMapper and LongReadDriver used to each own a
 * copy of the same orchestration — spawn workers, partition the input,
 * merge per-worker statistics, time the run. The engine owns all of it
 * exactly once: a persistent worker pool (per-worker contexts built
 * once at start-up, on the worker's own thread), an atomic block
 * cursor per job for load balance, and the RunTiming measurement.
 * Drivers are thin configuration layers: they provide a context factory
 * (their per-worker engines) and a block-mapping function, and the
 * engine guarantees that item i of a job is mapped exactly once, by
 * exactly one context — results landing at input index keep output
 * bit-identical to a serial run regardless of scheduling. Any number
 * of jobs may be in flight at once; they share the pool block by
 * block, oldest job first.
 */

#ifndef GPX_GENPAIR_ENGINE_HH
#define GPX_GENPAIR_ENGINE_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/types.hh"

namespace gpx {
namespace genpair {

/**
 * Wall-time accounting of one driver run, filled by MapperEngine (the
 * one place that times mapping). Replaces the hand-rolled
 * seconds/pairsPerSec/mapSeconds fields every driver result used to
 * duplicate. It runs from the job's submission to the end of its last
 * block, so it includes any wait behind the blocks of jobs submitted
 * earlier. One-time pool costs (thread spawn, per-worker engine
 * construction) are paid at engine start-up and never charged here, so
 * itemsPerSec is comparable across chunk sizes.
 */
struct RunTiming
{
    double seconds = 0;
    double itemsPerSec = 0; ///< read pairs (or long reads) per second

    /** Timing of @p items of work done in @p secs wall seconds. */
    static RunTiming
    of(u64 items, double secs)
    {
        RunTiming t;
        t.seconds = secs;
        t.itemsPerSec =
            secs > 0 ? static_cast<double>(items) / secs : 0;
        return t;
    }

    /** Throughput in Mbp/s for paired-end reads of @p read_len. */
    double
    mbpsFor(u32 read_len) const
    {
        return itemsPerSec * 2.0 * read_len / 1e6;
    }
};

/**
 * Base class of a driver's per-worker state (mapping engines,
 * scratch). Built once per worker at pool start-up and reused across
 * every run() call.
 */
class WorkerContext
{
  public:
    virtual ~WorkerContext() = default;
};

/**
 * The persistent worker pool and its queue of open jobs. run() is safe
 * from any thread: each call is a job with its own block cursor and
 * completion signal, and an idle worker takes the next block of the
 * oldest open job, so a lone caller has the whole pool.
 * forEachContext() must only be called while no run() is in flight.
 */
class MapperEngine
{
  public:
    /** Builds one worker's context; called on that worker's thread,
     *  concurrently with the other workers' factories. */
    using ContextFactory =
        std::function<std::unique_ptr<WorkerContext>(u32 slot)>;

    /** Maps items [begin, end) of the current job with @p context. */
    using BlockFn =
        std::function<void(WorkerContext &context, u64 begin, u64 end)>;

    /**
     * @param threads Worker count; 0 = hardware concurrency.
     * @param factory Per-worker context builder.
     * @param block_items Items a worker claims per cursor grab (the
     *        load-balance grain and the stage-graph batch size).
     */
    MapperEngine(u32 threads, ContextFactory factory,
                 u64 block_items = kDefaultBlockItems);
    ~MapperEngine();

    MapperEngine(const MapperEngine &) = delete;
    MapperEngine &operator=(const MapperEngine &) = delete;

    /**
     * Run @p fn over all blocks of [0, items) and return the measured
     * timing. Blocks are pulled off the job's atomic cursor; every item
     * is processed exactly once. Returns when the job's last block has
     * ended. Safe from any number of threads at once.
     */
    RunTiming run(u64 items, const BlockFn &fn);

    /**
     * Visit every worker context from the calling thread (stats reset
     * before a run, stats merge after). Engine must be idle.
     */
    void forEachContext(const std::function<void(WorkerContext &)> &fn);

    u32 threads() const { return threads_; }
    u64 blockItems() const { return blockItems_; }

    /** Default load-balance grain (= the SoA batch size). */
    static constexpr u64 kDefaultBlockItems = 64;

  private:
    struct Job;

    void workerLoop(u32 slot, const ContextFactory &factory);

    u32 threads_;
    u64 blockItems_;

    // Job hand-off: run() appends its job to open_ under mu_ and wakes
    // the pool. A worker joins the oldest open job and races its
    // cursor without the lock; the first worker to find the cursor
    // drained closes the job, and the last one out signals completion.
    std::mutex mu_;
    std::condition_variable jobReady_;
    std::condition_variable poolReady_;
    std::deque<Job *> open_;
    u32 workersReady_ = 0;
    bool shutdown_ = false;
    std::vector<std::unique_ptr<WorkerContext>> contexts_;
    std::vector<std::thread> workers_;
};

} // namespace genpair
} // namespace gpx

#endif // GPX_GENPAIR_ENGINE_HH
