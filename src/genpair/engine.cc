#include "genpair/engine.hh"

#include <algorithm>
#include <atomic>

#include "util/logging.hh"
#include "util/timer.hh"

namespace gpx {
namespace genpair {

/** One run() call: lives on the caller's stack until it completes. */
struct MapperEngine::Job
{
    const u64 items;
    const BlockFn &fn;
    std::atomic<u64> cursor{ 0 };
    u32 workers = 0; ///< workers on the job; guarded by mu_
    bool finished = false;
    std::condition_variable done;

    Job(u64 n, const BlockFn &f) : items(n), fn(f) {}
};

MapperEngine::MapperEngine(u32 threads, ContextFactory factory,
                           u64 block_items)
    : threads_(threads ? threads
                       : std::max(1u,
                                  std::thread::hardware_concurrency())),
      blockItems_(block_items == 0 ? 1 : block_items)
{
    gpx_assert(factory, "MapperEngine needs a context factory");
    contexts_.resize(threads_);
    workers_.reserve(threads_);
    for (u32 t = 0; t < threads_; ++t)
        workers_.emplace_back(
            [this, t, factory]() { workerLoop(t, factory); });
    // Context construction is a pool start-up cost, not a mapping
    // cost: don't return until every worker has built its context, so
    // the first run()'s stopwatch measures mapping only.
    std::unique_lock<std::mutex> lock(mu_);
    poolReady_.wait(lock, [&] { return workersReady_ == threads_; });
}

MapperEngine::~MapperEngine()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        shutdown_ = true;
    }
    jobReady_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
MapperEngine::workerLoop(u32 slot, const ContextFactory &factory)
{
    // Contexts are built once per worker, on the worker's own thread
    // (first-touch locality), and live for the pool's lifetime.
    contexts_[slot] = factory(slot);
    WorkerContext &context = *contexts_[slot];

    std::unique_lock<std::mutex> lock(mu_);
    ++workersReady_;
    poolReady_.notify_all();
    for (;;) {
        jobReady_.wait(lock,
                       [&] { return shutdown_ || !open_.empty(); });
        if (shutdown_)
            return;
        Job &job = *open_.front();
        ++job.workers;
        lock.unlock();

        for (;;) {
            const u64 begin = job.cursor.fetch_add(
                blockItems_, std::memory_order_relaxed);
            if (begin >= job.items)
                break;
            job.fn(context, begin,
                   std::min(job.items, begin + blockItems_));
        }

        // One critical section per hand-off: leave the drained job,
        // then (at the top of the loop) join the oldest open one. A
        // listed job is always the front, because workers only join
        // the front and run() appends at the back.
        lock.lock();
        if (!open_.empty() && open_.front() == &job)
            open_.pop_front();
        if (--job.workers == 0) {
            // Notify under the lock: the job lives on the caller's
            // stack and is gone as soon as run() sees it finished.
            job.finished = true;
            job.done.notify_one();
        }
    }
}

RunTiming
MapperEngine::run(u64 items, const BlockFn &fn)
{
    util::Stopwatch watch;
    if (items == 0)
        return RunTiming::of(0, watch.seconds());
    Job job(items, fn);
    std::unique_lock<std::mutex> lock(mu_);
    open_.push_back(&job);
    jobReady_.notify_all();
    job.done.wait(lock, [&] { return job.finished; });
    return RunTiming::of(items, watch.seconds());
}

void
MapperEngine::forEachContext(
    const std::function<void(WorkerContext &)> &fn)
{
    for (auto &ctx : contexts_)
        fn(*ctx);
}

} // namespace genpair
} // namespace gpx
