#include "genpair/engine.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/timer.hh"

namespace gpx {
namespace genpair {

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
    jobDone_.wait(lock, [&] { return workersReady_ == threads_; });
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

    {
        std::lock_guard<std::mutex> lock(mu_);
        ++workersReady_;
    }
    jobDone_.notify_all();

    u64 seenJob = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mu_);
            jobReady_.wait(lock, [&] {
                return shutdown_ || jobSeq_ != seenJob;
            });
            if (shutdown_)
                return;
            seenJob = jobSeq_;
        }

        const u64 items = jobItems_;
        const BlockFn &fn = *jobFn_;
        for (;;) {
            const u64 begin = cursor_.fetch_add(
                blockItems_, std::memory_order_relaxed);
            if (begin >= items)
                break;
            const u64 end = std::min(items, begin + blockItems_);
            fn(*contexts_[slot], begin, end);
        }

        {
            std::lock_guard<std::mutex> lock(mu_);
            if (--workersLeft_ == 0)
                jobDone_.notify_one();
        }
    }
}

RunTiming
MapperEngine::run(u64 items, const BlockFn &fn)
{
    util::Stopwatch watch;
    {
        std::lock_guard<std::mutex> lock(mu_);
        jobItems_ = items;
        jobFn_ = &fn;
        cursor_.store(0, std::memory_order_relaxed);
        workersLeft_ = threads_;
        ++jobSeq_;
    }
    jobReady_.notify_all();
    {
        std::unique_lock<std::mutex> lock(mu_);
        jobDone_.wait(lock, [&] { return workersLeft_ == 0; });
    }
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
