/**
 * @file
 * MapperEngine tests: the one driver core must hand every item of a
 * job to exactly one worker context, reuse contexts across runs, run
 * jobs from many callers at once, and serve all three driver
 * configuration layers (pair, streaming via ParallelMapper, long-read)
 * with bit-identical output for any thread count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "genpair/engine.hh"
#include "genpair/longread.hh"
#include "simdata/genome_generator.hh"
#include "simdata/read_simulator.hh"

namespace {

using namespace gpx;
using genpair::MapperEngine;
using genpair::WorkerContext;

/** Context recording which items its worker processed. */
struct RecordingContext : WorkerContext
{
    std::vector<u64> items;
    u64 runsSeen = 0;
};

TEST(MapperEngineTest, EveryItemProcessedExactlyOnce)
{
    MapperEngine engine(4, [](u32) {
        return std::make_unique<RecordingContext>();
    });
    constexpr u64 kItems = 1000;
    auto timing = engine.run(kItems, [](WorkerContext &ctx, u64 begin,
                                        u64 end) {
        auto &rec = static_cast<RecordingContext &>(ctx);
        for (u64 i = begin; i < end; ++i)
            rec.items.push_back(i);
    });
    EXPECT_GE(timing.seconds, 0.0);
    EXPECT_GT(timing.itemsPerSec, 0.0);

    std::set<u64> seen;
    engine.forEachContext([&](WorkerContext &ctx) {
        for (u64 i : static_cast<RecordingContext &>(ctx).items)
            EXPECT_TRUE(seen.insert(i).second) << "item " << i
                                               << " processed twice";
    });
    EXPECT_EQ(seen.size(), kItems);
}

TEST(MapperEngineTest, ContextsPersistAcrossRuns)
{
    MapperEngine engine(3, [](u32) {
        return std::make_unique<RecordingContext>();
    });
    for (int run = 0; run < 5; ++run)
        engine.run(64, [](WorkerContext &ctx, u64, u64) {
            ++static_cast<RecordingContext &>(ctx).runsSeen;
        });
    u64 totalBlocks = 0;
    engine.forEachContext([&](WorkerContext &ctx) {
        totalBlocks += static_cast<RecordingContext &>(ctx).runsSeen;
    });
    EXPECT_EQ(totalBlocks, 5u); // 64 items = one block per run
}

TEST(MapperEngineTest, EmptyJobCompletes)
{
    MapperEngine engine(2, [](u32) {
        return std::make_unique<RecordingContext>();
    });
    auto timing = engine.run(0, [](WorkerContext &, u64, u64) {
        FAIL() << "no block should be dispatched for an empty job";
    });
    EXPECT_EQ(timing.itemsPerSec, 0.0);
}

TEST(MapperEngineTest, ZeroThreadsUsesHardwareConcurrency)
{
    MapperEngine engine(0, [](u32) {
        return std::make_unique<RecordingContext>();
    });
    EXPECT_GE(engine.threads(), 1u);
}

TEST(MapperEngineTest, SlotIndexIsPassedToFactory)
{
    std::mutex mu;
    std::set<u32> slots;
    MapperEngine engine(4, [&](u32 slot) {
        std::lock_guard<std::mutex> lock(mu);
        slots.insert(slot);
        return std::make_unique<RecordingContext>();
    });
    EXPECT_EQ(slots, (std::set<u32>{ 0, 1, 2, 3 }));
}

/**
 * @p callers threads each run @p jobs jobs on @p engine, with sizes
 * cycling through {0, 1, 63, 64, 65, 700} from a different start per
 * caller. Every item of every job must be processed exactly once, by a
 * block of its own job that lies on the job's block grid, and run()
 * must not return before its last block has ended.
 */
void
runConcurrentJobs(MapperEngine &engine, int callers, int jobs)
{
    constexpr u64 kSizes[] = { 0, 1, 63, 64, 65, 700 };
    const u64 grain = engine.blockItems();
    std::vector<std::thread> threads;
    for (int c = 0; c < callers; ++c)
        threads.emplace_back([&, c] {
            for (int j = 0; j < jobs; ++j) {
                const u64 items = kSizes[(c + j) % 6];
                std::vector<std::atomic<u32>> hits(items);
                std::atomic<u32> inFlight{ 0 };
                std::atomic<u32> offGrid{ 0 };
                engine.run(items, [&](WorkerContext &, u64 begin,
                                      u64 end) {
                    inFlight.fetch_add(1);
                    if (begin % grain != 0 || begin >= items ||
                        end != std::min(items, begin + grain))
                        offGrid.fetch_add(1);
                    for (u64 i = begin; i < end && i < items; ++i)
                        hits[i].fetch_add(1);
                    inFlight.fetch_sub(1);
                });
                EXPECT_EQ(inFlight.load(), 0u)
                    << "run() returned with a block still running";
                EXPECT_EQ(offGrid.load(), 0u) << "job of " << items;
                u64 wrong = 0;
                for (const auto &h : hits)
                    wrong += h.load() != 1;
                EXPECT_EQ(wrong, 0u)
                    << "caller " << c << ", job " << j << " of "
                    << items << " items";
            }
        });
    for (auto &t : threads)
        t.join();
}

TEST(MapperEngineTest, ConcurrentJobsEachProcessEveryItemOnce)
{
    MapperEngine engine(4, [](u32) {
        return std::make_unique<RecordingContext>();
    });
    runConcurrentJobs(engine, /*callers=*/6, /*jobs=*/50);
}

TEST(MapperEngineTest, TwoJobsShareThePoolAtOnce)
{
    // Two workers, two callers, one block each. Each block waits until
    // the other job's block has started, which only an engine that
    // runs both jobs at once allows. An engine that runs one job at a
    // time makes the first block time out, so the test fails after
    // the bounded wait instead of hanging.
    MapperEngine engine(2, [](u32) {
        return std::make_unique<RecordingContext>();
    });
    std::mutex mu;
    std::condition_variable cv;
    int started = 0;
    bool timedOut[2] = { false, false };
    auto caller = [&](int id) {
        engine.run(1, [&](WorkerContext &, u64, u64) {
            std::unique_lock<std::mutex> lock(mu);
            ++started;
            cv.notify_all();
            timedOut[id] = !cv.wait_for(lock, std::chrono::seconds(10),
                                        [&] { return started == 2; });
        });
    };
    std::thread a(caller, 0);
    std::thread b(caller, 1);
    a.join();
    b.join();
    EXPECT_FALSE(timedOut[0]) << "job 0 never shared the pool";
    EXPECT_FALSE(timedOut[1]) << "job 1 never shared the pool";
}

TEST(MapperEngineTest, DestroyAfterConcurrentJobsReturnsPromptly)
{
    // A worker that misses the shutdown wake-up would hang the
    // destructor; abort (a test failure) rather than hang the suite.
    auto engine = std::make_unique<MapperEngine>(4, [](u32) {
        return std::make_unique<RecordingContext>();
    });
    runConcurrentJobs(*engine, /*callers=*/6, /*jobs=*/20);
    std::atomic<bool> destroyed{ false };
    std::thread destroyer([&] {
        engine.reset();
        destroyed.store(true);
    });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!destroyed.load() &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (!destroyed.load()) {
        std::fprintf(stderr, "~MapperEngine did not return in 10 s\n");
        std::abort();
    }
    destroyer.join();
}

class LongReadDriverTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        simdata::GenomeParams gp;
        gp.length = 300000;
        gp.chromosomes = 1;
        gp.seed = 31;
        ref_ = simdata::generateGenome(gp);
        map_ = std::make_unique<genpair::SeedMap>(
            ref_, genpair::SeedMapParams{});

        simdata::DiploidGenome donor(ref_, simdata::VariantParams{});
        simdata::LongReadSimParams lp;
        simdata::LongReadSimulator sim(donor, lp);
        reads_ = sim.simulate(24);
    }

    genomics::Reference ref_;
    std::unique_ptr<genpair::SeedMap> map_;
    std::vector<genomics::Read> reads_;
};

TEST_F(LongReadDriverTest, ParallelMatchesSerialMapper)
{
    // The serial reference: one LongReadMapper, reads in order.
    baseline::Mm2Lite dp(ref_, baseline::Mm2LiteParams{});
    genpair::LongReadMapper serial(ref_, *map_, genpair::LongReadParams{},
                                   &dp);
    std::vector<genomics::Mapping> expected;
    expected.reserve(reads_.size());
    for (const auto &read : reads_)
        expected.push_back(serial.mapRead(read));

    genpair::LongReadDriver driver(ref_, *map_,
                                   genpair::LongReadParams{},
                                   baseline::Mm2LiteParams{}, 4);
    auto result = driver.mapAll(reads_);

    ASSERT_EQ(result.mappings.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(expected[i].mapped, result.mappings[i].mapped) << i;
        EXPECT_EQ(expected[i].pos, result.mappings[i].pos) << i;
        EXPECT_EQ(expected[i].score, result.mappings[i].score) << i;
        EXPECT_EQ(expected[i].reverse, result.mappings[i].reverse) << i;
    }

    const auto &s = serial.stats();
    const auto &p = result.stats;
    EXPECT_EQ(s.readsTotal, p.readsTotal);
    EXPECT_EQ(s.mapped, p.mapped);
    EXPECT_EQ(s.unmapped, p.unmapped);
    EXPECT_EQ(s.pseudoPairs, p.pseudoPairs);
    EXPECT_EQ(s.votes, p.votes);
    EXPECT_EQ(s.query.seedLookups, p.query.seedLookups);
    EXPECT_EQ(s.query.locationsFetched, p.query.locationsFetched);
    EXPECT_EQ(s.query.filterIterations, p.query.filterIterations);
    EXPECT_GT(result.timing.itemsPerSec, 0.0);
}

TEST_F(LongReadDriverTest, ConcurrentMapAllCallsEachMatchACallMadeAlone)
{
    // mapAll() is safe from any thread: concurrent calls share the
    // pool block by block, and each job's counters go to its own
    // per-slot sink. Inputs of three sizes make a leaked or lost
    // counter show in every field.
    genpair::LongReadDriver driver(ref_, *map_,
                                   genpair::LongReadParams{},
                                   baseline::Mm2LiteParams{}, 2);
    const std::vector<std::vector<genomics::Read>> inputs = {
        { reads_.begin(), reads_.begin() + 5 },
        { reads_.begin() + 5, reads_.begin() + 7 },
        { reads_.begin() + 7, reads_.begin() + 10 },
    };
    auto statsJson = [](const genpair::LongReadStats &stats) {
        std::ostringstream os;
        genpair::writeLongReadStatsJson(os, stats, 0);
        return os.str();
    };
    std::vector<genpair::LongReadResult> alone;
    for (const auto &in : inputs)
        alone.push_back(driver.mapAll(in));

    for (int round = 0; round < 4; ++round) {
        std::vector<genpair::LongReadResult> together(inputs.size());
        std::vector<std::thread> callers;
        for (std::size_t t = 0; t < inputs.size(); ++t)
            callers.emplace_back(
                [&, t] { together[t] = driver.mapAll(inputs[t]); });
        for (auto &caller : callers)
            caller.join();
        for (std::size_t t = 0; t < inputs.size(); ++t) {
            EXPECT_EQ(statsJson(together[t].stats),
                      statsJson(alone[t].stats))
                << "caller " << t << ", round " << round;
            ASSERT_EQ(together[t].mappings.size(), inputs[t].size());
            for (std::size_t i = 0; i < inputs[t].size(); ++i) {
                const auto &a = alone[t].mappings[i];
                const auto &b = together[t].mappings[i];
                EXPECT_EQ(a.mapped, b.mapped);
                EXPECT_EQ(a.pos, b.pos);
                EXPECT_EQ(a.score, b.score);
                EXPECT_EQ(a.reverse, b.reverse);
                EXPECT_EQ(a.cigar.toString(), b.cigar.toString());
            }
        }
    }
}

TEST_F(LongReadDriverTest, RepeatedMapAllDoesNotAccumulateStats)
{
    genpair::LongReadDriver driver(ref_, *map_,
                                   genpair::LongReadParams{},
                                   baseline::Mm2LiteParams{}, 2);
    auto first = driver.mapAll(reads_);
    auto second = driver.mapAll(reads_);
    EXPECT_EQ(first.stats.readsTotal, reads_.size());
    EXPECT_EQ(second.stats.readsTotal, reads_.size());
    EXPECT_EQ(first.stats.mapped, second.stats.mapped);
    ASSERT_EQ(first.mappings.size(), second.mappings.size());
    for (std::size_t i = 0; i < first.mappings.size(); ++i)
        EXPECT_EQ(first.mappings[i].pos, second.mappings[i].pos) << i;
}

} // namespace
