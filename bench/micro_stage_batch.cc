/**
 * @file
 * micro_stage_batch — the batched SoA stage graph across batch sizes
 * and every SIMD backend the host supports (scalar / AVX2 / AVX-512 —
 * the batch kernels of util/simd.hh), single-threaded (the per-core
 * win; thread scaling is micro_driver_scaling's job).
 *
 * Every backend x batch run is cross-checked against the scalar
 * whole-set run of the same binary: mappings and stats must be
 * identical. The per-backend grid, with fallback fractions and
 * candidate counts, is recorded with `--json` (see
 * BENCH_stage_batch.json at the repo root, gated by
 * scripts/check_stage_batch.py on the within-run vectorized-vs-scalar
 * ratio).
 */

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common.hh"
#include "genpair/pipeline.hh"
#include "util/table.hh"
#include "util/timer.hh"
#include "util/version.hh"

namespace {

using namespace gpx;

bool
sameMapping(const genomics::PairMapping &a, const genomics::PairMapping &b)
{
    return a.path == b.path && a.first.pos == b.first.pos &&
           a.second.pos == b.second.pos &&
           a.first.score == b.first.score &&
           a.second.score == b.second.score;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace gpx;
    using namespace gpx::bench;

    std::string jsonPath;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--json") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--json needs a path\n");
                return 2;
            }
            jsonPath = argv[++i];
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
            return 2;
        }
    }

    banner("Batched SoA stage graph across SIMD backends",
           "single-thread mapping hot path");

    // Capture the session's dispatch provenance before the backend
    // sweep overwrites it with "(forced)".
    const std::string simdContext = simdContextJson();

    // The micro_driver_scaling dataset: small enough for a grid,
    // large enough that the light path dominates.
    simdata::Dataset dataset = simdata::buildDataset(
        simdata::datasetConfig(1, u64{ 2 } << 20, 6000));
    const auto &ref = *dataset.reference;
    genpair::SeedMap seedmap(ref, genpair::SeedMapParams{});
    const auto &pairs = dataset.pairs;
    const u64 n = pairs.size();
    genpair::GenPairParams params;

    baseline::Mm2Lite mm2(ref, baseline::Mm2LiteParams{});

    std::vector<genomics::PairMapping> batchedOut(n);
    genpair::PipelineStats batchedStats;
    auto timeBatched = [&](u64 batchPairs) {
        genpair::GenPairPipeline pipeline(ref, seedmap, params, &mm2);
        util::Stopwatch watch;
        for (u64 begin = 0; begin < n; begin += batchPairs) {
            const u64 end = std::min(n, begin + batchPairs);
            pipeline.mapBatch(pairs.data() + begin, end - begin,
                              batchedOut.data() + begin);
        }
        double secs = watch.seconds();
        batchedStats = pipeline.stats();
        return secs;
    };

    // Every backend the host can execute gets its own grid sweep; the
    // vectorized-vs-scalar ratio is a within-run contract gated by
    // scripts/check_stage_batch.py.
    const util::SimdBackend defaultBackend = util::activeSimdBackend();
    std::vector<util::SimdBackend> backends;
    for (util::SimdBackend want :
         { util::SimdBackend::Scalar, util::SimdBackend::Avx2,
           util::SimdBackend::Avx512 })
        if (util::forceSimdBackend(want) == want)
            backends.push_back(want);

    // Reference output and stats (and warm-up): the scalar backend
    // over the whole set in one batch.
    util::forceSimdBackend(util::SimdBackend::Scalar);
    timeBatched(n);
    const std::vector<genomics::PairMapping> referenceOut = batchedOut;
    const genpair::PipelineStats referenceStats = batchedStats;

    // No backend and no batch size may change a single mapping or
    // stats counter.
    auto crossCheck = [&](u64 batchPairs) {
        timeBatched(batchPairs);
        for (u64 i = 0; i < n; ++i) {
            if (!sameMapping(referenceOut[i], batchedOut[i])) {
                std::fprintf(
                    stderr,
                    "batched(%llu, %s)/scalar whole-set mismatch at "
                    "pair %llu\n",
                    static_cast<unsigned long long>(batchPairs),
                    util::simdBackendName(util::activeSimdBackend()),
                    static_cast<unsigned long long>(i));
                std::exit(1);
            }
        }
        const auto &a = referenceStats;
        const auto &b = batchedStats;
        if (a.lightAligned != b.lightAligned ||
            a.candidatePairs != b.candidatePairs ||
            a.lightAlignsAttempted != b.lightAlignsAttempted ||
            a.query.filterIterations != b.query.filterIterations ||
            a.unmapped != b.unmapped) {
            std::fprintf(stderr, "stats mismatch at batch %llu (%s)\n",
                         static_cast<unsigned long long>(batchPairs),
                         util::simdBackendName(util::activeSimdBackend()));
            std::exit(1);
        }
    };

    const std::vector<u64> batchGrid{ 1, 16, 64, 256, n };
    std::vector<genpair::PipelineStats> backendStats(backends.size());
    for (std::size_t bk = 0; bk < backends.size(); ++bk) {
        util::forceSimdBackend(backends[bk]);
        for (u64 b : batchGrid)
            crossCheck(b);
        backendStats[bk] = batchedStats;
    }

    // Interleaved best-of-N: every backend sees the same host noise.
    constexpr int kReps = 3;
    std::vector<std::vector<double>> batchedSecs(
        backends.size(),
        std::vector<double>(batchGrid.size(),
                            std::numeric_limits<double>::infinity()));
    for (int rep = 0; rep < kReps; ++rep) {
        for (std::size_t bk = 0; bk < backends.size(); ++bk) {
            util::forceSimdBackend(backends[bk]);
            for (std::size_t g = 0; g < batchGrid.size(); ++g)
                batchedSecs[bk][g] = std::min(batchedSecs[bk][g],
                                              timeBatched(batchGrid[g]));
        }
    }
    util::forceSimdBackend(defaultBackend);

    auto rate = [&](std::size_t bk, std::size_t g) {
        return batchedSecs[bk][g] > 0 ? n / batchedSecs[bk][g] : 0.0;
    };
    util::Table table({ "simd", "batch", "pairs/s", "vs scalar" });
    for (std::size_t bk = 0; bk < backends.size(); ++bk)
        for (std::size_t g = 0; g < batchGrid.size(); ++g)
            table.row()
                .cell(util::simdBackendName(backends[bk]))
                .cell(static_cast<double>(batchGrid[g]), 0)
                .cell(rate(bk, g), 0)
                .cell(rate(0, g) > 0 ? rate(bk, g) / rate(0, g) : 0, 2);
    table.print("single-thread mapping hot path");

    if (!jsonPath.empty()) {
        std::ofstream out(jsonPath);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", jsonPath.c_str());
            return 1;
        }
        auto num = [](double v, int prec) {
            std::ostringstream str;
            str << std::fixed << std::setprecision(prec) << v;
            return str.str();
        };
        out << "{\n  \"bench\": \"micro_stage_batch\",\n"
            << "  \"gpx_version\": \"" << kVersion << "\",\n"
            << "  \"pairs\": " << n << ",\n"
            << "  \"threads\": 1,\n"
            << "  \"context\": " << simdContext << ",\n"
            << "  \"grid\": [\n";
        for (std::size_t bk = 0; bk < backends.size(); ++bk) {
            const auto &st = backendStats[bk];
            const u64 fallbacks = st.seedMissFallback +
                                  st.paFilterFallback +
                                  st.lightAlignFallback;
            const double fallbackFraction =
                st.pairsTotal
                    ? static_cast<double>(fallbacks) / st.pairsTotal
                    : 0;
            for (std::size_t g = 0; g < batchGrid.size(); ++g) {
                out << "    {\"backend\": \""
                    << util::simdBackendName(backends[bk])
                    << "\", \"dp_lanes\": "
                    << util::simdDpLanes(backends[bk])
                    << ", \"batch_pairs\": " << batchGrid[g]
                    << ", \"pairs_per_s\": " << num(rate(bk, g), 0)
                    << ",\n     \"fallback_fraction\": "
                    << num(fallbackFraction, 4)
                    << ", \"candidate_pairs\": " << st.candidatePairs
                    << ", \"light_aligns_attempted\": "
                    << st.lightAlignsAttempted
                    << ", \"light_align_fallback\": "
                    << st.lightAlignFallback
                    << ", \"seed_miss_fallback\": "
                    << st.seedMissFallback
                    << ", \"pa_filter_fallback\": "
                    << st.paFilterFallback << "}"
                    << (bk + 1 < backends.size() ||
                                g + 1 < batchGrid.size()
                            ? ","
                            : "")
                    << "\n";
            }
        }
        out << "  ]\n}\n";
        out.flush();
        if (!out) {
            std::fprintf(stderr, "write to %s failed\n",
                         jsonPath.c_str());
            return 1;
        }
        std::printf("wrote %s\n", jsonPath.c_str());
    }
    return 0;
}
