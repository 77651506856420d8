/**
 * @file
 * micro_index_load — index-serving startup cost: the v2 image's
 * mmap-open, with and without the payload checksum sweep, on the
 * fig11-scale reference.
 *
 * The paper's offline stage amortizes SeedMap construction across read
 * sets (§4.2); what it cannot amortize is what every gpx_map start pays
 * to *open* the image. The image is validated in place and served from
 * file-backed pages, so open time is directory validation (plus an
 * optional checksum sweep) and the resident cost is demand-paged and
 * kernel-shared across the worker pool.
 *
 * Open latencies are min/median of repeated in-process runs. Memory is
 * measured in a forked child per variant (VmRSS delta across the open,
 * then again after a full table sweep that faults every page), so
 * pages this process already touched cannot mask the cost.
 *
 * `--json PATH` records the result machine-readably (see
 * BENCH_index_load.json at the repo root).
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#if !defined(_WIN32)
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "common.hh"
#include "genpair/seedmap_io.hh"
#include "simdata/genome_generator.hh"
#include "util/table.hh"
#include "util/timer.hh"
#include "util/version.hh"

namespace {

using namespace gpx;

/** Current resident set size in KiB (VmRSS), 0 where unsupported. */
u64
currentRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmRSS:", 0) == 0) {
            u64 kb = 0;
            std::sscanf(line.c_str(), "VmRSS: %llu",
                        reinterpret_cast<unsigned long long *>(&kb));
            return kb;
        }
    }
    return 0;
}

/** Touch every location byte so demand-paged mappings fault in. */
u64
sweepView(const genpair::SeedMapView &view)
{
    u64 sum = 0;
    const u32 mask = (1u << view.tableBits()) - 1;
    for (u32 h = 0; h <= mask; h += 1) {
        auto span = view.lookup(h);
        for (u32 loc : span)
            sum += loc;
    }
    return sum;
}

/** One opened image plus its query view. */
struct OpenedIndex
{
    std::optional<genpair::SeedMapImage> image;
    genpair::SeedMapView view;
};

struct Variant
{
    std::string name;
    std::string key; ///< JSON field prefix
    std::function<OpenedIndex()> open;
};

struct Measured
{
    double minSeconds = 0;
    double medianSeconds = 0;
    u64 rssOpenKb = 0;  ///< VmRSS delta across open
    u64 rssSweepKb = 0; ///< VmRSS delta after faulting every page
};

#if !defined(_WIN32)
/** Run @p fn once in a forked child and report its RSS deltas. */
void
measureRssForked(const Variant &v, Measured &out)
{
    int fds[2];
    if (pipe(fds) != 0)
        return;
    pid_t pid = fork();
    if (pid == 0) {
        close(fds[0]);
        u64 before = currentRssKb();
        OpenedIndex idx = v.open();
        u64 afterOpen = currentRssKb();
        volatile u64 sink = sweepView(idx.view);
        (void)sink;
        u64 afterSweep = currentRssKb();
        u64 deltas[2] = { afterOpen - before, afterSweep - before };
        ssize_t w = write(fds[1], deltas, sizeof(deltas));
        (void)w;
        close(fds[1]);
        _exit(0);
    }
    close(fds[1]);
    u64 deltas[2] = { 0, 0 };
    ssize_t r = read(fds[0], deltas, sizeof(deltas));
    close(fds[0]);
    waitpid(pid, nullptr, 0);
    if (r == sizeof(deltas)) {
        out.rssOpenKb = deltas[0];
        out.rssSweepKb = deltas[1];
    }
}
#else
void
measureRssForked(const Variant &, Measured &)
{
}
#endif

Measured
measure(const Variant &v, int reps)
{
    Measured out;
    std::vector<double> times;
    times.reserve(static_cast<std::size_t>(reps));
    for (int i = 0; i < reps; ++i) {
        util::Stopwatch watch;
        OpenedIndex idx = v.open();
        // A token lookup keeps the open from being optimized away and
        // matches what a real start does immediately after opening.
        volatile u64 sink = idx.view.lookup(1).size();
        (void)sink;
        times.push_back(watch.seconds());
    }
    std::sort(times.begin(), times.end());
    out.minSeconds = times.front();
    out.medianSeconds = times[times.size() / 2];
    measureRssForked(v, out);
    return out;
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

    banner("Index image open: v2 mmap, verified vs unverified",
           "ROADMAP zero-copy serving (SeedMap image format v2)");

    // The fig11 reference: same genome profile the end-to-end bench maps.
    simdata::GenomeParams gp;
    gp.length = kBenchGenomeLen;
    gp.chromosomes = 2;
    gp.seed = 7;
    genomics::Reference ref = simdata::generateGenome(gp);
    genpair::SeedMapParams sp;
    genpair::SeedMap map(ref, sp);
    std::printf("reference %llu bp, seed table %.1f MiB, "
                "location table %.1f MiB\n",
                static_cast<unsigned long long>(ref.totalLength()),
                map.seedTableBytes() / 1048576.0,
                map.locationTableBytes() / 1048576.0);

    const std::string v2Path = "/tmp/gpx_index_load_v2.gpx";
    u64 v2Bytes = 0;
    {
        std::ofstream v2(v2Path, std::ios::binary | std::ios::trunc);
        genpair::saveSeedMapV2(v2, map, 8);
        v2Bytes = static_cast<u64>(v2.tellp());
        if (!v2.good()) {
            std::fprintf(stderr, "cannot write the bench image to /tmp\n");
            return 1;
        }
    }

    std::vector<Variant> variants;
    variants.push_back({ "v2 mmap open (verify)", "v2_mmap_verify",
                         [&]() {
                             OpenedIndex idx;
                             idx.image = *genpair::SeedMapImage::open(
                                 v2Path, {});
                             idx.view = idx.image->view();
                             return idx;
                         } });
    variants.push_back({ "v2 mmap open (no verify)", "v2_mmap_noverify",
                         [&]() {
                             OpenedIndex idx;
                             genpair::SeedMapOpenOptions opts;
                             opts.verifyPayload = false;
                             idx.image = *genpair::SeedMapImage::open(
                                 v2Path, opts);
                             idx.view = idx.image->view();
                             return idx;
                         } });

    constexpr int kReps = 7;
    std::vector<Measured> results;
    results.reserve(variants.size());
    util::Table table({ "variant", "open min (ms)", "open median (ms)",
                        "RSS after open (MiB)", "RSS after sweep (MiB)" });
    for (const auto &v : variants) {
        Measured m = measure(v, kReps);
        results.push_back(m);
        table.row()
            .cell(v.name)
            .cell(m.minSeconds * 1e3, 3)
            .cell(m.medianSeconds * 1e3, 3)
            .cell(m.rssOpenKb / 1024.0, 1)
            .cell(m.rssSweepKb / 1024.0, 1);
    }
    std::printf("%s", table.toString("index image open cost").c_str());

    std::printf("\nimage bytes: %llu\n",
                static_cast<unsigned long long>(v2Bytes));

    if (!jsonPath.empty()) {
        std::ostringstream js;
        js << "{\n"
           << "  \"bench\": \"micro_index_load\",\n"
           << "  \"gpx_version\": \"" << gpx::kVersion << "\",\n"
           << "  \"context\": " << gpx::bench::simdContextJson() << ",\n"
           << "  \"reference_bp\": " << ref.totalLength() << ",\n"
           << "  \"image_bytes_v2\": " << v2Bytes << ",\n"
           << "  \"shards_v2\": 8,\n"
           << "  \"variants\": [\n";
        for (std::size_t i = 0; i < variants.size(); ++i) {
            const auto &m = results[i];
            js << "    {\"name\": \"" << variants[i].key << "\", "
               << "\"open_min_s\": " << m.minSeconds << ", "
               << "\"open_median_s\": " << m.medianSeconds << ", "
               << "\"rss_open_kb\": " << m.rssOpenKb << ", "
               << "\"rss_sweep_kb\": " << m.rssSweepKb << "}"
               << (i + 1 < variants.size() ? "," : "") << "\n";
        }
        js << "  ]\n}\n";
        std::ofstream out(jsonPath);
        out << js.str();
        std::printf("wrote %s\n", jsonPath.c_str());
    }

    std::remove(v2Path.c_str());
    return 0;
}
