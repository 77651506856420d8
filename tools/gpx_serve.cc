/**
 * @file
 * gpx_serve — the resident mapping daemon: mount one or more SeedMap
 * v2 images once (zero-copy mmap, kernel-shared pages), keep the
 * persistent worker pools warm, and serve concurrent mapping requests
 * over gpx-serve-proto v2 on a Unix or TCP socket until told to drain
 * (SIGTERM/SIGINT or a client SHUTDOWN frame).
 *
 * Every mapping request is bit-identical to a gpx_map run over the
 * same pairs; what the daemon removes is the per-run cold start
 * (reference load, index open, pool spawn) — see
 * docs/serve_protocol.md and the Serving section of the README.
 */

#include <atomic>
#include <csignal>
#include <fstream>
#include <limits>
#include <memory>
#include <poll.h>
#include <thread>
#include <unistd.h>

#include "cli.hh"
#include "genomics/fasta.hh"
#include "genpair/seedmap_io.hh"
#include "serve/server.hh"
#include "util/logging.hh"
#include "util/timer.hh"

namespace {

const char kUsage[] =
    "usage: gpx_serve --ref REF.fa --index INDEX.gpx --socket PATH "
    "[options]\n"
    "       gpx_serve --mount REF.fa:INDEX.gpx[:NAME] [--mount ...] "
    "--port N\n"
    "\n"
    "  --ref FILE           reference FASTA (single-mount shorthand)\n"
    "  --index FILE         SeedMap image from gpx_index; omitted =\n"
    "                       build in memory at start-up\n"
    "  --mount SPEC         REF.fa:INDEX.gpx[:NAME] — mount one\n"
    "                       reference/index pair under NAME\n"
    "                       (default: index file stem); repeatable\n"
    "  --socket PATH        listen on a Unix-domain socket\n"
    "  --port N             listen on TCP 127.0.0.1:N instead\n"
    "                       (0 = kernel-assigned, printed at start)\n"
    "  --threads N          worker threads per mount (0 = hardware) [0]\n"
    "  --queue N            admission slots: requests mapping or\n"
    "                       queued; more block in their sockets   [4]\n"
    "  --max-frame-mib N    per-frame size limit (<= 4095)       [64]\n"
    "  --max-pairs N        per-request pair limit            [65536]\n"
    "  --idle-timeout N     close connections idle for N seconds\n"
    "                       (0 = never)                           [0]\n"
    "  --conn-timeout N     per-frame read/write deadline, seconds;\n"
    "                       slow peers get ERROR{DEADLINE}        [0]\n"
    "  --queue-timeout N    shed requests that cannot get an\n"
    "                       admission slot within N ms with\n"
    "                       ERROR{OVERLOADED} (0 = block forever) [0]\n"
    "  --retry-after N      retry_after_ms hint on OVERLOADED   [100]\n"
    "  --filter-threshold N index filter when building inline   [500]\n"
    "  --stats-every N      print aggregate counters to stderr\n"
    "                       every N seconds (0 = off)             [0]\n"
    "  --stats-json FILE    write aggregate stats JSON at shutdown\n"
    "  --version            print the gpx version and exit\n"
    "\n"
    "SIGHUP hot-swaps every file-backed mount: each index path is\n"
    "re-opened and fully validated before the new image is published;\n"
    "a corrupt candidate is rejected and the old index keeps serving.\n";

/** One parsed --mount (or --ref/--index shorthand). */
struct MountFiles
{
    std::string name;
    std::string refPath;
    std::string indexPath; ///< empty = build inline
};

std::string
fileStem(const std::string &path)
{
    std::size_t slash = path.find_last_of('/');
    std::string base =
        slash == std::string::npos ? path : path.substr(slash + 1);
    std::size_t dot = base.find_last_of('.');
    return dot == std::string::npos || dot == 0 ? base
                                                : base.substr(0, dot);
}

MountFiles
parseMountSpec(const std::string &spec)
{
    MountFiles files;
    std::size_t c1 = spec.find(':');
    if (c1 == std::string::npos)
        gpx_fatal("--mount expects REF.fa:INDEX.gpx[:NAME], got '",
                  spec, "'");
    std::size_t c2 = spec.find(':', c1 + 1);
    files.refPath = spec.substr(0, c1);
    files.indexPath = spec.substr(
        c1 + 1, c2 == std::string::npos ? c2 : c2 - c1 - 1);
    files.name = c2 == std::string::npos ? fileStem(files.indexPath)
                                         : spec.substr(c2 + 1);
    if (files.refPath.empty() || files.indexPath.empty() ||
        files.name.empty())
        gpx_fatal("--mount expects REF.fa:INDEX.gpx[:NAME], got '",
                  spec, "'");
    return files;
}

/** Self-pipe written by the signal handler, read by the monitor. */
int gSignalPipe[2] = { -1, -1 };

extern "C" void
onShutdownSignal(int)
{
    // Async-signal-safe: one byte through the self-pipe; the monitor
    // thread does the actual shutdown work.
    const char byte = 's';
    [[maybe_unused]] ssize_t n = write(gSignalPipe[1], &byte, 1);
}

extern "C" void
onRefreshSignal(int)
{
    // SIGHUP = hot-swap: the monitor thread re-opens and validates
    // every file-backed index off the signal path.
    const char byte = 'r';
    [[maybe_unused]] ssize_t n = write(gSignalPipe[1], &byte, 1);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace gpx;
    tools::Cli cli(argc, argv,
                   { "--ref", "--index", "--mount", "--socket", "--port",
                     "--threads", "--queue",
                     "--max-frame-mib", "--max-pairs",
                     "--idle-timeout", "--conn-timeout",
                     "--queue-timeout", "--retry-after",
                     "--filter-threshold", "--stats-every",
                     "--stats-json" },
                   {}, kUsage);

    // Assemble the mount list: repeatable --mount specs, plus the
    // --ref/--index shorthand for the common single-reference server.
    std::vector<MountFiles> mountFiles;
    for (const auto &spec : cli.all("--mount"))
        mountFiles.push_back(parseMountSpec(spec));
    if (cli.has("--ref")) {
        MountFiles files;
        files.refPath = cli.str("--ref");
        files.indexPath = cli.str("--index");
        files.name = files.indexPath.empty()
                         ? fileStem(files.refPath)
                         : fileStem(files.indexPath);
        mountFiles.push_back(files);
    }
    if (mountFiles.empty())
        gpx_fatal("nothing to serve: give --ref (and --index) or "
                  "--mount");
    if (!cli.has("--socket") && !cli.has("--port"))
        gpx_fatal("give a --socket path or a --port to listen on");

    serve::ServeConfig config;
    config.socketPath = cli.str("--socket");
    // Flags scaled on their way into a u32 cap what the scaling can
    // hold (4095 MiB, and seconds that fit in u32 milliseconds).
    constexpr u32 kMaxSeconds = std::numeric_limits<u32>::max() / 1000;
    config.port = cli.num<u16>("--port", 0);
    config.threads = cli.num<u32>("--threads", 0);
    config.admissionSlots = cli.num<u32>("--queue", 4);
    config.maxFrameBytes = cli.num<u32>("--max-frame-mib", 64, 4095) << 20;
    config.maxPairsPerRequest = cli.num<u32>("--max-pairs", 65536);
    config.idleTimeoutMs =
        cli.num<u32>("--idle-timeout", 0, kMaxSeconds) * 1000;
    config.connTimeoutMs =
        cli.num<u32>("--conn-timeout", 0, kMaxSeconds) * 1000;
    config.queueTimeoutMs = cli.num<u32>("--queue-timeout", 0);
    config.retryAfterMs = cli.num<u32>("--retry-after", 100);
    const int statsEvery = cli.num<int>(
        "--stats-every", 0, std::numeric_limits<int>::max() / 1000);

    // Mount everything up front: this is the cold start the daemon
    // pays exactly once, instead of every gpx_map run paying it.
    struct LoadedMount
    {
        genomics::Reference ref;
        std::optional<genpair::SeedMapImage> image;
        std::unique_ptr<genpair::SeedMap> built;
    };
    std::vector<LoadedMount> loaded(mountFiles.size());
    std::vector<serve::MountSpec> specs;
    util::Stopwatch mountWatch;
    for (std::size_t i = 0; i < mountFiles.size(); ++i) {
        const MountFiles &files = mountFiles[i];
        std::ifstream refFile(files.refPath);
        if (!refFile)
            gpx_fatal("cannot open reference: ", files.refPath);
        loaded[i].ref = genomics::readFasta(refFile);
        if (loaded[i].ref.totalLength() == 0)
            gpx_fatal("reference is empty: ", files.refPath);

        serve::MountSpec spec;
        spec.name = files.name;
        spec.ref = &loaded[i].ref;
        if (!files.indexPath.empty()) {
            std::string err;
            loaded[i].image = genpair::SeedMapImage::open(
                files.indexPath, {}, &err);
            if (!loaded[i].image)
                gpx_fatal("index image rejected: ", err);
            spec.view = loaded[i].image->view();
            spec.indexPath = files.indexPath; // hot-swappable
            std::fprintf(stderr,
                         "mounted %s: %s + %s (mmap, zero-copy, %u "
                         "shard%s)\n",
                         files.name.c_str(), files.refPath.c_str(),
                         files.indexPath.c_str(),
                         loaded[i].image->shardCount(),
                         loaded[i].image->shardCount() == 1 ? "" : "s");
        } else {
            genpair::SeedMapParams sp;
            sp.filterThreshold = cli.num<u32>("--filter-threshold", 500);
            loaded[i].built = std::make_unique<genpair::SeedMap>(
                genpair::SeedMap::build(loaded[i].ref, sp, config.threads));
            spec.view = *loaded[i].built;
            std::fprintf(stderr, "mounted %s: %s (index built inline)\n",
                         files.name.c_str(), files.refPath.c_str());
        }
        specs.push_back(spec);
    }

    serve::ServeServer server(std::move(specs), config);
    std::string error;
    if (!server.start(&error))
        gpx_fatal("cannot start server: ", error);
    if (!config.socketPath.empty())
        std::fprintf(stderr, "listening on %s (%zu mount%s, warm in "
                             "%.2f s)\n",
                     config.socketPath.c_str(), mountFiles.size(),
                     mountFiles.size() == 1 ? "" : "s",
                     mountWatch.seconds());
    else
        std::fprintf(stderr, "listening on 127.0.0.1:%u (%zu mount%s, "
                             "warm in %.2f s)\n",
                     server.boundPort(), mountFiles.size(),
                     mountFiles.size() == 1 ? "" : "s",
                     mountWatch.seconds());

    // SIGTERM/SIGINT drain gracefully through the self-pipe; the
    // monitor thread doubles as the periodic stats reporter.
    if (pipe(gSignalPipe) != 0)
        gpx_fatal("cannot create signal pipe");
    std::signal(SIGTERM, onShutdownSignal);
    std::signal(SIGINT, onShutdownSignal);
    std::signal(SIGHUP, onRefreshSignal);

    std::atomic<bool> exiting{ false };
    std::thread monitor([&]() {
        for (;;) {
            pollfd pfd{ gSignalPipe[0], POLLIN, 0 };
            int timeoutMs = statsEvery > 0 ? statsEvery * 1000 : -1;
            int rc = poll(&pfd, 1, timeoutMs);
            if (rc > 0) {
                char byte = 's';
                if (read(gSignalPipe[0], &byte, 1) == 1 && byte == 'r') {
                    u32 swapped = server.refreshAllMounts();
                    std::fprintf(stderr,
                                 "SIGHUP: refreshed %u mount%s\n",
                                 swapped, swapped == 1 ? "" : "s");
                    continue;
                }
                std::fprintf(stderr, "shutdown signal: draining\n");
                server.requestShutdown();
                return;
            }
            if (exiting.load())
                return;
            if (rc == 0) {
                serve::ServeCounters c = server.counters();
                std::fprintf(stderr,
                             "served %llu requests / %llu pairs over "
                             "%llu connections (%llu rejected, %llu "
                             "admission waits, %llu shed, %llu idle "
                             "closed, %llu deadline, %llu io faults, "
                             "%llu swaps; stalls: reader %.3f s, "
                             "writer %.3f s)\n",
                             static_cast<unsigned long long>(
                                 c.requestsServed),
                             static_cast<unsigned long long>(
                                 c.pairsMapped),
                             static_cast<unsigned long long>(
                                 c.connectionsAccepted),
                             static_cast<unsigned long long>(
                                 c.requestsRejected),
                             static_cast<unsigned long long>(
                                 c.admissionWaits),
                             static_cast<unsigned long long>(c.shedded),
                             static_cast<unsigned long long>(
                                 c.idleClosed),
                             static_cast<unsigned long long>(
                                 c.deadlineExpired),
                             static_cast<unsigned long long>(c.ioFaults),
                             static_cast<unsigned long long>(
                                 c.indexSwaps),
                             c.readerStallSeconds, c.writerStallSeconds);
            }
        }
    });

    server.waitUntilDrained();
    // Unblock the monitor if the drain came from a SHUTDOWN frame
    // rather than a signal.
    exiting.store(true);
    onShutdownSignal(0);
    monitor.join();

    serve::ServeCounters c = server.counters();
    std::printf("drained: %llu requests, %llu pairs, %llu connections "
                "(%llu rejected; pool time %.2f s)\n",
                static_cast<unsigned long long>(c.requestsServed),
                static_cast<unsigned long long>(c.pairsMapped),
                static_cast<unsigned long long>(c.connectionsAccepted),
                static_cast<unsigned long long>(c.requestsRejected),
                c.mapSeconds);
    if (cli.has("--stats-json")) {
        std::ofstream statsFile(cli.str("--stats-json"));
        if (!statsFile)
            gpx_fatal("cannot open stats output: ",
                      cli.str("--stats-json"));
        statsFile << server.statsJson();
        statsFile.flush();
        if (!statsFile)
            gpx_fatal("write to stats file failed");
        std::printf("wrote aggregate stats to %s\n",
                    cli.str("--stats-json").c_str());
    }
    if (!config.socketPath.empty())
        unlink(config.socketPath.c_str());
    return 0;
}
