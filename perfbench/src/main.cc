/**
 * @file
 * gpx_perfbench — generate a seeded workload, or run one and print
 * its metrics as one JSON line. run.py drives both steps; see
 * README.md for the workloads and metrics.
 *
 *   gpx_perfbench gen --workload W --seed N --dir DIR [--tiny]
 *   gpx_perfbench run --workload W --seed N --dir DIR --seconds S
 *                     --trace 0|1 [--tiny] [--corrupt sam|reply]
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <thread>

#include "bench.hh"
#include "genpair/engine.hh"
#include "serve/server.hh"
#include "util/logging.hh"
#include "util/simd.hh"
#include "util/version.hh"

namespace {

using namespace gpx;
using namespace gpx::perfbench;

const char kUsage[] =
    "usage: gpx_perfbench gen --workload W --seed N --dir DIR [--tiny]\n"
    "       gpx_perfbench run --workload W --seed N --dir DIR --seconds S\n"
    "                         --trace 0|1 [--tiny] [--corrupt sam|reply]\n";

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr, "%s\n%s", why.c_str(), kUsage);
    std::exit(2);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Host and workload context recorded with every result. */
void
addContext(RunResult &r, const Workload &w, const RunOptions &opt)
{
    const u32 nproc = std::max(1u, std::thread::hardware_concurrency());
    auto num = [&](const char *key, double v) {
        r.context.emplace_back(key, jsonNumber(v));
    };
    auto str = [&](const char *key, const std::string &v) {
        r.context.emplace_back(key, jsonString(v));
    };
    str("gpx_version", kVersion);
    num("nproc", nproc);
    num("threads", nproc); // DriverConfig::threads = 0: every hardware thread
    str("simd_backend", util::simdBackendName(util::activeSimdBackend()));
    str("simd_reason", util::simdBackendReason());
    num("seed", static_cast<double>(opt.seed));
    num("seconds", opt.seconds);
    str("why", w.why);
    num("genome_bp", static_cast<double>(w.genomeBp));
    num("pairs", static_cast<double>(w.pairs));
    num("block_pairs",
        static_cast<double>(genpair::MapperEngine::kDefaultBlockItems));
    num("request_pairs", kRequestPairs);
    num("open_loop_per_s", kOpenLoopPerSec);
    num("connections", nproc);
    num("serve_chunk_pairs", serve::ServeConfig{}.chunkPairs);
    if (w.kind == WorkloadKind::Batch)
        num("chunk_pairs", 65536);
    num("error_rate", w.errorRate);
}

void
printResult(const std::string &workload, const RunResult &r)
{
    std::string out = "{\"workload\": " + jsonString(workload);
    out += ", \"correct\": ";
    out += r.failed == 0 && r.problems.empty() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(r.attempted);
    out += ", \"failed\": " + std::to_string(r.failed);
    out += ", \"digest\": " + jsonString(r.digest);
    out += ", \"problems\": [";
    for (std::size_t i = 0; i < r.problems.size(); ++i)
        out += (i ? ", " : "") + jsonString(r.problems[i]);
    out += "], \"context\": {";
    for (std::size_t i = 0; i < r.context.size(); ++i)
        out += (i ? ", " : "") + jsonString(r.context[i].first) + ": " +
               r.context[i].second;
    out += "}, \"samples\": {";
    bool first = true;
    for (const auto &[name, values] : r.samples) {
        const double q = highestSupportedQuantile(values.size());
        out += (first ? "" : ", ") + jsonString(name) + ": {\"n\": " +
               std::to_string(values.size()) +
               ", \"median\": " + jsonNumber(median(values)) +
               ", \"max\": " + jsonNumber(quantile(values, 1.0));
        if (q > 0)
            out += ", \"q\": " + jsonNumber(q) +
                   ", \"at_q\": " + jsonNumber(quantile(values, q));
        out += "}";
        first = false;
    }
    out += "}, \"metrics\": {";
    for (std::size_t i = 0; i < r.metrics.size(); ++i)
        out += (i ? ", " : "") + jsonString(r.metrics[i].name) +
               ": {\"value\": " + jsonNumber(r.metrics[i].value) +
               ", \"unit\": " + jsonString(r.metrics[i].unit) + "}";
    out += "}}\n";
    std::fputs(out.c_str(), stdout);
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage("missing command");
    const std::string command = argv[1];
    std::string workload, dir;
    RunOptions opt;
    bool tiny = false, haveSeed = false, haveTrace = false;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        try {
            if (arg == "--workload")
                workload = value();
            else if (arg == "--dir")
                dir = value();
            else if (arg == "--seed") {
                opt.seed = std::stoull(value());
                haveSeed = true;
            } else if (arg == "--seconds")
                opt.seconds = std::stod(value());
            else if (arg == "--trace") {
                const std::string t = value();
                if (t != "0" && t != "1")
                    usage("--trace takes 0 or 1");
                opt.trace = t == "1";
                haveTrace = true;
            } else if (arg == "--corrupt") {
                opt.corrupt = value();
                if (opt.corrupt != "sam" && opt.corrupt != "reply")
                    usage("--corrupt takes sam or reply");
            } else if (arg == "--tiny")
                tiny = true;
            else
                usage("unknown argument: " + arg);
        } catch (const std::exception &) {
            usage("bad value for " + arg);
        }
    }
    if (workload.empty() || dir.empty() || !haveSeed)
        usage("--workload, --seed and --dir are required");

    const Workload w = findWorkload(workload, tiny);
    WorkloadFiles files;
    files.dir = dir;
    if (command == "gen") {
        generateWorkload(w, opt.seed, files);
        return 0;
    }
    if (command != "run")
        usage("unknown command: " + command);
    if (!haveTrace || !(opt.seconds > 0))
        usage("run needs --seconds > 0 and --trace");

    std::remove(files.spans().c_str());
    RunResult r = w.kind == WorkloadKind::Serve ? runServe(w, files, opt)
                                                : runBatch(w, files, opt);
    addContext(r, w, opt);
    printResult(w.name, r);
    return r.failed == 0 && r.problems.empty() ? 0 : 1;
}
