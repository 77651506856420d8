/**
 * @file
 * The serve workload: gpx_serve's path, in process.
 *
 * Set-up is what gpx_serve does before it listens: readFasta,
 * SeedMapImage::open, ServeServer construction (the shared minimizer
 * index and the worker pool) and start(). ServeClient connections over
 * a Unix socket then drive two phases:
 *
 *   open loop   — Poisson arrivals at the workload's fixed rate over at
 *                 most nproc connections; each request is timed from
 *                 its scheduled send time, so a stall also delays the
 *                 requests behind it
 *   closed loop — nproc connections, each sending its next request as
 *                 soon as the previous reply arrives
 *
 * Every reply must equal, byte for byte, the SAM records StreamingMapper
 * renders in process for the same FASTQ text.
 */

#include <algorithm>
#include <atomic>
#include <fstream>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <thread>
#include <unistd.h>

#include "bench.hh"
#include "genomics/fasta.hh"
#include "genomics/sam.hh"
#include "genpair/seedmap_io.hh"
#include "genpair/streaming.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "spine.hh"
#include "util/logging.hh"
#include "util/md5.hh"
#include "util/timer.hh"

namespace gpx {
namespace perfbench {

namespace {

constexpr u32 kSetupRepeats = 5;
/** Closed-loop rates are medians over windows of this length. */
constexpr double kWindowS = 0.5;
/** Share of the run's time given to the open loop; the rest is closed. */
constexpr double kOpenLoopShare = 0.75;
/** A batch workload's serve probe: distinct requests and run time. */
constexpr std::size_t kProbeRequests = 64;
constexpr double kProbeSeconds = 3;
/**
 * The arrival schedule is part of the traffic definition, like its
 * rate: fixed, so the latency tail compares the same bursts on every
 * run. The workload seed picks the reads.
 */
constexpr u64 kArrivalSeed = 0x67707873;

/** Each request's FASTQ text, sliced from the generated files. */
struct Requests
{
    std::vector<std::string> r1;
    std::vector<std::string> r2;
    u32 pairsPer = 0;

    std::size_t size() const { return r1.size(); }
};

std::vector<std::string>
sliceFastq(const std::string &text, u32 records_per_slice)
{
    std::vector<std::string> slices;
    std::size_t begin = 0, at = 0;
    u64 lines = 0;
    while (at < text.size()) {
        std::size_t nl = text.find('\n', at);
        at = nl == std::string::npos ? text.size() : nl + 1;
        if (++lines == 4ull * records_per_slice) {
            slices.push_back(text.substr(begin, at - begin));
            begin = at;
            lines = 0;
        }
    }
    return slices; // a partial tail is left out: requests are full
}

/** The reference and image a mount or a replay maps against. */
struct Loaded
{
    genomics::Reference ref;
    std::optional<genpair::SeedMapImage> image;
};

void
load(const WorkloadFiles &f, Loaded &l, Tracer *tracer)
{
    const i64 t0 = nowNs();
    std::ifstream refFile(f.ref());
    if (!refFile)
        gpx_fatal("cannot open reference: ", f.ref());
    l.ref = genomics::readFasta(refFile);
    const i64 t1 = nowNs();
    std::string err;
    l.image = genpair::SeedMapImage::open(f.index(), {}, &err);
    if (!l.image)
        gpx_fatal("index image rejected: ", err);
    if (tracer) {
        std::vector<Span> spans = {
            { tracer->newId(), 0, 0, t0, t1, 0, Layer::SetupFasta },
            { tracer->newId(), 0, 0, t1, nowNs(), 0, Layer::SetupIndex },
        };
        tracer->adopt(spans);
    }
}

/** A started server, as gpx_serve builds it from one --ref/--index. */
struct Server
{
    Loaded mount;
    std::unique_ptr<serve::ServeServer> server;
    std::string socket;

    Server() = default;
    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    ~Server()
    {
        if (server) {
            server->requestShutdown();
            server->waitUntilDrained();
            server.reset();
            ::unlink(socket.c_str());
        }
    }
};

std::unique_ptr<Server>
startServer(const WorkloadFiles &f, double *setup_s)
{
    util::Stopwatch watch;
    auto s = std::make_unique<Server>();
    load(f, s->mount, nullptr);
    serve::MountSpec spec;
    spec.name = "bench";
    spec.ref = &s->mount.ref;
    spec.view = s->mount.image->view();
    spec.indexPath = f.index();
    serve::ServeConfig config; // gpx_serve's defaults
    config.socketPath = f.socket();
    s->socket = config.socketPath;
    s->server = std::make_unique<serve::ServeServer>(
        std::vector<serve::MountSpec>{ spec }, config);
    std::string err;
    if (!s->server->start(&err))
        gpx_fatal("cannot start server: ", err);
    *setup_s = watch.seconds();
    return s;
}

/** One request's outcome as a client saw it. */
struct Sample
{
    bool sent = false;
    bool ok = false;
    double latencyMs = 0; ///< reply time minus scheduled (or send) time
    double lagMs = 0;     ///< send time minus scheduled time
    double doneS = 0;     ///< reply time, seconds since phase start
};

struct PhaseResult
{
    std::vector<Sample> samples;
    /** Closed loop: pairs/s and core-s/Mpair of each full window. */
    std::vector<double> windowPairsPerS;
    std::vector<double> windowCoreSPerMpair;
    std::string firstProblem;
};

Clock::time_point
after(Clock::time_point t, double seconds)
{
    return t + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds));
}

/**
 * Drive the server from @p conns connections. With @p arrivals the
 * phase is an open loop over that schedule (seconds from phase start);
 * without, a closed loop that runs until @p seconds have passed.
 */
PhaseResult
runPhase(const std::string &socket, const Requests &rq,
         const std::vector<std::string> &expected, u32 conns,
         const std::vector<double> *arrivals, double seconds,
         const RunOptions &opt, Tracer *tracer, u64 trace_base)
{
    PhaseResult res;
    const std::size_t maxRequests =
        arrivals ? arrivals->size()
                 : static_cast<std::size_t>(seconds * 20000) + 1000;
    res.samples.resize(maxRequests);
    std::atomic<std::size_t> next{ 0 };
    std::mutex problemMu;
    std::vector<std::vector<Span>> spans(conns);

    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline = after(start, seconds);
    // Closed loop: process CPU time at every window boundary.
    std::vector<double> cpuAt;
    std::thread sampler;
    if (!arrivals)
        sampler = std::thread([&]() {
            for (u32 i = 0; after(start, i * kWindowS) <= deadline; ++i) {
                std::this_thread::sleep_until(after(start, i * kWindowS));
                cpuAt.push_back(processCpuSeconds());
            }
        });
    auto worker = [&](u32 conn) {
        std::string err;
        auto client = serve::ServeClient::connectUnix(socket, &err);
        for (;;) {
            const std::size_t k = next.fetch_add(1);
            if (k >= maxRequests)
                break;
            Clock::time_point due = Clock::now();
            if (arrivals) {
                due = after(start, (*arrivals)[k]);
                std::this_thread::sleep_until(due);
            } else if (due >= deadline) {
                break;
            }
            Sample &s = res.samples[k];
            s.sent = true;
            const Clock::time_point sent = Clock::now();
            const std::size_t i = k % rq.size();
            serve::MapReplyBody reply;
            serve::ClientStatus status;
            if (client)
                status = client->mapBatch("", rq.r1[i], rq.r2[i], false,
                                          &reply);
            else
                status.transportError = err;
            const Clock::time_point done = Clock::now();
            if (tracer)
                spans[conn].push_back(
                    { tracer->newId(), 0, trace_base + k,
                      std::chrono::duration_cast<std::chrono::nanoseconds>(
                          sent.time_since_epoch())
                          .count(),
                      std::chrono::duration_cast<std::chrono::nanoseconds>(
                          done.time_since_epoch())
                          .count(),
                      conn, Layer::ServeRequest });
            if (opt.corrupt == "reply" && k == 0)
                corruptText(reply.sam);
            s.latencyMs =
                std::chrono::duration<double, std::milli>(done - due).count();
            s.lagMs =
                std::chrono::duration<double, std::milli>(sent - due).count();
            s.doneS = std::chrono::duration<double>(done - start).count();
            s.ok = status.ok && reply.pairCount == rq.pairsPer &&
                   reply.sam == expected[i];
            if (!s.ok) {
                std::lock_guard<std::mutex> lock(problemMu);
                if (res.firstProblem.empty())
                    res.firstProblem =
                        status.ok ? util::detail::cat(
                                        "reply to request ", k,
                                        " differs from the batch rendering")
                                  : status.describe();
            }
            if (!status.ok && !status.errorFrame)
                client.reset(); // transport failure: connection is dead
        }
    };
    std::vector<std::thread> threads;
    for (u32 c = 0; c < conns; ++c)
        threads.emplace_back(worker, c);
    for (auto &t : threads)
        t.join();
    if (sampler.joinable())
        sampler.join();

    res.samples.erase(std::remove_if(res.samples.begin(), res.samples.end(),
                                     [](const Sample &s) { return !s.sent; }),
                      res.samples.end());
    if (cpuAt.size() >= 2) {
        std::vector<u64> pairs(cpuAt.size() - 1, 0);
        for (const Sample &s : res.samples) {
            const auto w = static_cast<std::size_t>(s.doneS / kWindowS);
            if (s.ok && w < pairs.size())
                pairs[w] += rq.pairsPer;
        }
        for (std::size_t w = 0; w < pairs.size(); ++w) {
            const double p = static_cast<double>(pairs[w]);
            res.windowPairsPerS.push_back(p / kWindowS);
            res.windowCoreSPerMpair.push_back(
                p > 0 ? (cpuAt[w + 1] - cpuAt[w]) / (p / 1e6) : 0);
        }
    }
    if (tracer)
        for (auto &v : spans)
            tracer->adopt(v);
    return res;
}

/** Poisson arrival times over [0, seconds) at @p rate per second. */
std::vector<double>
poissonArrivals(double rate, double seconds, u64 seed)
{
    std::mt19937_64 rng(seed);
    std::exponential_distribution<double> gap(rate);
    std::vector<double> at;
    for (double t = gap(rng); t < seconds; t += gap(rng))
        at.push_back(t);
    return at;
}

/** The requests a serve run sends and the replies each must get. */
struct Rig
{
    Requests rq;
    std::vector<std::string> expected;
    double renderPairsPerS = 0; ///< of the in-process rendering
};

/**
 * Slice the first @p max_requests requests out of the workload's FASTQ
 * and render each in process: StreamingMapper with the server's chunk
 * size over the request's text, the batch rendering a reply must equal.
 */
Rig
buildRig(const WorkloadFiles &f, const Loaded &l, std::size_t max_requests)
{
    Rig rig;
    rig.rq.pairsPer = kRequestPairs;
    rig.rq.r1 = sliceFastq(readFile(f.r1()), kRequestPairs);
    rig.rq.r2 = sliceFastq(readFile(f.r2()), kRequestPairs);
    if (rig.rq.r1.size() != rig.rq.r2.size())
        gpx_fatal("FASTQ pair in ", f.dir, " disagrees in length");
    const std::size_t n = std::min(max_requests, rig.rq.size());
    rig.rq.r1.resize(n);
    rig.rq.r2.resize(n);

    genpair::StreamingMapper mapper(l.ref, l.image->view(),
                                    genpair::DriverConfig{},
                                    serve::ServeConfig{}.chunkPairs, 1);
    util::Stopwatch watch;
    u64 pairs = 0;
    for (std::size_t i = 0; i < n; ++i) {
        std::istringstream is1(rig.rq.r1[i]), is2(rig.rq.r2[i]);
        std::ostringstream os;
        genomics::SamWriter sam(os, l.ref);
        pairs += mapper.run(is1, is2, sam).pairs;
        rig.expected.push_back(os.str());
    }
    rig.renderPairsPerS = static_cast<double>(pairs) / watch.seconds();
    return rig;
}

/** Both serve phases against one started server. */
struct ServeRun
{
    PhaseResult open;
    PhaseResult closed;
    serve::ServeCounters before;
    serve::ServeCounters after;
};

ServeRun
servePhases(const Server &server, const Rig &rig, double seconds,
            const RunOptions &opt, Tracer *tracer)
{
    const u32 conns = std::max(1u, std::thread::hardware_concurrency());
    const std::vector<double> arrivals = poissonArrivals(
        kOpenLoopPerSec, seconds * kOpenLoopShare, kArrivalSeed);
    ServeRun run;
    run.before = server.server->counters();
    run.open = runPhase(server.socket, rig.rq, rig.expected, conns,
                        &arrivals, 0, opt, tracer, 0);
    run.closed = runPhase(server.socket, rig.rq, rig.expected, conns,
                          nullptr, seconds * (1 - kOpenLoopShare), opt,
                          tracer, u64{ 1 } << 40);
    run.after = server.server->counters();
    return run;
}

/** Requests sent count as attempted; any bad outcome as failed. */
void
countRequests(const ServeRun &run, RunResult &r)
{
    for (const PhaseResult *phase : { &run.open, &run.closed }) {
        for (const Sample &s : phase->samples) {
            ++r.attempted;
            if (!s.ok)
                ++r.failed;
        }
        if (!phase->firstProblem.empty())
            r.problems.push_back(phase->firstProblem);
    }
}

/** The serve.* layer metrics of @p run, from its request spans. */
void
addServeMetrics(const ServeRun &run, Tracer &tracer, const WorkloadFiles &f,
                RunResult &r)
{
    const std::vector<Span> requestSpans = tracer.take();
    Tracer::append(f.spans(), requestSpans);
    double requestS = 0;
    for (const Span &s : requestSpans)
        requestS += (s.endNs - s.startNs) * 1e-9;
    std::vector<double> lag;
    for (const Sample &s : run.open.samples)
        lag.push_back(s.lagMs);
    const double mapS = run.after.mapSeconds - run.before.mapSeconds;
    auto delta = [&](u64 serve::ServeCounters::*field) {
        return static_cast<double>(run.after.*field - run.before.*field);
    };
    r.add("serve.map_s", mapS, "s");
    r.add("serve.non_map_frac", requestS > 0 ? 1.0 - mapS / requestS : 0,
          "fraction");
    r.add("serve.admission_waits",
          delta(&serve::ServeCounters::admissionWaits), "count");
    r.add("serve.shedded", delta(&serve::ServeCounters::shedded), "count");
    r.add("serve.requests_rejected",
          delta(&serve::ServeCounters::requestsRejected), "count");
    r.add("serve.generator_lag_ms_p99", quantile(lag, 0.99), "ms");
}

/**
 * Replay every request through TracedMapper, each a spine run of its
 * own as the server runs it, and check each against the rendering.
 * Returns the replay's layer metrics and the tracing overhead.
 */
std::vector<Metric>
tracedReplay(const Loaded &l, const Rig &rig, const WorkloadFiles &f,
             Tracer &tracer, RunResult &r)
{
    TracedMapper traced(l.ref, l.image->view(), genpair::DriverConfig{},
                        tracer);
    SpineResult total;
    u64 samBytes = 0;
    util::Stopwatch watch;
    for (std::size_t i = 0; i < rig.rq.size(); ++i) {
        std::istringstream is1(rig.rq.r1[i]), is2(rig.rq.r2[i]);
        std::ostringstream os;
        genomics::SamWriter sam(os, l.ref);
        const SpineResult s =
            traced.run(is1, is2, sam, serve::ServeConfig{}.chunkPairs, 1,
                       static_cast<u64>(i) << 32);
        samBytes += sam.bytesWritten();
        total.pairs += s.pairs;
        total.chunks += s.chunks;
        total.inputBytes += s.inputBytes;
        total.readerStallS += s.readerStallS;
        total.writerStallS += s.writerStallS;
        if (!s.error.empty() || os.str() != rig.expected[i])
            r.fail(rig.rq.pairsPer,
                   util::detail::cat("traced replay of request ", i,
                                     " differs from the untraced rendering"));
    }
    const double tracedPairsPerS =
        static_cast<double>(total.pairs) / watch.seconds();
    const std::vector<Span> spans = tracer.take();
    Tracer::append(f.spans(), spans);
    std::vector<Metric> m = replayMetrics(spans, traced.threads(),
                                          traced.stats(), traced.dpWork(),
                                          total, samBytes);
    m.push_back({ "trace.pairs_per_s", tracedPairsPerS, "pairs/s" });
    m.push_back(
        { "trace.untraced_pairs_per_s", rig.renderPairsPerS, "pairs/s" });
    m.push_back({ "trace.overhead_frac",
                  1.0 - tracedPairsPerS / rig.renderPairsPerS, "fraction" });
    return m;
}

} // namespace

void
addServeProbeMetrics(const WorkloadFiles &f, const RunOptions &opt,
                     RunResult &r)
{
    Loaded l;
    load(f, l, nullptr);
    const Rig rig = buildRig(f, l, kProbeRequests);
    double setupS = 0;
    const std::unique_ptr<Server> server = startServer(f, &setupS);
    Tracer tracer;
    const ServeRun run = servePhases(*server, rig, kProbeSeconds, opt,
                                     &tracer);
    countRequests(run, r);
    addServeMetrics(run, tracer, f, r);
}

RunResult
runServe(const Workload &w, const WorkloadFiles &f, const RunOptions &opt)
{
    RunResult r;
    Tracer tracer;
    Rig rig;
    {
        Loaded l;
        load(f, l, opt.trace ? &tracer : nullptr);
        rig = buildRig(f, l, w.pairs / kRequestPairs);
        if (rig.rq.size() * kRequestPairs != w.pairs)
            gpx_fatal("FASTQ in ", f.dir, " does not hold ", w.pairs,
                      " pairs");

        std::string all;
        for (const std::string &s : rig.expected)
            all += s;
        r.digest = util::detail::cat(all.size(), ":", util::md5Hex(all));
        const SamCheck check =
            checkSam(all, l.ref, loadTruth(f.truth()), 0, w.pairs);
        if (!check.firstProblem.empty())
            r.fail(std::max<u64>(1, check.badPairs),
                   "SAM check: " + check.firstProblem);
        if (check.accuracy() < w.minAccuracy)
            r.fail(1, util::detail::cat("accuracy ", check.accuracy(),
                                        " below ", w.minAccuracy));
        r.add("accuracy", check.accuracy(), "fraction");

        if (opt.trace)
            r.metrics = tracedReplay(l, rig, f, tracer, r);
    }

    // Set-up, repeated; the last server stays up for the phases.
    resetPeakRss();
    std::vector<double> setup;
    std::unique_ptr<Server> server;
    for (u32 i = 0; i < kSetupRepeats; ++i) {
        server.reset();
        double s = 0;
        server = startServer(f, &s);
        setup.push_back(s);
    }
    const ServeRun run = servePhases(*server, rig, opt.seconds, opt,
                                     opt.trace ? &tracer : nullptr);
    server.reset();
    countRequests(run, r);

    std::vector<double> latency;
    for (const Sample &s : run.open.samples)
        latency.push_back(s.latencyMs);
    r.samples["setup_s"] = setup;
    r.samples["latency_ms"] = latency;
    r.samples["pairs_per_s"] = run.closed.windowPairsPerS;
    r.samples["core_s_per_mpair"] = run.closed.windowCoreSPerMpair;

    if (opt.trace) {
        addServeMetrics(run, tracer, f, r);
        return r;
    }
    r.add("pairs_per_s", median(run.closed.windowPairsPerS), "pairs/s");
    r.add("setup_s", median(setup), "s");
    r.add("core_s_per_mpair", median(run.closed.windowCoreSPerMpair),
          "core-s/Mpair");
    r.add("peak_rss_mib", peakRssMib(), "MiB");
    r.add("latency_p50_ms", quantile(latency, 0.50), "ms");
    r.add("latency_p99_ms", quantile(latency, 0.99), "ms");
    return r;
}

} // namespace perfbench
} // namespace gpx
