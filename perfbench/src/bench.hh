/**
 * @file
 * Shared declarations of gpx_perfbench: workloads, the result record
 * every mode fills, and the helpers the modes share (clocks, CPU time,
 * statistics, output checks).
 */

#ifndef GPX_PERFBENCH_BENCH_HH
#define GPX_PERFBENCH_BENCH_HH

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "genomics/reference.hh"
#include "util/types.hh"

namespace gpx {
namespace perfbench {

// --- workloads -------------------------------------------------------

enum class WorkloadKind
{
    Batch, ///< gpx_map path: StreamingMapper over FASTQ files
    Serve, ///< gpx_serve path: in-process ServeServer + ServeClients
};

/** One workload: what is generated, and how it is driven. */
struct Workload
{
    std::string name;
    WorkloadKind kind = WorkloadKind::Batch;
    std::string why;
    u64 genomeBp = 0;
    u64 pairs = 0;
    /** Uniform per-base error rate; 0 = the D1 quality-mixture profile. */
    double errorRate = 0;
    /** Accuracy below this fails the output check (a sanity floor). */
    double minAccuracy = 0;
};

/** Pairs per MAP request on the serve path. */
inline constexpr u32 kRequestPairs = 128;

/**
 * Open-loop arrival rate of the serve phases, requests/s: about a third
 * of the 306 requests/s one closed-loop connection sustains on a 4-core
 * AVX-512 host, so the pool stays well below saturation. Fixed, never
 * derived per run: every run offers the same load.
 */
inline constexpr double kOpenLoopPerSec = 100;

/** The named workload; @p tiny shrinks it for the benchmark's tests. */
Workload findWorkload(const std::string &name, bool tiny);

/** Files a generated workload consists of. */
struct WorkloadFiles
{
    std::string dir;
    std::string ref() const { return dir + "/ref.fa"; }
    std::string r1() const { return dir + "/r1.fq"; }
    std::string r2() const { return dir + "/r2.fq"; }
    std::string truth() const { return dir + "/truth.tsv"; }
    std::string index() const { return dir + "/index.gpx"; }
    std::string sam() const { return dir + "/out.sam"; }
    std::string spans() const { return dir + "/spans.tsv"; }
    std::string socket() const { return dir + "/serve.sock"; }
};

/**
 * Simulate the workload's genome and reads from @p seed and write the
 * FASTA, FASTQ pair, truth table and offline v2 SeedMap image.
 */
void generateWorkload(const Workload &w, u64 seed, const WorkloadFiles &f);

// --- results ---------------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** What one run reports: metrics plus the output-check verdict. */
struct RunResult
{
    u64 attempted = 0;
    u64 failed = 0;
    std::vector<std::string> problems; ///< failed checks, human-readable
    std::vector<Metric> metrics;
    /** Digest of the run's output, identical for every run of a seed. */
    std::string digest;
    /** Sample sets behind the timing metrics, for the report. */
    std::map<std::string, std::vector<double>> samples;
    /** Host and workload context, as JSON members. */
    std::vector<std::pair<std::string, std::string>> context;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({ name, value, unit });
    }

    void
    fail(u64 count, const std::string &problem)
    {
        failed += count;
        problems.push_back(problem);
    }
};

/** Options of one measuring run. */
struct RunOptions
{
    double seconds = 10;
    bool trace = false;
    u64 seed = 1;
    /** Test hook: "sam" or "reply" damages one output before checking. */
    std::string corrupt;
};

RunResult runBatch(const Workload &w, const WorkloadFiles &f,
                   const RunOptions &opt);
RunResult runServe(const Workload &w, const WorkloadFiles &f,
                   const RunOptions &opt);

/**
 * The serve.* layer metrics of a batch workload: a short run of both
 * serve phases with the workload's own first requests.
 */
void addServeProbeMetrics(const WorkloadFiles &f, const RunOptions &opt,
                          RunResult &r);

// --- shared helpers --------------------------------------------------

using Clock = std::chrono::steady_clock;

/** Nanoseconds on the steady clock. */
inline i64
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** Process user+sys CPU seconds so far. */
double processCpuSeconds();

/** Restart the peak resident set size count of this process. */
void resetPeakRss();

/** Peak resident set size of this process since the last reset, MiB. */
double peakRssMib();

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Nearest-rank quantile @p q of @p v (0 when empty). */
double quantile(std::vector<double> v, double q);

/**
 * The highest percentile of @p n samples with at least ten samples
 * above it (0.99 when n >= 1000), or 0 when there are too few.
 */
double highestSupportedQuantile(std::size_t n);

/** Read a whole file (fatal on error). */
std::string readFile(const std::string &path);

/** Simulated origin of one read, in truth-table order. */
struct TruthRead
{
    std::string name;
    GlobalPos pos = kInvalidPos;
    bool reverse = false;
};

std::vector<TruthRead> loadTruth(const std::string &path);

/** Verdict of checking SAM text against the pairs it should hold. */
struct SamCheck
{
    u64 badPairs = 0; ///< pairs without exactly their two records
    u64 readsTotal = 0;
    u64 readsCorrect = 0;
    std::string firstProblem; ///< empty when the text passed

    double
    accuracy() const
    {
        return readsTotal ? static_cast<double>(readsCorrect) / readsTotal
                          : 0.0;
    }
};

/**
 * Check SAM @p text (header lines allowed) against the truth reads
 * [@p first, @p first + 2 * pairs): two records per pair, in input
 * order, named after their read; each read is scored with
 * eval::MappingEvaluator (50 bp tolerance).
 */
SamCheck checkSam(const std::string &text, const genomics::Reference &ref,
                  const std::vector<TruthRead> &truth, u64 first_read,
                  u64 pairs);

/** Flip one byte in the middle of @p text (the corruption test hook). */
void corruptText(std::string &text);

} // namespace perfbench
} // namespace gpx

#endif // GPX_PERFBENCH_BENCH_HH
