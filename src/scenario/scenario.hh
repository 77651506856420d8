/**
 * @file
 * The scenario wall: named end-to-end workloads pinning accuracy.
 *
 * PRs 3-8 made the mapper faster layer by layer; nothing stopped a
 * kernel or stage-graph change from quietly trading mapping accuracy
 * or variant F1 away. This module turns the simdata + eval pieces into
 * a declarative accuracy contract: a table of named scenarios — the
 * short-read baseline with planted variants, Mason-style error sweeps,
 * ONT-like long reads through the parallel LongReadDriver, mixed-
 * species contamination served from a multi-shard mmap SeedMap image,
 * and gzip/truncated ingest variants — each running its full
 * simulate -> index -> map -> evaluate path and emitting one format:1
 * JSON row. `scripts/check_scenarios.py` gates CI against the floors
 * checked in as BENCH_scenarios.json.
 *
 * Everything is seeded (util::Pcg32) and mapping is bit-identical
 * across thread counts and drivers, so the accuracy numbers — unlike
 * the throughput numbers, which are informational — are exact
 * machine-independent constants at a given scale.
 */

#ifndef GPX_SCENARIO_SCENARIO_HH
#define GPX_SCENARIO_SCENARIO_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "eval/mapping_eval.hh"
#include "genpair/longread.hh"
#include "genpair/pipeline.hh"

namespace gpx {
namespace scenario {

/** Workload families of the wall. */
enum class ScenarioKind
{
    kShortRead,       ///< paired 150 bp through ParallelMapper
    kLongRead,        ///< long reads through the parallel LongReadDriver
    kContamination,   ///< two-species mix over a multi-shard mmap image
    kGzipIngest,      ///< gzip FASTQ through the streaming spine
    kTruncatedIngest, ///< mid-record truncation must reject, not crash
};

/** Human-readable kind name (JSON `kind` field). */
const char *kindName(ScenarioKind kind);

/** One named scenario: the full recipe, sized for a Release CI run. */
struct ScenarioSpec
{
    std::string name;
    ScenarioKind kind = ScenarioKind::kShortRead;
    std::string note; ///< one-line description (--list, EXPERIMENTS.md)

    u64 genomeLen = 1 << 19; ///< host genome bases (before scaling)
    u32 chromosomes = 2;
    u64 seed = 23; ///< base seed; genome/variants/reads derive from it

    /**
     * Total per-base error rate for ErrorProfile::uniform(); negative
     * selects the default per-fragment quality mixture (the paper's
     * GIAB-like profile).
     */
    double errorRate = -1.0;

    /**
     * Plant SNPs/INDELs (VariantParams defaults) and run the
     * pileup -> VCF round trip -> variant_bench leg; reads are then
     * sized by @ref coverage instead of @ref reads.
     */
    bool plantVariants = false;
    double coverage = 25.0; ///< target depth when plantVariants

    u64 reads = 4000; ///< pairs (short kinds) or reads (long kind)

    double longMeanLen = 9000.0; ///< long-read length distribution
    double longSdLen = 2500.0;

    double contaminantFrac = 0.0; ///< fraction of reads from species B
    u64 contaminantGenomeLen = 0; ///< species B genome bases
    u32 imageShards = 1; ///< v2 image shards (contamination: > 1)

    u64 evalTolerance = 50; ///< mapping_eval position tolerance (bases)
};

/** Runtime knobs (never part of the accuracy contract). */
struct ScenarioOptions
{
    /**
     * Multiplies genome length and read count. Floors in
     * BENCH_scenarios.json are recorded at scale 1; tests run reduced
     * scales through the library.
     */
    double scale = 1.0;
    u32 threads = 0; ///< mapper threads (0 = hardware)
    /**
     * Directory for the scenario's scratch files (the contamination
     * image); empty = current directory. Files are removed afterwards.
     */
    std::string workDir;
};

/** One JSON row of the wall. */
struct ScenarioResult
{
    std::string name;
    ScenarioKind kind = ScenarioKind::kShortRead;

    bool skipped = false; ///< environment cannot run it (e.g. no zlib)
    std::string skipReason;

    bool rejected = false; ///< ingest rejected the input (by design)
    std::string rejectDiagnostic;

    u64 reads = 0; ///< evaluated reads (2x pairs for paired kinds)
    u64 mapped = 0;
    u64 correct = 0;
    double accuracy = 0; ///< correct / reads (mapping_eval recall)

    double snpF1 = -1;   ///< variant leg only; -1 = not run
    double indelF1 = -1;

    double readsPerSec = 0; ///< informational (machine-dependent)
    double mapSeconds = 0;

    u64 ambiguousBases = 0; ///< ingest accounting (streaming kinds)
    u32 shardCount = 1;     ///< mounted image shards (contamination)

    /**
     * Gzip kind only: the gzip run's SAM bytes equal the plain-text
     * run's (the spine's bit-identity contract extended to inflate).
     */
    bool samMatchesPlain = true;

    genpair::PipelineStats stats;       ///< short-read kinds
    genpair::LongReadStats longStats;   ///< long-read kind

    /** Per-species attribution (contamination kind). */
    std::vector<eval::RegionAccuracy> attribution;
};

/** The wall: every pinned scenario, in gating order. */
const std::vector<ScenarioSpec> &scenarioTable();

/** Look up a scenario by name; nullptr when unknown. */
const ScenarioSpec *findScenario(const std::string &name);

/** Run one scenario end to end. */
ScenarioResult runScenario(const ScenarioSpec &spec,
                           const ScenarioOptions &options = {});

/**
 * Emit the format:1 scenarios document consumed by
 * scripts/check_scenarios.py:
 *   {"bench": "scenarios", "format": 1, "scale": ..,
 *    "host_threads": .., "scenarios": [row, ..]}
 */
void writeScenariosJson(std::ostream &os,
                        const std::vector<ScenarioResult> &rows,
                        double scale, u32 threads);

} // namespace scenario
} // namespace gpx

#endif // GPX_SCENARIO_SCENARIO_HH
