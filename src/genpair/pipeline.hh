/**
 * @file
 * GenPairPipeline: the end-to-end online GenPair read-mapping pipeline
 * (paper Fig. 3) with the traditional-DP fallback structure of Fig. 10.
 *
 * Per pair: Partitioned Seeding -> SeedMap Query -> Paired-Adjacency
 * Filtering -> Light Alignment, with three fallback exits:
 *  1. no SeedMap hit at all            -> full DP pipeline (paper: 2.09%)
 *  2. no candidate within delta        -> full DP pipeline (paper: 8.79%)
 *  3. Light Alignment rejects          -> DP alignment at the known
 *                                         candidate positions (13.06%)
 *
 * Orientation: a proper FR pair maps read 1 forward + read 2 as its
 * reverse complement, or the mirror image; the pipeline evaluates both
 * orientations (the paper leaves this implicit; see DESIGN.md).
 */

#ifndef GPX_GENPAIR_PIPELINE_HH
#define GPX_GENPAIR_PIPELINE_HH

#include <iosfwd>
#include <vector>

#include "baseline/mm2lite.hh"
#include "genomics/readpair.hh"
#include "genpair/light_align.hh"
#include "genpair/pafilter.hh"
#include "genpair/seeder.hh"
#include "genpair/seedmap.hh"
#include "genpair/stages.hh"
#include "util/types.hh"

namespace gpx {
namespace genpair {

/** Online pipeline parameters. */
struct GenPairParams
{
    /** Paired-adjacency distance threshold delta (paper: 200-500 bp). */
    u32 delta = 500;
    LightAlignParams light;
    /** Candidate pairs light-aligned before giving up, per orientation. */
    u32 maxCandidatePairs = 32;
    /** Minimum acceptable DP fallback score. */
    i32 minDpScore = 100;
    /** Window slack for the DP alignment fallback. */
    u32 dpSlack = 24;
};

/** Pipeline counters; drives Fig. 10, Fig. 12 and the hardware sizing. */
struct PipelineStats
{
    u64 pairsTotal = 0;
    u64 seedMissFallback = 0;   ///< SeedMap returned nothing (full DP)
    u64 paFilterFallback = 0;   ///< adjacency filter emptied (full DP)
    u64 lightAlignFallback = 0; ///< light alignment rejected (DP align)
    u64 lightAligned = 0;       ///< fast path end to end
    u64 dpAligned = 0;          ///< DP-aligned at GenPair candidates
    u64 fullDpMapped = 0;       ///< mapped by the fallback pipeline
    u64 unmapped = 0;

    QueryWork query;
    u64 candidatePairs = 0;       ///< pairs surviving the PA filter
    u64 lightAlignsAttempted = 0; ///< single-read light alignments run
    u64 lightHypotheses = 0;
    u64 gateRejected = 0; ///< candidates dropped by the SS8 gate

    /**
     * Ingest accounting (streaming drivers only; zero for batch runs,
     * whose reads arrive pre-encoded): non-ACGT input characters the
     * FASTQ parsers encoded as A (IngestStats), summed over both
     * streams. Dirty inputs must stay visible in --stats-json no
     * matter which driver consumed them.
     */
    u64 ambiguousBases = 0;

    /**
     * I/O-spine stall accounting (streaming drivers only; zero for
     * batch runs). Reader stall is time the mapping stage spent
     * waiting for parsed input (ingest-bound); writer stall is time it
     * spent waiting for emission backpressure (output-bound). Either
     * dominating the wall clock names the pipeline's bottleneck.
     */
    double readerStallSeconds = 0;
    double writerStallSeconds = 0;

    /**
     * The spine's serial ends (streaming drivers only; zero for batch
     * runs): seconds spent scanning FASTQ into chunks, parsing chunks
     * (summed over the parser threads) and rendering and writing SAM,
     * one clock pair per chunk per phase. Next to the stalls they show
     * which end starves or backs up the pool.
     */
    double scanSeconds = 0;
    double parseSeconds = 0;
    double renderSeconds = 0;

    /** Per-stage visit counters of the stage graph (stages.hh). */
    std::array<StageCounters, kNumStages> stage{};

    const StageCounters &
    stageCounters(StageId id) const
    {
        return stage[static_cast<std::size_t>(id)];
    }

    /**
     * Merge another worker's (or chunk's) counters into this one. The
     * single accumulation point for every stats merge in the tree —
     * hand-rolled field lists in the drivers drifted once (dropping
     * gateRejected) and must not come back.
     */
    PipelineStats &
    operator+=(const PipelineStats &other)
    {
        pairsTotal += other.pairsTotal;
        seedMissFallback += other.seedMissFallback;
        paFilterFallback += other.paFilterFallback;
        lightAlignFallback += other.lightAlignFallback;
        lightAligned += other.lightAligned;
        dpAligned += other.dpAligned;
        fullDpMapped += other.fullDpMapped;
        unmapped += other.unmapped;
        query += other.query;
        candidatePairs += other.candidatePairs;
        lightAlignsAttempted += other.lightAlignsAttempted;
        lightHypotheses += other.lightHypotheses;
        gateRejected += other.gateRejected;
        ambiguousBases += other.ambiguousBases;
        readerStallSeconds += other.readerStallSeconds;
        writerStallSeconds += other.writerStallSeconds;
        scanSeconds += other.scanSeconds;
        parseSeconds += other.parseSeconds;
        renderSeconds += other.renderSeconds;
        for (std::size_t s = 0; s < kNumStages; ++s)
            stage[s] += other.stage[s];
        return *this;
    }

    /**
     * Count one pair the full DP pipeline mapped end to end (a full-DP
     * pair of the fallback stage, or any pair of an MM2-lite-only run):
     * either mate mapped counts in fullDpMapped, neither in unmapped.
     * Returns whether the pair counted as mapped.
     */
    bool
    countFullDp(const genomics::PairMapping &pm)
    {
        if (pm.first.mapped || pm.second.mapped) {
            ++fullDpMapped;
            return true;
        }
        ++unmapped;
        return false;
    }

    /**
     * Machine-readable form: every counter above plus the per-stage
     * visit counters, as one JSON object (gpx_map --stats-json).
     */
    void writeJson(std::ostream &os) const;

    double
    fraction(u64 value) const
    {
        return pairsTotal ? static_cast<double>(value) / pairsTotal : 0.0;
    }

    /** Average light alignments per pair (paper §7.2: 11.6). */
    double
    avgAlignmentsPerPair() const
    {
        return pairsTotal
                   ? static_cast<double>(lightAlignsAttempted) / pairsTotal
                   : 0.0;
    }
};

/** The online GenPair pipeline with DP fallback. */
class GenPairPipeline
{
  public:
    /**
     * @param ref Reference genome.
     * @param map View of a prebuilt SeedMap over @p ref (owning or
     *            mmap-backed; the backing storage must outlive the
     *            pipeline).
     * @param params Online parameters.
     * @param fallback DP pipeline for residual pairs; may be null, in
     *                 which case residual pairs count as unmapped (used
     *                 by the filter-threshold sweep of §7.8).
     */
    GenPairPipeline(const genomics::Reference &ref,
                    const SeedMapView &map, const GenPairParams &params,
                    baseline::Mm2Lite *fallback);

    /**
     * Map one pair through the full Fig. 3 pipeline. A batch-of-one
     * through the stage graph; kept so every historical call site (and
     * the golden-corpus digest) is untouched by the batched engine.
     */
    genomics::PairMapping mapPair(const genomics::ReadPair &pair);

    /**
     * Map @p n pairs through the batched stage graph: out[i] is the
     * mapping of pairs[i]. Bit-identical to calling mapPair() per pair
     * (stats included); the batch form exists for throughput — SoA
     * lanes and scratch reuse across the whole batch. When @p trace is
     * non-null it must hold @p n records; each pair's stage events are
     * recorded for hwsim co-simulation (see stages.hh).
     */
    void mapBatch(const genomics::ReadPair *pairs, u64 n,
                  genomics::PairMapping *out,
                  PairTraceRecord *trace = nullptr);

    /**
     * Install an admission gate ahead of Light Alignment (paper SS8;
     * nullptr = no gate). Non-owning; the gate must outlive the
     * pipeline. A sound (never-overestimating) gate leaves mappings
     * bit-identical and only removes wasted hypothesis work.
     */
    void setLightAlignGate(LightAlignGate *gate) { gate_ = gate; }

    const PipelineStats &stats() const { return stats_; }
    void resetStats() { stats_ = {}; }

    const GenPairParams &params() const { return params_; }

  private:
    const genomics::Reference &ref_;
    SeedMapView map_;
    GenPairParams params_;
    PartitionedSeeder seeder_;
    LightAligner light_;
    LightAlignGate *gate_ = nullptr;
    baseline::Mm2Lite *fallback_;
    PipelineStats stats_;
    /** Reused across mapBatch()/mapPair() calls (scratch persistence). */
    PairBatch batch_;
};

} // namespace genpair
} // namespace gpx

#endif // GPX_GENPAIR_PIPELINE_HH
