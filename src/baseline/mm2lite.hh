/**
 * @file
 * Mm2Lite: a Minimap2-like seed-chain-align read mapper.
 *
 * Serves three roles from the paper's evaluation (§6):
 *  - the "MM2 (CPU)" software baseline,
 *  - the traditional DP pipeline that GenPair falls back to when SeedMap
 *    or the Paired-Adjacency filter fails (Fig. 10, left fallback arrows),
 *  - the per-stage timing source for the Fig. 1 execution-time breakdown.
 */

#ifndef GPX_BASELINE_MM2LITE_HH
#define GPX_BASELINE_MM2LITE_HH

#include <memory>
#include <vector>

#include "align/affine.hh"
#include "align/chain.hh"
#include "baseline/minimizer_index.hh"
#include "genomics/readpair.hh"
#include "genomics/reference.hh"
#include "genomics/scoring.hh"
#include "util/timer.hh"
#include "util/types.hh"

namespace gpx {
namespace baseline {

/** Mapper configuration. */
struct Mm2LiteParams
{
    MinimizerParams minimizers;
    align::ChainParams chain;
    genomics::ScoringScheme scoring = genomics::ScoringScheme::shortRead();
    u32 alignSlack = 48;   ///< extra reference bases around a chain window
    i32 minAlignScore = 60;///< discard alignments below this score
    u32 maxInsert = 1200;  ///< maximum proper-pair insert size
    u32 maxCandidates = 6; ///< alignments attempted per read
};

/** Stage names used with the breakdown timers. */
namespace stages {
inline constexpr const char *kSeeding = "seeding";
inline constexpr const char *kChaining = "chaining";
inline constexpr const char *kAlignment = "alignment";
inline constexpr const char *kPairing = "pairing/other";
} // namespace stages

/** DP work counters (MCUPS accounting for GenDP integration, §7.4). */
struct DpWork
{
    u64 chainCells = 0;
    u64 alignCells = 0;
};

/** Seed-chain-align mapper with paired-end resolution. */
class Mm2Lite
{
  public:
    Mm2Lite(const genomics::Reference &ref, const Mm2LiteParams &params);

    /**
     * Construct with a pre-built shared index (the parallel driver
     * builds the index once and hands it to per-thread mappers).
     */
    Mm2Lite(const genomics::Reference &ref, const Mm2LiteParams &params,
            std::shared_ptr<const MinimizerIndex> index);

    /** Map a single read; returns candidate mappings sorted by score. */
    std::vector<genomics::Mapping> mapRead(const genomics::Read &read);

    /** Map a pair with the FR orientation / insert-size constraint. */
    genomics::PairMapping mapPair(const genomics::ReadPair &pair);

    /**
     * Map @p count pairs through the interleaved DP engine: every
     * distinct chain alignment (read, strand, window, band) of every
     * read in the batch joins one align::fitAlignBatch() run, so
     * length-uniform short-read batches fill all SIMD lanes across
     * read and pair boundaries, and chains that share a window align
     * it once. Per-pair results and dpWork() are identical to mapPair()
     * — the seeding, chaining, filtering and pairing logic is shared
     * code, a repeated window's result is copied to each of its chains
     * (and counted for each), and the batch DP engine is lane-exact
     * against the scalar one.
     */
    void mapPairsBatch(const genomics::ReadPair *const *pairs,
                       std::size_t count, genomics::PairMapping *out);

    /**
     * Align a read at a known candidate position (the "DP-Alignment"
     * fallback entry of Fig. 10 that bypasses seeding and chaining).
     *
     * @param read Read to align (already in forward orientation).
     * @param pos Expected start of the alignment on the reference.
     * @param slack Window slack on both sides.
     */
    genomics::Mapping alignAt(const genomics::DnaSequence &read,
                              GlobalPos pos, u32 slack);

    /** One alignAt() request inside an alignAtBatch() run. */
    struct AlignAtTask
    {
        const genomics::DnaSequence *read = nullptr;
        GlobalPos pos = 0;
        u32 slack = 0;
    };

    /**
     * alignAt() over a batch of independent requests, interleaved
     * across SIMD lanes. out[i] is bit-identical to
     * alignAt(*tasks[i].read, tasks[i].pos, tasks[i].slack).
     */
    void alignAtBatch(const AlignAtTask *tasks, std::size_t count,
                      genomics::Mapping *out);

    /** Per-stage wall-clock accumulators (Fig. 1). */
    util::StageTimers &timers() { return timers_; }
    const util::StageTimers &timers() const { return timers_; }

    /** DP cell-update counters. */
    const DpWork &dpWork() const { return dpWork_; }

    const Mm2LiteParams &params() const { return params_; }
    const genomics::Reference &reference() const { return ref_; }

  private:
    std::vector<align::Anchor> collectAnchors(const genomics::Read &read);
    std::vector<align::Chain> planRead(const genomics::Read &read);
    std::vector<genomics::Mapping>
    finishRead(std::vector<genomics::Mapping> &mappings);
    genomics::PairMapping
    pairFromCandidates(const std::vector<genomics::Mapping> &cands1,
                       const std::vector<genomics::Mapping> &cands2);

    const genomics::Reference &ref_;
    Mm2LiteParams params_;
    std::shared_ptr<const MinimizerIndex> index_;
    util::StageTimers timers_;
    DpWork dpWork_;
    /**
     * DP working set reused across every alignment this engine runs
     * (drivers keep one Mm2Lite per worker, so the fallback path of a
     * whole batch shares one allocation).
     */
    align::AlignScratch alignScratch_;
    /** Lane-major working set of the interleaved batch DP engine. */
    align::BatchAlignScratch batchScratch_;
};

} // namespace baseline
} // namespace gpx

#endif // GPX_BASELINE_MM2LITE_HH
