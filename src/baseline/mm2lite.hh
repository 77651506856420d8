/**
 * @file
 * Mm2Lite: a Minimap2-like seed-chain-align read mapper.
 *
 * Serves three roles from the paper's evaluation (§6):
 *  - the "MM2 (CPU)" software baseline,
 *  - the traditional DP pipeline that GenPair falls back to when SeedMap
 *    or the Paired-Adjacency filter fails (Fig. 10, left fallback arrows),
 *  - the per-stage timing source for the Fig. 1 execution-time breakdown.
 *
 * Every alignment it runs goes through one batched DP sweep
 * (alignTasks()): a block's chain windows after seeding and chaining,
 * or windows at known positions (alignAt()).
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

    /** Map a pair (FR orientation, bounded insert): mapPairs() of one. */
    genomics::PairMapping mapPair(const genomics::ReadPair &pair);

    /**
     * Map @p count contiguous pairs into @p out: planPairs(), one
     * alignTasks() sweep, finishPairs(). How a caller splits its pairs
     * into blocks changes no mapping and no counter.
     */
    void mapPairs(const genomics::ReadPair *pairs, std::size_t count,
                  genomics::PairMapping *out);

    /**
     * mapPairs() split around the sweep so a caller's other alignments
     * can share it. planPairs() seeds and chains both reads of each
     * pair and appends to @p tasks one FitTask per distinct chain
     * window (read, strand, window, band); chains that share a window
     * share its task. finishPairs() takes the tasks' results in the
     * same order and writes each pair's mapping; dpWork() counts a
     * shared window's cells once per chain. The pairs and the plan must
     * stay alive until finishPairs(); the next planPairs() replaces
     * the plan.
     */
    void planPairs(const genomics::ReadPair *const *pairs,
                   std::size_t count, std::vector<align::FitTask> &tasks);
    void finishPairs(const align::AlignResult *results,
                     genomics::PairMapping *out);

    /**
     * Align @p read (forward orientation) in a window of @p slack on
     * both sides of the expected start @p pos: the "DP-Alignment"
     * fallback entry of Fig. 10, which bypasses seeding and chaining.
     * A task of one through alignAtTask(), alignTasks() and
     * alignAtResult().
     */
    genomics::Mapping alignAt(const genomics::DnaSequence &read,
                              GlobalPos pos, u32 slack);

    /**
     * alignAt() split around a caller's sweep: alignAtTask() sets
     * @p task to the window alignAt() would align and returns the
     * window's global start (a window cut short by a chromosome end
     * leaves the task empty, which fitAlignBatch() reports invalid
     * with zero cells); alignAtResult() turns the task's result into
     * alignAt()'s mapping and counts its cells in dpWork(). A caller
     * that discards a result without alignAtResult() leaves its cells
     * uncounted.
     */
    GlobalPos alignAtTask(const genomics::DnaSequence &read, GlobalPos pos,
                          u32 slack, align::FitTask &task) const;
    genomics::Mapping alignAtResult(align::AlignResult res,
                                    GlobalPos wstart);

    /**
     * fitAlignBatch() with this engine's scoring and lane-major
     * scratch, charged to the alignment timer: out[t] is bit-identical
     * to fitAlign() of tasks[t]. The only place Mm2Lite aligns.
     */
    void alignTasks(const align::FitTask *tasks, std::size_t count,
                    align::AlignResult *out);

    /** Per-stage wall-clock accumulators (Fig. 1). */
    util::StageTimers &timers() { return timers_; }
    const util::StageTimers &timers() const { return timers_; }

    /** DP cell-update counters. */
    const DpWork &dpWork() const { return dpWork_; }

    const Mm2LiteParams &params() const { return params_; }
    const genomics::Reference &reference() const { return ref_; }

  private:
    /** One read of the planned full-DP block. */
    struct PlannedRead
    {
        std::vector<align::Chain> chains;
        genomics::DnaSequence rc; ///< stable storage — FitTasks view it
        bool haveRc = false;
        std::vector<genomics::Mapping> mappings;
    };
    /** One chain window of a planned read, in planPairs() order. */
    struct PlannedSlot
    {
        u32 read;  ///< index into plannedReads_
        u32 chain; ///< index into that read's chains
        u32 task;  ///< index among the tasks planPairs() appended
        GlobalPos wstart;
        u64 wlen;
    };

    void collectAnchors(const genomics::Read &read);
    void planRead(const genomics::Read &read,
                  std::vector<align::Chain> &chains);
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
     * Working set of every alignment this engine runs, lane-major for
     * the SIMD sweep plus the scalar one (drivers keep one Mm2Lite per
     * worker, so a worker's alignments share one allocation).
     */
    align::BatchAlignScratch batchScratch_;
    /** Seeding and chaining working set, reused across reads. */
    std::vector<Minimizer> minimizers_;
    std::vector<align::Anchor> fwdAnchors_;
    std::vector<align::Anchor> revAnchors_;
    align::ChainScratch chainScratch_;
    /** The full-DP plan between planPairs() and finishPairs(). */
    std::vector<PlannedRead> plannedReads_;
    std::vector<PlannedSlot> plannedSlots_;
    std::size_t plannedPairs_ = 0;
    /** mapPairs()' work lists, reused across blocks. */
    std::vector<const genomics::ReadPair *> blockPairs_;
    std::vector<align::FitTask> blockTasks_;
    std::vector<align::AlignResult> blockResults_;
};

} // namespace baseline
} // namespace gpx

#endif // GPX_BASELINE_MM2LITE_HH
