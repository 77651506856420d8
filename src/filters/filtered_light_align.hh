/**
 * @file
 * SneakySnake x Light Alignment combination (paper §8 future work).
 *
 * Light Alignment evaluates its full hypothesis space (mismatch counts,
 * insertion/deletion runs) even for candidates that cannot possibly
 * align — e.g. hash-collision candidates from the Seed Table, or decoy
 * adjacencies that survive the Paired-Adjacency filter. A cheap
 * edit-lower-bound gate ahead of it removes those candidates after a
 * single mask pass. Because the gate's estimate never exceeds the true
 * edit distance (SneakySnake's optimality), the combination cannot
 * reject anything Light Alignment would have aligned as long as the
 * gate's budget covers Light Alignment's own edit bound.
 */

#ifndef GPX_FILTERS_FILTERED_LIGHT_ALIGN_HH
#define GPX_FILTERS_FILTERED_LIGHT_ALIGN_HH

#include "filters/filter.hh"
#include "genpair/light_align.hh"

namespace gpx {
namespace filters {

/** Counters of a FilteredLightAligner run. */
struct FilteredLightStats
{
    u64 candidates = 0;     ///< align() calls
    u64 gateRejected = 0;   ///< dropped by the pre-filter
    u64 lightAttempted = 0; ///< reached the Light Aligner
    u64 lightAligned = 0;   ///< fast-path success
    u64 gateEstimateSum = 0;
    u64 hypothesesTried = 0; ///< Light Alignment work actually spent

    double
    rejectFraction() const
    {
        return candidates ? static_cast<double>(gateRejected) / candidates
                          : 0.0;
    }
};

/**
 * genpair::LightAlignGate adapter: plugs SneakySnake (or any
 * PreAlignmentFilter) into GenPairPipeline::setLightAlignGate so the
 * SS8 combination runs inside the full Fig. 3 pipeline. A candidate
 * closer than the budget to the reference start cannot be windowed and
 * is admitted unevaluated; Light Alignment decides it.
 */
class FilterGate final : public genpair::LightAlignGate
{
  public:
    /**
     * @param budget Edit budget handed to the filter; must cover Light
     *        Alignment's own bound for the gate to be sound.
     */
    FilterGate(const genomics::Reference &ref,
               const PreAlignmentFilter &filter, u32 budget)
        : ref_(ref), filter_(filter), budget_(budget)
    {
    }

    bool admit(const genomics::DnaSequence &read,
               GlobalPos candidate) override;

    u64 evaluations() const { return evaluations_; }
    u64 rejections() const { return rejections_; }

  private:
    const genomics::Reference &ref_;
    const PreAlignmentFilter &filter_;
    u32 budget_;
    u64 evaluations_ = 0;
    u64 rejections_ = 0;
};

/** Light Aligner behind a pre-alignment gate. */
class FilteredLightAligner
{
  public:
    /**
     * @param ref Reference genome.
     * @param params Light Alignment parameters (the gate budget is
     *        derived from them: max(maxShift, maxMismatches)).
     * @param gate Pre-alignment filter; must outlive this object.
     */
    FilteredLightAligner(const genomics::Reference &ref,
                         const genpair::LightAlignParams &params,
                         const PreAlignmentFilter &gate)
        : ref_(ref), aligner_(ref, params), gate_(gate),
          budget_(std::max(params.maxShift, params.maxMismatches))
    {
    }

    /** Edit budget handed to the gate. */
    u32 gateBudget() const { return budget_; }

    /**
     * Gate, then light-align @p read at @p candidate. A gate reject
     * returns aligned = false with zero hypotheses spent; a candidate
     * below the gate budget bypasses the gate.
     */
    genpair::LightResult align(const genomics::DnaSequence &read,
                               GlobalPos candidate);

    const FilteredLightStats &stats() const { return stats_; }
    void resetStats() { stats_ = {}; }

  private:
    const genomics::Reference &ref_;
    genpair::LightAligner aligner_;
    const PreAlignmentFilter &gate_;
    u32 budget_;
    FilteredLightStats stats_;
};

} // namespace filters
} // namespace gpx

#endif // GPX_FILTERS_FILTERED_LIGHT_ALIGN_HH
