/**
 * @file
 * Minimizer index over the reference genome.
 *
 * This is the seeding substrate of the Minimap2-like baseline mapper
 * ("MM2" in the paper's evaluation). Canonical k-mers are selected by a
 * (w,k) minimizer scheme and stored in a sorted (hash, location) table,
 * reached through a bucket directory on the hash's top bits.
 */

#ifndef GPX_BASELINE_MINIMIZER_INDEX_HH
#define GPX_BASELINE_MINIMIZER_INDEX_HH

#include <span>
#include <vector>

#include "genomics/reference.hh"
#include "genomics/sequence.hh"
#include "util/types.hh"

namespace gpx {
namespace baseline {

/** Minimizer scheme parameters (Minimap2 sr preset uses k=21, w=11). */
struct MinimizerParams
{
    u32 k = 21;
    u32 w = 11;
    /** Drop minimizers occurring more often than this (like mm2 -f). */
    u32 maxOccurrences = 500;
};

/** One minimizer: canonical k-mer hash plus its position and strand. */
struct Minimizer
{
    u64 hash = 0;
    u64 pos = 0;       ///< position of the k-mer's first base
    bool reverse = false; ///< canonical k-mer is the reverse complement
};

/**
 * Extract the minimizers of a sequence (used for both index and reads)
 * into @p out, replacing its contents and reusing its capacity. The
 * k-mer hashes roll directly over the packed 2-bit words; any
 * DnaSequence converts implicitly to the view.
 */
void extractMinimizers(const genomics::DnaView &seq,
                       const MinimizerParams &params,
                       std::vector<Minimizer> &out);

/** extractMinimizers() into a fresh vector. */
std::vector<Minimizer> extractMinimizers(const genomics::DnaView &seq,
                                         const MinimizerParams &params);

/**
 * The original per-base implementation (std::deque monotonic queue),
 * retained verbatim as the oracle the property tests and the
 * micro_kernels before/after rows compare against. Must produce a
 * stream identical to extractMinimizers().
 */
std::vector<Minimizer> extractMinimizersScalar(const genomics::DnaView &seq,
                                               const MinimizerParams &params);

/**
 * Sorted minimizer table over a reference genome. lookup() does not
 * search the whole table: a directory of 2^b + 1 offsets, b = min(20,
 * bit width of the number of distinct hashes), maps the top b of the
 * hash's 2k bits to the run of table hashes sharing them, and a lookup
 * scans only that run: under one hash on average while the table has
 * at most 2^20 distinct hashes (a few Mbp of reference), n / 2^20
 * beyond that. The directory is built in one pass over the sorted
 * table; at its cap it holds 2^20 + 1 u32 offsets (4 MiB).
 */
class MinimizerIndex
{
  public:
    /** Index entry: reference position and strand of one occurrence. */
    struct Entry
    {
        GlobalPos pos;
        bool reverse;
    };

    MinimizerIndex(const genomics::Reference &ref,
                   const MinimizerParams &params);

    const MinimizerParams &params() const { return params_; }

    /** All occurrences of a minimizer hash (empty if filtered/absent). */
    std::span<const Entry> lookup(u64 hash) const;

    u64 numEntries() const { return entries_.size(); }

    /** b: the directory has 2^b buckets over the top b hash bits. */
    u32 directoryBits() const { return 2 * params_.k - dirShift_; }

  private:
    MinimizerParams params_;
    std::vector<u64> hashes_;   ///< sorted unique hashes
    std::vector<u64> offsets_;  ///< CSR offsets into entries_
    std::vector<Entry> entries_;
    /** dir_[b]: first hashes_ index whose bucket (hash >> dirShift_)
     *  is >= b; 2^b + 1 entries, the last one hashes_.size(). */
    std::vector<u32> dir_;
    u32 dirShift_ = 0;
};

} // namespace baseline
} // namespace gpx

#endif // GPX_BASELINE_MINIMIZER_INDEX_HH
