/**
 * @file
 * Two-piece affine-gap dynamic-programming alignment with full traceback.
 *
 * This is the repository's "expensive DP" substrate: it plays the role of
 * Minimap2's ksw2 aligner in the software baseline and of the GenDP
 * accelerator's Banded Smith-Waterman in the fallback path (paper §7.4).
 * Gap cost follows the two-piece model min(q1 + k*e1, q2 + k*e2) so DP
 * scores are directly comparable with the Light Alignment scores.
 */

#ifndef GPX_ALIGN_AFFINE_HH
#define GPX_ALIGN_AFFINE_HH

#include <vector>

#include "genomics/cigar.hh"
#include "genomics/scoring.hh"
#include "genomics/sequence.hh"
#include "util/types.hh"

namespace gpx {
namespace align {

/**
 * Reusable DP working set: traceback matrix, score rows and decoded
 * operands. One alignment allocated all of these per call in the seed
 * implementation; a driver-held scratch amortizes them across every
 * alignment of a batch (the fallback path runs thousands per chunk).
 */
struct AlignScratch
{
    std::vector<u8> traceback;
    std::vector<u8> queryCodes;
    std::vector<u8> targetCodes;
    std::vector<i32> hPrev;
    std::vector<i32> hCur;
    std::vector<i32> f1;
    std::vector<i32> f2;
};

/** Result of a DP alignment. */
struct AlignResult
{
    bool valid = false;
    i32 score = 0;
    genomics::Cigar cigar;
    /** First target base consumed by the alignment. */
    u64 targetStart = 0;
    /** One past the last target base consumed. */
    u64 targetEnd = 0;
    /** Number of DP matrix cells evaluated (MCUPS bookkeeping, §7.4). */
    u64 cellUpdates = 0;
};

/**
 * Fitting alignment: the whole query must align, the target start and end
 * are free. This is the shape of the DP-fallback alignment of a 150 bp
 * read inside a candidate reference window.
 *
 * @param query Read sequence (aligned end-to-end).
 * @param target Reference window.
 * @param scheme Scoring parameters.
 * @param band Optional band half-width around the main diagonal;
 *             negative disables banding.
 *
 * Read lengths are outside input: when the (m+1) x (n+1) traceback
 * matrix would exceed 2^27 cells (reads of roughly 11.5 kbp and up),
 * the result is invalid with zero cells rather than a process abort.
 */
AlignResult fitAlign(const genomics::DnaView &query,
                     const genomics::DnaView &target,
                     const genomics::ScoringScheme &scheme,
                     i32 band = -1);

/** fitAlign() reusing @p scratch (bit-identical, allocation-free warm). */
AlignResult fitAlign(const genomics::DnaView &query,
                     const genomics::DnaView &target,
                     const genomics::ScoringScheme &scheme, i32 band,
                     AlignScratch &scratch);

/**
 * The seed (pre-optimization) fitting-alignment engine, kept verbatim
 * as the correctness oracle for the branchless banded engine above —
 * the same pattern the bit-parallel kernels use for their scalar
 * oracles. Only tests call it (test_stages pins fitAlign against it).
 */
AlignResult fitAlignRef(const genomics::DnaView &query,
                        const genomics::DnaView &target,
                        const genomics::ScoringScheme &scheme,
                        i32 band = -1);

/** One fitting alignment of a batch (see fitAlignBatch). */
struct FitTask
{
    genomics::DnaView query;
    genomics::DnaView target;
    /** Band half-width; negative disables banding. */
    i32 band = -1;
};

/**
 * Working set of the interleaved batch engine: lane-major (struct-of-
 * lanes) i16 H/F rows, decoded operands and the lane-major traceback
 * matrix, plus a scalar AlignScratch for the scalar backend and for
 * groups outside the i16 range. One set serves both lane widths; it
 * is sized by the largest lane group seen (each buffer starts at a
 * 64-byte boundary inside its vector) and reuse across calls is
 * allocation-free once warm.
 */
struct BatchAlignScratch
{
    std::vector<u8> traceback; ///< [(i*(nMax+1)+j)*L + lane]
    std::vector<i16> queryCodes;  ///< [(i-1)*L + lane]
    std::vector<i16> targetCodes; ///< [(j-1)*L + lane]
    std::vector<i16> hPrev;
    std::vector<i16> hCur;
    std::vector<i16> f1;
    std::vector<i16> f2;
    std::vector<u8> decodeTmp; ///< contiguous decode staging
    AlignScratch scalar;       ///< scalar backend and out-of-range groups
};

/**
 * Fitting alignment of @p count independent tasks, interleaved across
 * SIMD lanes: out[i] is bit-identical to
 * fitAlign(tasks[i].query, tasks[i].target, scheme, tasks[i].band) —
 * lanes never exchange data, each computes the scalar engine's
 * recurrence in exact 16-bit arithmetic — but consecutive tasks with
 * equal query length advance in lockstep through one band sweep (16
 * lanes under AVX2, 32 under AVX-512; per-lane masking covers ragged
 * target lengths and bands). The active util::SimdBackend picks the lane
 * width. The scalar backend, a group of one task (one active lane is
 * slower than the scalar engine and writes L tracebacks), any group
 * whose score bound does not fit i16 (m + widest window > 990 under the
 * sr preset) and any group whose lane-major traceback would pass the
 * 2^27-byte matrix cap run the scalar fitAlign per task, over-cap tasks
 * included.
 */
void fitAlignBatch(const FitTask *tasks, std::size_t count,
                   const genomics::ScoringScheme &scheme,
                   BatchAlignScratch &scratch, AlignResult *out);

/**
 * Global alignment: both sequences consumed end to end. No mapping path
 * calls it or localAlign(); only the unit tests do (test_affine).
 */
AlignResult globalAlign(const genomics::DnaView &query,
                        const genomics::DnaView &target,
                        const genomics::ScoringScheme &scheme,
                        i32 band = -1);

/**
 * Local (Smith-Waterman) alignment: best-scoring subsequence pair. The
 * CIGAR covers only the aligned core; queryStart reports where it begins.
 */
struct LocalResult
{
    bool valid = false;
    i32 score = 0;
    genomics::Cigar cigar;
    u64 queryStart = 0;
    u64 targetStart = 0;
    u64 cellUpdates = 0;
};

LocalResult localAlign(const genomics::DnaView &query,
                       const genomics::DnaView &target,
                       const genomics::ScoringScheme &scheme);

} // namespace align
} // namespace gpx

#endif // GPX_ALIGN_AFFINE_HH
