/**
 * @file
 * SAM (Sequence Alignment/Map) serialization.
 *
 * The paper's pipelines emit BAM for the variant-calling study (§6);
 * this writer produces the equivalent SAM text so GenPairX mappings can
 * flow into standard downstream tooling. Flags follow the SAM v1
 * specification for paired-end FR data.
 */

#ifndef GPX_GENOMICS_SAM_HH
#define GPX_GENOMICS_SAM_HH

#include <iosfwd>
#include <string>
#include <string_view>

#include "genomics/readpair.hh"
#include "genomics/reference.hh"

namespace gpx {
namespace genomics {

/** SAM FLAG bits (SAM v1 §1.4.2). */
enum SamFlag : u32
{
    kSamPaired = 0x1,
    kSamProperPair = 0x2,
    kSamUnmapped = 0x4,
    kSamMateUnmapped = 0x8,
    kSamReverse = 0x10,
    kSamMateReverse = 0x20,
    kSamFirstInPair = 0x40,
    kSamSecondInPair = 0x80,
};

/**
 * Writes SAM records for mapped read pairs.
 *
 * Every record goes through one appender that writes straight into a
 * reused byte buffer: integers through std::to_chars, the CIGAR and
 * the sequence (reverse-complemented for reverse mappings) decoded in
 * place from their packed forms. The buffer reaches the stream in
 * slices of about kSliceBytes, so a batch of any size holds at most
 * one slice plus one record in memory.
 */
class SamWriter
{
  public:
    /** A batch is committed to the stream whenever this much is rendered. */
    static constexpr std::size_t kSliceBytes = std::size_t{1} << 20;

    /**
     * @param os Output stream.
     * @param ref Reference (for @SQ headers and coordinate conversion).
     * @param max_proper_insert TLEN bound for the proper-pair flag.
     */
    SamWriter(std::ostream &os, const Reference &ref,
              u32 max_proper_insert = 1200);

    /** Emit the @HD/@SQ/@PG header block. */
    void writeHeader();

    /** Emit the two records of a mapped pair. */
    void writePair(const ReadPair &pair, const PairMapping &mapping);

    /**
     * Emit @p n pairs in slices of about kSliceBytes: the output stream
     * sees a few large writes per batch instead of a dozen small ones
     * per record. Byte-identical to n writePair() calls (same
     * appender).
     */
    void writePairBatch(const ReadPair *pairs, const PairMapping *mappings,
                        std::size_t n);

    /** Emit one single-end record (long reads). */
    void writeRead(const Read &read, const Mapping &mapping);

    /**
     * Name the output (a path for the batch tools, a role for the
     * daemon's reply buffers) and check the stream after *every*
     * write: a short write or ENOSPC fails right at the offending
     * batch with the label and byte offset in the diagnostic, instead
     * of surfacing — or not — at stream close. With @p fatal_on_error
     * the first failure kills the process (the batch tools' fatal
     * discipline); without it the failure latches into writeFailed()
     * and all further output is dropped, so a recoverable caller (the
     * serve daemon) can fail one request and keep the process.
     */
    void checkWrites(std::string label, bool fatal_on_error);

    /** True once a checked write failed (non-fatal mode). */
    bool writeFailed() const { return writeFailed_; }
    /** Diagnostic of the failed write (label + byte offset). */
    const std::string &writeError() const { return writeError_; }
    /** Payload bytes successfully handed to the stream. */
    u64 bytesWritten() const { return bytesWritten_; }

    /** Records written so far. */
    u64 recordsWritten() const { return records_; }

  private:
    /** Append one record; @p cp / @p mate_cp are the positions of a
     *  mapped @p mapping / @p mate on their chromosomes. */
    void appendRecord(const Read &read, const Mapping &mapping,
                      const ChromPos &cp, u32 flags, const Mapping *mate,
                      const ChromPos &mate_cp, i64 tlen);
    void appendPair(const ReadPair &pair, const PairMapping &mapping);
    /** Room for @p bytes more at the render cursor. */
    char *reserve(std::size_t bytes);
    /** Commit everything rendered so far and rewind the buffer. */
    void flush();
    /** Sole stream toucher: every emission funnels through here. */
    void commit(std::string_view rendered);

    std::ostream &os_;
    const Reference &ref_;
    u32 maxProperInsert_;
    std::string buf_;      ///< render buffer, reused across writes
    std::size_t used_ = 0; ///< rendered bytes not yet committed
    u64 records_ = 0;
    std::string outputLabel_;
    bool checkWrites_ = false;
    bool fatalOnError_ = false;
    bool writeFailed_ = false;
    std::string writeError_;
    u64 bytesWritten_ = 0;
};

/**
 * Mapping quality estimate from the score gap between the best and
 * second-best alignment (Li-Durbin-style, capped at 60).
 */
u8 mapqFromScores(i32 best, i32 second_best, i32 perfect);

} // namespace genomics
} // namespace gpx

#endif // GPX_GENOMICS_SAM_HH
