/**
 * @file
 * Streaming mapping driver: FASTQ pair in, SAM out, bounded memory,
 * every pipeline stage free to scale independently.
 *
 * The batch ParallelMapper needs every read pair resident; real read
 * sets (the paper maps 100 M pairs, §6) do not fit the host budget
 * that way. StreamingMapper runs the async I/O spine over fixed-size
 * chunks of pairs:
 *
 *   chunker thread  — scans raw FASTQ text (gzip inflated, prefetch
 *                     double-buffered) into sequence-numbered chunks
 *   N parser threads— full parse/encode of disjoint chunks (gpx_map
 *                     --io-threads)
 *   mapper (caller) — maps each parsed chunk on the worker pool
 *                     (ParallelMapper::mapAll)
 *   writer thread   — sequence-numbered reorder buffer; emits trace
 *                     events and batched SAM strictly in input order
 *
 * Stages hand off through bounded util::Channel queues, so peak
 * memory stays proportional to the queue capacities regardless of
 * input size, and the channels' stall counters feed the reader-stall/
 * writer-stall fields of PipelineStats (`gpx_map --stats-json`).
 * Mapping is per-pair pure and the writer reorders by chunk sequence
 * number, so output is bit-identical to a whole-file batch run at
 * every reader/worker/chunk-size combination.
 */

#ifndef GPX_GENPAIR_STREAMING_HH
#define GPX_GENPAIR_STREAMING_HH

#include <functional>
#include <iosfwd>
#include <string>

#include "genomics/fasta.hh"
#include "genomics/fastq_ingest.hh"
#include "genomics/sam.hh"
#include "genpair/driver.hh"

namespace gpx {
namespace genpair {

/** Streaming run summary. */
struct StreamingResult
{
    u64 pairs = 0;
    u64 chunks = 0;
    PipelineStats stats; ///< aggregated over all chunks (incl. stalls)
    /** End-to-end timing including FASTQ parse and SAM drain. */
    RunTiming total;
    /** Pool time summed over chunks, including any wait behind other
     *  runs' blocks (see RunTiming). */
    RunTiming mapping;
};

/** Outcome of one StreamingMapper::tryRun(). */
enum class StreamRunStatus
{
    kOk,
    kParseError, ///< malformed/disagreeing FASTQ; see the error string
    kTooLarge,   ///< input exceeded the caller's max_pairs bound
    kWriteError, ///< SAM emission failed (checked writer); output torn
};

/** Chunked mapping driver over the shared SeedMap; owns its pool. */
class StreamingMapper
{
  public:
    /**
     * Consumer of recorded per-pair stage events, invoked on the
     * emission thread once per chunk, in input order (the hand-off to
     * `gpx_map --trace`). Requires DriverConfig::recordTrace.
     */
    using TraceSink =
        std::function<void(const PairTraceRecord *records, u64 count)>;

    /**
     * @param map Non-owning SeedMap view (owning or mmap-backed; the
     *            backing storage must outlive the mapper).
     * @param chunk_pairs Read pairs mapped per chunk (the memory bound).
     * @param io_threads Parser threads of the ingest spine (>= 1).
     */
    StreamingMapper(const genomics::Reference &ref,
                    const SeedMapView &map, const DriverConfig &config,
                    u64 chunk_pairs = 65536, u32 io_threads = 1);

    /**
     * Map all pairs from @p r1/@p r2 (same-order FASTQ streams; plain
     * or gzip) and write records through @p sam. Fatal error — naming
     * the stream that ended early — if the streams yield different
     * record counts. @p trace_sink (optional) receives each chunk's
     * stage-event records; the driver must have been configured with
     * recordTrace.
     */
    StreamingResult run(std::istream &r1, std::istream &r2,
                        genomics::SamWriter &sam,
                        const TraceSink &trace_sink = nullptr);

    /**
     * Recoverable form of run() (the gpx_serve discipline): malformed
     * input and an exceeded @p max_pairs bound (0 = unbounded) come
     * back as a status instead of killing the process. On kParseError
     * @p error carries the winning diagnostic — message plus the
     * stream rank (0 = R1, 1 = R2, 2 = pair-level disagreement) so
     * callers can attribute it. On any status other than kOk the SAM
     * output and @p result are partial and must be discarded by the
     * caller. One mapper may run() / tryRun() several inputs at once
     * from different threads: all per-run state is local to the call,
     * and the runs' chunks share the pool block by block through
     * ParallelMapper::mapAll().
     */
    StreamRunStatus tryRun(std::istream &r1, std::istream &r2,
                           genomics::SamWriter &sam,
                           StreamingResult &result,
                           genomics::IngestError *error = nullptr,
                           u64 max_pairs = 0,
                           const TraceSink &trace_sink = nullptr);

  private:
    ParallelMapper mapper_;
    u64 chunkPairs_;
    u32 ioThreads_;
    bool traceEnabled_;
};

} // namespace genpair
} // namespace gpx

#endif // GPX_GENPAIR_STREAMING_HH
