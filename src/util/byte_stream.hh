/**
 * @file
 * Block-oriented byte sources: the raw-ingest layer under the FASTQ
 * spine.
 *
 * The streaming pipeline wants its file bytes in large blocks so that
 * (a) decompression and record-boundary scanning amortize their
 * per-call cost, and (b) the read() syscalls can be prefetched on a
 * dedicated thread ahead of the parse. ByteSource is the one-method
 * interface that lets those concerns stack:
 *
 *   IstreamSource  — pulls fixed-size blocks off any std::istream
 *   PrefetchSource — decorator: a background thread pulls from the
 *                    inner source into a 2-slot util::Channel (double
 *                    buffering), so file/network latency overlaps
 *                    inflate + scan downstream
 *   AutoInflateSource (gzip_stream.hh) — decorator: transparently
 *                    inflates gzip input detected by magic bytes
 *
 * LineReader sits on top and restores line orientation with exactly
 * std::getline's semantics (a final line without a trailing newline
 * still counts), which is what keeps the parallel FASTQ parser
 * byte-for-byte faithful to the historical single-threaded parser.
 */

#ifndef GPX_UTIL_BYTE_STREAM_HH
#define GPX_UTIL_BYTE_STREAM_HH

#include <iosfwd>
#include <string>
#include <thread>

#include "util/channel.hh"
#include "util/types.hh"

namespace gpx {
namespace util {

/** Pull-based block source; see file comment for the stack. */
class ByteSource
{
  public:
    virtual ~ByteSource() = default;

    /**
     * Fill @p block with the next chunk of bytes (any nonzero size).
     * False means end of stream — or failure, in which case error()
     * is non-empty. On false the block's contents are unspecified;
     * callers must not consume them.
     */
    virtual bool read(std::string &block) = 0;

    /** Diagnostic of a failed read (empty while healthy). */
    virtual const std::string &
    error() const
    {
        static const std::string kNone;
        return kNone;
    }
};

/** A single in-memory block, yielded once (slice parsing). */
class StringSource : public ByteSource
{
  public:
    explicit StringSource(std::string text) : text_(std::move(text)) {}

    bool
    read(std::string &block) override
    {
        if (done_)
            return false;
        done_ = true;
        block = std::move(text_);
        return !block.empty();
    }

  private:
    std::string text_;
    bool done_ = false;
};

/** Blocks pulled off a std::istream with is.read(). */
class IstreamSource : public ByteSource
{
  public:
    static constexpr std::size_t kDefaultBlockBytes = 256 * 1024;

    explicit IstreamSource(std::istream &is,
                           std::size_t block_bytes = kDefaultBlockBytes)
        : is_(is), blockBytes_(block_bytes == 0 ? 1 : block_bytes)
    {
    }

    bool read(std::string &block) override;
    const std::string &error() const override { return error_; }

  private:
    std::istream &is_;
    std::size_t blockBytes_;
    std::string error_; ///< injected-fault diagnostic only
};

/**
 * Decorator: a background thread reads the inner source ahead of the
 * consumer through a 2-slot channel (the double buffer). The consumer
 * sees the same block stream; read latency hides behind downstream
 * work. The inner source is touched only by the prefetch thread after
 * construction.
 */
class PrefetchSource : public ByteSource
{
  public:
    explicit PrefetchSource(ByteSource &inner, std::size_t slots = 2);
    ~PrefetchSource() override;

    bool read(std::string &block) override;
    const std::string &error() const override { return error_; }

  private:
    ByteSource &inner_;
    Channel<std::string> blocks_;
    std::thread thread_;
    /** Written by the prefetch thread before it closes the channel,
     *  read by the consumer only after the closed channel drains. */
    std::string innerError_;
    std::string error_;
};

/**
 * std::getline over a ByteSource, byte-exact with getline(istream&):
 * lines are split on '\n' (consumed, never returned), and a trailing
 * run of bytes without a final newline is still one last line. The
 * three readers share one scan; they differ only in where the line's
 * bytes go, so a caller that does not need its own copy of a line
 * (the chunk scanner, the parser's '+' and quality lines) never makes
 * one.
 */
class LineReader
{
  public:
    explicit LineReader(ByteSource &source) : source_(source) {}

    /** False at end of stream (or source error; check error()). */
    bool getline(std::string &line);

    /**
     * Append the next line and a '\n' to @p out, straight from the
     * source block. False at end of stream, with nothing appended.
     */
    bool appendLine(std::string &out);

    /** Consume the next line without copying it; false at its end. */
    bool skipLine();

    /** Source failure diagnostic (empty on clean EOF). */
    const std::string &error() const { return source_.error(); }

  private:
    /** The scan: hands each run of the line's bytes to @p sink. */
    template <typename Sink> bool pull(Sink &&sink);

    ByteSource &source_;
    std::string buffer_;
    std::size_t pos_ = 0;
    bool eof_ = false;
};

} // namespace util
} // namespace gpx

#endif // GPX_UTIL_BYTE_STREAM_HH
