/**
 * @file
 * gpx-serve-proto v2: the length-prefixed binary framing spoken
 * between gpx_serve and its clients.
 *
 * The normative specification lives in docs/serve_protocol.md (kept in
 * lockstep with this header by a doc-constants test); the short form:
 *
 *   frame := u32 length | u8 type | payload[length - 1]
 *
 * with all integers little-endian on the wire. A connection opens with
 * a HELLO exchange carrying the protocol magic and version, then
 * carries any number of request/response round trips. Request-scoped
 * failures (unknown reference, malformed FASTQ) answer with an ERROR
 * frame and leave the connection usable; protocol-scoped failures
 * (bad magic, oversize frame, undecodable frame) answer with an ERROR
 * frame and close.
 *
 * This header is the single source of truth for the constants and the
 * payload encode/decode helpers shared by server, client, tests and
 * the latency bench.
 */

#ifndef GPX_SERVE_PROTOCOL_HH
#define GPX_SERVE_PROTOCOL_HH

#include <optional>
#include <string>
#include <vector>

#include "util/socket.hh"
#include "util/types.hh"

namespace gpx {
namespace serve {

/** Wire magic: the bytes "GPXP" read as a little-endian u32. */
inline constexpr u32 kProtoMagic = 0x50585047;
/** Protocol version spoken by this build (v2: retry_after_ms in
 *  ERROR, REFRESH frames, DEADLINE/OVERLOADED codes). */
inline constexpr u16 kProtoVersion = 2;
/** Default ceiling on one frame's length field (64 MiB). */
inline constexpr u32 kDefaultMaxFrameBytes = 64u << 20;
/** Default ceiling on read pairs in one MAP request. */
inline constexpr u32 kDefaultMaxPairsPerRequest = 65536;

/** Frame types (the u8 after the length prefix). */
enum FrameType : u8
{
    kHelloRequest = 0x01,   ///< client -> server, first frame
    kHelloReply = 0x02,     ///< server -> client, mount table attached
    kMapRequest = 0x10,     ///< framed FASTQ pair batch
    kMapReply = 0x11,       ///< SAM records + optional stats JSON
    kHeaderRequest = 0x12,  ///< SAM header text of one mount
    kHeaderReply = 0x13,    ///<
    kStatsRequest = 0x20,   ///< server aggregate counters
    kStatsReply = 0x21,     ///< JSON payload
    kShutdownRequest = 0x30,///< drain and exit
    kShutdownReply = 0x31,  ///<
    kRefreshRequest = 0x32, ///< hot-swap a mount's index image
    kRefreshReply = 0x33,   ///< swap published (name echoed back)
    kErrorReply = 0x3F,     ///< see ErrorCode
};

/** ERROR frame codes. */
enum ErrorCode : u16
{
    kErrBadMagic = 1,        ///< HELLO magic mismatch (closes)
    kErrBadVersion = 2,      ///< unsupported protocol version (closes)
    kErrBadFrame = 3,        ///< undecodable/unknown frame (closes)
    kErrUnknownReference = 4,///< no such mount (connection survives)
    kErrBadFastq = 5,        ///< malformed FASTQ batch (survives)
    kErrTooLarge = 6,        ///< frame or pair-count limit (closes)
    kErrDraining = 7,        ///< server is shutting down (closes)
    kErrDeadline = 8,        ///< read/write deadline expired (closes)
    kErrOverloaded = 9,      ///< shed at the admission gate (survives;
                             ///< retryAfterMs says when to try again)
    kErrRefreshFailed = 10,  ///< index swap rejected (survives; old
                             ///< epoch keeps serving)
    kErrIoFault = 11,        ///< server-side I/O fault while serving
                             ///< the request (survives)
};

/** MAP request flag bits. */
enum MapFlags : u8
{
    kMapWantStats = 0x1, ///< attach per-request PipelineStats JSON
};

/** One decoded frame: type plus raw payload bytes. */
struct Frame
{
    u8 type = 0;
    std::vector<u8> payload;
};

/** HELLO payload (both directions; mounts filled by the reply only). */
struct HelloBody
{
    u32 magic = kProtoMagic;
    u16 version = kProtoVersion;
    std::vector<std::string> mounts;
};

/** MAP_REQUEST payload: one FASTQ pair batch bound for one mount. */
struct MapRequestBody
{
    u32 requestId = 0;
    u8 flags = 0;
    std::string refName; ///< empty = the server's sole mount
    std::string r1Fastq; ///< FASTQ text, read 1 of every pair
    std::string r2Fastq; ///< FASTQ text, read 2, same order
};

/** MAP_REPLY payload. */
struct MapReplyBody
{
    u32 requestId = 0;
    u32 pairCount = 0;
    std::string sam;       ///< SAM record lines (no header)
    std::string statsJson; ///< empty unless kMapWantStats was set
};

/** ERROR payload. */
struct ErrorBody
{
    u32 requestId = 0; ///< 0 when not tied to a MAP request
    u16 code = 0;
    std::string message;
    /** kErrOverloaded only: client backoff hint (0 = none given). */
    u32 retryAfterMs = 0;
};

// --- payload encoding ------------------------------------------------

/** Append little-endian scalars / length-prefixed strings to @p out. */
void putU16(std::vector<u8> &out, u16 v);
void putU32(std::vector<u8> &out, u32 v);
/** u16 length prefix; panics if @p s exceeds 65535 bytes. */
void putString16(std::vector<u8> &out, const std::string &s);
/** u32 length prefix. */
void putString32(std::vector<u8> &out, const std::string &s);

/**
 * Bounds-checked little-endian reader over one frame payload. All
 * take() calls fail permanently once any read runs past the end —
 * callers check ok() once after decoding a whole struct.
 */
class PayloadReader
{
  public:
    explicit PayloadReader(const std::vector<u8> &payload)
        : data_(payload.data()), size_(payload.size())
    {
    }

    u8 takeU8();
    u16 takeU16();
    u32 takeU32();
    std::string takeString16();
    std::string takeString32();

    /** True iff every take() so far was in bounds. */
    bool ok() const { return ok_; }
    /** True iff the whole payload was consumed (and ok()). */
    bool done() const { return ok_ && pos_ == size_; }

  private:
    bool take(void *out, u64 len);

    const u8 *data_;
    u64 size_;
    u64 pos_ = 0;
    bool ok_ = true;
};

// --- body encode/decode ----------------------------------------------

std::vector<u8> encodeHello(const HelloBody &body);
bool decodeHello(const std::vector<u8> &payload, HelloBody *out);

std::vector<u8> encodeMapRequest(const MapRequestBody &body);
bool decodeMapRequest(const std::vector<u8> &payload,
                      MapRequestBody *out);

std::vector<u8> encodeMapReply(const MapReplyBody &body);
bool decodeMapReply(const std::vector<u8> &payload, MapReplyBody *out);

std::vector<u8> encodeError(const ErrorBody &body);
bool decodeError(const std::vector<u8> &payload, ErrorBody *out);

// --- frame I/O -------------------------------------------------------

/** Write one frame (length prefix + type + payload). */
bool writeFrame(const util::Socket &sock, u8 type,
                const std::vector<u8> &payload);

/** Convenience: frame whose payload is one u32-length-prefixed blob. */
bool writeBlobFrame(const util::Socket &sock, u8 type,
                    const std::string &blob);

/** Read result of readFrame(). */
enum class FrameRead
{
    kFrame,       ///< a frame was read into the output
    kEof,         ///< peer closed cleanly between frames
    kTooLarge,    ///< length field exceeded @p max_frame_bytes
    kError,       ///< short read / I/O error
    kIdleTimeout, ///< no frame started within the idle budget
    kTimeout,     ///< frame started but stalled past the frame budget
};

/**
 * Per-read deadlines for readFrame(). Both default off (-1). idleMs
 * bounds the wait for a frame's *first byte* (an abandoned connection
 * parks here); frameMs is a monotonic budget for the rest of the
 * frame once it has started (a slow-loris peer dribbling bytes cannot
 * reset it).
 */
struct FrameTimeouts
{
    i64 idleMs = -1;
    i64 frameMs = -1;
};

/**
 * Read one frame. Never allocates more than @p max_frame_bytes; an
 * oversize length field is reported without consuming the payload
 * (the connection is unusable afterwards — close it).
 */
FrameRead readFrame(const util::Socket &sock, Frame *out,
                    u32 max_frame_bytes = kDefaultMaxFrameBytes,
                    const FrameTimeouts &timeouts = {});

} // namespace serve
} // namespace gpx

#endif // GPX_SERVE_PROTOCOL_HH
