/**
 * @file
 * ServeClient: the reference gpx-serve-proto v2 client, shared by the
 * gpx_client tool, the end-to-end serve tests and the latency bench.
 * One instance owns one connection; calls are synchronous (send the
 * request frame, block for the matching reply) and must come from one
 * thread at a time — open more clients for concurrency, which is also
 * how the protocol is meant to be scaled out.
 */

#ifndef GPX_SERVE_CLIENT_HH
#define GPX_SERVE_CLIENT_HH

#include <optional>
#include <string>
#include <vector>

#include "serve/protocol.hh"
#include "util/socket.hh"

namespace gpx {
namespace serve {

/** Outcome of one request round trip. */
struct ClientStatus
{
    /** True iff the expected reply frame arrived. */
    bool ok = false;
    /**
     * Set when the server answered with an ERROR frame; transportError
     * is set instead when the failure was local (I/O, bad framing).
     */
    std::optional<ErrorBody> errorFrame;
    std::string transportError;

    /** Human-readable failure summary (empty when ok). */
    std::string describe() const;
};

/**
 * Client-side retry discipline for OVERLOADED rejections: capped
 * exponential backoff seeded by the server's retry_after_ms hint.
 * maxRetries = 0 (the default) preserves fail-fast semantics.
 */
struct RetryPolicy
{
    u32 maxRetries = 0;   ///< re-sends after the first attempt
    u32 backoffMs = 50;   ///< first backoff step
    u32 maxBackoffMs = 2000; ///< backoff cap (doubling stops here)
};

/** Synchronous gpx-serve-proto v2 connection. */
class ServeClient
{
  public:
    /** Connect over a Unix-domain socket and run the HELLO exchange. */
    static std::optional<ServeClient>
    connectUnix(const std::string &path, std::string *error);

    /** Connect over TCP (IPv4) and run the HELLO exchange. */
    static std::optional<ServeClient>
    connectTcp(const std::string &host, u16 port, std::string *error);

    /** Mount names announced by the server's HELLO reply. */
    const std::vector<std::string> &mounts() const { return mounts_; }

    /** Install the OVERLOADED retry policy for subsequent mapBatch
     *  calls (default: no retries). */
    void setRetryPolicy(const RetryPolicy &policy) { retry_ = policy; }

    /** OVERLOADED rejections absorbed by retries so far. */
    u64 retriesPerformed() const { return retriesPerformed_; }

    /**
     * Map one framed FASTQ pair batch on mount @p ref_name (empty =
     * the sole mount). On success @p reply holds the SAM records (and
     * stats JSON when @p want_stats). The returned status
     * distinguishes server-side rejections (errorFrame — the
     * connection is still usable for codes 4/5) from transport
     * failures (connection dead).
     */
    ClientStatus mapBatch(const std::string &ref_name,
                          const std::string &r1_fastq,
                          const std::string &r2_fastq, bool want_stats,
                          MapReplyBody *reply);

    /** Fetch the SAM header text of mount @p ref_name. */
    ClientStatus fetchHeader(const std::string &ref_name,
                             std::string *sam_header);

    /** Fetch the server's aggregate stats JSON. */
    ClientStatus fetchStats(std::string *json);

    /** Ask the server to drain and exit. */
    ClientStatus shutdownServer();

    /**
     * Ask the server to hot-swap mount @p ref_name's index (empty =
     * the sole mount). Failure (kErrRefreshFailed) leaves the old
     * epoch serving and the connection usable.
     */
    ClientStatus refreshMount(const std::string &ref_name);

  private:
    explicit ServeClient(util::Socket sock) : sock_(std::move(sock)) {}

    bool helloExchange(std::string *error);
    /** Read the next frame; decodes an ERROR frame into @p status. */
    bool readReply(Frame *frame, u8 expected_type, ClientStatus *status);

    ClientStatus mapBatchOnce(const std::string &ref_name,
                              const std::string &r1_fastq,
                              const std::string &r2_fastq,
                              bool want_stats, MapReplyBody *reply);

    util::Socket sock_;
    std::vector<std::string> mounts_;
    u32 nextRequestId_ = 1;
    RetryPolicy retry_;
    u64 retriesPerformed_ = 0;
};

} // namespace serve
} // namespace gpx

#endif // GPX_SERVE_CLIENT_HH
