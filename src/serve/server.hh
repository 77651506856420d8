/**
 * @file
 * ServeServer: the resident mapping daemon behind gpx_serve.
 *
 * The cold-start economics of the batch tools are wrong for service
 * traffic: every gpx_map run pays reference load + index open + pool
 * spawn before the first pair maps. The server pays them once — v2
 * SeedMap shards stay mounted behind a SeedMapView on kernel-shared
 * mmap pages, one persistent MapperEngine worker pool per mount stays
 * warm — and then serves any number of concurrent connections speaking
 * gpx-serve-proto v2 (protocol.hh, docs/serve_protocol.md).
 *
 * Concurrency shape: one accept loop, one handler thread per
 * connection, and a bounded admission gate in front of the mapping
 * pool. A connection thread decodes its request, waits for an
 * admission slot (backpressure: when the queue is full the handler
 * blocks, the client's socket fills, and the client's send blocks — no
 * unbounded buffering anywhere), then streams the request's FASTQ
 * through the mount's StreamingMapper (tryRun()), whose chunks go to
 * the pool through ParallelMapper::mapAll(). Requests on one
 * connection are handled strictly in order; admitted requests on
 * different connections share the pool block by block. Mapping itself
 * is bit-identical to gpx_map over the same pairs — the golden corpus
 * digest is pinned by tests/test_serve.cc.
 *
 * Lifecycle: requestShutdown() (SIGTERM via the tool, a SHUTDOWN
 * frame, or a test) stops the accept loop, wakes idle connections,
 * lets in-flight requests finish, and run() returns with the aggregate
 * counters still queryable.
 */

#ifndef GPX_SERVE_SERVER_HH
#define GPX_SERVE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "genpair/driver.hh"
#include "genpair/seedmap_io.hh"
#include "genpair/streaming.hh"
#include "serve/protocol.hh"
#include "util/socket.hh"

namespace gpx {
namespace serve {

/** One reference + index pair the server mounts at start-up. */
struct MountSpec
{
    /** Routing key for MapRequestBody::refName; must be unique. */
    std::string name;
    /** Non-owning; must outlive the server. */
    const genomics::Reference *ref = nullptr;
    /** View over the shards (mmap image or owning map outlives us). */
    genpair::SeedMapView view;
    /**
     * Path of the v2 image backing @p view, when there is one. A
     * non-empty path makes the mount hot-swappable: REFRESH/SIGHUP
     * re-opens this path, validates it, and publishes a new epoch.
     * Mounts built in memory (no file) refuse refresh requests.
     */
    std::string indexPath;
};

/** Server configuration. */
struct ServeConfig
{
    /** Unix-domain socket path; empty = TCP on @p port. */
    std::string socketPath;
    /** TCP port on 127.0.0.1 (0 = kernel-assigned) when no path. */
    u16 port = 0;
    /** Worker threads per mount's pool (0 = hardware concurrency). */
    u32 threads = 0;
    /** Admission slots: requests mapping or waiting to map. */
    u32 admissionSlots = 4;
    /** Per-frame byte ceiling. */
    u32 maxFrameBytes = kDefaultMaxFrameBytes;
    /** Per-request pair-count ceiling. */
    u32 maxPairsPerRequest = kDefaultMaxPairsPerRequest;
    /** Read pairs per streaming chunk of a request's spine run. */
    u32 chunkPairs = 1024;
    /**
     * Close a connection with no traffic for this long (0 = never).
     * The idle reaper: an abandoned peer stops pinning its handler
     * thread; the close is counted in STATS (idle_closed).
     */
    u32 idleTimeoutMs = 0;
    /**
     * Monotonic budget for reading one frame once its first byte has
     * arrived, and the SO_SNDTIMEO bound on replies (0 = none). A
     * slow-loris peer gets ERROR{DEADLINE} and a close instead of a
     * pinned handler thread.
     */
    u32 connTimeoutMs = 0;
    /**
     * Bounded admission wait (0 = wait forever, pre-PR8 semantics).
     * A request that cannot get a mapping slot within this budget is
     * shed with ERROR{OVERLOADED, retry_after_ms} — explicit load
     * feedback instead of indefinite TCP backpressure.
     */
    u32 queueTimeoutMs = 0;
    /** retry_after_ms hint attached to OVERLOADED rejections. */
    u32 retryAfterMs = 100;
    genpair::DriverConfig driver; ///< threads field is ignored
};

/** Aggregate serving counters (exposed as the STATS JSON). */
struct ServeCounters
{
    u64 connectionsAccepted = 0;
    u64 requestsServed = 0;   ///< MAP requests answered with MAP_REPLY
    u64 requestsRejected = 0; ///< MAP requests answered with ERROR
    u64 pairsMapped = 0;
    u64 samBytesSent = 0;
    u64 admissionWaits = 0; ///< requests that found the gate full
    u64 shedded = 0;          ///< OVERLOADED rejections (queue timeout)
    u64 deadlineExpired = 0;  ///< connections closed mid-frame (DEADLINE)
    u64 idleClosed = 0;       ///< connections reaped for idleness
    u64 ioFaults = 0;         ///< server-side I/O failures serving requests
    u64 indexSwaps = 0;       ///< epochs published by REFRESH/SIGHUP
    u64 swapsRejected = 0;    ///< refresh attempts that failed validation
    /** Summed pool time of MAP requests: each chunk's job from its
     *  submission to the end of its last block, so it includes any
     *  wait behind other requests' blocks (see RunTiming). */
    double mapSeconds = 0;
    /** Summed spine stalls across requests: time the mapping stage
     *  waited for parsed input vs for emission backpressure. */
    double readerStallSeconds = 0;
    double writerStallSeconds = 0;
};

/** The resident mapping daemon. */
class ServeServer
{
  public:
    /**
     * Mounts every spec (building one persistent mapper pool per
     * mount) but does not open the socket yet.
     */
    ServeServer(std::vector<MountSpec> mounts, const ServeConfig &config);
    ~ServeServer();

    ServeServer(const ServeServer &) = delete;
    ServeServer &operator=(const ServeServer &) = delete;

    /**
     * Bind the socket and start the accept loop on a background
     * thread. Returns false (with a diagnostic) if the socket cannot
     * be opened. After success, boundPort() reports the TCP port when
     * config.port was 0.
     */
    bool start(std::string *error);

    /** Block until shutdown has been requested and every connection
     *  handler has drained. */
    void waitUntilDrained();

    /**
     * Begin graceful shutdown from any thread (signal-safe enough for
     * a self-pipe pattern; the tool calls it from its signal watcher):
     * stop accepting, wake idle connections, let in-flight requests
     * complete. Idempotent.
     */
    void requestShutdown();

    u16 boundPort() const { return boundPort_; }

    /** Snapshot of the aggregate serving counters. */
    ServeCounters counters() const;

    /**
     * Aggregate stats JSON: server counters plus the merged
     * PipelineStats of every mount (the --stats-json / STATS frame
     * payload).
     */
    std::string statsJson() const;

    /** Mount names in mount order (HELLO reply payload). */
    std::vector<std::string> mountNames() const;

    /**
     * Hot-swap @p ref_name's index (empty = the sole mount): re-open
     * the mount's indexPath, validate the image end to end (checksums,
     * structure, SIGBUS-guarded), and only then atomically publish it
     * as a new epoch. In-flight requests keep the epoch they started
     * on; the old image unmaps when its last request drains. On any
     * failure — no indexPath, unreadable/corrupt candidate — the old
     * epoch keeps serving and this returns false with a diagnostic.
     * Thread-safe (REFRESH frames and SIGHUP may race; last publish
     * wins).
     */
    bool refreshMount(const std::string &ref_name, std::string *error);

    /**
     * Refresh every file-backed mount (the SIGHUP handler's path).
     * Returns how many mounts published a new epoch; failures warn
     * and leave their old epoch serving.
     */
    u32 refreshAllMounts();

  private:
    /**
     * One published generation of a mount's index: the image (for
     * refreshed epochs; the initial epoch borrows MountSpec::view) and
     * the streaming spine, with its warm worker pool, over it. Request
     * handlers pin the epoch with a shared_ptr for the duration of a
     * request, so an old epoch survives — mapped and serving — until
     * its last in-flight request completes, then unmaps in the
     * destructor. No server lock is held while mapping.
     */
    struct MountEpoch
    {
        u64 epochId = 0;
        /** Owns the mmap for refreshed epochs; nullopt initially. */
        std::optional<genpair::SeedMapImage> image;
        /** tryRun() is safe from any number of handler threads. */
        std::unique_ptr<genpair::StreamingMapper> spine;
    };

    struct Mount
    {
        std::string name;
        const genomics::Reference *ref;
        std::string indexPath; ///< empty = not hot-swappable
        std::string samHeader;
        /** Current epoch; guarded by epochMu_ (swap on refresh). */
        std::shared_ptr<MountEpoch> epoch;
        /** Merged stats of every request served by this mount. */
        genpair::PipelineStats stats;
    };

    /** Bounded admission gate (see class comment). */
    class AdmissionGate
    {
      public:
        explicit AdmissionGate(u32 slots) : slots_(slots ? slots : 1) {}

        enum class Outcome
        {
            kAcquired,
            kTimedOut, ///< bounded wait expired (shed the request)
            kDraining, ///< server is shutting down
        };

        /**
         * Wait for a slot: forever when @p timeout_ms is 0 (TCP
         * backpressure, the pre-shedding discipline), else at most
         * @p timeout_ms before reporting kTimedOut.
         */
        Outcome acquireFor(u32 timeout_ms, bool *waited,
                           const std::atomic<bool> &draining);
        void release();
        /** Wake all waiters (shutdown path). */
        void wakeAll();

      private:
        std::mutex mu_;
        std::condition_variable freed_;
        u32 slots_;
        u32 inFlight_ = 0;
    };

    /** Build a warm epoch (pool + spine) over @p view. */
    std::shared_ptr<MountEpoch>
    buildEpoch(const genomics::Reference &ref,
               const genpair::SeedMapView &view) const;

    void acceptLoop();
    void handleConnection(util::Socket sock);
    Mount *findMount(const std::string &refName);
    /** The epoch new requests on @p mount should pin. */
    std::shared_ptr<MountEpoch> currentEpoch(Mount *mount) const;
    /** Serve one MAP request; false closes the connection. */
    bool handleMapRequest(const util::Socket &sock,
                          const std::vector<u8> &payload);
    bool sendError(const util::Socket &sock, u32 request_id, u16 code,
                   const std::string &message, u32 retry_after_ms = 0);

    ServeConfig config_;
    std::vector<Mount> mounts_;
    AdmissionGate gate_;

    util::Socket listener_;
    u16 boundPort_ = 0;
    std::thread acceptThread_;
    std::atomic<bool> draining_{ false };
    bool started_ = false;

    mutable std::mutex connMu_;
    std::condition_variable connDone_;
    /** Handlers still running; each moves itself to finishedThreads_
     *  on exit, and the accept loop or waitUntilDrained() joins it. */
    std::vector<std::thread> connThreads_;
    std::vector<std::thread> finishedThreads_;
    /** Raw fds of live connections, for shutdown wake-up. */
    std::vector<int> liveFds_;

    mutable std::mutex statsMu_;
    ServeCounters counters_;

    /** Guards every Mount::epoch pointer (publish and pin). */
    mutable std::mutex epochMu_;
};

} // namespace serve
} // namespace gpx

#endif // GPX_SERVE_SERVER_HH
