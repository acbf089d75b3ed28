/**
 * @file
 * Low-overhead per-frame event recording.
 *
 * TraceRecorder collects typed span/instant events — frame source,
 * queue waits, stage execution, uplink attempt/grant/loss/backoff,
 * delivery, controller decisions, fault injections — into per-thread
 * chunked buffers: the hot path is one cached-pointer compare plus a
 * store into the current chunk, with no lock and an allocation only
 * once per chunk (events never relocate). Buffers are bounded
 * (capacity per thread, overflow counted in dropped()) so a runaway
 * run degrades to losing tail events instead of eating the host.
 *
 * Timestamps are *arguments*: the recorder never reads time itself
 * (the obs-clock lint rule bans every host time API under src/obs/).
 * The runtime stamps events off its injected sim::Clock — wall
 * seconds threaded, virtual seconds under DiscreteEvent — or off the
 * frame clock in ObsConfig::frame_time mode.
 *
 * sortedEvents() merges all buffers and stable-sorts on the total key
 * (t, camera, frame, seq, kind, tid). Instrumentation sites assign
 * each event a deterministic per-site `seq`, so two runs producing
 * the same event set export byte-identical traces regardless of which
 * thread recorded what — the determinism contract the obs tests and
 * docs/observability.md pin down.
 */

#ifndef INCAM_OBS_TRACE_HH
#define INCAM_OBS_TRACE_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_safety.hh"

namespace incam {
namespace obs {

/** What an event describes; see docs/observability.md for taxonomy. */
enum class EventKind : uint8_t
{
    Source,      ///< instant: frame emitted by the source
    Crash,       ///< instant: frame lost to a camera crash window
    QueueWait,   ///< span: time between enqueue and pop (threaded)
    Stage,       ///< span: one block stage executing a frame
    StageFault,  ///< instant: injected compute fault on an attempt
    TxAttempt,   ///< instant: uplink transmission attempt started
    TxGrant,     ///< instant: the medium granted the attempt's airtime
    TxLoss,      ///< instant: the fault plan lost the attempt
    TxBackoff,   ///< span: timeout + backoff wait after a loss
    Deliver,     ///< span: uplink-stage entry to delivery resolution
    Reconfigure, ///< instant: a new configuration epoch published
    Decision,    ///< instant: adaptive controller decision
    Degrade,     ///< instant: controller entered local delivery
    Heal,        ///< instant: controller restored remote delivery
};

/** Short lowercase name ("source", "tx_attempt", ...). */
const char *eventKindName(EventKind k);

/** One recorded event. Field meaning by kind (a/b/v):
 *  Stage: a = retries, b = gated away (0/1); StageFault: a = attempt;
 *  Tx*: a = attempt number, v = bytes (grant: joules; backoff: wait s);
 *  Deliver: a = attempts, b = outcome (0 drop / 1 remote / 2 local),
 *  v = air bytes; Decision: a = switched (0/1); Source: v = bytes. */
struct TraceEvent
{
    double t = 0.0;   ///< start, in the run clock's (or frame) seconds
    double dur = 0.0; ///< span length; 0 for instants
    double v = 0.0;
    int64_t frame = -1; ///< frame id; -1 for non-frame events
    uint32_t seq = 0; ///< deterministic per-site order key
    int16_t a = 0;    ///< small by construction: attempts, flags
    int16_t b = 0;
    int16_t camera = 0; ///< exporter pid: fleet endpoint, 0 solo
    int16_t tid = 0;  ///< exporter track: stage index (see kTid*)
    EventKind kind = EventKind::Source;
};
// The hot path copies one event per record(); keep the struct at one
// cache line or less so the DES overhead gate in bench_observability
// holds.
static_assert(sizeof(TraceEvent) <= 48, "TraceEvent grew past 48 B");

/** Exporter track ids: source, block b -> kTidBlock0 + b, uplink,
 *  controller. */
constexpr int kTidSource = 0;
constexpr int kTidBlock0 = 1;
constexpr int kTidUplink = 98;
constexpr int kTidController = 99;

/** Per-thread ring-buffered event sink; see the file contract. */
class TraceRecorder
{
  public:
    /** @p capacity_per_thread bounds each thread's buffer; overflow
     *  events are counted, not stored. */
    explicit TraceRecorder(size_t capacity_per_thread = 1u << 18);
    TraceRecorder(const TraceRecorder &) = delete;
    TraceRecorder &operator=(const TraceRecorder &) = delete;

    /** Append @p ev to the calling thread's buffer (lock-free after
     *  the thread's first record). Inline: the fast path is one TLS
     *  compare, a bounds check, a write prefetch and a store into the
     *  current chunk — cheap enough to ride the DES engine's per-frame
     *  loop (gated in bench_observability). */
    void
    record(const TraceEvent &ev)
    {
        TlsCache &c = tlsCache();
        Buffer *b = c.serial == serial
                        ? static_cast<Buffer *>(c.buf)
                        : resolveThreadBuffer(c);
        if (b->count >= cap) {
            ++b->lost;
            return;
        }
        const size_t slot = b->count & (kChunkEvents - 1);
        const size_t chunk = b->count / kChunkEvents;
        // Only allocate when the cursor steps past every chunk ever
        // allocated: after reset() the cursor walks back through the
        // existing (already-faulted-in) chunks for free.
        if (slot == 0 && chunk == b->chunks.size()) {
            b->addChunk();
        }
        TraceEvent *dst = &b->chunks[chunk][slot];
        // The buffer outgrows the caches, so each store would wait for
        // its line; fetching the line 16 events ahead for writing cut
        // the 1k-camera DES sweep's tracing overhead from ~8% to ~3%
        // (bench_observability's estimator, 4-vCPU Xeon).
        if (slot + 16 < kChunkEvents) {
            __builtin_prefetch(dst + 16, /*rw=*/1, /*locality=*/3);
        }
        *dst = ev;
        ++b->count;
    }

    /** Name camera @p camera in exports (fleet camera names). */
    void setCameraLabel(int camera, const std::string &label);

    /** Forget all recorded events and labels but KEEP the chunk
     *  memory, so a long-lived recorder reused across runs (a
     *  monitoring daemon, the overhead bench) records into
     *  already-faulted pages instead of re-paying allocation. Call
     *  only after every recording thread has joined — concurrent
     *  record() is a race, same contract as sortedEvents(). */
    void reset();

    /** All recorded events merged and sorted on the total key —
     *  call only after every recording thread has joined. */
    std::vector<TraceEvent> sortedEvents() const;

    /** Events lost to full buffers. */
    int64_t dropped() const;

    /** Camera label map (copy), for exporters. */
    std::map<int, std::string> cameraLabels() const;

  private:
    /** Events per storage chunk. 1024 * sizeof(TraceEvent) = 80 KiB —
     *  deliberately under glibc's 128 KiB mmap threshold, so freed
     *  chunks return to the allocator's bins and later runs reuse the
     *  same (already-faulted-in) pages instead of paying a fresh
     *  mmap + page-fault storm per run. Chunking also means appends
     *  never relocate earlier events the way a doubling vector would. */
    static constexpr size_t kChunkEvents = 1024;
    static_assert((kChunkEvents & (kChunkEvents - 1)) == 0,
                  "slot index uses a power-of-two mask");

    struct Buffer
    {
        uint64_t thread_key = 0;
        int64_t lost = 0;
        size_t count = 0;
        std::vector<std::unique_ptr<TraceEvent[]>> chunks;

        /** Out-of-line: runs once every kChunkEvents records. */
        void addChunk();
    };

    /** One cached (recorder serial -> buffer) mapping per thread: the
     *  common case — one live recorder per run — records with a single
     *  compare; switching recorders re-resolves under the mutex.
     *  Serials are process-unique and never reused, so a stale entry
     *  can never alias a new recorder at an old address. */
    struct TlsCache
    {
        uint64_t serial = 0;
        void *buf = nullptr;
    };

    static TlsCache &
    tlsCache()
    {
        thread_local TlsCache cache;
        return cache;
    }

    /** Slow path: find or register the thread's buffer under the
     *  mutex and refresh @p c. */
    Buffer *resolveThreadBuffer(TlsCache &c);

    const uint64_t serial; ///< process-unique; keys the TLS cache
    const size_t cap;
    mutable AnnotatedMutex mu;
    /** deque: buffer addresses stay stable across registrations. */
    std::deque<Buffer> buffers INCAM_GUARDED_BY(mu);
    std::map<int, std::string> labels INCAM_GUARDED_BY(mu);
};

} // namespace obs
} // namespace incam

#endif // INCAM_OBS_TRACE_HH
