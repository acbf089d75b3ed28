/**
 * @file
 * Named metrics registry — counters, gauges and histograms with
 * snapshot/diff semantics.
 *
 * The runtime's Telemetry probe is a fixed struct of atomics wired to
 * one pipeline, and it is the run's live record; exports of a labelled
 * fleet want *named* series instead. MetricsRegistry holds them: each
 * metric is (name, label) — label typically a camera name, empty for
 * solo runs. The registry is a sink: a StreamingPipeline publishes
 * its series once, when its run finishes successfully, so no
 * per-frame path touches the registry mutex or a map.
 *
 * Threading contract: Counter and Gauge are single-word atomics,
 * updatable from any thread. LogHistogram handles are single-writer
 * (the registering stage's thread) and must only be read after the
 * run joins — the same contract the runtime's latency accounting
 * already lives by. Registration takes the registry mutex; handles
 * are stable for the registry's lifetime (deque storage).
 *
 * snapshot() returns a value type sorted by (name, label) so exports
 * are deterministic; diff() subtracts counter values pairwise, which
 * is what turns two snapshots into an exact per-window delta.
 */

#ifndef INCAM_OBS_METRICS_HH
#define INCAM_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/thread_safety.hh"
#include "obs/histogram.hh"

namespace incam {
namespace obs {

/** Monotonic accumulator; add() from any thread. */
class Counter
{
  public:
    void
    add(double d)
    {
        v.fetch_add(d, std::memory_order_relaxed);
    }
    double value() const { return v.load(std::memory_order_relaxed); }

  private:
    std::atomic<double> v{0.0};
};

/** Last-write-wins level; set() from any thread. */
class Gauge
{
  public:
    void set(double x) { v.store(x, std::memory_order_relaxed); }
    double value() const { return v.load(std::memory_order_relaxed); }

  private:
    std::atomic<double> v{0.0};
};

/** What kind of series a snapshot entry came from. */
enum class MetricKind : uint8_t
{
    Counter,
    Gauge,
    Histogram,
};

/** One exported series value at snapshot time. */
struct MetricValue
{
    std::string name;
    std::string label;
    MetricKind kind = MetricKind::Counter;
    double value = 0.0;   ///< counter/gauge value; histogram mean
    int64_t count = 0;    ///< histogram sample count
    double p50 = 0.0, p95 = 0.0, p99 = 0.0; ///< histogram only
};

/** A value-type copy of every registered series, (name, label) sorted. */
struct MetricsSnapshot
{
    std::vector<MetricValue> values;

    /**
     * This snapshot minus @p earlier: counters subtract pairwise
     * (series missing from @p earlier keep their value); gauges and
     * histograms keep this snapshot's state. The per-window delta
     * read two snapshots give.
     */
    MetricsSnapshot diff(const MetricsSnapshot &earlier) const;

    /** The series named (@p name, @p label), or null. */
    const MetricValue *find(const std::string &name,
                            const std::string &label = "") const;
};

/** Registry of named metrics; see the file contract above. */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** Find-or-create; the reference is stable for the registry's
     *  lifetime. Registration is mutexed — cache the handle. */
    Counter &counter(const std::string &name,
                     const std::string &label = "");
    Gauge &gauge(const std::string &name, const std::string &label = "");
    /** Single-writer; read only after the owning run joins. */
    LogHistogram &histogram(const std::string &name,
                            const std::string &label = "");

    /** Copy every series out, sorted by (name, label). Histograms must
     *  be quiescent (post-join) when this runs. */
    MetricsSnapshot snapshot() const;

  private:
    struct Entry
    {
        std::string name;
        std::string label;
        MetricKind kind;
        Counter counter;
        Gauge gauge;
        LogHistogram hist;
    };

    Entry &findOrCreate(const std::string &name,
                        const std::string &label, MetricKind kind);

    mutable AnnotatedMutex mu;
    /** deque: handles stay valid across registrations. */
    std::deque<Entry> entries INCAM_GUARDED_BY(mu);
};

} // namespace obs
} // namespace incam

#endif // INCAM_OBS_METRICS_HH
