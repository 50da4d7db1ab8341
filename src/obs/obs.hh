/**
 * @file
 * Process-wide observability: a hierarchical metrics registry plus
 * scoped trace spans.
 *
 * The paper's whole economy is counted in probes, trials, and
 * simulated gates (Table 3); this subsystem makes those quantities
 * first-class so benches, CI gates, and the roadmap's perf work can
 * read them instead of re-deriving them by hand.
 *
 * Two halves:
 *
 *  - **Metrics registry** (Registry / Counter / Gauge / Timer).
 *    Counters and timers write into per-thread sharded slots — the
 *    hot path is one relaxed atomic load/store into a thread-local
 *    slab — and are aggregated deterministically at scrape time
 *    (retired slabs fold into a global accumulator on thread exit,
 *    so totals are invariant to which threads did the work).
 *    Names are dot-paths, `<layer>.<component>.<metric>`
 *    (e.g. "runtime.head_cache.misses", "sim.gate_applies").
 *
 *  - **Trace spans** (Span / instant / writeTrace). Scoped regions
 *    recorded as Chrome trace-event JSON, loadable in Perfetto or
 *    chrome://tracing. Off by default; toggled at runtime with
 *    setTracing() or the QSA_TRACE=<path> environment variable
 *    (which also writes the trace at process exit).
 *
 * Determinism contract: instrumentation never perturbs simulation
 * results — it draws no randomness and takes no locks on hot paths.
 * Counter *totals* for work-proportional metrics (sim.*, locate.*,
 * assertions.*, runtime.*_cache.*, runtime.ensemble.trials) are
 * bit-identical across numThreads and across same-seed runs; pool
 * scheduling metrics (runtime.pool.*) and all timer ".ns" values are
 * explicitly thread-count and wall-clock dependent. Cache hit/miss
 * counters stay deterministic under racy builds because a miss is
 * counted only on successful insertion (misses == distinct keys) and
 * a racer that loses the insert counts as a hit.
 *
 * Compile-out: configure with -DQSA_OBS=OFF and every class here
 * becomes an empty inline stub — call sites compile to nothing, and
 * the API (snapshot(), metricsObject(), writeTrace()) stays linkable
 * but returns an empty object and writes nothing.
 */

#ifndef QSA_OBS_OBS_HH
#define QSA_OBS_OBS_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"

#ifndef QSA_OBS_ENABLED
/** Default ON so non-CMake consumers get the instrumented build. */
#define QSA_OBS_ENABLED 1
#endif

#if QSA_OBS_ENABLED
#include <array>
#include <atomic>
#endif

namespace qsa::obs
{

/** Scrape result: (metric name, value), sorted by name. */
using Snapshot = std::vector<std::pair<std::string, std::int64_t>>;

#if QSA_OBS_ENABLED

namespace detail
{

/** Fixed slot budget per thread slab (4 KiB of counters). */
constexpr std::size_t max_metrics = 512;

/**
 * One thread's counter slots. Only the owning thread writes (relaxed
 * load+store, no RMW); the scraper reads concurrently, and the
 * destructor folds the final values into the registry's retired
 * accumulator so totals survive thread exit.
 */
struct Slab
{
    std::array<std::atomic<std::uint64_t>, max_metrics> counts;

    Slab();
    ~Slab();
};

/** The calling thread's slab (created on first use). */
Slab &localSlab();

/** Master runtime switch for metric recording (see setEnabled). */
extern std::atomic<bool> metrics_on;

inline bool
metricsOn()
{
    return metrics_on.load(std::memory_order_relaxed);
}

/** Runtime switch for trace recording (see setTracing). */
extern std::atomic<bool> trace_on;

inline bool
traceOn()
{
    return trace_on.load(std::memory_order_relaxed);
}

/** Monotonic nanoseconds since the process's trace epoch. */
std::uint64_t nowNs();

} // namespace detail

class Registry;

/**
 * Monotonic event count. Handles are stable for the process lifetime;
 * cache the reference (the QSA_OBS_COUNTER macro does) so the hot
 * path never touches the registry map.
 */
class Counter
{
  public:
    /** Add `delta` to the calling thread's slot (relaxed, no RMW). */
    void
    add(std::uint64_t delta = 1) const
    {
        if (!detail::metricsOn())
            return;
        auto &slot = detail::localSlab().counts[slotIndex];
        slot.store(slot.load(std::memory_order_relaxed) + delta,
                   std::memory_order_relaxed);
    }

    /** Two adds sharing one enabled-check and one slab lookup. */
    static void
    addTwo(const Counter &a, std::uint64_t da, const Counter &b,
           std::uint64_t db)
    {
        if (!detail::metricsOn())
            return;
        auto &slab = detail::localSlab();
        auto &sa = slab.counts[a.slotIndex];
        sa.store(sa.load(std::memory_order_relaxed) + da,
                 std::memory_order_relaxed);
        auto &sb = slab.counts[b.slotIndex];
        sb.store(sb.load(std::memory_order_relaxed) + db,
                 std::memory_order_relaxed);
    }

  private:
    friend class Registry;
    explicit Counter(std::uint32_t slot) : slotIndex(slot) {}

    std::uint32_t slotIndex;
};

/**
 * Last-writer-wins instantaneous value (e.g. pool queue depth).
 * Unlike counters, gauges are a single process-wide atomic: they are
 * read-modify-write and intended for coarse call sites only.
 */
class Gauge
{
  public:
    void
    set(std::int64_t v)
    {
        if (detail::metricsOn())
            value.store(v, std::memory_order_relaxed);
    }

    void
    add(std::int64_t delta)
    {
        if (detail::metricsOn())
            value.fetch_add(delta, std::memory_order_relaxed);
    }

    std::int64_t
    get() const
    {
        return value.load(std::memory_order_relaxed);
    }

  private:
    friend class Registry; // reset() zeroes even when disabled
    std::atomic<std::int64_t> value{0};
};

/**
 * Accumulated duration, stored as two counters: "<name>.ns" (total
 * nanoseconds) and "<name>.count" (number of recorded intervals).
 * The ".ns" half is wall-clock and therefore never part of the
 * determinism contract; ".count" is, for call-proportional sites.
 */
class Timer
{
  public:
    void
    record(std::uint64_t ns) const
    {
        Counter::addTwo(nsSlot, ns, countSlot, 1);
    }

    /** RAII interval: reads the clock only while metrics are on. */
    class Scope
    {
      public:
        explicit Scope(const Timer &t)
            : timer(&t), live(detail::metricsOn()),
              start(live ? detail::nowNs() : 0)
        {
        }

        ~Scope()
        {
            if (live)
                timer->record(detail::nowNs() - start);
        }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        const Timer *timer;
        bool live;
        std::uint64_t start;
    };

  private:
    friend class Registry;
    Timer(Counter ns, Counter count) : nsSlot(ns), countSlot(count) {}

    Counter nsSlot;
    Counter countSlot;
};

/**
 * Process-wide metric namespace. All accessors intern by name and
 * return a handle with process lifetime; scraping is deterministic
 * (name-sorted, retired + live slabs summed under one lock).
 */
class Registry
{
  public:
    /** Intern (or look up) a counter by dot-path name. */
    static Counter &counter(const std::string &name);

    /** Intern (or look up) a gauge by dot-path name. */
    static Gauge &gauge(const std::string &name);

    /** Intern (or look up) a timer ("<name>.ns" / "<name>.count"). */
    static Timer &timer(const std::string &name);

    /**
     * Aggregate every metric across retired and live slabs plus all
     * gauges, sorted by name. Exact once the threads that did the
     * work have finished their parallelFor bodies (the pool's
     * completion handshake publishes their relaxed stores).
     */
    static Snapshot snapshot();

    /**
     * Zero every counter slot, gauge, and the trace buffer. Metric
     * *identities* survive (cached handles stay valid). Call only
     * while no instrumented work is in flight.
     */
    static void reset();
};

/** @{ @name Runtime switches */

/** Whether metric recording is currently on (default: on). */
bool enabled();

/** Toggle metric recording at runtime (QSA_OBS=off env also works). */
void setEnabled(bool on);

/** Whether trace-span recording is currently on (default: off). */
bool tracing();

/** Toggle trace-span recording at runtime. */
void setTracing(bool on);

/** @} */

/**
 * Scoped trace region. Records a Chrome trace-event "X" (complete)
 * event on destruction when tracing is on; otherwise costs one
 * relaxed load. Attach key/value annotations with arg() — they land
 * in the event's "args" object and show in the Perfetto side panel.
 */
class Span
{
  public:
    explicit Span(const char *name);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Annotate the span; stringifies like the logging helpers. */
    template <typename T>
    Span &
    arg(const char *key, const T &value)
    {
        if (live)
            argPairs.emplace_back(key, messageString(value));
        return *this;
    }

  private:
    const char *spanName;
    bool live;
    std::uint64_t start;
    std::vector<std::pair<std::string, std::string>> argPairs;
};

/** Record an instantaneous ("i") trace event when tracing is on. */
void instant(const char *name);

/** The metrics snapshot as one flat JSON object of signed 64-bit
 *  integers, in name order. */
json::Value metricsObject();

/** Write the trace buffer to `path` as a Chrome trace-event JSON
 *  document, one event per line; qsa::Error on I/O failure. */
void writeTrace(const std::string &path);

/** Drop all buffered trace events. */
void clearTrace();

#else // !QSA_OBS_ENABLED

/*
 * Compiled-out stubs: identical API, empty inline bodies. Call sites
 * (and the macros below) optimise to nothing; scrape APIs return
 * empty documents so benches and exporters stay link-compatible.
 */

class Counter
{
  public:
    void add(std::uint64_t = 1) const {}
    static void addTwo(const Counter &, std::uint64_t, const Counter &,
                       std::uint64_t)
    {
    }
};

class Gauge
{
  public:
    void set(std::int64_t) {}
    void add(std::int64_t) {}
    std::int64_t get() const { return 0; }
};

class Timer
{
  public:
    void record(std::uint64_t) const {}

    class Scope
    {
      public:
        explicit Scope(const Timer &) {}
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
    };
};

class Registry
{
  public:
    static Counter &
    counter(const std::string &)
    {
        static Counter c;
        return c;
    }

    static Gauge &
    gauge(const std::string &)
    {
        static Gauge g;
        return g;
    }

    static Timer &
    timer(const std::string &)
    {
        static Timer t;
        return t;
    }

    static Snapshot snapshot() { return {}; }
    static void reset() {}
};

inline bool enabled() { return false; }
inline void setEnabled(bool) {}
inline bool tracing() { return false; }
inline void setTracing(bool) {}

class Span
{
  public:
    explicit Span(const char *) {}
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    template <typename T>
    Span &
    arg(const char *, const T &)
    {
        return *this;
    }
};

inline void instant(const char *) {}
inline json::Value metricsObject() { return json::Value::object(); }
inline void writeTrace(const std::string &) {}
inline void clearTrace() {}

#endif // QSA_OBS_ENABLED

} // namespace qsa::obs

/** @{ @name Call-site macros
 * The counter/gauge/timer macros intern the metric once (function-
 * local static reference) so steady state is one relaxed add; under
 * QSA_OBS=OFF they expand to nothing. QSA_OBS_SPAN expands either
 * way — the stub Span inlines away — so `span.arg(...)` chains stay
 * valid in both configurations.
 */

#if QSA_OBS_ENABLED

#define QSA_OBS_COUNTER(name, delta)                                   \
    do {                                                               \
        static const ::qsa::obs::Counter &qsa_obs_counter_ =           \
            ::qsa::obs::Registry::counter(name);                       \
        qsa_obs_counter_.add(delta);                                   \
    } while (0)

#define QSA_OBS_GAUGE_ADD(name, delta)                                 \
    do {                                                               \
        static ::qsa::obs::Gauge &qsa_obs_gauge_ =                     \
            ::qsa::obs::Registry::gauge(name);                         \
        qsa_obs_gauge_.add(delta);                                     \
    } while (0)

#define QSA_OBS_TIMER(var, name)                                       \
    static const ::qsa::obs::Timer &var##_timer_ =                     \
        ::qsa::obs::Registry::timer(name);                             \
    ::qsa::obs::Timer::Scope var(var##_timer_)

#else

#define QSA_OBS_COUNTER(name, delta)                                   \
    do {                                                               \
    } while (0)
#define QSA_OBS_GAUGE_ADD(name, delta)                                 \
    do {                                                               \
    } while (0)
#define QSA_OBS_TIMER(var, name)                                       \
    do {                                                               \
    } while (0)

#endif // QSA_OBS_ENABLED

#define QSA_OBS_SPAN(var, name) ::qsa::obs::Span var(name)

/** @} */

#endif // QSA_OBS_OBS_HH
