/**
 * @file
 * Metrics registry and trace-span implementation.
 *
 * Everything here is behind QSA_OBS_ENABLED; with -DQSA_OBS=OFF this
 * translation unit compiles to nothing and the inline stubs in
 * obs.hh satisfy the API.
 *
 * Lifetime notes: the registry and trace state are intentionally
 * leaked singletons. Thread-local slabs retire (fold their totals
 * into the registry) from thread destructors, which can run at any
 * point during process teardown — a destructed registry would be a
 * use-after-free, a leaked one is always valid.
 */

#include "obs/obs.hh"

#if QSA_OBS_ENABLED

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <mutex>
#include <unordered_map>

#include "common/errors.hh"
#include "common/logging.hh"

namespace qsa::obs
{

namespace detail
{

std::atomic<bool> metrics_on{true};
std::atomic<bool> trace_on{false};

namespace
{

std::chrono::steady_clock::time_point
epoch()
{
    static const auto t0 = std::chrono::steady_clock::now();
    return t0;
}

} // anonymous namespace

std::uint64_t
nowNs()
{
    const auto dt = std::chrono::steady_clock::now() - epoch();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
        .count();
}

} // namespace detail

namespace
{

/** Registry storage; leaked (see file comment). */
struct RegistryState
{
    std::mutex mutex;

    /** Slot interning for counters (timers are two counter slots). */
    std::unordered_map<std::string, std::uint32_t> slotIndex;
    std::vector<std::string> slotNames;
    std::deque<Counter> counterHandles;
    std::unordered_map<std::uint32_t, std::size_t> handleBySlot;

    /** Totals folded in from destroyed thread slabs. */
    std::array<std::uint64_t, detail::max_metrics> retired{};

    /** Live per-thread slabs. */
    std::vector<detail::Slab *> slabs;

    std::unordered_map<std::string, std::size_t> gaugeIndex;
    std::vector<std::string> gaugeNames;
    std::deque<Gauge> gauges;

    std::unordered_map<std::string, std::size_t> timerIndex;
    std::deque<Timer> timers;
};

RegistryState &
registryState()
{
    static RegistryState *state = new RegistryState;
    return *state;
}

/** Intern a counter slot; caller holds the registry mutex. */
std::uint32_t
internSlot(RegistryState &state, const std::string &name)
{
    const auto it = state.slotIndex.find(name);
    if (it != state.slotIndex.end())
        return it->second;
    fatal_if(state.slotNames.size() >= detail::max_metrics,
             "metric slot budget (", detail::max_metrics,
             ") exhausted interning '", name, "'");
    const auto slot =
        static_cast<std::uint32_t>(state.slotNames.size());
    state.slotNames.push_back(name);
    state.slotIndex.emplace(name, slot);
    return slot;
}

/** One recorded trace event (Chrome trace-event model). */
struct TraceEvent
{
    std::string name;
    char phase; // 'X' complete, 'i' instant
    std::uint64_t tsNs;
    std::uint64_t durNs;
    int tid;
    std::vector<std::pair<std::string, std::string>> args;
};

/** One event as a Chrome trace-event object (times in µs). */
json::Value
eventObject(const TraceEvent &event)
{
    json::Value out = json::Value::object();
    out.set("name", json::Value::string(event.name));
    out.set("cat", json::Value::string("qsa"));
    out.set("ph", json::Value::string(std::string(1, event.phase)));
    out.set("pid", json::Value::integer(1));
    out.set("tid", json::Value::integer(event.tid));
    out.set("ts", json::Value::number(event.tsNs / 1000.0));
    if (event.phase == 'X')
        out.set("dur", json::Value::number(event.durNs / 1000.0));
    else
        out.set("s", json::Value::string("p"));
    if (!event.args.empty()) {
        json::Value args = json::Value::object();
        for (const auto &[key, value] : event.args)
            args.set(key, json::Value::string(value));
        out.set("args", std::move(args));
    }
    return out;
}

/** Keep runaway traces bounded (~a few hundred MB of JSON). */
constexpr std::size_t max_trace_events = 1u << 20;

/** Trace storage; leaked like the registry. */
struct TraceState
{
    std::mutex mutex;
    std::vector<TraceEvent> events;
    std::atomic<int> nextTid{1};
    bool warnedOverflow = false;
};

TraceState &
traceState()
{
    static TraceState *state = new TraceState;
    return *state;
}

/** Small stable id for the calling thread (Perfetto lane). */
int
traceTid()
{
    thread_local const int tid =
        traceState().nextTid.fetch_add(1, std::memory_order_relaxed);
    return tid;
}

void
pushEvent(TraceEvent &&event)
{
    auto &state = traceState();
    std::lock_guard<std::mutex> lock(state.mutex);
    if (state.events.size() >= max_trace_events) {
        if (!state.warnedOverflow) {
            state.warnedOverflow = true;
            warn("trace buffer full (", max_trace_events,
                 " events); dropping further spans");
        }
        return;
    }
    state.events.push_back(std::move(event));
}

} // anonymous namespace

namespace detail
{

Slab::Slab()
{
    for (auto &count : counts)
        count.store(0, std::memory_order_relaxed);
    auto &state = registryState();
    std::lock_guard<std::mutex> lock(state.mutex);
    state.slabs.push_back(this);
}

Slab::~Slab()
{
    auto &state = registryState();
    std::lock_guard<std::mutex> lock(state.mutex);
    for (std::size_t i = 0; i < max_metrics; ++i)
        state.retired[i] += counts[i].load(std::memory_order_relaxed);
    state.slabs.erase(
        std::find(state.slabs.begin(), state.slabs.end(), this));
}

Slab &
localSlab()
{
    thread_local Slab slab;
    return slab;
}

} // namespace detail

Counter &
Registry::counter(const std::string &name)
{
    auto &state = registryState();
    std::lock_guard<std::mutex> lock(state.mutex);
    const std::uint32_t slot = internSlot(state, name);
    const auto it = state.handleBySlot.find(slot);
    if (it != state.handleBySlot.end())
        return state.counterHandles[it->second];
    state.handleBySlot.emplace(slot, state.counterHandles.size());
    state.counterHandles.push_back(Counter(slot));
    return state.counterHandles.back();
}

Gauge &
Registry::gauge(const std::string &name)
{
    auto &state = registryState();
    std::lock_guard<std::mutex> lock(state.mutex);
    const auto it = state.gaugeIndex.find(name);
    if (it != state.gaugeIndex.end())
        return state.gauges[it->second];
    state.gaugeIndex.emplace(name, state.gauges.size());
    state.gaugeNames.push_back(name);
    state.gauges.emplace_back();
    return state.gauges.back();
}

Timer &
Registry::timer(const std::string &name)
{
    auto &state = registryState();
    std::lock_guard<std::mutex> lock(state.mutex);
    const auto it = state.timerIndex.find(name);
    if (it != state.timerIndex.end())
        return state.timers[it->second];
    const Counter ns(internSlot(state, name + ".ns"));
    const Counter count(internSlot(state, name + ".count"));
    state.timerIndex.emplace(name, state.timers.size());
    state.timers.push_back(Timer(ns, count));
    return state.timers.back();
}

Snapshot
Registry::snapshot()
{
    auto &state = registryState();
    std::lock_guard<std::mutex> lock(state.mutex);
    Snapshot snap;
    snap.reserve(state.slotNames.size() + state.gaugeNames.size());
    for (std::size_t i = 0; i < state.slotNames.size(); ++i) {
        std::uint64_t total = state.retired[i];
        for (const auto *slab : state.slabs)
            total += slab->counts[i].load(std::memory_order_relaxed);
        snap.emplace_back(state.slotNames[i],
                          static_cast<std::int64_t>(total));
    }
    for (std::size_t i = 0; i < state.gaugeNames.size(); ++i)
        snap.emplace_back(state.gaugeNames[i], state.gauges[i].get());
    std::sort(snap.begin(), snap.end());
    return snap;
}

void
Registry::reset()
{
    auto &state = registryState();
    {
        std::lock_guard<std::mutex> lock(state.mutex);
        state.retired.fill(0);
        for (auto *slab : state.slabs)
            for (auto &count : slab->counts)
                count.store(0, std::memory_order_relaxed);
        for (auto &gauge : state.gauges)
            gauge.value.store(0, std::memory_order_relaxed);
    }
    clearTrace();
}

bool
enabled()
{
    return detail::metricsOn();
}

void
setEnabled(bool on)
{
    detail::metrics_on.store(on, std::memory_order_relaxed);
}

bool
tracing()
{
    return detail::traceOn();
}

void
setTracing(bool on)
{
    detail::trace_on.store(on, std::memory_order_relaxed);
}

Span::Span(const char *name)
    : spanName(name), live(detail::traceOn()),
      start(live ? detail::nowNs() : 0)
{
}

Span::~Span()
{
    if (!live)
        return;
    pushEvent({spanName, 'X', start, detail::nowNs() - start,
               traceTid(), std::move(argPairs)});
}

void
instant(const char *name)
{
    if (!detail::traceOn())
        return;
    pushEvent({name, 'i', detail::nowNs(), 0, traceTid(), {}});
}

json::Value
metricsObject()
{
    json::Value out = json::Value::object();
    for (const auto &[name, value] : Registry::snapshot())
        out.set(name, json::Value::integer(value));
    return out;
}

void
writeTrace(const std::string &path)
{
    std::ofstream out(path);
    fatal_if(!out, "cannot open '", path, "' for writing");
    auto &state = traceState();
    {
        std::lock_guard<std::mutex> lock(state.mutex);
        // Event by event: a document tree of a full buffer would cost
        // about 1 KB per event, on top of the buffer itself.
        out << "{\"traceEvents\":[";
        const char *separator = "\n";
        for (const auto &event : state.events) {
            out << separator << eventObject(event).dump();
            separator = ",\n";
        }
        out << "\n],\"displayTimeUnit\":\"ms\"}\n";
    }
    out.flush();
    fatal_if(!out, "failed writing the trace to '", path, "'");
}

void
clearTrace()
{
    auto &state = traceState();
    std::lock_guard<std::mutex> lock(state.mutex);
    state.events.clear();
    state.warnedOverflow = false;
}

namespace
{

/** Path QSA_TRACE asked us to write at exit. */
std::string &
envTracePath()
{
    static std::string *path = new std::string;
    return *path;
}

void
writeEnvTrace()
{
    // An exit handler must not throw: report an unwritable path and
    // let the process finish exiting.
    try {
        writeTrace(envTracePath());
    } catch (const Error &e) {
        warn("QSA_TRACE: ", e.what());
        return;
    }
    inform("trace written to ", envTracePath());
}

/**
 * Environment hooks: QSA_OBS=0/off/false disables metric recording;
 * QSA_TRACE=<path> turns tracing on and writes the trace at exit.
 */
struct EnvInit
{
    EnvInit()
    {
        detail::nowNs(); // pin the trace epoch early
        if (const char *v = std::getenv("QSA_OBS")) {
            const std::string s(v);
            if (s == "0" || s == "off" || s == "OFF" || s == "false")
                setEnabled(false);
        }
        if (const char *p = std::getenv("QSA_TRACE"); p && *p) {
            envTracePath() = p;
            setTracing(true);
            std::atexit(writeEnvTrace);
        }
    }
};

const EnvInit env_init;

} // anonymous namespace

} // namespace qsa::obs

#endif // QSA_OBS_ENABLED
