/**
 * @file
 * Tests for qsa::obs: exact counter aggregation across threads (live
 * and retired slabs), the determinism contract for work-proportional
 * metrics under varying pool widths, timer/gauge semantics, the JSON
 * output (metrics object and Chrome trace-event document), and the
 * runtime on/off switches. The whole file also compiles against the
 * QSA_OBS=OFF stubs, where it checks the compiled-out behaviour
 * instead.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "parse_json.hh"
#include "qsa/qsa.hh"

namespace
{

using namespace qsa;

// --- A minimal JSON well-formedness checker --------------------------------

/**
 * Strict recursive-descent validator for the subset of JSON our
 * renderers emit (no exponent-free corner cases are relied on; this
 * accepts standard JSON values). Returns true iff `text` is exactly
 * one valid JSON value plus trailing whitespace.
 */
class JsonValidator
{
  public:
    static bool
    valid(const std::string &text)
    {
        JsonValidator v(text);
        if (!v.value())
            return false;
        v.ws();
        return v.pos == text.size();
    }

  private:
    explicit JsonValidator(const std::string &t) : text(t) {}

    const std::string &text;
    std::size_t pos = 0;

    void
    ws()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\n' ||
                text[pos] == '\r' || text[pos] == '\t'))
            ++pos;
    }

    bool
    eat(char c)
    {
        ws();
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word)
    {
        for (const char *p = word; *p; ++p, ++pos)
            if (pos >= text.size() || text[pos] != *p)
                return false;
        return true;
    }

    bool
    string()
    {
        if (!eat('"'))
            return false;
        while (pos < text.size() && text[pos] != '"') {
            if (text[pos] == '\\') {
                ++pos;
                if (pos >= text.size())
                    return false;
                if (text[pos] == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        ++pos;
                        if (pos >= text.size() ||
                            !std::isxdigit(
                                (unsigned char)text[pos]))
                            return false;
                    }
                }
            }
            ++pos;
        }
        return eat('"');
    }

    bool
    number()
    {
        const std::size_t start = pos;
        if (pos < text.size() && text[pos] == '-')
            ++pos;
        while (pos < text.size() &&
               (std::isdigit((unsigned char)text[pos]) ||
                text[pos] == '.' || text[pos] == 'e' ||
                text[pos] == 'E' || text[pos] == '+' ||
                text[pos] == '-'))
            ++pos;
        return pos > start;
    }

    bool
    value()
    {
        ws();
        if (pos >= text.size())
            return false;
        switch (text[pos]) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default: return number();
        }
    }

    bool
    object()
    {
        if (!eat('{'))
            return false;
        if (eat('}'))
            return true;
        do {
            ws();
            if (!string() || !eat(':') || !value())
                return false;
        } while (eat(','));
        return eat('}');
    }

    bool
    array()
    {
        if (!eat('['))
            return false;
        if (eat(']'))
            return true;
        do {
            if (!value())
                return false;
        } while (eat(','));
        return eat(']');
    }
};

/** Value of `name` in a snapshot, or -1 when absent. */
std::int64_t
valueOf(const obs::Snapshot &snap, const std::string &name)
{
    for (const auto &[key, value] : snap)
        if (key == name)
            return value;
    return -1;
}

#if QSA_OBS_ENABLED

// --- Instrumented-build tests ----------------------------------------------

/**
 * The work-proportional subset of the snapshot the determinism
 * contract covers: everything except pool scheduling metrics,
 * wall-clock ".ns" totals, and this file's own "test.*" scratch
 * metrics (which vary with gtest filtering and ordering).
 */
obs::Snapshot
deterministicPart()
{
    obs::Snapshot out;
    for (const auto &kv : obs::Registry::snapshot()) {
        const std::string &key = kv.first;
        if (key.rfind("runtime.pool.", 0) == 0)
            continue;
        if (key.size() >= 3 &&
            key.compare(key.size() - 3, 3, ".ns") == 0)
            continue;
        if (key.rfind("test.", 0) == 0)
            continue;
        out.push_back(kv);
    }
    return out;
}

/** Bell-pair entanglement check: a small fully-instrumented stack. */
void
runWorkload(unsigned threads)
{
    circuit::Circuit circ;
    const auto a = circ.addRegister("a", 1);
    const auto b = circ.addRegister("b", 1);
    circ.h(a[0]);
    circ.cnot(a[0], b[0]);
    circ.breakpoint("pair");
    circ.measure(a, "ma");
    circ.measure(b, "mb");

    assertions::CheckConfig cfg;
    cfg.ensembleSize = 256;
    cfg.seed = 0x51c0ffee;
    cfg.numThreads = threads;
    assertions::AssertionChecker checker(circ, cfg);
    checker.assertEntangled("pair", circ.reg("a"), circ.reg("b"));
    const auto outcome = checker.check(checker.assertions()[0]);
    ASSERT_TRUE(outcome.passed);
}

TEST(ObsCounter, ExactAcrossLiveAndRetiredSlabs)
{
    obs::Registry::reset();
    obs::Counter &counter = obs::Registry::counter("test.obs.inc");
    constexpr int n_threads = 4;
    constexpr std::uint64_t per_thread = 10000;

    // Half the increments from threads that exit before the scrape
    // (their slabs fold into the retired accumulator)...
    std::vector<std::thread> workers;
    for (int t = 0; t < n_threads; ++t)
        workers.emplace_back([&] {
            for (std::uint64_t i = 0; i < per_thread; ++i)
                counter.add();
        });
    for (auto &w : workers)
        w.join();

    // ...and the rest from this still-live thread's slab.
    counter.add(per_thread);

    const auto snap = obs::Registry::snapshot();
    EXPECT_EQ(valueOf(snap, "test.obs.inc"),
              (std::int64_t)((n_threads + 1) * per_thread));
}

TEST(ObsCounter, AddTwoAndResetSemantics)
{
    obs::Registry::reset();
    obs::Counter &a = obs::Registry::counter("test.obs.a");
    obs::Counter &b = obs::Registry::counter("test.obs.b");
    obs::Counter::addTwo(a, 3, b, 7);
    auto snap = obs::Registry::snapshot();
    EXPECT_EQ(valueOf(snap, "test.obs.a"), 3);
    EXPECT_EQ(valueOf(snap, "test.obs.b"), 7);

    obs::Registry::reset();
    snap = obs::Registry::snapshot();
    // Identities survive a reset; values return to zero.
    EXPECT_EQ(valueOf(snap, "test.obs.a"), 0);
    EXPECT_EQ(valueOf(snap, "test.obs.b"), 0);
    a.add();
    EXPECT_EQ(valueOf(obs::Registry::snapshot(), "test.obs.a"), 1);
}

TEST(ObsContract, WorkMetricsInvariantAcrossThreadCounts)
{
    std::vector<obs::Snapshot> per_width;
    for (unsigned threads : {1u, 4u, 0u}) {
        obs::Registry::reset();
        runWorkload(threads);
        per_width.push_back(deterministicPart());
    }
    // The filtered snapshots must be *identical* — same keys, same
    // totals — whichever pool width did the work.
    EXPECT_EQ(per_width[0], per_width[1]);
    EXPECT_EQ(per_width[0], per_width[2]);
    // And they must actually have counted the work.
    EXPECT_GT(valueOf(per_width[0], "sim.gate_applies"), 0);
    EXPECT_GT(valueOf(per_width[0], "runtime.ensemble.trials"), 0);
    EXPECT_EQ(valueOf(per_width[0], "assertions.checks"), 1);
}

TEST(ObsContract, SameSeedRunsIdentical)
{
    obs::Registry::reset();
    runWorkload(0);
    const auto first = deterministicPart();
    obs::Registry::reset();
    runWorkload(0);
    const auto second = deterministicPart();
    EXPECT_EQ(first, second);
}

TEST(ObsTimer, CountsIntervalsAndAccumulatesNs)
{
    obs::Registry::reset();
    obs::Timer &timer = obs::Registry::timer("test.obs.t");
    {
        obs::Timer::Scope scope(timer);
    }
    {
        obs::Timer::Scope scope(timer);
    }
    auto snap = obs::Registry::snapshot();
    EXPECT_EQ(valueOf(snap, "test.obs.t.count"), 2);
    const std::int64_t ns_after_two = valueOf(snap, "test.obs.t.ns");
    EXPECT_GE(ns_after_two, 0);

    // Explicit record(): .ns grows monotonically, .count by one.
    timer.record(12345);
    snap = obs::Registry::snapshot();
    EXPECT_EQ(valueOf(snap, "test.obs.t.count"), 3);
    EXPECT_EQ(valueOf(snap, "test.obs.t.ns"), ns_after_two + 12345);
}

TEST(ObsGauge, SetAddGetAndReset)
{
    obs::Registry::reset();
    obs::Gauge &gauge = obs::Registry::gauge("test.obs.g");
    gauge.set(41);
    gauge.add(1);
    EXPECT_EQ(gauge.get(), 42);
    EXPECT_EQ(valueOf(obs::Registry::snapshot(), "test.obs.g"), 42);
    obs::Registry::reset();
    EXPECT_EQ(gauge.get(), 0);
}

TEST(ObsSwitch, DisabledMeansNoRecording)
{
    obs::Registry::reset();
    obs::Counter &counter = obs::Registry::counter("test.obs.off");
    EXPECT_TRUE(obs::enabled());
    obs::setEnabled(false);
    EXPECT_FALSE(obs::enabled());
    counter.add(100);
    obs::setEnabled(true);
    counter.add(1);
    EXPECT_EQ(valueOf(obs::Registry::snapshot(), "test.obs.off"), 1);
}

TEST(ObsJson, MetricsDocumentIsValidAndSorted)
{
    obs::Registry::reset();
    obs::Registry::counter("test.obs.json").add(5);
    const std::string doc = obs::metricsObject().dump();
    EXPECT_TRUE(JsonValidator::valid(doc)) << doc;
    const json::Value metrics = parseJson(doc);
    ASSERT_NE(metrics.find("test.obs.json"), nullptr) << doc;
    EXPECT_EQ(metrics.find("test.obs.json")->asUint64(), 5u);
    // One member per snapshot entry, in the snapshot's name order.
    const auto snap = obs::Registry::snapshot();
    ASSERT_EQ(metrics.size(), snap.size());
    for (std::size_t i = 0; i < snap.size(); ++i) {
        EXPECT_EQ(metrics.members()[i].first, snap[i].first);
        if (i > 0) {
            EXPECT_LT(snap[i - 1].first, snap[i].first);
        }
    }
}

TEST(ObsJson, NegativeGaugeRendersSigned)
{
    // Gauges move both ways (runtime.pool.queue_depth by +-1), and a
    // snapshot value is an int64_t: it renders as that signed value.
    obs::Registry::reset();
    obs::Registry::gauge("test.obs.negative").add(-3);
    const json::Value metrics = parseJson(obs::metricsObject().dump());
    ASSERT_NE(metrics.find("test.obs.negative"), nullptr);
    EXPECT_EQ(metrics.find("test.obs.negative")->dump(), "-3");
    EXPECT_EQ(metrics.find("test.obs.negative")->asDouble(), -3.0);
    obs::Registry::reset();
}

/** The trace buffer as writeTrace writes it. */
std::string
traceText()
{
    const std::string path = ::testing::TempDir() + "qsa_test_obs_trace.json";
    obs::writeTrace(path);
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
}

TEST(ObsTrace, ChromeEventDocumentIsValid)
{
    obs::Registry::reset(); // also drops buffered trace events
    EXPECT_FALSE(obs::tracing());
    obs::setTracing(true);
    {
        QSA_OBS_SPAN(span, "test.span");
        span.arg("family", "swap-test").arg("boundary", 7);
        obs::instant("test.instant");
    }
    obs::setTracing(false);

    const std::string text = traceText();
    EXPECT_TRUE(JsonValidator::valid(text)) << text;
    // Perfetto essentials: the event array, a complete ("X") event
    // with µs timestamps and duration, our args, and the scoped
    // instant event. The instant is recorded first: the span is
    // pushed when it closes.
    const json::Value doc = parseJson(text);
    EXPECT_EQ(doc.find("displayTimeUnit")->asString(), "ms");
    const json::Value &events = *doc.find("traceEvents");
    ASSERT_EQ(events.size(), 2u) << text;
    const json::Value &instant = events.at(0);
    EXPECT_EQ(instant.find("name")->asString(), "test.instant");
    EXPECT_EQ(instant.find("ph")->asString(), "i");
    EXPECT_EQ(instant.find("s")->asString(), "p");
    const json::Value &span = events.at(1);
    EXPECT_EQ(span.find("name")->asString(), "test.span");
    EXPECT_EQ(span.find("cat")->asString(), "qsa");
    EXPECT_EQ(span.find("ph")->asString(), "X");
    EXPECT_EQ(span.find("pid")->asUint64(), 1u);
    EXPECT_EQ(span.find("tid")->asUint64(),
              instant.find("tid")->asUint64());
    EXPECT_GE(span.find("dur")->asDouble(), 0.0);
    EXPECT_LE(span.find("ts")->asDouble(), instant.find("ts")->asDouble());
    EXPECT_EQ(span.find("args")->find("family")->asString(), "swap-test");
    EXPECT_EQ(span.find("args")->find("boundary")->asString(), "7");
    // One event per line, between the envelope's first and last line.
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4) << text;

    obs::clearTrace();
    const std::string empty = traceText();
    EXPECT_TRUE(JsonValidator::valid(empty)) << empty;
    EXPECT_EQ(parseJson(empty).find("traceEvents")->size(), 0u);
}

TEST(ObsTrace, OverlapDerivationsOpenAnOracleSpan)
{
    // A swap-test search derives each probed boundary's purity with
    // its own OverlapOracle pass. Each pass sits under a locate.oracle
    // span (mode "overlap", with the boundaries it records), as the
    // exact and sampled passes do, not in the probe's self time.
    circuit::Circuit reference;
    circuit::Circuit suspect;
    for (circuit::Circuit *circ : {&reference, &suspect}) {
        const auto a = circ->addRegister("a", 1);
        const auto b = circ->addRegister("b", 1);
        circ->h(a[0]);
        circ->cnot(a[0], b[0]);
        circ->ry(b[0], circ == &suspect ? 1.3 : 0.3);
        circ->h(b[0]);
        circ->rz(b[0], 0.7);
    }
    locate::LocateConfig cfg;
    cfg.family = locate::ProbeFamily::SwapTest;
    cfg.numThreads = 1;

    obs::Registry::reset();
    obs::setTracing(true);
    locate::BugLocator(suspect, reference, cfg).locate(suspect.reg("b"));
    obs::setTracing(false);

    const json::Value doc = parseJson(traceText());
    const json::Value &events = *doc.find("traceEvents");
    std::size_t overlap = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const json::Value &event = events.at(i);
        if (event.find("name")->asString() != "locate.oracle")
            continue;
        const json::Value *args = event.find("args");
        ASSERT_NE(args, nullptr);
        if (args->find("mode")->asString() != "overlap")
            continue;
        ++overlap;
        ASSERT_NE(args->find("boundaries"), nullptr);
        EXPECT_EQ(args->find("boundaries")->asString(), "1");
    }
    EXPECT_GT(overlap, 0u) << "no overlap derivation opened a span";
    obs::clearTrace();
}

TEST(ObsTrace, SpansAreFreeWhenTracingOff)
{
    obs::Registry::reset();
    ASSERT_FALSE(obs::tracing());
    {
        QSA_OBS_SPAN(span, "test.ghost");
        span.arg("key", "value");
    }
    EXPECT_EQ(parseJson(traceText()).find("traceEvents")->size(), 0u);
}

#else // !QSA_OBS_ENABLED

// --- Compiled-out stub tests -----------------------------------------------

TEST(ObsStub, EverythingCompilesToNothing)
{
    obs::Counter &counter = obs::Registry::counter("test.stub.c");
    counter.add(3);
    obs::Counter::addTwo(counter, 1, counter, 2);
    obs::Gauge &gauge = obs::Registry::gauge("test.stub.g");
    gauge.set(7);
    gauge.add(1);
    EXPECT_EQ(gauge.get(), 0);
    obs::Timer &timer = obs::Registry::timer("test.stub.t");
    timer.record(99);
    {
        obs::Timer::Scope scope(timer);
        QSA_OBS_COUNTER("test.stub.macro", 1);
        QSA_OBS_GAUGE_ADD("test.stub.macro_g", 1);
        QSA_OBS_TIMER(t, "test.stub.macro_t");
        QSA_OBS_SPAN(span, "test.stub.span");
        span.arg("key", 1);
    }
    EXPECT_TRUE(obs::Registry::snapshot().empty());
    EXPECT_FALSE(obs::enabled());
    obs::setEnabled(true);
    EXPECT_FALSE(obs::enabled());
    EXPECT_FALSE(obs::tracing());
    obs::setTracing(true);
    EXPECT_FALSE(obs::tracing());
}

TEST(ObsStub, DocumentsAreEmpty)
{
    EXPECT_EQ(obs::metricsObject().dump(), "{}");
    const std::string path =
        ::testing::TempDir() + "qsa_test_obs_stub_trace.json";
    std::remove(path.c_str());
    obs::writeTrace(path);
    EXPECT_FALSE(std::ifstream(path).good());
    obs::clearTrace();
}

#endif // QSA_OBS_ENABLED

TEST(ObsSnapshotHelper, ValueOfAbsentKeyIsMinusOne)
{
    EXPECT_EQ(valueOf({}, "nope"), -1);
}

} // anonymous namespace
