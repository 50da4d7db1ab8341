/**
 * @file
 * qsa_perfbench — runs one benchmark workload through the public qsa
 * API and writes its raw samples as one JSON document; perfbench/run.py
 * turns them into the benchmark's metrics.
 *
 * Usage:
 *   qsa_perfbench --workload <paper-session|serve-closed-loop>
 *                 --seed N --seconds S --trace 0|1
 *                 --run-dir DIR --out FILE [--serve-bin PATH]
 *
 * With --trace 0 it times the workload with tracing off. With
 * --trace 1 it also runs one pass with QSA_TRACE spans on, wrapping
 * each call into a module's public function in a span of its own
 * ("<module>/<function>", with the operation's id as its "op"
 * argument), records the obs counter deltas of that pass, replays
 * the layers no span covers from outside (fuseGates,
 * withBoundaryBreakpoints, PredicateOracle, equivalentPrefixBoundary,
 * runCircuitOn, the chi-square tests, fromQasm), and times each
 * in-process operation on one thread to compare against the pool.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "fixtures.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/store.hh"
#include "serve_load.hh"

namespace
{

using namespace qsa;
using namespace perfbench;
using Clock = std::chrono::steady_clock;
using json::Value;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t state = seed ^ (salt * 0x9e3779b97f4a7c15ull);
    return splitMix64(state);
}

std::int64_t
counterValue(const obs::Snapshot &snap, const std::string &name)
{
    for (const auto &[key, value] : snap)
        if (key == name)
            return value;
    return 0;
}

/** Resident-set high-water mark of this process, MiB. */
double
selfPeakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss / 1024.0;
}

/** Every metric's change between two registry snapshots. */
Value
counterDelta(const obs::Snapshot &before, const obs::Snapshot &after)
{
    Value out = Value::object();
    for (const auto &[name, value] : after) {
        const std::int64_t d = value - counterValue(before, name);
        out.set(name, Value::number(static_cast<double>(d)));
    }
    return out;
}

Value
numbers(const std::vector<double> &v)
{
    Value out = Value::array();
    for (double x : v)
        out.push(Value::number(x));
    return out;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string runDir;
    std::string out;
    std::string serveBin;
};

/** What one operation produced, checked against what it should. */
struct OpOutcome
{
    bool ok = true;
    std::string failure;
    bool isLocate = false;
    std::size_t probes = 0;
    std::size_t shots = 0;

    /** Verdicts and statistics; equal across thread counts. */
    std::string signature;

    /** Plan outcomes, for the statistics replay. */
    std::vector<assertions::AssertionOutcome> outcomes;
};

/** One in-process operation of a workload pass. */
struct OpDef
{
    std::string kind; // "plan" or "locate"
    std::string config;
    std::function<OpOutcome(unsigned threads, std::uint64_t op_id)> run;

    /** Programs the outside replays run on. */
    std::vector<const circuit::Circuit *> programs;

    /** Locate ops: the pair and its configuration. */
    const Pair *pair = nullptr;
    LocateSetup setup;
};

OpDef
makeOp(const char *kind, const std::string &config,
       std::vector<const circuit::Circuit *> programs)
{
    OpDef op;
    op.kind = kind;
    op.config = config;
    op.programs = std::move(programs);
    return op;
}

/** One timed execution of an operation. */
struct Sample
{
    std::string kind;
    std::string config;
    double ms = 0.0;
    bool ok = true;
    std::string failure;
    bool isLocate = false;
    std::size_t probes = 0;
    std::size_t shots = 0;
    int pass = 0;

    /** Executions the latency `ms` is the median of. */
    std::size_t reps = 1;

    /** Serve: the request's execution time inside the server, or -1. */
    double execMs = -1.0;
};

/** Raw results of one run, written as JSON at the end. */
struct Raw
{
    std::vector<double> setupS;
    std::vector<Sample> samples;
    double windowS = 0.0;
    double rssSelfMb = 0.0;
    double rssDaemonMb = 0.0;
    std::size_t attempted = 0;
    std::vector<std::string> failures;
    std::size_t countedLocates = 0;
    std::size_t countedProbes = 0;
    std::size_t countedShots = 0;
    Value trace;

    void
    fail(const std::string &why)
    {
        ++attempted;
        failures.push_back(why);
    }
};

// --- Operation outcomes --------------------------------------------------

std::string
outcomeSignature(const std::vector<assertions::AssertionOutcome> &out)
{
    std::string sig;
    for (const auto &o : out)
        sig += Value::number(o.pValue).dump() + ":" +
               Value::number(o.statistic).dump() +
               (o.passed ? "P;" : "F;");
    return sig;
}

OpOutcome
planOutcome(const std::vector<assertions::AssertionOutcome> &outcomes,
            bool expect_pass)
{
    OpOutcome r;
    r.outcomes = outcomes;
    r.signature = outcomeSignature(outcomes);
    for (const auto &o : outcomes) {
        if (o.passed != expect_pass) {
            r.ok = false;
            r.failure = "assertion " + o.spec.name + " " +
                        (o.passed ? "passed" : "failed") + " (p = " +
                        Value::number(o.pValue).dump() + ")";
            break;
        }
    }
    return r;
}

OpOutcome
locateOutcome(const locate::LocalizationReport &report, const Pair &pair)
{
    OpOutcome r;
    r.isLocate = true;
    r.probes = report.probes.size();
    r.shots = report.totalMeasurements;
    r.signature = std::to_string(report.lastPassing) + "-" +
                  std::to_string(report.firstFailing);
    for (const auto &p : report.probes)
        r.signature += ";" + std::to_string(p.boundary) + ":" +
                       Value::number(p.pValue).dump();
    if (!report.bugFound) {
        r.ok = false;
        r.failure = pair.fixture + ": no bug bracketed";
    } else if (!bracketHoldsDefect(pair, report.lastPassing,
                                   report.firstFailing)) {
        r.ok = false;
        r.failure = pair.fixture + ": bracket [" +
                    std::to_string(report.lastPassing) + ", " +
                    std::to_string(report.firstFailing) +
                    ") misses the injected defect";
    }
    return r;
}

/** Statistically meaningful assertions get an alpha no seed trips. */
constexpr double kStatAlpha = 1e-6;

/** Set-ups per run; the reported set-up time is their median. */
constexpr int kSetups = 5;

/**
 * A timed pass repeats each operation until it has run this long (or
 * kMaxReps times), so sub-millisecond plans get enough samples for a
 * steady median while the multi-second localizations run once.
 */
constexpr double kMinOpSeconds = 0.05;
constexpr int kMaxReps = 100;

// --- Workloads: in-process operation lists --------------------------------

struct PaperSession
{
    PaperPrograms p;
    std::vector<OpDef> ops;
};

std::unique_ptr<PaperSession>
buildPaperSession(std::uint64_t seed)
{
    auto ws = std::make_unique<PaperSession>();
    ws->p = buildPaperPrograms();
    const PaperPrograms &p = ws->p;

    OpDef fig2 = makeOp("plan", "fig2-roadmap", {&p.shorGood.circuit});
    fig2.run = [&p, seed](unsigned threads, std::uint64_t op) {
        const auto &g = p.shorGood;
        session::Session s(g.circuit);
        s.ensembleSize(128).seed(mixSeed(seed, 1)).threads(threads);
        s.at("init").expectClassical(g.upper, 0);
        s.at("init").expectClassical(g.lower, 1);
        s.at("init").expectClassical(g.helper, 0);
        s.at("superposed").expectSuperposition(g.upper).alpha(kStatAlpha);
        s.at("superposed").expectClassical(g.lower, 1);
        s.at("entangled").expectEntangled(g.upper, g.lower)
            .alpha(kStatAlpha);
        s.at("entangled").expectProduct(g.upper, g.helper)
            .alpha(kStatAlpha);
        s.at("final").expectClassical(g.helper, 0);
        s.at("final").expectClassical(g.flag, 0);
        QSA_OBS_SPAN(span, "session/Session::run");
        span.arg("op", op);
        return planOutcome(s.run(), true);
    };

    OpDef grover = makeOp("plan", "grover-gf2", {&p.grover.circuit});
    grover.run = [&p, seed](unsigned threads, std::uint64_t op) {
        const auto &g = p.grover;
        session::Session s(g.circuit);
        s.ensembleSize(256).seed(mixSeed(seed, 2)).threads(threads);
        s.at("init").expectClassical(g.q, 0);
        s.at("superposed").expectSuperposition(g.q).alpha(kStatAlpha);
        s.at("oracle_computed").expectEntangled(g.q, g.work)
            .alpha(kStatAlpha);
        auto uncomputed = s.at("oracle_uncomputed");
        uncomputed.expectProduct(g.q, g.work).alpha(kStatAlpha);
        uncomputed.expectClassical(g.work, 0);
        QSA_OBS_SPAN(span, "session/Session::run");
        span.arg("op", op);
        return planOutcome(s.run(), true);
    };

    OpDef h2 = makeOp("plan", "h2-trotter", {&p.h2});
    h2.run = [&p, seed](unsigned threads, std::uint64_t op) {
        session::Session s(p.h2);
        s.ensembleSize(512).seed(mixSeed(seed, 3)).threads(threads);
        s.after(p.h2Prepared).expectClassical(p.h2Sys, 0b0011);
        s.after(p.h2.size())
            .expectDistribution(p.h2Sys, p.h2Final)
            .alpha(kStatAlpha);
        QSA_OBS_SPAN(span, "session/Session::run");
        span.arg("op", op);
        return planOutcome(s.run(), true);
    };

    // The wrong inverse leaves the helper register dirty: this
    // helper-cleared assertion must fail.
    OpDef semi_plan =
        makeOp("plan", "semiclassical-helper", {&p.semiBad.circuit});
    semi_plan.run = [&p, seed](unsigned threads, std::uint64_t op) {
        session::Session s(p.semiBad.circuit);
        s.mode(assertions::EnsembleMode::Resimulate)
            .ensembleSize(64)
            .seed(mixSeed(seed, 4))
            .threads(threads);
        s.at("final").expectClassical(p.semiBad.helper, 0);
        QSA_OBS_SPAN(span, "session/Session::run");
        span.arg("op", op);
        return planOutcome(s.run(), false);
    };

    OpDef shor = makeOp("locate", "shor-wrong-inverse",
                        {&p.shor.suspect, &p.shor.reference});
    shor.pair = &p.shor;
    shor.run = [&p, seed](unsigned threads, std::uint64_t op) {
        session::Session s(p.shor.suspect);
        s.seed(mixSeed(seed, 5)).threads(threads);
        s.use(assertions::EscalationPolicy{64, 1024, 0.30});
        QSA_OBS_SPAN(span, "locate/Session::locate");
        span.arg("op", op);
        return locateOutcome(s.locate(p.shor.reference), p.shor);
    };

    OpDef semi = makeOp(
        "locate", "semiclassical-wrong-inverse",
        {&p.semiclassical.suspect, &p.semiclassical.reference});
    semi.pair = &p.semiclassical;
    semi.setup.mode = assertions::EnsembleMode::Resimulate;
    semi.run = [&p, seed](unsigned threads, std::uint64_t op) {
        session::Session s(p.semiclassical.suspect);
        s.mode(assertions::EnsembleMode::Resimulate)
            .ensembleSize(64)
            .seed(mixSeed(seed, 6))
            .threads(threads);
        s.use(assertions::EscalationPolicy{32, 256, 0.30});
        QSA_OBS_SPAN(span, "locate/Session::locate");
        span.arg("op", op);
        return locateOutcome(s.locate(p.semiclassical.reference),
                             p.semiclassical);
    };

    ws->ops = {fig2, grover, h2, semi_plan, shor, semi};
    return ws;
}

// --- Outside replays of layers no span covers ------------------------------

/** Accumulated outside-timed layer costs of one traced pass. */
struct Replay
{
    double fuseS = 0, instrumentS = 0, oracleS = 0, equivS = 0;
    double adjudicateS = 0, qasmS = 0, runS = 0;
    std::int64_t runTouches = 0;

    Value
    json() const
    {
        Value out = Value::object();
        out.set("fuse_s", Value::number(fuseS));
        out.set("instrument_s", Value::number(instrumentS));
        out.set("oracle_s", Value::number(oracleS));
        out.set("equiv_s", Value::number(equivS));
        out.set("adjudicate_s", Value::number(adjudicateS));
        out.set("qasm_s", Value::number(qasmS));
        out.set("run_circuit_s", Value::number(runS));
        out.set("run_circuit_amp_touches",
                Value::integer(static_cast<std::uint64_t>(runTouches)));
        return out;
    }
};

template <typename F>
double
timed(F &&f)
{
    const auto start = Clock::now();
    f();
    return secondsSince(start);
}

void
replayProgram(const circuit::Circuit &prog, Replay &r)
{
    r.fuseS += timed([&] { circuit::fuseGates(prog); });
    r.instrumentS += timed([&] { prog.withBoundaryBreakpoints(); });
    const auto before = counterValue(obs::Registry::snapshot(),
                                     "sim.amp_touches");
    r.runS += timed([&] {
        sim::StateVector state(prog.numQubits());
        std::map<std::string, std::uint64_t> meas;
        Rng rng(7);
        circuit::runCircuitOn(prog, state, meas, rng);
    });
    r.runTouches += counterValue(obs::Registry::snapshot(),
                                 "sim.amp_touches") -
                    before;
}

void
replayLocate(const Pair &pair, const LocateSetup &s, Replay &r)
{
    std::vector<unsigned> all(pair.reference.numQubits());
    for (unsigned q = 0; q < all.size(); ++q)
        all[q] = q;
    const circuit::QubitRegister reg =
        s.reg.empty() ? circuit::QubitRegister("all", all)
                      : pair.reference.reg(s.reg);
    locate::OracleOptions options;
    options.mode = s.oracle;
    r.oracleS += timed([&] {
        try {
            locate::PredicateOracle oracle(
                pair.reference, reg, 0x51c0ffee,
                std::vector<std::size_t>{pair.reference.size()}, options);
        } catch (const DeriveError &) {
            // Exact derivation past the branch cap: the locator falls
            // back the same way, so the attempt is part of the cost.
        }
    });
    r.equivS += timed([&] {
        analyze::equivalentPrefixBoundary(pair.suspect, pair.reference);
    });
}

/** Re-run the statistical test behind each plan outcome. */
void
replayAdjudication(const std::vector<assertions::AssertionOutcome> &outs,
                   Replay &r)
{
    using assertions::AssertionKind;
    r.adjudicateS += timed([&] {
        for (const auto &o : outs) {
            const auto &spec = o.spec;
            if (spec.kind == AssertionKind::Entangled ||
                spec.kind == AssertionKind::Product) {
                std::set<std::uint64_t> rows, cols;
                for (const auto &[key, n] : o.jointCounts) {
                    rows.insert(key.first);
                    cols.insert(key.second);
                }
                const std::vector<std::uint64_t> rl(rows.begin(),
                                                    rows.end());
                const std::vector<std::uint64_t> cl(cols.begin(),
                                                    cols.end());
                std::vector<std::vector<double>> cells(
                    rl.size(), std::vector<double>(cl.size(), 0.0));
                for (const auto &[key, n] : o.jointCounts) {
                    const auto ri =
                        std::lower_bound(rl.begin(), rl.end(), key.first) -
                        rl.begin();
                    const auto ci =
                        std::lower_bound(cl.begin(), cl.end(),
                                         key.second) -
                        cl.begin();
                    cells[ri][ci] = static_cast<double>(n);
                }
                stats::independenceTest(
                    stats::ContingencyTable::fromCounts(rl, cl, cells));
                continue;
            }
            const std::size_t bins = std::size_t{1}
                                     << spec.regA.width();
            std::vector<double> observed(bins, 0.0);
            for (const auto &[value, n] : o.countsA)
                observed[value] = static_cast<double>(n);
            const double total = static_cast<double>(o.ensembleSize);
            std::vector<double> expected;
            if (spec.kind == AssertionKind::Classical) {
                expected =
                    stats::pointMassExpected(bins, spec.expectedValue, total);
            } else if (spec.kind == AssertionKind::Superposition) {
                expected = stats::uniformExpected(bins, total);
            } else {
                for (double q : spec.expectedProbs)
                    expected.push_back(q * total);
            }
            stats::chiSquareGof(observed, expected);
        }
    });
}

// --- In-process workload runs ----------------------------------------------

struct InProcessRun
{
    std::unique_ptr<PaperSession> ws;

    /** Set up kSetups times: construction plus one warm-up op. */
    void
    setUp(std::uint64_t seed, Raw &raw)
    {
        for (int i = 0; i < kSetups; ++i) {
            const auto start = Clock::now();
            ws = buildPaperSession(seed);
            ws->ops.front().run(0, 0);
            raw.setupS.push_back(secondsSince(start));
        }
    }

    /**
     * One pass over the operations; returns per-op outcomes. A timed
     * pass (`raw` set) repeats short operations (kMinOpSeconds) and
     * records one sample per operation: the median repetition.
     * `op_seconds` gets each operation's first run.
     */
    std::vector<OpOutcome>
    pass(int index, unsigned threads, Raw *raw,
         std::vector<double> *op_seconds = nullptr)
    {
        std::vector<OpOutcome> outs;
        for (std::size_t i = 0; i < ws->ops.size(); ++i) {
            const OpDef &op = ws->ops[i];
            OpOutcome out;
            std::vector<double> reps;
            double spent = 0.0;
            do {
                const auto start = Clock::now();
                out = op.run(threads, index * 1000 + i);
                reps.push_back(secondsSince(start));
                spent += reps.back();
                if (raw && !out.ok)
                    break;
            } while (raw && spent < kMinOpSeconds &&
                     static_cast<int>(reps.size()) < kMaxReps);
            if (op_seconds)
                op_seconds->push_back(reps.front());
            if (raw)
                record(op, out, reps, index, *raw);
            outs.push_back(std::move(out));
        }
        return outs;
    }

    static void
    record(const OpDef &op, const OpOutcome &out,
           const std::vector<double> &reps, int index, Raw &raw)
    {
        Sample sample;
        sample.kind = op.kind;
        sample.config = op.config;
        sample.ms = median(reps) * 1e3;
        sample.reps = reps.size();
        sample.ok = out.ok;
        sample.failure = out.failure;
        sample.isLocate = out.isLocate;
        sample.probes = out.probes;
        sample.shots = out.shots;
        sample.pass = index;
        raw.samples.push_back(sample);
        if (index == 0 && out.isLocate) {
            ++raw.countedLocates;
            raw.countedProbes += out.probes;
            raw.countedShots += out.shots;
        }
    }

    /** Passes until `seconds` have elapsed (at least one). */
    void
    measure(double seconds, Raw &raw,
            std::vector<std::vector<double>> *op_seconds = nullptr)
    {
        const auto start = Clock::now();
        int index = 0;
        do {
            std::vector<double> per_op;
            pass(index++, 0, &raw, &per_op);
            if (op_seconds)
                op_seconds->push_back(per_op);
        } while (secondsSince(start) < seconds);
        raw.windowS = secondsSince(start);
    }

    /**
     * The traced part: one pass with spans and counters on, one pass
     * on a single thread (outputs must match bit for bit), and the
     * outside replays.
     */
    void
    traced(double seconds, const std::string &run_dir, Raw &raw)
    {
        std::vector<std::vector<double>> untraced_ops;
        measure(seconds, raw, &untraced_ops);

        const obs::Snapshot before = obs::Registry::snapshot();
        obs::clearTrace();
        obs::setTracing(true);
        const auto t0 = Clock::now();
        const std::vector<OpOutcome> traced_outs = pass(0, 0, nullptr);
        const double traced_s = secondsSince(t0);
        obs::setTracing(false);
        const obs::Snapshot after = obs::Registry::snapshot();
        obs::writeTrace(run_dir + "/trace.json");

        std::vector<double> t1_ops;
        const std::vector<OpOutcome> serial_outs =
            pass(0, 1, nullptr, &t1_ops);
        for (std::size_t i = 0; i < serial_outs.size(); ++i) {
            ++raw.attempted;
            if (serial_outs[i].signature != traced_outs[i].signature)
                raw.failures.push_back(
                    ws->ops[i].config +
                    ": one-thread outputs differ from the pool's");
        }

        Replay replay;
        for (std::size_t i = 0; i < ws->ops.size(); ++i) {
            const OpDef &op = ws->ops[i];
            for (const circuit::Circuit *prog : op.programs)
                replayProgram(*prog, replay);
            if (op.pair)
                replayLocate(*op.pair, op.setup, replay);
            replayAdjudication(traced_outs[i].outcomes, replay);
        }

        Value t = Value::object();
        t.set("counters", counterDelta(before, after));
        t.set("traced_pass_s", Value::number(traced_s));
        // Untraced passes repeat short operations; the traced pass runs
        // each once, so compare it with the untraced first runs.
        std::vector<double> untraced_once;
        for (const auto &pass_ops : untraced_ops) {
            untraced_once.push_back(0.0);
            for (double op_s : pass_ops)
                untraced_once.back() += op_s;
        }
        t.set("untraced_pass_s", numbers(untraced_once));
        Value ops = Value::array();
        for (std::size_t i = 0; i < ws->ops.size(); ++i) {
            std::vector<double> tp;
            for (const auto &pass_ops : untraced_ops)
                tp.push_back(pass_ops[i]);
            Value op = Value::object();
            op.set("config", Value::string(ws->ops[i].config));
            op.set("t1_s", Value::number(t1_ops[i]));
            op.set("tp_s", Value::number(median(tp)));
            ops.push(std::move(op));
        }
        t.set("ops", std::move(ops));
        t.set("pool_threads",
              Value::integer(runtime::ThreadPool::shared().concurrency()));
        t.set("replay", replay.json());
        raw.trace = std::move(t);
    }
};

void
runPaperSession(const Args &args, Raw &raw)
{
    InProcessRun run;
    run.setUp(args.seed, raw);
    if (args.trace)
        run.traced(args.seconds, args.runDir, raw);
    else
        run.measure(args.seconds, raw);
    raw.rssSelfMb = selfPeakRssMb();
    for (const Sample &s : raw.samples) {
        ++raw.attempted;
        if (!s.ok)
            raw.failures.push_back(s.config + ": " + s.failure);
    }
}

// --- Serve workload ------------------------------------------------------

constexpr unsigned kClients = 4;
constexpr unsigned kWorkers = 4;

/**
 * Daemon set-ups per run. One is a process start, a ping and a
 * few-millisecond request, so a stall of the host shows in it more
 * than in the in-process set-up: take the median of more.
 */
constexpr int kServeSetups = 15;

/** Requests whose localization counts must repeat exactly per seed. */
constexpr std::size_t kCountedRequests = 300;

/** The warm-up request: a pair outside the generated mix. */
std::string
warmUpLine()
{
    Variant v = canonicalVariant(0);
    v.b = 3;
    const Pair pair = buildPair(v);
    const std::string reference = circuit::toQasm(pair.reference);
    return renderRequest(locateBody(setupsFor(0)[0], 1),
                         circuit::toQasm(pair.suspect), &reference);
}

/** The "result" member of a response line, re-rendered. */
bool
resultOf(const std::string &response, std::string *result, Value *doc,
         std::string *error)
{
    if (!Value::parse(response, doc, error))
        return false;
    const Value *ok = doc->find("ok");
    if (ok == nullptr || !ok->isBool() || !ok->asBool()) {
        *error = "not ok: " + response.substr(0, 300);
        return false;
    }
    const Value *res = doc->find("result");
    if (res == nullptr) {
        *error = "no result member";
        return false;
    }
    *result = res->dump();
    return true;
}

/**
 * Check every reply: ok, "result" bytes equal to the in-process
 * handler's for the same request line, and every localization
 * bracketing its pair's defect. Records samples and the exact counts
 * over the first kCountedRequests requests.
 */
void
verifyReplies(const ServeMix &mix, const std::vector<Reply> &replies,
              Raw &raw)
{
    // One in-process run per distinct request line.
    std::map<std::string, std::string> expected;
    std::vector<std::pair<const ServeRequest *, std::string *>> todo;
    for (const Reply &r : replies) {
        const ServeRequest &req = mix.requests[r.index];
        const auto [it, fresh] = expected.emplace(mix.key(req), "");
        if (fresh)
            todo.emplace_back(&req, &it->second);
    }
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kClients; ++t) {
        threads.emplace_back([&] {
            for (std::size_t i; (i = next.fetch_add(1)) < todo.size();) {
                std::string result, error;
                Value doc;
                const std::string response =
                    serve::handleRequestLine(mix.line(*todo[i].first));
                *todo[i].second =
                    resultOf(response, &result, &doc, &error)
                        ? result
                        : "in-process error: " + error;
            }
        });
    }
    for (auto &t : threads)
        t.join();

    for (const Reply &r : replies) {
        const ServeRequest &req = mix.requests[r.index];
        Sample s;
        s.kind = req.command;
        s.config = req.config.empty() ? req.command : req.config;
        s.ms = r.latencyMs;
        s.isLocate = req.command == "locate";
        std::string result, error;
        Value doc;
        if (!r.ioError.empty()) {
            s.ok = false;
            s.failure = "connection: " + r.ioError;
        } else if (!resultOf(r.response, &result, &doc, &error)) {
            s.ok = false;
            s.failure = error;
        } else if (result != expected[mix.key(req)]) {
            s.ok = false;
            s.failure = "result differs from the in-process handler";
        } else {
            const Value *o = doc.find("obs");
            if (const Value *d = o ? o->find("duration_ns") : nullptr)
                s.execMs = d->asDouble() / 1e6;
            if (s.isLocate) {
                const Value &res = *doc.find("result");
                s.probes = res.find("probes")->size();
                s.shots = res.find("total_measurements")->asUint64();
                const Pair &pair = mix.pairs[req.pair];
                const auto lp = res.find("last_passing")->asUint64();
                const auto ff = res.find("first_failing")->asUint64();
                if (!res.find("bug_found")->asBool()) {
                    s.ok = false;
                    s.failure = req.config + ": no bug bracketed";
                } else if (!bracketHoldsDefect(pair, lp, ff)) {
                    s.ok = false;
                    s.failure = req.config + ": bracket [" +
                                std::to_string(lp) + ", " +
                                std::to_string(ff) +
                                ") misses the injected defect";
                }
            }
        }
        if (s.isLocate && r.index < kCountedRequests) {
            ++raw.countedLocates;
            raw.countedProbes += s.probes;
            raw.countedShots += s.shots;
        }
        ++raw.attempted;
        if (!s.ok)
            raw.failures.push_back(s.config + ": " + s.failure);
        raw.samples.push_back(std::move(s));
    }
}

/** Remove a run's socket and store; fail the run if either survives. */
void
cleanUp(const std::string &socket, const std::string &store, Raw &raw)
{
    std::error_code ec;
    std::filesystem::remove(socket, ec);
    std::filesystem::remove_all(store, ec);
    ++raw.attempted;
    if (std::filesystem::exists(socket) || std::filesystem::exists(store))
        raw.failures.push_back("socket or store survived the run");
}

/** The serve replays: QASM parsing plus the locate-layer replays. */
Value
serveReplay(const ServeMix &mix, const std::vector<Reply> &replies)
{
    Replay replay;
    std::set<std::string> lines;
    std::set<std::pair<int, std::string>> locates;
    for (const Reply &r : replies) {
        const ServeRequest &req = mix.requests[r.index];
        if (!lines.insert(mix.key(req)).second)
            continue;
        const auto &[suspect, reference] = mix.qasm[req.pair];
        replay.qasmS += timed([&] {
            circuit::fromQasm(req.sendsSuspect ? suspect : reference);
            if (req.command == "locate")
                circuit::fromQasm(reference);
        });
        if (req.command == "locate")
            locates.emplace(req.pair, req.config);
    }
    for (const auto &[pair_index, config] : locates) {
        const Pair &pair = mix.pairs[pair_index];
        const std::string setup_name =
            config.substr(config.find('/') + 1);
        for (int f = 0; f < kNumFixtures; ++f)
            for (const LocateSetup &s : setupsFor(f))
                if (pair.fixture == fixtureName(f) && s.name == setup_name)
                    replayLocate(pair, s, replay);
        replayProgram(pair.suspect, replay);
        replayProgram(pair.reference, replay);
    }
    return replay.json();
}

/** In-process server plus store for the traced run. */
struct HostedServer
{
    std::unique_ptr<serve::OracleStore> store;
    std::unique_ptr<serve::Server> server;

    bool
    start(const std::string &socket, const std::string &store_dir,
          std::string *error)
    {
        store = std::make_unique<serve::OracleStore>(store_dir);
        store->install();
        serve::ServerConfig config;
        config.socketPath = socket;
        config.workers = kWorkers;
        server = std::make_unique<serve::Server>(config);
        return server->start(error) && ping(socket, error);
    }

    void
    stop()
    {
        server.reset();
        store.reset();
    }
};

void
runServe(const Args &args, Raw &raw)
{
    const std::string socket = args.runDir + "/s.sock";
    const std::string store = args.runDir + "/store";
    const std::size_t count = std::max<std::size_t>(
        2 * kCountedRequests,
        static_cast<std::size_t>(400 * args.seconds));
    const std::string warm_up = warmUpLine();
    // The mix is the generator's input, not the server's set-up: its
    // size grows with the run length, so it stays out of setup_s.
    const ServeMix mix = generateServeMix(args.seed, count);

    Daemon daemon;
    HostedServer hosted;
    std::string error;
    for (int i = 0; i < kServeSetups; ++i) {
        if (i > 0) {
            if (args.trace) {
                hosted.stop();
            } else if (!daemon.stop(&error)) {
                raw.fail(error);
                return;
            }
            cleanUp(socket, store, raw);
        }
        const auto start = Clock::now();
        const bool up = args.trace
                            ? hosted.start(socket, store, &error)
                            : daemon.start(args.serveBin, socket, store,
                                           kWorkers, &error);
        std::string response;
        serve::Client client;
        if (!up || !client.connect(socket, &error) ||
            !client.request(warm_up, &response, &error)) {
            raw.fail("set-up: " + error);
            return;
        }
        raw.setupS.push_back(secondsSince(start));
    }

    std::vector<Reply> replies;
    if (!args.trace) {
        replies = closedLoop(socket, mix, mix.requests.size(), kClients,
                             args.seconds, kCountedRequests, &raw.windowS);
        raw.rssDaemonMb = daemon.peakRssMb();
        raw.rssSelfMb = selfPeakRssMb();
        if (!daemon.stop(&error))
            raw.fail(error);
        cleanUp(socket, store, raw);
        verifyReplies(mix, replies, raw);
        return;
    }

    // Traced: the same request block untraced, then traced, each on a
    // fresh store, with the server hosted here so the registry sees
    // the serve counters.
    double untraced_s = 0.0;
    closedLoop(socket, mix, kCountedRequests, kClients, 0.0,
               kCountedRequests, &untraced_s);
    hosted.stop();
    cleanUp(socket, store, raw);
    if (!hosted.start(socket, store, &error)) {
        raw.fail("restart: " + error);
        return;
    }
    const obs::Snapshot before = obs::Registry::snapshot();
    obs::clearTrace();
    obs::setTracing(true);
    double traced_s = 0.0;
    replies = closedLoop(socket, mix, kCountedRequests, kClients, 0.0,
                         kCountedRequests,
                         &traced_s);
    obs::setTracing(false);
    const obs::Snapshot after = obs::Registry::snapshot();
    obs::writeTrace(args.runDir + "/trace.json");
    hosted.stop();
    cleanUp(socket, store, raw);
    raw.windowS = traced_s;
    raw.rssSelfMb = selfPeakRssMb();

    verifyReplies(mix, replies, raw);

    Value t = Value::object();
    t.set("counters", counterDelta(before, after));
    t.set("traced_pass_s", Value::number(traced_s));
    t.set("untraced_pass_s", numbers({untraced_s}));
    t.set("ops", Value::array());
    t.set("pool_threads",
          Value::integer(runtime::ThreadPool::shared().concurrency()));
    t.set("replay", serveReplay(mix, replies));
    raw.trace = std::move(t);
}

// --- Output ----------------------------------------------------------------

void
writeRaw(const Args &args, const Raw &raw)
{
    Value doc = Value::object();
    doc.set("workload", Value::string(args.workload));
    doc.set("seed", Value::integer(args.seed));
    doc.set("clients",
            Value::integer(args.workload == "serve-closed-loop" ? kClients
                                                                : 1));
    doc.set("trace", Value::boolean(args.trace));
    doc.set("setup_s", numbers(raw.setupS));
    doc.set("window_s", Value::number(raw.windowS));
    doc.set("rss_self_mb", Value::number(raw.rssSelfMb));
    doc.set("rss_daemon_mb", Value::number(raw.rssDaemonMb));
    doc.set("attempted", Value::integer(raw.attempted));
    Value failures = Value::array();
    for (const auto &f : raw.failures)
        failures.push(Value::string(f));
    doc.set("failures", std::move(failures));
    Value counted = Value::object();
    counted.set("locates", Value::integer(raw.countedLocates));
    counted.set("probes", Value::integer(raw.countedProbes));
    counted.set("shots", Value::integer(raw.countedShots));
    doc.set("counted", std::move(counted));
    Value samples = Value::array();
    for (const Sample &s : raw.samples) {
        Value v = Value::object();
        v.set("kind", Value::string(s.kind));
        v.set("config", Value::string(s.config));
        v.set("ms", Value::number(s.ms));
        v.set("ok", Value::boolean(s.ok));
        v.set("locate", Value::boolean(s.isLocate));
        v.set("probes", Value::integer(s.probes));
        v.set("shots", Value::integer(s.shots));
        v.set("pass", Value::integer(static_cast<std::uint64_t>(s.pass)));
        v.set("exec_ms", Value::number(s.execMs));
        v.set("reps", Value::integer(s.reps));
        samples.push(std::move(v));
    }
    doc.set("samples", std::move(samples));
    if (args.trace)
        doc.set("traced", raw.trace);
    std::ofstream out(args.out);
    out << doc.dump() << "\n";
}

bool
parseArgs(int argc, char **argv, Args *args)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload")
            args->workload = value;
        else if (key == "--seed")
            args->seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (key == "--seconds")
            args->seconds = std::atof(value.c_str());
        else if (key == "--trace")
            args->trace = value == "1";
        else if (key == "--run-dir")
            args->runDir = value;
        else if (key == "--out")
            args->out = value;
        else if (key == "--serve-bin")
            args->serveBin = value;
        else
            return false;
    }
    return !args->workload.empty() && !args->runDir.empty() &&
           !args->out.empty();
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, &args)) {
        std::cerr << "usage: qsa_perfbench --workload W --seed N "
                     "--seconds S --trace 0|1 --run-dir DIR --out FILE "
                     "[--serve-bin PATH]\n";
        return 2;
    }
    Raw raw;
    if (args.workload == "paper-session") {
        runPaperSession(args, raw);
    } else if (args.workload == "serve-closed-loop") {
        runServe(args, raw);
    } else {
        std::cerr << "qsa_perfbench: unknown workload " << args.workload
                  << "\n";
        return 2;
    }
    writeRaw(args, raw);
    for (const auto &f : raw.failures)
        std::cerr << "qsa_perfbench: FAILED " << f << "\n";
    return 0;
}
