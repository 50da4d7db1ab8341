/**
 * @file
 * qsa::serve tests: wire protocol, determinism contract, persistent
 * oracle store, and the concurrent request server (ISSUE 8 tentpole).
 *
 * The load-bearing property is byte-level determinism: a response's
 * "result" member is a pure function of the request — independent of
 * thread count, concurrency interleaving, repeat runs, and store
 * temperature. Every test here ultimately compares dumped JSON text,
 * not parsed approximations.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/artifacts.hh"
#include "parse_json.hh"
#include "qsa/qsa.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/store.hh"

namespace
{

using namespace qsa;

std::int64_t
counterValue(const std::string &name)
{
    for (const auto &[key, value] : obs::Registry::snapshot())
        if (key == name)
            return value;
    return 0;
}

/** Entangled pair split over two named registers. */
constexpr const char *kBellQasm = "OPENQASM 2.0;\n"
                                  "qreg a[1];\n"
                                  "qreg b[1];\n"
                                  "h a[0];\n"
                                  "cx a[0],b[0];\n"
                                  "// qsa.breakpoint done\n";

/** Clean reference for locate... */
constexpr const char *kLocateRef = "OPENQASM 2.0;\n"
                                   "qreg q[2];\n"
                                   "h q[0];\n"
                                   "cx q[0],q[1];\n"
                                   "h q[1];\n"
                                   "cx q[1],q[0];\n";

/** ...and the suspect with one extra defective gate. */
constexpr const char *kLocateSus = "OPENQASM 2.0;\n"
                                   "qreg q[2];\n"
                                   "h q[0];\n"
                                   "cx q[0],q[1];\n"
                                   "t q[1];\n"
                                   "h q[1];\n"
                                   "cx q[1],q[0];\n";

json::Value
checkRequestDoc(std::uint64_t seed, unsigned threads)
{
    json::Value plan_item = json::Value::object();
    plan_item.set("at", json::Value::string("done"));
    plan_item.set("expect", json::Value::string("entangled"));
    plan_item.set("register", json::Value::string("a"));
    plan_item.set("register_b", json::Value::string("b"));

    json::Value plan = json::Value::array();
    plan.push(std::move(plan_item));

    json::Value doc = json::Value::object();
    doc.set("id", json::Value::integer(seed));
    doc.set("command", json::Value::string("check"));
    doc.set("circuit", json::Value::string(kBellQasm));
    doc.set("plan", std::move(plan));
    doc.set("seed", json::Value::integer(seed));
    doc.set("ensemble_size", json::Value::integer(192));
    doc.set("threads",
            json::Value::integer(static_cast<std::uint64_t>(threads)));
    return doc;
}

json::Value
locateRequestDoc(std::uint64_t seed, unsigned threads)
{
    json::Value doc = json::Value::object();
    doc.set("id", json::Value::string("loc"));
    doc.set("command", json::Value::string("locate"));
    doc.set("circuit", json::Value::string(kLocateSus));
    doc.set("reference", json::Value::string(kLocateRef));
    doc.set("seed", json::Value::integer(seed));
    doc.set("ensemble_size", json::Value::integer(128));
    doc.set("threads",
            json::Value::integer(static_cast<std::uint64_t>(threads)));
    return doc;
}

/**
 * A wide-measurement locate pair: qubit 0 is recycled through 13
 * measurement rounds (2^13 = 8192 outcome histories, past the exact
 * oracle's 4096 branch cap) while qubit 1 carries the defect — the
 * suspect preps it with X where the reference uses H. The programs
 * stay instruction-aligned (so the mirror prober's range spans the
 * whole circuit) and the defect persists in qubit 1's marginal all
 * the way to the final boundary.
 */
std::string
wideMeasureQasm(bool buggy)
{
    std::string qasm = "OPENQASM 2.0;\nqreg q[2];\n";
    for (int round = 0; round < 13; ++round)
        qasm += "creg m_r" + std::to_string(round) + "[1];\n";
    qasm += "h q[0];\nmeasure q[0] -> m_r0[0];\n";
    qasm += std::string(buggy ? "x" : "h") + " q[1];\n";
    for (int round = 1; round < 13; ++round) {
        qasm += "h q[0];\n";
        qasm += "measure q[0] -> m_r" + std::to_string(round) +
                "[0];\n";
    }
    return qasm;
}

json::Value
wideLocateRequestDoc(const std::string &oracle_mode,
                     const char *id = "wide")
{
    json::Value doc = json::Value::object();
    doc.set("id", json::Value::string(id));
    doc.set("command", json::Value::string("locate"));
    doc.set("circuit", json::Value::string(wideMeasureQasm(true)));
    doc.set("reference", json::Value::string(wideMeasureQasm(false)));
    doc.set("mode", json::Value::string("resimulate"));
    doc.set("ensemble_size", json::Value::integer(64));
    if (!oracle_mode.empty())
        doc.set("oracle_mode", json::Value::string(oracle_mode));
    doc.set("oracle_trials", json::Value::integer(2048));
    return doc;
}

/**
 * An n-qubit GHZ-ladder locate pair; the suspect carries one extra T
 * mid-ladder. Only its width matters to the validation tests below.
 */
std::string
ladderQasm(unsigned n, bool buggy)
{
    std::string qasm =
        "OPENQASM 2.0;\nqreg q[" + std::to_string(n) + "];\nh q[0];\n";
    for (unsigned i = 1; i < n; ++i) {
        qasm += "cx q[" + std::to_string(i - 1) + "],q[" +
                std::to_string(i) + "];\n";
        if (buggy && i == n / 2)
            qasm += "t q[" + std::to_string(i) + "];\n";
    }
    return qasm;
}

json::Value
ladderLocateDoc(unsigned n, const char *family, const char *mode)
{
    json::Value doc = json::Value::object();
    doc.set("id", json::Value::string("ladder"));
    doc.set("command", json::Value::string("locate"));
    doc.set("circuit", json::Value::string(ladderQasm(n, true)));
    doc.set("reference", json::Value::string(ladderQasm(n, false)));
    doc.set("family", json::Value::string(family));
    doc.set("mode", json::Value::string(mode));
    doc.set("ensemble_size", json::Value::integer(64));
    return doc;
}

/** Execute a request document in-process; returns the "result" dump. */
std::string
resultDump(const json::Value &doc)
{
    return serve::executeRequest(serve::parseRequest(doc)).dump();
}

/** A response line minus its (timing-bearing) "obs" member. */
std::string
stripObs(const std::string &response_line)
{
    const json::Value doc = parseJson(response_line);
    json::Value out = json::Value::object();
    for (const auto &[key, value] : doc.members())
        if (key != "obs")
            out.set(key, value);
    return out.dump();
}

// --- protocol unit tests ---------------------------------------------------

TEST(ServeProtocol, PingRoundTrips)
{
    const std::string response =
        serve::handleRequestLine(R"({"id": 7, "command": "ping"})");
    const json::Value doc = parseJson(response);
    EXPECT_TRUE(doc.find("ok")->asBool());
    EXPECT_EQ(doc.find("id")->asUint64(), 7u);
    EXPECT_TRUE(doc.find("result")->find("pong")->asBool());
    ASSERT_NE(doc.find("obs"), nullptr);
    EXPECT_NE(doc.find("obs")->find("duration_ns"), nullptr);
    EXPECT_NE(doc.find("obs")->find("parse_ns"), nullptr);
}

TEST(ServeProtocol, ObsReportsExecutionAndParseTime)
{
    // "duration_ns" is execution alone; "parse_ns" the JSON and QASM
    // parse before it. Both are counts of nanoseconds.
    json::Value req = json::Value::object();
    req.set("command", json::Value::string("lint"));
    req.set("circuit",
            json::Value::string("OPENQASM 2.0;\nqreg q[2];\nh q[0];\n"
                                "cx q[0],q[1];\n"));
    const json::Value doc =
        parseJson(serve::handleRequestLine(req.dump()));
    ASSERT_TRUE(doc.find("ok")->asBool());
    const json::Value *obs = doc.find("obs");
    ASSERT_NE(obs, nullptr);
    ASSERT_NE(obs->find("duration_ns"), nullptr);
    ASSERT_NE(obs->find("parse_ns"), nullptr);
    EXPECT_GT(obs->find("parse_ns")->asUint64(), 0u);
    obs->find("duration_ns")->asUint64(); // throws unless an integer
}

#if QSA_OBS_ENABLED
TEST(ServeProtocol, RequestSpanCoversParseAndRender)
{
    // The request span opens before the JSON parse and closes after
    // rendering, with serve.parse and serve.render inside it; only a
    // request that parsed counts in serve.requests.
    obs::Registry::reset();
    obs::setTracing(true);
    serve::handleRequestLine(R"({"id": 1, "command": "ping"})");
    serve::handleRequestLine("{nope");
    obs::setTracing(false);
    EXPECT_EQ(counterValue("serve.requests"), 1);

    const std::string path = ::testing::TempDir() + "qsa_serve_trace.json";
    obs::writeTrace(path);
    std::ifstream in(path);
    std::stringstream written;
    written << in.rdbuf();
    const json::Value trace = parseJson(written.str());
    const json::Value &events = *trace.find("traceEvents");
    std::map<std::string, std::vector<std::pair<double, double>>> spans;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const json::Value &event = events.at(i);
        if (event.find("ph")->asString() != "X")
            continue;
        const double ts = event.find("ts")->asDouble();
        spans[event.find("name")->asString()].emplace_back(
            ts, ts + event.find("dur")->asDouble());
    }
    obs::clearTrace();
    ASSERT_EQ(spans["serve.request"].size(), 2u);
    ASSERT_EQ(spans["serve.parse"].size(), 2u);
    ASSERT_EQ(spans["serve.render"].size(), 1u); // the error is not
    const auto inside = [&](const std::pair<double, double> &span) {
        for (const auto &request : spans["serve.request"])
            if (request.first <= span.first && span.second <= request.second)
                return true;
        return false;
    };
    for (const char *child : {"serve.parse", "serve.render"})
        for (const auto &span : spans[child])
            EXPECT_TRUE(inside(span)) << child;
}
#endif

TEST(ServeProtocol, MalformedJsonIsAnErrorResponse)
{
    const std::string response = serve::handleRequestLine("{nope");
    const json::Value doc = parseJson(response);
    EXPECT_FALSE(doc.find("ok")->asBool());
    EXPECT_NE(doc.find("error")
                  ->find("message")
                  ->asString()
                  .find("not valid JSON"),
              std::string::npos);
}

TEST(ServeProtocol, UnknownCommandIsRejected)
{
    const std::string response =
        serve::handleRequestLine(R"({"command": "frobnicate"})");
    const json::Value doc = parseJson(response);
    EXPECT_FALSE(doc.find("ok")->asBool());
    EXPECT_NE(doc.find("error")
                  ->find("message")
                  ->asString()
                  .find("unknown command"),
              std::string::npos);
}

TEST(ServeProtocol, OversizedRegisterIsRejectedAtItsDeclaration)
{
    // A 62-byte request once made the parser allocate a
    // 20,000,000-qubit register before the limit check; the parser
    // now stops at the declaration, which the reply positions (at the
    // token's first occurrence on the line, the 'q' of "qreg").
    const std::string response = serve::handleRequestLine(
        R"({"command": "lint", "circuit": "qreg q[20000000];\nh q[0];\n"})");
    const json::Value doc = parseJson(response);
    ASSERT_FALSE(doc.find("ok")->asBool());
    const json::Value *error = doc.find("error");
    ASSERT_NE(error, nullptr);
    EXPECT_EQ(error->find("message")->asString(),
              "'circuit': line 1, column 1: the program would use "
              "20000000 qubits (at most 12 accepted) with register 'q'");
    EXPECT_EQ(error->find("line")->asUint64(), 1u);
    EXPECT_EQ(error->find("token")->asString(), "q");
    // Just inside the limit parses.
    EXPECT_TRUE(parseJson(serve::handleRequestLine(
                              R"({"command": "lint", "circuit": )"
                              R"("qreg q[12];\nh q[0];\n"})"))
                    .find("ok")
                    ->asBool());
}

TEST(ServeProtocol, QasmErrorsCarryPosition)
{
    const std::string response = serve::handleRequestLine(
        R"({"command": "lint",)"
        R"( "circuit": "OPENQASM 2.0;\nqreg q[1];\nzz q[0];\n"})");
    const json::Value doc = parseJson(response);
    ASSERT_FALSE(doc.find("ok")->asBool());
    const json::Value *error = doc.find("error");
    ASSERT_NE(error, nullptr);
    EXPECT_EQ(error->find("message")->asString(),
              "'circuit': line 3, column 1: unsupported QASM gate 'zz'");
    EXPECT_EQ(error->find("line")->asUint64(), 3u);
    EXPECT_EQ(error->find("column")->asUint64(), 1u);
    EXPECT_EQ(error->find("token")->asString(), "zz");
}

/** An 80,000-member object with distinct keys, as one request line. */
std::string
wideObjectLine()
{
    std::string line = "{";
    for (int i = 0; i < 80000; ++i)
        line += (i ? ",\"k" : "\"k") + std::to_string(i) + "\":0";
    return line + "}";
}

TEST(ServeProtocol, DeepOrWideJsonIsAnErrorResponse)
{
    // Without the nesting cap, 100,000 '[' overflow the parser's stack;
    // checking each member against every earlier one, 80,000 members
    // take seconds to parse.
    const std::pair<std::string, std::string> cases[] = {
        {std::string(100000, '['),
         "request is not valid JSON: line 1, column 65: nesting deeper "
         "than 64 levels"},
        {wideObjectLine(), "unknown field 'k0'"},
    };
    for (const auto &[line, message] : cases) {
        const json::Value doc = parseJson(serve::handleRequestLine(line));
        EXPECT_FALSE(doc.find("ok")->asBool());
        EXPECT_EQ(doc.find("error")->find("message")->asString(), message);
    }
}

TEST(ServeProtocol, CheckRecordsAreTheSessionExportRecords)
{
    // One renderer per record: a check result's assertion items are
    // the records Session::exportJson writes for the same plan.
    json::Value doc = checkRequestDoc(17, 0);
    json::Value plan = json::Value::array();
    plan.push(doc.find("plan")->at(0));
    plan.push(parseJson(R"({"at": "done", "expect": "superposition",)"
                        R"( "register": "a", "alpha": 0.01})"));
    doc.set("plan", std::move(plan));
    const serve::Request request = serve::parseRequest(doc);
    assertions::CheckConfig cfg;
    cfg.ensembleSize = request.ensembleSize;
    cfg.mode = request.mode;
    cfg.seed = request.seed;
    session::Session s(request.circuit, cfg);
    for (const auto &item : request.plan)
        s.expect(item);
    const json::Value exported = parseJson(s.exportJson());

    const json::Value served =
        parseJson(serve::handleRequestLine(doc.dump()));
    const json::Value &items = *served.find("result")->find("assertions");
    ASSERT_EQ(items.size(), 2u);
    EXPECT_EQ(items.dump(), exported.find("assertions")->dump());
    EXPECT_EQ(items.at(1).find("alpha")->asDouble(), 0.01);
    EXPECT_FALSE(items.at(0).find("impossible_outcome")->asBool());
}

TEST(ServeProtocol, LintResultsAreTheLintReportObject)
{
    // lint's result and analyze's "lint" member are analyze::toJson
    // of the report.
    const std::string qasm =
        "OPENQASM 2.0;\nqreg q[2];\nh q[0];\nh q[0];\ncx q[0],q[1];\n";
    const std::string expected =
        analyze::toJson(analyze::lintCircuit(circuit::fromQasm(qasm)))
            .dump();
    EXPECT_NE(parseJson(expected).find("diagnostics")->size(), 0u);
    for (const char *command : {"lint", "analyze"}) {
        json::Value req = json::Value::object();
        req.set("command", json::Value::string(command));
        req.set("circuit", json::Value::string(qasm));
        const json::Value result =
            *parseJson(serve::handleRequestLine(req.dump())).find("result");
        const json::Value &lint =
            std::string(command) == "lint" ? result : *result.find("lint");
        EXPECT_EQ(lint.dump(), expected) << command;
    }
}

// --- oracle modes and derive-error survival --------------------------------

TEST(ServeProtocol, OracleFieldsAreValidated)
{
    json::Value bad_mode = locateRequestDoc(1, 0);
    bad_mode.set("oracle_mode", json::Value::string("bogus"));
    json::Value doc =
        parseJson(serve::handleRequestLine(
            bad_mode.dump()));
    ASSERT_FALSE(doc.find("ok")->asBool());
    EXPECT_NE(doc.find("error")->find("message")->asString().find(
                  "oracle_mode"),
              std::string::npos);

    json::Value bad_trials = locateRequestDoc(1, 0);
    bad_trials.set("oracle_trials", json::Value::integer(0));
    doc = parseJson(
        serve::handleRequestLine(bad_trials.dump()));
    ASSERT_FALSE(doc.find("ok")->asBool());
    EXPECT_NE(doc.find("error")->find("message")->asString().find(
                  "oracle_trials"),
              std::string::npos);

    json::Value wrong_command = checkRequestDoc(1, 0);
    wrong_command.set("oracle_mode", json::Value::string("sampled"));
    doc = parseJson(
        serve::handleRequestLine(wrong_command.dump()));
    ASSERT_FALSE(doc.find("ok")->asBool());
    EXPECT_NE(doc.find("error")->find("message")->asString().find(
                  "only valid for locate"),
              std::string::npos);
}

TEST(ServeProtocol, ExactOracleOverflowIsAStructuredError)
{
    // The headline bugfix: an exact-mode locate whose reference
    // overflows the branch cap must come back as a per-request error
    // naming the offending instruction — not kill the process.
#if QSA_OBS_ENABLED
    const std::int64_t derive0 =
        counterValue("serve.requests.derive_errors");
#endif
    const std::string response = serve::handleRequestLine(
        wideLocateRequestDoc("exact").dump());
    const json::Value doc = parseJson(response);

    ASSERT_FALSE(doc.find("ok")->asBool());
    EXPECT_EQ(doc.find("id")->asString(), "wide");
    const json::Value *error = doc.find("error");
    ASSERT_NE(error, nullptr);
    EXPECT_NE(error->find("message")->asString().find(
                  "exceeded its cap"),
              std::string::npos);
    EXPECT_NE(error->find("message")->asString().find("sampled"),
              std::string::npos)
        << "the error must advertise the sampled-mode escape hatch";
    ASSERT_NE(error->find("instruction"), nullptr);
    EXPECT_NE(error->find("instruction")->asString().find("measure"),
              std::string::npos);
#if QSA_OBS_ENABLED
    EXPECT_GT(counterValue("serve.requests.derive_errors"), derive0);
#endif
}

TEST(ServeProtocol, SampledOracleLocatesTheWideMeasurementProgram)
{
    // The same over-cap pair localizes under the sampled oracle (and
    // under the default auto mode, which falls back to it).
    for (const char *mode : {"sampled", ""}) {
        const std::string response = serve::handleRequestLine(
            wideLocateRequestDoc(mode).dump());
        const json::Value doc = parseJson(response);
        ASSERT_TRUE(doc.find("ok")->asBool())
            << "mode '" << mode << "': " << response;
        const json::Value *result = doc.find("result");
        ASSERT_NE(result, nullptr);
        EXPECT_TRUE(result->find("bug_found")->asBool())
            << "mode '" << mode << "': " << response;
    }
}

/** Measured teleportation of ry(1.0)|0>; the suspect's receiver
 *  applies S instead of Z on the m_z outcome (instruction 12). */
std::string
zFrameTeleportQasm(bool buggy)
{
    circuit::Circuit circ;
    const auto msg = circ.addRegister("msg", 1);
    const auto half = circ.addRegister("half", 1);
    const auto recv = circ.addRegister("recv", 1);
    circ.prepZ(msg[0], 0);
    circ.prepZ(half[0], 0);
    circ.prepZ(recv[0], 0);
    circ.ry(msg[0], 1.0);
    circ.rz(msg[0], 0.0);
    circ.h(half[0]);
    circ.cnot(half[0], recv[0]);
    circ.cnot(msg[0], half[0]);
    circ.h(msg[0]);
    circ.measureQubits({half[0]}, "m_x");
    circ.measureQubits({msg[0]}, "m_z");
    circ.x(recv[0]);
    circ.conditionLast("m_x", 1);
    if (buggy)
        circ.phase(recv[0], M_PI / 2);
    else
        circ.z(recv[0]);
    circ.conditionLast("m_z", 1);
    circ.rz(recv[0], -0.0);
    circ.ry(recv[0], -1.0);
    return circuit::toQasm(circ);
}

TEST(ServeProtocol, AutoBracketsBelowItsDecisiveSwapFailure)
{
    // The marginal search brackets [14, 15), past the defect; the
    // decisive swap probe at boundary 14 fails on the escalated
    // ensemble. The swap search must start from that failure: at the
    // parent it re-probed boundary 15 on 64 shots, missed (p = 1) and
    // kept the marginal bracket its own log contradicts.
    json::Value doc = json::Value::object();
    doc.set("command", json::Value::string("locate"));
    doc.set("register", json::Value::string("recv"));
    doc.set("family", json::Value::string("auto"));
    doc.set("mode", json::Value::string("resimulate"));
    doc.set("seed", json::Value::integer(7006367244457600ULL));
    doc.set("ensemble_size", json::Value::integer(64));
    doc.set("circuit", json::Value::string(zFrameTeleportQasm(true)));
    doc.set("reference", json::Value::string(zFrameTeleportQasm(false)));
    const std::string response = serve::handleRequestLine(doc.dump());
    const json::Value parsed = parseJson(response);
    const json::Value *result = parsed.find("result");
    ASSERT_NE(result, nullptr) << response;
    EXPECT_TRUE(result->find("bug_found")->asBool()) << response;
    EXPECT_TRUE(result->find("escalated_to_swap_test")->asBool());
    EXPECT_EQ(result->find("decided_by")->asString(), "swap-test");
    EXPECT_EQ(result->find("last_passing")->asUint64(), 12u) << response;
    EXPECT_EQ(result->find("first_failing")->asUint64(), 13u) << response;

    // No failed probe sits below the bracket, and the swap search
    // never probes above the boundary that triggered it.
    const json::Value &probes = *result->find("probes");
    std::size_t swap_records = 0;
    for (std::size_t i = 0; i < probes.size(); ++i) {
        const json::Value &probe = probes.at(i);
        const std::uint64_t boundary = probe.find("boundary")->asUint64();
        const bool swap = probe.find("family")->asString() == "swap-test";
        if (probe.find("failed")->asBool()) {
            EXPECT_GE(boundary, 13u) << response;
        }
        if (swap) {
            EXPECT_LE(boundary, 14u) << response;
            ++swap_records;
        }
    }
    EXPECT_EQ(swap_records, 3u) << response;
}

/**
 * The error message of a request's response ("" when it succeeded).
 * Requests that pass a width gate but start with a measurement fail
 * at the locator's next precondition instead, before any simulation:
 * that tells "at the gate" from "past the gate" without running the
 * probes.
 */
std::string
responseError(const json::Value &doc, const serve::Limits &limits)
{
    const json::Value response = parseJson(
        serve::handleRequestLine(doc.dump(), limits));
    if (response.find("ok")->asBool())
        return "";
    return response.find("error")->find("message")->asString();
}

/** A ladder pair whose suspect starts with a measurement. */
json::Value
unprobeableLadderDoc(unsigned n, const char *family, const char *mode)
{
    json::Value doc = ladderLocateDoc(n, family, mode);
    std::string suspect = ladderQasm(n, true);
    suspect.insert(suspect.find("h q[0];"),
                   "creg c[1];\nmeasure q[0] -> c[0];\n");
    doc.set("circuit", json::Value::string(suspect));
    return doc;
}

TEST(ServeProtocol, RegisterBNeedsRegister)
{
    json::Value doc = locateRequestDoc(1, 0);
    doc.set("register_b", json::Value::string("q"));
    EXPECT_EQ(responseError(doc, serve::Limits()),
              "'register_b' requires 'register'");
}

TEST(ServeProtocol, SwapTestWidthGateMatchesTheLocator)
{
    // The daemon accepts exactly the widths the in-process locator
    // accepts, because the locator's own check answers: swap-test
    // probes up to 11 qubits.
    const serve::Limits limits;
    EXPECT_NE(responseError(unprobeableLadderDoc(11, "swap_test",
                                                 "sample_final_state"),
                            limits)
                  .find("no probeable instruction boundary"),
              std::string::npos);
    EXPECT_NE(responseError(ladderLocateDoc(12, "swap_test",
                                            "sample_final_state"),
                            limits)
                  .find("swap-test probes simulate two program copies "
                        "plus an ancilla and support at most 11 qubits "
                        "(12 requested)"),
              std::string::npos);
}

TEST(ServeProtocol, MirrorWidthGatesMatchTheLocator)
{
    // Full-space mirror probes stop at 16 qubits under Resimulate and
    // at 24 otherwise; a daemon run with a high --max-qubits answers
    // wider requests with the locator's error.
    serve::Limits limits;
    limits.maxQubits = 25;
    for (const char *family : {"segment_mirror", "auto"}) {
        EXPECT_NE(responseError(unprobeableLadderDoc(16, family,
                                                     "resimulate"),
                                limits)
                      .find("no probeable instruction boundary"),
                  std::string::npos)
            << family;
        EXPECT_NE(responseError(ladderLocateDoc(17, family, "resimulate"),
                                limits)
                      .find("Resimulate segment-mirror probes hold a "
                            "full-space mixture per segment start and "
                            "support at most 16 qubits (17 requested)"),
                  std::string::npos)
            << family;
        EXPECT_NE(responseError(unprobeableLadderDoc(
                                    24, family, "sample_final_state"),
                                limits)
                      .find("no probeable instruction boundary"),
                  std::string::npos)
            << family;
        EXPECT_NE(responseError(ladderLocateDoc(25, family,
                                                "sample_final_state"),
                                limits)
                      .find("segment-mirror probes assert on the full "
                            "qubit space and support at most 24 qubits "
                            "(25 requested)"),
                  std::string::npos)
            << family;
    }
}

// --- the locator's own rules ----------------------------------------------

/** The LocateConfig a locate request asks the library for. */
locate::LocateConfig
libraryConfig(const serve::Request &request)
{
    locate::LocateConfig cfg;
    cfg.strategy = request.strategy;
    cfg.family = request.family;
    cfg.mode = request.mode;
    cfg.seed = request.seed;
    cfg.oracleMode = request.oracleMode;
    cfg.oracleTrials = request.oracleTrials;
    cfg.numThreads = request.threads;
    return cfg;
}

/** The scope a locate request names. */
locate::Scope
scopeOf(const serve::Request &request)
{
    if (request.registerA.empty())
        return locate::Scope();
    if (request.registerB.empty())
        return request.circuit.reg(request.registerA);
    return {request.circuit.reg(request.registerA),
            request.circuit.reg(request.registerB)};
}

json::Value
locatePairDoc(const std::string &suspect, const std::string &reference)
{
    json::Value doc = json::Value::object();
    doc.set("id", json::Value::string("pair"));
    doc.set("command", json::Value::string("locate"));
    doc.set("circuit", json::Value::string(suspect));
    doc.set("reference", json::Value::string(reference));
    return doc;
}

/** Two qubits; the suspect's first instruction is X, not H. */
json::Value
firstInstructionDoc()
{
    return locatePairDoc(
        "OPENQASM 2.0;\nqreg q[2];\nx q[0];\ncx q[0],q[1];\n",
        "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n");
}

/** An 11-qubit register whose twelfth instruction flips the wrong
 *  qubit, probed through its mixture marginal. */
json::Value
wideRegisterDoc()
{
    const auto program = [](bool buggy) {
        std::string qasm = "OPENQASM 2.0;\nqreg q[11];\n";
        for (int i = 0; i < 11; ++i)
            qasm += "x q[" + std::to_string(i) + "];\n";
        return qasm + (buggy ? "x q[1];\n" : "x q[0];\n");
    };
    json::Value doc = locatePairDoc(program(true), program(false));
    doc.set("family", json::Value::string("mixture_marginal"));
    doc.set("register", json::Value::string("q"));
    return doc;
}

/** A Resimulate pair that both start with the same measurement; the
 *  suspect's third instruction is X where the reference has H. */
json::Value
measureFirstDoc(const char *mode)
{
    const auto program = [](const char *gate) {
        return std::string("OPENQASM 2.0;\nqreg q[2];\ncreg c[1];\n"
                           "measure q[0] -> c[0];\nh q[1];\n") +
               gate + " q[1];\ncx q[1],q[0];\n";
    };
    json::Value doc = locatePairDoc(program("x"), program("h"));
    doc.set("mode", json::Value::string(mode));
    return doc;
}

/**
 * A request the library localizes must get the same bracket from the
 * daemon: the daemon holds no rules of its own about which locates
 * are probeable.
 */
void
expectServeMatchesLibrary(const json::Value &doc, std::size_t last,
                          std::size_t first)
{
    const serve::Request request = serve::parseRequest(doc);
    const locate::LocalizationReport report =
        locate::BugLocator(request.circuit, *request.reference,
                           libraryConfig(request))
            .locate(scopeOf(request));
    ASSERT_TRUE(report.bugFound) << report.summary();
    EXPECT_EQ(report.lastPassing, last) << report.summary();
    EXPECT_EQ(report.firstFailing, first) << report.summary();

    const std::string line = serve::handleRequestLine(doc.dump());
    const json::Value response = parseJson(line);
    ASSERT_TRUE(response.find("ok")->asBool()) << line;
    const json::Value &result = *response.find("result");
    EXPECT_TRUE(result.find("bug_found")->asBool()) << line;
    EXPECT_EQ(result.find("last_passing")->asUint64(),
              report.lastPassing);
    EXPECT_EQ(result.find("first_failing")->asUint64(),
              report.firstFailing);
    EXPECT_EQ(result.find("probes")->size(), report.probes.size());
    EXPECT_EQ(result.find("total_measurements")->asUint64(),
              report.totalMeasurements);
}

TEST(ServeAcceptsWhatTheLibraryAccepts, FirstInstructionDefect)
{
    expectServeMatchesLibrary(firstInstructionDoc(), 0, 1);
}

TEST(ServeAcceptsWhatTheLibraryAccepts, WideRegisterMarginal)
{
    expectServeMatchesLibrary(wideRegisterDoc(), 11, 12);
}

TEST(ServeAcceptsWhatTheLibraryAccepts, MeasurementLeadingResimulatePair)
{
    expectServeMatchesLibrary(measureFirstDoc("resimulate"), 2, 3);
}

/**
 * One configuration the locator rejects. `doc` is the locate request
 * that carries it; `tweak`, when set, is a LocateConfig change no
 * request can make, so that case is checked in process only.
 */
struct Rejection
{
    const char *name;
    json::Value doc;
    const char *message; // part of the qsa::Error message
    std::function<void(locate::LocateConfig &)> tweak = nullptr;
};

std::vector<Rejection>
locatorRejections()
{
    json::Value pair = locatePairDoc(
        kBellQasm, std::string(kBellQasm) + "x b[0];\n");
    pair.set("register", json::Value::string("a"));
    pair.set("register_b", json::Value::string("b"));
    pair.set("family", json::Value::string("auto"));
    json::Value full_space = locateRequestDoc(1, 0);
    full_space.set("family", json::Value::string("rotated_marginal"));
    json::Value unknown = locateRequestDoc(1, 0);
    unknown.set("family", json::Value::string("mixture_marginal"));
    unknown.set("register", json::Value::string("nope"));
    json::Value unknown_b = unknown;
    unknown_b.set("register", json::Value::string("q"));
    unknown_b.set("register_b", json::Value::string("nope"));

    std::vector<Rejection> out{
        {"unknown register", unknown, "no register named 'nope'"},
        {"unknown second register", unknown_b,
         "no register named 'nope'"},
        {"register family on the full space", full_space,
         "rotated-marginal probes assert on one register's marginal"},
        {"non-marginal family on a register pair", pair,
         "two-register probes support ProbeFamily::MixtureMarginal "
         "only (got auto)"},
        {"mirror width gate",
         ladderLocateDoc(25, "segment_mirror", "sample_final_state"),
         "support at most 24 qubits (25 requested)"},
        {"resimulate mirror width gate",
         ladderLocateDoc(17, "segment_mirror", "resimulate"),
         "support at most 16 qubits (17 requested)"},
        {"swap-test width gate",
         ladderLocateDoc(12, "swap_test", "sample_final_state"),
         "support at most 11 qubits (12 requested)"},
        {"mismatched qubit spaces",
         locatePairDoc(ladderQasm(3, true), ladderQasm(4, false)),
         "different qubit spaces (3 vs 4 qubits)"},
        {"no probeable boundary", measureFirstDoc("sample_final_state"),
         "no probeable instruction boundary"},
    };
    const auto config_case = [&](const char *name, const char *message,
                                 std::function<void(locate::LocateConfig
                                                        &)> tweak) {
        out.push_back({name, locateRequestDoc(1, 0), message, tweak});
    };
    config_case("ensemble size", "ensemble size must be positive",
                [](locate::LocateConfig &c) { c.ensembleSize = 0; });
    config_case("escalation cap", "escalation cap below",
                [](locate::LocateConfig &c) { c.maxEnsembleSize = 32; });
    config_case("alpha", "alpha must lie strictly between 0 and 1",
                [](locate::LocateConfig &c) { c.alpha = 1.0; });
    config_case("pass threshold", "outside [0, 1]",
                [](locate::LocateConfig &c) { c.passThreshold = 1.5; });
    return out;
}

/** The daemon limits every rejection case fits. */
serve::Limits
wideLimits()
{
    serve::Limits limits;
    limits.maxQubits = 25;
    return limits;
}

/** Run the case in process; returns the qsa::Error message. */
std::string
libraryRejection(const Rejection &c)
{
    const serve::Request request =
        serve::parseRequest(c.doc, wideLimits());
    locate::LocateConfig cfg = libraryConfig(request);
    if (c.tweak)
        c.tweak(cfg);
    const auto run = [&] {
        locate::BugLocator(request.circuit, *request.reference, cfg)
            .locate(scopeOf(request));
    };
    EXPECT_THROW(run(), qsa::Error) << c.name;
    try {
        run();
    } catch (const qsa::Error &e) {
        return e.what();
    }
    return "";
}

TEST(LocatorRejections, InProcessThrowTypedErrors)
{
    for (const Rejection &c : locatorRejections()) {
        const std::string message = libraryRejection(c);
        EXPECT_NE(message.find(c.message), std::string::npos)
            << c.name << ": " << message;
    }
}

TEST(LocatorRejections, ResponsesCarryTheLibraryMessage)
{
    for (const Rejection &c : locatorRejections()) {
        if (c.tweak)
            continue; // no request field reaches this config
        const std::string expected = libraryRejection(c);
        const std::int64_t applies0 = counterValue("sim.gate_applies");
        const std::int64_t searches0 = counterValue("locate.searches");
        const json::Value response =
            parseJson(serve::handleRequestLine(
                c.doc.dump(), wideLimits()));
        ASSERT_FALSE(response.find("ok")->asBool()) << c.name;
        EXPECT_EQ(response.find("error")->find("message")->asString(),
                  expected)
            << c.name;
        // Rejected before anything ran.
        EXPECT_EQ(counterValue("sim.gate_applies"), applies0) << c.name;
        EXPECT_EQ(counterValue("locate.searches"), searches0) << c.name;
    }
}

// --- the session's own rules ----------------------------------------------

/**
 * One plan the Session rejects. `doc` is the check or analyze request
 * that carries it; `item` is the index of the plan item the Session
 * rejects when it registers the plan, or -1 for a rule that only
 * run() (or analyze()) checks, whose message has no "plan[i]: "
 * prefix.
 */
struct PlanRejection
{
    const char *name;
    json::Value doc;
    const char *message; // part of the qsa::Error message
    int item;
};

/** A plan item (JSON text) on the Bell program's "done" breakpoint. */
std::string
bellItem(const std::string &fields)
{
    return R"({"at": "done", )" + fields + "}";
}

/**
 * A request on `qasm` whose plan is `items` (JSON texts), sent as
 * `command`.
 */
json::Value
planDoc(const char *command, const std::string &qasm,
        const std::vector<std::string> &items)
{
    std::string plan = "[";
    for (const std::string &item : items)
        plan += (plan.size() > 1 ? ", " : "") + item;
    json::Value doc = json::Value::object();
    doc.set("id", json::Value::string(command));
    doc.set("command", json::Value::string(command));
    doc.set("circuit", json::Value::string(qasm));
    doc.set("plan", parseJson(plan + "]"));
    doc.set("ensemble_size", json::Value::integer(64));
    return doc;
}

std::vector<PlanRejection>
planRejections()
{
    // Each bad item follows a good one, so its position is plan[1].
    const std::string good = bellItem(
        R"("expect": "entangled", "register": "a", "register_b": "b")");
    std::string wide = "OPENQASM 2.0;\nqreg w[25];\n";
    for (int i = 0; i < 25; ++i)
        wide += "h w[" + std::to_string(i) + "];\n";
    wide += "// qsa.breakpoint done\n";
    // A source breakpoint named like the Session's first boundary
    // marker, probed through "after".
    const std::string clash = "OPENQASM 2.0;\nqreg q[2];\nh q[0];\n"
                              "cx q[0],q[1];\n"
                              "// qsa.breakpoint qsa_session_b0\n";
    const std::string clash_item =
        R"({"after": 1, "expect": "superposition", "register": "q"})";

    std::vector<PlanRejection> out;
    const auto bell = [&](const char *name, const std::string &bad,
                          const char *message) {
        for (const char *command : {"check", "analyze"})
            out.push_back({name, planDoc(command, kBellQasm, {good, bad}),
                           message, 1});
    };
    bell("unknown register",
         bellItem(R"("expect": "superposition", "register": "nope")"),
         "no register named 'nope'");
    bell("unknown second register",
         bellItem(R"("expect": "product", "register": "a",)"
                  R"( "register_b": "nope")"),
         "no register named 'nope'");
    bell("unknown breakpoint",
         R"({"at": "nowhere", "expect": "superposition",)"
         R"( "register": "a"})",
         "program has no breakpoint labelled 'nowhere'");
    bell("boundary past the end",
         R"({"after": 99, "expect": "superposition", "register": "a"})",
         "boundary 99 beyond the program's 3 instructions");
    bell("classical value outside the domain",
         bellItem(R"("expect": "classical", "register": "a",)"
                  R"( "value": 2)"),
         "classical expected value 2 outside the register domain of 2 "
         "values");
    bell("probs of the wrong length",
         bellItem(R"("expect": "distribution", "register": "a",)"
                  R"( "probs": [0.5, 0.25, 0.25])"),
         "expected distribution must have 2^width entries");
    bell("negative probs",
         bellItem(R"("expect": "distribution", "register": "a",)"
                  R"( "probs": [-0.5, 1.5])"),
         "negative probability in distribution");
    bell("probs not summing to 1",
         bellItem(R"("expect": "distribution", "register": "a",)"
                  R"( "probs": [0.7, 0.7])"),
         "expected distribution must sum to 1");
    bell("empty support",
         bellItem(R"("expect": "uniform_subset", "register": "a",)"
                  R"( "support": [])"),
         "support set must be non-empty");
    bell("support value outside the domain",
         bellItem(R"("expect": "uniform_subset", "register": "a",)"
                  R"( "support": [0, 2])"),
         "support value 2 outside the register domain");
    bell("alpha above 1",
         bellItem(R"("expect": "superposition", "register": "a",)"
                  R"( "alpha": 1.5)"),
         "alpha must lie strictly between 0 and 1");
    bell("negative alpha",
         bellItem(R"("expect": "superposition", "register": "a",)"
                  R"( "alpha": -0.1)"),
         "alpha must lie strictly between 0 and 1");
    for (const char *command : {"check", "analyze"}) {
        for (const char *kind : {"superposition", "uniform_subset"}) {
            const std::string fields =
                std::string(R"("expect": ")") + kind +
                R"(", "register": "w")" +
                (std::string(kind) == "uniform_subset"
                     ? R"(, "support": [0])"
                     : "");
            out.push_back({"one-register kind wider than 24 qubits",
                           planDoc(command, wide, {bellItem(fields)}),
                           "register too wide for a dense "
                           "goodness-of-fit test",
                           0});
        }
        out.push_back({"source breakpoint named like a boundary marker",
                       planDoc(command, clash, {clash_item}),
                       "duplicate breakpoint label 'qsa_session_b0'",
                       -1});
    }
    return out;
}

/** Run the case in process; returns the qsa::Error message. */
std::string
sessionRejection(const PlanRejection &c)
{
    const serve::Request request =
        serve::parseRequest(c.doc, wideLimits());
    const auto run = [&] {
        session::Session s(request.circuit);
        for (const auto &item : request.plan)
            s.expect(item);
        if (request.command == "analyze")
            s.analyze();
        else
            s.run();
    };
    EXPECT_THROW(run(), qsa::Error) << c.name;
    try {
        run();
    } catch (const qsa::Error &e) {
        return e.what();
    }
    return "";
}

/** The message serve answers the case with: the library's, behind
 *  the item's position when it has one. */
std::string
servedRejection(const PlanRejection &c)
{
    const std::string message = sessionRejection(c);
    if (c.item < 0)
        return message;
    return "plan[" + std::to_string(c.item) + "]: " + message;
}

TEST(PlanRejections, InProcessThrowTypedErrors)
{
    for (const PlanRejection &c : planRejections()) {
        const std::string message = sessionRejection(c);
        EXPECT_NE(message.find(c.message), std::string::npos)
            << c.name << ": " << message;
    }
}

TEST(PlanRejections, ResponsesCarryTheLibraryMessage)
{
    for (const PlanRejection &c : planRejections()) {
        const std::string expected = servedRejection(c);
        const std::int64_t applies0 = counterValue("sim.gate_applies");
        const json::Value response =
            parseJson(serve::handleRequestLine(
                c.doc.dump(), wideLimits()));
        ASSERT_FALSE(response.find("ok")->asBool()) << c.name;
        EXPECT_EQ(response.find("id")->asString(),
                  c.doc.find("id")->asString())
            << c.name;
        EXPECT_EQ(response.find("error")->find("message")->asString(),
                  expected)
            << c.name;
        // Rejected before anything ran.
        EXPECT_EQ(counterValue("sim.gate_applies"), applies0) << c.name;
    }
}

// --- determinism contract --------------------------------------------------

TEST(ServeDeterminism, ResultIndependentOfThreadCount)
{
    // numThreads steers scheduling only; per-member RNG streams make
    // the "result" member bit-identical at 1, 4, and auto threads.
    const std::string check1 = resultDump(checkRequestDoc(11, 1));
    const std::string check4 = resultDump(checkRequestDoc(11, 4));
    const std::string check0 = resultDump(checkRequestDoc(11, 0));
    EXPECT_EQ(check1, check4);
    EXPECT_EQ(check1, check0);

    const std::string loc1 = resultDump(locateRequestDoc(23, 1));
    const std::string loc4 = resultDump(locateRequestDoc(23, 4));
    const std::string loc0 = resultDump(locateRequestDoc(23, 0));
    EXPECT_EQ(loc1, loc4);
    EXPECT_EQ(loc1, loc0);
}

TEST(ServeDeterminism, RepeatRunsAreByteIdentical)
{
    const std::string first = resultDump(checkRequestDoc(42, 0));
    const std::string second = resultDump(checkRequestDoc(42, 0));
    EXPECT_EQ(first, second);
    EXPECT_NE(first.find("\"all_passed\":true"), std::string::npos)
        << first;
}

TEST(ServeDeterminism, SeedChangesTheEnsemble)
{
    // Different seeds draw different ensembles: verdicts agree, raw
    // counts (part of "result") almost surely differ.
    const std::string a = resultDump(checkRequestDoc(1, 0));
    const std::string b = resultDump(checkRequestDoc(2, 0));
    EXPECT_NE(a, b);
}

// --- persistent oracle store -----------------------------------------------

/** Complete entries (".json" files) under a store root. */
std::size_t
storedEntries(const std::string &root)
{
    std::size_t n = 0;
    if (!std::filesystem::exists(root))
        return 0;
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(root))
        if (entry.is_regular_file() &&
            entry.path().extension() == ".json")
            ++n;
    return n;
}

TEST(ServeOracleStore, WarmReplayIsByteIdenticalAndHits)
{
    const std::string root = ::testing::TempDir() + "qsa_store_" +
                             std::to_string(::getpid());

    serve::OracleStore store(root);
    store.install();

#if QSA_OBS_ENABLED
    const std::int64_t writes0 =
        counterValue("serve.oracle_cache.writes");
#endif
    const std::size_t entries0 = storedEntries(root);
    const std::string cold = resultDump(locateRequestDoc(5, 0));
    const std::size_t entries1 = storedEntries(root);
    EXPECT_GT(entries1, entries0)
        << "cold run derived nothing worth persisting";
#if QSA_OBS_ENABLED
    const std::int64_t writes1 =
        counterValue("serve.oracle_cache.writes");
    EXPECT_GT(writes1, writes0)
        << "cold run derived nothing worth persisting";

    const std::int64_t hits0 =
        counterValue("serve.oracle_cache.hits");
    const std::int64_t misses0 =
        counterValue("serve.oracle_cache.misses");
#endif
    const std::string warm = resultDump(locateRequestDoc(5, 0));
    EXPECT_EQ(cold, warm)
        << "a persisted artifact changed the localization verdict";
    EXPECT_EQ(storedEntries(root), entries1)
        << "warm replay re-derived and stored something it just "
           "persisted";
#if QSA_OBS_ENABLED
    const std::int64_t hits1 =
        counterValue("serve.oracle_cache.hits");
    const std::int64_t misses1 =
        counterValue("serve.oracle_cache.misses");
    EXPECT_GT(hits1, hits0) << "warm replay never consulted the store";
    EXPECT_EQ(misses1, misses0)
        << "warm replay re-derived something it just persisted";
#endif

    store.uninstall();

    // With the store gone, the same request still gives the same
    // bytes — persistence is a pure accelerator.
    EXPECT_EQ(resultDump(locateRequestDoc(5, 0)), cold);
}

TEST(ServeOracleStore, EntryBoundEvictsOldestFirst)
{
    const std::string root = ::testing::TempDir() + "qsa_evict_" +
                             std::to_string(::getpid());

    serve::OracleStore store(root, /*max_entries=*/2,
                             /*max_bytes=*/0);
#if QSA_OBS_ENABLED
    const std::int64_t evictions0 =
        counterValue("serve.oracle_cache.evictions");
#endif

    store.store("predicates", "key-a", R"({"payload": "a"})");
    store.store("predicates", "key-b", R"({"payload": "b"})");
    EXPECT_EQ(storedEntries(root), 2u)
        << "a store within bounds must not evict";
#if QSA_OBS_ENABLED
    EXPECT_EQ(counterValue("serve.oracle_cache.evictions"),
              evictions0)
        << "a store within bounds must not evict";
#endif

    store.store("predicates", "key-c", R"({"payload": "c"})");
#if QSA_OBS_ENABLED
    EXPECT_GT(counterValue("serve.oracle_cache.evictions"),
              evictions0)
        << "the third entry must push one out";
#endif

    // At most two complete entries survive on disk (the third entry
    // pushed one out)...
    const std::size_t on_disk = storedEntries(root);
    EXPECT_EQ(on_disk, 2u);

    // ...and exactly that many of the three keys still load. (mtime
    // granularity can tie all three writes, so which keys survive is
    // not pinned — only how many.)
    std::size_t loadable = 0;
    std::string payload;
    for (const char *key : {"key-a", "key-b", "key-c"})
        if (store.load("predicates", key, &payload))
            ++loadable;
    EXPECT_EQ(loadable, on_disk);
}

// --- the server ------------------------------------------------------------

std::string
testSocketPath(const char *tag)
{
    return ::testing::TempDir() + "qsa_" + tag + "_" +
           std::to_string(::getpid()) + ".sock";
}

TEST(ServeServer, ConcurrentClientsMatchInProcessResults)
{
    serve::ServerConfig config;
    config.socketPath = testSocketPath("conc");
    config.workers = 4;

    serve::Server server(config);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    // A mixed batch: checks and locates at distinct seeds, a lint, a
    // positioned QASM error, a ping. Expected responses are computed
    // in-process first; N concurrent connections must then return
    // exactly those bytes (modulo the "obs" timing member).
    std::vector<std::string> requests;
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
        requests.push_back(checkRequestDoc(seed, 0).dump());
    requests.push_back(locateRequestDoc(9, 0).dump());
    requests.push_back(locateRequestDoc(10, 0).dump());
    requests.push_back(
        R"({"id": "lint", "command": "lint",)"
        R"( "circuit": "OPENQASM 2.0;\nqreg q[2];\nh q[0];\n"})");
    requests.push_back(
        R"({"id": "bad", "command": "lint",)"
        R"( "circuit": "OPENQASM 2.0;\nqreg q[1];\nzz q[0];\n"})");
    requests.push_back(R"({"id": "ping", "command": "ping"})");
    ASSERT_EQ(requests.size(), 8u);

    std::vector<std::string> expected;
    for (const auto &request : requests)
        expected.push_back(
            stripObs(serve::handleRequestLine(request)));

    std::vector<std::string> got(requests.size());
    std::vector<std::string> failures(requests.size());
    std::vector<std::thread> clients;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        clients.emplace_back([&, i] {
            serve::Client client;
            std::string client_error;
            if (!client.connect(config.socketPath, &client_error)) {
                failures[i] = client_error;
                return;
            }
            std::string response;
            if (!client.request(requests[i], &response,
                                &client_error)) {
                failures[i] = client_error;
                return;
            }
            got[i] = stripObs(response);
        });
    }
    for (auto &t : clients)
        t.join();

    for (std::size_t i = 0; i < requests.size(); ++i) {
        EXPECT_TRUE(failures[i].empty()) << failures[i];
        EXPECT_EQ(got[i], expected[i]) << "request " << i;
    }

    server.stop();
}

TEST(ServeServer, OneConnectionManySequentialRequests)
{
    serve::ServerConfig config;
    config.socketPath = testSocketPath("seq");
    config.workers = 2;

    serve::Server server(config);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    serve::Client client;
    ASSERT_TRUE(client.connect(config.socketPath, &error)) << error;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const std::string request = checkRequestDoc(seed, 0).dump();
        std::string response;
        ASSERT_TRUE(client.request(request, &response, &error))
            << error;
        EXPECT_EQ(stripObs(response),
                  stripObs(serve::handleRequestLine(request)));
    }

    server.stop();
}

TEST(ServeServer, SurvivesOracleDeriveFailureOnTheSameConnection)
{
    // The headline bugfix, end to end: an exact-mode locate whose
    // reference derivation overflows the branch cap used to bring the
    // whole daemon down. It must now answer that request with a
    // structured error and keep serving — on the very same socket.
    serve::ServerConfig config;
    config.socketPath = testSocketPath("derive");
    config.workers = 2;

    serve::Server server(config);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    serve::Client client;
    ASSERT_TRUE(client.connect(config.socketPath, &error)) << error;

    std::string response;
    ASSERT_TRUE(client.request(wideLocateRequestDoc("exact").dump(),
                               &response, &error))
        << error;
    {
        const json::Value doc = parseJson(response);
        ASSERT_FALSE(doc.find("ok")->asBool()) << response;
        const json::Value *err = doc.find("error");
        ASSERT_NE(err, nullptr);
        EXPECT_NE(
            err->find("message")->asString().find("exceeded its cap"),
            std::string::npos);
        ASSERT_NE(err->find("instruction"), nullptr);
        EXPECT_NE(err->find("instruction")->asString().find("measure"),
                  std::string::npos);
    }

    // Same connection, next request: the daemon is still alive and
    // still correct.
    const std::string follow_up = checkRequestDoc(1, 0).dump();
    ASSERT_TRUE(client.request(follow_up, &response, &error)) << error;
    {
        const json::Value doc = parseJson(response);
        EXPECT_TRUE(doc.find("ok")->asBool()) << response;
    }
    EXPECT_EQ(stripObs(response),
              stripObs(serve::handleRequestLine(follow_up)));

    // And the sampled escape hatch the error advertised works here.
    ASSERT_TRUE(client.request(wideLocateRequestDoc("sampled").dump(),
                               &response, &error))
        << error;
    {
        const json::Value doc = parseJson(response);
        ASSERT_TRUE(doc.find("ok")->asBool()) << response;
        EXPECT_TRUE(
            doc.find("result")->find("bug_found")->asBool())
            << response;
    }

    server.stop();
}

TEST(ServeServer, SurvivesWideResimulateMirrorOnTheSameConnection)
{
    // One request past the Resimulate mirror prober's width gate used
    // to kill a daemon started with --max-qubits 17. It must be
    // rejected, and the next request on the same socket answered.
    serve::ServerConfig config;
    config.socketPath = testSocketPath("wide_mirror");
    config.workers = 2;
    config.limits.maxQubits = 17;

    serve::Server server(config);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    serve::Client client;
    ASSERT_TRUE(client.connect(config.socketPath, &error)) << error;

    std::string response;
    ASSERT_TRUE(client.request(
        ladderLocateDoc(17, "segment_mirror", "resimulate").dump(),
        &response, &error))
        << error;
    {
        const json::Value doc = parseJson(response);
        ASSERT_FALSE(doc.find("ok")->asBool()) << response;
        EXPECT_NE(doc.find("error")->find("message")->asString().find(
                      "at most 16 qubits"),
                  std::string::npos)
            << response;
    }

    const std::string follow_up = locateRequestDoc(3, 0).dump();
    ASSERT_TRUE(client.request(follow_up, &response, &error)) << error;
    EXPECT_TRUE(parseJson(response).find("ok")->asBool())
        << response;
    EXPECT_EQ(stripObs(response),
              stripObs(serve::handleRequestLine(follow_up)));

    server.stop();
}

TEST(ServeServer, SurvivesEveryLibraryRejection)
{
    // Every locate the locator rejects and every plan the Session
    // rejects, on one connection to a daemon wide enough to reach
    // each width gate: each one answered with the library's message,
    // and each followed by a ping that answers.
    serve::ServerConfig config;
    config.socketPath = testSocketPath("reject");
    config.workers = 2;
    config.limits = wideLimits();

    serve::Server server(config);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    serve::Client client;
    ASSERT_TRUE(client.connect(config.socketPath, &error)) << error;

    std::vector<std::tuple<std::string, json::Value, std::string>> cases;
    for (const Rejection &c : locatorRejections()) {
        if (!c.tweak)
            cases.emplace_back(c.name, c.doc, libraryRejection(c));
    }
    for (const PlanRejection &c : planRejections())
        cases.emplace_back(c.name, c.doc, servedRejection(c));

    for (const auto &[name, request, expected] : cases) {
        std::string response;
        ASSERT_TRUE(client.request(request.dump(), &response, &error))
            << name << ": " << error;
        const json::Value doc = parseJson(response);
        EXPECT_FALSE(doc.find("ok")->asBool()) << name;
        EXPECT_EQ(doc.find("error")->find("message")->asString(),
                  expected)
            << name;

        ASSERT_TRUE(client.request(R"({"id": "ping", "command": "ping"})",
                                   &response, &error))
            << "daemon died after: " << name << ": " << error;
        EXPECT_TRUE(parseJson(response).find("ok")->asBool())
            << name;
    }
    server.stop();
}

TEST(ServeServer, SurvivesDeepAndWideJson)
{
    // The daemon answers a line of 100,000 '[' and an 80,000-member
    // object with errors, and the same connection then serves a ping.
    serve::ServerConfig config;
    config.socketPath = testSocketPath("deep");
    config.workers = 2;

    serve::Server server(config);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    serve::Client client;
    ASSERT_TRUE(client.connect(config.socketPath, &error)) << error;
    for (const std::string &line :
         {std::string(100000, '['), wideObjectLine()}) {
        std::string response;
        ASSERT_TRUE(client.request(line, &response, &error)) << error;
        EXPECT_FALSE(parseJson(response).find("ok")->asBool());
        ASSERT_TRUE(client.request(R"({"id": "ping", "command": "ping"})",
                                   &response, &error))
            << "daemon died after a " << line.size() << "-byte line: "
            << error;
        EXPECT_TRUE(parseJson(response).find("ok")->asBool());
    }
    server.stop();
}

TEST(ServeServer, StartRejectsOutOfRangeConfigurations)
{
    // Both are refused before a socket is bound or a thread started.
    serve::ServerConfig too_many;
    too_many.socketPath = testSocketPath("too_many");
    too_many.workers = serve::ServerConfig::kMaxWorkers + 1;
    serve::ServerConfig no_queue;
    no_queue.socketPath = testSocketPath("no_queue");
    no_queue.maxQueue = 0;

    for (const auto &[config, message] :
         {std::pair{too_many, "workers must lie in [0, 256]"},
          std::pair{no_queue, "queue bound must be at least 1"}}) {
        std::filesystem::remove(config.socketPath);
        serve::Server server(config);
        std::string error;
        EXPECT_FALSE(server.start(&error)) << message;
        EXPECT_NE(error.find(message), std::string::npos) << error;
        EXPECT_FALSE(std::filesystem::exists(config.socketPath))
            << message;
    }
}

/**
 * The four request shapes that fan out in process, at one "threads"
 * value: a two-item check plan (BatchRunner units), a Resimulate
 * mirror locate (the path walk), a LinearScan locate (the scan
 * batches) and a swap-test locate.
 */
std::vector<json::Value>
fanOutRequestDocs(unsigned threads)
{
    json::Value check = checkRequestDoc(17, threads);
    check.set("plan",
              parseJson(
                  R"([{"at": "done", "expect": "entangled",)"
                  R"( "register": "a", "register_b": "b"},)"
                  R"( {"at": "done", "expect": "superposition",)"
                  R"( "register": "a"}])"));

    json::Value resimulate = locateRequestDoc(19, threads);
    resimulate.set("id", json::Value::string("resimulate"));
    resimulate.set("mode", json::Value::string("resimulate"));

    json::Value linear = locateRequestDoc(21, threads);
    linear.set("id", json::Value::string("linear"));
    linear.set("strategy", json::Value::string("linear"));

    json::Value swap = locateRequestDoc(23, threads);
    swap.set("id", json::Value::string("swap"));
    swap.set("family", json::Value::string("swap_test"));
    return {check, resimulate, linear, swap};
}

TEST(ServeServer, RequestsRunInlineOnTheirDispatchers)
{
    // In process, these requests fan out (threads 0: the shared pool;
    // 4: dedicated pools). Served concurrently at "threads": 8, each
    // runs inline on its dispatcher: the same bytes, no thread
    // spawned and no pool job posted.
    const auto fan_out0 = fanOutRequestDocs(0);
    const auto fan_out4 = fanOutRequestDocs(4);
    const auto served = fanOutRequestDocs(8);
    std::vector<std::string> expected;
    for (std::size_t i = 0; i < served.size(); ++i) {
        expected.push_back(
            stripObs(serve::handleRequestLine(fan_out0[i].dump())));
        EXPECT_EQ(stripObs(serve::handleRequestLine(fan_out4[i].dump())),
                  expected[i])
            << "request " << i;
        EXPECT_TRUE(
            parseJson(expected[i]).find("ok")->asBool())
            << expected[i];
    }

    serve::ServerConfig config;
    config.socketPath = testSocketPath("inline");
    config.workers = 4;
    serve::Server server(config);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    [[maybe_unused]] const std::int64_t spawned0 =
        counterValue("runtime.pool.spawned_threads");
    [[maybe_unused]] const std::int64_t jobs0 =
        counterValue("runtime.pool.jobs");
    std::vector<std::string> got(served.size());
    std::vector<std::string> failures(served.size());
    std::vector<std::thread> clients;
    for (std::size_t i = 0; i < served.size(); ++i) {
        clients.emplace_back([&, i] {
            serve::Client client;
            std::string response;
            if (client.connect(config.socketPath, &failures[i]) &&
                client.request(served[i].dump(), &response,
                               &failures[i]))
                got[i] = stripObs(response);
        });
    }
    for (auto &t : clients)
        t.join();
#if QSA_OBS_ENABLED
    EXPECT_EQ(counterValue("runtime.pool.spawned_threads"), spawned0)
        << "a served request spawned pool threads";
    EXPECT_EQ(counterValue("runtime.pool.jobs"), jobs0)
        << "a served request posted pool jobs";
#endif
    server.stop();

    for (std::size_t i = 0; i < served.size(); ++i) {
        EXPECT_TRUE(failures[i].empty()) << failures[i];
        EXPECT_EQ(got[i], expected[i]) << "request " << i;
    }
}

/**
 * An artifact store whose loads wait at a gate until open() (or a
 * one-minute safety timeout). Installed process-wide, it holds a
 * dispatcher inside its request, so the queue behind it fills
 * deterministically. Every load misses and store() keeps nothing, so
 * results are those of a daemon without a store.
 */
class GateStore : public common::ArtifactStore
{
  public:
    GateStore() { common::setArtifactStore(this); }
    ~GateStore() override { common::setArtifactStore(nullptr); }

    bool
    load(const std::string &, const std::string &,
         std::string *) override
    {
        std::unique_lock<std::mutex> lock(mutex);
        entered = true;
        changed.notify_all();
        changed.wait_for(lock, std::chrono::minutes(1),
                         [this] { return opened; });
        return false;
    }

    void
    store(const std::string &, const std::string &,
          const std::string &) override
    {
    }

    /** Wait until a load reached the gate; false on timeout. */
    bool
    awaitEntered()
    {
        std::unique_lock<std::mutex> lock(mutex);
        return changed.wait_for(lock, std::chrono::minutes(1),
                                [this] { return entered; });
    }

    void
    open()
    {
        std::lock_guard<std::mutex> lock(mutex);
        opened = true;
        changed.notify_all();
    }

  private:
    std::mutex mutex;
    std::condition_variable changed;
    bool entered = false;
    bool opened = false;
};

TEST(ServeServer, OverloadIsRejectedExplicitly)
{
    // One dispatcher and a one-slot queue. A locate holds the
    // dispatcher at the gate (its first oracle-store load), one ping
    // takes the queue's slot and the next is turned away.
    GateStore gate;
    serve::ServerConfig config;
    config.socketPath = testSocketPath("ovl");
    config.workers = 1;
    config.maxQueue = 1;

    serve::Server server(config);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    const std::string held = locateRequestDoc(3, 0).dump();
    std::string held_response;
    std::string held_error;
    std::thread holder([&] {
        serve::Client client;
        if (client.connect(config.socketPath, &held_error))
            client.request(held, &held_response, &held_error);
    });
    const bool held_at_gate = gate.awaitEntered();

    // Both pings in one write: the reader queues the first and
    // rejects the second at once, whatever the timing.
    serve::Client client;
    std::string rejection;
    const bool sent =
        client.connect(config.socketPath, &error) &&
        client.request(R"({"id": 1, "command": "ping"})"
                       "\n"
                       R"({"id": 2, "command": "ping"})",
                       &rejection, &error);
    gate.open();
    // The server skips an empty line, so this only reads the next
    // response: the queued ping's, once the dispatcher is free.
    std::string queued;
    const bool queued_answered =
        sent && client.request("", &queued, &error);
    holder.join();

    ASSERT_TRUE(held_at_gate);
    ASSERT_TRUE(sent) << error;
    const json::Value doc = parseJson(rejection);
    EXPECT_FALSE(doc.find("ok")->asBool());
    EXPECT_EQ(doc.find("id")->asUint64(), 2u)
        << "rejection must still echo the request id";
    EXPECT_NE(doc.find("error")
                  ->find("message")
                  ->asString()
                  .find("overloaded"),
              std::string::npos);

    ASSERT_TRUE(queued_answered) << error;
    const json::Value answered = parseJson(queued);
    EXPECT_TRUE(answered.find("ok")->asBool()) << queued;
    EXPECT_EQ(answered.find("id")->asUint64(), 1u);
    EXPECT_EQ(stripObs(held_response),
              stripObs(serve::handleRequestLine(held)))
        << held_error;

    server.stop();
}

TEST(ServeServer, StopIsGracefulAndIdempotent)
{
    serve::ServerConfig config;
    config.socketPath = testSocketPath("stop");
    config.workers = 2;

    serve::Server server(config);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    serve::Client client;
    ASSERT_TRUE(client.connect(config.socketPath, &error)) << error;
    std::string response;
    ASSERT_TRUE(client.request(R"({"command": "ping"})", &response,
                               &error))
        << error;

    server.stop();
    server.stop(); // idempotent

    // The socket file is gone; fresh connections fail cleanly.
    serve::Client after;
    EXPECT_FALSE(after.connect(config.socketPath, &error));
}

} // namespace
