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

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

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
    serve::Request request;
    std::string error;
    const bool ok = serve::parseRequest(doc, &request, &error);
    EXPECT_TRUE(ok) << error;
    if (!ok)
        return "";
    return serve::executeRequest(request).dump();
}

/** A response line minus its (timing-bearing) "obs" member. */
std::string
stripObs(const std::string &response_line)
{
    const json::Value doc = json::Value::parseOrDie(response_line);
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
    const json::Value doc = json::Value::parseOrDie(response);
    EXPECT_TRUE(doc.find("ok")->asBool());
    EXPECT_EQ(doc.find("id")->asUint64(), 7u);
    EXPECT_TRUE(doc.find("result")->find("pong")->asBool());
    ASSERT_NE(doc.find("obs"), nullptr);
    EXPECT_NE(doc.find("obs")->find("duration_ns"), nullptr);
}

TEST(ServeProtocol, MalformedJsonIsAnErrorResponse)
{
    const std::string response = serve::handleRequestLine("{nope");
    const json::Value doc = json::Value::parseOrDie(response);
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
    const json::Value doc = json::Value::parseOrDie(response);
    EXPECT_FALSE(doc.find("ok")->asBool());
    EXPECT_NE(doc.find("error")
                  ->find("message")
                  ->asString()
                  .find("unknown command"),
              std::string::npos);
}

TEST(ServeProtocol, QasmErrorsCarryPosition)
{
    const std::string response = serve::handleRequestLine(
        R"({"command": "lint",)"
        R"( "circuit": "OPENQASM 2.0;\nqreg q[1];\nzz q[0];\n"})");
    const json::Value doc = json::Value::parseOrDie(response);
    ASSERT_FALSE(doc.find("ok")->asBool());
    const json::Value *error = doc.find("error");
    ASSERT_NE(error, nullptr);
    EXPECT_EQ(error->find("line")->asUint64(), 3u);
    EXPECT_EQ(error->find("column")->asUint64(), 1u);
    EXPECT_EQ(error->find("token")->asString(), "zz");
}

TEST(ServeProtocol, PlanValidationIsPositioned)
{
    // Unknown register name in the plan: caught by validatePlan, not
    // by a fatal() inside Session.
    const std::string response = serve::handleRequestLine(
        R"({"command": "check",)"
        R"( "circuit": "OPENQASM 2.0;\nqreg q[1];\nh q[0];\n",)"
        R"( "plan": [{"after": 1, "expect": "superposition",)"
        R"( "register": "nope"}]})");
    const json::Value doc = json::Value::parseOrDie(response);
    ASSERT_FALSE(doc.find("ok")->asBool());
    EXPECT_NE(doc.find("error")
                  ->find("message")
                  ->asString()
                  .find("nope"),
              std::string::npos);
}

// --- oracle modes and derive-error survival --------------------------------

TEST(ServeProtocol, OracleFieldsAreValidated)
{
    json::Value bad_mode = locateRequestDoc(1, 0);
    bad_mode.set("oracle_mode", json::Value::string("bogus"));
    json::Value doc =
        json::Value::parseOrDie(serve::handleRequestLine(
            bad_mode.dump()));
    ASSERT_FALSE(doc.find("ok")->asBool());
    EXPECT_NE(doc.find("error")->find("message")->asString().find(
                  "oracle_mode"),
              std::string::npos);

    json::Value bad_trials = locateRequestDoc(1, 0);
    bad_trials.set("oracle_trials", json::Value::integer(0));
    doc = json::Value::parseOrDie(
        serve::handleRequestLine(bad_trials.dump()));
    ASSERT_FALSE(doc.find("ok")->asBool());
    EXPECT_NE(doc.find("error")->find("message")->asString().find(
                  "oracle_trials"),
              std::string::npos);

    json::Value wrong_command = checkRequestDoc(1, 0);
    wrong_command.set("oracle_mode", json::Value::string("sampled"));
    doc = json::Value::parseOrDie(
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
    const std::int64_t derive0 =
        counterValue("serve.requests.derive_errors");
    const std::string response = serve::handleRequestLine(
        wideLocateRequestDoc("exact").dump());
    const json::Value doc = json::Value::parseOrDie(response);

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
    EXPECT_GT(counterValue("serve.requests.derive_errors"), derive0);
}

TEST(ServeProtocol, SampledOracleLocatesTheWideMeasurementProgram)
{
    // The same over-cap pair localizes under the sampled oracle (and
    // under the default auto mode, which falls back to it).
    for (const char *mode : {"sampled", ""}) {
        const std::string response = serve::handleRequestLine(
            wideLocateRequestDoc(mode).dump());
        const json::Value doc = json::Value::parseOrDie(response);
        ASSERT_TRUE(doc.find("ok")->asBool())
            << "mode '" << mode << "': " << response;
        const json::Value *result = doc.find("result");
        ASSERT_NE(result, nullptr);
        EXPECT_TRUE(result->find("bug_found")->asBool())
            << "mode '" << mode << "': " << response;
    }
}

TEST(ServeProtocol, SwapTestWidthGateMatchesTheLocator)
{
    // The daemon accepts exactly the widths the in-process locator
    // accepts: swap-test probes up to locate::kSwapQubitGate = 11.
    EXPECT_EQ(locate::kSwapQubitGate, 11u);
    serve::Request request;
    std::string error;
    EXPECT_TRUE(serve::parseRequest(
        ladderLocateDoc(11, "swap_test", "sample_final_state"), &request,
        &error))
        << error;

    const json::Value doc = json::Value::parseOrDie(
        serve::handleRequestLine(
            ladderLocateDoc(12, "swap_test", "sample_final_state")
                .dump()));
    ASSERT_FALSE(doc.find("ok")->asBool());
    EXPECT_NE(doc.find("error")->find("message")->asString().find(
                  "swap_test probes support at most 11 qubits"),
              std::string::npos);
}

TEST(ServeProtocol, MirrorWidthGatesMatchTheLocator)
{
    // Full-space mirror probes fatal past their width gates when the
    // prober is built; a daemon run with a high --max-qubits must
    // reject such requests instead.
    serve::Limits limits;
    limits.maxQubits = 25;
    const unsigned resim_gate = locate::kResimMirrorQubitGate;
    for (const char *family : {"segment_mirror", "auto"}) {
        serve::Request request;
        std::string error;
        EXPECT_TRUE(serve::parseRequest(
            ladderLocateDoc(resim_gate, family, "resimulate"), &request,
            &error, nullptr, limits))
            << family << ": " << error;
        EXPECT_FALSE(serve::parseRequest(
            ladderLocateDoc(resim_gate + 1, family, "resimulate"),
            &request, &error, nullptr, limits))
            << family;
        EXPECT_NE(error.find("resimulate segment-mirror probes"),
                  std::string::npos)
            << error;
        EXPECT_TRUE(serve::parseRequest(
            ladderLocateDoc(resim_gate + 1, family, "sample_final_state"),
            &request, &error, nullptr, limits))
            << family << ": " << error;
        EXPECT_FALSE(serve::parseRequest(
            ladderLocateDoc(locate::kMirrorQubitGate + 1, family,
                            "sample_final_state"),
            &request, &error, nullptr, limits))
            << family;
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

TEST(ServeOracleStore, WarmReplayIsByteIdenticalAndHits)
{
    const std::string root = ::testing::TempDir() + "qsa_store_" +
                             std::to_string(::getpid());

    serve::OracleStore store(root);
    store.install();

    const std::int64_t writes0 =
        counterValue("serve.oracle_cache.writes");
    const std::string cold = resultDump(locateRequestDoc(5, 0));
    const std::int64_t writes1 =
        counterValue("serve.oracle_cache.writes");
    EXPECT_GT(writes1, writes0)
        << "cold run derived nothing worth persisting";

    const std::int64_t hits0 =
        counterValue("serve.oracle_cache.hits");
    const std::int64_t misses0 =
        counterValue("serve.oracle_cache.misses");
    const std::string warm = resultDump(locateRequestDoc(5, 0));
    const std::int64_t hits1 =
        counterValue("serve.oracle_cache.hits");
    const std::int64_t misses1 =
        counterValue("serve.oracle_cache.misses");

    EXPECT_EQ(cold, warm)
        << "a persisted artifact changed the localization verdict";
    EXPECT_GT(hits1, hits0) << "warm replay never consulted the store";
    EXPECT_EQ(misses1, misses0)
        << "warm replay re-derived something it just persisted";

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
    const std::int64_t evictions0 =
        counterValue("serve.oracle_cache.evictions");

    store.store("predicates", "key-a", R"({"payload": "a"})");
    store.store("predicates", "key-b", R"({"payload": "b"})");
    EXPECT_EQ(counterValue("serve.oracle_cache.evictions"),
              evictions0)
        << "a store within bounds must not evict";

    store.store("predicates", "key-c", R"({"payload": "c"})");
    EXPECT_GT(counterValue("serve.oracle_cache.evictions"),
              evictions0)
        << "the third entry must push one out";

    // At most two complete entries survive on disk...
    std::size_t on_disk = 0;
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(root))
        if (entry.is_regular_file() &&
            entry.path().extension() == ".json")
            ++on_disk;
    EXPECT_LE(on_disk, 2u);

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
        const json::Value doc = json::Value::parseOrDie(response);
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
        const json::Value doc = json::Value::parseOrDie(response);
        EXPECT_TRUE(doc.find("ok")->asBool()) << response;
    }
    EXPECT_EQ(stripObs(response),
              stripObs(serve::handleRequestLine(follow_up)));

    // And the sampled escape hatch the error advertised works here.
    ASSERT_TRUE(client.request(wideLocateRequestDoc("sampled").dump(),
                               &response, &error))
        << error;
    {
        const json::Value doc = json::Value::parseOrDie(response);
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
        const json::Value doc = json::Value::parseOrDie(response);
        ASSERT_FALSE(doc.find("ok")->asBool()) << response;
        EXPECT_NE(doc.find("error")->find("message")->asString().find(
                      "at most 16 qubits"),
                  std::string::npos)
            << response;
    }

    const std::string follow_up = locateRequestDoc(3, 0).dump();
    ASSERT_TRUE(client.request(follow_up, &response, &error)) << error;
    EXPECT_TRUE(json::Value::parseOrDie(response).find("ok")->asBool())
        << response;
    EXPECT_EQ(stripObs(response),
              stripObs(serve::handleRequestLine(follow_up)));

    server.stop();
}

TEST(ServeServer, OverloadIsRejectedExplicitly)
{
    serve::ServerConfig config;
    config.socketPath = testSocketPath("ovl");
    config.workers = 1;
    config.maxQueue = 0; // every request overloads, deterministically

    serve::Server server(config);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    serve::Client client;
    ASSERT_TRUE(client.connect(config.socketPath, &error)) << error;
    std::string response;
    ASSERT_TRUE(client.request(R"({"id": 1, "command": "ping"})",
                               &response, &error))
        << error;
    const json::Value doc = json::Value::parseOrDie(response);
    EXPECT_FALSE(doc.find("ok")->asBool());
    EXPECT_EQ(doc.find("id")->asUint64(), 1u)
        << "rejection must still echo the request id";
    EXPECT_NE(doc.find("error")
                  ->find("message")
                  ->asString()
                  .find("overloaded"),
              std::string::npos);

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
