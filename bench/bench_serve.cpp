/**
 * @file
 * qsa::serve cost: request throughput through the full NDJSON
 * pipeline (parse + validate + execute + render), the QASM parse
 * alone, and the persistent oracle store's cold-versus-warm
 * localization replay.
 *
 * The headline counters are deterministic: per-request probe work is
 * seeded, and the "hit_rate" counter on the warm-store benchmark is
 * the oracle-cache hit fraction over the timed loop — 0 when the
 * store stopped serving, which the CI gate pins via the document
 * metrics (`serve.oracle_cache.hits` strictly positive from the
 * deterministic epilogue replay). Wall-clock is reported but not
 * gated. --json <path> writes the BENCH_serve.json record.
 */

#include <unistd.h>

#include <filesystem>
#include <string>

#include <benchmark/benchmark.h>

#include "benchjson_main.hh"
#include "qsa/qsa.hh"
#include "serve/protocol.hh"
#include "serve/store.hh"

namespace
{

using namespace qsa;

constexpr const char *kBellQasm = "OPENQASM 2.0;\n"
                                  "qreg a[1];\n"
                                  "qreg b[1];\n"
                                  "h a[0];\n"
                                  "cx a[0],b[0];\n"
                                  "// qsa.breakpoint done\n";

constexpr const char *kLocateRef = "OPENQASM 2.0;\n"
                                   "qreg q[2];\n"
                                   "h q[0];\n"
                                   "cx q[0],q[1];\n"
                                   "h q[1];\n"
                                   "cx q[1],q[0];\n";

constexpr const char *kLocateSus = "OPENQASM 2.0;\n"
                                   "qreg q[2];\n"
                                   "h q[0];\n"
                                   "cx q[0],q[1];\n"
                                   "t q[1];\n"
                                   "h q[1];\n"
                                   "cx q[1],q[0];\n";

std::string
checkRequest(std::uint64_t seed)
{
    json::Value item = json::Value::object();
    item.set("at", json::Value::string("done"));
    item.set("expect", json::Value::string("entangled"));
    item.set("register", json::Value::string("a"));
    item.set("register_b", json::Value::string("b"));
    json::Value plan = json::Value::array();
    plan.push(std::move(item));

    json::Value doc = json::Value::object();
    doc.set("command", json::Value::string("check"));
    doc.set("circuit", json::Value::string(kBellQasm));
    doc.set("plan", std::move(plan));
    doc.set("seed", json::Value::integer(seed));
    doc.set("ensemble_size", json::Value::integer(128));
    return doc.dump();
}

std::string
locateRequest(std::uint64_t seed)
{
    json::Value doc = json::Value::object();
    doc.set("command", json::Value::string("locate"));
    doc.set("circuit", json::Value::string(kLocateSus));
    doc.set("reference", json::Value::string(kLocateRef));
    doc.set("seed", json::Value::integer(seed));
    doc.set("ensemble_size", json::Value::integer(128));
    return doc.dump();
}

std::int64_t
counterValue(const std::string &name)
{
    for (const auto &[key, value] : obs::Registry::snapshot())
        if (key == name)
            return value;
    return 0;
}

/** Throwaway store root, unique per process. */
std::string
freshStoreRoot(const char *tag)
{
    const std::string root = std::string("/tmp/qsa_bench_serve_") +
                             tag + "_" +
                             std::to_string(::getpid());
    std::filesystem::remove_all(root);
    return root;
}

void
BM_ServePing(benchmark::State &state)
{
    const std::string request = R"({"command": "ping"})";
    for (auto _ : state)
        benchmark::DoNotOptimize(serve::handleRequestLine(request));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServePing)->Unit(benchmark::kMicrosecond);

void
BM_ServeCheck(benchmark::State &state)
{
    const std::string request = checkRequest(21);
    for (auto _ : state)
        benchmark::DoNotOptimize(serve::handleRequestLine(request));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeCheck)->Unit(benchmark::kMillisecond);

void
BM_ServeLocateNoStore(benchmark::State &state)
{
    const std::string request = locateRequest(5);
    for (auto _ : state)
        benchmark::DoNotOptimize(serve::handleRequestLine(request));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeLocateNoStore)->Unit(benchmark::kMillisecond);

/**
 * A controlled modular multiplication mod 7 on 9 qubits, the shape of
 * the serve benchmark's wrong-inverse programs: 533 instructions, 384
 * of them with an angle.
 */
std::string
modMulQasm()
{
    circuit::Circuit circ;
    const auto ctrl = circ.addRegister("ctrl", 1);
    const auto x = circ.addRegister("x", 3);
    const auto b = circ.addRegister("b", 4);
    const auto anc = circ.addRegister("anc", 1);
    circ.prepRegister(ctrl, 1);
    circ.prepRegister(x, 6);
    circ.prepRegister(b, 0);
    circ.prepRegister(anc, 0);
    circ.h(ctrl[0]);
    algo::cUa(circ, ctrl[0], x, b, 3, 5, 7, anc[0]);
    return circuit::toQasm(circ);
}

/** circuit::fromQasm alone; items are instructions parsed. */
void
BM_FromQasm(benchmark::State &state)
{
    const std::string text = modMulQasm();
    const std::size_t instructions = circuit::fromQasm(text).size();
    for (auto _ : state)
        benchmark::DoNotOptimize(circuit::fromQasm(text));
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * instructions));
    state.counters["instructions"] = static_cast<double>(instructions);
}
BENCHMARK(BM_FromQasm)->Unit(benchmark::kMicrosecond);

void
BM_ServeLocateWarmStore(benchmark::State &state)
{
    serve::OracleStore store(freshStoreRoot("warm"));
    store.install();
    const std::string request = locateRequest(5);
    serve::handleRequestLine(request); // populate

    const std::int64_t hits0 =
        counterValue("serve.oracle_cache.hits");
    const std::int64_t misses0 =
        counterValue("serve.oracle_cache.misses");
    for (auto _ : state)
        benchmark::DoNotOptimize(serve::handleRequestLine(request));
    const double hits = static_cast<double>(
        counterValue("serve.oracle_cache.hits") - hits0);
    const double misses = static_cast<double>(
        counterValue("serve.oracle_cache.misses") - misses0);

    state.SetItemsProcessed(state.iterations());
    state.counters["hit_rate"] =
        hits + misses > 0 ? hits / (hits + misses) : 0.0;

    store.uninstall();
    std::filesystem::remove_all(store.root());
}
BENCHMARK(BM_ServeLocateWarmStore)->Unit(benchmark::kMillisecond);

/**
 * Deterministic metrics replay for the --json document: reset the
 * registry, then serve a fixed request mix against a fresh store —
 * one cold locate (misses + writes) and one warm replay (hits). The
 * CI gate requires metrics.serve.oracle_cache.hits > 0 from exactly
 * this replay, independent of how many iterations the timing loops
 * above ran.
 */
void
metricsEpilogue()
{
    obs::Registry::reset();
    serve::OracleStore store(freshStoreRoot("epilogue"));
    store.install();
    serve::handleRequestLine(locateRequest(5)); // cold: derive+persist
    serve::handleRequestLine(locateRequest(5)); // warm: replay
    serve::handleRequestLine(checkRequest(21));
    serve::handleRequestLine(R"({"command": "ping"})");
    store.uninstall();
    std::filesystem::remove_all(store.root());
}

} // anonymous namespace

QSA_BENCHJSON_MAIN_WITH_METRICS("bench_serve", metricsEpilogue);
