/**
 * @file
 * Throughput scaling of the qsa::runtime ensemble engine: shots/sec
 * versus worker-thread count, in both ensemble modes, plus the
 * BatchRunner fan-out. The Resimulate numbers are the ones that mirror
 * the paper's cluster workload (one simulation per ensemble member);
 * on an N-core machine they should scale near-linearly until the
 * memory bandwidth saturates, with bit-identical histograms at every
 * thread count (the determinism contract of runtime/ensemble.hh).
 *
 * Run with --benchmark_counters_tabular=true for a shots/sec table,
 * and with --json <path> for the machine-readable BENCH_*.json record.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "benchjson_main.hh"
#include "qsa/qsa.hh"

namespace
{

using namespace qsa;

/** Grover search program: deep enough that a trial has real cost. */
const algo::GroverProgram &
groverProgram()
{
    static const auto prog = algo::buildGroverProgram(algo::GroverConfig());
    return prog;
}

/** A gathered ensemble folded into its outcome histogram. */
std::map<std::uint64_t, std::uint64_t>
histogramOf(const std::vector<std::uint64_t> &trials)
{
    std::map<std::uint64_t, std::uint64_t> hist;
    for (std::uint64_t value : trials)
        ++hist[value];
    return hist;
}

void
BM_ResimulateScaling(benchmark::State &state)
{
    const auto &prog = groverProgram();
    const std::size_t shots = 64;

    runtime::EnsembleEngine engine(prog.circuit,
                                   (unsigned)state.range(0));
    runtime::EnsembleSpec spec;
    spec.breakpoint = prog.circuit.breakpointLabels().back();
    spec.qubits = prog.circuit.registers().front().qubits();
    spec.shots = shots;
    spec.mode = runtime::EnsembleMode::Resimulate;
    spec.seed = 0x51c0ffee;

    for (auto _ : state) {
        auto hist = histogramOf(engine.gather(spec));
        benchmark::DoNotOptimize(hist);
    }
    state.SetItemsProcessed(state.iterations() * shots);
    state.counters["threads"] = (double)state.range(0);
    state.counters["shots/s"] = benchmark::Counter(
        (double)(state.iterations() * shots),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ResimulateScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void
BM_SampleFinalStateScaling(benchmark::State &state)
{
    const auto &prog = groverProgram();
    const std::size_t shots = 1 << 20;

    runtime::EnsembleEngine engine(prog.circuit,
                                   (unsigned)state.range(0));
    runtime::EnsembleSpec spec;
    spec.breakpoint = prog.circuit.breakpointLabels().back();
    spec.qubits = prog.circuit.registers().front().qubits();
    spec.shots = shots;
    spec.mode = runtime::EnsembleMode::SampleFinalState;
    spec.seed = 0x51c0ffee;

    // Warm the plan and sampler caches so the loop times pure
    // sampling.
    benchmark::DoNotOptimize(engine.gather(spec));

    for (auto _ : state) {
        auto hist = histogramOf(engine.gather(spec));
        benchmark::DoNotOptimize(hist);
    }
    state.SetItemsProcessed(state.iterations() * shots);
    state.counters["threads"] = (double)state.range(0);
    state.counters["shots/s"] = benchmark::Counter(
        (double)(state.iterations() * shots),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SampleFinalStateScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void
BM_BatchFanout(benchmark::State &state)
{
    // Many assertion units across one pool: the production shape of a
    // debugging sweep (several program variants, several assertions),
    // one checker per program, every (program, assertion) unit fanned
    // out through the runner. Ensembles run inline on the batch
    // workers.
    const auto &prog = groverProgram();
    assertions::CheckConfig cfg;
    cfg.ensembleSize = 128;

    std::vector<assertions::AssertionSpec> specs;
    {
        assertions::AssertionChecker proto(prog.circuit, cfg);
        for (const auto &label : prog.circuit.breakpointLabels())
            proto.assertSuperposition(
                label, prog.circuit.registers().front());
        specs = proto.assertions();
    }
    const std::vector<const circuit::Circuit *> programs(4, &prog.circuit);

    runtime::BatchRunner runner((unsigned)state.range(0));
    for (auto _ : state) {
        std::vector<std::unique_ptr<assertions::AssertionChecker>> checkers;
        for (const auto *program : programs)
            checkers.push_back(
                std::make_unique<assertions::AssertionChecker>(*program,
                                                               cfg));
        std::vector<assertions::AssertionOutcome> outcomes(
            programs.size() * specs.size());
        runner.forEach(outcomes.size(), [&](std::size_t k) {
            outcomes[k] =
                checkers[k / specs.size()]->check(specs[k % specs.size()]);
        });
        benchmark::DoNotOptimize(outcomes);
    }
    state.SetItemsProcessed(state.iterations() * programs.size() *
                            specs.size());
    state.counters["threads"] = (double)state.range(0);
}
BENCHMARK(BM_BatchFanout)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

} // anonymous namespace

QSA_BENCHJSON_MAIN("bench_runtime_scaling");
