/**
 * @file
 * google-benchmark timing harness for the substrate kernels: gate
 * application, full-program simulation, ensemble checking, and the
 * statistical tests. Establishes that breakpoint ensembles at the
 * paper's scales run in milliseconds on a laptop, versus the cluster
 * the original toolflow needed.
 */

#include <benchmark/benchmark.h>

#include "benchjson_main.hh"
#include "qsa/qsa.hh"

namespace
{

using namespace qsa;

void
BM_GateApplication(benchmark::State &state)
{
    const unsigned n = state.range(0);
    sim::StateVector sv(n);
    const auto h = sim::gates::h();
    unsigned q = 0;
    for (auto _ : state) {
        sv.applyGate(h, q);
        q = (q + 1) % n;
        benchmark::DoNotOptimize(sv);
    }
    state.SetItemsProcessed(state.iterations() * (1ull << n));
}
BENCHMARK(BM_GateApplication)->Arg(8)->Arg(13)->Arg(18);

void
BM_ControlledGate(benchmark::State &state)
{
    const unsigned n = state.range(0);
    sim::StateVector sv(n);
    const auto x = sim::gates::x();
    for (auto _ : state) {
        sv.applyControlled(x, {0, 1}, n - 1);
        benchmark::DoNotOptimize(sv);
    }
}
BENCHMARK(BM_ControlledGate)->Arg(8)->Arg(13)->Arg(18);

void
BM_BellProgram(benchmark::State &state)
{
    const auto program = algo::buildBellProgram();
    Rng rng(1);
    for (auto _ : state) {
        auto rec = circuit::runCircuit(program, rng);
        benchmark::DoNotOptimize(rec);
    }
}
BENCHMARK(BM_BellProgram);

void
BM_ShorFullCircuit(benchmark::State &state)
{
    const auto prog = algo::buildShorProgram(algo::ShorConfig());
    Rng rng(1);
    for (auto _ : state) {
        auto rec = circuit::runCircuit(prog.circuit, rng);
        benchmark::DoNotOptimize(rec);
    }
    state.counters["qubits"] = prog.circuit.numQubits();
    state.counters["instructions"] = prog.circuit.size();
}
BENCHMARK(BM_ShorFullCircuit)->Unit(benchmark::kMillisecond);

void
BM_GroverFullCircuit(benchmark::State &state)
{
    algo::GroverConfig config;
    const auto prog = algo::buildGroverProgram(config);
    Rng rng(1);
    for (auto _ : state) {
        auto rec = circuit::runCircuit(prog.circuit, rng);
        benchmark::DoNotOptimize(rec);
    }
    state.counters["qubits"] = prog.circuit.numQubits();
}
BENCHMARK(BM_GroverFullCircuit)->Unit(benchmark::kMillisecond);

void
BM_AssertionEnsembleSampled(benchmark::State &state)
{
    const auto prog = algo::buildShorProgram(algo::ShorConfig());
    assertions::CheckConfig cfg;
    cfg.ensembleSize = state.range(0);
    cfg.mode = assertions::EnsembleMode::SampleFinalState;
    assertions::AssertionChecker checker(prog.circuit, cfg);
    checker.assertEntangled("entangled", prog.upper, prog.lower);
    for (auto _ : state) {
        auto o = checker.check(checker.assertions()[0]);
        benchmark::DoNotOptimize(o);
    }
}
BENCHMARK(BM_AssertionEnsembleSampled)
    ->Arg(16)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

void
BM_AssertionEnsembleResimulated(benchmark::State &state)
{
    const auto prog = algo::buildShorProgram(algo::ShorConfig());
    assertions::CheckConfig cfg;
    cfg.ensembleSize = state.range(0);
    cfg.mode = assertions::EnsembleMode::Resimulate;
    assertions::AssertionChecker checker(prog.circuit, cfg);
    checker.assertEntangled("entangled", prog.upper, prog.lower);
    for (auto _ : state) {
        auto o = checker.check(checker.assertions()[0]);
        benchmark::DoNotOptimize(o);
    }
}
BENCHMARK(BM_AssertionEnsembleResimulated)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

void
BM_ChiSquareGof(benchmark::State &state)
{
    const std::size_t bins = state.range(0);
    std::vector<double> observed(bins);
    Rng rng(3);
    for (auto &o : observed)
        o = 90.0 + 20.0 * rng.uniform();
    const auto expected = stats::uniformExpected(bins, 100.0 * bins);
    for (auto _ : state) {
        auto res = stats::chiSquareGof(observed, expected);
        benchmark::DoNotOptimize(res);
    }
}
BENCHMARK(BM_ChiSquareGof)->Arg(16)->Arg(256)->Arg(4096);

void
BM_ContingencyTest(benchmark::State &state)
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs;
    Rng rng(5);
    for (int i = 0; i < 1024; ++i) {
        const std::uint64_t a = rng.uniformInt(16);
        pairs.emplace_back(a, (a + rng.uniformInt(3)) % 16);
    }
    const auto table = stats::ContingencyTable::fromPairs(pairs);
    for (auto _ : state) {
        auto res = stats::independenceTest(table);
        benchmark::DoNotOptimize(res);
    }
}
BENCHMARK(BM_ContingencyTest);

void
BM_H2ModelBuild(benchmark::State &state)
{
    for (auto _ : state) {
        auto model = chem::buildH2Model(73.48);
        benchmark::DoNotOptimize(model);
    }
    state.SetLabel("integrals + JW transform");
}
BENCHMARK(BM_H2ModelBuild)->Unit(benchmark::kMillisecond);

void
BM_TrotterStepCircuit(benchmark::State &state)
{
    const auto model = chem::buildH2Model(73.48);
    for (auto _ : state) {
        circuit::Circuit circ(5);
        chem::appendTrotterEvolution(circ, model.hamiltonian, 1.2, 4,
                                     {0, 1, 2, 3}, {4}, 1.5);
        benchmark::DoNotOptimize(circ);
    }
}
BENCHMARK(BM_TrotterStepCircuit);

// --- Kernel-cost fixtures (the CI gate's subject) ----------------------------
//
// Three deterministic fixtures measure the amplitude traffic one
// ensemble check costs, via qsa::obs counter deltas around a single
// seeded run taken outside the timing loop. The per-record counters
// (gate_applies, amp_touches, amp_touches_per_trial) are seeded and
// exact, so scripts/check_bench_regression.py can gate them at a
// tight tolerance: a kernel or fusion regression shows up as more
// amplitude slots touched for the same probe count, long before
// wall-clock noise would reveal it. The fused:0 / tensor:0 variants
// keep the naive-kernel cost on record so the win stays visible in
// the artifact itself. The semiclassical Shor fixture pins the
// Resimulate path walk: its tail re-simulates once per distinct
// measurement-outcome path, so a return to per-trial tails shows up
// as a many-fold rise in amp_touches_per_trial.

/** Value of one metric in a registry snapshot (0 when absent). */
std::int64_t
metricValue(const obs::Snapshot &snap, const std::string &name)
{
    for (const auto &[metric, value] : snap)
        if (metric == name)
            return value;
    return 0;
}

/** Trials per kernel-cost ensemble (fixed: cost scales with it). */
constexpr std::size_t kKernelTrials = 128;

/**
 * QFT-adder ensemble fixture. The coin measurement ends the
 * deterministic head so the whole Fourier-adder tail re-executes on
 * each of the coin's two outcome paths — the regime gate fusion is
 * for.
 */
circuit::Circuit
qftAdderFixture()
{
    circuit::Circuit circ(0);
    const auto coin = circ.addRegister("coin", 1);
    const auto b = circ.addRegister("b", 5);
    circ.h(coin.qubit(0));
    circ.measure(coin, "coin");
    circ.prepRegister(b, 12);
    algo::qft(circ, b);
    algo::phiAdd(circ, b, 9);
    algo::phiAdd(circ, b, 3);
    algo::iqft(circ, b);
    circ.breakpoint("sum");
    return circ;
}

/**
 * Swap-test probe fixture, shaped exactly like the SwapProber's
 * output: a suspect-like half on [0, n), an embedded-reference half
 * on [n, 2n), and the ancilla-controlled-SWAP comparator. A
 * mid-circuit measurement per half keeps the tails nondeterministic,
 * so the tensor split's 2^(2n+1) -> 2^n per-gate saving is what the
 * counters record.
 */
circuit::Circuit
swapProbeFixture(unsigned n)
{
    circuit::Circuit circ(0);
    const auto low = circ.addRegister("low", n);
    const auto high = circ.addRegister("high", n);
    const auto anc = circ.addRegister("anc", 1);
    const auto half = [&](const circuit::QubitRegister &r,
                          const std::string &label) {
        for (unsigned q = 0; q < n; ++q)
            circ.h(r.qubit(q));
        circ.measureQubits({r.qubit(0)}, label);
        for (unsigned q = 0; q + 1 < n; ++q)
            circ.cnot(r.qubit(q), r.qubit(q + 1));
        for (unsigned q = 0; q < n; ++q)
            circ.t(r.qubit(q));
    };
    half(low, "m_low");
    half(high, "m_high");
    const unsigned a = anc.qubit(0);
    circ.h(a);
    for (unsigned q = 0; q < n; ++q)
        circ.cswap(a, low.qubit(q), high.qubit(q));
    circ.h(a);
    circ.breakpoint("cmp");
    return circ;
}

assertions::AssertionSpec
kernelSpec(const circuit::Circuit &circ, const std::string &bp,
           const std::string &reg)
{
    assertions::AssertionSpec spec;
    spec.kind = assertions::AssertionKind::Superposition;
    spec.breakpoint = bp;
    spec.regA = circ.reg(reg);
    return spec;
}

/** One seeded ensemble check; returns the counter deltas it cost. */
void
runKernelFixture(benchmark::State &state,
                 const circuit::Circuit &circ,
                 const assertions::AssertionSpec &spec, bool fuse,
                 unsigned tensor_split,
                 std::size_t trials = kKernelTrials)
{
    assertions::CheckConfig cfg;
    cfg.ensembleSize = trials;
    cfg.mode = assertions::EnsembleMode::Resimulate;
    cfg.seed = 0x5eed;
    cfg.numThreads = 1;
    cfg.fuseGates = fuse;
    cfg.tensorSplit = tensor_split;
    const auto once = [&]() {
        const assertions::AssertionChecker checker(circ, cfg);
        return checker.check(spec);
    };

    const auto before = obs::Registry::snapshot();
    benchmark::DoNotOptimize(once());
    const auto after = obs::Registry::snapshot();
    for (auto _ : state)
        benchmark::DoNotOptimize(once());

    const auto delta = [&](const char *name) {
        return (double)(metricValue(after, name) -
                        metricValue(before, name));
    };
    state.counters["gate_applies"] = delta("sim.gate_applies");
    state.counters["amp_touches"] = delta("sim.amp_touches");
    state.counters["amp_touches_per_trial"] =
        delta("sim.amp_touches") / (double)trials;
    state.counters["fused_gates"] = delta("sim.fused_gates");
}

void
BM_KernelCostQftAdder(benchmark::State &state)
{
    const auto circ = qftAdderFixture();
    runKernelFixture(state, circ, kernelSpec(circ, "sum", "b"),
                     state.range(0) != 0, 0);
}
BENCHMARK(BM_KernelCostQftAdder)
    ->ArgName("fused")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void
BM_KernelCostSwapProbe(benchmark::State &state)
{
    constexpr unsigned n = 5;
    const auto circ = swapProbeFixture(n);
    runKernelFixture(state, circ, kernelSpec(circ, "cmp", "anc"),
                     true, state.range(0) != 0 ? n : 0);
}
BENCHMARK(BM_KernelCostSwapProbe)
    ->ArgName("tensor")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/**
 * Semiclassical Shor (t = 3) helper-cleared assertion at "final": the
 * recycled control qubit is measured three times mid-circuit, so
 * everything after the first measurement is Resimulate tail — at
 * most eight outcome paths for the 64 trials.
 */
void
BM_KernelCostSemiclassical(benchmark::State &state)
{
    const auto prog =
        algo::buildSemiclassicalShorProgram(algo::ShorConfig());
    assertions::AssertionSpec spec;
    spec.kind = assertions::AssertionKind::Classical;
    spec.breakpoint = "final";
    spec.regA = prog.helper;
    spec.expectedValue = 0;
    runKernelFixture(state, prog.circuit, spec, true, 0, 64);
}
BENCHMARK(BM_KernelCostSemiclassical)->Unit(benchmark::kMillisecond);

/**
 * Replay both kernel-cost fixtures in their optimized configuration
 * with the registry freshly reset, so the --json document's
 * "metrics" object records a fixed workload's sim.gate_applies /
 * sim.amp_touches totals (gated within tolerance by CI) and a
 * strictly positive sim.fused_gates (gated by --require-positive: a
 * zero means the fusion pass silently stopped firing, which the
 * tolerance half alone would read as "no regression").
 */
void
metricsEpilogue()
{
    obs::Registry::reset();
    const auto check = [](const circuit::Circuit &circ,
                          const assertions::AssertionSpec &spec,
                          unsigned tensor_split) {
        assertions::CheckConfig cfg;
        cfg.ensembleSize = kKernelTrials;
        cfg.mode = assertions::EnsembleMode::Resimulate;
        cfg.seed = 0x5eed;
        cfg.numThreads = 1;
        cfg.tensorSplit = tensor_split;
        const assertions::AssertionChecker checker(circ, cfg);
        benchmark::DoNotOptimize(checker.check(spec));
    };
    const auto adder = qftAdderFixture();
    check(adder, kernelSpec(adder, "sum", "b"), 0);
    const auto probe = swapProbeFixture(5);
    check(probe, kernelSpec(probe, "cmp", "anc"), 5);
}

} // anonymous namespace

QSA_BENCHJSON_MAIN_WITH_METRICS("bench_perf_kernels",
                                metricsEpilogue);
