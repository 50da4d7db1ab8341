/**
 * @file
 * Differential tests of the engine against the executor. The engine
 * simulates each breakpoint's deterministic head once, then, in
 * Resimulate mode, each distinct measurement-outcome path of the tail
 * once instead of every trial, and in SampleFinalState mode one path
 * through the tail. On seeded generated programs with mid-circuit
 * multi-qubit Measure, PrepZ and classically conditioned gates, its
 * trial vectors must equal an uncached reference at every boundary,
 * for every thread count, in monolithic and tensor-staged plans, and
 * the simulation work it reports must not depend on the thread count.
 * The Resimulate reference is runCircuit of the truncated program on
 * Rng(seed).split(m), then measureQubits; the SampleFinalState one is
 * one runCircuit on Rng(seed).split(0), a CdfSampler over its
 * marginal, and shot m drawn from Rng(seed).split(m + 1). Every
 * comparison runs at each kernel level the host has, since the walk's
 * state-vector kernels have a body per level. The trial streams' bank
 * (runtime/streams.hh) is checked against Rng draw for draw.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "assertions/checker.hh"
#include "circuit/circuit.hh"
#include "circuit/executor.hh"
#include "common/rng.hh"
#include "obs/obs.hh"
#include "runtime/ensemble.hh"
#include "runtime/pool.hh"
#include "runtime/streams.hh"
#include "sim/kernel_level.hh"

#include "expect_throw.hh"
#include "program_generator.hh"

namespace
{

using namespace qsa;
using qsa::circuit::Circuit;
using qsa::testgen::ProgramGenerator;
using qsa::testgen::monolithicProgram;
using qsa::testgen::prologue;

/** Breakpoint prefix of the instrumented programs below. */
const std::string kBoundary = "walk_b";

/**
 * Swap-probe-shaped program: a block on the low `split` qubits, a
 * block on the next `split`, then a combining block on all 2 * split
 * + 1 qubits — the shape EngineOptions::tensorSplit stages.
 */
Circuit
stagedProgram(std::uint64_t seed, unsigned split, std::size_t count)
{
    const unsigned n = 2 * split + 1;
    Circuit circ(n);
    ProgramGenerator gen(circ, seed);
    prologue(circ, 0);
    gen.append(0, split, count);
    prologue(circ, split);
    gen.append(split, 2 * split, count);
    gen.append(0, n, count / 2);
    return circ;
}

/**
 * The readout of one boundary: a pseudo-random qubit subset, by
 * boundary in ascending order, descending, interleaved (the odd
 * positions of the ascending list, then the even ones), or ascending
 * with one qubit read a second time, so every readout position meets
 * each compact-index shift of the walk's readout.
 */
std::vector<unsigned>
readoutQubits(unsigned n, std::size_t boundary)
{
    std::vector<unsigned> qubits;
    for (unsigned q = 0; q < n; ++q)
        if (((boundary * 7 + q * 3) % 5) < 3)
            qubits.push_back(q);
    if (qubits.empty())
        qubits.push_back(static_cast<unsigned>(boundary % n));
    switch (boundary % 4) {
      case 1:
        std::reverse(qubits.begin(), qubits.end());
        break;
      case 2: {
        std::vector<unsigned> interleaved;
        for (std::size_t start : {1, 0})
            for (std::size_t i = start; i < qubits.size(); i += 2)
                interleaved.push_back(qubits[i]);
        qubits = std::move(interleaved);
        break;
      }
      case 3:
        qubits.insert(qubits.begin() + qubits.size() / 2,
                      qubits[(boundary / 4) % qubits.size()]);
        break;
      default:
        break;
    }
    return qubits;
}

/** Every kernel level this host can run. */
std::vector<sim::detail::KernelLevel>
hostLevels()
{
    std::vector<sim::detail::KernelLevel> levels;
    for (const auto level : sim::detail::kKernelLevels)
        if (sim::detail::hostSupports(level))
            levels.push_back(level);
    return levels;
}

/**
 * Uncached reference. Resimulate: trial m runs the truncated program
 * on Rng(seed).split(m), then measures the readout qubits on the same
 * stream. SampleFinalState: the truncated program runs once on
 * Rng(seed).split(0), and shot m maps a uniform from
 * Rng(seed).split(m + 1) through a CdfSampler over the final state's
 * marginal.
 */
std::vector<std::uint64_t>
referenceTrials(const Circuit &instrumented, const runtime::EnsembleSpec &spec)
{
    const Circuit truncated = instrumented.prefixUpTo(spec.breakpoint);
    const Rng master(spec.seed);
    std::vector<std::uint64_t> out(spec.shots);
    if (spec.mode == runtime::EnsembleMode::SampleFinalState) {
        Rng rng = master.split(0);
        const runtime::CdfSampler sampler(
            circuit::runCircuit(truncated, rng)
                .state.marginalProbs(spec.qubits));
        for (std::size_t m = 0; m < spec.shots; ++m)
            out[m] = sampler.sample(master.split(m + 1).uniform());
        return out;
    }
    for (std::size_t m = 0; m < spec.shots; ++m) {
        Rng rng = master.split(m);
        circuit::ExecutionRecord record =
            circuit::runCircuit(truncated, rng);
        out[m] = record.state.measureQubits(spec.qubits, rng);
    }
    return out;
}

#if QSA_OBS_ENABLED
/** The work counters the walk must keep thread-count invariant. */
std::map<std::string, std::int64_t>
workCounters()
{
    std::map<std::string, std::int64_t> out;
    for (const auto &[name, value] : obs::Registry::snapshot()) {
        if (name.rfind("sim.", 0) == 0 ||
            name.rfind("runtime.resim.", 0) == 0 ||
            name == "runtime.ensemble.trials" ||
            name == "runtime.tensor_stages.built" ||
            (name.rfind("runtime.", 0) == 0 &&
             name.find("_cache.") != std::string::npos))
            out[name] = value;
    }
    return out;
}
#endif

/**
 * Gather every boundary of `program` in `mode` at each thread count
 * and compare against the uncached reference; returns the tensor
 * stages built.
 */
std::int64_t
expectWalkMatchesReference(const Circuit &program,
                           runtime::EnsembleMode mode,
                           unsigned tensor_split, std::uint64_t seed,
                           std::size_t shots)
{
    const Circuit instrumented = program.withBoundaryBreakpoints(kBoundary);
    std::vector<runtime::EnsembleSpec> specs;
    std::vector<std::vector<std::uint64_t>> expected;
    for (std::size_t k = 0; k <= program.size(); ++k) {
        runtime::EnsembleSpec spec;
        spec.breakpoint = kBoundary + std::to_string(k);
        spec.qubits = readoutQubits(program.numQubits(), k);
        spec.shots = shots;
        spec.mode = mode;
        spec.seed = seed + k;
        expected.push_back(referenceTrials(instrumented, spec));
        specs.push_back(std::move(spec));
    }

    std::int64_t stages_built = 0;
#if QSA_OBS_ENABLED
    std::map<std::string, std::int64_t> serial_work;
#endif
    for (const auto level : hostLevels()) {
        const sim::detail::ScopedKernelLevel forced(level);
        const std::string where =
            std::string(" level=") + sim::detail::kernelLevelName(level);
        for (const unsigned threads : {1u, 4u, 0u}) {
            obs::Registry::reset();
            runtime::EnsembleEngine engine(
                instrumented, threads,
                runtime::EngineOptions{tensor_split});
            for (std::size_t i = 0; i < specs.size(); ++i) {
                EXPECT_EQ(engine.gather(specs[i]), expected[i])
                    << specs[i].breakpoint << " threads=" << threads
                    << where;
            }
#if QSA_OBS_ENABLED
            const auto work = workCounters();
            EXPECT_GT(work.at("sim.gate_applies"), 0);
            if (mode == runtime::EnsembleMode::Resimulate) {
                EXPECT_GT(work.at("runtime.resim.segments"), 0);
            }
            if (serial_work.empty())
                serial_work = work;
            else
                EXPECT_EQ(work, serial_work)
                    << "threads=" << threads << where;
            if (work.count("runtime.tensor_stages.built"))
                stages_built = work.at("runtime.tensor_stages.built");
#endif
        }
    }
    return stages_built;
}

/** Monolithic programs of seeds 1..10 in `mode`. */
void
expectMonolithicMatchReference(runtime::EnsembleMode mode)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        SCOPED_TRACE("program seed " + std::to_string(seed));
        const Circuit program =
            monolithicProgram(seed, 3 + seed % 3, 28);
        expectWalkMatchesReference(program, mode, 0, 0x9a11 * seed, 96);
    }
}

/** Staged programs of seeds 1..6 in `mode`; at least one boundary
 *  must run tensor-staged. */
void
expectStagedMatchReference(runtime::EnsembleMode mode)
{
    std::int64_t staged = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE("program seed " + std::to_string(seed));
        const unsigned split = 2 + seed % 2;
        const Circuit program = stagedProgram(seed + 100, split, 12);
        staged += expectWalkMatchesReference(program, mode, split,
                                             0x57a6 * seed, 96);
    }
#if QSA_OBS_ENABLED
    EXPECT_GT(staged, 0) << "no boundary ran tensor-staged";
#else
    (void)staged;
#endif
}

TEST(ResimWalk, MonolithicMatchesPerTrialReference)
{
    expectMonolithicMatchReference(runtime::EnsembleMode::Resimulate);
}

TEST(ResimWalk, StagedMatchesPerTrialReference)
{
    expectStagedMatchReference(runtime::EnsembleMode::Resimulate);
}

TEST(SampleFinalState, MonolithicMatchesOneRunReference)
{
    expectMonolithicMatchReference(runtime::EnsembleMode::SampleFinalState);
}

TEST(SampleFinalState, StagedMatchesOneRunReference)
{
    expectStagedMatchReference(runtime::EnsembleMode::SampleFinalState);
}

TEST(ResimWalk, ChunkedEnsemblesMatchAcrossChunkBoundaries)
{
    // Past 8192 trials the walk restarts per global chunk; gather must
    // still agree with the per-trial loop.
    const Circuit program = monolithicProgram(77, 3, 16);
    const Circuit instrumented = program.withBoundaryBreakpoints(kBoundary);
    runtime::EnsembleSpec spec;
    spec.breakpoint = kBoundary + std::to_string(program.size());
    spec.qubits = {0, 1, 2};
    spec.shots = 8192 + 517;
    spec.mode = runtime::EnsembleMode::Resimulate;
    spec.seed = 0xc4a1;
    const auto expected = referenceTrials(instrumented, spec);
    for (const auto level : hostLevels()) {
        const sim::detail::ScopedKernelLevel forced(level);
        for (const unsigned threads : {1u, 4u}) {
            runtime::EnsembleEngine engine(instrumented, threads);
            EXPECT_EQ(engine.gather(spec), expected)
                << "threads=" << threads << " level="
                << sim::detail::kernelLevelName(level);
        }
    }
}

TEST(ResimWalk, InlineInsideAWorkerMatches)
{
    // A gather issued from a pool worker (as BatchRunner units do)
    // walks inline and must give the same trials.
    const Circuit program = monolithicProgram(5, 4, 24);
    const Circuit instrumented = program.withBoundaryBreakpoints(kBoundary);
    runtime::EnsembleSpec spec;
    spec.breakpoint = kBoundary + std::to_string(program.size());
    spec.qubits = {0, 1, 2, 3};
    spec.shots = 200;
    spec.mode = runtime::EnsembleMode::Resimulate;
    spec.seed = 0x1d1e;
    const auto expected = referenceTrials(instrumented, spec);

    runtime::EnsembleEngine engine(instrumented, 0);
    runtime::ThreadPool pool(4);
    std::vector<std::vector<std::uint64_t>> got(4);
    pool.parallelFor(got.size(), [&](std::size_t i) {
        got[i] = engine.gather(spec);
    });
    for (const auto &trials : got)
        EXPECT_EQ(trials, expected);
}

TEST(ResimWalk, DeepOutcomeTreeWalksEveryPath)
{
    // Twelve independent coin measurements: up to 4096 outcome
    // histories, more than the trial count, so nearly every trial
    // ends on a path of its own.
    Circuit program(2);
    for (int round = 0; round < 12; ++round) {
        program.h(0);
        program.measureQubits({0}, "coin" + std::to_string(round));
        program.ry(1, 0.3);
        program.conditionLast("coin" + std::to_string(round), 1);
    }
    program.h(1);
    const Circuit instrumented = program.withBoundaryBreakpoints(kBoundary);
    runtime::EnsembleSpec spec;
    spec.breakpoint = kBoundary + std::to_string(program.size());
    spec.qubits = {0, 1};
    spec.shots = 1000;
    spec.mode = runtime::EnsembleMode::Resimulate;
    spec.seed = 0xdee9;
    const auto expected = referenceTrials(instrumented, spec);
    for (const unsigned threads : {1u, 4u}) {
        runtime::EnsembleEngine engine(instrumented, threads);
        EXPECT_EQ(engine.gather(spec), expected) << "threads=" << threads;
    }
}

TEST(ResimWalk, SharedQubitEntangledSpecMatchesReference)
{
    // An Entangled assertion over registers that share qubit 1: the
    // checker's joint readout {0, 1, 1, 2} reads qubit 1 twice, after
    // a tail with a mid-circuit measurement and a conditioned gate.
    Circuit program(3);
    program.h(0);
    program.cnot(0, 1);
    program.ry(2, 1.1);
    program.measureQubits({2}, "m");
    program.ry(1, 0.4);
    program.conditionLast("m", 1);
    program.cnot(1, 2);
    program.ry(0, 0.3);
    const Circuit instrumented = program.withBoundaryBreakpoints(kBoundary);

    assertions::AssertionSpec spec;
    spec.kind = assertions::AssertionKind::Entangled;
    spec.breakpoint = kBoundary + std::to_string(program.size());
    spec.regA = circuit::QubitRegister("a", {0, 1});
    spec.regB = circuit::QubitRegister("b", {1, 2});

    assertions::CheckConfig config;
    config.mode = runtime::EnsembleMode::Resimulate;
    config.ensembleSize = 600;
    config.seed = 0x5a4ed;

    runtime::EnsembleSpec request;
    request.breakpoint = spec.breakpoint;
    request.qubits = {0, 1, 1, 2};
    request.shots = config.ensembleSize;
    request.mode = config.mode;
    request.seed = config.seed;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> expected;
    for (const std::uint64_t joint : referenceTrials(instrumented, request))
        expected.emplace_back(joint & 3, joint >> 2);

    std::optional<assertions::AssertionOutcome> first;
    for (const auto level : hostLevels()) {
        const sim::detail::ScopedKernelLevel forced(level);
        for (const unsigned threads : {1u, 4u, 0u}) {
            config.numThreads = threads;
            const assertions::AssertionChecker checker(instrumented,
                                                       config);
            EXPECT_EQ(checker.gatherEnsemble(spec), expected)
                << "threads=" << threads << " level="
                << sim::detail::kernelLevelName(level);
            const auto outcome = checker.check(spec);
            if (!first) {
                first = outcome;
                continue;
            }
            EXPECT_EQ(outcome.pValue, first->pValue);
            EXPECT_EQ(outcome.statistic, first->statistic);
            EXPECT_EQ(outcome.jointCounts, first->jointCounts);
        }
    }
    // Qubit 1 reads the same both times.
    for (const auto &[a, b] : expected)
        EXPECT_EQ(a >> 1, b & 1);
}

TEST(ResimWalk, ConditionBeforeItsMeasurementThrows)
{
    // Labels get record slots once per plan, in program order, so a
    // condition on a label only a later Measure writes has a slot
    // that is still empty when the walk reaches it.
    Circuit program(2);
    program.h(0);
    program.x(1);
    program.conditionLast("m", 1);
    program.measureQubits({0}, "m");
    program.h(1);
    const Circuit instrumented = program.withBoundaryBreakpoints(kBoundary);
    runtime::EnsembleSpec spec;
    spec.breakpoint = kBoundary + std::to_string(program.size());
    spec.qubits = {0, 1};
    spec.shots = 64;
    spec.mode = runtime::EnsembleMode::Resimulate;
    for (const unsigned threads : {1u, 4u}) {
        runtime::EnsembleEngine engine(instrumented, threads);
        EXPECT_THROW_MESSAGE(engine.gather(spec), qsa::Error,
                             "unmeasured label 'm'");
    }
}

TEST(StreamBank, SlotsAreSplitStreamsDrawForDraw)
{
    // Slot i of a bank seeded (seed, first) is Rng(seed).split(first +
    // i), through seeding, discards and partitions of sub-ranges.
    const std::size_t count = 45;
    for (const std::uint64_t seed :
         {std::uint64_t{0}, std::uint64_t{1},
          std::uint64_t{0x9e3779b97f4a7c15ull}, ~std::uint64_t{0}}) {
        for (const std::uint64_t first :
             {std::uint64_t{0}, std::uint64_t{8192},
              ~std::uint64_t{0} - 20}) {
            runtime::StreamBank bank;
            bank.seed(seed, first, count);
            std::vector<Rng> ref;
            for (std::size_t i = 0; i < count; ++i) {
                EXPECT_EQ(bank.trial(i), i);
                ref.push_back(Rng(seed).split(first + i));
            }
            bank.discard(3, 40, 5);
            for (std::size_t i = 3; i < 40; ++i)
                for (int d = 0; d < 5; ++d)
                    ref[i].next();

            Rng ps(seed ^ first);
            for (int round = 0; round < 24; ++round) {
                const std::size_t lo = round % 3 == 0 ? 0 : 7;
                const std::size_t hi = round % 2 == 0 ? count : 38;
                // Certain outcomes too: they only advance the
                // streams.
                const double p = round % 6 == 1   ? 0.0
                                 : round % 6 == 4 ? 1.0
                                 : round % 5 == 0 ? 0.5
                                                  : ps.uniform();
                const std::size_t ones = bank.partition(
                    lo, hi, runtime::bernoulliThreshold(p));
                ASSERT_GE(ones, lo);
                ASSERT_LE(ones, hi);
                for (std::size_t slot = lo; slot < hi; ++slot)
                    EXPECT_EQ(slot >= ones,
                              ref[bank.trial(slot)].bernoulli(p))
                        << "seed " << seed << " first " << first
                        << " round " << round << " slot " << slot;
            }
            std::vector<bool> seen(count, false);
            for (std::size_t slot = 0; slot < count; ++slot) {
                const std::uint32_t t = bank.trial(slot);
                ASSERT_LT(t, count);
                EXPECT_FALSE(seen[t]);
                seen[t] = true;
                EXPECT_EQ(bank.uniform(slot), ref[t].uniform());
            }
        }
    }
}

TEST(StreamBank, ThresholdEqualsBernoulli)
{
    // (next() >> 11) < bernoulliThreshold(p) exactly when
    // Rng::bernoulli(p) is true on the same draw.
    std::vector<double> ps = {-0.0,
                              0.0,
                              std::numeric_limits<double>::denorm_min(),
                              0x1.0p-1060,
                              0x1.0p-53,
                              0.5,
                              1.0 - 0x1.0p-53,
                              1.0,
                              1.5,
                              std::numeric_limits<double>::quiet_NaN(),
                              -0.25};
    Rng pick(0x7e5);
    for (int i = 0; i < 200; ++i)
        ps.push_back(pick.uniform());
    Rng rng(0xd4a3);
    for (const double p : ps) {
        const std::uint64_t threshold = runtime::bernoulliThreshold(p);
        for (int i = 0; i < 500; ++i) {
            Rng peek = rng;
            const std::uint64_t draw = peek.next();
            EXPECT_EQ((draw >> 11) < threshold, rng.bernoulli(p))
                << "p=" << p << " draw=" << draw;
        }
        // The draws on either side of the threshold, as bernoulli
        // would judge them.
        for (const std::uint64_t k :
             {threshold - 1, threshold, threshold + 1}) {
            if (k >> 53)
                continue;
            EXPECT_EQ(k < threshold, qsa::detail::unitInterval(k << 11) < p)
                << "p=" << p << " k=" << k;
        }
    }
}

} // anonymous namespace
