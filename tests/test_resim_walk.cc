/**
 * @file
 * Differential tests of the Resimulate path walk. The engine simulates
 * each distinct measurement-outcome path once instead of every trial;
 * on seeded generated programs with mid-circuit multi-qubit Measure,
 * PrepZ and classically conditioned gates, its trial vectors must
 * equal an uncached per-trial reference — runCircuit of the truncated
 * program on Rng(seed).split(m), then measureQubits — at every
 * boundary, for every thread count, in monolithic and tensor-staged
 * plans, and the simulation work it reports must not depend on the
 * thread count.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "circuit/circuit.hh"
#include "circuit/executor.hh"
#include "circuit/fusion.hh"
#include "common/rng.hh"
#include "obs/obs.hh"
#include "runtime/ensemble.hh"
#include "runtime/pool.hh"

namespace
{

using namespace qsa;
using qsa::circuit::Circuit;

/** Breakpoint prefix of the instrumented programs below. */
const std::string kBoundary = "walk_b";

/**
 * Seeded program generator. Appends `count` random instructions on
 * qubits [lo, hi): one-qubit Clifford+T and rotations, controlled
 * gates, mid-circuit Measure of one or two qubits (labels are reused
 * now and then, exercising overwrite semantics), PrepZ to either bit,
 * and gates or resets conditioned on a label measured earlier.
 */
class ProgramGenerator
{
  public:
    ProgramGenerator(Circuit &circ, std::uint64_t seed)
        : circ(circ), rng(seed)
    {
    }

    void
    append(unsigned lo, unsigned hi, std::size_t count)
    {
        for (std::size_t i = 0; i < count; ++i)
            appendOne(lo, hi);
    }

  private:
    Circuit &circ;
    Rng rng;

    /** Labels measured so far, with their widths. */
    std::vector<std::pair<std::string, unsigned>> labels;

    unsigned
    pick(unsigned lo, unsigned hi)
    {
        return lo + static_cast<unsigned>(rng.uniformInt(hi - lo));
    }

    /** A qubit of [lo, hi) other than `q`. */
    unsigned
    other(unsigned lo, unsigned hi, unsigned q)
    {
        const unsigned r = pick(lo, hi - 1);
        return r >= q ? r + 1 : r;
    }

    double
    angle()
    {
        return 6.283185307179586 * rng.uniform();
    }

    void
    appendOne(unsigned lo, unsigned hi)
    {
        const unsigned q = pick(lo, hi);
        switch (rng.uniformInt(14)) {
          case 0: circ.h(q); break;
          case 1: circ.t(q); break;
          case 2: circ.tdg(q); break;
          case 3: circ.s(q); break;
          case 4: circ.rx(q, angle()); break;
          case 5: circ.ry(q, angle()); break;
          case 6: circ.rz(q, angle()); break;
          case 7: circ.cnot(q, other(lo, hi, q)); break;
          case 8: circ.crz(q, other(lo, hi, q), angle()); break;
          case 9: {
            if (hi - lo < 3) {
                circ.cz(q, other(lo, hi, q));
                break;
            }
            const unsigned c1 = other(lo, hi, q);
            unsigned t = pick(lo, hi);
            while (t == q || t == c1)
                t = pick(lo, hi);
            circ.ccnot(q, c1, t);
            break;
          }
          case 10:
          case 11: {
            std::vector<unsigned> targets{q};
            if (rng.bernoulli(0.5))
                targets.push_back(other(lo, hi, q));
            std::string label;
            if (!labels.empty() && rng.bernoulli(0.25)) {
                label = labels[rng.uniformInt(labels.size())].first;
            } else {
                label = "m" + std::to_string(labels.size());
            }
            circ.measureQubits(targets, label);
            bool known = false;
            for (auto &[name, width] : labels) {
                if (name == label) {
                    width = static_cast<unsigned>(targets.size());
                    known = true;
                }
            }
            if (!known)
                labels.emplace_back(label,
                                    static_cast<unsigned>(targets.size()));
            break;
          }
          case 12: circ.prepZ(q, static_cast<unsigned>(rng.uniformInt(2)));
            break;
          default: {
            if (labels.empty()) {
                circ.h(q);
                break;
            }
            const auto &[label, width] =
                labels[rng.uniformInt(labels.size())];
            if (rng.bernoulli(0.3))
                circ.prepZ(q, 1);
            else if (rng.bernoulli(0.5))
                circ.x(q);
            else
                circ.ry(q, angle());
            circ.conditionLast(label, rng.uniformInt(1ull << width));
            break;
          }
        }
    }
};

/**
 * Block prologue: a reset whose outcome is certain (the engine's
 * cached head absorbs it, and each trial must skip its draw) and a
 * Hadamard, so no block starts with a measurement.
 */
void
prologue(Circuit &circ, unsigned q)
{
    circ.prepZ(q, 1);
    circ.h(q);
}

/** Monolithic program on `n` qubits. */
Circuit
monolithicProgram(std::uint64_t seed, unsigned n, std::size_t count)
{
    Circuit circ(n);
    ProgramGenerator gen(circ, seed);
    prologue(circ, 0);
    gen.append(0, n, count);
    return circ;
}

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

/** The readout of one boundary: a pseudo-random qubit subset. */
std::vector<unsigned>
readoutQubits(unsigned n, std::size_t boundary)
{
    std::vector<unsigned> qubits;
    for (unsigned q = 0; q < n; ++q)
        if (((boundary * 7 + q * 3) % 5) < 3)
            qubits.push_back(q);
    if (qubits.empty())
        qubits.push_back(static_cast<unsigned>(boundary % n));
    return qubits;
}

/**
 * Uncached per-trial reference: trial m runs the truncated program
 * (fused exactly as the engine fuses it) on Rng(seed).split(m), then
 * measures the readout qubits on the same stream.
 */
std::vector<std::uint64_t>
referenceTrials(const Circuit &instrumented, const runtime::EnsembleSpec &spec)
{
    const Circuit truncated =
        circuit::fuseGates(instrumented.prefixUpTo(spec.breakpoint));
    const Rng master(spec.seed);
    std::vector<std::uint64_t> out(spec.shots);
    for (std::size_t m = 0; m < spec.shots; ++m) {
        Rng rng = master.split(m);
        circuit::ExecutionRecord record =
            circuit::runCircuit(truncated, rng);
        out[m] = record.state.measureQubits(spec.qubits, rng);
    }
    return out;
}

std::map<std::uint64_t, std::uint64_t>
histogramOf(const std::vector<std::uint64_t> &values)
{
    std::map<std::uint64_t, std::uint64_t> hist;
    for (std::uint64_t v : values)
        ++hist[v];
    return hist;
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
 * Gather every boundary of `program` at each thread count and compare
 * against the per-trial reference; returns the tensor stages built.
 */
std::int64_t
expectWalkMatchesReference(const Circuit &program, unsigned tensor_split,
                           std::uint64_t seed, std::size_t shots)
{
    const Circuit instrumented = program.withBoundaryBreakpoints(kBoundary);
    std::vector<runtime::EnsembleSpec> specs;
    std::vector<std::vector<std::uint64_t>> expected;
    for (std::size_t k = 0; k <= program.size(); ++k) {
        runtime::EnsembleSpec spec;
        spec.breakpoint = kBoundary + std::to_string(k);
        spec.qubits = readoutQubits(program.numQubits(), k);
        spec.shots = shots;
        spec.mode = runtime::SampleMode::Resimulate;
        spec.seed = seed + k;
        expected.push_back(referenceTrials(instrumented, spec));
        specs.push_back(std::move(spec));
    }

    std::int64_t stages_built = 0;
#if QSA_OBS_ENABLED
    std::map<std::string, std::int64_t> serial_work;
#endif
    for (const unsigned threads : {1u, 4u, 0u}) {
        obs::Registry::reset();
        runtime::EnsembleEngine engine(
            instrumented, threads,
            runtime::EngineOptions{true, tensor_split});
        for (std::size_t i = 0; i < specs.size(); ++i) {
            EXPECT_EQ(engine.gather(specs[i]), expected[i])
                << specs[i].breakpoint << " threads=" << threads;
            EXPECT_EQ(engine.gatherHistogram(specs[i]),
                      histogramOf(expected[i]))
                << specs[i].breakpoint << " threads=" << threads;
        }
#if QSA_OBS_ENABLED
        const auto work = workCounters();
        EXPECT_GT(work.at("sim.gate_applies"), 0);
        EXPECT_GT(work.at("runtime.resim.segments"), 0);
        if (threads == 1)
            serial_work = work;
        else
            EXPECT_EQ(work, serial_work) << "threads=" << threads;
        if (work.count("runtime.tensor_stages.built"))
            stages_built = work.at("runtime.tensor_stages.built");
#endif
    }
    return stages_built;
}

TEST(ResimWalk, MonolithicMatchesPerTrialReference)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        SCOPED_TRACE("program seed " + std::to_string(seed));
        const Circuit program =
            monolithicProgram(seed, 3 + seed % 3, 28);
        expectWalkMatchesReference(program, 0, 0x9a11 * seed, 96);
    }
}

TEST(ResimWalk, StagedMatchesPerTrialReference)
{
    std::int64_t staged = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE("program seed " + std::to_string(seed));
        const unsigned split = 2 + seed % 2;
        const Circuit program = stagedProgram(seed + 100, split, 12);
        staged += expectWalkMatchesReference(program, split,
                                             0x57a6 * seed, 96);
    }
#if QSA_OBS_ENABLED
    EXPECT_GT(staged, 0) << "no boundary ran tensor-staged";
#else
    (void)staged;
#endif
}

TEST(ResimWalk, ChunkedEnsemblesMatchAcrossChunkBoundaries)
{
    // Past 8192 trials the walk restarts per global chunk; gather and
    // gatherHistogram must still agree with the per-trial loop.
    const Circuit program = monolithicProgram(77, 3, 16);
    const Circuit instrumented = program.withBoundaryBreakpoints(kBoundary);
    runtime::EnsembleSpec spec;
    spec.breakpoint = kBoundary + std::to_string(program.size());
    spec.qubits = {0, 1, 2};
    spec.shots = 8192 + 517;
    spec.mode = runtime::SampleMode::Resimulate;
    spec.seed = 0xc4a1;
    const auto expected = referenceTrials(instrumented, spec);
    for (const unsigned threads : {1u, 4u}) {
        runtime::EnsembleEngine engine(instrumented, threads);
        EXPECT_EQ(engine.gather(spec), expected) << "threads=" << threads;
        EXPECT_EQ(engine.gatherHistogram(spec), histogramOf(expected))
            << "threads=" << threads;
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
    spec.mode = runtime::SampleMode::Resimulate;
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
    spec.mode = runtime::SampleMode::Resimulate;
    spec.seed = 0xdee9;
    const auto expected = referenceTrials(instrumented, spec);
    for (const unsigned threads : {1u, 4u}) {
        runtime::EnsembleEngine engine(instrumented, threads);
        EXPECT_EQ(engine.gather(spec), expected) << "threads=" << threads;
    }
}

} // anonymous namespace
