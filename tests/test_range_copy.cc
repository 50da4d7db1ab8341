/**
 * @file
 * Differential tests of the copy-free paths. Circuit::appendRange
 * copies a range of another circuit once, plain or as its marker-free
 * adjoint; it must build exactly the program the public helpers build
 * by composition (equal contentHash() and registers), on generated
 * programs with markers, conditioned gates and dense Unitary
 * instructions. The ensemble engine truncates its program by
 * instruction range instead of copying a prefix; a gather at every
 * marker of a generated program must be bit-identical, with equal
 * sim.* work, to a gather on an engine bound to that prefix copied
 * out (prefixUpTo plus a trailing marker), in both ensemble modes,
 * with and without a checkpoint store.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "circuit/circuit.hh"
#include "common/errors.hh"
#include "common/rng.hh"
#include "obs/obs.hh"
#include "runtime/checkpoint.hh"
#include "runtime/ensemble.hh"

#include "expect_throw.hh"
#include "program_generator.hh"

namespace
{

using namespace qsa;
using qsa::circuit::Circuit;
using qsa::circuit::GateKind;
using qsa::circuit::Instruction;
using qsa::circuit::RangeCopy;
using qsa::testgen::ProgramGenerator;

/** Qubits of every generated program in this file. */
constexpr unsigned kQubits = 4;

/**
 * A generated program on kQubits qubits with a register, breakpoint
 * markers at random positions, and blocks of every generator kind:
 * measurements, resets and conditions, dense unitaries, and a
 * measure-free run of conditioned gates (the shape mirror probes
 * invert).
 */
Circuit
markedProgram(std::uint64_t seed)
{
    Circuit circ;
    circ.addRegister("q", kQubits);
    ProgramGenerator gen(circ, seed);
    Rng rng(seed ^ 0x6d61726bULL);
    testgen::prologue(circ, 0);
    std::size_t marks = 0;
    const auto mark = [&] {
        circ.breakpoint("mark" + std::to_string(marks++));
    };
    for (int block = 0; block < 3; ++block) {
        gen.appendGates(0, kQubits, 1 + rng.uniformInt(6));
        mark();
        gen.append(0, kQubits, 1 + rng.uniformInt(6));
        mark();
    }
    circ.measureQubits({1}, "cond");
    for (int k = 0; k < 8; ++k) {
        gen.appendGates(0, kQubits, 1 + rng.uniformInt(3));
        circ.ry(static_cast<unsigned>(rng.uniformInt(kQubits)),
                0.25 + k);
        circ.conditionLast("cond", rng.uniformInt(2));
        if (rng.bernoulli(0.5))
            mark();
    }
    mark();
    return circ;
}

/** `c` with its breakpoint markers left out (what a mirror unwinds). */
Circuit
withoutMarkers(const Circuit &c)
{
    Circuit out(c.numQubits());
    for (Instruction inst : c.instructions()) {
        if (inst.kind == GateKind::Breakpoint)
            continue;
        if (inst.kind == GateKind::Unitary)
            inst.matrixId = out.addMatrix(c.matrix(inst.matrixId));
        out.append(inst);
    }
    return out;
}

/** A destination that already holds a register and an instruction. */
Circuit
destination(unsigned qubits)
{
    Circuit dest;
    dest.addRegister("dest", qubits);
    dest.h(0);
    return dest;
}

void
expectSameProgram(const Circuit &direct, const Circuit &composed)
{
    EXPECT_EQ(direct.contentHash(), composed.contentHash());
    EXPECT_EQ(direct.size(), composed.size());
    ASSERT_EQ(direct.registers().size(), composed.registers().size());
    for (std::size_t r = 0; r < direct.registers().size(); ++r) {
        EXPECT_EQ(direct.registers()[r].name(),
                  composed.registers()[r].name());
        EXPECT_EQ(direct.registers()[r].qubits(),
                  composed.registers()[r].qubits());
    }
}

/** Index of the instruction after the "cond" measurement. */
std::size_t
measureFreeStart(const Circuit &c)
{
    const auto &insts = c.instructions();
    for (std::size_t i = insts.size(); i > 0; --i) {
        if (insts[i - 1].kind == GateKind::Measure)
            return i;
    }
    return 0;
}

// --- Circuit ---------------------------------------------------------------

TEST(RangeCopy, PlainRangeMatchesAppendOfSlice)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE(seed);
        const Circuit src = markedProgram(seed);
        Rng rng(seed);
        for (int trial = 0; trial < 6; ++trial) {
            std::size_t a = rng.uniformInt(src.size() + 1);
            std::size_t b = rng.uniformInt(src.size() + 1);
            if (a > b)
                std::swap(a, b);
            Circuit direct = destination(kQubits);
            direct.appendRange(src, a, b);
            Circuit composed = destination(kQubits);
            composed.appendCircuit(src.sliceRange(a, b));
            expectSameProgram(direct, composed);
        }
    }
}

TEST(RangeCopy, AdjointRangeMatchesInverseOfStrippedSlice)
{
    RangeCopy unwind;
    unwind.adjoint = true;
    unwind.invertConditioned = true;
    unwind.skipMarkers = true;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE(seed);
        const Circuit src = markedProgram(seed);
        const std::size_t start = measureFreeStart(src);
        Rng rng(seed);
        for (int trial = 0; trial < 6; ++trial) {
            std::size_t a = start + rng.uniformInt(src.size() - start + 1);
            std::size_t b = start + rng.uniformInt(src.size() - start + 1);
            if (a > b)
                std::swap(a, b);
            Circuit direct = destination(kQubits);
            direct.appendRange(src, a, b, unwind);
            Circuit composed = destination(kQubits);
            composed.appendCircuit(
                withoutMarkers(src.sliceRange(a, b)).inverse(true));
            expectSameProgram(direct, composed);
        }
    }
}

TEST(RangeCopy, RejectsWhatTheHelpersReject)
{
    const Circuit src = markedProgram(5);
    Circuit narrow(kQubits - 1);
    EXPECT_THROW_MESSAGE(narrow.appendRange(src, 0, 1), qsa::Error,
                         "appended circuit uses more qubits than the target");
    Circuit dest(kQubits);
    EXPECT_THROW_MESSAGE(dest.appendRange(src, 2, 1), qsa::Error,
                         "invalid instruction range \\[2, 1\\)");
    RangeCopy adjoint;
    adjoint.adjoint = true;
    adjoint.skipMarkers = true;
    const std::size_t start = measureFreeStart(src);
    // Back to front, the first instruction is the "cond" measurement.
    EXPECT_THROW_MESSAGE(dest.appendRange(src, 0, start, adjoint), qsa::Error,
                         "cannot invert non-unitary instruction measure");
    EXPECT_THROW_MESSAGE(
        dest.appendRange(src, start, src.size(), adjoint), qsa::Error,
        "cannot invert a classically-conditioned instruction");
}

#if QSA_OBS_ENABLED
std::int64_t
counter(const std::string &name)
{
    for (const auto &[metric, value] : obs::Registry::snapshot())
        if (metric == name)
            return value;
    return 0;
}

/** sim.* counters now. */
std::map<std::string, std::int64_t>
simWork()
{
    std::map<std::string, std::int64_t> out;
    for (const auto &[name, value] : obs::Registry::snapshot())
        if (name.rfind("sim.", 0) == 0)
            out[name] = value;
    return out;
}

/** `after` minus `before`, per counter. */
std::map<std::string, std::int64_t>
delta(const std::map<std::string, std::int64_t> &before,
      const std::map<std::string, std::int64_t> &after)
{
    std::map<std::string, std::int64_t> out = after;
    for (const auto &[name, value] : before)
        out[name] -= value;
    return out;
}

TEST(RangeCopy, CountsCopiedInstructionsOncePerCall)
{
    const Circuit src = markedProgram(7);
    std::size_t markers = 0;
    for (const auto &inst : src.instructions())
        markers += inst.kind == GateKind::Breakpoint;

    const std::int64_t before = counter("circuit.copied_instructions");
    Circuit dest(kQubits);
    dest.appendRange(src, 0, src.size());
    EXPECT_EQ(src.sliceRange(0, src.size()).size(), src.size());
    RangeCopy strip;
    strip.skipMarkers = true;
    dest.appendRange(src, 0, src.size(), strip);
    EXPECT_EQ(counter("circuit.copied_instructions") - before,
              static_cast<std::int64_t>(3 * src.size() - markers));
}
#endif

// --- Engine ----------------------------------------------------------------

/** `program` up to the marker `label`, copied out, with that marker
 *  at its end. */
Circuit
copiedPrefix(const Circuit &program, const std::string &label)
{
    Circuit prefix = program.prefixUpTo(label);
    prefix.breakpoint(label);
    return prefix;
}

runtime::EnsembleSpec
specAt(const std::string &label, std::vector<unsigned> qubits,
       runtime::EnsembleMode mode, std::uint64_t seed)
{
    runtime::EnsembleSpec spec;
    spec.breakpoint = label;
    spec.qubits = std::move(qubits);
    spec.shots = 160;
    spec.mode = mode;
    spec.seed = seed;
    return spec;
}

/**
 * Gather at every marker of `program` on one engine bound to the
 * whole program, and on one engine per marker bound to the copied
 * prefix; each pair must agree trial for trial and, with obs built
 * in, in its sim.* work. With `shared_stores`, each side's engines
 * share one checkpoint store, as a mirror search's probes do.
 */
void
expectRangeMatchesCopiedPrefix(const Circuit &program,
                               const std::vector<unsigned> &qubits,
                               runtime::EnsembleMode mode,
                               bool shared_stores)
{
    runtime::CheckpointStore whole_store;
    runtime::CheckpointStore copied_store;
    runtime::EngineOptions whole_options;
    runtime::EngineOptions copied_options;
    if (shared_stores) {
        whole_options.checkpoints = &whole_store;
        copied_options.checkpoints = &copied_store;
    }
    runtime::EnsembleEngine whole(program, 1, whole_options);
    std::uint64_t seed = 0x7a11;
    for (const std::string &label : program.breakpointLabels()) {
        SCOPED_TRACE(label);
        const auto spec = specAt(label, qubits, mode, ++seed);
        const Circuit prefix = copiedPrefix(program, label);
        runtime::EnsembleEngine copied(prefix, 1, copied_options);
#if QSA_OBS_ENABLED
        const auto start = simWork();
#endif
        const auto in_place = whole.gather(spec);
#if QSA_OBS_ENABLED
        const auto mid = simWork();
#endif
        const auto reference = copied.gather(spec);
        EXPECT_EQ(in_place, reference);
#if QSA_OBS_ENABLED
        EXPECT_EQ(delta(start, mid), delta(mid, simWork()));
#endif
    }
}

TEST(RangeTruncation, GatherAtEveryMarkerMatchesCopiedPrefix)
{
    const std::vector<unsigned> qubits{0, 2, 3};
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE(seed);
        const Circuit program = markedProgram(seed);
        for (const auto mode : {runtime::EnsembleMode::Resimulate,
                                runtime::EnsembleMode::SampleFinalState}) {
            for (const bool stores : {false, true}) {
                SCOPED_TRACE(stores ? "shared stores" : "no store");
                expectRangeMatchesCopiedPrefix(program, qubits, mode,
                                               stores);
            }
        }
    }
}

} // namespace
