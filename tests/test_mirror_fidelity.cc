/**
 * @file
 * Mirror probes without the unwind. A mirror probe whose segment
 * starts at the PrepZ prologue has a checker paired with the reference
 * (runtime::EngineOptions::reference, runtime::Pairing::Mirror): it
 * simulates the suspect prefix and the reference prefix forward and
 * reads one bit per trial, 0 with probability
 * F = |<psi_ref(b)|psi_sus(b)>|^2. The probe program it replaced
 * (unwindProgram, the reference implementation: the suspect prefix,
 * then the reference's adjoint back to the prologue, asserted to
 * return the prologue value v0) returns with probability
 * P_unwind(v0) = F.
 *
 * On seeded measurement-free generated pairs with a zero and a nonzero
 * prologue, at every boundary: |F - P_unwind(v0)| <= 1e-12; where the
 * prologue value is 0, the paired check's trial bits, counts and
 * p-value equal the unwind checker's trial for trial, in both ensemble
 * modes at 1, 4 and 0 threads, with thread-count invariant work. On
 * the full Shor pair, replaying the paired search's probes as unwind
 * probes through a checkpoint store of their own reaches every verdict
 * the search reached, with more simulated gates and more copied
 * instructions than the search, whose counters do not depend on the
 * thread count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "../bench/locate_fixtures.hh"
#include "program_generator.hh"
#include "qsa/qsa.hh"

namespace
{

using namespace qsa;
using circuit::Circuit;
using circuit::QubitRegister;

/** Qubits of every generated pair. */
constexpr unsigned kQubits = 4;

/** Breakpoint every checker reads at. */
const std::string kRead = "mirror";

/**
 * A generated measurement-free reference, PrepZ of each qubit q to
 * bit q of `v0` and then a gate run with dense unitaries, and a
 * suspect that replaces one gate of the run with a rotation.
 */
struct MirrorPair
{
    Circuit suspect{kQubits};
    Circuit reference{kQubits};
    std::uint64_t v0 = 0;
};

MirrorPair
mirrorPair(std::uint64_t seed, std::uint64_t v0)
{
    MirrorPair pair;
    pair.v0 = v0;
    for (unsigned q = 0; q < kQubits; ++q)
        pair.reference.prepZ(q, static_cast<unsigned>((v0 >> q) & 1));
    testgen::ProgramGenerator gen(pair.reference, seed);
    gen.appendGates(0, kQubits, 24);
    const std::size_t site = kQubits + 9;
    const unsigned target = pair.reference.instructions()[site].targets[0];
    pair.suspect = pair.reference.sliceRange(0, site);
    pair.suspect.ry(target, 0.4);
    pair.suspect.appendRange(pair.reference, site + 1,
                             pair.reference.size());
    return pair;
}

/** Length of the PrepZ prologue of `circ`. */
std::size_t
prologueOf(const Circuit &circ)
{
    std::size_t k = 0;
    while (k < circ.size() &&
           circ.instructions()[k].kind == circuit::GateKind::PrepZ)
        ++k;
    return k;
}

/**
 * The unwind probe at `b` (the reference implementation): the suspect
 * prefix, then the reversed adjoint of the reference's [prologue, b)
 * with its markers skipped, read at kRead. With a `floor`, the suspect
 * prefix carries an adaptive search's checkpoint markers: at the
 * floor, at the midpoint above it and at the boundary.
 */
Circuit
unwindProgram(const Circuit &suspect, const Circuit &reference,
              std::size_t prologue, std::size_t b,
              const std::size_t *floor = nullptr)
{
    Circuit probe = suspect.sliceRange(0, floor != nullptr ? *floor : b);
    if (floor != nullptr) {
        probe.breakpoint("floor");
        const std::size_t mid = *floor + (b - *floor) / 2;
        if (mid > *floor) {
            probe.appendRange(suspect, *floor, mid);
            probe.breakpoint("midpoint");
        }
        probe.appendRange(suspect, mid, b);
        probe.breakpoint("boundary");
    }
    if (b > prologue) {
        circuit::RangeCopy unwind;
        unwind.adjoint = true;
        unwind.invertConditioned = true;
        unwind.skipMarkers = true;
        probe.appendRange(reference, prologue, b, unwind);
    }
    probe.breakpoint(kRead);
    return probe;
}

/** The paired probe at `b`: the suspect prefix with markers at b / 2
 *  and at b, which must not move the reference's end, read at kRead. */
Circuit
pairedProgram(const Circuit &suspect, std::size_t b)
{
    Circuit probe = suspect.sliceRange(0, b / 2);
    probe.breakpoint("half");
    probe.appendRange(suspect, b / 2, b);
    probe.breakpoint("end");
    probe.breakpoint(kRead);
    return probe;
}

/** The state after the first `b` instructions of `circ`. */
sim::StateVector
stateAfter(const Circuit &circ, std::size_t b)
{
    sim::StateVector state(circ.numQubits());
    std::map<std::string, std::uint64_t> record;
    Rng rng(0);
    circuit::runCircuitOn(circ.sliceRange(0, b), state, record, rng);
    return state;
}

/** The unwind probe's assertion: every qubit reads `value`. */
assertions::AssertionSpec
unwindSpec(unsigned n, std::uint64_t value)
{
    std::vector<unsigned> all(n);
    for (unsigned q = 0; q < n; ++q)
        all[q] = q;
    assertions::AssertionSpec spec;
    spec.kind = assertions::AssertionKind::Classical;
    spec.breakpoint = kRead;
    spec.regA = QubitRegister("all", all);
    spec.expectedValue = value;
    return spec;
}

/** The paired probe's assertion: its one bit, outside the program,
 *  reads 0. */
assertions::AssertionSpec
bitSpec(unsigned n)
{
    assertions::AssertionSpec spec;
    spec.kind = assertions::AssertionKind::Classical;
    spec.breakpoint = kRead;
    spec.regA = QubitRegister("bit", {n});
    spec.expectedValue = 0;
    return spec;
}

runtime::EngineOptions
mirrorOptions(const Circuit &reference)
{
    runtime::EngineOptions options;
    options.reference = &reference;
    options.pairing = runtime::Pairing::Mirror;
    return options;
}

#if QSA_OBS_ENABLED
/**
 * The deterministic counters of the last run: everything but the
 * pool's scheduling counters and the timers' nanoseconds.
 */
std::map<std::string, std::int64_t>
work()
{
    std::map<std::string, std::int64_t> out;
    for (const auto &[name, value] : obs::Registry::snapshot()) {
        const bool timing =
            name.size() > 3 && name.compare(name.size() - 3, 3, ".ns") == 0;
        if (!timing && name.rfind("runtime.pool", 0) != 0)
            out[name] = value;
    }
    return out;
}
#endif

/**
 * Every boundary of `pair` in `mode`: the fidelity against the
 * unwind's return probability, then, at 1, 4 and 0 threads, the paired
 * check against the unwind checker, trial for trial where the prologue
 * value is 0 and verdict for verdict where F is certain to decide.
 */
void
expectPairedMatchesUnwind(const MirrorPair &pair,
                          assertions::EnsembleMode mode, std::uint64_t seed)
{
    const std::size_t prologue = prologueOf(pair.reference);
    const std::size_t common =
        std::min(pair.suspect.size(), pair.reference.size());
    assertions::CheckConfig cfg;
    cfg.ensembleSize = 160;
    cfg.mode = mode;
    std::size_t compared = 0;
    for (std::size_t b = 1; b <= common; ++b) {
        SCOPED_TRACE("boundary " + std::to_string(b));
        // The prologue value the unwind lands on (below the end of the
        // prologue, the reference's value after b resets).
        const std::uint64_t value =
            pair.v0 & ((std::uint64_t{1} << std::min(b, prologue)) - 1);
        const Circuit unwind_program =
            unwindProgram(pair.suspect, pair.reference, prologue, b);
        const double fidelity = stateAfter(pair.suspect, b)
                                    .fidelity(stateAfter(pair.reference, b));
        const double returned =
            std::norm(stateAfter(unwind_program, unwind_program.size())
                          .amplitudes()[value]);
        EXPECT_NEAR(fidelity, returned, 1e-12);

        cfg.seed = seed + b;
        cfg.numThreads = 1;
        const assertions::AssertionChecker unwind(unwind_program, cfg);
        const auto expected = unwind.gatherEnsemble(unwindSpec(kQubits, value));
        const auto expected_outcome = unwind.check(unwindSpec(kQubits, value));
        std::vector<std::uint64_t> expected_bits;
        for (const auto &trial : expected)
            expected_bits.push_back(trial.first == value ? 0 : 1);
        const auto matched = expected_outcome.countsA.find(value);
        const std::uint64_t expected_matches =
            matched == expected_outcome.countsA.end() ? 0 : matched->second;

#if QSA_OBS_ENABLED
        std::map<unsigned, std::map<std::string, std::int64_t>> paired_work;
#endif
        for (const unsigned threads : {1u, 4u, 0u}) {
            cfg.numThreads = threads;
            obs::Registry::reset();
            const assertions::AssertionChecker paired(
                pairedProgram(pair.suspect, b), cfg,
                mirrorOptions(pair.reference));
            const auto gathered = paired.gatherEnsemble(bitSpec(kQubits));
            const auto outcome = paired.check(bitSpec(kQubits));
#if QSA_OBS_ENABLED
            paired_work[threads] = work();
#endif
            std::vector<std::uint64_t> bits;
            for (const auto &trial : gathered)
                bits.push_back(trial.first);
            const auto zeros = outcome.countsA.find(0);
            const std::uint64_t matches =
                zeros == outcome.countsA.end() ? 0 : zeros->second;
            if (value == 0) {
                EXPECT_EQ(bits, expected_bits) << "threads=" << threads;
                EXPECT_EQ(matches, expected_matches) << "threads=" << threads;
                EXPECT_EQ(outcome.pValue, expected_outcome.pValue)
                    << "threads=" << threads;
                ++compared;
            } else if (fidelity >= 1.0 - 1e-12 || fidelity <= 0.9) {
                // The two readouts map each trial's uniform to a match
                // through different bins of the same width: only the
                // verdict is shared, and it is certain here.
                EXPECT_EQ(outcome.passed, expected_outcome.passed)
                    << "threads=" << threads;
                EXPECT_EQ(outcome.pValue, expected_outcome.pValue)
                    << "threads=" << threads;
            }
        }
#if QSA_OBS_ENABLED
        EXPECT_EQ(paired_work[4], paired_work[1]);
        EXPECT_EQ(paired_work[0], paired_work[1]);
#endif
    }
    if (pair.v0 == 0)
        EXPECT_EQ(compared, 3 * common);
}

TEST(MirrorFidelity, PairedProbeMatchesTheUnwindOnGeneratedPairs)
{
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE("pair seed " + std::to_string(seed));
        for (const std::uint64_t v0 : {0u, 0b1010u}) {
            SCOPED_TRACE("prologue value " + std::to_string(v0));
            const MirrorPair pair = mirrorPair(seed, v0);
            for (const auto mode :
                 {assertions::EnsembleMode::Resimulate,
                  assertions::EnsembleMode::SampleFinalState}) {
                SCOPED_TRACE(runtime::ensembleModeName(mode));
                expectPairedMatchesUnwind(pair, mode, 0x3e11 * seed + v0);
            }
        }
    }
}

TEST(MirrorFidelity, RejectsAReferenceItCannotProject)
{
    // A mirror pairing projects onto the reference's prefix state, so
    // that prefix must be a deterministic head; and the reference must
    // hold as many gates as the program's prefix.
    Circuit reference(2);
    reference.h(0);
    reference.measureQubits({0}, "m");
    reference.x(1);
    Circuit program(2);
    program.h(0);
    program.h(1);
    program.h(0);
    program.breakpoint(kRead);
    runtime::EnsembleEngine engine(program, 1, mirrorOptions(reference));
    runtime::EnsembleSpec spec;
    spec.breakpoint = kRead;
    spec.qubits = {2};
    spec.shots = 8;
    EXPECT_THROW(engine.gather(spec), qsa::Error);

    program.h(1);
    program.breakpoint("past");
    runtime::EnsembleEngine longer(program, 1, mirrorOptions(reference));
    spec.breakpoint = "past";
    EXPECT_THROW(longer.gather(spec), qsa::Error);
}

/** Per-boundary probe seed of the locator (locate.cc's seedFor). */
std::uint64_t
probeSeed(std::uint64_t master, std::size_t boundary)
{
    return master + 0x9e3779b97f4a7c15ULL * (boundary + 1);
}

TEST(MirrorFidelity, FullShorSearchSimulatesLessThanItsUnwindReplay)
{
    const auto [suspect, reference] = locatefix::shorWrongInversePair();
    locate::LocateConfig cfg;
    cfg.ensembleSize = 64;
    cfg.maxEnsembleSize = 1024;
    cfg.passThreshold = 0.30;

    locate::LocalizationReport report;
#if QSA_OBS_ENABLED
    std::map<unsigned, std::map<std::string, std::int64_t>> search_work;
#endif
    for (const unsigned threads : {1u, 4u, 0u}) {
        cfg.numThreads = threads;
        obs::Registry::reset();
        report = locate::BugLocator(suspect, reference, cfg).locate();
#if QSA_OBS_ENABLED
        search_work[threads] = work();
#endif
    }
    ASSERT_TRUE(report.bugFound) << report.summary();
    EXPECT_EQ(report.lastPassing, 568u) << report.summary();
#if QSA_OBS_ENABLED
    EXPECT_EQ(search_work[4], search_work[1]);
    EXPECT_EQ(search_work[0], search_work[1]);
#endif

    // The same probes as unwind probes, in search order, each with the
    // search's markers and seed and the ensemble its record reports,
    // through one checkpoint store.
    const std::size_t prologue = prologueOf(reference);
    const sim::StateVector start = stateAfter(reference, prologue);
    std::uint64_t v0 = 0;
    while (std::norm(start.amplitudes()[v0]) < 0.5)
        ++v0;
    obs::Registry::reset();
    runtime::CheckpointStore store;
    std::size_t floor = report.prunedBoundaries;
    for (const locate::ProbeRecord &rec : report.probes) {
        SCOPED_TRACE("boundary " + std::to_string(rec.boundary));
        assertions::CheckConfig cc;
        cc.mode = cfg.mode;
        cc.seed = probeSeed(cfg.seed, rec.boundary);
        cc.numThreads = 1;
        runtime::EngineOptions options;
        options.checkpoints = &store;
        const std::size_t lo = std::min(floor, rec.boundary);
        const assertions::AssertionChecker unwind(
            unwindProgram(suspect, reference, prologue, rec.boundary, &lo),
            cc, options);
        const auto outcome = unwind.checkEscalated(
            unwindSpec(suspect.numQubits(), v0),
            {rec.ensembleSize, rec.ensembleSize, cfg.passThreshold});
        EXPECT_EQ(!outcome.passed, rec.failed);
        if (!rec.failed)
            floor = std::max(floor, rec.boundary);
    }
#if QSA_OBS_ENABLED
    const auto replay = work();
    const auto &search = search_work[1];
    EXPECT_LT(search.at("sim.gate_applies"), replay.at("sim.gate_applies"));
    EXPECT_LT(search.at("circuit.copied_instructions"),
              replay.at("circuit.copied_instructions"));
#endif
}

} // anonymous namespace
