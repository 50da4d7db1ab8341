/**
 * @file
 * Swap-test probes without the comparator program. A swap probe's
 * checker is paired with the reference (runtime::EngineOptions::
 * reference): each trial walks the suspect prefix, then the
 * reference prefix from the leaf it reached, and reads the
 * comparator's bit from the two leaf states' overlap. On seeded
 * generated (suspect, reference) pairs with mid-circuit measures,
 * label reuse, resets and conditions in both programs, a paired check
 * must equal, trial for trial, a plain checker on the 2n+1-qubit
 * comparator program built by hand (comparatorProgram, the reference
 * implementation), at every boundary, on the full space and on a
 * register, in both ensemble modes, at 1, 4 and 0 threads; at every
 * pair of leaves the overlap must give the simulated comparator's
 * P(0) to 1e-12; and the paired checks must touch less than half the
 * amplitudes. The swap-test bug locator must bracket a phase defect.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "assertions/checker.hh"
#include "circuit/circuit.hh"
#include "circuit/executor.hh"
#include "common/rng.hh"
#include "locate/locate.hh"
#include "obs/obs.hh"
#include "runtime/ensemble.hh"

#include "program_generator.hh"

namespace
{

using namespace qsa;
using qsa::circuit::Circuit;
using qsa::circuit::GateKind;
using qsa::circuit::QubitRegister;
using qsa::locate::BugLocator;
using qsa::locate::LocateConfig;
using qsa::locate::LocalizationReport;
using qsa::locate::ProbeFamily;
using qsa::locate::Strategy;

// --- Paired probes against the simulated comparator --------------------------

/** Qubits of every generated program in the differential test. */
constexpr unsigned kQubits = 3;

/** Breakpoint both checkers read at. */
const std::string kRead = "cmp";

/**
 * A generated reference with mid-circuit measures (label reuse
 * included), resets and conditions, with a dense-unitary run in the
 * middle, and a suspect that replaces its first unconditioned gate
 * past the first quarter with a rotation and measures its target into
 * "m0" right after it: the two programs diverge in their states, in
 * their records and in their outcome trees.
 */
struct GeneratedPair
{
    Circuit suspect{kQubits};
    Circuit reference{kQubits};
    QubitRegister reg;
};

GeneratedPair
generatedPair(std::uint64_t seed)
{
    GeneratedPair pair;
    testgen::ProgramGenerator gen(pair.reference, seed);
    testgen::prologue(pair.reference, 0);
    gen.append(0, kQubits, 10);
    gen.appendGates(0, kQubits, 4);
    gen.append(0, kQubits, 12);
    const auto &insts = pair.reference.instructions();
    std::size_t site = insts.size() / 4;
    while (site + 1 < insts.size() &&
           (!circuit::gateKindInvertible(insts[site].kind) ||
            !insts[site].condLabel.empty()))
        ++site;
    const unsigned target = insts[site].targets[0];
    pair.suspect = pair.reference.sliceRange(0, site);
    pair.suspect.ry(target, 1.3);
    pair.suspect.measureQubits({target}, "m0");
    pair.suspect.appendRange(pair.reference, site + 1, insts.size());
    pair.reg = QubitRegister("r", {target, (target + 1) % kQubits});
    return pair;
}

/**
 * The swap-test comparator on a 2n+1-qubit `circ`: H on the ancilla
 * 2n, a controlled SWAP of each compared qubit q with q + n, H.
 * `compared` empty compares the full space.
 */
void
appendComparator(Circuit &circ, unsigned n,
                 const std::vector<unsigned> &compared)
{
    const unsigned anc = 2 * n;
    circ.h(anc);
    for (unsigned q = 0; q < n; ++q) {
        if (compared.empty() ||
            std::find(compared.begin(), compared.end(), q) != compared.end())
            circ.cswap(anc, q, n + q);
    }
    circ.h(anc);
}

/**
 * The comparator at boundary `b` as one 2n+1-qubit program: the
 * suspect prefix on [0, n), the reference prefix on [n, 2n) with
 * every qubit shifted up by n and every label renamed (so the copies
 * keep disjoint records), the comparator, and the breakpoint kRead.
 */
Circuit
comparatorProgram(const Circuit &suspect, const Circuit &reference,
                  std::size_t b, const std::vector<unsigned> &compared)
{
    const unsigned n = suspect.numQubits();
    Circuit probe(2 * n + 1);
    probe.appendRange(suspect, 0, b);
    for (std::size_t i = 0; i < b; ++i) {
        circuit::Instruction inst = reference.instructions()[i];
        for (unsigned &q : inst.targets)
            q += n;
        for (unsigned &q : inst.controls)
            q += n;
        if (!inst.label.empty())
            inst.label = "ref:" + inst.label;
        if (!inst.condLabel.empty())
            inst.condLabel = "ref:" + inst.condLabel;
        if (inst.kind == GateKind::Unitary)
            inst.matrixId =
                probe.addMatrix(reference.matrix(inst.matrixId));
        probe.append(inst);
    }
    appendComparator(probe, n, compared);
    probe.breakpoint(kRead);
    return probe;
}

/** The paired probe's program at `b`: the suspect prefix, read at
 *  kRead. */
Circuit
pairedProgram(const Circuit &suspect, std::size_t b)
{
    Circuit probe(suspect.numQubits());
    probe.appendRange(suspect, 0, b);
    probe.breakpoint(kRead);
    return probe;
}

/** A one-qubit assertion at kRead on `qubit`. */
assertions::AssertionSpec
bitSpec(unsigned qubit)
{
    assertions::AssertionSpec spec;
    spec.kind = assertions::AssertionKind::Superposition;
    spec.breakpoint = kRead;
    spec.regA = QubitRegister("anc", {qubit});
    return spec;
}

#if QSA_OBS_ENABLED
/** The work counters a check reports. */
std::map<std::string, std::int64_t>
work()
{
    std::map<std::string, std::int64_t> out;
    for (const auto &[name, value] : obs::Registry::snapshot()) {
        if (name.rfind("sim.", 0) == 0 || name == "runtime.resim.segments")
            out[name] = value;
    }
    return out;
}
#endif

/**
 * Every boundary of `pair`, compared on `compared`, in `mode`: the
 * paired check at 1, 4 and 0 threads against the plain checker on
 * the comparator program, trial for trial and outcome for outcome.
 * Under QSA_OBS, with the paired checks' work summed over the
 * boundaries, per thread count: equal for every thread count, below
 * half the comparator programs' amp touches, the same path segments
 * and no more measurements.
 */
void
expectPairedMatchesComparator(const GeneratedPair &pair,
                              const std::vector<unsigned> &compared,
                              assertions::EnsembleMode mode,
                              std::uint64_t seed)
{
    const unsigned n = pair.suspect.numQubits();
    const std::size_t common =
        std::min(pair.suspect.size(), pair.reference.size());
    assertions::CheckConfig cfg;
    cfg.ensembleSize = 160;
    cfg.mode = mode;

    std::map<unsigned, std::map<std::string, std::int64_t>> paired_work;
    std::map<std::string, std::int64_t> plain_work;
    for (std::size_t b = 1; b <= common; ++b) {
        SCOPED_TRACE("boundary " + std::to_string(b));
        cfg.seed = seed + b;
        cfg.numThreads = 1;
        obs::Registry::reset();
        const assertions::AssertionChecker plain(
            comparatorProgram(pair.suspect, pair.reference, b, compared),
            cfg);
        const auto plain_spec = bitSpec(2 * n);
        const auto expected = plain.gatherEnsemble(plain_spec);
        const auto expected_outcome = plain.check(plain_spec);
#if QSA_OBS_ENABLED
        for (const auto &[name, value] : work())
            plain_work[name] += value;
#endif

        for (const unsigned threads : {1u, 4u, 0u}) {
            cfg.numThreads = threads;
            runtime::EngineOptions options;
            options.reference = &pair.reference;
            options.compared = compared;
            obs::Registry::reset();
            const assertions::AssertionChecker paired(
                pairedProgram(pair.suspect, b), cfg, options);
            const auto spec = bitSpec(n);
            EXPECT_EQ(paired.gatherEnsemble(spec), expected)
                << "threads=" << threads;
            const auto outcome = paired.check(spec);
            EXPECT_EQ(outcome.countsA, expected_outcome.countsA)
                << "threads=" << threads;
            EXPECT_EQ(outcome.pValue, expected_outcome.pValue)
                << "threads=" << threads;
#if QSA_OBS_ENABLED
            for (const auto &[name, value] : work())
                paired_work[threads][name] += value;
#endif
        }
    }
#if QSA_OBS_ENABLED
    const auto &serial = paired_work[1];
    EXPECT_EQ(paired_work[4], serial);
    EXPECT_EQ(paired_work[0], serial);
    ASSERT_GT(plain_work["sim.amp_touches"], 0);
    EXPECT_LT(2 * serial.at("sim.amp_touches"),
              plain_work["sim.amp_touches"]);
    EXPECT_LT(serial.at("sim.gate_applies"), plain_work["sim.gate_applies"]);
    EXPECT_LE(serial.at("sim.measurements"), plain_work["sim.measurements"]);
    if (mode == assertions::EnsembleMode::Resimulate) {
        EXPECT_GT(serial.at("runtime.resim.segments"), 0);
        EXPECT_EQ(serial.at("runtime.resim.segments"),
                  plain_work["runtime.resim.segments"]);
    }
#endif
}

TEST(PairedSwapProbe, MatchesTheComparatorProgramOnGeneratedPairs)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE("pair seed " + std::to_string(seed));
        const GeneratedPair pair = generatedPair(seed);
        for (const auto mode : {assertions::EnsembleMode::Resimulate,
                                assertions::EnsembleMode::SampleFinalState}) {
            SCOPED_TRACE(runtime::ensembleModeName(mode));
            expectPairedMatchesComparator(pair, {}, mode, 0x5a1d * seed);
            expectPairedMatchesComparator(pair, pair.reg.qubits(), mode,
                                          0x7e61 * seed);
        }
    }
}

/** Every measurement-outcome branch of the prefix [0, b) of `circ`. */
std::vector<circuit::ExecutionBranch>
prefixBranches(const Circuit &circ, std::size_t b)
{
    std::vector<circuit::ExecutionBranch> branches;
    branches.push_back({1.0, sim::StateVector(circ.numQubits()), {}});
    for (std::size_t i = 0; i < b; ++i)
        circuit::stepBranches(circ, circ.instructions()[i], branches, 4096);
    return branches;
}

TEST(PairedSwapProbe, OverlapGivesTheSimulatedComparatorAtEveryLeafPair)
{
    std::size_t pairs = 0;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE("pair seed " + std::to_string(seed));
        const GeneratedPair pair = generatedPair(seed);
        const unsigned n = pair.suspect.numQubits();
        const std::size_t common =
            std::min(pair.suspect.size(), pair.reference.size());
        for (const std::vector<unsigned> &compared :
             {std::vector<unsigned>{}, pair.reg.qubits()}) {
            // The comparator alone, on the 2n+1-qubit product state.
            Circuit comparator(2 * n + 1);
            appendComparator(comparator, n, compared);
            for (std::size_t b = 1; b <= common; ++b) {
                for (const auto &sus : prefixBranches(pair.suspect, b)) {
                    for (const auto &ref :
                         prefixBranches(pair.reference, b)) {
                        sim::StateVector joint =
                            sus.state.tensorWith(ref.state).tensorWith(
                                sim::StateVector(1));
                        std::map<std::string, std::uint64_t> record;
                        Rng rng(0);
                        circuit::runCircuitOn(comparator, joint, record,
                                              rng);
                        const double simulated =
                            1.0 - joint.probabilityOne(2 * n);
                        const auto probs = runtime::comparatorProbs(
                            sus.state, ref.state, compared);
                        ASSERT_EQ(probs.size(), 2u);
                        EXPECT_NEAR(probs[0], simulated, 1e-12)
                            << "boundary " << b;
                        ++pairs;
                    }
                }
            }
        }
    }
    EXPECT_GT(pairs, 400u);
}

TEST(PairedSwapProbe, RejectsWhatItCannotPair)
{
    const GeneratedPair pair = generatedPair(1);
    runtime::EngineOptions options;
    options.reference = &pair.reference;
    const Circuit wide(kQubits + 1);
    EXPECT_THROW(runtime::EnsembleEngine(wide, 1, options), qsa::Error);
    options.compared = {kQubits};
    EXPECT_THROW(runtime::EnsembleEngine(pair.suspect, 1, options),
                 qsa::Error);

    // A spec must read one bit, and the reference must reach the
    // breakpoint.
    options.compared = {};
    Circuit longer = pair.suspect;
    longer.h(0);
    longer.breakpoint(kRead);
    runtime::EnsembleEngine engine(longer, 1, options);
    runtime::EnsembleSpec spec;
    spec.breakpoint = kRead;
    spec.qubits = {0, 1};
    spec.shots = 8;
    EXPECT_THROW(engine.gather(spec), qsa::Error);
    spec.qubits = {kQubits};
    EXPECT_THROW(engine.gather(spec), qsa::Error);
}

// --- BugLocator bracket parity on a phase-blind fixture ----------------------

/** Suspect/reference pair whose only divergence is a relative phase. */
struct Pair
{
    Circuit suspect{0};
    Circuit reference{0};
};

/** Instruction index of the S-for-Z phase defect below. */
constexpr std::size_t kPhaseDefect = 7;

Pair
phaseDefectPair()
{
    Pair pair;
    for (Circuit *circ : {&pair.suspect, &pair.reference}) {
        const bool buggy = circ == &pair.suspect;
        const auto q = circ->addRegister("q", 3);
        circ->h(0);
        circ->h(1);
        circ->h(2);
        circ->cnot(0, 1);
        circ->t(0);
        circ->cnot(1, 2);
        circ->s(2);
        if (buggy)
            circ->s(1); // defect: S where the reference applies Z
        else
            circ->z(1);
        circ->cnot(0, 2);
        circ->h(1);
        circ->t(2);
        circ->h(0);
        (void)q;
    }
    return pair;
}

LocateConfig
swapConfig(Strategy strategy = Strategy::AdaptiveBinarySearch)
{
    LocateConfig cfg;
    cfg.family = ProbeFamily::SwapTest;
    cfg.strategy = strategy;
    cfg.ensembleSize = 64;
    cfg.maxEnsembleSize = 1024;
    return cfg;
}

void
expectSameBrackets(const LocalizationReport &a,
                   const LocalizationReport &b)
{
    EXPECT_EQ(a.lastPassing, b.lastPassing);
    EXPECT_EQ(a.firstFailing, b.firstFailing);
    ASSERT_EQ(a.probes.size(), b.probes.size());
    for (std::size_t i = 0; i < a.probes.size(); ++i) {
        EXPECT_EQ(a.probes[i].boundary, b.probes[i].boundary);
        EXPECT_EQ(a.probes[i].ensembleSize, b.probes[i].ensembleSize);
        EXPECT_EQ(a.probes[i].failed, b.probes[i].failed);
    }
}

TEST(TensorSplitLocate, SwapProbeBracketParity)
{
    const Pair pair = phaseDefectPair();
    const QubitRegister q = pair.suspect.reg("q");

    // Paired against the comparator program is pinned at the checker
    // (PairedSwapProbe.*). Here both strategies must bracket the
    // phase defect.
    for (const auto strategy :
         {Strategy::AdaptiveBinarySearch, Strategy::LinearScan}) {
        const BugLocator locator(pair.suspect, pair.reference,
                                 swapConfig(strategy));
        const auto report = locator.locate(q);
        EXPECT_EQ(report.suspectBegin(), kPhaseDefect) << report.summary();
    }
}

TEST(TensorSplitLocate, StagedProbesThreadCountInvariant)
{
    const Pair pair = phaseDefectPair();
    const QubitRegister q = pair.suspect.reg("q");

    std::vector<LocalizationReport> reports;
    for (const unsigned threads : {1u, 4u, 0u}) {
        LocateConfig cfg = swapConfig();
        cfg.numThreads = threads;
        const BugLocator locator(pair.suspect, pair.reference, cfg);
        reports.push_back(locator.locate(q));
    }
    for (std::size_t r = 1; r < reports.size(); ++r) {
        expectSameBrackets(reports.front(), reports[r]);
        // Paired trials key their streams by trial index, never by
        // worker or shard, so even the p-values are bit-identical.
        for (std::size_t i = 0; i < reports[r].probes.size(); ++i)
            EXPECT_EQ(reports.front().probes[i].pValue,
                      reports[r].probes[i].pValue);
    }
}

} // anonymous namespace
