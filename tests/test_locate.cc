/**
 * @file
 * qsa::locate tests: every injected bug variant of the qsa::bugs
 * taxonomy must localize to an interval containing its injection
 * site, in strictly fewer probes than the exhaustive linear scan,
 * with outputs invariant across thread counts and across the
 * state-vector kernels' SIMD levels.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "algo/arith.hh"
#include "algo/numtheory.hh"
#include "algo/qft.hh"
#include "algo/shor.hh"
#include "assertions/checker.hh"
#include "bugs/injectors.hh"
#include "circuit/circuit.hh"
#include "circuit/scopes.hh"
#include "locate/locate.hh"
#include "locate/predicates.hh"
#include "sim/kernel_level.hh"

namespace
{

using namespace qsa;
using namespace qsa::locate;
using qsa::circuit::Circuit;
using qsa::circuit::Instruction;
using qsa::circuit::QubitRegister;

bool
sameInstruction(const Instruction &a, const Instruction &b)
{
    return a.kind == b.kind && a.controls == b.controls &&
           a.targets == b.targets && a.angle == b.angle &&
           a.bit == b.bit && a.label == b.label &&
           a.condLabel == b.condLabel && a.condValue == b.condValue;
}

/**
 * True when the instruction interval [begin, end) of `suspect`
 * contains at least one position where it disagrees with `reference`
 * — i.e. when the located range covers (part of) the injected defect.
 */
bool
intervalCoversDefect(const Circuit &suspect, const Circuit &reference,
                     std::size_t begin, std::size_t end)
{
    const auto &si = suspect.instructions();
    const auto &ri = reference.instructions();
    for (std::size_t i = begin; i < end; ++i) {
        if (i >= si.size() || i >= ri.size())
            return true;
        if (!sameInstruction(si[i], ri[i]))
            return true;
    }
    return false;
}

/** A (suspect, reference) pair with a known injected defect. */
struct Fixture
{
    std::string name;
    Circuit suspect;
    Circuit reference;
};

// --- Bug type 2: flipped rotation decomposition (Table 1) -------------------

Fixture
flippedRotationFixture()
{
    Fixture fx;
    fx.name = "flipped-rotation";
    for (Circuit *circ : {&fx.suspect, &fx.reference}) {
        const bool buggy = circ == &fx.suspect;
        const auto ctrl = circ->addRegister("ctrl", 1);
        const auto b = circ->addRegister("b", 5);
        circ->prepRegister(ctrl, 1);
        circ->prepRegister(b, 12);
        algo::qft(*circ, b);
        bugs::phiAddDecomposed(
            *circ, b, 13, ctrl[0],
            buggy ? bugs::Table1Variant::IncorrectFlipped
                  : bugs::Table1Variant::CorrectDropA);
        algo::iqft(*circ, b);
    }
    return fx;
}

// --- Bug type 3: iteration bugs ---------------------------------------------

Fixture
iterationFixture(bugs::IterationBug bug)
{
    Fixture fx;
    fx.name = "iteration/" + bugs::iterationBugName(bug);
    for (Circuit *circ : {&fx.suspect, &fx.reference}) {
        const bool buggy = circ == &fx.suspect;
        const auto b = circ->addRegister("b", 5);
        circ->prepRegister(b, 12);
        algo::qft(*circ, b);
        if (buggy)
            bugs::phiAddIterationBug(*circ, b, 13, {}, bug);
        else
            algo::phiAdd(*circ, b, 13);
        algo::iqft(*circ, b);
    }
    return fx;
}

// --- Bug type 4: misrouted control ------------------------------------------

Fixture
misroutedControlFixture()
{
    Fixture fx;
    fx.name = "misrouted-control";
    for (Circuit *circ : {&fx.suspect, &fx.reference}) {
        const bool buggy = circ == &fx.suspect;
        const auto ctrl = circ->addRegister("ctrl", 1);
        const auto x = circ->addRegister("x", 3);
        const auto b = circ->addRegister("b", 4);
        const auto anc = circ->addRegister("anc", 1);
        circ->prepRegister(ctrl, 1);
        circ->prepRegister(x, 6);
        circ->prepRegister(b, 5);
        circ->prepRegister(anc, 0);
        circ->h(ctrl[0]);
        if (buggy)
            bugs::cModMulMisrouted(*circ, ctrl[0], x, b, 3, 7, anc[0]);
        else
            algo::cModMul(*circ, ctrl[0], x, b, 3, 7, anc[0]);
    }
    return fx;
}

// --- Bug type 5: broken mirroring -------------------------------------------

Fixture
brokenMirrorFixture()
{
    Fixture fx;
    fx.name = "broken-mirror";
    for (Circuit *circ : {&fx.suspect, &fx.reference}) {
        const bool buggy = circ == &fx.suspect;
        const auto ctrl = circ->addRegister("ctrl", 1);
        const auto x = circ->addRegister("x", 3);
        const auto b = circ->addRegister("b", 4);
        const auto anc = circ->addRegister("anc", 1);
        circ->prepRegister(ctrl, 1);
        circ->prepRegister(x, 6);
        circ->prepRegister(b, 0);
        circ->prepRegister(anc, 0);
        circ->h(ctrl[0]);
        if (buggy)
            bugs::cUaBrokenMirror(*circ, ctrl[0], x, b, 3, 5, 7,
                                  anc[0]);
        else
            algo::cUa(*circ, ctrl[0], x, b, 3, 5, 7, anc[0]);
    }
    return fx;
}

Fixture
forgotNegateFixture()
{
    Fixture fx;
    fx.name = "forgot-negate";
    for (Circuit *circ : {&fx.suspect, &fx.reference}) {
        const bool buggy = circ == &fx.suspect;
        const auto b = circ->addRegister("b", 5);
        circ->prepRegister(b, 12);
        algo::qft(*circ, b);
        algo::phiAdd(*circ, b, 13);
        if (buggy)
            bugs::phiSubForgotNegate(*circ, b, 13, {});
        else
            algo::phiAdd(*circ, b, 13, {}, -1);
        algo::iqft(*circ, b);
    }
    return fx;
}

// --- Bug type 6: wrong classical input (Table 3) ----------------------------

Fixture
wrongClassicalInputFixture()
{
    Fixture fx;
    fx.name = "wrong-classical-input";
    for (Circuit *circ : {&fx.suspect, &fx.reference}) {
        const bool buggy = circ == &fx.suspect;
        const auto ctrl = circ->addRegister("ctrl", 1);
        const auto x = circ->addRegister("x", 3);
        const auto b = circ->addRegister("b", 4);
        const auto anc = circ->addRegister("anc", 1);
        circ->prepRegister(ctrl, 1);
        circ->prepRegister(x, 6);
        circ->prepRegister(b, 0);
        circ->prepRegister(anc, 0);
        circ->h(ctrl[0]);
        // 3^-1 = 5 (mod 7); the Table 3 mistake supplies 4 instead.
        algo::cUa(*circ, ctrl[0], x, b, 3, buggy ? 4 : 5, 7, anc[0]);
    }
    return fx;
}

// --- Bug type 1: wrong initial value ----------------------------------------

/**
 * Prep-before-use style program: a register computed first, then a
 * second register initialised (wrongly, in the suspect) mid-program —
 * the localization target is a reset instruction, which the
 * predicate-probe family handles (mirror probes require a unitary
 * compared region).
 */
Fixture
wrongInitialValueFixture()
{
    Fixture fx;
    fx.name = "wrong-initial-value";
    for (Circuit *circ : {&fx.suspect, &fx.reference}) {
        const bool buggy = circ == &fx.suspect;
        const auto a = circ->addRegister("a", 4);
        const auto y = circ->addRegister("y", 3);
        circ->prepRegister(a, 5);
        algo::qft(*circ, a);
        algo::phiAdd(*circ, a, 3);
        algo::iqft(*circ, a);
        circ->prepRegister(y, buggy ? 0 : 1); // the type-1 mistake
        circ->cnot(y[0], a[0]);
        circ->cnot(y[1], a[1]);
    }
    return fx;
}

// --- Shared assertions over a fixture ---------------------------------------

LocateConfig
testConfig(Strategy strategy = Strategy::AdaptiveBinarySearch,
           unsigned num_threads = 0)
{
    LocateConfig cfg;
    cfg.strategy = strategy;
    cfg.ensembleSize = 64;
    cfg.maxEnsembleSize = 1024;
    cfg.numThreads = num_threads;
    return cfg;
}

void
expectLocalizes(const Fixture &fx, const LocalizationReport &report)
{
    ASSERT_TRUE(report.bugFound) << fx.name << ": " << report.summary();
    EXPECT_EQ(report.firstFailing, report.lastPassing + 1) << fx.name;
    EXPECT_TRUE(intervalCoversDefect(fx.suspect, fx.reference,
                                     report.suspectBegin(),
                                     report.suspectEnd()))
        << fx.name << ": " << report.summary();
}

class MirrorFixtures : public ::testing::TestWithParam<int>
{
  public:
    static Fixture
    make(int index)
    {
        switch (index) {
          case 0: return flippedRotationFixture();
          case 1:
            return iterationFixture(bugs::IterationBug::InnerOffByOne);
          case 2:
            return iterationFixture(
                bugs::IterationBug::WrongAngleDenominator);
          case 3:
            return iterationFixture(bugs::IterationBug::EndianSwapped);
          case 4: return misroutedControlFixture();
          case 5: return brokenMirrorFixture();
          case 6: return forgotNegateFixture();
          case 7: return wrongClassicalInputFixture();
        }
        throw std::logic_error("bad fixture index");
    }
};

TEST_P(MirrorFixtures, AdaptiveSearchBracketsTheDefect)
{
    const Fixture fx = make(GetParam());
    const BugLocator locator(fx.suspect, fx.reference, testConfig());
    expectLocalizes(fx, locator.locate());
}

TEST_P(MirrorFixtures, FewerProbesThanLinearScan)
{
    const Fixture fx = make(GetParam());

    // This compares the two search strategies over the same boundary
    // range; static pruning would shrink both searches (and on a
    // late defect leave the scan almost nothing to probe), so it
    // stays off here. LocatePruning tests cover the pre-pass.
    LocateConfig fast_cfg = testConfig();
    fast_cfg.staticPruning = false;
    const BugLocator adaptive(fx.suspect, fx.reference, fast_cfg);
    const auto fast = adaptive.locate();

    LocateConfig scan_cfg = testConfig(Strategy::LinearScan);
    scan_cfg.staticPruning = false;
    const BugLocator linear(fx.suspect, fx.reference, scan_cfg);
    const auto scan = linear.locate();

    expectLocalizes(fx, fast);
    expectLocalizes(fx, scan);
    EXPECT_LT(fast.probes.size(), scan.probes.size()) << fx.name;
}

TEST_P(MirrorFixtures, ThreadCountInvariant)
{
    const Fixture fx = make(GetParam());

    const BugLocator serial(fx.suspect, fx.reference,
                            testConfig(Strategy::AdaptiveBinarySearch,
                                       1));
    const BugLocator pooled(fx.suspect, fx.reference,
                            testConfig(Strategy::AdaptiveBinarySearch,
                                       3));
    const auto a = serial.locate();
    const auto b = pooled.locate();

    EXPECT_EQ(a.lastPassing, b.lastPassing) << fx.name;
    EXPECT_EQ(a.firstFailing, b.firstFailing) << fx.name;
    ASSERT_EQ(a.probes.size(), b.probes.size()) << fx.name;
    for (std::size_t i = 0; i < a.probes.size(); ++i) {
        EXPECT_EQ(a.probes[i].boundary, b.probes[i].boundary);
        EXPECT_EQ(a.probes[i].ensembleSize, b.probes[i].ensembleSize);
        // Bit-identical, not approximately equal: the runtime keys
        // every trial's stream by trial index, not by worker.
        EXPECT_EQ(a.probes[i].pValue, b.probes[i].pValue);
        EXPECT_EQ(a.probes[i].failed, b.probes[i].failed);
    }
}

INSTANTIATE_TEST_SUITE_P(Taxonomy, MirrorFixtures,
                         ::testing::Range(0, 8));

TEST(MirrorLocate, SeedInvariantInterval)
{
    const Fixture fx = flippedRotationFixture();
    LocateConfig cfg = testConfig();
    const auto a = BugLocator(fx.suspect, fx.reference, cfg).locate();
    cfg.seed = 0xfeedbeef;
    const auto b = BugLocator(fx.suspect, fx.reference, cfg).locate();
    EXPECT_EQ(a.lastPassing, b.lastPassing);
    EXPECT_EQ(a.firstFailing, b.firstFailing);
}

TEST(MirrorLocate, TrailingExtraInstructionsBlamed)
{
    // A defect confined to the suffix one program has and the other
    // lacks is invisible to index-aligned prefix probes; the report
    // must blame the length mismatch instead of declaring no bug.
    Fixture fx;
    for (Circuit *circ : {&fx.suspect, &fx.reference}) {
        const auto b = circ->addRegister("b", 3);
        circ->prepRegister(b, 1);
        algo::qft(*circ, b);
        algo::iqft(*circ, b);
    }
    fx.suspect.x(fx.suspect.reg("b")[0]); // the extra trailing gate

    const BugLocator locator(fx.suspect, fx.reference, testConfig());
    const auto report = locator.locate();
    ASSERT_TRUE(report.bugFound);
    EXPECT_EQ(report.suspectBegin(), fx.reference.size());
    EXPECT_EQ(report.suspectEnd(), fx.suspect.size());
    EXPECT_TRUE(intervalCoversDefect(fx.suspect, fx.reference,
                                     report.suspectBegin(),
                                     report.suspectEnd()));
}

TEST(MirrorLocate, MissingTrailingInstructionsBlamed)
{
    // The mirror of TrailingExtraInstructionsBlamed: the suspect ends
    // early. No suspect instruction can be blamed, so the bracket
    // names the one-past-the-end position and says why.
    Fixture fx;
    for (Circuit *circ : {&fx.suspect, &fx.reference}) {
        const auto b = circ->addRegister("b", 3);
        circ->prepRegister(b, 1);
        algo::qft(*circ, b);
        algo::iqft(*circ, b);
    }
    fx.reference.x(fx.reference.reg("b")[0]); // suspect lacks this

    const BugLocator locator(fx.suspect, fx.reference, testConfig());
    const auto report = locator.locate();
    ASSERT_TRUE(report.bugFound);
    EXPECT_EQ(report.firstFailing, report.lastPassing + 1);
    EXPECT_EQ(report.suspectBegin(), fx.suspect.size());
    EXPECT_NE(report.suspectGates.find("ends 1 instructions"),
              std::string::npos)
        << report.summary();
}

TEST(MirrorLocate, CorrectProgramReportsNoBug)
{
    Fixture fx = flippedRotationFixture();
    const BugLocator locator(fx.reference, fx.reference, testConfig());
    const auto report = locator.locate();
    EXPECT_FALSE(report.bugFound);
    // An identical program is certified boundary-for-boundary by the
    // static pre-pass: the search ends before a single probe runs.
    EXPECT_EQ(report.probes.size(), 0u);
    EXPECT_EQ(report.prunedBoundaries, fx.reference.size());

    // Unpruned, identical prefixes have off-probability exactly zero,
    // so the only probe is the (passing) end-to-end one.
    LocateConfig cfg = testConfig();
    cfg.staticPruning = false;
    const auto unpruned =
        BugLocator(fx.reference, fx.reference, cfg).locate();
    EXPECT_FALSE(unpruned.bugFound);
    EXPECT_EQ(unpruned.probes.size(), 1u);
    EXPECT_EQ(unpruned.prunedBoundaries, 0u);
}

// --- Predicate probes (bug type 1 and scope inheritance) --------------------

TEST(PredicateLocate, WrongInitialValueBrackets)
{
    const Fixture fx = wrongInitialValueFixture();
    const QubitRegister y = fx.suspect.reg("y");

    const BugLocator locator(fx.suspect, fx.reference, testConfig());
    const auto report = locator.locate(y);
    expectLocalizes(fx, report);

    const BugLocator linear(fx.suspect, fx.reference,
                            testConfig(Strategy::LinearScan));
    const auto scan = linear.locate(y);
    expectLocalizes(fx, scan);
    EXPECT_LT(report.probes.size(), scan.probes.size());
}

TEST(PredicateLocate, ThreadCountInvariant)
{
    const Fixture fx = wrongInitialValueFixture();
    const QubitRegister y = fx.suspect.reg("y");

    const auto a = BugLocator(fx.suspect, fx.reference,
                              testConfig(
                                  Strategy::AdaptiveBinarySearch, 1))
                       .locate(y);
    const auto b = BugLocator(fx.suspect, fx.reference,
                              testConfig(
                                  Strategy::AdaptiveBinarySearch, 3))
                       .locate(y);
    EXPECT_EQ(a.lastPassing, b.lastPassing);
    EXPECT_EQ(a.firstFailing, b.firstFailing);
    ASSERT_EQ(a.probes.size(), b.probes.size());
    for (std::size_t i = 0; i < a.probes.size(); ++i)
        EXPECT_EQ(a.probes[i].pValue, b.probes[i].pValue);
}

/** Broken-uncompute program with manual scope labels. */
Fixture
scopedBrokenUncomputeFixture()
{
    Fixture fx;
    fx.name = "scoped-broken-uncompute";
    for (Circuit *circ : {&fx.suspect, &fx.reference}) {
        const bool buggy = circ == &fx.suspect;
        const auto q = circ->addRegister("q", 2);
        const auto work = circ->addRegister("work", 2);
        circ->h(q[0]);
        circ->h(q[1]);
        circ->cnot(q[0], work[0]);
        circ->cnot(q[1], work[1]);
        circ->breakpoint("copy_computed");
        circ->cz(work[0], work[1]);
        circ->cnot(q[0], work[0]);
        // The mirroring mistake: the second uncompute CNOT reuses
        // q[0] as its control, leaving work[1] = q0 xor q1.
        circ->cnot(buggy ? q[0] : q[1], work[1]);
        circ->breakpoint("copy_uncomputed");
        circ->x(q[0]);
        circ->x(q[0]);
    }
    return fx;
}

TEST(PredicateLocate, ScopeInheritedKindsParticipate)
{
    const Fixture fx = scopedBrokenUncomputeFixture();
    const QubitRegister work = fx.suspect.reg("work");
    const QubitRegister q = fx.suspect.reg("q");

    LocateConfig cfg = testConfig(Strategy::LinearScan);
    cfg.ensembleSize = 256;
    // The inherited-kind probes sit at the scope labels, which the
    // static pre-pass would certify away (they precede the defect):
    // this test is about the probes themselves, so scan everything.
    cfg.staticPruning = false;
    const BugLocator locator(fx.suspect, fx.reference, cfg);
    const auto report = locator.locate({work, q});
    expectLocalizes(fx, report);

    // The scope labels contributed inherited probe kinds.
    const auto has_kind = [&](assertions::AssertionKind kind) {
        return std::any_of(report.probes.begin(), report.probes.end(),
                           [&](const ProbeRecord &rec) {
                               return rec.kind == kind;
                           });
    };
    EXPECT_TRUE(has_kind(assertions::AssertionKind::Entangled));
    EXPECT_TRUE(has_kind(assertions::AssertionKind::Product));
}

// --- PredicateOracle classification -----------------------------------------

TEST(PredicateOracle_, ClassifiesBoundaries)
{
    Circuit circ;
    const auto q = circ.addRegister("q", 2);
    circ.prepRegister(q, 2);
    circ.h(q[0]);
    circ.h(q[1]);

    const PredicateOracle oracle(circ, q);
    ASSERT_EQ(oracle.numBoundaries(), 5u);

    // |00>, |00>, |10>: classical point masses.
    EXPECT_EQ(oracle.at(0).kind, assertions::AssertionKind::Classical);
    EXPECT_EQ(oracle.at(0).expectedValue, 0u);
    EXPECT_EQ(oracle.at(2).kind, assertions::AssertionKind::Classical);
    EXPECT_EQ(oracle.at(2).expectedValue, 2u);

    // H on bit 0 only: uniform over {0, 1} x {1} = a distribution.
    EXPECT_EQ(oracle.at(3).kind,
              assertions::AssertionKind::Distribution);

    // Full Hadamard wall: uniform superposition.
    EXPECT_EQ(oracle.at(4).kind,
              assertions::AssertionKind::Superposition);
}

TEST(PredicateOracle_, ScopeDerivedPredicates)
{
    Circuit circ;
    const auto q = circ.addRegister("q", 1);
    const auto work = circ.addRegister("work", 1);
    {
        circuit::ComputeScope scope(circ, "oracle");
        circ.cnot(q[0], work[0]);
        scope.endCompute();
        circ.z(work[0]);
    }
    const auto scoped = scopeDerivedPredicates(circ);
    ASSERT_EQ(scoped.size(), 2u);
    EXPECT_EQ(scoped[0].kind, assertions::AssertionKind::Entangled);
    EXPECT_EQ(scoped[0].label, "oracle_computed");
    EXPECT_EQ(scoped[1].kind, assertions::AssertionKind::Product);
    EXPECT_LT(scoped[0].boundary, scoped[1].boundary);
}

// --- Boundary instrumentation (circuit layer) --------------------------------

TEST(BoundaryBreakpoints, InstrumentEveryBoundary)
{
    Circuit circ;
    const auto q = circ.addRegister("q", 2);
    circ.h(q[0]);
    circ.cnot(q[0], q[1]);
    circ.breakpoint("mid");
    circ.x(q[1]);

    const Circuit inst = circ.withBoundaryBreakpoints("b");
    // 4 original instructions + 5 boundary markers.
    EXPECT_EQ(inst.size(), 9u);
    EXPECT_EQ(inst.breakpointPosition("b0"), 0u);
    EXPECT_EQ(inst.breakpointPosition("b4"), 8u);
    // Existing labels survive instrumentation.
    EXPECT_NO_FATAL_FAILURE(inst.breakpointPosition("mid"));

    // Truncating at boundary k reproduces the original k-prefix
    // behaviour (markers are no-ops).
    const auto pre = inst.prefixUpTo("b2");
    std::size_t gates = 0;
    for (const auto &i : pre.instructions()) {
        if (i.kind != circuit::GateKind::Breakpoint)
            ++gates;
    }
    EXPECT_EQ(gates, 2u);
}

// --- Static boundary-equivalence pruning ------------------------------------

/** Run one fixture with pruning on and off; the pruned search must
 *  reproduce the unpruned bracket in no more probes. Returns the
 *  (pruned, unpruned) probe counts. */
std::pair<std::size_t, std::size_t>
comparePruning(const Fixture &fx)
{
    LocateConfig on = testConfig();
    on.staticPruning = true;
    LocateConfig off = testConfig();
    off.staticPruning = false;

    const auto pruned =
        BugLocator(fx.suspect, fx.reference, on).locate();
    const auto unpruned =
        BugLocator(fx.suspect, fx.reference, off).locate();

    expectLocalizes(fx, pruned);
    expectLocalizes(fx, unpruned);
    EXPECT_EQ(pruned.lastPassing, unpruned.lastPassing) << fx.name;
    EXPECT_EQ(pruned.firstFailing, unpruned.firstFailing) << fx.name;
    EXPECT_LE(pruned.probes.size(), unpruned.probes.size()) << fx.name;
    EXPECT_EQ(unpruned.prunedBoundaries, 0u) << fx.name;
    return {pruned.probes.size(), unpruned.probes.size()};
}

TEST_P(MirrorFixtures, PruningPreservesBracketWithNoMoreProbes)
{
    comparePruning(make(GetParam()));
}

TEST(LocatePruning, StrictlyFewerProbesOnSomeFixture)
{
    // Across the taxonomy at least one fixture must realise an
    // actual probe saving, or the pre-pass is dead weight.
    bool strictly_fewer = false;
    for (int i = 0; i < 8; ++i) {
        const auto [pruned, unpruned] =
            comparePruning(MirrorFixtures::make(i));
        strictly_fewer = strictly_fewer || pruned < unpruned;
    }
    EXPECT_TRUE(strictly_fewer);
}

TEST(LocatePruning, CertifiedBoundaryReachesTheDefect)
{
    // The flipped-rotation fixture diverges at one known rotation;
    // everything before it is structurally identical, so the
    // certificate must reach the defect site exactly.
    const Fixture fx = flippedRotationFixture();
    const auto &si = fx.suspect.instructions();
    const auto &ri = fx.reference.instructions();
    std::size_t defect = 0;
    while (defect < si.size() && sameInstruction(si[defect], ri[defect]))
        ++defect;

    const auto report =
        BugLocator(fx.suspect, fx.reference, testConfig()).locate();
    EXPECT_EQ(report.prunedBoundaries, defect) << report.summary();
    expectLocalizes(fx, report);
}

TEST(LocatePruning, LinearScanSkipsCertifiedBoundaries)
{
    const Fixture fx = flippedRotationFixture();
    const auto scan =
        BugLocator(fx.suspect, fx.reference,
                   testConfig(Strategy::LinearScan))
            .locate();
    expectLocalizes(fx, scan);
    for (const auto &rec : scan.probes)
        EXPECT_GT(rec.boundary, scan.prunedBoundaries);
}

TEST(LocatePruning, EquivalentCliffordDressingIsCertified)
{
    // The two programs implement the same unitary through different
    // gate sequences (HZH vs X; S·Sdg vs nothing useful on q1):
    // structural comparison fails at the first dressed instruction,
    // but the Clifford-run tableau match must certify past the whole
    // dressed region — the runs end at the same breakpoint — and
    // prune it, leaving only the genuinely divergent tail to search.
    Fixture fx;
    fx.name = "clifford-dressing";
    for (Circuit *circ : {&fx.suspect, &fx.reference}) {
        const bool suspect = circ == &fx.suspect;
        const auto q = circ->addRegister("q", 2);
        if (suspect) {
            circ->h(q[0]);
            circ->z(q[0]);
            circ->h(q[0]); // HZH = X
            circ->cnot(q[0], q[1]);
        } else {
            circ->x(q[0]);
            circ->s(q[1]);
            circ->sdg(q[1]); // identity dressing, equal run length
            circ->cnot(q[0], q[1]);
        }
        circ->breakpoint("sync"); // run barrier at the same index
        // Divergent tail: the suspect flips the wrong qubit.
        circ->x(suspect ? q[0] : q[1]);
        circ->h(q[0]);
        circ->h(q[1]);
    }

    const auto report =
        BugLocator(fx.suspect, fx.reference, testConfig()).locate();
    ASSERT_TRUE(report.bugFound) << report.summary();
    // Certified through the dressed run (4) and the breakpoint (5).
    EXPECT_EQ(report.prunedBoundaries, 5u) << report.summary();
    EXPECT_TRUE(intervalCoversDefect(fx.suspect, fx.reference,
                                     report.suspectBegin(),
                                     report.suspectEnd()))
        << report.summary();
    for (const auto &rec : report.probes)
        EXPECT_GT(rec.boundary, 5u);
}

TEST(LocatePruning, SoundWhenRunLengthsDiffer)
{
    // Same unitary on both sides but through different-*length* gate
    // sequences: index-aligned boundaries do not line up, so the
    // pre-pass must refuse to certify anything past the mismatch
    // (boundary b means "the first b instructions" in both programs,
    // and prefix k of one run is not prefix k of the other).
    Fixture fx;
    fx.name = "unequal-length-dressing";
    for (Circuit *circ : {&fx.suspect, &fx.reference}) {
        const bool suspect = circ == &fx.suspect;
        const auto q = circ->addRegister("q", 2);
        if (suspect) {
            circ->h(q[0]);
            circ->z(q[0]);
            circ->h(q[0]); // HZH = X, 3 instructions
        } else {
            circ->x(q[0]); // 1 instruction
        }
        circ->cnot(q[0], q[1]);
        circ->x(suspect ? q[0] : q[1]); // divergent tail
        circ->h(q[0]);
        circ->h(q[1]);
    }

    const auto report =
        BugLocator(fx.suspect, fx.reference, testConfig()).locate();
    EXPECT_EQ(report.prunedBoundaries, 0u) << report.summary();
    ASSERT_TRUE(report.bugFound) << report.summary();
    EXPECT_TRUE(intervalCoversDefect(fx.suspect, fx.reference,
                                     report.suspectBegin(),
                                     report.suspectEnd()))
        << report.summary();
}

TEST(LocatePruning, PredicateProbesPruneToo)
{
    const Fixture fx = wrongInitialValueFixture();
    const QubitRegister y = fx.suspect.reg("y");

    LocateConfig on = testConfig();
    LocateConfig off = testConfig();
    off.staticPruning = false;

    const auto pruned = BugLocator(fx.suspect, fx.reference, on)
                            .locate(y);
    const auto unpruned = BugLocator(fx.suspect, fx.reference, off)
                              .locate(y);
    expectLocalizes(fx, pruned);
    expectLocalizes(fx, unpruned);
    EXPECT_EQ(pruned.lastPassing, unpruned.lastPassing);
    EXPECT_EQ(pruned.firstFailing, unpruned.firstFailing);
    EXPECT_LE(pruned.probes.size(), unpruned.probes.size());
}

// --- SIMD-level invariance ---------------------------------------------------

/** One line per probe: boundary, ensemble, verdict, exact p-value, and
 *  whether it is phase-ambiguous. */
std::string
probeLog(const LocalizationReport &report)
{
    std::string log;
    for (const ProbeRecord &probe : report.probes) {
        char line[160];
        std::snprintf(line, sizeof line, "%zu %zu %s %a %d\n",
                      probe.boundary, probe.ensembleSize,
                      probe.failed ? "fail" : "pass", probe.pValue,
                      probe.phaseAmbiguous ? 1 : 0);
        log += line;
    }
    return log;
}

TEST(KernelLevelInvariance, ProbeLogsMatchTheBaselineLevel)
{
    // The determinism contract covers SIMD levels as it covers thread
    // counts: every level the host has must reproduce the baseline
    // kernels' probe log exactly, on the taxonomy fixtures and on
    // Table 3's wrong modular inverse in full and semiclassical Shor.
    struct Run
    {
        std::string name;
        std::function<LocalizationReport()> locate;
    };
    std::vector<Run> runs;
    for (int i = 0; i < 8; ++i) {
        const Fixture fx = MirrorFixtures::make(i);
        runs.push_back({fx.name, [fx] {
                            return BugLocator(fx.suspect, fx.reference,
                                              testConfig())
                                .locate();
                        }});
    }
    const Fixture init = wrongInitialValueFixture();
    runs.push_back({init.name, [init] {
                        return BugLocator(init.suspect, init.reference,
                                          testConfig())
                            .locate(init.suspect.reg("y"));
                    }});
    algo::ShorConfig good;
    algo::ShorConfig bad;
    bad.pairs = algo::shorClassicalInputs(7, 15, 3);
    bad.pairs[0].second = 12; // Table 3: 12 for the inverse 13
    const Circuit shor_bad = algo::buildShorProgram(bad).circuit;
    const Circuit shor_good = algo::buildShorProgram(good).circuit;
    runs.push_back({"shor/wrong-inverse", [&] {
                        return BugLocator(shor_bad, shor_good, testConfig())
                            .locate();
                    }});
    const Circuit semi_bad =
        algo::buildSemiclassicalShorProgram(bad).circuit;
    const Circuit semi_good =
        algo::buildSemiclassicalShorProgram(good).circuit;
    LocateConfig semi = testConfig();
    semi.mode = assertions::EnsembleMode::Resimulate;
    semi.ensembleSize = 32;
    semi.maxEnsembleSize = 256;
    runs.push_back({"semiclassical-shor/wrong-inverse", [&] {
                        return BugLocator(semi_bad, semi_good, semi)
                            .locate();
                    }});

    using sim::detail::KernelLevel;
    std::vector<std::string> want;
    {
        const sim::detail::ScopedKernelLevel forced(KernelLevel::Baseline);
        for (const Run &run : runs) {
            const LocalizationReport report = run.locate();
            EXPECT_TRUE(report.bugFound) << run.name;
            want.push_back(probeLog(report));
        }
    }
    for (KernelLevel level : sim::detail::kKernelLevels) {
        const char *name = sim::detail::kernelLevelName(level);
        if (level == KernelLevel::Baseline)
            continue;
        if (!sim::detail::hostSupports(level)) {
            std::printf("kernel level %s: not supported on this host, "
                        "skipped\n",
                        name);
            continue;
        }
        const sim::detail::ScopedKernelLevel forced(level);
        for (std::size_t r = 0; r < runs.size(); ++r)
            EXPECT_EQ(probeLog(runs[r].locate()), want[r])
                << runs[r].name << " at " << name;
    }
}

} // anonymous namespace
