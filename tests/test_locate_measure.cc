/**
 * @file
 * Localization past mid-circuit measurement: Resimulate-mode probes.
 *
 * The tier injects the paper's bug taxonomy into measurement-bearing
 * programs — a measured (non-deferred) teleportation protocol with
 * classically-conditioned corrections, a semiclassical phase
 * estimation with one recycled ancilla, and the semiclassical
 * one-control-qubit Shor circuit — and requires every variant to be
 * bracketed to an interval containing the defect, thread- and
 * seed-invariantly, in strictly fewer probes than the exhaustive
 * LinearScan. A regression block pins that Resimulate-mode
 * localization of a measurement-free program probes the same
 * boundaries with the same verdicts as the default Truncate path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "algo/arith.hh"
#include "algo/numtheory.hh"
#include "algo/qft.hh"
#include "algo/shor.hh"
#include "assertions/checker.hh"
#include "bugs/injectors.hh"
#include "circuit/circuit.hh"
#include "common/errors.hh"
#include "locate/locate.hh"
#include "locate/predicates.hh"

namespace
{

using namespace qsa;
using namespace qsa::locate;
using qsa::circuit::Circuit;
using qsa::circuit::GateKind;
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

/** Boundary index just after the first Measure instruction. */
std::size_t
firstMeasureBoundary(const Circuit &circ)
{
    const auto &insts = circ.instructions();
    for (std::size_t i = 0; i < insts.size(); ++i) {
        if (insts[i].kind == GateKind::Measure)
            return i + 1;
    }
    return insts.size();
}

/** A (suspect, reference) pair with a known injected defect. */
struct Fixture
{
    std::string name;
    Circuit suspect;
    Circuit reference;
};

// --- Measured teleportation --------------------------------------------------
//
// The non-deferred protocol: Bell-basis measurement mid-circuit,
// Pauli corrections classically conditioned on the recorded bits,
// then the inverse payload preparation returns the receiver to |0>
// exactly when teleportation worked.

enum class TeleportBug
{
    None,
    WrongInitialValue,   // type 1: receiver reset to |1>
    FlippedPayload,      // type 2: payload rotation sign flipped
    MisroutedCorrection, // type 4: corrections read the wrong bits
    BrokenMirror,        // type 5: verify step repeats instead of
                         //         inverting the payload rotation
    WrongCondValue,      // type 6: X correction fires on outcome 0
    ConditionedZFrame,   // the phase blind spot: the conditioned Z
                         //   correction applies an S frame instead,
                         //   a relative-phase defect invisible to
                         //   every computational-basis probe between
                         //   its site and the verify step
};

Circuit
buildMeasuredTeleport(TeleportBug bug)
{
    constexpr double theta = 1.1;
    constexpr double phi = 0.6;

    Circuit circ;
    const auto msg = circ.addRegister("msg", 1);
    const auto half = circ.addRegister("half", 1);
    const auto recv = circ.addRegister("recv", 1);

    circ.prepZ(msg[0], 0);
    circ.prepZ(half[0], 0);
    circ.prepZ(recv[0],
               bug == TeleportBug::WrongInitialValue ? 1 : 0); // [2]
    circ.ry(msg[0],
            bug == TeleportBug::FlippedPayload ? -theta : theta); // [3]
    circ.rz(msg[0], phi);
    circ.h(half[0]);
    circ.cnot(half[0], recv[0]);
    circ.cnot(msg[0], half[0]);
    circ.h(msg[0]);
    circ.measureQubits({half[0]}, "m_x"); // [9]
    circ.measureQubits({msg[0]}, "m_z");  // [10]

    circ.x(recv[0]); // [11]
    circ.conditionLast(
        bug == TeleportBug::MisroutedCorrection ? "m_z" : "m_x",
        bug == TeleportBug::WrongCondValue ? 0 : 1);
    if (bug == TeleportBug::ConditionedZFrame)
        circ.phase(recv[0], M_PI / 2); // [12] S frame instead of Z
    else
        circ.z(recv[0]); // [12]
    circ.conditionLast(
        bug == TeleportBug::MisroutedCorrection ? "m_x" : "m_z", 1);

    circ.rz(recv[0], -phi); // [13]
    circ.ry(recv[0],
            bug == TeleportBug::BrokenMirror ? theta : -theta); // [14]
    return circ;
}

Fixture
teleportFixture(TeleportBug bug, const std::string &name)
{
    Fixture fx;
    fx.name = "teleport/" + name;
    fx.suspect = buildMeasuredTeleport(bug);
    fx.reference = buildMeasuredTeleport(TeleportBug::None);
    return fx;
}

// --- Semiclassical phase estimation ------------------------------------------
//
// One recycled ancilla measures one phase bit per round (least
// significant first), with feedback rotations conditioned on the
// recorded bits — the same recurrence as the semiclassical Shor
// driver, on a two-qubit program small enough for exhaustive scans.
// The estimated phase 1/3 is non-dyadic, so every round's measurement
// is genuinely random and the boundary predicates are true outcome
// mixtures.

enum class QpeBug
{
    None,
    WrongEigenstate,   // type 1: system prepared in |0>
    FlippedPhase,      // type 2: controlled-phase sign flipped
    WrongFeedback,     // type 3: feedback angle denominator off by
                       //         one power of two (iteration bug)
};

Circuit
buildSemiclassicalQpe(QpeBug bug, unsigned t = 3)
{
    const double phase = 1.0 / 3.0; // non-dyadic: every bit is random

    Circuit circ;
    const auto sys = circ.addRegister("sys", 1);
    const auto anc = circ.addRegister("anc", 1);

    circ.prepZ(sys[0], bug == QpeBug::WrongEigenstate ? 0 : 1);
    circ.prepZ(anc[0], 0);

    for (unsigned l = t; l >= 1; --l) {
        if (l < t)
            circ.prepZ(anc[0], 0); // recycle the ancilla
        circ.h(anc[0]);
        const double sign = bug == QpeBug::FlippedPhase ? -1.0 : 1.0;
        circ.cphase(anc[0], sys[0],
                    sign * 2.0 * M_PI * phase *
                        static_cast<double>(1u << (l - 1)));
        for (unsigned j = l + 1; j <= t; ++j) {
            const unsigned denom_pow =
                bug == QpeBug::WrongFeedback ? j - l : j - l + 1;
            circ.phase(anc[0],
                       -2.0 * M_PI /
                           static_cast<double>(1u << denom_pow));
            circ.conditionLast("m_" + std::to_string(j), 1);
        }
        circ.h(anc[0]);
        circ.measureQubits({anc[0]}, "m_" + std::to_string(l));
    }
    return circ;
}

Fixture
qpeFixture(QpeBug bug, const std::string &name)
{
    Fixture fx;
    fx.name = "qpe/" + name;
    fx.suspect = buildSemiclassicalQpe(bug);
    fx.reference = buildSemiclassicalQpe(QpeBug::None);
    return fx;
}

// --- Shared assertions -------------------------------------------------------

LocateConfig
measureConfig(Strategy strategy = Strategy::AdaptiveBinarySearch,
              unsigned num_threads = 0)
{
    LocateConfig cfg;
    cfg.strategy = strategy;
    cfg.mode = assertions::EnsembleMode::Resimulate;
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

class MeasureFixtures : public ::testing::TestWithParam<int>
{
  public:
    static Fixture
    make(int index)
    {
        switch (index) {
          case 0:
            return teleportFixture(TeleportBug::WrongInitialValue,
                                   "wrong-initial-value");
          case 1:
            return teleportFixture(TeleportBug::FlippedPayload,
                                   "flipped-payload");
          case 2:
            return teleportFixture(TeleportBug::MisroutedCorrection,
                                   "misrouted-correction");
          case 3:
            return teleportFixture(TeleportBug::BrokenMirror,
                                   "broken-mirror");
          case 4:
            return teleportFixture(TeleportBug::WrongCondValue,
                                   "wrong-cond-value");
          case 5:
            return qpeFixture(QpeBug::WrongEigenstate,
                              "wrong-eigenstate");
          case 6:
            return qpeFixture(QpeBug::FlippedPhase, "flipped-phase");
          case 7:
            return qpeFixture(QpeBug::WrongFeedback,
                              "wrong-feedback");
        }
        throw std::logic_error("bad fixture index");
    }
};

TEST_P(MeasureFixtures, AdaptiveSearchBracketsTheDefect)
{
    const Fixture fx = make(GetParam());
    const BugLocator locator(fx.suspect, fx.reference,
                             measureConfig());
    expectLocalizes(fx, locator.locate());
}

TEST_P(MeasureFixtures, FewerProbesThanLinearScan)
{
    const Fixture fx = make(GetParam());

    // Strategy comparison over the same boundary range: static
    // pruning would shrink both searches, so it stays off here.
    LocateConfig fast_cfg = measureConfig();
    fast_cfg.staticPruning = false;
    const BugLocator adaptive(fx.suspect, fx.reference, fast_cfg);
    const auto fast = adaptive.locate();

    LocateConfig scan_cfg = measureConfig(Strategy::LinearScan);
    scan_cfg.staticPruning = false;
    const BugLocator linear(fx.suspect, fx.reference, scan_cfg);
    const auto scan = linear.locate();

    expectLocalizes(fx, fast);
    expectLocalizes(fx, scan);
    EXPECT_LT(fast.probes.size(), scan.probes.size()) << fx.name;
}

TEST_P(MeasureFixtures, ThreadCountInvariant)
{
    const Fixture fx = make(GetParam());

    const BugLocator serial(
        fx.suspect, fx.reference,
        measureConfig(Strategy::AdaptiveBinarySearch, 1));
    const BugLocator four(
        fx.suspect, fx.reference,
        measureConfig(Strategy::AdaptiveBinarySearch, 4));
    const BugLocator pooled(
        fx.suspect, fx.reference,
        measureConfig(Strategy::AdaptiveBinarySearch, 0));
    const auto a = serial.locate();
    const auto b = four.locate();
    const auto c = pooled.locate();

    for (const auto *other : {&b, &c}) {
        EXPECT_EQ(a.lastPassing, other->lastPassing) << fx.name;
        EXPECT_EQ(a.firstFailing, other->firstFailing) << fx.name;
        ASSERT_EQ(a.probes.size(), other->probes.size()) << fx.name;
        for (std::size_t i = 0; i < a.probes.size(); ++i) {
            EXPECT_EQ(a.probes[i].boundary, other->probes[i].boundary);
            EXPECT_EQ(a.probes[i].ensembleSize,
                      other->probes[i].ensembleSize);
            // Bit-identical: Resimulate trials key their streams by
            // trial index, never by worker or shard.
            EXPECT_EQ(a.probes[i].pValue, other->probes[i].pValue);
            EXPECT_EQ(a.probes[i].failed, other->probes[i].failed);
        }
    }
}

TEST_P(MeasureFixtures, SeedInvariantInterval)
{
    const Fixture fx = make(GetParam());
    LocateConfig cfg = measureConfig();
    const auto a =
        BugLocator(fx.suspect, fx.reference, cfg).locate();
    cfg.seed = 0xfeedbeef;
    const auto b =
        BugLocator(fx.suspect, fx.reference, cfg).locate();
    EXPECT_EQ(a.lastPassing, b.lastPassing) << fx.name;
    EXPECT_EQ(a.firstFailing, b.firstFailing) << fx.name;
}

INSTANTIATE_TEST_SUITE_P(Taxonomy, MeasureFixtures,
                         ::testing::Range(0, 8));

// --- Probes beyond the first measure -----------------------------------------

TEST(MeasureLocate, ProbesLandBeyondTheFirstMeasure)
{
    // The defects sitting after the Bell measurement are only
    // reachable by probes beyond the first Measure — exactly the
    // range both families clamped off before Resimulate mode.
    const Fixture fx = teleportFixture(TeleportBug::BrokenMirror,
                                       "broken-mirror");
    const std::size_t measured = firstMeasureBoundary(fx.suspect);

    const BugLocator locator(fx.suspect, fx.reference,
                             measureConfig());
    const auto report = locator.locate();
    expectLocalizes(fx, report);
    EXPECT_GT(report.firstFailing, measured);
    EXPECT_TRUE(std::any_of(report.probes.begin(),
                            report.probes.end(),
                            [&](const ProbeRecord &rec) {
                                return rec.boundary > measured;
                            }));
}

// --- Predicate probes through measurement ------------------------------------

TEST(MeasureLocate, PredicateProbesCrossMeasurements)
{
    // The receiver's marginal is wrong from the defective reset on:
    // the oracle's mixture predicates must carry the scan across the
    // Bell measurement and the conditioned corrections, and its
    // first-failing boundary must sit at the defect. (The Bell pair's
    // CNOT later uniformises the receiver's marginal, so only the
    // exhaustive scan's first-failing semantics pins the onset — a
    // register marginal is not a monotone divergence witness, which
    // is exactly why the mirror family exists.)
    const Fixture fx = teleportFixture(TeleportBug::WrongInitialValue,
                                       "wrong-initial-value");
    const QubitRegister recv = fx.suspect.reg("recv");

    const BugLocator linear(fx.suspect, fx.reference,
                            measureConfig(Strategy::LinearScan));
    const auto scan = linear.locate(recv);
    expectLocalizes(fx, scan);
    // The probeable range extends to the end of the program, not to
    // the first measure; the boundaries the static pre-pass certified
    // equivalent are the only ones skipped.
    EXPECT_EQ(scan.probes.size() + scan.prunedBoundaries,
              fx.suspect.size());

    // A defect past both measurements whose marginal divergence
    // persists bracket-localizes adaptively, in fewer probes.
    const Fixture late = teleportFixture(TeleportBug::BrokenMirror,
                                         "broken-mirror");
    const BugLocator adaptive(late.suspect, late.reference,
                              measureConfig());
    const auto report = adaptive.locate(late.suspect.reg("recv"));
    expectLocalizes(late, report);
    EXPECT_LT(report.probes.size(), scan.probes.size());
}

TEST(MeasureLocate, MixturePredicatesAreExact)
{
    // Ground truth for the oracle through a measurement: after the
    // Bell measurement of the |Phi+>-teleport, the receiver's
    // unconditional marginal equals the payload's outcome
    // distribution (teleportation works before correction only up to
    // Pauli frames, which do not change the computational marginal of
    // this payload's |amplitudes|^2 mixed over outcomes).
    const Circuit circ = buildMeasuredTeleport(TeleportBug::None);
    const QubitRegister recv = circ.reg("recv");

    const PredicateOracle oracle(circ, recv);
    ASSERT_EQ(oracle.numBoundaries(), circ.size() + 1);

    // Before anything: classical |0>.
    EXPECT_EQ(oracle.at(0).kind, assertions::AssertionKind::Classical);

    // After the full program the receiver reads |0> again in every
    // branch: the mixture predicate collapses back to a classical
    // point mass — the verified-teleportation invariant.
    const auto &final_pred = oracle.at(circ.size());
    EXPECT_EQ(final_pred.kind, assertions::AssertionKind::Classical);
    EXPECT_EQ(final_pred.expectedValue, 0u);
}

// --- Semiclassical Shor (the flagship) ---------------------------------------

TEST(MeasureLocate, SemiclassicalShorWrongInverseBracketed)
{
    // Table 3's bug type 6 — the wrong modular inverse (12 instead of
    // 13) — injected into Beauregard's one-control-qubit circuit,
    // where it sits in the *last* phase-bit round, past the recycled
    // control's earlier measurements.
    algo::ShorConfig good_config;
    good_config.upperBits = 2;
    algo::ShorConfig bad_config = good_config;
    bad_config.pairs =
        algo::shorClassicalInputs(7, 15, good_config.upperBits);
    bad_config.pairs[0].second = 12; // 7^-1 mod 15 is 13, not 12

    const auto good = algo::buildSemiclassicalShorProgram(good_config);
    const auto bad = algo::buildSemiclassicalShorProgram(bad_config);

    LocateConfig cfg;
    cfg.mode = assertions::EnsembleMode::Resimulate;
    cfg.ensembleSize = 32;
    cfg.maxEnsembleSize = 128;

    const BugLocator locator(bad.circuit, good.circuit, cfg);
    const auto report = locator.locate();

    ASSERT_TRUE(report.bugFound) << report.summary();
    EXPECT_TRUE(intervalCoversDefect(bad.circuit, good.circuit,
                                     report.suspectBegin(),
                                     report.suspectEnd()))
        << report.summary();

    // The bracket sits past the first recycled-control measurement,
    // and the search needs under a tenth of the probes an exhaustive
    // scan spends (LinearScan adjudicates every boundary exactly
    // once, so its probe count is the boundary count).
    EXPECT_GT(report.firstFailing,
              firstMeasureBoundary(bad.circuit));
    EXPECT_LT(report.probes.size(), bad.circuit.size() / 10);
}

// --- Measurement-free regression: Resimulate == Truncate path ----------------

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
        circ->prepRegister(y, buggy ? 0 : 1);
        circ->cnot(y[0], a[0]);
        circ->cnot(y[1], a[1]);
    }
    return fx;
}

/**
 * Probe counts, probed boundaries, verdicts, and the bracket must be
 * identical between the two modes on a measurement-free program (the
 * probe specs coincide; ensembles are drawn through different stream
 * layouts, so p-values are not compared).
 */
void
expectSameTrajectory(const LocalizationReport &truncate,
                     const LocalizationReport &resim,
                     const std::string &name)
{
    EXPECT_EQ(truncate.bugFound, resim.bugFound) << name;
    EXPECT_EQ(truncate.lastPassing, resim.lastPassing) << name;
    EXPECT_EQ(truncate.firstFailing, resim.firstFailing) << name;
    EXPECT_EQ(truncate.suspectGates, resim.suspectGates) << name;
    ASSERT_EQ(truncate.probes.size(), resim.probes.size()) << name;
    for (std::size_t i = 0; i < truncate.probes.size(); ++i) {
        EXPECT_EQ(truncate.probes[i].boundary,
                  resim.probes[i].boundary)
            << name << " probe " << i;
        EXPECT_EQ(truncate.probes[i].kind, resim.probes[i].kind)
            << name << " probe " << i;
        EXPECT_EQ(truncate.probes[i].failed, resim.probes[i].failed)
            << name << " probe " << i;
    }
}

TEST(MeasureFreeRegression, MirrorTrajectoryIdentical)
{
    const Fixture fx = flippedRotationFixture();
    LocateConfig cfg;
    cfg.ensembleSize = 64;
    cfg.maxEnsembleSize = 1024;

    const auto truncate =
        BugLocator(fx.suspect, fx.reference, cfg).locate();
    cfg.mode = assertions::EnsembleMode::Resimulate;
    const auto resim =
        BugLocator(fx.suspect, fx.reference, cfg).locate();
    expectSameTrajectory(truncate, resim, fx.name);
}

TEST(MeasureFreeRegression, PredicateTrajectoryIdentical)
{
    const Fixture fx = wrongInitialValueFixture();
    const QubitRegister y = fx.suspect.reg("y");
    LocateConfig cfg;
    cfg.ensembleSize = 64;
    cfg.maxEnsembleSize = 1024;

    const auto truncate =
        BugLocator(fx.suspect, fx.reference, cfg).locate(y);
    cfg.mode = assertions::EnsembleMode::Resimulate;
    const auto resim =
        BugLocator(fx.suspect, fx.reference, cfg).locate(y);
    expectSameTrajectory(truncate, resim, fx.name);
}

// --- The phase blind spot: conditioned-Z-frame defect ------------------------
//
// The conditioned Z correction applies an S frame instead of Z: in
// every m_z = 1 branch the receiver differs from the reference by a
// relative phase only. No computational-basis probe between the
// defect's site [12] and the verify rotation [14] can see it — the
// mixture marginals are bit-identical — so the computational families
// bracket the verify step, not the defect. The register-scoped
// swap-test family compares reduced states, whose overlap deficit is
// invariant under the common verify rotations, and brackets the
// defect itself.

/** Instruction index of the defective conditioned correction. */
constexpr std::size_t kZFrameDefect = 12;

Fixture
zFrameFixture()
{
    return teleportFixture(TeleportBug::ConditionedZFrame,
                           "conditioned-z-frame");
}

LocateConfig
zFrameConfig(ProbeFamily family,
             Strategy strategy = Strategy::AdaptiveBinarySearch,
             unsigned num_threads = 0)
{
    LocateConfig cfg = measureConfig(strategy, num_threads);
    cfg.family = family;
    return cfg;
}

TEST(PhaseBlindSpot, SwapTestBracketsTheDefect)
{
    const Fixture fx = zFrameFixture();
    const QubitRegister recv = fx.suspect.reg("recv");

    const BugLocator locator(fx.suspect, fx.reference,
                             zFrameConfig(ProbeFamily::SwapTest));
    const auto report = locator.locate(recv);

    expectLocalizes(fx, report);
    EXPECT_EQ(report.suspectBegin(), kZFrameDefect)
        << report.summary();
    EXPECT_EQ(report.decidedBy, ProbeFamily::SwapTest);
    for (const auto &rec : report.probes)
        EXPECT_EQ(rec.family, ProbeFamily::SwapTest);
}

TEST(PhaseBlindSpot, SwapTestFewerProbesThanLinearScan)
{
    const Fixture fx = zFrameFixture();
    const QubitRegister recv = fx.suspect.reg("recv");

    // Strategy comparison over the same boundary range: static
    // pruning would shrink both searches, so it stays off here.
    LocateConfig fast_cfg = zFrameConfig(ProbeFamily::SwapTest);
    fast_cfg.staticPruning = false;
    const BugLocator adaptive(fx.suspect, fx.reference, fast_cfg);
    const auto fast = adaptive.locate(recv);

    LocateConfig scan_cfg =
        zFrameConfig(ProbeFamily::SwapTest, Strategy::LinearScan);
    scan_cfg.staticPruning = false;
    const BugLocator linear(fx.suspect, fx.reference, scan_cfg);
    const auto scan = linear.locate(recv);

    expectLocalizes(fx, fast);
    expectLocalizes(fx, scan);
    EXPECT_EQ(scan.suspectBegin(), kZFrameDefect);
    EXPECT_LT(fast.probes.size(), scan.probes.size());
}

TEST(PhaseBlindSpot, SwapTestThreadCountInvariant)
{
    const Fixture fx = zFrameFixture();
    const QubitRegister recv = fx.suspect.reg("recv");

    std::vector<LocalizationReport> reports;
    for (unsigned threads : {1u, 4u, 0u}) {
        const BugLocator locator(
            fx.suspect, fx.reference,
            zFrameConfig(ProbeFamily::SwapTest,
                         Strategy::AdaptiveBinarySearch, threads));
        reports.push_back(locator.locate(recv));
    }
    const auto &a = reports.front();
    for (std::size_t r = 1; r < reports.size(); ++r) {
        const auto &b = reports[r];
        EXPECT_EQ(a.lastPassing, b.lastPassing);
        EXPECT_EQ(a.firstFailing, b.firstFailing);
        ASSERT_EQ(a.probes.size(), b.probes.size());
        for (std::size_t i = 0; i < a.probes.size(); ++i) {
            EXPECT_EQ(a.probes[i].boundary, b.probes[i].boundary);
            EXPECT_EQ(a.probes[i].ensembleSize,
                      b.probes[i].ensembleSize);
            // Bit-identical: swap-probe trials key their streams by
            // trial index, never by worker or shard.
            EXPECT_EQ(a.probes[i].pValue, b.probes[i].pValue);
            EXPECT_EQ(a.probes[i].failed, b.probes[i].failed);
        }
    }
}

TEST(PhaseBlindSpot, SwapTestSeedInvariantInterval)
{
    const Fixture fx = zFrameFixture();
    const QubitRegister recv = fx.suspect.reg("recv");

    LocateConfig cfg = zFrameConfig(ProbeFamily::SwapTest);
    const auto a = BugLocator(fx.suspect, fx.reference, cfg)
                       .locate(recv);
    cfg.seed = 0xfeedbeef;
    const auto b = BugLocator(fx.suspect, fx.reference, cfg)
                       .locate(recv);
    EXPECT_EQ(a.lastPassing, b.lastPassing);
    EXPECT_EQ(a.firstFailing, b.firstFailing);
    EXPECT_EQ(a.suspectBegin(), kZFrameDefect);
}

/**
 * Regression pin of the blind spot itself: both computational-basis
 * families *do* reject — the divergence reaches the receiver's
 * marginal at the verify rotation — but the bracket sits at the
 * verify step, strictly past the defect, and no probe between the
 * defect's site and the verify step fails. This documents why the
 * phase-sensitive families exist; if a future change makes a
 * computational probe see the defect in place, this pin should fail
 * and the taxonomy in locate.hh revisited.
 */
TEST(PhaseBlindSpot, ComputationalFamiliesBracketOnlyTheVerifyStep)
{
    const Fixture fx = zFrameFixture();
    const QubitRegister recv = fx.suspect.reg("recv");

    // Segment-mirror family (the locate() default).
    const BugLocator mirror(
        fx.suspect, fx.reference,
        zFrameConfig(ProbeFamily::SegmentMirror,
                     Strategy::LinearScan));
    const auto mirror_scan = mirror.locate();
    ASSERT_TRUE(mirror_scan.bugFound) << mirror_scan.summary();
    EXPECT_GT(mirror_scan.suspectBegin(), kZFrameDefect)
        << mirror_scan.summary();
    EXPECT_FALSE(intervalCoversDefect(fx.suspect, fx.reference,
                                      mirror_scan.suspectBegin(),
                                      mirror_scan.suspectEnd()));

    // Mixture-marginal family on the receiver register.
    const BugLocator marginal(
        fx.suspect, fx.reference,
        zFrameConfig(ProbeFamily::MixtureMarginal,
                     Strategy::LinearScan));
    const auto marginal_scan = marginal.locate(recv);
    ASSERT_TRUE(marginal_scan.bugFound) << marginal_scan.summary();
    EXPECT_GT(marginal_scan.suspectBegin(), kZFrameDefect)
        << marginal_scan.summary();
    EXPECT_FALSE(intervalCoversDefect(fx.suspect, fx.reference,
                                      marginal_scan.suspectBegin(),
                                      marginal_scan.suspectEnd()));

    // The mirror record at the bracket carries the phase-ambiguity
    // flag Auto escalates on: only the computational pre-marginal
    // component failed, the phase-sensitive unwind passed.
    bool flagged = false;
    for (const auto &rec : mirror_scan.probes) {
        if (rec.boundary == mirror_scan.firstFailing && rec.failed)
            flagged = flagged || rec.phaseAmbiguous;
    }
    EXPECT_TRUE(flagged);
}

TEST(PhaseBlindSpot, RotatedMarginalSeesTheFrameDefectInPlace)
{
    // The S-frame divergence is visible in the receiver's X/Y
    // marginals the instruction it appears, so the rotated triple
    // brackets the defect exactly where the computational marginal
    // could not.
    const Fixture fx = zFrameFixture();
    const QubitRegister recv = fx.suspect.reg("recv");

    const BugLocator locator(
        fx.suspect, fx.reference,
        zFrameConfig(ProbeFamily::RotatedMarginal));
    const auto report = locator.locate(recv);

    expectLocalizes(fx, report);
    EXPECT_EQ(report.suspectBegin(), kZFrameDefect)
        << report.summary();
    EXPECT_EQ(report.decidedBy, ProbeFamily::RotatedMarginal);
}

TEST(PhaseBlindSpot, AutoEscalatesFromMarginalsToSwapTest)
{
    const Fixture fx = zFrameFixture();
    const QubitRegister recv = fx.suspect.reg("recv");

    const BugLocator locator(fx.suspect, fx.reference,
                             zFrameConfig(ProbeFamily::Auto));
    const auto report = locator.locate(recv);

    expectLocalizes(fx, report);
    EXPECT_TRUE(report.escalatedToSwapTest) << report.summary();
    EXPECT_EQ(report.decidedBy, ProbeFamily::SwapTest);
    EXPECT_EQ(report.suspectBegin(), kZFrameDefect)
        << report.summary();

    // Both families appear in the probe log: the cheap marginal
    // probes first, then the swap-test escalation.
    bool sawMarginal = false, sawSwap = false;
    for (const auto &rec : report.probes) {
        sawMarginal = sawMarginal ||
                      rec.family == ProbeFamily::MixtureMarginal;
        sawSwap = sawSwap || rec.family == ProbeFamily::SwapTest;
    }
    EXPECT_TRUE(sawMarginal);
    EXPECT_TRUE(sawSwap);
}

TEST(PhaseBlindSpot, AutoDoesNotEscalateWhenTheMarginalBracketHolds)
{
    // A defect whose divergence arises where it becomes visible (the
    // broken verify mirror) is confirmed by the single decisive swap
    // probe at lastPassing; Auto must not pay for a second search.
    const Fixture fx = teleportFixture(TeleportBug::BrokenMirror,
                                       "broken-mirror");
    const QubitRegister recv = fx.suspect.reg("recv");

    const BugLocator locator(fx.suspect, fx.reference,
                             zFrameConfig(ProbeFamily::Auto));
    const auto report = locator.locate(recv);

    expectLocalizes(fx, report);
    EXPECT_FALSE(report.escalatedToSwapTest) << report.summary();
    EXPECT_EQ(report.decidedBy, ProbeFamily::MixtureMarginal);
    // Exactly one swap-test record: the escalation-decision probe.
    std::size_t swapProbes = 0;
    for (const auto &rec : report.probes) {
        if (rec.family == ProbeFamily::SwapTest)
            ++swapProbes;
    }
    EXPECT_EQ(swapProbes, 1u);
}

TEST(PhaseBlindSpot, FullSpaceAutoEscalatesOnAmbiguousMirrorVerdict)
{
    // locate()'s Auto family: the mirror bracket at the verify step
    // is phase-ambiguous (marginal-only failure), so the search
    // escalates to full-space swap-test probes. The full-space
    // comparator's sensitivity is diluted by the measured qubits'
    // branch orthogonality — the register-scoped family is the sharp
    // tool — so only the escalation mechanics are pinned here.
    const Fixture fx = zFrameFixture();
    const BugLocator locator(fx.suspect, fx.reference,
                             zFrameConfig(ProbeFamily::Auto));
    const auto report = locator.locate();
    EXPECT_TRUE(report.escalatedToSwapTest) << report.summary();
    EXPECT_TRUE(report.bugFound) << report.summary();
}

TEST(PhaseBlindSpot, FullSpaceAutoMatchesMirrorWhenUnambiguous)
{
    // A defect whose segment unwind fails too (the broken verify
    // mirror) is not phase-ambiguous: Auto must not escalate, and
    // the trajectory is the mirror family's exactly.
    const Fixture fx = teleportFixture(TeleportBug::BrokenMirror,
                                       "broken-mirror");

    const auto mirror =
        BugLocator(fx.suspect, fx.reference,
                   zFrameConfig(ProbeFamily::SegmentMirror))
            .locate();
    const auto agile = BugLocator(fx.suspect, fx.reference,
                                  zFrameConfig(ProbeFamily::Auto))
                           .locate();

    EXPECT_FALSE(agile.escalatedToSwapTest) << agile.summary();
    EXPECT_EQ(agile.lastPassing, mirror.lastPassing);
    EXPECT_EQ(agile.firstFailing, mirror.firstFailing);
    ASSERT_EQ(agile.probes.size(), mirror.probes.size());
    for (std::size_t i = 0; i < agile.probes.size(); ++i) {
        EXPECT_EQ(agile.probes[i].boundary,
                  mirror.probes[i].boundary);
        EXPECT_EQ(agile.probes[i].pValue, mirror.probes[i].pValue);
    }
}

TEST(PhaseBlindSpot, AutoFallsBackToMarginalsPastTheSwapGate)
{
    // Swap-test probes simulate two embedded copies (2n+1 qubits),
    // so they are gated to n <= 10. An Auto search on a wider
    // program must keep the cheap marginal verdict — not die
    // constructing a prober it may never need.
    Fixture fx;
    fx.name = "wide-auto";
    for (Circuit *circ : {&fx.suspect, &fx.reference}) {
        const bool buggy = circ == &fx.suspect;
        const auto q = circ->addRegister("q", 11);
        circ->prepRegister(q, 0);
        circ->x(q[buggy ? 3 : 4]); // index-aligned, marginal-visible
        circ->h(q[0]);
    }
    const QubitRegister q = fx.suspect.reg("q");

    LocateConfig cfg;
    cfg.ensembleSize = 64;
    cfg.maxEnsembleSize = 1024;
    cfg.family = ProbeFamily::Auto;
    const auto agile = BugLocator(fx.suspect, fx.reference, cfg)
                           .locate(q);
    cfg.family = ProbeFamily::MixtureMarginal;
    const auto marginal = BugLocator(fx.suspect, fx.reference, cfg)
                              .locate(q);

    expectLocalizes(fx, agile);
    EXPECT_FALSE(agile.escalatedToSwapTest);
    EXPECT_EQ(agile.decidedBy, ProbeFamily::MixtureMarginal);
    EXPECT_EQ(agile.lastPassing, marginal.lastPassing);
    EXPECT_EQ(agile.firstFailing, marginal.firstFailing);
    EXPECT_EQ(agile.probes.size(), marginal.probes.size());
}

TEST(PhaseBlindSpot, SwapTestWorksInSampleFinalStateMode)
{
    // On a measurement-free program the comparator's null is a pure
    // point mass (ancilla always 0) and the default sampling mode
    // carries the probes; the flipped rotation is phase-visible.
    const Fixture fx = flippedRotationFixture();
    LocateConfig cfg;
    cfg.family = ProbeFamily::SwapTest;
    cfg.ensembleSize = 64;
    cfg.maxEnsembleSize = 1024;

    const auto report =
        BugLocator(fx.suspect, fx.reference, cfg).locate();
    ASSERT_TRUE(report.bugFound) << report.summary();
    EXPECT_TRUE(intervalCoversDefect(fx.suspect, fx.reference,
                                     report.suspectBegin(),
                                     report.suspectEnd()))
        << report.summary();
}

// --- Config validation and diagnostics ---------------------------------------

TEST(LocateValidation, RejectsPassThresholdOutsideUnitInterval)
{
    const Fixture fx = zFrameFixture();
    LocateConfig cfg = measureConfig();
    for (double threshold : {1.5, -0.1}) {
        cfg.passThreshold = threshold;
        EXPECT_THROW((BugLocator(fx.suspect, fx.reference, cfg)),
                     qsa::Error);
        try {
            BugLocator(fx.suspect, fx.reference, cfg);
        } catch (const qsa::Error &err) {
            EXPECT_NE(std::string(err.what()).find("outside [0, 1]"),
                      std::string::npos)
                << err.what();
        }
    }
}

TEST(LocateValidation, RegisterFamiliesRejectedOnFullSpaceLocate)
{
    const Fixture fx = zFrameFixture();
    LocateConfig cfg = measureConfig();
    cfg.family = ProbeFamily::RotatedMarginal;
    const BugLocator locator(fx.suspect, fx.reference, cfg);
    EXPECT_THROW(locator.locate(), qsa::Error);
    try {
        locator.locate();
    } catch (const qsa::Error &err) {
        EXPECT_NE(std::string(err.what()).find("register scope"),
                  std::string::npos)
            << err.what();
    }
}

TEST(LocateValidation, BranchCapDiagnosticNamesTheInstruction)
{
    // One recycled qubit measured 13 times doubles the branch count
    // past the 2^12 cap. In exact mode the failure must be a designed
    // diagnostic — a catchable DeriveError naming the measuring
    // instruction and pointing at the sampled-mode escape hatch — not
    // a silent truncation, an OOM, or a process death. The default
    // Auto mode does not fail at all: it falls back to the sampled
    // oracle.
    Circuit circ(1);
    circ.prepZ(0, 0);
    for (int round = 0; round < 13; ++round) {
        circ.h(0);
        circ.measureQubits({0}, "m_" + std::to_string(round));
    }
    const QubitRegister reg("q", {0});

    OracleOptions exact;
    exact.mode = OracleMode::Exact;
    try {
        const PredicateOracle oracle(circ, reg, 0x51c0ffee, exact);
        FAIL() << "exact derivation past the branch cap must throw";
    } catch (const DeriveError &err) {
        const std::string message = err.what();
        EXPECT_NE(message.find(
                      "measurement-branch enumeration exceeded its "
                      "cap"),
                  std::string::npos)
            << message;
        EXPECT_NE(message.find("sampled"), std::string::npos)
            << message;
        EXPECT_NE(err.where().find("measure"), std::string::npos)
            << err.where();
    }

    const PredicateOracle fallback(circ, reg);
    EXPECT_TRUE(fallback.sampled());
}

TEST(MeasureFreeRegression, LinearScanTrajectoryIdentical)
{
    const Fixture fx = flippedRotationFixture();
    LocateConfig cfg;
    cfg.strategy = Strategy::LinearScan;
    cfg.ensembleSize = 64;
    cfg.maxEnsembleSize = 1024;

    const auto truncate =
        BugLocator(fx.suspect, fx.reference, cfg).locate();
    cfg.mode = assertions::EnsembleMode::Resimulate;
    const auto resim =
        BugLocator(fx.suspect, fx.reference, cfg).locate();
    expectSameTrajectory(truncate, resim, fx.name);
}

} // anonymous namespace
