/**
 * @file
 * Tests for the statistical assertion checker: the four assertion
 * types against known-good and known-bad states, both ensemble modes,
 * exact inspection helpers, and the paper's quoted p-values.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "algo/bell.hh"
#include "assertions/checker.hh"
#include "assertions/exact.hh"
#include "assertions/report.hh"
#include "common/errors.hh"

#include "expect_throw.hh"

namespace
{

using namespace qsa;
using namespace qsa::assertions;
using qsa::circuit::Circuit;
using qsa::circuit::QubitRegister;

/** Bell program plus registers for the two halves. */
struct BellFixture
{
    Circuit circ = algo::buildBellProgram();
    QubitRegister q0 = circ.reg("q").slice(0, 1, "q0");
    QubitRegister q1 = circ.reg("q").slice(1, 1, "q1");
};

TEST(Checker, ClassicalPassesOnPreparedValue)
{
    BellFixture f;
    AssertionChecker checker(f.circ);
    checker.assertClassical("classical", f.circ.reg("q"), 0);
    const auto outcomes = checker.checkAll();
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_TRUE(outcomes[0].passed);
    EXPECT_NEAR(outcomes[0].pValue, 1.0, 1e-9);
}

TEST(Checker, ClassicalFailsOnWrongValue)
{
    BellFixture f;
    AssertionChecker checker(f.circ);
    checker.assertClassical("classical", f.circ.reg("q"), 3);
    const auto o = checker.check(checker.assertions()[0]);
    EXPECT_FALSE(o.passed);
    EXPECT_EQ(o.pValue, 0.0);
    EXPECT_TRUE(o.impossibleOutcome);
}

TEST(Checker, ClassicalFailsOnSuperposedState)
{
    BellFixture f;
    AssertionChecker checker(f.circ);
    // After the H the state is no longer classical 0.
    checker.assertClassical("superposition", f.q0, 0);
    const auto o = checker.check(checker.assertions()[0]);
    EXPECT_FALSE(o.passed);
    EXPECT_EQ(o.pValue, 0.0);
}

TEST(Checker, SuperpositionPassesAfterH)
{
    BellFixture f;
    AssertionChecker checker(f.circ);
    checker.assertSuperposition("superposition", f.q0);
    const auto o = checker.check(checker.assertions()[0]);
    EXPECT_TRUE(o.passed);
    EXPECT_GT(o.pValue, 0.05);
}

TEST(Checker, SuperpositionFailsOnClassicalState)
{
    BellFixture f;
    AssertionChecker checker(f.circ);
    checker.assertSuperposition("classical", f.circ.reg("q"));
    const auto o = checker.check(checker.assertions()[0]);
    EXPECT_FALSE(o.passed);
    EXPECT_LT(o.pValue, 1e-6);
}

TEST(Checker, EntangledDetectsBellPair)
{
    BellFixture f;
    AssertionChecker checker(f.circ);
    checker.assertEntangled("entangled", f.q0, f.q1);
    const auto o = checker.check(checker.assertions()[0]);
    EXPECT_TRUE(o.passed);
    EXPECT_LE(o.pValue, 0.05);
    EXPECT_GT(o.cramersV, 0.9);
}

TEST(Checker, EntangledFailsBeforeCnot)
{
    BellFixture f;
    AssertionChecker checker(f.circ);
    // After only the H the qubits are independent.
    checker.assertEntangled("superposition", f.q0, f.q1);
    const auto o = checker.check(checker.assertions()[0]);
    EXPECT_FALSE(o.passed);
    EXPECT_GT(o.pValue, 0.05);
}

TEST(Checker, ProductPassesBeforeCnot)
{
    BellFixture f;
    AssertionChecker checker(f.circ);
    checker.assertProduct("superposition", f.q0, f.q1);
    const auto o = checker.check(checker.assertions()[0]);
    EXPECT_TRUE(o.passed);
}

TEST(Checker, ProductFailsOnBellPair)
{
    BellFixture f;
    AssertionChecker checker(f.circ);
    checker.assertProduct("entangled", f.q0, f.q1);
    const auto o = checker.check(checker.assertions()[0]);
    EXPECT_FALSE(o.passed);
    EXPECT_LE(o.pValue, 0.05);
}

TEST(Checker, PaperQuotedBellPValueAtEnsemble16)
{
    // Section 4.4: a perfectly correlated 2x2 table at ensemble size
    // 16 yields p ~ 0.0005 with the Yates correction. Finite samples
    // occasionally split 7/9, so accept the small family of exact
    // Yates p-values near it.
    BellFixture f;
    CheckConfig cfg;
    cfg.ensembleSize = 16;
    AssertionChecker checker(f.circ, cfg);
    checker.assertEntangled("entangled", f.q0, f.q1);
    const auto o = checker.check(checker.assertions()[0]);
    EXPECT_TRUE(o.passed);
    EXPECT_LT(o.pValue, 0.005);
}

TEST(Checker, ResimulateModeMatchesSampling)
{
    BellFixture f;

    CheckConfig fast;
    fast.mode = EnsembleMode::SampleFinalState;
    CheckConfig slow;
    slow.mode = EnsembleMode::Resimulate;
    slow.ensembleSize = fast.ensembleSize = 128;

    for (const auto &cfg : {fast, slow}) {
        AssertionChecker checker(f.circ, cfg);
        checker.assertEntangled("entangled", f.q0, f.q1);
        checker.assertClassical("classical", f.circ.reg("q"), 0);
        checker.assertSuperposition("superposition", f.q0);
        const auto outcomes = checker.checkAll();
        EXPECT_TRUE(allPassed(outcomes));
    }
}

TEST(Checker, GTestModeWorks)
{
    BellFixture f;
    CheckConfig cfg;
    cfg.useGTest = true;
    AssertionChecker checker(f.circ, cfg);
    checker.assertEntangled("entangled", f.q0, f.q1);
    checker.assertProduct("superposition", f.q0, f.q1);
    EXPECT_TRUE(allPassed(checker.checkAll()));
}

TEST(Checker, UnknownBreakpointRejected)
{
    BellFixture f;
    AssertionChecker checker(f.circ);
    EXPECT_THROW_MESSAGE(checker.assertClassical("nope", f.q0, 0), qsa::Error,
                         "no breakpoint");
}

TEST(Checker, GatherEnsembleShape)
{
    BellFixture f;
    CheckConfig cfg;
    cfg.ensembleSize = 64;
    AssertionChecker checker(f.circ, cfg);
    checker.assertEntangled("entangled", f.q0, f.q1);
    const auto pairs =
        checker.gatherEnsemble(checker.assertions()[0]);
    EXPECT_EQ(pairs.size(), 64u);
    for (const auto &[a, b] : pairs)
        EXPECT_EQ(a, b); // Bell: perfectly correlated
}

TEST(Checker, DeterministicAcrossRuns)
{
    BellFixture f;
    CheckConfig cfg;
    cfg.seed = 1234;
    AssertionChecker c1(f.circ, cfg), c2(f.circ, cfg);
    c1.assertEntangled("entangled", f.q0, f.q1);
    c2.assertEntangled("entangled", f.q0, f.q1);
    const auto o1 = c1.check(c1.assertions()[0]);
    const auto o2 = c2.check(c2.assertions()[0]);
    EXPECT_EQ(o1.pValue, o2.pValue);
    EXPECT_EQ(o1.statistic, o2.statistic);
}

// --- Exact inspection ------------------------------------------------------

TEST(Exact, MarginalBellHalves)
{
    BellFixture f;
    const auto probs = exactMarginal(f.circ, "entangled", f.q0);
    ASSERT_EQ(probs.size(), 2u);
    EXPECT_NEAR(probs[0], 0.5, 1e-12);
    EXPECT_NEAR(probs[1], 0.5, 1e-12);
}

TEST(Exact, JointBellDistribution)
{
    BellFixture f;
    const auto joint = exactJoint(f.circ, "entangled", f.q0, f.q1);
    EXPECT_NEAR(joint[0][0], 0.5, 1e-12);
    EXPECT_NEAR(joint[1][1], 0.5, 1e-12);
    EXPECT_NEAR(joint[0][1], 0.0, 1e-12);
    EXPECT_NEAR(joint[1][0], 0.0, 1e-12);
}

TEST(Exact, PurityTracksEntanglement)
{
    BellFixture f;
    EXPECT_NEAR(exactPurity(f.circ, "superposition", f.q0), 1.0, 1e-12);
    EXPECT_NEAR(exactPurity(f.circ, "entangled", f.q0), 0.5, 1e-12);
}

TEST(Exact, MutualInformationBell)
{
    BellFixture f;
    EXPECT_NEAR(exactMutualInformation(f.circ, "entangled", f.q0, f.q1),
                1.0, 1e-9); // one full bit
    EXPECT_NEAR(exactMutualInformation(f.circ, "superposition", f.q0,
                                       f.q1),
                0.0, 1e-9);
}

// --- Reports ----------------------------------------------------------------

TEST(Report, RendersVerdicts)
{
    BellFixture f;
    AssertionChecker checker(f.circ);
    checker.assertClassical("classical", f.circ.reg("q"), 0);
    checker.assertEntangled("entangled", f.q0, f.q1);
    const auto outcomes = checker.checkAll();
    const std::string report = renderReport(outcomes);
    EXPECT_NE(report.find("classical"), std::string::npos);
    EXPECT_NE(report.find("PASS"), std::string::npos);
    EXPECT_NE(report.find("p-value"), std::string::npos);

    const std::string line = renderOutcomeLine(outcomes[0]);
    EXPECT_NE(line.find("PASS"), std::string::npos);
}

TEST(Report, AllPassedFalseOnFailure)
{
    BellFixture f;
    AssertionChecker checker(f.circ);
    checker.assertClassical("classical", f.circ.reg("q"), 2); // wrong
    EXPECT_FALSE(allPassed(checker.checkAll()));
}

// --- GHZ generalisation -----------------------------------------------------

class GhzWidths : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(GhzWidths, EntanglementDetectedAtEveryWidth)
{
    const unsigned width = GetParam();
    Circuit circ;
    const auto q = circ.addRegister("q", width);
    algo::appendGhz(circ, q);
    circ.breakpoint("done");

    const auto half_a = q.slice(0, width / 2, "a");
    const auto half_b =
        q.slice(width / 2, width - width / 2, "b");

    AssertionChecker checker(circ);
    checker.assertEntangled("done", half_a, half_b);
    const auto o = checker.check(checker.assertions()[0]);
    EXPECT_TRUE(o.passed) << "width " << width;

    EXPECT_NEAR(exactPurity(circ, "done", half_a), 0.5, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Widths, GhzWidths,
                         ::testing::Values(2u, 3u, 4u, 5u, 6u));

// --- Spec validation at registration time ------------------------------------

TEST(SpecValidation, OutOfDomainClassicalValueRejected)
{
    // Registration must reject the value, not panic later inside
    // stats::pointMassExpected mid-check.
    BellFixture f;
    AssertionChecker checker(f.circ);
    EXPECT_THROW_MESSAGE(
        checker.assertClassical("classical", f.q0, 2), qsa::Error,
        "outside the register domain");
    EXPECT_THROW_MESSAGE(
        checker.assertClassical("classical", f.circ.reg("q"), 4), qsa::Error,
        "outside the register domain");
    // The top of the domain is still accepted.
    checker.assertClassical("classical", f.circ.reg("q"), 3);
    EXPECT_EQ(checker.assertions().size(), 1u);
}

TEST(SpecValidation, UniformSubsetErrorPathConsistent)
{
    BellFixture f;
    AssertionChecker checker(f.circ);
    EXPECT_THROW_MESSAGE(
        checker.assertUniformSubset("classical", f.q0, {2}), qsa::Error,
        "outside the register domain");
}

TEST(SpecValidation, DistributionShapeRejectedAtRegistration)
{
    // Matching the Classical treatment: malformed expectedProbs die
    // at registration, not later inside the chi-square machinery.
    BellFixture f;
    AssertionChecker checker(f.circ);

    // Wrong length: a 1-qubit register needs exactly 2 entries.
    EXPECT_THROW_MESSAGE(
        checker.assertDistribution("classical", f.q0, {0.5, 0.25, 0.25}),
        qsa::Error, "2\\^width entries");
    EXPECT_THROW_MESSAGE(
        checker.assertDistribution("classical", f.q0, {1.0}), qsa::Error,
        "2\\^width entries");

    // Not a probability vector.
    EXPECT_THROW_MESSAGE(
        checker.assertDistribution("classical", f.q0, {0.7, 0.7}), qsa::Error,
        "must sum to 1");
    EXPECT_THROW_MESSAGE(
        checker.assertDistribution("classical", f.q0, {-0.5, 1.5}), qsa::Error,
        "negative probability");
    const double nan = std::nan("");
    EXPECT_THROW_MESSAGE(
        checker.assertDistribution("classical", f.q0, {nan, 1.0}), qsa::Error,
        "non-finite");

    // A well-formed vector (within the 1e-6 sum tolerance) registers.
    checker.assertDistribution("classical", f.q0,
                               {0.5 + 4e-7, 0.5});
    EXPECT_EQ(checker.assertions().size(), 1u);
}

TEST(SpecValidation, FreeValidatorsShareTheCheckerSemantics)
{
    // validateSpecShape / validateSpec are the registration gate the
    // session facade uses; they must agree with the checker's.
    BellFixture f;
    AssertionSpec spec;
    spec.kind = AssertionKind::Distribution;
    spec.breakpoint = "classical";
    spec.regA = f.q0;
    spec.expectedProbs = {0.5, 0.5};
    validateSpecShape(spec);          // well-formed: no exit
    validateSpec(f.circ, spec);       // breakpoint exists: no exit

    spec.expectedProbs = {0.25, 0.25, 0.25, 0.25};
    EXPECT_THROW_MESSAGE(validateSpecShape(spec), qsa::Error,
                         "2\\^width entries");

    spec.expectedProbs = {0.5, 0.5};
    spec.breakpoint = "missing";
    EXPECT_THROW_MESSAGE(validateSpec(f.circ, spec), qsa::Error,
                         "no breakpoint labelled");
}

// --- Holm-Bonferroni family-wise control -------------------------------------

/** Synthetic outcome with a chosen p-value. */
AssertionOutcome
syntheticOutcome(double p, AssertionKind kind, double alpha = 0.05)
{
    AssertionOutcome out;
    out.spec.kind = kind;
    out.spec.alpha = alpha;
    out.pValue = p;
    out.effectiveAlpha = alpha;
    if (kind == AssertionKind::Entangled)
        out.passed = p <= alpha;
    else
        out.passed = p > alpha;
    return out;
}

TEST(HolmBonferroni, StepDownOrdering)
{
    // p = {0.01, 0.04, 0.04, 0.9} at alpha 0.05: rank 0 clears
    // 0.05/4 = 0.0125, rank 1 misses 0.05/3, and the step-down stops
    // — naive per-assertion alpha would have rejected three.
    std::vector<AssertionOutcome> outcomes{
        syntheticOutcome(0.04, AssertionKind::Classical),
        syntheticOutcome(0.9, AssertionKind::Classical),
        syntheticOutcome(0.01, AssertionKind::Classical),
        syntheticOutcome(0.04, AssertionKind::Classical),
    };
    EXPECT_EQ(applyHolmBonferroni(outcomes), 1u);
    EXPECT_TRUE(outcomes[0].passed);  // retained by the step-down
    EXPECT_TRUE(outcomes[1].passed);
    EXPECT_FALSE(outcomes[2].passed); // the one true rejection
    EXPECT_TRUE(outcomes[3].passed);
    EXPECT_NEAR(outcomes[2].effectiveAlpha, 0.05 / 4, 1e-12);
    EXPECT_NEAR(outcomes[1].effectiveAlpha, 0.05 / 1, 1e-12);
}

TEST(HolmBonferroni, EntangledSemanticsInverted)
{
    // For Entangled assertions rejection of independence is the
    // *passing* verdict: entanglement claims that squeak under the
    // naive per-assertion alpha no longer clear the corrected bar.
    std::vector<AssertionOutcome> outcomes{
        syntheticOutcome(0.03, AssertionKind::Entangled),
        syntheticOutcome(0.04, AssertionKind::Entangled),
    };
    EXPECT_TRUE(outcomes[0].passed); // naively significant...
    EXPECT_EQ(applyHolmBonferroni(outcomes), 0u);
    EXPECT_FALSE(outcomes[0].passed); // 0.03 > 0.05/2: step-down stops
    EXPECT_FALSE(outcomes[1].passed);
}

TEST(HolmBonferroni, CheckAllAppliesWhenConfigured)
{
    BellFixture f;
    CheckConfig cfg;
    cfg.holmBonferroni = true;
    AssertionChecker checker(f.circ, cfg);
    checker.assertClassical("classical", f.circ.reg("q"), 0);
    checker.assertEntangled("entangled", f.q0, f.q1);
    const auto outcomes = checker.checkAll();
    EXPECT_TRUE(allPassed(outcomes));
    // The step-down thresholds were recorded: the smaller p-value was
    // adjudicated against alpha / 2.
    const double lo = std::min(outcomes[0].effectiveAlpha,
                               outcomes[1].effectiveAlpha);
    EXPECT_NEAR(lo, 0.05 / 2, 1e-12);
}

// --- Sequential-testing escalation hook --------------------------------------

TEST(Escalation, DecisiveVerdictStopsAtInitialSize)
{
    BellFixture f;
    AssertionChecker checker(f.circ);
    checker.assertClassical("classical", f.circ.reg("q"), 0);

    EscalationPolicy policy;
    policy.initialSize = 32;
    policy.maxSize = 1024;
    const auto out =
        checker.checkEscalated(checker.assertions()[0], policy);
    EXPECT_TRUE(out.passed);
    EXPECT_EQ(out.ensembleSize, 32u); // p = 1: no escalation needed
}

TEST(Escalation, CapMatchesPlainCheckBitIdentically)
{
    BellFixture f;
    CheckConfig cfg;
    cfg.ensembleSize = 128;
    AssertionChecker checker(f.circ, cfg);
    checker.assertEntangled("entangled", f.q0, f.q1);

    EscalationPolicy policy;
    policy.initialSize = 128;
    policy.maxSize = 128;
    const auto escalated =
        checker.checkEscalated(checker.assertions()[0], policy);
    const auto plain = checker.check(checker.assertions()[0]);
    EXPECT_EQ(escalated.pValue, plain.pValue);
    EXPECT_EQ(escalated.statistic, plain.statistic);
    EXPECT_EQ(escalated.ensembleSize, plain.ensembleSize);
}

TEST(Escalation, UnderpoweredEntangledAssertionEscalates)
{
    // An entangled assertion passes by *rejecting* independence; a
    // tiny ensemble cannot reject at a strict alpha, so escalation
    // must keep growing the ensemble until the correlation shows
    // instead of declaring failure from weak evidence.
    BellFixture f;
    AssertionChecker checker(f.circ);
    checker.assertEntangled("entangled", f.q0, f.q1, 0.001);

    EscalationPolicy policy;
    policy.initialSize = 8;
    policy.maxSize = 1024;
    const auto out =
        checker.checkEscalated(checker.assertions()[0], policy);
    EXPECT_TRUE(out.passed);
    EXPECT_GT(out.ensembleSize, 8u);
}

TEST(Escalation, InconclusiveProbeGrowsTheEnsemble)
{
    // A distribution hypothesis mildly off the true one: small
    // ensembles land in the inconclusive band and escalate; the
    // final verdict is decisive or at the cap, and deterministic.
    Circuit circ;
    const auto q = circ.addRegister("q", 1);
    circ.h(q[0]);
    circ.breakpoint("bp");

    AssertionChecker checker(circ);
    AssertionSpec spec;
    spec.kind = AssertionKind::Distribution;
    spec.breakpoint = "bp";
    spec.regA = q;
    spec.expectedProbs = {0.38, 0.62}; // truth is {0.5, 0.5}
    spec.alpha = 0.01;

    EscalationPolicy policy;
    policy.initialSize = 64;
    policy.maxSize = 4096;
    const auto out = checker.checkEscalated(spec, policy);
    EXPECT_GT(out.ensembleSize, 64u);
    EXPECT_TRUE(out.pValue <= spec.alpha ||
                out.pValue >= policy.passThreshold ||
                out.ensembleSize == policy.maxSize);

    const auto again = checker.checkEscalated(spec, policy);
    EXPECT_EQ(out.ensembleSize, again.ensembleSize);
    EXPECT_EQ(out.pValue, again.pValue);
}

} // anonymous namespace
