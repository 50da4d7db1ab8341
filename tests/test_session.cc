/**
 * @file
 * Tests for the qsa::session facade: bit-identical equivalence with
 * the direct AssertionChecker path (across thread counts and ensemble
 * modes — the facade's core contract), boundary addressing with
 * on-demand instrumentation, fluent handles, composable escalation /
 * Holm-Bonferroni policies, the locate() handoff, and
 * registration-time validation.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "qsa/qsa.hh"

#include "expect_throw.hh"
#include "parse_json.hh"

namespace
{

using namespace qsa;
using assertions::AssertionOutcome;
using assertions::CheckConfig;
using assertions::EnsembleMode;
using circuit::Circuit;
using circuit::QubitRegister;

/** Field-for-field equality of two outcomes (bit-identical). */
void
expectIdentical(const AssertionOutcome &got,
                const AssertionOutcome &want, const std::string &where)
{
    EXPECT_EQ(got.pValue, want.pValue) << where;
    EXPECT_EQ(got.statistic, want.statistic) << where;
    EXPECT_EQ(got.df, want.df) << where;
    EXPECT_EQ(got.passed, want.passed) << where;
    EXPECT_EQ(got.ensembleSize, want.ensembleSize) << where;
    EXPECT_EQ(got.effectiveAlpha, want.effectiveAlpha) << where;
    EXPECT_EQ(got.countsA, want.countsA) << where;
    EXPECT_EQ(got.jointCounts, want.jointCounts) << where;
    EXPECT_EQ(got.cramersV, want.cramersV) << where;
    EXPECT_EQ(got.impossibleOutcome, want.impossibleOutcome) << where;
    EXPECT_EQ(got.spec.name, want.spec.name) << where;
}

/** Bell program plus the sliced halves. */
struct BellFixture
{
    Circuit circ = algo::buildBellProgram();
    QubitRegister q = circ.reg("q");
    QubitRegister q0 = circ.reg("q").slice(0, 1, "q0");
    QubitRegister q1 = circ.reg("q").slice(1, 1, "q1");
};

/**
 * The acceptance contract: every quickstart assertion registered
 * through Session yields the identical AssertionOutcome as the direct
 * AssertionChecker path, for both ensemble modes and thread counts
 * 1 / 4 / 0 (shared pool).
 */
TEST(SessionEquivalence, QuickstartPlanMatchesCheckerBitIdentically)
{
    BellFixture f;
    for (auto mode : {EnsembleMode::Resimulate,
                      EnsembleMode::SampleFinalState}) {
        for (unsigned threads : {1u, 4u, 0u}) {
            CheckConfig cfg;
            cfg.ensembleSize = 256;
            cfg.mode = mode;
            cfg.numThreads = threads;

            session::Session s(f.circ, cfg);
            s.at("classical").expectClassical(f.q, 0);
            s.at("superposition").expectSuperposition(f.q0);
            s.at("superposition").expectProduct(f.q0, f.q1);
            s.at("entangled").expectEntangled(f.q0, f.q1);
            const auto &got = s.run();

            assertions::AssertionChecker checker(f.circ, cfg);
            checker.assertClassical("classical", f.q, 0);
            checker.assertSuperposition("superposition", f.q0);
            checker.assertProduct("superposition", f.q0, f.q1);
            checker.assertEntangled("entangled", f.q0, f.q1);
            const auto want = checker.checkAll();

            ASSERT_EQ(got.size(), want.size());
            for (std::size_t i = 0; i < want.size(); ++i) {
                expectIdentical(
                    got[i], want[i],
                    "spec " + std::to_string(i) + " mode " +
                        std::to_string((int)mode) + " threads " +
                        std::to_string(threads));
            }
            EXPECT_TRUE(s.allPassed());
        }
    }
}

TEST(SessionEquivalence, BoundarySitesMatchManualInstrumentation)
{
    // A raw circuit with no breakpoints at all: the facade
    // instruments on demand; the manual path instruments by hand with
    // the same labels. Outcomes must be bit-identical.
    Circuit raw;
    const auto q = raw.addRegister("q", 2);
    raw.prepZ(q[0], 0);
    raw.prepZ(q[1], 0);
    raw.h(q[0]);
    raw.cnot(q[0], q[1]);
    const auto q0 = q.slice(0, 1, "q0");
    const auto q1 = q.slice(1, 1, "q1");

    CheckConfig cfg;
    cfg.ensembleSize = 128;

    session::Session s(raw, cfg);
    s.after(2).expectClassical(q, 0);
    s.after(3).expectSuperposition(q0);
    s.after(4).expectEntangled(q0, q1);
    const auto &got = s.run();

    const Circuit instrumented =
        raw.withBoundaryBreakpoints("qsa_session_b");
    assertions::AssertionChecker checker(instrumented, cfg);
    checker.assertClassical(session::Session::boundaryLabel(2), q, 0);
    checker.assertSuperposition(session::Session::boundaryLabel(3),
                                q0);
    checker.assertEntangled(session::Session::boundaryLabel(4), q0,
                            q1);
    const auto want = checker.checkAll();

    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        expectIdentical(got[i], want[i], "spec " + std::to_string(i));

    // Labelled and boundary addressing may be mixed once
    // instrumented: the original labels survive instrumentation.
    session::Session mixed(algo::buildBellProgram(), cfg);
    mixed.after(2).expectClassical(q, 0);
    mixed.at("entangled").expectEntangled(q0, q1);
    EXPECT_TRUE(mixed.allPassed());
}

TEST(SessionEquivalence, EscalationPolicyMatchesCheckEscalated)
{
    // An Entangled assertion at M = 8 under a strict alpha is
    // underpowered (it cannot reject independence yet), so the policy
    // escalates — the facade must land on exactly the checkEscalated
    // verdict.
    BellFixture f;
    const assertions::EscalationPolicy policy{8, 512, 0.30};

    CheckConfig cfg;
    session::Session s(f.circ, cfg);
    s.use(policy);
    s.at("entangled").expectEntangled(f.q0, f.q1).alpha(0.001);
    s.at("superposition").expectSuperposition(f.q0);
    const auto &got = s.run();

    assertions::AssertionChecker checker(f.circ, cfg);
    checker.assertEntangled("entangled", f.q0, f.q1, 0.001);
    checker.assertSuperposition("superposition", f.q0);
    ASSERT_EQ(got.size(), 2u);
    for (std::size_t i = 0; i < got.size(); ++i) {
        expectIdentical(
            got[i],
            checker.checkEscalated(checker.assertions()[i], policy),
            "escalated spec " + std::to_string(i));
    }
    EXPECT_GT(got[0].ensembleSize, policy.initialSize);
}

TEST(SessionEquivalence, HolmBonferroniPolicyMatchesCheckerFlag)
{
    BellFixture f;
    CheckConfig cfg;
    cfg.ensembleSize = 256;

    session::Session s(f.circ, cfg);
    s.use(session::HolmBonferroni{});
    s.at("classical").expectClassical(f.q, 0);
    s.at("superposition").expectSuperposition(f.q0);
    s.at("superposition").expectProduct(f.q0, f.q1);
    s.at("entangled").expectEntangled(f.q0, f.q1);
    const auto &got = s.run();

    CheckConfig flag_cfg = cfg;
    flag_cfg.holmBonferroni = true;
    assertions::AssertionChecker checker(f.circ, flag_cfg);
    checker.assertClassical("classical", f.q, 0);
    checker.assertSuperposition("superposition", f.q0);
    checker.assertProduct("superposition", f.q0, f.q1);
    checker.assertEntangled("entangled", f.q0, f.q1);
    const auto want = checker.checkAll();

    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        expectIdentical(got[i], want[i], "hb spec " + std::to_string(i));

    // The policy is composable: switching it off restores
    // per-assertion adjudication.
    s.use(session::HolmBonferroni{false});
    for (const auto &out : s.run())
        EXPECT_EQ(out.effectiveAlpha, out.spec.alpha);
}

// --- Fluent surface ---------------------------------------------------------

TEST(SessionFluent, HandlesRefineSpecsAndReadOutcomes)
{
    BellFixture f;
    session::Session s(f.circ);
    auto &e = s.at("entangled")
                  .expectEntangled(f.q0, f.q1)
                  .alpha(0.01)
                  .named("bell-pair entangled");
    EXPECT_EQ(e.spec().alpha, 0.01);
    EXPECT_EQ(e.spec().name, "bell-pair entangled");

    // Reading the handle runs the plan on demand.
    EXPECT_TRUE(e.passed());
    EXPECT_LE(e.pValue(), 0.01);
    EXPECT_EQ(e.outcome().effectiveAlpha, 0.01);

    const std::string report = s.report();
    EXPECT_NE(report.find("bell-pair entangled"), std::string::npos);

    // Renaming after the run patches the report without invalidating
    // (and thus recomputing) the plan's ensembles.
    const double p = e.pValue();
    e.named("renamed");
    EXPECT_NE(s.report().find("renamed"), std::string::npos);
    EXPECT_EQ(e.pValue(), p);
}

TEST(SessionFluent, LateRegistrationsMakeResultsStale)
{
    BellFixture f;
    session::Session s(f.circ);
    s.at("classical").expectClassical(f.q, 0);
    EXPECT_EQ(s.outcomes().size(), 1u);

    // A second registration after the first run: reading any result
    // re-runs the grown plan.
    auto &e = s.at("entangled").expectEntangled(f.q0, f.q1);
    EXPECT_TRUE(e.passed());
    EXPECT_EQ(s.outcomes().size(), 2u);

    // Default display names match the checker's convention.
    EXPECT_EQ(s.outcomes()[1].spec.name, "entangled@entangled");
}

TEST(SessionFluent, ConfigSettersRebuildTheEngine)
{
    BellFixture f;
    session::Session s(f.circ);
    s.at("superposition").expectSuperposition(f.q0);
    const auto first = s.outcomes()[0];

    s.ensembleSize(512).seed(0xfeedbeef);
    const auto second = s.outcomes()[0];
    EXPECT_EQ(second.ensembleSize, 512u);
    EXPECT_NE(first.countsA, second.countsA);

    // Returning to the original configuration reproduces the first
    // outcome exactly (the determinism contract through the facade).
    s.ensembleSize(256).seed(CheckConfig().seed);
    expectIdentical(s.outcomes()[0], first, "restored config");
}

TEST(SessionFluent, PerExpectationEnsembleSizeMatchesHandBuiltConfig)
{
    // The facade follow-up: one expectation runs at its own ensemble
    // size while the rest keep the session default, bit-identical to
    // a hand-built CheckConfig at that size.
    BellFixture f;
    CheckConfig cfg;
    cfg.ensembleSize = 128;

    session::Session s(f.circ, cfg);
    s.at("classical").expectClassical(f.q, 0);
    auto &big = s.at("entangled")
                    .expectEntangled(f.q0, f.q1)
                    .ensembleSize(512);
    const auto &got = s.run();
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].ensembleSize, 128u);
    EXPECT_EQ(big.outcome().ensembleSize, 512u);

    CheckConfig big_cfg = cfg;
    big_cfg.ensembleSize = 512;
    assertions::AssertionChecker direct(f.circ, big_cfg);
    direct.assertEntangled("entangled", f.q0, f.q1);
    expectIdentical(got[1], direct.check(direct.assertions()[0]),
                    "overridden expectation");

    // The default-sized sibling is untouched by the override.
    assertions::AssertionChecker small(f.circ, cfg);
    small.assertClassical("classical", f.q, 0);
    expectIdentical(got[0], small.check(small.assertions()[0]),
                    "default-size expectation");

    // Clearing the override restores the session default.
    big.ensembleSize(0);
    EXPECT_EQ(big.outcome().ensembleSize, 128u);
}

TEST(SessionFluent, EnsembleSizeOverrideComposesWithEscalation)
{
    // With a policy in use, the override replaces the policy's
    // initial size for that one assertion — exactly checkEscalated
    // under the adjusted policy.
    BellFixture f;
    const assertions::EscalationPolicy policy{8, 512, 0.30};

    session::Session s(f.circ);
    s.use(policy);
    s.at("entangled")
        .expectEntangled(f.q0, f.q1)
        .alpha(0.001)
        .ensembleSize(256);
    const auto &got = s.run();

    assertions::AssertionChecker checker(f.circ, CheckConfig());
    checker.assertEntangled("entangled", f.q0, f.q1, 0.001);
    const assertions::EscalationPolicy adjusted{256, 512, 0.30};
    expectIdentical(
        got[0],
        checker.checkEscalated(checker.assertions()[0], adjusted),
        "override + escalation");
}

// --- Structured export ------------------------------------------------------

TEST(SessionExport, JsonCarriesTheOutcomeTable)
{
    BellFixture f;
    session::Session s(f.circ);
    s.ensembleSize(64);
    s.at("classical").expectClassical(f.q, 0).named("prep-cleared");
    s.at("entangled").expectEntangled(f.q0, f.q1);

    const std::string text = s.exportJson();
    const json::Value doc = parseJson(text);

    // Session block, one record per assertion, and the verdict.
    const json::Value &config = *doc.find("session");
    EXPECT_EQ(config.find("program_size")->asUint64(), f.circ.size());
    EXPECT_EQ(config.find("num_qubits")->asUint64(), f.circ.numQubits());
    EXPECT_EQ(config.find("ensemble_size")->asUint64(), 64u);
    EXPECT_EQ(config.find("mode")->asString(), "sample_final_state");
    EXPECT_FALSE(config.find("holm_bonferroni")->asBool());
    EXPECT_EQ(config.find("escalation"), nullptr);
    EXPECT_TRUE(doc.find("all_passed")->asBool());
    EXPECT_TRUE(doc.find("metrics")->isObject());

    const auto &outcomes = s.outcomes();
    const json::Value &records = *doc.find("assertions");
    ASSERT_EQ(records.size(), 2u);
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_EQ(records.at(0).find("name")->asString(), "prep-cleared");
    EXPECT_EQ(records.at(1).find("name")->asString(),
              "entangled@entangled");
    EXPECT_EQ(records.at(1).find("kind")->asString(), "entangled");
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const json::Value &record = records.at(i);
        const assertions::AssertionOutcome &o = outcomes[i];
        EXPECT_EQ(record.find("kind")->asString(),
                  assertions::assertionKindName(o.spec.kind));
        EXPECT_EQ(record.find("breakpoint")->asString(), o.spec.breakpoint);
        EXPECT_EQ(record.find("passed")->asBool(), o.passed);
        EXPECT_EQ(record.find("p_value")->asDouble(), o.pValue);
        EXPECT_EQ(record.find("df")->asDouble(), o.df);
        EXPECT_EQ(record.find("ensemble_size")->asUint64(), 64u);
        EXPECT_EQ(record.find("alpha")->asDouble(), o.spec.alpha);
        EXPECT_EQ(record.find("effective_alpha")->asDouble(),
                  o.effectiveAlpha);
        EXPECT_EQ(record.find("impossible_outcome")->asBool(),
                  o.impossibleOutcome);
        const json::Value &counts = *record.find("counts");
        ASSERT_EQ(counts.size(), o.countsA.size());
        for (const auto &[value, count] : o.countsA)
            EXPECT_EQ(counts.find(std::to_string(value))->asUint64(),
                      count);
    }

    // The file-writing overload writes the same document as one line.
    const std::string path =
        ::testing::TempDir() + "qsa_session_export.json";
    s.exportJson(path);
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    EXPECT_EQ(buffer.str(), text + "\n");
}

// --- Localization handoff ---------------------------------------------------

/** Misrouted-control fixture pair (bench_locate's mid-size shape). */
std::pair<Circuit, Circuit>
misroutedPair()
{
    std::pair<Circuit, Circuit> pair;
    Circuit *circs[] = {&pair.first, &pair.second};
    for (Circuit *circ : circs) {
        const bool buggy = circ == &pair.first;
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
    return pair;
}

TEST(SessionLocate, HandsOffToBugLocatorWithSessionPolicies)
{
    const auto [buggy, reference] = misroutedPair();

    session::Session s(buggy);
    s.seed(0x5e5510caull); // any session seed carries over
    s.use(assertions::EscalationPolicy{64, 1024, 0.30});
    const auto report = s.locate(reference);
    EXPECT_TRUE(report.bugFound);
    EXPECT_LT(report.probes.size(), buggy.size());

    // The handoff is a pure derivation: BugLocator under the derived
    // config reproduces the same localization.
    const locate::BugLocator locator(
        buggy, reference,
        s.locateConfig(locate::Strategy::AdaptiveBinarySearch));
    const auto direct = locator.locate();
    EXPECT_EQ(report.bugFound, direct.bugFound);
    EXPECT_EQ(report.firstFailing, direct.firstFailing);
    EXPECT_EQ(report.lastPassing, direct.lastPassing);
    EXPECT_EQ(report.probes.size(), direct.probes.size());

    // The derived config carries the session's knobs.
    const auto lc =
        s.locateConfig(locate::Strategy::AdaptiveBinarySearch);
    EXPECT_EQ(lc.seed, s.config().seed);
    EXPECT_EQ(lc.ensembleSize, 64u);
    EXPECT_EQ(lc.maxEnsembleSize, 1024u);
}

TEST(SessionLocate, ResimulateSessionLocalizesPastMeasurement)
{
    // A session switched to Resimulate mode hands that mode to the
    // locator: the defect behind the mid-circuit measurement (a
    // flipped rotation after a classically-conditioned correction)
    // is bracketed — the default mode would clamp the probeable
    // range before it.
    const auto build = [](bool buggy) {
        Circuit c;
        const auto q = c.addRegister("q", 2);
        c.prepZ(q[0], 0);
        c.prepZ(q[1], 0);
        c.h(q[0]);
        c.measureQubits({q[0]}, "m");
        c.x(q[1]);
        c.conditionLast("m", 1);
        c.ry(q[1], buggy ? 0.9 : -0.9); // the post-measure defect
        return c;
    };
    const Circuit buggy = build(true);
    const Circuit reference = build(false);

    session::Session s(buggy);
    s.mode(EnsembleMode::Resimulate);
    s.use(assertions::EscalationPolicy{64, 1024, 0.30});
    const auto report = s.locate(reference);
    ASSERT_TRUE(report.bugFound) << report.summary();
    EXPECT_EQ(report.suspectBegin(), buggy.size() - 1)
        << report.summary();

    // The derived config carries the session's mode.
    const auto lc =
        s.locateConfig(locate::Strategy::AdaptiveBinarySearch);
    EXPECT_EQ(lc.mode, EnsembleMode::Resimulate);
}

TEST(SessionLocate, ProbeFamilyCarriesIntoTheLocator)
{
    // A conditioned frame defect: the correction applies S where the
    // reference applies Z, so the divergence is a relative phase
    // invisible to every computational-basis probe until the verify
    // rotation. The session's swap-test family brackets the defect
    // itself; the default family brackets the verify step.
    // One-bit teleportation: measuring q0 leaves q1 in Z^m |psi>,
    // and the conditioned Z restores |psi> in both branches.
    const auto build = [](bool buggy) {
        Circuit c;
        const auto q = c.addRegister("q", 2);
        c.prepZ(q[0], 0);
        c.prepZ(q[1], 0);
        c.ry(q[0], 1.1); // the payload
        c.cnot(q[0], q[1]);
        c.h(q[0]);
        c.measureQubits({q[0]}, "m");
        if (buggy)
            c.phase(q[1], M_PI / 2); // [6] S frame instead of Z
        else
            c.z(q[1]);
        c.conditionLast("m", 1);
        c.ry(q[1], -1.1); // verify: rotates the error into view
        return c;
    };
    const Circuit buggy = build(true);
    const Circuit reference = build(false);
    const QubitRegister target = buggy.reg("q").slice(1, 1, "q1");

    session::Session s(buggy);
    s.mode(EnsembleMode::Resimulate);
    s.use(assertions::EscalationPolicy{64, 1024, 0.30});

    const auto marginal = s.locate(reference, target);
    ASSERT_TRUE(marginal.bugFound) << marginal.summary();
    EXPECT_EQ(marginal.suspectBegin(), buggy.size() - 1)
        << marginal.summary();

    s.probes(locate::ProbeFamily::SwapTest);
    const auto lc =
        s.locateConfig(locate::Strategy::AdaptiveBinarySearch);
    EXPECT_EQ(lc.family, locate::ProbeFamily::SwapTest);

    const auto swap = s.locate(reference, target);
    ASSERT_TRUE(swap.bugFound) << swap.summary();
    EXPECT_EQ(swap.suspectBegin(), 6u) << swap.summary();
    EXPECT_EQ(swap.decidedBy, locate::ProbeFamily::SwapTest);
}

// --- Registration-time validation -------------------------------------------

TEST(SessionValidation, UnknownLabelRejectedAtAddressTime)
{
    BellFixture f;
    session::Session s(f.circ);
    EXPECT_THROW_MESSAGE(s.at("nonexistent"), qsa::Error,
                         "no breakpoint labelled");
}

TEST(SessionValidation, BoundaryBeyondProgramRejected)
{
    BellFixture f;
    session::Session s(f.circ);
    EXPECT_THROW_MESSAGE(s.after(f.circ.size() + 1), qsa::Error,
                         "beyond the program");
    // The end boundary itself is valid.
    s.after(f.circ.size());
}

TEST(SessionValidation, MalformedSpecsRejectedAtRegistration)
{
    BellFixture f;
    session::Session s(f.circ);
    auto site = s.at("classical");
    EXPECT_THROW_MESSAGE(site.expectClassical(f.q, 4), qsa::Error,
                         "outside the register domain");
    EXPECT_THROW_MESSAGE(
        site.expectDistribution(f.q0, {0.5, 0.25, 0.25}), qsa::Error,
        "2\\^width entries");
    EXPECT_THROW_MESSAGE(site.expectDistribution(f.q0, {0.7, 0.7}), qsa::Error,
                         "must sum to 1");
    EXPECT_THROW_MESSAGE(site.expectSuperposition(f.q0).alpha(1.5), qsa::Error,
                         "strictly between");
    EXPECT_THROW_MESSAGE(s.ensembleSize(0), qsa::Error, "positive");
}

} // anonymous namespace
