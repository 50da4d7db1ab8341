/**
 * @file
 * Tests for the qsa::analyze lint layer: one positive and one
 * negative case per registered rule, registry invariants, report
 * rendering, and — the linter's core quality bar — zero findings on
 * every clean reference circuit the examples ship (a rule that cries
 * wolf on correct code is worse than no rule).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "parse_json.hh"
#include "qsa/qsa.hh"

namespace
{

using namespace qsa;
using analyze::Diagnostic;
using analyze::LintReport;
using analyze::Severity;
using circuit::Circuit;

/** Findings of one rule in a report. */
std::vector<Diagnostic>
byRule(const LintReport &report, const std::string &rule)
{
    std::vector<Diagnostic> found;
    for (const Diagnostic &d : report.diagnostics) {
        if (d.rule == rule)
            found.push_back(d);
    }
    return found;
}

// --- registry --------------------------------------------------------------

TEST(LintRegistry, RulesHaveUniqueIdsAndSummaries)
{
    const auto &rules = analyze::lintRules();
    EXPECT_EQ(rules.size(), 7u);
    std::set<std::string> ids;
    for (const auto &rule : rules) {
        EXPECT_FALSE(rule.id.empty());
        EXPECT_FALSE(rule.summary.empty());
        EXPECT_NE(rule.run, nullptr);
        EXPECT_TRUE(ids.insert(rule.id).second)
            << "duplicate rule id " << rule.id;
    }
    EXPECT_TRUE(ids.count("cond-unwritten-label"));
    EXPECT_TRUE(ids.count("reset-entangled"));
    EXPECT_TRUE(ids.count("adjacent-self-inverse"));
}

TEST(LintRegistry, DiagnosticsSortedByInstructionThenRule)
{
    // One circuit firing several rules at scattered positions.
    Circuit circ;
    const auto q = circ.addRegister("q", 3);
    circ.h(q[0]);
    circ.h(q[0]); // adjacent-self-inverse at 0
    circ.measureQubits({q[0]}, "m");
    circ.measureQubits({q[0]}, "m2"); // double-measurement at 3
    circ.x(q[1]);
    circ.conditionLast("typo", 1); // cond-unwritten-label at 4
    circ.measureQubits({q[1], q[2]}, "out");

    const LintReport report = analyze::lintCircuit(circ);
    ASSERT_GE(report.diagnostics.size(), 3u);
    for (std::size_t i = 1; i < report.diagnostics.size(); ++i) {
        const Diagnostic &a = report.diagnostics[i - 1];
        const Diagnostic &b = report.diagnostics[i];
        EXPECT_TRUE(a.instruction < b.instruction ||
                    (a.instruction == b.instruction && a.rule <= b.rule));
    }
}

// --- cond-unwritten-label --------------------------------------------------

TEST(LintRules, CondUnwrittenLabelFiresOnTypo)
{
    Circuit circ;
    const auto q = circ.addRegister("q", 2);
    circ.h(q[0]);
    circ.measureQubits({q[0]}, "m");
    circ.x(q[1]);
    circ.conditionLast("mm", 1); // nothing writes "mm"
    circ.measureQubits({q[1]}, "out");

    const auto found =
        byRule(analyze::lintCircuit(circ), "cond-unwritten-label");
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].severity, Severity::Error);
    EXPECT_EQ(found[0].instruction, 2u);
    EXPECT_EQ(found[0].label, "mm");
    EXPECT_EQ(found[0].qubits, std::vector<unsigned>{q[1]});
    EXPECT_TRUE(analyze::lintCircuit(circ).hasErrors());
}

TEST(LintRules, CondWrittenLabelIsClean)
{
    Circuit circ;
    const auto q = circ.addRegister("q", 2);
    circ.h(q[0]);
    circ.measureQubits({q[0]}, "m");
    circ.x(q[1]);
    circ.conditionLast("m", 1);
    circ.measureQubits({q[1]}, "out");

    EXPECT_TRUE(
        byRule(analyze::lintCircuit(circ), "cond-unwritten-label")
            .empty());
}

// --- cond-unsatisfiable ----------------------------------------------------

TEST(LintRules, CondUnsatisfiableFiresOnOutOfRangeValue)
{
    Circuit circ;
    const auto q = circ.addRegister("q", 2);
    circ.h(q[0]);
    circ.measureQubits({q[0]}, "m"); // 1 bit wide
    circ.z(q[1]);
    circ.conditionLast("m", 2); // can never read 2
    circ.measureQubits({q[1]}, "out");

    const auto found =
        byRule(analyze::lintCircuit(circ), "cond-unsatisfiable");
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].severity, Severity::Warning);
    EXPECT_EQ(found[0].instruction, 2u);
    EXPECT_EQ(found[0].label, "m");
}

TEST(LintRules, CondInRangeValueIsClean)
{
    Circuit circ;
    const auto q = circ.addRegister("q", 3);
    circ.h(q[0]);
    circ.measureQubits({q[0], q[1]}, "m"); // 2 bits: values 0..3
    circ.z(q[2]);
    circ.conditionLast("m", 3);
    circ.measureQubits({q[2]}, "out");

    EXPECT_TRUE(byRule(analyze::lintCircuit(circ), "cond-unsatisfiable")
                    .empty());
}

// --- double-measurement ----------------------------------------------------

TEST(LintRules, DoubleMeasurementFiresWithNoGateBetween)
{
    Circuit circ;
    const auto q = circ.addRegister("q", 1);
    circ.h(q[0]);
    circ.measureQubits({q[0]}, "a");
    circ.measureQubits({q[0]}, "b"); // deterministic repeat

    const auto found =
        byRule(analyze::lintCircuit(circ), "double-measurement");
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].instruction, 2u);
    EXPECT_EQ(found[0].label, "b");
}

TEST(LintRules, RemeasureAfterGateIsClean)
{
    Circuit circ;
    const auto q = circ.addRegister("q", 1);
    circ.h(q[0]);
    circ.measureQubits({q[0]}, "a");
    circ.h(q[0]);
    circ.measureQubits({q[0]}, "b");

    EXPECT_TRUE(byRule(analyze::lintCircuit(circ), "double-measurement")
                    .empty());
}

// --- measure-without-reset -------------------------------------------------

TEST(LintRules, MeasureWithoutResetFiresOnRecycledQubit)
{
    Circuit circ;
    const auto q = circ.addRegister("q", 2);
    circ.h(q[0]);
    circ.measureQubits({q[0]}, "m");
    circ.h(q[0]); // reuse without reset
    circ.cnot(q[0], q[1]);
    circ.measureQubits({q[0], q[1]}, "out");

    const auto found =
        byRule(analyze::lintCircuit(circ), "measure-without-reset");
    ASSERT_EQ(found.size(), 1u) << "no cascade over later gates";
    EXPECT_EQ(found[0].instruction, 2u);
    EXPECT_EQ(found[0].qubits, std::vector<unsigned>{q[0]});
}

TEST(LintRules, ResetOrConditionedCorrectionIsClean)
{
    // PrepZ recycling.
    Circuit reset;
    const auto q = reset.addRegister("q", 1);
    reset.h(q[0]);
    reset.measureQubits({q[0]}, "m");
    reset.prepZ(q[0], 0);
    reset.h(q[0]);
    reset.measureQubits({q[0]}, "out");
    EXPECT_TRUE(
        byRule(analyze::lintCircuit(reset), "measure-without-reset")
            .empty());

    // The manual-reset idiom: a conditioned X on the measured qubit.
    Circuit cond;
    const auto p = cond.addRegister("q", 1);
    cond.h(p[0]);
    cond.measureQubits({p[0]}, "m");
    cond.x(p[0]);
    cond.conditionLast("m", 1);
    cond.measureQubits({p[0]}, "out");
    EXPECT_TRUE(
        byRule(analyze::lintCircuit(cond), "measure-without-reset")
            .empty());
}

// --- reset-entangled -------------------------------------------------------

TEST(LintRules, ResetEntangledFiresOnReleasedAncilla)
{
    Circuit circ;
    const auto q = circ.addRegister("q", 2);
    circ.h(q[0]);
    circ.cnot(q[0], q[1]);
    circ.prepZ(q[1], 0); // still entangled with q0

    const auto found =
        byRule(analyze::lintCircuit(circ), "reset-entangled");
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].instruction, 2u);
    EXPECT_EQ(found[0].qubits, std::vector<unsigned>{q[1]});
}

TEST(LintRules, TableauSuppressesUnionFindOverApproximation)
{
    // Union-find sees one connected group, but the exact tableau
    // proves the uncomputed ancilla is back in a product state.
    Circuit circ;
    const auto q = circ.addRegister("q", 2);
    circ.h(q[0]);
    circ.cnot(q[0], q[1]);
    circ.cnot(q[0], q[1]); // uncompute
    circ.prepZ(q[1], 0);

    EXPECT_TRUE(byRule(analyze::lintCircuit(circ), "reset-entangled")
                    .empty());
}

TEST(LintRules, NonCliffordPrefixFallsBackToUnionFind)
{
    // The T gate puts the reset past the decidable prefix, so the
    // union-find over-approximation fires conservatively even though
    // the CNOT pair cancels.
    Circuit circ;
    const auto q = circ.addRegister("q", 2);
    circ.t(q[0]);
    circ.cnot(q[0], q[1]);
    circ.cnot(q[0], q[1]);
    circ.prepZ(q[1], 0);

    const auto found =
        byRule(analyze::lintCircuit(circ), "reset-entangled");
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].instruction, 3u);
}

TEST(LintRules, MeasurementSeversEntanglementGroup)
{
    // Measuring the ancilla collapses it out of the group, so the
    // reset afterwards is a legitimate recycle.
    Circuit circ;
    const auto q = circ.addRegister("q", 2);
    circ.h(q[0]);
    circ.cnot(q[0], q[1]);
    circ.measureQubits({q[1]}, "m");
    circ.prepZ(q[1], 0);

    EXPECT_TRUE(byRule(analyze::lintCircuit(circ), "reset-entangled")
                    .empty());
}

// --- dead-qubit ------------------------------------------------------------

TEST(LintRules, DeadQubitFiresOnUnobservableComponent)
{
    Circuit circ;
    const auto q = circ.addRegister("q", 2);
    const auto junk = circ.addRegister("junk", 2);
    circ.h(q[0]);
    circ.cnot(q[0], q[1]);
    circ.h(junk[0]);
    circ.cnot(junk[0], junk[1]); // component never measured
    circ.measureQubits({q[0], q[1]}, "out");

    const auto found = byRule(analyze::lintCircuit(circ), "dead-qubit");
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].instruction, 3u) << "anchored at the last gate";
    EXPECT_EQ(found[0].qubits,
              (std::vector<unsigned>{junk[0], junk[1]}));
}

TEST(LintRules, MeasurementFreeProgramSkipsDeadQubit)
{
    // Assertion-style programs observe the final state directly.
    Circuit circ;
    const auto q = circ.addRegister("q", 2);
    circ.h(q[0]);
    circ.cnot(q[0], q[1]);

    EXPECT_TRUE(
        byRule(analyze::lintCircuit(circ), "dead-qubit").empty());
}

// --- adjacent-self-inverse -------------------------------------------------

TEST(LintRules, AdjacentSelfInverseFiresOnCancellingPairs)
{
    Circuit circ;
    const auto q = circ.addRegister("q", 2);
    circ.h(q[0]);
    circ.h(q[0]); // involution pair
    circ.s(q[1]);
    circ.sdg(q[1]); // adjoint pair
    circ.phase(q[0], 0.25);
    circ.phase(q[0], -0.25); // opposite angles

    const auto found =
        byRule(analyze::lintCircuit(circ), "adjacent-self-inverse");
    ASSERT_EQ(found.size(), 3u);
    EXPECT_EQ(found[0].severity, Severity::Info);
    EXPECT_EQ(found[0].instruction, 0u);
    EXPECT_EQ(found[1].instruction, 2u);
    EXPECT_EQ(found[2].instruction, 4u);
}

TEST(LintRules, BreakpointOrInterveningGateDefeatsCancellation)
{
    // A breakpoint observes the state in between: not a no-op.
    Circuit observed;
    const auto q = observed.addRegister("q", 1);
    observed.h(q[0]);
    observed.breakpoint("between");
    observed.h(q[0]);
    EXPECT_TRUE(byRule(analyze::lintCircuit(observed),
                       "adjacent-self-inverse")
                    .empty());

    // A gate touching the operands in between breaks adjacency.
    Circuit touched;
    const auto p = touched.addRegister("q", 1);
    touched.h(p[0]);
    touched.x(p[0]);
    touched.h(p[0]);
    EXPECT_TRUE(byRule(analyze::lintCircuit(touched),
                       "adjacent-self-inverse")
                    .empty());
}

// --- report rendering ------------------------------------------------------

TEST(LintReport, CountsRenderAndJson)
{
    Circuit circ;
    const auto q = circ.addRegister("q", 2);
    circ.h(q[0]);
    circ.h(q[0]); // info
    circ.x(q[1]);
    circ.conditionLast("ghost", 1); // error
    circ.measureQubits({q[0], q[1]}, "out");

    const LintReport report = analyze::lintCircuit(circ);
    EXPECT_FALSE(report.clean());
    EXPECT_EQ(report.count(Severity::Info), 1u);
    EXPECT_EQ(report.count(Severity::Error), 1u);
    EXPECT_TRUE(report.hasErrors());

    const std::string text = report.render();
    EXPECT_NE(text.find("cond-unwritten-label"), std::string::npos);
    EXPECT_NE(text.find("adjacent-self-inverse"), std::string::npos);

    const json::Value doc = parseJson(analyze::toJson(report).dump());
    EXPECT_FALSE(doc.find("clean")->asBool());
    EXPECT_EQ(doc.find("errors")->asUint64(), 1u);
    EXPECT_EQ(doc.find("warnings")->asUint64(),
              report.count(Severity::Warning));
    EXPECT_EQ(doc.find("infos")->asUint64(), 1u);
    const json::Value &diagnostics = *doc.find("diagnostics");
    ASSERT_EQ(diagnostics.size(), report.diagnostics.size());
    for (std::size_t i = 0; i < report.diagnostics.size(); ++i) {
        const Diagnostic &d = report.diagnostics[i];
        const json::Value &item = diagnostics.at(i);
        EXPECT_EQ(item.find("rule")->asString(), d.rule);
        EXPECT_EQ(item.find("severity")->asString(),
                  analyze::severityName(d.severity));
        EXPECT_EQ(item.find("instruction")->asUint64(), d.instruction);
        const json::Value &qubits = *item.find("qubits");
        ASSERT_EQ(qubits.size(), d.qubits.size());
        for (std::size_t q = 0; q < d.qubits.size(); ++q)
            EXPECT_EQ(qubits.at(q).asUint64(), d.qubits[q]);
        EXPECT_EQ(item.find("label")->asString(), d.label);
        EXPECT_EQ(item.find("message")->asString(), d.message);
        EXPECT_EQ(item.find("hint")->asString(), d.hint);
    }
}

TEST(LintReport, CleanCircuitRendersClean)
{
    Circuit circ;
    const auto q = circ.addRegister("q", 1);
    circ.h(q[0]);
    const LintReport report = analyze::lintCircuit(circ);
    EXPECT_TRUE(report.clean());
    EXPECT_FALSE(report.hasErrors());
    EXPECT_EQ(report.count(Severity::Warning), 0u);
}

// --- no false positives on the clean reference circuits --------------------

/** Every circuit the examples run as the *correct* variant. */
std::vector<std::pair<std::string, Circuit>>
cleanReferenceCircuits()
{
    std::vector<std::pair<std::string, Circuit>> refs;

    refs.emplace_back("bell", algo::buildBellProgram());
    refs.emplace_back("teleport",
                      algo::buildTeleportProgram(0.3, 1.1).circuit);
    refs.emplace_back("superdense",
                      algo::buildSuperdenseProgram(0b10).circuit);

    algo::GroverConfig grover;
    grover.degree = 3;
    grover.target = 0b101;
    refs.emplace_back("grover-gf2",
                      algo::buildGroverProgram(grover).circuit);
    refs.emplace_back(
        "grover-marked",
        algo::buildMarkedValueGrover(3, 0b110).circuit);

    refs.emplace_back("shor-15", algo::buildShorProgram().circuit);
    refs.emplace_back(
        "semiclassical-shor",
        algo::buildSemiclassicalShorProgram().circuit);

    // The QFT-adder unit-test harness of Listing 3.
    Circuit adder;
    const auto b = adder.addRegister("b", 3);
    adder.prepRegister(b, 2);
    algo::qft(adder, b);
    algo::phiAdd(adder, b, 3);
    algo::iqft(adder, b);
    adder.measure(b, "sum");
    refs.emplace_back("qft-adder", std::move(adder));

    return refs;
}

TEST(LintCleanReferences, NoFalsePositivesOnExampleCircuits)
{
    // The defect-class contract: no warning or error finding on any
    // correct program the examples run. Info findings are advisory
    // ("correct but wasteful") and exempt — the Shor builders really
    // do emit a cancelling h;h pair at each iqft;qft seam.
    for (const auto &[name, circ] : cleanReferenceCircuits()) {
        const LintReport report = analyze::lintCircuit(circ);
        EXPECT_EQ(report.count(Severity::Warning), 0u)
            << "defect-class findings on clean reference '" << name
            << "':\n"
            << report.render();
        EXPECT_EQ(report.count(Severity::Error), 0u) << name;
        for (const Diagnostic &d : report.diagnostics)
            EXPECT_EQ(d.rule, "adjacent-self-inverse") << name;
    }
}

TEST(LintCleanReferences, SmallCleanProgramsFullyClean)
{
    // The small references have no generator-inherent seams: fully
    // clean at every severity.
    for (const auto &[name, circ] : cleanReferenceCircuits()) {
        if (name == "shor-15" || name == "semiclassical-shor")
            continue;
        const LintReport report = analyze::lintCircuit(circ);
        EXPECT_TRUE(report.clean())
            << "lint findings on clean reference '" << name
            << "':\n"
            << report.render();
    }
}

} // anonymous namespace
