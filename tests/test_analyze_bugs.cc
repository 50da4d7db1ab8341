/**
 * @file
 * The bugs:: taxonomy mapped through the qsa::analyze linter: every
 * catalogue entry is pinned as either statically visible (its
 * BugInfo::lintRule fires at the defect instruction of the injected
 * fixture, and the corrected variant lints clean) or dynamic-only
 * (no lint rule claims it — the statistical assertions are the only
 * detector, which is the paper's core thesis for those six).
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "qsa/qsa.hh"

#include "expect_throw.hh"

namespace
{

using namespace qsa;
using analyze::Diagnostic;
using analyze::LintReport;
using bugs::BugInfo;
using bugs::BugType;

/** The pin table: which catalogue entries are statically visible. */
const std::map<std::string, std::string> kExpectedLintRules = {
    // The paper's six types: dynamic-only by design — the defect is
    // semantic (a wrong angle, a wrong constant, a misrouted control)
    // and indistinguishable from correct code without a reference.
    {"wrong-initial-value", ""},
    {"flipped-rotation", ""},
    {"iteration-bug", ""},
    {"misrouted-control", ""},
    {"broken-mirror", ""},
    {"wrong-classical-input", ""},
    // The three statically-visible extension types.
    {"condition-label-typo", "cond-unwritten-label"},
    {"measured-qubit-reuse", "measure-without-reset"},
    {"entangled-reset", "reset-entangled"},
};

TEST(BugTaxonomy, EveryCatalogEntryIsClassified)
{
    const auto catalog = bugs::bugCatalog();
    ASSERT_EQ(catalog.size(), kExpectedLintRules.size());
    for (const BugInfo &info : catalog) {
        const auto it = kExpectedLintRules.find(info.name);
        ASSERT_NE(it, kExpectedLintRules.end())
            << "catalogue entry '" << info.name
            << "' missing from the pin table";
        EXPECT_EQ(info.lintRule, it->second) << info.name;
    }
}

TEST(BugTaxonomy, StaticRulesExistInTheRegistry)
{
    std::set<std::string> registered;
    for (const auto &rule : analyze::lintRules())
        registered.insert(rule.id);
    for (const BugInfo &info : bugs::bugCatalog()) {
        if (!info.lintRule.empty()) {
            EXPECT_TRUE(registered.count(info.lintRule))
                << "catalogue references unknown rule '"
                << info.lintRule << "'";
        }
    }
}

TEST(BugTaxonomy, StaticFixturesFireTheirRuleAtTheDefect)
{
    for (const BugInfo &info : bugs::bugCatalog()) {
        if (info.lintRule.empty())
            continue;
        const bugs::StaticBugFixture fx =
            bugs::staticBugFixture(info.type);
        EXPECT_EQ(fx.lintRule, info.lintRule) << info.name;

        const LintReport buggy = analyze::lintCircuit(fx.buggy);
        bool fired_at_defect = false;
        for (const Diagnostic &d : buggy.diagnostics) {
            if (d.rule == fx.lintRule &&
                d.instruction == fx.defectInstruction)
                fired_at_defect = true;
        }
        EXPECT_TRUE(fired_at_defect)
            << info.name << ": expected rule '" << fx.lintRule
            << "' at instruction " << fx.defectInstruction << "\n"
            << buggy.render();

        // The finding is precise, not part of a noise burst.
        EXPECT_EQ(buggy.diagnostics.size(), 1u)
            << info.name << ":\n"
            << buggy.render();
    }
}

TEST(BugTaxonomy, CorrectedVariantsLintClean)
{
    for (const BugInfo &info : bugs::bugCatalog()) {
        if (info.lintRule.empty())
            continue;
        const bugs::StaticBugFixture fx =
            bugs::staticBugFixture(info.type);
        const LintReport clean = analyze::lintCircuit(fx.clean);
        EXPECT_TRUE(clean.clean())
            << info.name << " corrected variant:\n"
            << clean.render();
    }
}

TEST(BugTaxonomy, RuleSeverityMatchesTheRegistry)
{
    std::map<std::string, analyze::Severity> severity;
    for (const auto &rule : analyze::lintRules())
        severity[rule.id] = rule.severity;

    for (const BugInfo &info : bugs::bugCatalog()) {
        if (info.lintRule.empty())
            continue;
        const bugs::StaticBugFixture fx =
            bugs::staticBugFixture(info.type);
        for (const Diagnostic &d :
             analyze::lintCircuit(fx.buggy).diagnostics) {
            EXPECT_EQ(d.severity, severity.at(d.rule)) << info.name;
        }
    }
}

TEST(BugTaxonomy, DynamicOnlyTypesHaveNoStaticFixture)
{
    // The six paper types are pinned dynamic-only: asking for a
    // static fixture is a designed fatal, not a silent empty result.
    EXPECT_THROW_MESSAGE(
        bugs::staticBugFixture(BugType::FlippedRotation), qsa::Error,
        "dynamic-only");
    EXPECT_THROW_MESSAGE(
        bugs::staticBugFixture(BugType::WrongClassicalInput), qsa::Error,
        "dynamic-only");
}

TEST(BugTaxonomy, DynamicOnlyDefectEvadesTheLinter)
{
    // The paper's motivating point, checked from the linter's side:
    // a flipped-rotation adder is statically indistinguishable from
    // the correct one — both lint identically — so only the
    // statistical assertions can separate them.
    const auto build = [](bugs::Table1Variant variant) {
        circuit::Circuit circ;
        const auto b = circ.addRegister("b", 3);
        circ.prepRegister(b, 1);
        algo::qft(circ, b);
        const auto ctrl = circ.addRegister("ctrl", 1);
        circ.x(ctrl[0]);
        bugs::phiAddDecomposed(circ, b, 3, ctrl[0], variant);
        algo::iqft(circ, b);
        circ.measure(b, "sum");
        return circ;
    };

    const LintReport correct =
        analyze::lintCircuit(build(bugs::Table1Variant::CorrectDropA));
    const LintReport flipped = analyze::lintCircuit(
        build(bugs::Table1Variant::IncorrectFlipped));
    EXPECT_EQ(correct.count(analyze::Severity::Warning), 0u);
    EXPECT_EQ(correct.count(analyze::Severity::Error), 0u);
    EXPECT_EQ(flipped.count(analyze::Severity::Warning), 0u);
    EXPECT_EQ(flipped.count(analyze::Severity::Error), 0u);
    EXPECT_EQ(correct.diagnostics.size(), flipped.diagnostics.size());
}

} // anonymous namespace
