/**
 * @file
 * Assertion report rendering (table and JSON).
 */

#include "assertions/report.hh"

#include <cmath>
#include <sstream>

#include "common/table.hh"

namespace qsa::assertions
{

std::string
renderReport(const std::vector<AssertionOutcome> &outcomes)
{
    AsciiTable t;
    t.setHeader({"assertion", "kind", "breakpoint", "M", "stat", "df",
                 "p-value", "verdict"});
    for (const auto &o : outcomes) {
        t.addRow({
            o.spec.name,
            assertionKindName(o.spec.kind),
            o.spec.breakpoint,
            std::to_string(o.ensembleSize),
            std::isinf(o.statistic) ? "inf"
                                    : AsciiTable::fmt(o.statistic, 3),
            AsciiTable::fmt(o.df, 0),
            AsciiTable::fmtP(o.pValue),
            o.passed ? "PASS" : "FAIL",
        });
    }
    return t.render();
}

std::string
renderOutcomeLine(const AssertionOutcome &o)
{
    std::ostringstream os;
    os << (o.passed ? "PASS " : "FAIL ") << o.spec.name << " ["
       << assertionKindName(o.spec.kind) << " @ " << o.spec.breakpoint
       << "] p=" << AsciiTable::fmtP(o.pValue) << " (M="
       << o.ensembleSize << ")";
    return os.str();
}

json::Value
toJson(const AssertionOutcome &o)
{
    json::Value counts = json::Value::object();
    for (const auto &[value, count] : o.countsA)
        counts.set(std::to_string(value), json::Value::integer(count));
    json::Value out = json::Value::object();
    out.set("name", json::Value::string(o.spec.name));
    out.set("kind", json::Value::string(assertionKindName(o.spec.kind)));
    out.set("breakpoint", json::Value::string(o.spec.breakpoint));
    out.set("passed", json::Value::boolean(o.passed));
    out.set("p_value", json::Value::number(o.pValue));
    out.set("statistic", json::Value::number(o.statistic));
    out.set("df", json::Value::number(o.df));
    out.set("ensemble_size", json::Value::integer(o.ensembleSize));
    out.set("alpha", json::Value::number(o.spec.alpha));
    out.set("effective_alpha", json::Value::number(o.effectiveAlpha));
    out.set("impossible_outcome", json::Value::boolean(o.impossibleOutcome));
    out.set("counts", std::move(counts));
    return out;
}

bool
allPassed(const std::vector<AssertionOutcome> &outcomes)
{
    for (const auto &o : outcomes) {
        if (!o.passed)
            return false;
    }
    return true;
}

} // namespace qsa::assertions
