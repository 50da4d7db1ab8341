/**
 * @file
 * Assertion reports: the human-readable table and the JSON record.
 */

#ifndef QSA_ASSERTIONS_REPORT_HH
#define QSA_ASSERTIONS_REPORT_HH

#include <string>
#include <vector>

#include "assertions/spec.hh"
#include "common/json.hh"

namespace qsa::assertions
{

/**
 * Render a table of assertion outcomes: name, kind, breakpoint,
 * ensemble size, statistic, df, p-value, verdict.
 */
std::string renderReport(const std::vector<AssertionOutcome> &outcomes);

/** One-line summary of a single outcome. */
std::string renderOutcomeLine(const AssertionOutcome &outcome);

/**
 * One outcome as the JSON record Session::exportJson and qsa_serve's
 * check results carry: "name", "kind", "breakpoint", "passed",
 * "p_value", "statistic", "df", "ensemble_size", "alpha",
 * "effective_alpha", "impossible_outcome", and "counts" ({"<value>":
 * n} in ascending value order).
 */
json::Value toJson(const AssertionOutcome &outcome);

/** True when every assertion passed. */
bool allPassed(const std::vector<AssertionOutcome> &outcomes);

} // namespace qsa::assertions

#endif // QSA_ASSERTIONS_REPORT_HH
