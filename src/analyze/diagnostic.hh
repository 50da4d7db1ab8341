/**
 * @file
 * Structured lint diagnostics.
 *
 * Every analysis pass reports findings as `Diagnostic` records — a
 * stable rule id, a severity, the offending instruction index, the
 * qubits and classical labels involved, and a fix hint — so tools
 * (the `qsa_lint` CLI, `Session::analyze()`, CI gates) can consume
 * the results structurally instead of scraping text. The rule ids
 * follow the defect idioms catalogued by Zhao et al.'s *Identifying
 * Bug Patterns in Quantum Programs* (PAPERS.md): most of the
 * taxonomy the paper finds dynamically is decidable from the IR.
 */

#ifndef QSA_ANALYZE_DIAGNOSTIC_HH
#define QSA_ANALYZE_DIAGNOSTIC_HH

#include <cstddef>
#include <string>
#include <vector>

#include "common/json.hh"

namespace qsa::analyze
{

/** How bad a finding is. */
enum class Severity
{
    /** Style/no-op findings: the program is correct but wasteful. */
    Info,

    /** Probable defects: legal IR whose semantics are almost
     *  certainly not what the author intended. */
    Warning,

    /** Guaranteed runtime failures (the executor aborts). */
    Error,
};

/** Lower-case severity name ("info" / "warning" / "error"). */
std::string severityName(Severity severity);

/** One lint finding. */
struct Diagnostic
{
    /** Stable rule id, e.g. "cond-unwritten-label". */
    std::string rule;

    Severity severity = Severity::Warning;

    /** Index of the offending instruction in the linted circuit. */
    std::size_t instruction = 0;

    /** Qubits involved in the finding (may be empty). */
    std::vector<unsigned> qubits;

    /** Classical measurement label involved (may be empty). */
    std::string label;

    /** What is wrong. */
    std::string message;

    /** How to fix it. */
    std::string hint;
};

/** The result of running the lint pass registry over one circuit. */
struct LintReport
{
    std::vector<Diagnostic> diagnostics;

    /** No findings at any severity. */
    bool clean() const { return diagnostics.empty(); }

    /** Number of findings at exactly `severity`. */
    std::size_t count(Severity severity) const;

    /** True when at least one Error-severity finding exists. */
    bool hasErrors() const { return count(Severity::Error) > 0; }

    /** Human-readable rendering, one line per diagnostic. */
    std::string render() const;
};

/**
 * The report as one JSON object, the form `qsa_lint --json` prints and
 * qsa_serve's lint and analyze results carry: "clean", the "errors" /
 * "warnings" / "infos" counts, and a "diagnostics" array of {"rule",
 * "severity", "instruction", "qubits", "label", "message", "hint"}.
 */
json::Value toJson(const LintReport &report);

} // namespace qsa::analyze

#endif // QSA_ANALYZE_DIAGNOSTIC_HH
