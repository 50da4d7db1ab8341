/**
 * @file
 * Lint rule implementations.
 */

#include "analyze/lint.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <set>

#include "analyze/clifford.hh"
#include "common/logging.hh"
#include "obs/obs.hh"

namespace qsa::analyze
{

namespace
{

using circuit::Circuit;
using circuit::GateKind;
using circuit::Instruction;

/** Every qubit an instruction reads or writes (controls + targets). */
std::vector<unsigned>
qubitsOf(const Instruction &inst)
{
    std::vector<unsigned> all(inst.controls.begin(), inst.controls.end());
    all.insert(all.end(), inst.targets.begin(), inst.targets.end());
    std::sort(all.begin(), all.end());
    all.erase(std::unique(all.begin(), all.end()), all.end());
    return all;
}

/** True for kinds that apply a unitary to their qubits. */
bool
isUnitaryKind(GateKind kind)
{
    return kind != GateKind::PrepZ && kind != GateKind::Measure &&
           kind != GateKind::Breakpoint;
}

Diagnostic
makeDiag(const char *rule, Severity severity, std::size_t index,
         std::vector<unsigned> qubits, std::string label,
         std::string message, std::string hint)
{
    Diagnostic d;
    d.rule = rule;
    d.severity = severity;
    d.instruction = index;
    d.qubits = std::move(qubits);
    d.label = std::move(label);
    d.message = std::move(message);
    d.hint = std::move(hint);
    return d;
}

// --- cond-unwritten-label --------------------------------------------------

/**
 * A conditioned instruction whose label no earlier measurement
 * writes: the executor aborts the moment it reaches it, on every
 * branch, so this is a guaranteed runtime failure.
 */
void
runCondUnwrittenLabel(const Circuit &circ, std::vector<Diagnostic> &out)
{
    std::set<std::string> written;
    const auto &insts = circ.instructions();
    for (std::size_t i = 0; i < insts.size(); ++i) {
        const Instruction &inst = insts[i];
        if (!inst.condLabel.empty() && !written.count(inst.condLabel)) {
            out.push_back(makeDiag(
                "cond-unwritten-label", Severity::Error, i,
                qubitsOf(inst), inst.condLabel,
                "conditioned on label '" + inst.condLabel +
                    "' which no earlier measurement writes; the "
                    "executor aborts here",
                "measure into '" + inst.condLabel +
                    "' before this instruction, or fix the label "
                    "spelling"));
        }
        if (inst.kind == GateKind::Measure)
            written.insert(inst.label);
    }
}

// --- cond-unsatisfiable ----------------------------------------------------

/**
 * A condition value no measurement of that label can produce: a
 * k-qubit measurement records values below 2^k, so the conditioned
 * instruction is dead code.
 */
void
runCondUnsatisfiable(const Circuit &circ, std::vector<Diagnostic> &out)
{
    std::map<std::string, std::size_t> width;
    const auto &insts = circ.instructions();
    for (std::size_t i = 0; i < insts.size(); ++i) {
        const Instruction &inst = insts[i];
        if (!inst.condLabel.empty()) {
            const auto it = width.find(inst.condLabel);
            if (it != width.end() && it->second < 64 &&
                inst.condValue >= (std::uint64_t(1) << it->second)) {
                out.push_back(makeDiag(
                    "cond-unsatisfiable", Severity::Warning, i,
                    qubitsOf(inst), inst.condLabel,
                    "condition '" + inst.condLabel +
                        " == " + std::to_string(inst.condValue) +
                        "' can never hold: the label is only " +
                        std::to_string(it->second) + " bit(s) wide",
                    "compare against a value the measurement can "
                    "actually record"));
            }
        }
        if (inst.kind == GateKind::Measure)
            width[inst.label] = inst.targets.size();
    }
}

// --- double-measurement ----------------------------------------------------

/**
 * A qubit measured twice with nothing touching it in between: the
 * second outcome is a deterministic repeat of the first, so either
 * the gate in between was forgotten or one measurement is redundant.
 */
void
runDoubleMeasurement(const Circuit &circ, std::vector<Diagnostic> &out)
{
    struct QubitState
    {
        bool measured = false;
        bool touched_since = false;
    };
    std::vector<QubitState> state(circ.numQubits());

    const auto &insts = circ.instructions();
    for (std::size_t i = 0; i < insts.size(); ++i) {
        const Instruction &inst = insts[i];
        if (inst.kind == GateKind::Measure) {
            for (unsigned q : inst.targets) {
                if (state[q].measured && !state[q].touched_since) {
                    out.push_back(makeDiag(
                        "double-measurement", Severity::Warning, i,
                        {q}, inst.label,
                        "qubit " + std::to_string(q) +
                            " is measured again with no gate in "
                            "between: the outcome is a deterministic "
                            "repeat",
                        "drop one of the measurements, or add the "
                        "missing gate between them"));
                }
                state[q].measured = true;
                state[q].touched_since = false;
            }
        } else if (inst.kind != GateKind::Breakpoint) {
            for (unsigned q : qubitsOf(inst))
                state[q].touched_since = true;
        }
    }
}

// --- measure-without-reset -------------------------------------------------

/**
 * A measured qubit used by an unconditioned gate without an
 * intervening reset: almost always a forgotten PrepZ before
 * recycling an ancilla. Conditioned gates are exempt — applying a
 * classically-controlled correction to the measured qubit itself is
 * the standard manual-reset idiom.
 */
void
runMeasureWithoutReset(const Circuit &circ, std::vector<Diagnostic> &out)
{
    std::vector<bool> measured(circ.numQubits(), false);

    const auto &insts = circ.instructions();
    for (std::size_t i = 0; i < insts.size(); ++i) {
        const Instruction &inst = insts[i];
        switch (inst.kind) {
          case GateKind::Measure:
            for (unsigned q : inst.targets)
                measured[q] = true;
            break;
          case GateKind::PrepZ:
            measured[inst.targets[0]] = false;
            break;
          case GateKind::Breakpoint:
            break;
          default: {
            const bool conditioned = !inst.condLabel.empty();
            for (unsigned q : qubitsOf(inst)) {
                if (!measured[q])
                    continue;
                if (!conditioned) {
                    out.push_back(makeDiag(
                        "measure-without-reset", Severity::Warning, i,
                        {q}, "",
                        "qubit " + std::to_string(q) +
                            " was measured earlier and is reused "
                            "here without a reset",
                        "recycle the qubit through prepZ (or a "
                        "conditioned correction) before reusing it"));
                }
                // Either way the reuse is now reported/intended;
                // don't cascade over every later gate.
                measured[q] = false;
            }
          }
        }
    }
}

// --- reset-entangled -------------------------------------------------------

/**
 * PrepZ on a qubit that may still be entangled: the reset measures
 * the qubit, collapsing whatever it was entangled with — the broken-
 * mirror idiom of releasing an ancilla before uncomputing it.
 * Connectivity is tracked by union-find over multi-qubit gates
 * (measurement severs a qubit from its group); when the prefix is
 * inside the decidable Clifford fragment the exact tableau confirms
 * or suppresses the over-approximation.
 */
void
runResetEntangled(const Circuit &circ, std::vector<Diagnostic> &out)
{
    const std::size_t n = circ.numQubits();
    std::vector<std::size_t> token(n), parent;
    const auto fresh = [&](unsigned q) {
        token[q] = parent.size();
        parent.push_back(token[q]);
    };
    for (unsigned q = 0; q < n; ++q)
        fresh(q);
    const std::function<std::size_t(std::size_t)> find =
        [&](std::size_t t) -> std::size_t {
        while (parent[t] != t)
            t = parent[t] = parent[parent[t]];
        return t;
    };

    const CliffordSimulation sim(circ);

    const auto &insts = circ.instructions();
    for (std::size_t i = 0; i < insts.size(); ++i) {
        const Instruction &inst = insts[i];
        if (inst.kind == GateKind::Measure) {
            // Measurement collapses the qubit out of its group; the
            // partners keep whatever correlations remain among
            // themselves.
            for (unsigned q : inst.targets)
                fresh(q);
        } else if (inst.kind == GateKind::PrepZ) {
            const unsigned q = inst.targets[0];
            std::size_t group = 0;
            for (unsigned p = 0; p < n; ++p) {
                if (find(token[p]) == find(token[q]))
                    ++group;
            }
            const bool conditioned = !inst.condLabel.empty();
            bool entangled = group > 1;
            if (entangled && sim.decidableAt(i))
                entangled = !sim.tableauAt(i).qubitIsUnentangled(q);
            if (entangled && !conditioned) {
                out.push_back(makeDiag(
                    "reset-entangled", Severity::Warning, i, {q}, "",
                    "qubit " + std::to_string(q) +
                        " is reset while possibly still entangled "
                        "with its partners: the reset measures it "
                        "and collapses them",
                    "uncompute (mirror) the entangling operations, "
                    "or measure the qubit explicitly before "
                    "releasing it"));
            }
            fresh(q);
        } else if (inst.kind != GateKind::Breakpoint) {
            const std::vector<unsigned> qs = qubitsOf(inst);
            for (std::size_t k = 1; k < qs.size(); ++k) {
                const std::size_t a = find(token[qs[0]]);
                const std::size_t b = find(token[qs[k]]);
                if (a != b)
                    parent[b] = a;
            }
        }
    }
}

// --- dead-qubit ------------------------------------------------------------

/**
 * Gates applied to qubits whose interaction component never reaches
 * a measurement: disjoint tensor factors cannot influence any
 * recorded outcome, so the work is provably unobservable. Skipped
 * entirely for measurement-free programs (assertion-style programs
 * observe the final state directly).
 */
void
runDeadQubit(const Circuit &circ, std::vector<Diagnostic> &out)
{
    const std::size_t n = circ.numQubits();
    const auto &insts = circ.instructions();

    bool any_measure = false;
    for (const Instruction &inst : insts)
        any_measure |= (inst.kind == GateKind::Measure);
    if (!any_measure)
        return;

    std::vector<std::size_t> parent(n);
    for (std::size_t q = 0; q < n; ++q)
        parent[q] = q;
    const std::function<std::size_t(std::size_t)> find =
        [&](std::size_t q) -> std::size_t {
        while (parent[q] != q)
            q = parent[q] = parent[parent[q]];
        return q;
    };

    std::vector<bool> gated(n, false), measured(n, false);
    std::vector<std::size_t> last_touch(n, 0);
    for (std::size_t i = 0; i < insts.size(); ++i) {
        const Instruction &inst = insts[i];
        if (inst.kind == GateKind::Breakpoint)
            continue;
        const std::vector<unsigned> qs = qubitsOf(inst);
        for (std::size_t k = 0; k < qs.size(); ++k) {
            if (k > 0)
                parent[find(qs[k])] = find(qs[0]);
            last_touch[qs[k]] = i;
            if (inst.kind == GateKind::Measure)
                measured[qs[k]] = true;
            else if (inst.kind != GateKind::PrepZ)
                gated[qs[k]] = true;
        }
    }

    std::vector<bool> live(n, false);
    for (std::size_t q = 0; q < n; ++q) {
        if (measured[q])
            live[find(q)] = true;
    }

    // One finding per dead component, anchored at its last gate.
    std::map<std::size_t, std::vector<unsigned>> dead;
    for (std::size_t q = 0; q < n; ++q) {
        if (gated[q] && !live[find(q)])
            dead[find(q)].push_back(static_cast<unsigned>(q));
    }
    for (const auto &[root, qubits] : dead) {
        (void)root;
        std::size_t anchor = 0;
        for (unsigned q : qubits)
            anchor = std::max(anchor, last_touch[q]);
        out.push_back(makeDiag(
            "dead-qubit", Severity::Warning, anchor, qubits, "",
            "gates on qubit(s) in this component can never reach a "
            "measurement: the work is unobservable",
            "measure the result, or delete the unused gates"));
    }
}

// --- adjacent-self-inverse -------------------------------------------------

/** Same operands modulo canonical order (controls as sets; Swap
 *  targets as a set; symmetric diagonal gates as one set). */
bool
sameOperands(const Instruction &a, const Instruction &b)
{
    const auto sorted = [](circuit::QubitList v) {
        std::sort(v.begin(), v.end());
        return v;
    };
    if (a.kind == GateKind::Z || a.kind == GateKind::Phase)
        return qubitsOf(a) == qubitsOf(b);
    if (a.kind == GateKind::Swap)
        return sorted(a.targets) == sorted(b.targets) &&
               sorted(a.controls) == sorted(b.controls);
    return a.targets == b.targets &&
           sorted(a.controls) == sorted(b.controls);
}

/** True when `b` immediately undoes `a` (same operands assumed). */
bool
isInverseKindPair(const Instruction &a, const Instruction &b)
{
    if (a.kind == b.kind) {
        switch (a.kind) {
          case GateKind::H:
          case GateKind::X:
          case GateKind::Y:
          case GateKind::Z:
          case GateKind::Swap:
            return true; // involutions (with any controls)
          case GateKind::Rx:
          case GateKind::Ry:
          case GateKind::Rz:
          case GateKind::Phase:
            return std::abs(a.angle + b.angle) <= 1e-12;
          default:
            return false;
        }
    }
    return (a.kind == GateKind::S && b.kind == GateKind::Sdg) ||
           (a.kind == GateKind::Sdg && b.kind == GateKind::S) ||
           (a.kind == GateKind::T && b.kind == GateKind::Tdg) ||
           (a.kind == GateKind::Tdg && b.kind == GateKind::T);
}

/**
 * Two *literally adjacent* instructions on the same operands that
 * cancel exactly: a no-op pair, usually a mirror-code editing
 * leftover. Strict adjacency is deliberate — cancelling pairs that
 * merely commute past unrelated gates (the iqft-then-qft seam of
 * chained Fourier arithmetic, for instance) are generator-inherent
 * and would bury real findings in noise on correct programs.
 */
void
runAdjacentSelfInverse(const Circuit &circ, std::vector<Diagnostic> &out)
{
    const auto &insts = circ.instructions();
    for (std::size_t i = 0; i + 1 < insts.size(); ++i) {
        const Instruction &a = insts[i];
        const Instruction &b = insts[i + 1];
        if (!isUnitaryKind(a.kind) || a.kind == GateKind::Unitary ||
            !a.condLabel.empty())
            continue;
        if (!isUnitaryKind(b.kind) || b.kind == GateKind::Unitary ||
            !b.condLabel.empty())
            continue;
        const std::vector<unsigned> qs = qubitsOf(a);
        if (qs.empty())
            continue;
        if (sameOperands(a, b) && isInverseKindPair(a, b)) {
            out.push_back(makeDiag(
                "adjacent-self-inverse", Severity::Info, i, qs, "",
                "this instruction and instruction " +
                    std::to_string(i + 1) + " cancel exactly",
                "delete both instructions (or the segment was meant "
                "to wrap something that is missing)"));
        }
    }
}

} // anonymous namespace

const std::vector<LintRule> &
lintRules()
{
    static const std::vector<LintRule> rules = {
        {"cond-unwritten-label", Severity::Error,
         "conditioned instruction reads a never-written classical "
         "label (guaranteed runtime abort)",
         runCondUnwrittenLabel},
        {"cond-unsatisfiable", Severity::Warning,
         "condition value outside the measured label's range (dead "
         "code)",
         runCondUnsatisfiable},
        {"double-measurement", Severity::Warning,
         "qubit measured twice with no gate in between",
         runDoubleMeasurement},
        {"measure-without-reset", Severity::Warning,
         "measured qubit reused without a reset",
         runMeasureWithoutReset},
        {"reset-entangled", Severity::Warning,
         "qubit reset while still entangled with its partners",
         runResetEntangled},
        {"dead-qubit", Severity::Warning,
         "gates whose interaction component never reaches a "
         "measurement",
         runDeadQubit},
        {"adjacent-self-inverse", Severity::Info,
         "adjacent gates that cancel exactly (no-op segment)",
         runAdjacentSelfInverse},
    };
    return rules;
}

LintReport
lintCircuit(const circuit::Circuit &circ)
{
    QSA_OBS_COUNTER("analyze.lint.runs", 1);
    QSA_OBS_SPAN(span, "analyze.lint");
    span.arg("instructions", circ.size());

    LintReport report;
    for (const LintRule &rule : lintRules()) {
        QSA_OBS_SPAN(rule_span, "analyze.lint.rule");
        rule_span.arg("rule", rule.id);
        const std::size_t before = report.diagnostics.size();
        rule.run(circ, report.diagnostics);
        rule_span.arg("findings", report.diagnostics.size() - before);
    }

    std::stable_sort(report.diagnostics.begin(),
                     report.diagnostics.end(),
                     [](const Diagnostic &a, const Diagnostic &b) {
                         if (a.instruction != b.instruction)
                             return a.instruction < b.instruction;
                         return a.rule < b.rule;
                     });

    QSA_OBS_COUNTER("analyze.lint.diagnostics",
                    report.diagnostics.size());
    QSA_OBS_COUNTER("analyze.lint.errors",
                    report.count(Severity::Error));
    span.arg("diagnostics", report.diagnostics.size());
    return report;
}

} // namespace qsa::analyze
