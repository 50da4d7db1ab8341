/**
 * @file
 * Structural scope implementations.
 */

#include "circuit/scopes.hh"

#include <algorithm>

#include "common/errors.hh"
#include "common/logging.hh"

namespace qsa::circuit
{

const std::string &
scopeComputedSuffix()
{
    static const std::string suffix = "_computed";
    return suffix;
}

const std::string &
scopeUncomputedSuffix()
{
    static const std::string suffix = "_uncomputed";
    return suffix;
}

std::vector<ScopeBreakpointPair>
scopeBreakpointPairs(const Circuit &circ)
{
    const std::string &computed = scopeComputedSuffix();
    const std::string &uncomputed = scopeUncomputedSuffix();

    const auto labels = circ.breakpointLabels();
    std::vector<ScopeBreakpointPair> pairs;
    for (const auto &label : labels) {
        if (label.size() <= computed.size() ||
            label.compare(label.size() - computed.size(),
                          computed.size(), computed) != 0)
            continue;
        ScopeBreakpointPair pair;
        pair.stem = label.substr(0, label.size() - computed.size());
        pair.computed = label;
        pair.uncomputed = pair.stem + uncomputed;
        if (std::find(labels.begin(), labels.end(), pair.uncomputed) ==
            labels.end())
            continue;
        pairs.push_back(std::move(pair));
    }
    return pairs;
}

ComputeScope::ComputeScope(Circuit &c, const std::string &l)
    : circ(c), label(l), computeBegin(c.size()), computeEnd(c.size())
{
}

void
ComputeScope::endCompute()
{
    panic_if(computeClosed, "endCompute() called twice");
    computeClosed = true;
    computeEnd = circ.size();
    if (!label.empty())
        circ.breakpoint(label + scopeComputedSuffix());
}

void
ComputeScope::uncompute()
{
    if (uncomputed)
        return;
    if (!computeClosed)
        endCompute();
    uncomputed = true;

    const Circuit compute_block =
        circ.sliceRange(computeBegin, computeEnd);
    circ.appendCircuit(compute_block.inverse());
    if (!label.empty())
        circ.breakpoint(label + scopeUncomputedSuffix());
}

ComputeScope::~ComputeScope()
{
    // A destructor must not throw: a body that cannot be inverted (a
    // measurement, a reset) is a broken scope, so stop here.
    try {
        uncompute();
    } catch (const Error &e) {
        panic(e.what());
    }
}

ControlScope::ControlScope(Circuit &c, std::vector<unsigned> ctrls)
    : circ(c), controls(std::move(ctrls)), begin(c.size())
{
    fatal_if(controls.empty(), "control scope needs control qubits");
}

void
ControlScope::close()
{
    if (closed)
        return;
    closed = true;

    const Circuit body = circ.sliceRange(begin, circ.size());
    circ.truncate(begin);
    circ.appendControlled(body, controls);
}

ControlScope::~ControlScope()
{
    // As ~ComputeScope: a body that cannot be controlled panics.
    try {
        close();
    } catch (const Error &e) {
        panic(e.what());
    }
}

} // namespace qsa::circuit
