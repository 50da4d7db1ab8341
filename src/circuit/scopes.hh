/**
 * @file
 * ProjectQ-style structural scopes (Section 5.1, Table 4 right
 * column).
 *
 * The paper argues that language syntax for reversible computation
 * (`with Compute: ... Uncompute`) and controlled operations
 * (`with Control(q): ...`) exposes exactly the structure that guides
 * assertion placement: an entanglement assertion belongs where the
 * scratch registers are computed, and a product-state assertion
 * belongs after the automatic uncompute. These RAII scopes bring that
 * syntax to the C++ builder API, emit the mirrored/controlled code
 * automatically, and drop breakpoint markers at the boundaries so
 * assertions can be placed mechanically (autoPlaceScopeAssertions).
 */

#ifndef QSA_CIRCUIT_SCOPES_HH
#define QSA_CIRCUIT_SCOPES_HH

#include <string>
#include <vector>

#include "circuit/circuit.hh"

namespace qsa::circuit
{

/**
 * Compute/uncompute scope: everything appended between construction
 * and endCompute() is the *compute* block; everything after it is the
 * *action*; at destruction (or uncompute()) the adjoint of the
 * compute block is appended, restoring the scratch registers.
 *
 * With a label, breakpoints "<label>_computed" (after the compute
 * block) and "<label>_uncomputed" (after the mirror) are inserted.
 *
 * @code
 *   {
 *       ComputeScope scope(circ, "oracle");
 *       ... CNOTs computing work = f(q) ...
 *       scope.endCompute();
 *       ... phase flip on work ...
 *   } // work register uncomputed automatically here
 * @endcode
 */
class ComputeScope
{
  public:
    /** Open a scope on `circ`; optional label for breakpoints. */
    explicit ComputeScope(Circuit &circ, const std::string &label = "");

    ComputeScope(const ComputeScope &) = delete;
    ComputeScope &operator=(const ComputeScope &) = delete;

    /** Mark the end of the compute block (before the action). */
    void endCompute();

    /** Append the mirror now (idempotent; destructor calls it). */
    void uncompute();

    /** Uncomputes if not done already; panics when the body cannot
     *  be inverted (a destructor cannot throw the qsa::Error). */
    ~ComputeScope();

  private:
    Circuit &circ;
    std::string label;
    std::size_t computeBegin;
    std::size_t computeEnd;
    bool computeClosed = false;
    bool uncomputed = false;
};

/** Label suffix ComputeScope mints after the compute block. */
const std::string &scopeComputedSuffix();

/** Label suffix ComputeScope mints after the mirror. */
const std::string &scopeUncomputedSuffix();

/** A "<stem>_computed" / "<stem>_uncomputed" breakpoint pair. */
struct ScopeBreakpointPair
{
    /** The scope label the pair was minted from. */
    std::string stem;

    /** "<stem>_computed" breakpoint label. */
    std::string computed;

    /** "<stem>_uncomputed" breakpoint label. */
    std::string uncomputed;
};

/**
 * Every complete ComputeScope breakpoint pair in the circuit, in
 * program order of the "_computed" half. The one place the pairing rule
 * lives: mechanical assertion placement
 * (assertions::autoPlaceScopeAssertions) and scope-inherited
 * localization predicates (locate::scopeDerivedPredicates) both
 * resolve pairs through it.
 */
std::vector<ScopeBreakpointPair>
scopeBreakpointPairs(const Circuit &circ);

/**
 * Controlled-operations scope: everything appended while the scope is
 * alive is wrapped with the given control qubits at destruction —
 * ProjectQ's `with Control(eng, q):`.
 */
class ControlScope
{
  public:
    ControlScope(Circuit &circ, std::vector<unsigned> controls);

    ControlScope(const ControlScope &) = delete;
    ControlScope &operator=(const ControlScope &) = delete;

    /** Wrap now (idempotent; destructor calls it). */
    void close();

    /** Wraps if not done already; panics when the body cannot be
     *  controlled (a destructor cannot throw the qsa::Error). */
    ~ControlScope();

  private:
    Circuit &circ;
    std::vector<unsigned> controls;
    std::size_t begin;
    bool closed = false;
};

} // namespace qsa::circuit

#endif // QSA_CIRCUIT_SCOPES_HH
