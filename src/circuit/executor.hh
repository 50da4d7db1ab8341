/**
 * @file
 * Circuit execution on the state-vector simulator.
 */

#ifndef QSA_CIRCUIT_EXECUTOR_HH
#define QSA_CIRCUIT_EXECUTOR_HH

#include <cstdint>
#include <map>
#include <string>

#include "circuit/circuit.hh"
#include "common/rng.hh"
#include "sim/statevector.hh"

namespace qsa::circuit
{

/** Outcome of one full program execution. */
struct ExecutionRecord
{
    /** Final quantum state after the last instruction. */
    sim::StateVector state;

    /** Measurement outcomes keyed by measure label. */
    std::map<std::string, std::uint64_t> measurements;

    explicit ExecutionRecord(unsigned num_qubits) : state(num_qubits) {}
};

/**
 * Execute every instruction of `circ` starting from |0...0>.
 *
 * @param circ program to execute
 * @param rng randomness source for measurements and resets
 */
ExecutionRecord runCircuit(const Circuit &circ, Rng &rng);

/**
 * Execute instructions onto an existing state (must have at least the
 * circuit's qubit count). Measurement outcomes with labels already in
 * `measurements` are overwritten.
 */
void runCircuitOn(const Circuit &circ, sim::StateVector &state,
                  std::map<std::string, std::uint64_t> &measurements,
                  Rng &rng);

/**
 * Execute a single instruction of `circ` onto an existing state —
 * the loop body of runCircuitOn, exposed so callers that need the
 * state between instructions of one run produce amplitudes
 * bit-identical to a full runCircuitOn pass. Honors the
 * instruction's classical condition against `measurements` and
 * records Measure outcomes into it.
 */
void stepInstruction(const Circuit &circ, const Instruction &inst,
                     sim::StateVector &state,
                     std::map<std::string, std::uint64_t> &measurements,
                     Rng &rng);

/**
 * Apply one deterministic (non-Measure, non-PrepZ) instruction to a
 * state, ignoring any classical condition — the single gate
 * interpreter shared by runCircuitOn and stepBranches so both paths
 * produce bit-identical amplitudes. Breakpoint markers are no-ops;
 * Measure/PrepZ panic (they need outcome handling).
 */
void applyUnitaryInstruction(const Circuit &circ,
                             const Instruction &inst,
                             sim::StateVector &state);

/**
 * Dense 2x2 matrix for a parameterised/fixed single-qubit gate kind
 * (panics for kinds without one). Shared by the executor dispatch and
 * the gate-fusion pass so both compose identical matrix entries.
 */
sim::Mat2 gateMatrix1q(const Instruction &inst);

/**
 * One branch of a measurement-resolved execution: the state and the
 * recorded outcomes *conditional on* one sequence of mid-circuit
 * measurement results, together with that sequence's probability.
 * The weights of a branch set always sum to ~1 (up to branches pruned
 * below stepBranches' probability floor).
 */
struct ExecutionBranch
{
    /** Probability of this branch's measurement-outcome sequence. */
    double weight = 1.0;

    /** Quantum state conditional on those outcomes. */
    sim::StateVector state;

    /** Recorded outcomes keyed by measure label. */
    std::map<std::string, std::uint64_t> measurements;
};

/**
 * Advance every branch through one instruction, exactly. Unitary
 * instructions evolve each branch in place; Measure and PrepZ split a
 * branch into one child per outcome with the exact outcome
 * probabilities (children below a ~1e-12 probability floor are
 * pruned, so floating-point dust does not spawn branches);
 * classically-conditioned instructions fire per branch against that
 * branch's own measurement record. This is the deterministic,
 * RNG-free counterpart of runCircuitOn: the weighted branch set is
 * the exact output mixture of the program, and each branch's state is
 * bit-identical to a sampled run that landed on the same outcomes.
 * For a measurement-free circuit the single branch's evolution is
 * bit-identical to runCircuitOn's.
 *
 * Throws qsa::DeriveError (naming the instruction) when the branch
 * count would exceed `max_branches` — the enumeration is exponential
 * in the number of nondeterministic measurements; callers bound it
 * and may fall back to sampled derivation.
 */
void stepBranches(const Circuit &circ, const Instruction &inst,
                  std::vector<ExecutionBranch> &branches,
                  std::size_t max_branches);

} // namespace qsa::circuit

#endif // QSA_CIRCUIT_EXECUTOR_HH
