/**
 * @file
 * State-vector quantum simulator.
 *
 * This is the substrate standing in for the QX simulator [19] the paper
 * ran on a cluster: it holds the full 2^n amplitude vector, applies
 * gates, and performs projective measurements. The benchmark circuits
 * need at most 14 qubits, so a flat amplitude array is both exact and
 * fast.
 *
 * The apply kernels visit only the amplitude slots a gate affects,
 * hold the gate matrix in local doubles, and write each complex
 * product out as (ac − bd, ad + bc) summed in std::complex's order, so
 * amplitudes are bit-identical to std::complex arithmetic without its
 * NaN-recovery branch. A matrix whose off-diagonal entries are all
 * exactly zero takes a diagonal path that scales only the slots whose
 * entry is not exactly 1+0i (equal to the dense update under ==; only
 * the sign of a zero can differ). sim.amp_touches counts the slots a
 * kernel actually touches, so a diagonal kernel counts only the slots
 * it scales (contract at countGate in statevector.cc; DESIGN.md
 * "Simulation kernels").
 *
 * Qubit 0 is the least significant bit of a basis-state index (little
 * endian), matching the Scaffold listings in the paper.
 */

#ifndef QSA_SIM_STATEVECTOR_HH
#define QSA_SIM_STATEVECTOR_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "sim/matrix.hh"
#include "sim/types.hh"

namespace qsa::sim
{

/**
 * Exact state-vector simulator for up to ~28 qubits (memory limited).
 *
 * The interface splits into:
 *  - unitary evolution: applyGate / applyControlled / applyUnitary,
 *  - projective measurement with collapse: measureQubit / measureQubits
 *    / prepZ (used by the "resimulate" ensemble mode, which mirrors the
 *    paper's one-simulation-per-ensemble-member methodology),
 *  - exact read-out without collapse: probability / marginalProbs /
 *    reducedDensityMatrix (used by the fast sampling ensemble mode and
 *    by test oracles that need ground truth about entanglement).
 */
class StateVector
{
  public:
    /** Construct |0...0> on num_qubits qubits. */
    explicit StateVector(unsigned num_qubits);

    /** Number of qubits. */
    unsigned numQubits() const { return nQubits; }

    /** Dimension of the state (2^n). */
    std::uint64_t dim() const { return amps.size(); }

    /** Amplitude of a basis state. */
    Complex amp(std::uint64_t basis) const;

    /** Overwrite the state with a basis state |basis>. */
    void setBasisState(std::uint64_t basis);

    /** Raw amplitude vector (read-only). */
    const std::vector<Complex> &amplitudes() const { return amps; }

    /**
     * Overwrite the state with the given amplitudes (their number must
     * be dim()); no normalisation is applied.
     */
    void setAmplitudes(std::vector<Complex> amplitudes);

    /** @{ @name Unitary evolution */

    /** Apply a single-qubit gate to the target qubit. */
    void applyGate(const Mat2 &gate, unsigned target);

    /**
     * Apply a single-qubit gate controlled on every qubit in controls
     * being |1>. An empty control list is an uncontrolled application.
     */
    void applyControlled(const Mat2 &gate,
                         const std::vector<unsigned> &controls,
                         unsigned target);

    /**
     * Apply a dense two-qubit gate; q0 is the least significant bit of
     * the matrix's 4-dimensional index space. This is the fusion
     * kernel: runs of adjacent 1q/2q gates on at most two qubits
     * collapse into one Mat4 apply.
     */
    void applyTwoQubit(const Mat4 &u, unsigned q0, unsigned q1);

    /** Controlled dense two-qubit gate. */
    void applyControlledTwoQubit(const Mat4 &u,
                                 const std::vector<unsigned> &controls,
                                 unsigned q0, unsigned q1);

    /** Swap two qubits. */
    void applySwap(unsigned q0, unsigned q1);

    /** Controlled swap (Fredkin) with arbitrary control list. */
    void applyControlledSwap(const std::vector<unsigned> &controls,
                             unsigned q0, unsigned q1);

    /**
     * Apply a dense unitary to an ordered list of qubits; qubits[0] is
     * the least significant bit of the matrix's index space. The matrix
     * dimension must be 2^qubits.size().
     */
    void applyUnitary(const CMatrix &u,
                      const std::vector<unsigned> &qubits);

    /** Controlled dense unitary. */
    void applyControlledUnitary(const CMatrix &u,
                                const std::vector<unsigned> &controls,
                                const std::vector<unsigned> &qubits);

    /** @} */
    /** @{ @name Measurement and reset */

    /**
     * Projectively measure one qubit; collapses the state and returns
     * the classical outcome.
     */
    unsigned measureQubit(unsigned qubit, Rng &rng);

    /**
     * Measure a list of qubits; the result packs qubits[i] as bit i.
     * Collapses the state.
     */
    std::uint64_t measureQubits(const std::vector<unsigned> &qubits,
                                Rng &rng);

    /**
     * Scaffold-style PrepZ: leaves the qubit in |bit>, measuring first
     * if it might be entangled (so the operation is physical).
     */
    void prepZ(unsigned qubit, unsigned bit, Rng &rng);

    /**
     * Deterministically project onto the subspace where `qubit` reads
     * `value`, renormalising — the outcome-resolved half of
     * measureQubit, used by callers that enumerate measurement
     * branches exactly (circuit::stepBranches) instead of sampling
     * one. `probability` is that outcome's probability (from
     * probabilityOne); the arithmetic matches measureQubit's collapse
     * bit for bit, so an enumerated branch equals the state a sampled
     * run landing on the same outcome would hold. Panics when the
     * branch probability is ~0.
     */
    void projectQubit(unsigned qubit, unsigned value,
                      double probability);

    /** @} */
    /** @{ @name Exact read-out (no collapse) */

    /** Probability that the given qubit measures |1>. */
    double probabilityOne(unsigned qubit) const;

    /**
     * Joint outcome distribution of a list of qubits: entry v is the
     * probability of reading value v (qubits[i] as bit i).
     */
    std::vector<double>
    marginalProbs(const std::vector<unsigned> &qubits) const;

    /**
     * Reduced density matrix of a subset of qubits (dimension
     * 2^qubits.size()); the remaining qubits are traced out.
     */
    CMatrix reducedDensityMatrix(const std::vector<unsigned> &qubits) const;

    /**
     * Purity Tr(rho^2) of the subset's reduced state: 1 for a product
     * state with the rest of the register, < 1 when entangled. This is
     * the ground-truth oracle tests use to validate the statistical
     * entanglement assertions.
     */
    double subsystemPurity(const std::vector<unsigned> &qubits) const;

    /** Squared norm of the state (should be 1). */
    double norm() const;

    /** Inner product <this|other>. */
    Complex innerProduct(const StateVector &other) const;

    /** Fidelity |<this|other>|^2. */
    double fidelity(const StateVector &other) const;

    /**
     * Tensor product |this> (x) |other>: a state on numQubits() +
     * other.numQubits() qubits whose low qubits are this state and
     * whose high qubits are `other`. Ground-truth composer for the
     * swap-test comparator *tests* (tests/test_sim.cc builds
     * suspect (x) reference (x) ancilla by hand to pin the partial
     * swap-test identity the probe family relies on; the probes
     * themselves prepare the two copies by circuit embedding).
     */
    StateVector tensorWith(const StateVector &other) const;

    /** @} */

    /** Renormalise (guards against drift in very long circuits). */
    void normalize();

  private:
    unsigned nQubits;
    std::vector<Complex> amps;

    /** Collapse to the subspace where qubit == value, renormalising. */
    void collapse(unsigned qubit, unsigned value, double prob);
};

} // namespace qsa::sim

#endif // QSA_SIM_STATEVECTOR_HH
