/**
 * @file
 * Named quantum registers.
 *
 * The paper's assertions take a quantum *variable* — a named group of
 * qubits interpreted as a little-endian integer — not raw qubit
 * indices. Section 4.4 notes that "one of the trickiest aspects of
 * quantum programming is properly keeping track of how quantum
 * variables map to qubit assignments"; QubitRegister is the library's
 * answer, mirroring the quantum integer data types it credits to
 * ProjectQ/Q#/Quipper.
 */

#ifndef QSA_CIRCUIT_REGISTER_HH
#define QSA_CIRCUIT_REGISTER_HH

#include <string>
#include <vector>

namespace qsa::circuit
{

/**
 * A named, ordered list of qubit indices. qubit(0) is the least
 * significant bit of the register's integer value.
 */
class QubitRegister
{
  public:
    QubitRegister() = default;

    /** Construct from a name and explicit qubit list (LSB first). */
    QubitRegister(std::string name, std::vector<unsigned> qubits);

    /** Register name (used in reports and QASM output). */
    const std::string &name() const { return regName; }

    /** Number of qubits. */
    unsigned width() const { return qubitList.size(); }

    /** Qubit index holding bit i of the register value (qsa::Error
     *  when i is out of range). */
    unsigned qubit(unsigned i) const;

    /** Shorthand for qubit(i), matching `reg[i]` in the listings. */
    unsigned operator[](unsigned i) const { return qubit(i); }

    /** All qubit indices, LSB first. */
    const std::vector<unsigned> &qubits() const { return qubitList; }

    /**
     * Sub-register view [first, first + count), keeping bit order;
     * useful for asserting on a slice of a variable. A range past the
     * register throws qsa::Error.
     */
    QubitRegister slice(unsigned first, unsigned count,
                        const std::string &new_name = "") const;

    /**
     * Big-endian view of the same qubits (bit order reversed); models
     * the endianness helpers Q#/Quipper provide and lets tests exercise
     * "endian confusion" bugs (Section 4.3).
     */
    QubitRegister reversed(const std::string &new_name = "") const;

  private:
    std::string regName;
    std::vector<unsigned> qubitList;
};

} // namespace qsa::circuit

#endif // QSA_CIRCUIT_REGISTER_HH
