/**
 * @file
 * Circuit intermediate representation: one instruction.
 *
 * Controlled gates are not separate opcodes; every instruction carries a
 * (possibly empty) control-qubit list. This directly models the paper's
 * observation that "controlled operations correspond to using recursion
 * to compose basic operations" (Section 4.4, Figure 4): adding a control
 * is a structural wrapper, not a new gate.
 */

#ifndef QSA_CIRCUIT_INSTRUCTION_HH
#define QSA_CIRCUIT_INSTRUCTION_HH

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace qsa::circuit
{

/** Base operation kinds (controls are orthogonal, see Instruction). */
enum class GateKind
{
    PrepZ,      ///< reset target to |bit> (non-unitary)
    H,          ///< Hadamard
    X,          ///< Pauli X (with 1 control: CNOT; 2: Toffoli)
    Y,          ///< Pauli Y
    Z,          ///< Pauli Z (with 1 control: CZ)
    S,          ///< S phase gate
    Sdg,        ///< S dagger
    T,          ///< T gate
    Tdg,        ///< T dagger
    Rx,         ///< rotation about X by angle
    Ry,         ///< rotation about Y by angle
    Rz,         ///< rotation about Z by angle (true rotation)
    Phase,      ///< diag(1, e^{i angle}) ("u1"; cPhase/ccPhase via
                ///< controls — the workhorse of the Fourier arithmetic)
    Swap,       ///< swap two targets (with controls: Fredkin)
    Unitary,    ///< dense matrix from the circuit's side table
    Measure,    ///< projective measurement, outcome recorded by label
    Breakpoint, ///< assertion site marker (no-op when executed)
};

/** Human-readable mnemonic for a gate kind. */
std::string gateKindName(GateKind kind);

/** True for kinds that take an angle parameter. */
bool gateKindHasAngle(GateKind kind);

/** True for kinds invertible as unitaries. */
bool gateKindInvertible(GateKind kind);

/**
 * The qubit operand list of one instruction (its controls or its
 * targets). Up to kInline qubits live inside the list itself, so
 * copying an instruction whose lists fit allocates nothing; a gate
 * has at most 2 controls and 2 targets. Only a longer list (a
 * register-wide Measure, PrepZ or Unitary) spills to one heap block.
 * It iterates as a contiguous range of unsigned, compares equal to a
 * std::vector<unsigned> with the same qubits, and converts to the
 * simulator's non-owning sim::QubitSpan.
 */
class QubitList
{
  public:
    /** Qubits held without a heap block. */
    static constexpr std::size_t kInline = 4;

    using value_type = unsigned;
    using size_type = std::size_t;
    using iterator = unsigned *;
    using const_iterator = const unsigned *;

    QubitList() = default;

    QubitList(std::initializer_list<unsigned> qubits)
    {
        assign(qubits.begin(), qubits.end());
    }

    QubitList(const std::vector<unsigned> &qubits)
    {
        assign(qubits.data(), qubits.data() + qubits.size());
    }

    QubitList(const QubitList &other) { assign(other.begin(), other.end()); }

    QubitList(QubitList &&other) noexcept { take(other); }

    QubitList &
    operator=(const QubitList &other)
    {
        if (this != &other)
            assign(other.begin(), other.end());
        return *this;
    }

    QubitList &
    operator=(QubitList &&other) noexcept
    {
        if (this != &other) {
            release();
            take(other);
        }
        return *this;
    }

    ~QubitList() { release(); }

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }

    /** Qubits the list holds before its next reallocation. */
    std::size_t capacity() const { return cap; }

    unsigned *begin() { return items; }
    unsigned *end() { return items + count; }
    const unsigned *begin() const { return items; }
    const unsigned *end() const { return items + count; }
    const unsigned *data() const { return items; }

    unsigned &operator[](std::size_t i) { return items[i]; }
    unsigned operator[](std::size_t i) const { return items[i]; }

    void
    push_back(unsigned q)
    {
        if (count == cap)
            grow(count + 1);
        items[count++] = q;
    }

    /** Append the qubits [first, last), which must not alias this
     *  list. */
    void
    append(const unsigned *first, const unsigned *last)
    {
        const auto n = static_cast<std::size_t>(last - first);
        if (count + n > cap)
            grow(count + n);
        std::copy(first, last, items + count);
        count += static_cast<std::uint32_t>(n);
    }

    operator sim::QubitSpan() const { return {items, count}; }

  private:
    /** local, or a heap block of cap qubits once cap > kInline. */
    unsigned *items = local;
    std::uint32_t count = 0;
    std::uint32_t cap = kInline;
    unsigned local[kInline] = {};

    /** Replace the contents by [first, last) (not aliasing). */
    void
    assign(const unsigned *first, const unsigned *last)
    {
        count = 0;
        append(first, last);
    }

    /** Move `other`'s qubits in; this list owns no heap block. */
    void
    take(QubitList &other) noexcept
    {
        count = other.count;
        if (other.items != other.local) {
            items = other.items;
            cap = other.cap;
            other.items = other.local;
            other.cap = kInline;
        } else {
            items = local;
            cap = kInline;
            std::copy(other.local, other.local + count, local);
        }
        other.count = 0;
    }

    /** Free the heap block, if any (leaves the list inline). */
    void
    release() noexcept
    {
        if (items != local)
            delete[] items;
        items = local;
        cap = kInline;
    }

    /** Move to a heap block of at least `need` qubits. */
    void grow(std::size_t need);
};

bool operator==(const QubitList &a, const QubitList &b);
bool operator==(const QubitList &a, const std::vector<unsigned> &b);
bool operator==(const std::vector<unsigned> &a, const QubitList &b);
bool operator!=(const QubitList &a, const QubitList &b);
bool operator!=(const QubitList &a, const std::vector<unsigned> &b);
bool operator!=(const std::vector<unsigned> &a, const QubitList &b);

/** One IR instruction. */
struct Instruction
{
    /** Base operation. */
    GateKind kind = GateKind::X;

    /** Control qubits (all must read |1> for the base op to fire). */
    QubitList controls;

    /**
     * Target qubits: one for single-qubit kinds, two for Swap, k for
     * Unitary (LSB first), any number for Measure/PrepZ/Breakpoint.
     */
    QubitList targets;

    /** Rotation/phase angle for Rx/Ry/Rz/Phase. */
    double angle = 0.0;

    /** Prepared bit value for PrepZ. */
    unsigned bit = 0;

    /** Index into the circuit's dense-matrix table for Unitary. */
    int matrixId = -1;

    /** Breakpoint label or measurement record name. */
    std::string label;

    /**
     * Classical condition: when `condLabel` is non-empty the
     * instruction only executes if the recorded measurement outcome
     * under that label equals `condValue` — OpenQASM's
     * `if (c == v)` and the mechanism behind semiclassical circuits
     * such as Beauregard's one-control-qubit Shor [2].
     */
    std::string condLabel;

    /** Value the condition register must hold. */
    std::uint64_t condValue = 0;
};

} // namespace qsa::circuit

#endif // QSA_CIRCUIT_INSTRUCTION_HH
