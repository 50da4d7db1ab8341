/**
 * @file
 * Quantum circuit container and Scaffold-style builder API.
 *
 * A Circuit owns:
 *  - the qubit space (registers allocated in declaration order),
 *  - the ordered instruction list,
 *  - a side table of dense matrices for GateKind::Unitary,
 *  - breakpoint markers (assertion sites).
 *
 * The composition helpers implement the paper's three program patterns:
 *  - iteration: plain loops in builder code (Section 4.3),
 *  - recursion / controlled operations: appendControlled (Section 4.4),
 *  - mirroring / uncomputation: inverse + append (Section 4.5).
 */

#ifndef QSA_CIRCUIT_CIRCUIT_HH
#define QSA_CIRCUIT_CIRCUIT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "circuit/instruction.hh"
#include "circuit/register.hh"
#include "sim/matrix.hh"

namespace qsa::circuit
{

/**
 * How Circuit::appendRange rewrites the instructions it copies. The
 * default copies them verbatim.
 */
struct RangeCopy
{
    /** Copy back to front, each instruction replaced by its
     *  adjoint under Circuit::inverse's rules. */
    bool adjoint = false;

    /** With `adjoint`: invert classically-conditioned gates too
     *  (Circuit::inverse's `invert_conditioned`). */
    bool invertConditioned = false;

    /** Leave breakpoint markers out. */
    bool skipMarkers = false;
};

/** See file comment. */
class Circuit
{
  public:
    /** Construct a circuit with an initial bare qubit count. */
    explicit Circuit(unsigned num_qubits = 0);

    /** @{ @name Qubit space */

    /** Allocate `width` fresh qubits as a named register. */
    QubitRegister addRegister(const std::string &name, unsigned width);

    /** Look up a previously added register by name. */
    const QubitRegister &reg(const std::string &name) const;

    /** All registers in declaration order. */
    const std::vector<QubitRegister> &registers() const { return regs; }

    /** Total number of qubits. */
    unsigned numQubits() const { return nQubits; }

    /** @} */
    /** @{ @name Scaffold-style gate emitters */

    /** PrepZ(q, bit): reset a qubit to |bit>. */
    void prepZ(unsigned q, unsigned bit);

    /** Load a classical integer onto a register with PrepZ per bit. */
    void prepRegister(const QubitRegister &r, std::uint64_t value);

    void h(unsigned q);
    void x(unsigned q);
    void y(unsigned q);
    void z(unsigned q);
    void s(unsigned q);
    void sdg(unsigned q);
    void t(unsigned q);
    void tdg(unsigned q);
    void rx(unsigned q, double angle);
    void ry(unsigned q, double angle);
    void rz(unsigned q, double angle);

    /** Phase ("u1") gate diag(1, e^{i angle}). */
    void phase(unsigned q, double angle);

    void cnot(unsigned ctrl, unsigned tgt);
    void ccnot(unsigned c0, unsigned c1, unsigned tgt);
    void cz(unsigned ctrl, unsigned tgt);
    void crz(unsigned ctrl, unsigned tgt, double angle);
    void cphase(unsigned ctrl, unsigned tgt, double angle);
    void ccphase(unsigned c0, unsigned c1, unsigned tgt, double angle);
    void swap(unsigned q0, unsigned q1);
    void cswap(unsigned ctrl, unsigned q0, unsigned q1);

    /** Generic gate with an arbitrary control list. */
    void controlledGate(GateKind kind,
                        const std::vector<unsigned> &controls,
                        unsigned target, double angle = 0.0);

    /** Dense unitary on an ordered qubit list (LSB first). */
    void unitary(const sim::CMatrix &u,
                 const std::vector<unsigned> &qubits,
                 const std::vector<unsigned> &controls = {});

    /** Measure a register; the outcome is recorded under `label`. */
    void measure(const QubitRegister &r, const std::string &label);

    /** Measure explicit qubits (targets[i] packs as bit i). */
    void measureQubits(const std::vector<unsigned> &qubits,
                       const std::string &label);

    /**
     * Insert a breakpoint marker. The assertion checker truncates the
     * program here and measures, exactly as the paper's compiler emits
     * one OpenQASM program per breakpoint.
     */
    void breakpoint(const std::string &label);

    /** Append a raw instruction (validated, then moved in). */
    void append(Instruction inst);

    /**
     * Make the most recently appended instruction conditional on a
     * recorded measurement outcome (`if (label == value)`).
     */
    void conditionLast(const std::string &label, std::uint64_t value);

    /** @} */
    /** @{ @name Composition patterns */

    /**
     * Append all instructions of another circuit defined on the same
     * qubit space (widths must match).
     */
    void appendCircuit(const Circuit &other);

    /**
     * Append another circuit with extra controls added to every
     * instruction — the recursion pattern of Figure 4. The appended
     * circuit must be purely unitary.
     */
    void appendControlled(const Circuit &other,
                          const std::vector<unsigned> &controls);

    /**
     * Adjoint of this circuit (reversed order, inverted gates) — the
     * mirroring pattern used for uncomputation. Panics if the circuit
     * contains non-invertible instructions (Measure, PrepZ), and — by
     * default — classically-conditioned gates: `if (c == v) U`
     * inverts to `if (c == v) U+` only when the record `c` is not
     * rewritten between the original and the mirror, an invariant the
     * circuit cannot check for its caller. Callers that do guarantee
     * it (the locate mirror probes invert measure-free segments, so
     * no record can change inside them) pass
     * `invert_conditioned = true` to lift the guard.
     */
    Circuit inverse(bool invert_conditioned = false) const;

    /**
     * Append instructions [begin, end) of `src`, each copied once,
     * rewritten as `how` says, and validated. The copy helpers
     * (appendCircuit, inverse, sliceRange, prefixUpTo,
     * withBoundaryBreakpoints, appendControlled) all run this one
     * loop; callers assembling a program from ranges of others — the
     * locate probes — call it directly instead of composing helpers
     * that copy each instruction again.
     * Registers are not carried over. Adds the instructions copied to
     * the `circuit.copied_instructions` counter, once per call.
     */
    void appendRange(const Circuit &src, std::size_t begin,
                     std::size_t end, const RangeCopy &how = RangeCopy());

    /** @} */
    /** @{ @name Introspection */

    const std::vector<Instruction> &instructions() const { return insts; }

    /** Dense matrix for a Unitary instruction. */
    const sim::CMatrix &matrix(int id) const;

    /** Register a dense matrix, returning its id. */
    int addMatrix(const sim::CMatrix &m);

    /** Labels of all breakpoints in program order. */
    std::vector<std::string> breakpointLabels() const;

    /** True when a breakpoint with the given label exists. */
    bool hasBreakpoint(const std::string &label) const;

    /**
     * Instruction index of the breakpoint with the given label (the
     * number of instructions preceding the marker).
     */
    std::size_t breakpointPosition(const std::string &label) const;

    /**
     * Copy with a breakpoint "<prefix><k>" inserted at every
     * instruction boundary k of *this* circuit: boundary k sits just
     * before original instruction k, and boundary size() marks the
     * end. Existing instructions (including their own breakpoints) are
     * preserved, so one instrumented program exposes every boundary to
     * the assertion checker at once — the programmatic counterpart of
     * the paper's "insert breakpoints, recompile one truncated version
     * each" loop, and the substrate qsa::locate probes. A source
     * breakpoint whose label is one of the generated ones is fatal,
     * wherever it sits.
     */
    Circuit withBoundaryBreakpoints(
        const std::string &prefix = "qsa_boundary_") const;

    /**
     * Copy of the circuit truncated just before the named breakpoint
     * (the "compile one version per breakpoint" transformation).
     */
    Circuit prefixUpTo(const std::string &bp_label) const;

    /**
     * Copy of the instruction range [begin, end) as a circuit on the
     * same qubit space (used by the structural scopes).
     */
    Circuit sliceRange(std::size_t begin, std::size_t end) const;

    /** Drop instructions from the end until `new_size` remain. */
    void truncate(std::size_t new_size);

    /** Gate-count statistics (per mnemonic, controls folded in). */
    std::map<std::string, std::size_t> gateCounts() const;

    /** Total instruction count. */
    std::size_t size() const { return insts.size(); }

    /**
     * ASAP circuit depth: the longest chain of instructions that
     * touch overlapping qubits (markers excluded, measurements and
     * resets included as single-slot operations).
     */
    std::size_t depth() const;

    /**
     * Stable 64-bit content hash over a canonical encoding of the
     * circuit: qubit count, registers (name, qubit list), and every
     * instruction field that affects semantics — kind, controls,
     * targets, angle (bit pattern, -0.0 normalised to 0.0), classical
     * bit, dense matrix *contents* (ids are arbitrary), labels, and
     * conditions. Two circuits hash equal iff they are the same
     * program; the hash is identical across runs, platforms, and
     * QASM re-emission, which makes it the content address for the
     * qsa::serve oracle store.
     */
    std::uint64_t contentHash() const;

    /**
     * Fold one instruction of this circuit into a running hash
     * `chain`: the per-instruction part of contentHash()'s encoding
     * (a Unitary hashed by its matrix contents). Chaining it over a
     * prefix gives that prefix a content address independent of the
     * circuit the prefix sits in — the key of
     * runtime::CheckpointStore.
     */
    std::uint64_t chainHash(std::uint64_t chain,
                            const Instruction &inst) const;

    /** @} */

  private:
    unsigned nQubits;
    std::vector<QubitRegister> regs;
    std::vector<Instruction> insts;
    std::vector<sim::CMatrix> matrices;

    void checkQubit(unsigned q) const;
    void validate(const Instruction &inst) const;

    /**
     * Make room for `n` instructions, rounding the capacity up to a
     * power of two as push_back's doubling would: the markers a
     * probe appends after a copied prefix then fit without moving it.
     */
    void reserveFor(std::size_t n);

    /**
     * The one copy loop behind appendRange and every copy helper.
     * With `controls`, they join every copied instruction's control
     * list under appendControlled's rules (markers are dropped); a
     * non-empty `markers` prefix puts breakpoint "<markers><k>" before
     * each source instruction k and "<markers><end>" after the range.
     */
    void copyRange(const Circuit &src, std::size_t begin, std::size_t end,
                   const RangeCopy &how,
                   const std::vector<unsigned> *controls = nullptr,
                   const std::string &markers = {});
};

} // namespace qsa::circuit

#endif // QSA_CIRCUIT_CIRCUIT_HH
