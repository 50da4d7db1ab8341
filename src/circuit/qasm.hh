/**
 * @file
 * OpenQASM 2.0 emission and parsing.
 *
 * The paper's toolflow compiles Scaffold programs with assertions into
 * "multiple versions of OpenQASM", one per breakpoint (Section 3.3).
 * This module keeps that interchange step: circuits serialise to an
 * OpenQASM-2.0 dialect and parse back.
 *
 * Dialect notes (all extensions are either standard-tool conventions or
 * comment pragmas, so stock OpenQASM consumers still read the files):
 *  - multi-controlled gates use repeated 'c' prefixes (ccx, ccu1, ...),
 *  - PrepZ is a `// qsa.prepz <qubit> <bit>` pragma (semantically
 *    reset + optional x, but kept exact for IR round-tripping),
 *  - breakpoints are `// qsa.breakpoint <label>` pragmas,
 *  - measurements use one classical register per measure label.
 * Dense Unitary instructions have no QASM form and fail emission.
 */

#ifndef QSA_CIRCUIT_QASM_HH
#define QSA_CIRCUIT_QASM_HH

#include <string>

#include "circuit/circuit.hh"
#include "common/errors.hh"

namespace qsa::circuit
{

/** Serialise a circuit to the OpenQASM dialect described above. */
std::string toQasm(const Circuit &circ);

/**
 * A positioned QASM parse failure: where in the source text the
 * parser gave up (1-based line/column), the offending token when one
 * is identifiable, and what went wrong. what() reads
 * "line 3, column 7: unsupported QASM gate 'zz'". Remote clients
 * (qsa::serve) get the message and each field in their error
 * response, so every field must be actionable without access to the
 * server's logs.
 */
class QasmError : public Error
{
  public:
    QasmError(std::size_t line, std::size_t column, std::string token,
              const std::string &message);

    /** The same failure with `context` before the position in
     *  what(): "'circuit': line 3, column 7: ...". */
    QasmError(const std::string &context, const QasmError &error);

    std::size_t line() const { return line_; }
    std::size_t column() const { return column_; }
    const std::string &token() const { return token_; }

  private:
    std::size_t line_;
    std::size_t column_;
    std::string token_;
};

/**
 * Parse the OpenQASM dialect back into a circuit.
 *
 * Supports the subset toQasm emits plus numeric angle expressions with
 * +, -, *, /, parentheses, and the constant pi. Throws QasmError on
 * malformed input.
 */
Circuit fromQasm(const std::string &text);

/** Write a circuit to a QASM file (qsa::Error on I/O failure). */
void saveQasmFile(const Circuit &circ, const std::string &path);

/** Read a circuit from a QASM file (qsa::Error when it cannot be
 *  read, QasmError when it cannot be parsed). */
Circuit loadQasmFile(const std::string &path);

} // namespace qsa::circuit

#endif // QSA_CIRCUIT_QASM_HH
