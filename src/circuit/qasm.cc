/**
 * @file
 * OpenQASM 2.0 dialect emitter and one-pass parser.
 *
 * The parser reads the source once, in place: lines, statements and
 * operands are views into it, and names resolve through hash tables of
 * views. Every failure is a QasmError positioned at its line, column
 * and offending token, for remote clients (qsa::serve) as much as for
 * files; that includes every precondition the Circuit building calls
 * would reject, checked here first so the message can name the token.
 * tests/qasm_mutants.golden pins the language and each rejection.
 */

#include "circuit/qasm.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/logging.hh"

namespace qsa::circuit
{

namespace
{

/** Format an angle with full round-trip precision. */
std::string
fmtAngle(double angle)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", angle);
    return buf;
}

/** Map a qubit index to "reg[i]" under the circuit's register layout. */
std::string
qubitRef(const Circuit &circ, unsigned q)
{
    unsigned base = 0;
    for (const auto &r : circ.registers()) {
        // Registers are allocated consecutively by construction.
        if (q >= base && q < base + r.width())
            return r.name() + "[" + std::to_string(q - base) + "]";
        base += r.width();
    }
    return "q[" + std::to_string(q) + "]";
}

/** True when declared registers exactly tile the qubit space. */
bool
registersCoverSpace(const Circuit &circ)
{
    unsigned base = 0;
    for (const auto &r : circ.registers())
        base += r.width();
    return base == circ.numQubits() && base > 0;
}

/** Sanitise a measurement label into a classical register name. */
std::string
cregName(const std::string &label)
{
    std::string out = "m_";
    for (char ch : label)
        out += std::isalnum(static_cast<unsigned char>(ch)) ? ch : '_';
    return out;
}

} // anonymous namespace

std::string
toQasm(const Circuit &circ)
{
    std::ostringstream os;
    os << "OPENQASM 2.0;\n";
    os << "include \"qelib1.inc\";\n";

    const bool named = registersCoverSpace(circ);
    if (named) {
        for (const auto &r : circ.registers())
            os << "qreg " << r.name() << "[" << r.width() << "];\n";
    } else {
        os << "qreg q[" << circ.numQubits() << "];\n";
    }

    // Declare one classical register per measurement label.
    for (const auto &inst : circ.instructions()) {
        if (inst.kind == GateKind::Measure) {
            os << "creg " << cregName(inst.label) << "["
               << inst.targets.size() << "];\n";
        }
    }

    // Labels of the run of adjacent Measures being written. fromQasm
    // groups a run's measure statements by label, so a label measured
    // again within one run starts a new run after a qsa.measure_break
    // pragma.
    std::vector<const std::string *> run;
    for (const auto &inst : circ.instructions()) {
        if (inst.kind != GateKind::Measure)
            run.clear();
        switch (inst.kind) {
          case GateKind::PrepZ:
            os << "// qsa.prepz " << inst.targets[0] << " " << inst.bit;
            if (!inst.condLabel.empty())
                os << " if(" << cregName(inst.condLabel)
                   << "==" << inst.condValue << ")";
            os << "\n";
            continue;
          case GateKind::Breakpoint:
            os << "// qsa.breakpoint " << inst.label << "\n";
            continue;
          case GateKind::Measure:
            if (std::any_of(run.begin(), run.end(),
                            [&](const std::string *label) {
                                return *label == inst.label;
                            })) {
                os << "// qsa.measure_break\n";
                run.clear();
            }
            run.push_back(&inst.label);
            for (std::size_t i = 0; i < inst.targets.size(); ++i) {
                os << "measure " << qubitRef(circ, inst.targets[i])
                   << " -> " << cregName(inst.label) << "[" << i
                   << "];\n";
            }
            continue;
          case GateKind::Unitary:
            fatal("dense unitary instructions have no QASM form");
          default:
            break;
        }

        if (!inst.condLabel.empty()) {
            os << "if(" << cregName(inst.condLabel) << "=="
               << inst.condValue << ") ";
        }
        std::string name(inst.controls.size(), 'c');
        name += gateKindName(inst.kind);
        os << name;
        if (gateKindHasAngle(inst.kind))
            os << "(" << fmtAngle(inst.angle) << ")";
        os << " ";

        bool first = true;
        for (unsigned c : inst.controls) {
            os << (first ? "" : ",") << qubitRef(circ, c);
            first = false;
        }
        for (unsigned t : inst.targets) {
            os << (first ? "" : ",") << qubitRef(circ, t);
            first = false;
        }
        os << ";\n";
    }
    return os.str();
}

namespace
{

/** "line 3, column 7: unsupported QASM gate 'zz'". */
std::string
positioned(std::size_t line, std::size_t column,
           const std::string &token, const std::string &message)
{
    std::ostringstream os;
    os << "line " << line << ", column " << column << ": " << message;
    if (!token.empty())
        os << " '" << token << "'";
    return os.str();
}

} // anonymous namespace

QasmError::QasmError(std::size_t line, std::size_t column,
                     std::string token, const std::string &message)
    : Error(positioned(line, column, token, message)), line_(line),
      column_(column), token_(std::move(token))
{
}

QasmError::QasmError(const std::string &context, const QasmError &error)
    : Error(context + error.what()), line_(error.line_),
      column_(error.column_), token_(error.token_)
{
}

namespace
{

constexpr std::size_t npos = std::string_view::npos;

/** A failure inside one line; the line loop positions it. */
struct ParseFailure
{
    std::string token;
    std::string message;

    /** The address the token's view started at; it may lie outside
     *  the source (a token built from a number). */
    std::uintptr_t at = 0;
};

/** Throw a (not yet positioned) parse failure. */
[[noreturn]] void
parseThrow(std::string_view token, std::string message)
{
    throw ParseFailure{std::string(token), std::move(message),
                       reinterpret_cast<std::uintptr_t>(token.data())};
}

/** isspace and isdigit of the "C" locale. */
bool
isSpace(char ch)
{
    return ch == ' ' || (ch >= '\t' && ch <= '\r');
}

bool
isDigit(char ch)
{
    return ch >= '0' && ch <= '9';
}

/** Strip surrounding whitespace. */
std::string_view
trimmed(std::string_view s)
{
    while (!s.empty() && isSpace(s.front()))
        s.remove_prefix(1);
    while (!s.empty() && isSpace(s.back()))
        s.remove_suffix(1);
    return s;
}

/** True when `s` begins with the literal `prefix`. */
template <std::size_t N>
bool
startsWith(std::string_view s, const char (&prefix)[N])
{
    return s.size() >= N - 1 && std::memcmp(s.data(), prefix, N - 1) == 0;
}

/** Parse a decimal unsigned, rejecting junk and overflow. */
std::uint64_t
parseUnsigned(std::string_view text, const char *what)
{
    const std::string_view digits = trimmed(text);
    if (digits.empty() || digits.size() > 18 ||
        !std::all_of(digits.begin(), digits.end(), isDigit))
        parseThrow(digits, std::string("bad ") + what);
    std::uint64_t value = 0;
    std::from_chars(digits.data(), digits.data() + digits.size(), value);
    return value;
}

/**
 * The two pragma operands, read as `std::istringstream >> unsigned`
 * reads them: spaces, a sign, decimal digits, negated modulo 2^32
 * after a '-'. False where that stream fails: no digits, a value past
 * 2^32 - 1, or no text left for the second read. `rest` receives the
 * text after the second operand.
 */
bool
readPragmaOperands(std::string_view text, unsigned &first,
                   unsigned &second, std::string_view &rest)
{
    std::size_t pos = 0;
    const auto read = [&](unsigned &out) {
        while (pos < text.size() && isSpace(text[pos]))
            ++pos;
        const bool negative = pos < text.size() && text[pos] == '-';
        if (negative || (pos < text.size() && text[pos] == '+'))
            ++pos;
        const std::size_t digits = pos;
        std::uint64_t value = 0;
        for (; pos < text.size() && isDigit(text[pos]); ++pos)
            value = std::min<std::uint64_t>(10 * value + (text[pos] - '0'),
                                            1ULL << 32);
        out = static_cast<unsigned>(negative ? 0 - value : value);
        return pos > digits && (value >> 32) == 0;
    };
    const bool ok = read(first) && pos < text.size() && read(second);
    rest = text.substr(pos);
    return ok;
}

/**
 * Angles: expr := term (('+'|'-') term)*, term := factor (('*'|'/')
 * factor)*, factor := '-' factor | '(' expr ')' | 'pi' | a number
 * strtod reads. An angle ends at its statement's first ')', so a '('
 * in one never closes: past it the parser only looks for a bad number
 * to report before the open paren, and it never recurses. That ')'
 * follows the text in memory, and strtod reads in place: a finite
 * number stops before it, and the one reading that passes it, nan(...),
 * is rejected as non-finite.
 */
class AngleParser
{
  public:
    explicit AngleParser(std::string_view text) : s(text) {}

    double
    parse()
    {
        double v = term();
        for (char op; (op = take("+-")) != 0;)
            v = op == '+' ? v + term() : v - term();
        if (open)
            parseThrow(s, "unbalanced parens in angle");
        take(""); // skips the spaces
        if (pos != s.size())
            parseThrow(s, "trailing characters in angle");
        if (!std::isfinite(v))
            parseThrow(s, "non-finite angle");
        return v;
    }

  private:
    const std::string_view s;
    std::size_t pos = 0;
    bool open = false;

    /** Skip spaces, then consume one of `ops`; 0 when none is next. */
    char
    take(const char *ops)
    {
        while (pos < s.size() && isSpace(s[pos]))
            ++pos;
        if (pos == s.size() || s[pos] == '\0' || !std::strchr(ops, s[pos]))
            return 0;
        return s[pos++];
    }

    double
    term()
    {
        double v = factor();
        for (char op; (op = take("*/")) != 0;)
            v = op == '*' ? v * factor() : v / factor();
        return v;
    }

    double
    factor()
    {
        bool negate = false;
        for (char op; (op = take("-(")) != 0; open = open || op == '(')
            negate ^= op == '-';
        if (s.compare(pos, 2, "pi") == 0) {
            pos += 2;
            return negate ? -M_PI : M_PI;
        }
        // strtod's value and length: from_chars agrees with it on a
        // plain decimal; a sign, a hex float, inf or nan and a value out
        // of range go to strtod itself, in place (see the class comment).
        const char *begin = s.data() + pos;
        const char *end = s.data() + s.size();
        double v = 0.0;
        std::from_chars_result read{begin, std::errc::invalid_argument};
        if (begin != end && (isDigit(*begin) || *begin == '.'))
            read = std::from_chars(begin, end, v);
        if (read.ec != std::errc() ||
            (read.ptr != end && (*read.ptr == 'x' || *read.ptr == 'X'))) {
            char *stop = nullptr;
            v = std::strtod(begin, &stop);
            read.ptr = stop;
        }
        if (read.ptr == begin || !std::isfinite(v))
            parseThrow(s, "bad number in angle");
        pos += static_cast<std::size_t>(read.ptr - begin);
        return negate ? -v : v;
    }
};

/** Parse a "name[index]" reference into its name and index. */
std::pair<std::string_view, unsigned>
parseRef(std::string_view text)
{
    const auto lb = text.find('[');
    const auto rb = text.find(']');
    if (lb == npos || rb == npos || rb < lb)
        parseThrow(trimmed(text), "bad register reference");
    const std::uint64_t index = parseUnsigned(
        text.substr(lb + 1, rb - lb - 1), "register index");
    if (index > 0xFFFFFFFFULL)
        parseThrow(trimmed(text), "register index out of range");
    return {trimmed(text.substr(0, lb)), static_cast<unsigned>(index)};
}

/** Base gate kind lookup; returns false for unknown names. */
bool
kindFromName(std::string_view name, GateKind &kind)
{
    // The commonest first: phases and the X of every cx and ccx.
    static const std::pair<std::string_view, GateKind> kNames[] = {
        {"u1", GateKind::Phase}, {"x", GateKind::X},   {"h", GateKind::H},
        {"rz", GateKind::Rz},    {"ry", GateKind::Ry}, {"rx", GateKind::Rx},
        {"z", GateKind::Z},      {"y", GateKind::Y},   {"s", GateKind::S},
        {"sdg", GateKind::Sdg},  {"t", GateKind::T},   {"tdg", GateKind::Tdg},
        {"swap", GateKind::Swap}};
    for (const auto &[known, k] : kNames) {
        if (known == name) {
            kind = k;
            return true;
        }
    }
    return false;
}

/** See file comment: the positioned QASM parser. */
class QasmParser
{
  public:
    QasmParser(std::string_view source, unsigned max_qubits)
        : src(source), maxQubits(max_qubits)
    {
    }

    Circuit
    parse()
    {
        for (std::size_t begin = 0; begin < src.size();) {
            const std::size_t end =
                std::min(src.find('\n', begin), src.size());
            line = src.substr(begin, end - begin);
            begin = end + 1;
            ++lineNo;
            positionFailures([&] { parseLine(); });
        }
        positionFailures([&] { flushMeasures(); });
        return std::move(circ);
    }

  private:
    const std::string_view src;
    const unsigned maxQubits;
    Circuit circ;
    std::size_t lineNo = 0;
    std::string_view line;

    /** Quantum registers: name -> (qubit offset, width). */
    std::unordered_map<std::string_view, std::pair<unsigned, unsigned>>
        qregs;

    /** Classical registers: name -> the measurement label it records. */
    std::unordered_map<std::string_view, std::size_t> cregs;

    /** Measurement labels, numbered as declared: recorded into yet, and
     *  the pending (classical bit, qubit) pairs of each, grouped in
     *  first-seen order into one Measure instruction per label. */
    std::unordered_map<std::string_view, std::size_t> labelNumbers;
    std::vector<std::string_view> labels;
    std::vector<char> measured;
    std::vector<std::vector<std::pair<unsigned, unsigned>>> pending;
    std::vector<std::size_t> pendingOrder;

    std::unordered_set<std::string_view> breakpoints;

    /** Per classical bit and per measured qubit, the last group that
     *  saw it: sized by the groups, not by the declared qubits. */
    std::vector<std::size_t> bitSeen;
    std::unordered_map<unsigned, std::size_t> qubitSeen;
    std::size_t groups = 0;

    /** Run `step`; rethrow a failure as a QasmError on this line, at
     *  its token: where the token's view lies when that is inside the
     *  line, else the token's first occurrence, else the first
     *  non-blank. */
    template <typename Step>
    void
    positionFailures(const Step &step)
    {
        ParseFailure f;
        try {
            return step();
        } catch (const ParseFailure &failure) {
            f = failure;
        } catch (const std::exception &e) {
            f.message = e.what();
        }
        // Wraps to a huge value for a view that starts before the line.
        const std::uintptr_t offset =
            f.at - reinterpret_cast<std::uintptr_t>(line.data());
        const bool in_line = !f.token.empty() && offset <= line.size() &&
                             f.token.size() <= line.size() - offset;
        const std::size_t first = line.find_first_not_of(" \t");
        const std::size_t at = in_line          ? offset
                               : f.token.empty() ? npos
                                                 : line.find(f.token);
        const std::size_t col = at != npos ? at : first != npos ? first : 0;
        throw QasmError(lineNo == 0 ? 1 : lineNo, col + 1, f.token,
                        f.message);
    }

    unsigned
    resolve(std::string_view ref_text)
    {
        const auto [name, index] = parseRef(ref_text);
        const auto reg = qregs.find(name);
        if (reg == qregs.end())
            parseThrow(name, "unknown register");
        const auto [offset, width] = reg->second;
        if (index >= width)
            parseThrow(trimmed(ref_text),
                       "qubit index out of range for register '" +
                           std::string(name) + "'");
        return offset + index;
    }

    void
    flushMeasures()
    {
        for (const std::size_t label : pendingOrder) {
            const auto &targets = pending[label];
            std::vector<unsigned> qubits(targets.size());
            ++groups;
            bitSeen.resize(std::max(bitSeen.size(), targets.size()));
            const auto reject = [&](const char *what) {
                parseThrow(labels[label],
                           std::string(what) + " for label");
            };
            for (const auto &[cbit, qubit] : targets) {
                if (cbit >= qubits.size())
                    reject("classical bits of measurement group are "
                           "not contiguous");
                if (std::exchange(bitSeen[cbit], groups) == groups)
                    reject("duplicate classical bit in measurement group");
                if (std::exchange(qubitSeen[qubit], groups) == groups)
                    reject("duplicate measured qubit in measurement group");
                qubits[cbit] = qubit;
            }
            circ.measureQubits(qubits, std::string(labels[label]));
            pending[label].clear();
        }
        pendingOrder.clear();
    }

    void
    parseLine()
    {
        // Pragmas first; then strip comments.
        if (startsWith(line, "// qsa.prepz")) {
            prepzPragma();
            return;
        }
        if (startsWith(line, "// qsa.measure_break")) {
            flushMeasures();
            return;
        }
        if (startsWith(line, "// qsa.breakpoint")) {
            flushMeasures();
            // The first word, as `std::istream >> std::string` reads it.
            std::string_view label = trimmed(line.substr(17));
            label = label.substr(
                0, std::find_if(label.begin(), label.end(), isSpace) -
                       label.begin());
            if (label.empty())
                parseThrow(trimmed(line),
                           "qsa.breakpoint pragma needs a label");
            if (!breakpoints.insert(label).second)
                parseThrow(label, "duplicate breakpoint label");
            Instruction marker;
            marker.kind = GateKind::Breakpoint;
            marker.label = std::string(label);
            circ.append(std::move(marker));
            return;
        }

        // Statements end with ';'.
        const std::string_view code = line.substr(0, line.find("//"));
        std::size_t begin = 0;
        for (std::size_t semi; (semi = code.find(';', begin)) != npos;
             begin = semi + 1)
            handleStatement(trimmed(code.substr(begin, semi - begin)));
        if (const auto rest = trimmed(code.substr(begin)); !rest.empty())
            parseThrow(rest, "statement missing ';'");
    }

    // The two readers below stay out of line: inlined into the line
    // and statement loop, these rarely taken paths made every parse
    // of the serve benchmark's programs about 3% slower.

    /** The `// qsa.prepz <qubit> <bit>` pragma on the current line,
     *  with its optional condition. */
    [[gnu::noinline]] void
    prepzPragma()
    {
        flushMeasures();
        unsigned qubit = 0, bit = 0;
        std::string_view rest;
        if (!readPragmaOperands(line.substr(12), qubit, bit, rest))
            parseThrow(trimmed(line),
                       "qsa.prepz pragma needs '<qubit> <bit>'");
        if (qubit >= circ.numQubits())
            parseThrow(std::to_string(qubit), "prepz qubit out of range");
        if (bit > 1)
            parseThrow(std::to_string(bit), "prepz bit must be 0 or 1");
        // An optional condition follows the operands, as toQasm
        // writes it; other text after them is ignored.
        Instruction reset;
        reset.kind = GateKind::PrepZ;
        reset.targets = {qubit};
        reset.bit = bit;
        rest = trimmed(rest);
        if (startsWith(rest, "if(") &&
            !readCondition(rest, reset).empty())
            parseThrow(rest, "trailing characters after qsa.prepz "
                             "condition");
        circ.append(std::move(reset));
    }

    /** Read the "if(creg==v)" that `stmt` starts with into `inst`'s
     *  condition; returns the rest of `stmt`. */
    [[gnu::noinline]] std::string_view
    readCondition(std::string_view stmt, Instruction &inst)
    {
        const auto eq = stmt.find("==");
        const auto close = stmt.find(')');
        if (eq == npos || close == npos || close < eq)
            parseThrow(stmt, "malformed if condition");
        const std::string_view creg = stmt.substr(3, eq - 3);
        const auto c = cregs.find(creg);
        if (c == cregs.end())
            parseThrow(creg, "unknown creg in condition");
        if (!measured[c->second])
            parseThrow(creg, "condition reads creg before any "
                             "measurement into it");
        inst.condLabel = std::string(labels[c->second]);
        inst.condValue = parseUnsigned(
            stmt.substr(eq + 2, close - eq - 2), "condition value");
        return trimmed(stmt.substr(close + 1));
    }

    void
    handleStatement(std::string_view stmt)
    {
        if (stmt.empty() || startsWith(stmt, "OPENQASM") ||
            startsWith(stmt, "include") || startsWith(stmt, "barrier"))
            return;

        // Adjacent measure lines group into one Measure instruction;
        // anything else flushes the group so program order is
        // preserved.
        if (startsWith(stmt, "measure")) {
            const auto arrow = stmt.find("->");
            if (arrow == npos)
                parseThrow(stmt, "measure without '->'");
            const unsigned qubit = resolve(stmt.substr(8, arrow - 8));
            const auto [creg, cbit] = parseRef(stmt.substr(arrow + 2));
            const auto c = cregs.find(creg);
            if (c == cregs.end())
                parseThrow(creg, "unknown creg");
            const std::size_t label = c->second;
            if (pending[label].empty())
                pendingOrder.push_back(label);
            pending[label].emplace_back(cbit, qubit);
            measured[label] = 1;
            return;
        }
        flushMeasures();

        const bool qreg = startsWith(stmt, "qreg");
        if (qreg || startsWith(stmt, "creg")) {
            // "name[size]" follows the keyword.
            const auto [name, size] = parseRef(
                stmt.substr(std::min<std::size_t>(5, stmt.size())));
            if (qreg) {
                if (size == 0)
                    parseThrow(name, "register must have width > 0");
                // Checked before addRegister allocates the register.
                if (size > maxQubits - circ.numQubits())
                    parseThrow(name,
                               "the program would use " +
                                   std::to_string(std::uint64_t{size} +
                                                  circ.numQubits()) +
                                   " qubits (at most " +
                                   std::to_string(maxQubits) +
                                   " accepted) with register");
                if (!qregs.try_emplace(name, circ.numQubits(), size).second)
                    parseThrow(name, "duplicate register name");
                circ.addRegister(std::string(name), size);
                return;
            }
            // A name always records the same label, so declaring it
            // again changes nothing.
            if (cregs.count(name))
                return;
            const std::string_view label =
                startsWith(name, "m_") ? name.substr(2) : name;
            const auto [l, added] =
                labelNumbers.try_emplace(label, labels.size());
            if (added) {
                labels.push_back(label);
                measured.push_back(0);
                pending.emplace_back();
            }
            cregs.emplace(name, l->second);
            return;
        }

        // Optional classical condition prefix "if(creg==v)".
        Instruction inst;
        if (startsWith(stmt, "if("))
            stmt = readCondition(stmt, inst);

        // Gate statement: name[(params)] operands.
        std::size_t rest = 0;
        while (rest < stmt.size() &&
               (std::isalnum(static_cast<unsigned char>(stmt[rest])) ||
                stmt[rest] == '_'))
            ++rest;
        const std::string_view name = stmt.substr(0, rest);
        if (name.empty())
            parseThrow(stmt, "expected a gate name");

        bool has_angle = false;
        if (rest < stmt.size() && stmt[rest] == '(') {
            const auto close = stmt.find(')', rest);
            if (close == npos)
                parseThrow(name, "unbalanced parameter list for");
            inst.angle = AngleParser(stmt.substr(rest + 1, close - rest - 1))
                             .parse();
            has_angle = true;
            rest = close + 1;
        }

        // Strip 'c' control prefixes: no base mnemonic starts with
        // 'c', so the first non-'c' position starts the base name
        // ("ccu1" -> 2 controls, "u1").
        const std::size_t num_controls =
            std::min(name.find_first_not_of('c'), name.size());
        if (!kindFromName(name.substr(num_controls), inst.kind))
            parseThrow(name, "unsupported QASM gate");
        if (has_angle && !gateKindHasAngle(inst.kind))
            parseThrow(name, "gate takes no parameter:");

        const std::string_view operands = stmt.substr(rest);
        const std::size_t count =
            1 + std::count(operands.begin(), operands.end(), ',');
        const std::size_t expected =
            num_controls + (inst.kind == GateKind::Swap ? 2 : 1);
        if (count != expected)
            parseThrow(name, "gate expects " + std::to_string(expected) +
                                 " operand(s), got " +
                                 std::to_string(count) + ", for");

        for (std::size_t i = 0, begin = 0; i < count; ++i) {
            const std::size_t comma =
                std::min(operands.find(',', begin), operands.size());
            const std::string_view operand =
                trimmed(operands.substr(begin, comma - begin));
            begin = comma + 1;
            const unsigned q = resolve(operand);
            if (std::find(inst.controls.begin(), inst.controls.end(), q) !=
                    inst.controls.end() ||
                std::find(inst.targets.begin(), inst.targets.end(), q) !=
                    inst.targets.end())
                parseThrow(operand, "duplicate qubit operand");
            (i < num_controls ? inst.controls : inst.targets).push_back(q);
        }
        circ.append(std::move(inst));
    }
};

} // anonymous namespace

Circuit
fromQasm(const std::string &text, unsigned max_qubits)
{
    return QasmParser(text, max_qubits).parse();
}

void
saveQasmFile(const Circuit &circ, const std::string &path)
{
    std::ofstream out(path);
    fatal_if(!out, "cannot open '", path, "' for writing");
    out << toQasm(circ);
    fatal_if(!out, "write to '", path, "' failed");
}

Circuit
loadQasmFile(const std::string &path)
{
    std::ifstream in(path);
    fatal_if(!in, "cannot open '", path, "' for reading");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return fromQasm(buffer.str());
}

} // namespace qsa::circuit
