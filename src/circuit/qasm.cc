/**
 * @file
 * OpenQASM 2.0 dialect emitter and recursive-descent parser.
 *
 * The parser reports every failure as a positioned QasmError (line,
 * column, offending token): qsa::serve hands it bytes from remote
 * clients, and the client needs to know where its circuit went
 * wrong. Inside a line errors propagate as a private, unpositioned
 * exception; the line loop adds the position.
 *
 * The same rule covers the Circuit building calls: every precondition
 * Circuit::append/measureQubits/breakpoint would reject (range,
 * duplicate operands, arity, duplicate labels) is checked here first
 * and reported with the offending token, which Circuit's own messages
 * cannot name. A qsa::Error the Circuit still raises is positioned on
 * its line all the same.
 */

#include "circuit/qasm.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

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

    for (const auto &inst : circ.instructions()) {
        switch (inst.kind) {
          case GateKind::PrepZ:
            os << "// qsa.prepz " << inst.targets[0] << " " << inst.bit
               << "\n";
            continue;
          case GateKind::Breakpoint:
            os << "// qsa.breakpoint " << inst.label << "\n";
            continue;
          case GateKind::Measure:
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

/** A failure inside one line; the line loop positions it. */
struct ParseFailure
{
    std::string token;
    std::string message;
};

/** Throw a (not yet positioned) parse failure. */
[[noreturn]] void
parseThrow(std::string token, std::string message)
{
    throw ParseFailure{std::move(token), std::move(message)};
}

/** Strip surrounding whitespace. */
std::string
trimmed(std::string s)
{
    while (!s.empty() &&
           std::isspace(static_cast<unsigned char>(s.front())))
        s.erase(s.begin());
    while (!s.empty() &&
           std::isspace(static_cast<unsigned char>(s.back())))
        s.pop_back();
    return s;
}

/** Parse a decimal unsigned, rejecting junk and overflow. */
std::uint64_t
parseUnsigned(const std::string &text, const char *what)
{
    const std::string digits = trimmed(text);
    if (digits.empty() || digits.size() > 18)
        parseThrow(digits, std::string("bad ") + what);
    for (char ch : digits)
        if (!std::isdigit(static_cast<unsigned char>(ch)))
            parseThrow(digits, std::string("bad ") + what);
    return std::strtoull(digits.c_str(), nullptr, 10);
}

/**
 * Minimal arithmetic expression parser for angle parameters:
 * expr := term (('+'|'-') term)*, term := factor (('*'|'/') factor)*,
 * factor := number | 'pi' | '-' factor | '(' expr ')'.
 */
class ExprParser
{
  public:
    explicit ExprParser(std::string text) : s(std::move(text)), pos(0)
    {
    }

    double
    parse()
    {
        const double v = expr();
        skipSpace();
        if (pos != s.size())
            parseThrow(s, "trailing characters in angle");
        if (!std::isfinite(v))
            parseThrow(s, "non-finite angle");
        return v;
    }

  private:
    const std::string s;
    std::size_t pos;

    void
    skipSpace()
    {
        while (pos < s.size() &&
               std::isspace(static_cast<unsigned char>(s[pos])))
            ++pos;
    }

    bool
    consume(char ch)
    {
        skipSpace();
        if (pos < s.size() && s[pos] == ch) {
            ++pos;
            return true;
        }
        return false;
    }

    double
    expr()
    {
        double v = term();
        while (true) {
            if (consume('+'))
                v += term();
            else if (consume('-'))
                v -= term();
            else
                return v;
        }
    }

    double
    term()
    {
        double v = factor();
        while (true) {
            if (consume('*'))
                v *= factor();
            else if (consume('/'))
                v /= factor();
            else
                return v;
        }
    }

    double
    factor()
    {
        skipSpace();
        if (consume('-'))
            return -factor();
        if (consume('(')) {
            const double v = expr();
            if (!consume(')'))
                parseThrow(s, "unbalanced parens in angle");
            return v;
        }
        if (s.compare(pos, 2, "pi") == 0) {
            pos += 2;
            return M_PI;
        }
        const char *begin = s.c_str() + pos;
        char *end = nullptr;
        const double v = std::strtod(begin, &end);
        if (end == begin || !std::isfinite(v))
            parseThrow(s, "bad number in angle");
        pos += static_cast<std::size_t>(end - begin);
        return v;
    }
};

/** Split "a,b,c" into trimmed pieces. */
std::vector<std::string>
splitList(const std::string &text, char delim)
{
    std::vector<std::string> out;
    std::string cur;
    for (char ch : text) {
        if (ch == delim) {
            out.push_back(cur);
            cur.clear();
        } else {
            cur += ch;
        }
    }
    out.push_back(cur);
    for (auto &piece : out)
        piece = trimmed(piece);
    return out;
}

/** Parsed "name[index]" reference. */
struct RegRef
{
    std::string name;
    unsigned index;
};

RegRef
parseRef(const std::string &text)
{
    const auto lb = text.find('[');
    const auto rb = text.find(']');
    if (lb == std::string::npos || rb == std::string::npos || rb < lb)
        parseThrow(trimmed(text), "bad register reference");
    RegRef ref;
    ref.name = trimmed(text.substr(0, lb));
    const std::uint64_t index = parseUnsigned(
        text.substr(lb + 1, rb - lb - 1), "register index");
    if (index > 0xFFFFFFFFULL)
        parseThrow(trimmed(text), "register index out of range");
    ref.index = static_cast<unsigned>(index);
    return ref;
}

/**
 * Base gate kind lookup; returns false for unknown names. No base
 * mnemonic starts with 'c', so control prefixes strip unambiguously.
 */
bool
tryKindFromName(const std::string &name, GateKind &kind)
{
    if (name == "h") { kind = GateKind::H; return true; }
    if (name == "x") { kind = GateKind::X; return true; }
    if (name == "y") { kind = GateKind::Y; return true; }
    if (name == "z") { kind = GateKind::Z; return true; }
    if (name == "s") { kind = GateKind::S; return true; }
    if (name == "sdg") { kind = GateKind::Sdg; return true; }
    if (name == "t") { kind = GateKind::T; return true; }
    if (name == "tdg") { kind = GateKind::Tdg; return true; }
    if (name == "rx") { kind = GateKind::Rx; return true; }
    if (name == "ry") { kind = GateKind::Ry; return true; }
    if (name == "rz") { kind = GateKind::Rz; return true; }
    if (name == "u1") { kind = GateKind::Phase; return true; }
    if (name == "swap") { kind = GateKind::Swap; return true; }
    return false;
}

/** See file comment: the positioned QASM parser. */
class QasmParser
{
  public:
    explicit QasmParser(const std::string &source) : src(source) {}

    Circuit
    parse()
    {
        std::istringstream is(src);
        std::string line;
        while (std::getline(is, line)) {
            ++lineNo;
            currentLine = line;
            try {
                parseLine(line);
            } catch (const ParseFailure &f) {
                fail(f);
            } catch (const std::exception &e) {
                fail({"", e.what()});
            }
        }
        try {
            flushMeasures();
        } catch (const ParseFailure &f) {
            fail(f);
        }
        return std::move(circ);
    }

  private:
    const std::string &src;
    Circuit circ;

    /** Register name -> (qubit offset, width). */
    std::map<std::string, std::pair<unsigned, unsigned>> regLayout;

    /** Classical register name -> measurement label. */
    std::map<std::string, std::string> cregLabel;

    /**
     * Pending measurement targets per label (rebuilt into one Measure
     * instruction per label, in first-seen order).
     */
    std::map<std::string, std::vector<std::pair<unsigned, unsigned>>>
        pendingMeasures;
    std::vector<std::string> pendingOrder;

    /** Labels some measure statement has already recorded into. */
    std::set<std::string> measuredLabels;

    std::size_t lineNo = 0;
    std::string currentLine;

    /** Throw `f` as a QasmError positioned on the current line. */
    [[noreturn]] void
    fail(const ParseFailure &f) const
    {
        std::size_t col = currentLine.find_first_not_of(" \t");
        col = (col == std::string::npos) ? 0 : col;
        if (!f.token.empty()) {
            const auto at = currentLine.find(f.token);
            if (at != std::string::npos)
                col = at;
        }
        throw QasmError(lineNo == 0 ? 1 : lineNo, col + 1, f.token,
                        f.message);
    }

    unsigned
    resolve(const std::string &ref_text)
    {
        const RegRef ref = parseRef(ref_text);
        const auto it = regLayout.find(ref.name);
        if (it == regLayout.end())
            parseThrow(ref.name, "unknown register");
        if (ref.index >= it->second.second)
            parseThrow(trimmed(ref_text),
                       "qubit index out of range for register '" +
                           ref.name + "'");
        return it->second.first + ref.index;
    }

    void
    flushMeasures()
    {
        for (const auto &label : pendingOrder) {
            const auto &targets = pendingMeasures.at(label);
            std::vector<unsigned> qubits(targets.size());
            std::set<unsigned> seen_bits, seen_qubits;
            for (const auto &[cbit, qubit] : targets) {
                if (cbit >= qubits.size())
                    parseThrow(label, "classical bits of measurement "
                                      "group are not contiguous for "
                                      "label");
                if (!seen_bits.insert(cbit).second)
                    parseThrow(label, "duplicate classical bit in "
                                      "measurement group for label");
                if (!seen_qubits.insert(qubit).second)
                    parseThrow(label, "duplicate measured qubit in "
                                      "measurement group for label");
                qubits[cbit] = qubit;
            }
            circ.measureQubits(qubits, label);
        }
        pendingMeasures.clear();
        pendingOrder.clear();
    }

    void
    parseLine(std::string line)
    {
        // Pragmas first; then strip comments.
        if (line.rfind("// qsa.prepz", 0) == 0) {
            flushMeasures();
            std::istringstream ls(line.substr(12));
            unsigned qubit = 0, bit = 0;
            ls >> qubit >> bit;
            if (!ls)
                parseThrow(trimmed(line),
                           "qsa.prepz pragma needs '<qubit> <bit>'");
            if (qubit >= circ.numQubits())
                parseThrow(std::to_string(qubit),
                           "prepz qubit out of range");
            if (bit > 1)
                parseThrow(std::to_string(bit),
                           "prepz bit must be 0 or 1");
            circ.prepZ(qubit, bit);
            return;
        }
        if (line.rfind("// qsa.breakpoint", 0) == 0) {
            flushMeasures();
            std::istringstream ls(line.substr(17));
            std::string label;
            ls >> label;
            if (label.empty())
                parseThrow(trimmed(line),
                           "qsa.breakpoint pragma needs a label");
            if (circ.hasBreakpoint(label))
                parseThrow(label, "duplicate breakpoint label");
            circ.breakpoint(label);
            return;
        }
        const auto comment = line.find("//");
        if (comment != std::string::npos)
            line = line.substr(0, comment);

        // Statements end with ';'.
        std::string stmt;
        for (char ch : line) {
            if (ch != ';') {
                stmt += ch;
                continue;
            }
            handleStatement(trimmed(stmt));
            stmt.clear();
        }
        if (!trimmed(stmt).empty())
            parseThrow(trimmed(stmt), "statement missing ';'");
    }

    void
    handleStatement(const std::string &stmt_in)
    {
        std::string stmt = stmt_in;
        if (stmt.empty() || stmt.rfind("OPENQASM", 0) == 0 ||
            stmt.rfind("include", 0) == 0 ||
            stmt.rfind("barrier", 0) == 0)
            return;

        // Adjacent measure lines group into one Measure instruction;
        // anything else flushes the group so program order is
        // preserved.
        if (stmt.rfind("measure", 0) != 0)
            flushMeasures();

        if (stmt.rfind("qreg", 0) == 0) {
            const RegRef ref = parseRef(stmt.substr(5));
            if (ref.index == 0)
                parseThrow(ref.name,
                           "register must have width > 0");
            if (regLayout.count(ref.name))
                parseThrow(ref.name, "duplicate register name");
            regLayout[ref.name] = {circ.numQubits(), ref.index};
            circ.addRegister(ref.name, ref.index);
            return;
        }
        if (stmt.rfind("creg", 0) == 0) {
            const RegRef ref = parseRef(stmt.substr(5));
            std::string label = ref.name;
            if (label.rfind("m_", 0) == 0)
                label = label.substr(2);
            cregLabel[ref.name] = label;
            return;
        }
        if (stmt.rfind("measure", 0) == 0) {
            const auto arrow = stmt.find("->");
            if (arrow == std::string::npos)
                parseThrow(stmt, "measure without '->'");
            const unsigned qubit = resolve(stmt.substr(8, arrow - 8));
            const RegRef cref = parseRef(stmt.substr(arrow + 2));
            const auto it = cregLabel.find(cref.name);
            if (it == cregLabel.end())
                parseThrow(cref.name, "unknown creg");
            if (!pendingMeasures.count(it->second))
                pendingOrder.push_back(it->second);
            pendingMeasures[it->second].emplace_back(cref.index,
                                                     qubit);
            measuredLabels.insert(it->second);
            return;
        }

        // Optional classical condition prefix "if(creg==v)".
        std::string cond_label;
        std::uint64_t cond_value = 0;
        if (stmt.rfind("if(", 0) == 0) {
            const auto eq = stmt.find("==");
            const auto close = stmt.find(')');
            if (eq == std::string::npos ||
                close == std::string::npos || close < eq)
                parseThrow(stmt, "malformed if condition");
            const std::string creg = stmt.substr(3, eq - 3);
            const auto lit = cregLabel.find(creg);
            if (lit == cregLabel.end())
                parseThrow(creg, "unknown creg in condition");
            if (!measuredLabels.count(lit->second))
                parseThrow(creg, "condition reads creg before any "
                                 "measurement into it");
            cond_label = lit->second;
            cond_value = parseUnsigned(
                stmt.substr(eq + 2, close - eq - 2),
                "condition value");
            stmt = trimmed(stmt.substr(close + 1));
        }

        // Gate statement: name[(params)] operands.
        std::size_t name_end = 0;
        while (name_end < stmt.size() &&
               (std::isalnum(
                    static_cast<unsigned char>(stmt[name_end])) ||
                stmt[name_end] == '_'))
            ++name_end;
        const std::string name = stmt.substr(0, name_end);
        if (name.empty())
            parseThrow(stmt, "expected a gate name");
        std::size_t rest = name_end;

        double angle = 0.0;
        bool has_angle = false;
        if (rest < stmt.size() && stmt[rest] == '(') {
            const auto close = stmt.find(')', rest);
            if (close == std::string::npos)
                parseThrow(name, "unbalanced parameter list for");
            ExprParser ep(stmt.substr(rest + 1, close - rest - 1));
            angle = ep.parse();
            has_angle = true;
            rest = close + 1;
        }

        // Strip 'c' control prefixes: no base mnemonic starts with
        // 'c', so the first non-'c' position starts the base name
        // ("ccu1" -> 2 controls, "u1").
        unsigned num_controls = 0;
        while (num_controls < name.size() && name[num_controls] == 'c')
            ++num_controls;

        GateKind kind;
        std::string base = name.substr(num_controls);
        if (!tryKindFromName(base, kind)) {
            // Names like "cswap" keep a leading 'c' in the base only
            // if the full string is itself a gate; retry with fewer
            // stripped prefixes before giving up.
            bool found = false;
            for (unsigned k = num_controls; k-- > 0;) {
                base = name.substr(k);
                if (tryKindFromName(base, kind)) {
                    num_controls = k;
                    found = true;
                    break;
                }
            }
            if (!found)
                parseThrow(name, "unsupported QASM gate");
        }
        if (has_angle && !gateKindHasAngle(kind))
            parseThrow(name, "gate takes no parameter:");

        const auto operands = splitList(stmt.substr(rest), ',');
        const std::size_t expected_targets =
            kind == GateKind::Swap ? 2 : 1;
        if (operands.size() != num_controls + expected_targets)
            parseThrow(name,
                       "gate expects " +
                           std::to_string(num_controls +
                                          expected_targets) +
                           " operand(s), got " +
                           std::to_string(operands.size()) +
                           ", for");

        Instruction inst;
        inst.kind = kind;
        inst.angle = angle;
        inst.condLabel = std::move(cond_label);
        inst.condValue = cond_value;
        for (std::size_t i = 0; i < operands.size(); ++i) {
            const unsigned q = resolve(operands[i]);
            if (std::find(inst.controls.begin(), inst.controls.end(),
                          q) != inst.controls.end() ||
                std::find(inst.targets.begin(), inst.targets.end(), q) !=
                    inst.targets.end())
                parseThrow(operands[i], "duplicate qubit operand");
            if (i < num_controls)
                inst.controls.push_back(q);
            else
                inst.targets.push_back(q);
        }
        circ.append(std::move(inst));
    }
};

} // anonymous namespace

Circuit
fromQasm(const std::string &text)
{
    return QasmParser(text).parse();
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
