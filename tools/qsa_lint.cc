/**
 * @file
 * qsa_lint — static circuit linter over QASM files.
 *
 * Usage:
 *   qsa_lint [--json] [--rules] [--demo] [file.qasm ...]
 *
 * Each input file is parsed (circuit::loadQasmFile) and run through
 * the full analyze::lintRules() registry; findings print as text (or,
 * with --json, one compact analyze::toJson line per file). --rules lists the
 * registry; --demo lints a built-in defective circuit exercising
 * every rule. Exit status: 0 when no file produced an error-severity
 * finding, 1 otherwise, 2 on usage problems. A file that cannot be
 * read or parsed stops the run with exit status 1 and a "fatal: "
 * diagnostic on stderr.
 *
 * Tracing: like every qsa::obs client, the linter's passes emit
 * analyze.* spans; run with QSA_TRACE=out.json to capture them.
 */

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "analyze/lint.hh"
#include "circuit/circuit.hh"
#include "circuit/qasm.hh"
#include "common/errors.hh"

namespace
{

using namespace qsa;

void
usage(std::ostream &os)
{
    os << "usage: qsa_lint [--json] [--rules] [--demo] "
          "[file.qasm ...]\n"
          "  --json   machine-readable output (one JSON line per "
          "input)\n"
          "  --rules  list the registered lint rules and exit\n"
          "  --demo   lint a built-in defective circuit\n";
}

void
listRules()
{
    for (const auto &rule : analyze::lintRules()) {
        std::cout << rule.id << " (" << severityName(rule.severity)
                  << "): " << rule.summary << "\n";
    }
}

/**
 * A deliberately defective program touching every rule: a condition
 * on an unwritten label, an unsatisfiable condition, a double
 * measurement, measure-then-use without reset, a reset of an
 * entangled qubit, a dead qubit, and an adjacent self-inverse pair.
 */
circuit::Circuit
demoCircuit()
{
    circuit::Circuit circ;
    const auto q = circ.addRegister("q", 3);
    const auto junk = circ.addRegister("junk", 1);

    circ.h(q[0]);
    circ.cnot(q[0], q[1]);
    circ.prepZ(q[1], 0); // reset while genuinely entangled with q[0]
    circ.x(junk[0]);
    circ.x(junk[0]); // self-inverse pair on a never-measured qubit
    circ.measureQubits({q[0]}, "m");
    circ.measureQubits({q[0]}, "m2"); // double measurement
    circ.x(q[0]); // measured then used without reset
    circ.x(q[2]);
    circ.conditionLast("typo", 1); // condition on an unwritten label
    circ.z(q[2]);
    circ.conditionLast("m", 2); // 1-bit label can never read 2
    circ.measureQubits({q[1], q[2]}, "out");
    return circ;
}

/** Lint one named circuit; returns true when errors were found. */
bool
lintOne(const std::string &name, const circuit::Circuit &circ,
        bool json)
{
    const analyze::LintReport report = analyze::lintCircuit(circ);
    if (json) {
        std::cout << analyze::toJson(report).dump() << "\n";
    } else {
        std::cout << name << ":\n" << report.render();
    }
    return report.hasErrors();
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bool json = false;
    bool demo = false;
    std::vector<std::string> files;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            json = true;
        } else if (arg == "--demo") {
            demo = true;
        } else if (arg == "--rules") {
            listRules();
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "qsa_lint: unknown option '" << arg << "'\n";
            usage(std::cerr);
            return 2;
        } else {
            files.push_back(arg);
        }
    }

    if (!demo && files.empty()) {
        usage(std::cerr);
        return 2;
    }

    bool errors = false;
    try {
        if (demo)
            errors = lintOne("demo", demoCircuit(), json) || errors;
        for (const std::string &file : files) {
            const circuit::Circuit circ = circuit::loadQasmFile(file);
            errors = lintOne(file, circ, json) || errors;
        }
    } catch (const circuit::QasmError &e) {
        std::cerr << "fatal: QASM parse error: " << e.what() << "\n";
        return 1;
    } catch (const Error &e) {
        std::cerr << "fatal: " << e.what() << "\n";
        return 1;
    }
    return errors ? 1 : 0;
}
