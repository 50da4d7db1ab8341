/**
 * @file
 * Diagnostic rendering (text and JSON).
 */

#include "analyze/diagnostic.hh"

#include <sstream>

#include "common/logging.hh"

namespace qsa::analyze
{

std::string
severityName(Severity severity)
{
    switch (severity) {
      case Severity::Info: return "info";
      case Severity::Warning: return "warning";
      case Severity::Error: return "error";
    }
    panic("unknown severity");
}

std::size_t
LintReport::count(Severity severity) const
{
    std::size_t total = 0;
    for (const Diagnostic &d : diagnostics) {
        if (d.severity == severity)
            ++total;
    }
    return total;
}

std::string
LintReport::render() const
{
    std::ostringstream os;
    for (const Diagnostic &d : diagnostics) {
        os << severityName(d.severity) << " [" << d.rule << "] at #"
           << d.instruction;
        if (!d.qubits.empty()) {
            os << " q{";
            for (std::size_t i = 0; i < d.qubits.size(); ++i)
                os << (i ? "," : "") << d.qubits[i];
            os << "}";
        }
        if (!d.label.empty())
            os << " '" << d.label << "'";
        os << ": " << d.message << "\n";
        if (!d.hint.empty())
            os << "    hint: " << d.hint << "\n";
    }
    os << diagnostics.size() << " finding(s): "
       << count(Severity::Error) << " error(s), "
       << count(Severity::Warning) << " warning(s), "
       << count(Severity::Info) << " info\n";
    return os.str();
}

json::Value
toJson(const LintReport &report)
{
    json::Value out = json::Value::object();
    out.set("clean", json::Value::boolean(report.clean()));
    out.set("errors", json::Value::integer(report.count(Severity::Error)));
    out.set("warnings",
            json::Value::integer(report.count(Severity::Warning)));
    out.set("infos", json::Value::integer(report.count(Severity::Info)));
    json::Value diagnostics = json::Value::array();
    for (const Diagnostic &d : report.diagnostics) {
        json::Value item = json::Value::object();
        item.set("rule", json::Value::string(d.rule));
        item.set("severity", json::Value::string(severityName(d.severity)));
        item.set("instruction", json::Value::integer(d.instruction));
        json::Value qubits = json::Value::array();
        for (unsigned q : d.qubits)
            qubits.push(json::Value::integer(q));
        item.set("qubits", std::move(qubits));
        item.set("label", json::Value::string(d.label));
        item.set("message", json::Value::string(d.message));
        item.set("hint", json::Value::string(d.hint));
        diagnostics.push(std::move(item));
    }
    out.set("diagnostics", std::move(diagnostics));
    return out;
}

} // namespace qsa::analyze
