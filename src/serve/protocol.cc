#include "serve/protocol.hh"

#include <chrono>
#include <exception>

#include "analyze/lint.hh"
#include "assertions/report.hh"
#include "circuit/qasm.hh"
#include "common/errors.hh"
#include "common/logging.hh"
#include "locate/locate.hh"
#include "obs/obs.hh"
#include "session/session.hh"

namespace qsa::serve
{

namespace
{

/** Wire name -> ensemble mode. */
bool
modeFromName(const std::string &name, assertions::EnsembleMode *mode)
{
    for (const auto known : {assertions::EnsembleMode::SampleFinalState,
                             assertions::EnsembleMode::Resimulate}) {
        if (name == runtime::ensembleModeName(known)) {
            *mode = known;
            return true;
        }
    }
    return false;
}

/** Wire name -> search strategy. */
bool
strategyFromName(const std::string &name, locate::Strategy *strategy)
{
    if (name == "adaptive") {
        *strategy = locate::Strategy::AdaptiveBinarySearch;
        return true;
    }
    if (name == "linear") {
        *strategy = locate::Strategy::LinearScan;
        return true;
    }
    return false;
}

/** Wire name -> probe family. */
bool
familyFromName(const std::string &name, locate::ProbeFamily *family)
{
    if (name == "segment_mirror") {
        *family = locate::ProbeFamily::SegmentMirror;
        return true;
    }
    if (name == "mixture_marginal") {
        *family = locate::ProbeFamily::MixtureMarginal;
        return true;
    }
    if (name == "rotated_marginal") {
        *family = locate::ProbeFamily::RotatedMarginal;
        return true;
    }
    if (name == "swap_test") {
        *family = locate::ProbeFamily::SwapTest;
        return true;
    }
    if (name == "auto") {
        *family = locate::ProbeFamily::Auto;
        return true;
    }
    return false;
}

/** Wire name -> reference-oracle mode. */
bool
oracleModeFromName(const std::string &name, locate::OracleMode *mode)
{
    if (name == "exact") {
        *mode = locate::OracleMode::Exact;
        return true;
    }
    if (name == "sampled") {
        *mode = locate::OracleMode::Sampled;
        return true;
    }
    if (name == "auto") {
        *mode = locate::OracleMode::Auto;
        return true;
    }
    return false;
}

/** Parse one circuit field, enforcing the limits. */
circuit::Circuit
parseCircuitField(const json::Value &doc, const char *field,
                  const Limits &limits)
{
    const json::Value *text = doc.find(field);
    fatal_if(text == nullptr || !text->isString(), "'", field,
             "' (an OpenQASM string) is required");
    circuit::Circuit circ;
    try {
        circ = circuit::fromQasm(text->asString(), limits.maxQubits);
    } catch (const circuit::QasmError &e) {
        throw circuit::QasmError(std::string("'") + field + "': ", e);
    }
    fatal_if(circ.numQubits() == 0 || circ.size() == 0, "'", field,
             "' declares no qubits or no instructions");
    fatal_if(circ.size() > limits.maxInstructions, "'", field, "' has ",
             circ.size(), " instructions; this server accepts at most ",
             limits.maxInstructions);
    return circ;
}

/**
 * Register the request's plan, positioning a rejected item as
 * "plan[i]: <the library's message>".
 */
void
expectPlan(session::Session &s, const Request &request)
{
    for (std::size_t i = 0; i < request.plan.size(); ++i) {
        try {
            s.expect(request.plan[i]);
        } catch (const Error &e) {
            fatal("plan[", i, "]: ", e.what());
        }
    }
}

/** Build a session configured exactly as the request specifies. */
assertions::CheckConfig
configFor(const Request &request)
{
    assertions::CheckConfig cfg;
    cfg.ensembleSize = request.ensembleSize;
    cfg.mode = request.mode;
    cfg.seed = request.seed;
    cfg.numThreads = request.threads;
    cfg.useGTest = request.gTest;
    return cfg;
}

json::Value
executeCheck(const Request &request)
{
    session::Session s(request.circuit, configFor(request));
    if (request.holmBonferroni)
        s.use(session::HolmBonferroni{});
    expectPlan(s, request);

    const auto &outcomes = s.run();
    json::Value items = json::Value::array();
    for (const auto &outcome : outcomes)
        items.push(assertions::toJson(outcome));
    json::Value out = json::Value::object();
    out.set("all_passed",
            json::Value::boolean(assertions::allPassed(outcomes)));
    out.set("assertions", std::move(items));
    return out;
}

json::Value
executeAnalyze(const Request &request)
{
    session::Session s(request.circuit, configFor(request));
    expectPlan(s, request);

    const session::AnalysisReport report = s.analyze();
    json::Value out = json::Value::object();
    out.set("clean", json::Value::boolean(report.clean()));
    out.set("lint", analyze::toJson(report.lint));
    json::Value checks = json::Value::array();
    for (const auto &check : report.checks) {
        json::Value item = json::Value::object();
        item.set("spec_index", json::Value::integer(check.specIndex));
        item.set("name", json::Value::string(check.name));
        item.set("breakpoint",
                 json::Value::string(check.breakpoint));
        item.set("verdict",
                 json::Value::string(
                     session::staticVerdictName(check.verdict)));
        item.set("detail", json::Value::string(check.detail));
        checks.push(std::move(item));
    }
    out.set("checks", std::move(checks));
    return out;
}

json::Value
executeLocate(const Request &request)
{
    session::Session s(request.circuit, configFor(request));
    s.probes(request.family);
    s.oracle(request.oracleMode, request.oracleTrials);

    locate::Scope scope;
    if (!request.registerB.empty()) {
        scope = locate::Scope(request.circuit.reg(request.registerA),
                              request.circuit.reg(request.registerB));
    } else if (!request.registerA.empty()) {
        scope = request.circuit.reg(request.registerA);
    }
    const locate::LocalizationReport report =
        s.locate(*request.reference, scope, request.strategy);

    json::Value out = json::Value::object();
    out.set("bug_found", json::Value::boolean(report.bugFound));
    out.set("last_passing", json::Value::integer(report.lastPassing));
    out.set("first_failing",
            json::Value::integer(report.firstFailing));
    out.set("suspect_gates", json::Value::string(report.suspectGates));
    out.set("pruned_boundaries",
            json::Value::integer(report.prunedBoundaries));
    out.set("total_measurements",
            json::Value::integer(report.totalMeasurements));
    out.set("decided_by",
            json::Value::string(
                locate::probeFamilyName(report.decidedBy)));
    out.set("escalated_to_swap_test",
            json::Value::boolean(report.escalatedToSwapTest));
    json::Value probes = json::Value::array();
    for (const auto &probe : report.probes) {
        json::Value item = json::Value::object();
        item.set("boundary", json::Value::integer(probe.boundary));
        item.set("kind",
                 json::Value::string(
                     assertions::assertionKindName(probe.kind)));
        item.set("ensemble_size",
                 json::Value::integer(probe.ensembleSize));
        item.set("p_value", json::Value::number(probe.pValue));
        item.set("failed", json::Value::boolean(probe.failed));
        item.set("family",
                 json::Value::string(
                     locate::probeFamilyName(probe.family)));
        probes.push(std::move(item));
    }
    out.set("probes", std::move(probes));
    return out;
}

/**
 * Compose one "ok": false response. `qasm`, when set, adds the
 * position of a circuit parse failure; `where`, when non-empty, names
 * the instruction/register an oracle derivation failed at (the
 * DeriveError path).
 */
std::string
errorResponse(const json::Value &id, const std::string &message,
              const circuit::QasmError *qasm = nullptr,
              const std::string &where = "")
{
    json::Value resp = json::Value::object();
    resp.set("id", id);
    resp.set("ok", json::Value::boolean(false));
    json::Value error = json::Value::object();
    error.set("message", json::Value::string(message));
    if (qasm != nullptr) {
        error.set("line", json::Value::integer(qasm->line()));
        error.set("column", json::Value::integer(qasm->column()));
        error.set("token", json::Value::string(qasm->token()));
    }
    if (!where.empty())
        error.set("instruction", json::Value::string(where));
    resp.set("error", std::move(error));
    QSA_OBS_COUNTER("serve.requests.rejected", 1);
    return resp.dump();
}

} // anonymous namespace

Request
parseRequest(const json::Value &doc, const Limits &limits)
{
    fatal_if(!doc.isObject(), "request must be a JSON object");

    static const char *const kKnown[] = {
        "id",       "command",       "circuit",
        "reference", "plan",         "register",
        "register_b", "strategy",    "family",
        "oracle_mode", "oracle_trials",
        "seed",     "ensemble_size", "mode",
        "threads",  "g_test",        "holm_bonferroni"};
    for (const auto &member : doc.members()) {
        bool known = false;
        for (const char *k : kKnown)
            known = known || member.first == k;
        fatal_if(!known, "unknown field '", member.first, "'");
    }

    Request request;
    const json::Value *command = doc.find("command");
    fatal_if(command == nullptr || !command->isString(),
             "'command' (a string) is required");
    request.command = command->asString();
    const bool is_check = request.command == "check";
    const bool is_locate = request.command == "locate";
    const bool is_analyze = request.command == "analyze";
    const bool is_lint = request.command == "lint";
    fatal_if(!is_check && !is_locate && !is_analyze && !is_lint &&
                 request.command != "ping",
             "unknown command '", request.command,
             "' (expected ping / lint / analyze / check / locate)");

    // Ensemble configuration (optional, defaulted).
    if (const json::Value *seed = doc.find("seed"))
        request.seed = seed->asUint64();
    if (const json::Value *size = doc.find("ensemble_size")) {
        request.ensembleSize = size->asUint64();
        fatal_if(request.ensembleSize == 0 ||
                     request.ensembleSize > limits.maxEnsembleSize,
                 "'ensemble_size' must lie in [1, ",
                 limits.maxEnsembleSize, "]");
    }
    if (const json::Value *mode = doc.find("mode")) {
        fatal_if(!modeFromName(mode->asString(), &request.mode),
                 "'mode' must be ",
                 runtime::ensembleModeName(
                     assertions::EnsembleMode::SampleFinalState),
                 " or ",
                 runtime::ensembleModeName(
                     assertions::EnsembleMode::Resimulate));
    }
    if (const json::Value *threads = doc.find("threads")) {
        const std::uint64_t n = threads->asUint64();
        fatal_if(n > 64, "'threads' must lie in [0, 64]");
        request.threads = static_cast<unsigned>(n);
    }
    if (const json::Value *g = doc.find("g_test"))
        request.gTest = g->asBool();
    if (const json::Value *hb = doc.find("holm_bonferroni"))
        request.holmBonferroni = hb->asBool();

    if (request.command == "ping")
        return request;

    request.circuit = parseCircuitField(doc, "circuit", limits);

    // The assertion plan (check: required; analyze: optional). Whether
    // it fits the circuit is the Session's to check, at execution.
    const json::Value *plan = doc.find("plan");
    fatal_if(plan != nullptr && !is_check && !is_analyze,
             "'plan' is only valid for check / analyze");
    fatal_if(is_check && plan == nullptr,
             "'plan' (an assertion array) is required for check");
    if (plan != nullptr) {
        request.plan = session::planFromValue(*plan);
        fatal_if(request.plan.size() > limits.maxPlanItems, "plan has ",
                 request.plan.size(),
                 " items; this server accepts at most ",
                 limits.maxPlanItems);
        fatal_if(is_check && request.plan.empty(),
                 "'plan' must contain at least one assertion");
        for (const auto &item : request.plan) {
            fatal_if(item.ensembleSize > limits.maxEnsembleSize,
                     "plan ensemble_size exceeds the server limit of ",
                     limits.maxEnsembleSize);
        }
    }

    // Locate-only fields.
    const json::Value *reference = doc.find("reference");
    const json::Value *reg = doc.find("register");
    const json::Value *reg_b = doc.find("register_b");
    const json::Value *strategy = doc.find("strategy");
    const json::Value *family = doc.find("family");
    const json::Value *oracle_mode = doc.find("oracle_mode");
    const json::Value *oracle_trials = doc.find("oracle_trials");
    fatal_if(!is_locate && (reference != nullptr || reg != nullptr ||
                            reg_b != nullptr || strategy != nullptr ||
                            family != nullptr ||
                            oracle_mode != nullptr ||
                            oracle_trials != nullptr),
             "'reference' / 'register' / 'strategy' / 'family' / "
             "'oracle_mode' / 'oracle_trials' are only valid for "
             "locate");
    if (!is_locate)
        return request;

    // Everything else a locate can get wrong, the locator rejects
    // itself (qsa::Error, before any simulation); a register name the
    // circuit lacks, Circuit::reg rejects.
    request.reference = parseCircuitField(doc, "reference", limits);
    if (reg != nullptr)
        request.registerA = reg->asString();
    if (reg_b != nullptr)
        request.registerB = reg_b->asString();
    fatal_if(strategy != nullptr &&
                 !strategyFromName(strategy->asString(),
                                   &request.strategy),
             "'strategy' must be adaptive or linear");
    fatal_if(family != nullptr &&
                 !familyFromName(family->asString(), &request.family),
             "'family' must be segment_mirror / mixture_marginal / "
             "rotated_marginal / swap_test / auto");
    fatal_if(oracle_mode != nullptr &&
                 !oracleModeFromName(oracle_mode->asString(),
                                     &request.oracleMode),
             "'oracle_mode' must be exact / sampled / auto");
    if (oracle_trials != nullptr) {
        request.oracleTrials = oracle_trials->asUint64();
        fatal_if(request.oracleTrials == 0 ||
                     request.oracleTrials > limits.maxEnsembleSize,
                 "'oracle_trials' must lie in [1, ",
                 limits.maxEnsembleSize, "]");
    }
    fatal_if(!request.registerB.empty() && request.registerA.empty(),
             "'register_b' requires 'register'");
    return request;
}

json::Value
executeRequest(const Request &request)
{
    QSA_OBS_COUNTER("serve.requests", 1);

    if (request.command == "ping") {
        json::Value out = json::Value::object();
        out.set("pong", json::Value::boolean(true));
        return out;
    }
    if (request.command == "lint")
        return analyze::toJson(analyze::lintCircuit(request.circuit));
    if (request.command == "analyze")
        return executeAnalyze(request);
    if (request.command == "check")
        return executeCheck(request);
    if (request.command == "locate")
        return executeLocate(request);
    panic("executeRequest: unvalidated command");
}

std::string
handleRequestLine(const std::string &line, const Limits &limits)
{
    // One span from the first byte read to the last byte rendered, so
    // a trace attributes parsing and rendering as well as execution.
    QSA_OBS_SPAN(span, "serve.request");
    using Clock = std::chrono::steady_clock;
    const Clock::time_point received = Clock::now();
    json::Value id;
    std::string command;
    Clock::time_point parsed, executed;
    json::Value result;
    try {
        const Request request = [&] {
            QSA_OBS_SPAN(parse_span, "serve.parse");
            json::Value doc;
            std::string parse_error;
            fatal_if(!json::Value::parse(line, &doc, &parse_error),
                     "request is not valid JSON: ", parse_error);
            // Read before parsing, so that every error response
            // echoes it.
            if (const json::Value *found = doc.find("id"))
                id = *found;
            return parseRequest(doc, limits);
        }();
        command = request.command;
        parsed = Clock::now();
        result = executeRequest(request);
        executed = Clock::now();
    } catch (const circuit::QasmError &e) {
        return errorResponse(id, e.what(), &e);
    } catch (const DeriveError &e) {
        // Program-inherent oracle failures (a wide-measurement
        // reference past the exact branch cap, an over-wide
        // register): fail the request with the offending instruction
        // named, keep the daemon alive. An "oracle_mode": "sampled"
        // (or the default auto) request sidesteps the branch cap.
        QSA_OBS_COUNTER("serve.requests.derive_errors", 1);
        return errorResponse(id, e.what(), nullptr, e.where());
    } catch (const Error &e) {
        // Anything else the library rejects: a request that is not
        // JSON or is malformed, or a plan, circuit or locate it will
        // not run.
        return errorResponse(id, e.what());
    } catch (const std::exception &e) {
        // Belt and braces: no path should throw anything else, but a
        // daemon never dies on one either.
        return errorResponse(id,
                             std::string("internal error: ") + e.what());
    }

    QSA_OBS_SPAN(render_span, "serve.render");
    const auto ns = [](Clock::duration d) {
        return json::Value::integer(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(d)
                .count()));
    };
    json::Value resp = json::Value::object();
    resp.set("id", id);
    resp.set("ok", json::Value::boolean(true));
    resp.set("command", json::Value::string(command));
    resp.set("result", std::move(result));

    // Everything timing- or environment-dependent lives here, outside
    // the deterministic "result" contract: execution time alone
    // ("duration_ns"), and the JSON and QASM parse before it.
    json::Value obs = json::Value::object();
    obs.set("duration_ns", ns(executed - parsed));
    obs.set("parse_ns", ns(parsed - received));
    resp.set("obs", std::move(obs));
    return resp.dump();
}

} // namespace qsa::serve
