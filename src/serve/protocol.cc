#include "serve/protocol.hh"

#include <chrono>
#include <exception>

#include "analyze/lint.hh"
#include "circuit/qasm.hh"
#include "common/errors.hh"
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
    if (name == "sample_final_state") {
        *mode = assertions::EnsembleMode::SampleFinalState;
        return true;
    }
    if (name == "resimulate") {
        *mode = assertions::EnsembleMode::Resimulate;
        return true;
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

/** Non-fatal register-name lookup. */
bool
hasRegister(const circuit::Circuit &circ, const std::string &name)
{
    for (const auto &reg : circ.registers())
        if (reg.name() == name)
            return true;
    return false;
}

/**
 * Parse one circuit field into `*out`, enforcing the limits. On
 * failure fills `*error` (and `*qasm` for positioned QASM failures).
 */
bool
parseCircuitField(const json::Value &doc, const char *field,
                  const Limits &limits, circuit::Circuit *out,
                  std::string *error, circuit::QasmError *qasm)
{
    const json::Value *text = doc.find(field);
    if (text == nullptr || !text->isString()) {
        *error = std::string("'") + field +
                 "' (an OpenQASM string) is required";
        return false;
    }
    circuit::QasmError parse_error;
    auto circ = circuit::tryFromQasm(text->asString(), &parse_error);
    if (!circ) {
        *error = std::string("'") + field + "': " +
                 parse_error.render();
        if (qasm != nullptr)
            *qasm = parse_error;
        return false;
    }
    if (circ->numQubits() == 0 || circ->size() == 0) {
        *error = std::string("'") + field +
                 "' declares no qubits or no instructions";
        return false;
    }
    if (circ->numQubits() > limits.maxQubits) {
        *error = std::string("'") + field + "' uses " +
                 std::to_string(circ->numQubits()) +
                 " qubits; this server accepts at most " +
                 std::to_string(limits.maxQubits);
        return false;
    }
    if (circ->size() > limits.maxInstructions) {
        *error = std::string("'") + field + "' has " +
                 std::to_string(circ->size()) +
                 " instructions; this server accepts at most " +
                 std::to_string(limits.maxInstructions);
        return false;
    }
    *out = std::move(*circ);
    return true;
}

/**
 * Pre-guard the locate-layer fatal preconditions that depend on the
 * pair of programs (see the validate notes in protocol.hh): the
 * daemon must reject these as error responses, not die on fatal().
 */
std::string
validateLocate(const Request &request, const Limits &limits)
{
    const circuit::Circuit &suspect = request.circuit;
    const circuit::Circuit &reference = *request.reference;

    if (suspect.numQubits() != reference.numQubits())
        return "'circuit' and 'reference' use different qubit "
               "spaces (" +
               std::to_string(suspect.numQubits()) + " vs " +
               std::to_string(reference.numQubits()) + " qubits)";

    // The probe range clamps at boundary 0 (a locator fatal) when the
    // programs' heads are not comparable: reject measurement-leading
    // or structurally mismatched first instructions up front.
    const circuit::GateKind head_s = suspect.instructions()[0].kind;
    const circuit::GateKind head_r = reference.instructions()[0].kind;
    if (head_s != head_r)
        return "'circuit' and 'reference' start with different "
               "instruction kinds; no probeable boundary exists";
    if (head_s == circuit::GateKind::Measure)
        return "programs starting with a measurement have no "
               "probeable boundary";

    // No static pre-guard on measurement count: the exact oracle's
    // branch-cap overflow depends on measurement *structure* (each
    // measured qubit at most doubles the branch count, but branches
    // on zero-probability outcomes never open), so a count bound
    // would reject programs the oracle handles fine. The oracle
    // throws qsa::DeriveError past the cap — Auto mode falls back to
    // the sampled oracle, and handleRequestLine turns an Exact-mode
    // overflow into a per-request error response naming the
    // offending instruction.

    const bool marginal = !request.registerA.empty();
    if (marginal) {
        if (!hasRegister(suspect, request.registerA))
            return "'register': unknown register '" +
                   request.registerA + "'";
        if (suspect.reg(request.registerA).width() > 10)
            return "'register': register '" + request.registerA +
                   "' is too wide for marginal probes (max 10 "
                   "qubits)";
        if (!request.registerB.empty()) {
            if (!hasRegister(suspect, request.registerB))
                return "'register_b': unknown register '" +
                       request.registerB + "'";
            if (request.family !=
                    locate::ProbeFamily::SegmentMirror &&
                request.family !=
                    locate::ProbeFamily::MixtureMarginal)
                return "two-register locate supports only the "
                       "mixture_marginal family";
        }
    } else {
        if (!request.registerB.empty())
            return "'register_b' requires 'register'";
        if (request.family == locate::ProbeFamily::MixtureMarginal ||
            request.family == locate::ProbeFamily::RotatedMarginal)
            return "marginal probe families require 'register'";
    }

    // The locator's prober width gates (locate.hh) fatal when a
    // prober is built, so reject past them here. Full-space locates
    // of every family but swap_test build segment-mirror probes;
    // swap-test probes simulate 2n+1 qubits (Auto escalation past
    // that gate skips itself gracefully).
    const unsigned width = suspect.numQubits();
    if (!marginal && request.family != locate::ProbeFamily::SwapTest) {
        const bool resim =
            request.mode == assertions::EnsembleMode::Resimulate;
        const unsigned gate = resim ? locate::kResimMirrorQubitGate
                                    : locate::kMirrorQubitGate;
        if (width > gate)
            return std::string(resim ? "resimulate " : "") +
                   "segment-mirror probes support at most " +
                   std::to_string(gate) + " qubits (" +
                   std::to_string(width) +
                   " requested); pass 'register' to probe one "
                   "register's marginal instead";
    }
    if (request.family == locate::ProbeFamily::SwapTest &&
        width > locate::kSwapQubitGate)
        return "swap_test probes support at most " +
               std::to_string(locate::kSwapQubitGate) + " qubits (" +
               std::to_string(width) + " requested)";

    (void)limits;
    return "";
}

/** Render one lint report as the "lint" result payload. */
json::Value
lintPayload(const analyze::LintReport &report)
{
    json::Value out = json::Value::object();
    out.set("clean", json::Value::boolean(report.clean()));
    out.set("errors", json::Value::integer(
                          report.count(analyze::Severity::Error)));
    out.set("warnings", json::Value::integer(
                            report.count(analyze::Severity::Warning)));
    out.set("infos", json::Value::integer(
                         report.count(analyze::Severity::Info)));
    json::Value diags = json::Value::array();
    for (const auto &d : report.diagnostics) {
        json::Value item = json::Value::object();
        item.set("rule", json::Value::string(d.rule));
        item.set("severity",
                 json::Value::string(analyze::severityName(d.severity)));
        item.set("instruction", json::Value::integer(d.instruction));
        json::Value qubits = json::Value::array();
        for (unsigned q : d.qubits)
            qubits.push(json::Value::integer(q));
        item.set("qubits", std::move(qubits));
        item.set("label", json::Value::string(d.label));
        item.set("message", json::Value::string(d.message));
        item.set("hint", json::Value::string(d.hint));
        diags.push(std::move(item));
    }
    out.set("diagnostics", std::move(diags));
    return out;
}

/** Render outcome counts ({"<value>": n} in ascending value order). */
json::Value
countsPayload(
    const std::map<std::uint64_t, std::uint64_t> &counts)
{
    json::Value out = json::Value::object();
    for (const auto &[value, count] : counts)
        out.set(std::to_string(value), json::Value::integer(count));
    return out;
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
    for (const auto &item : request.plan)
        s.expect(item);

    const auto &outcomes = s.run();
    json::Value out = json::Value::object();
    bool all_passed = true;
    json::Value items = json::Value::array();
    for (const auto &outcome : outcomes) {
        all_passed = all_passed && outcome.passed;
        json::Value item = json::Value::object();
        item.set("name", json::Value::string(outcome.spec.name));
        item.set("kind",
                 json::Value::string(
                     assertions::assertionKindName(outcome.spec.kind)));
        item.set("breakpoint",
                 json::Value::string(outcome.spec.breakpoint));
        item.set("passed", json::Value::boolean(outcome.passed));
        item.set("p_value", json::Value::number(outcome.pValue));
        item.set("statistic",
                 json::Value::number(outcome.statistic));
        item.set("df", json::Value::number(outcome.df));
        item.set("ensemble_size",
                 json::Value::integer(outcome.ensembleSize));
        item.set("effective_alpha",
                 json::Value::number(outcome.effectiveAlpha));
        item.set("counts", countsPayload(outcome.countsA));
        items.push(std::move(item));
    }
    out.set("all_passed", json::Value::boolean(all_passed));
    out.set("assertions", std::move(items));
    return out;
}

json::Value
executeAnalyze(const Request &request)
{
    session::Session s(request.circuit, configFor(request));
    for (const auto &item : request.plan)
        s.expect(item);

    const session::AnalysisReport report = s.analyze();
    json::Value out = json::Value::object();
    out.set("clean", json::Value::boolean(report.clean()));
    out.set("lint", lintPayload(report.lint));
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

    locate::LocalizationReport report =
        request.registerA.empty()
            ? s.locate(*request.reference, request.strategy)
        : request.registerB.empty()
            ? s.locate(*request.reference,
                       request.circuit.reg(request.registerA),
                       request.strategy)
            : s.locate(*request.reference,
                       request.circuit.reg(request.registerA),
                       request.circuit.reg(request.registerB),
                       request.strategy);

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
 * Compose one "ok": false response. `where`, when non-empty, names
 * the instruction/register an oracle derivation failed at (the
 * DeriveError path).
 */
std::string
errorResponse(const json::Value &id, const std::string &message,
              const circuit::QasmError *qasm,
              const std::string &where = "")
{
    json::Value resp = json::Value::object();
    resp.set("id", id);
    resp.set("ok", json::Value::boolean(false));
    json::Value error = json::Value::object();
    error.set("message", json::Value::string(message));
    if (qasm != nullptr && qasm->line != 0) {
        error.set("line", json::Value::integer(qasm->line));
        error.set("column", json::Value::integer(qasm->column));
        error.set("token", json::Value::string(qasm->token));
    }
    if (!where.empty())
        error.set("instruction", json::Value::string(where));
    resp.set("error", std::move(error));
    QSA_OBS_COUNTER("serve.requests.rejected", 1);
    return resp.dump();
}

} // anonymous namespace

bool
parseRequest(const json::Value &doc, Request *request,
             std::string *error, circuit::QasmError *qasm,
             const Limits &limits)
{
    try {
        if (!doc.isObject()) {
            *error = "request must be a JSON object";
            return false;
        }

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
            if (!known) {
                *error = "unknown field '" + member.first + "'";
                return false;
            }
        }

        if (const json::Value *id = doc.find("id"))
            request->id = *id;

        const json::Value *command = doc.find("command");
        if (command == nullptr || !command->isString()) {
            *error = "'command' (a string) is required";
            return false;
        }
        request->command = command->asString();
        const bool is_check = request->command == "check";
        const bool is_locate = request->command == "locate";
        const bool is_analyze = request->command == "analyze";
        const bool is_lint = request->command == "lint";
        if (!is_check && !is_locate && !is_analyze && !is_lint &&
            request->command != "ping") {
            *error = "unknown command '" + request->command +
                     "' (expected ping / lint / analyze / check / "
                     "locate)";
            return false;
        }

        // Ensemble configuration (optional, defaulted).
        if (const json::Value *seed = doc.find("seed"))
            request->seed = seed->asUint64();
        if (const json::Value *size = doc.find("ensemble_size")) {
            request->ensembleSize = size->asUint64();
            if (request->ensembleSize == 0 ||
                request->ensembleSize > limits.maxEnsembleSize) {
                *error = "'ensemble_size' must lie in [1, " +
                         std::to_string(limits.maxEnsembleSize) + "]";
                return false;
            }
        }
        if (const json::Value *mode = doc.find("mode")) {
            if (!modeFromName(mode->asString(), &request->mode)) {
                *error = "'mode' must be sample_final_state or "
                         "resimulate";
                return false;
            }
        }
        if (const json::Value *threads = doc.find("threads")) {
            const std::uint64_t n = threads->asUint64();
            if (n > 64) {
                *error = "'threads' must lie in [0, 64]";
                return false;
            }
            request->threads = static_cast<unsigned>(n);
        }
        if (const json::Value *g = doc.find("g_test"))
            request->gTest = g->asBool();
        if (const json::Value *hb = doc.find("holm_bonferroni"))
            request->holmBonferroni = hb->asBool();

        if (request->command == "ping")
            return true;

        if (!parseCircuitField(doc, "circuit", limits,
                               &request->circuit, error, qasm))
            return false;

        // The assertion plan (check: required; analyze: optional).
        const json::Value *plan = doc.find("plan");
        if (plan != nullptr && !is_check && !is_analyze) {
            *error = "'plan' is only valid for check / analyze";
            return false;
        }
        if (is_check && plan == nullptr) {
            *error = "'plan' (an assertion array) is required for "
                     "check";
            return false;
        }
        if (plan != nullptr) {
            if (!session::tryPlanFromValue(*plan, &request->plan,
                                           error))
                return false;
            if (request->plan.size() > limits.maxPlanItems) {
                *error = "plan has " +
                         std::to_string(request->plan.size()) +
                         " items; this server accepts at most " +
                         std::to_string(limits.maxPlanItems);
                return false;
            }
            if (is_check && request->plan.empty()) {
                *error = "'plan' must contain at least one assertion";
                return false;
            }
            for (const auto &item : request->plan) {
                if (item.ensembleSize > limits.maxEnsembleSize) {
                    *error = "plan ensemble_size exceeds the server "
                             "limit of " +
                             std::to_string(limits.maxEnsembleSize);
                    return false;
                }
            }
            const std::string plan_error =
                session::validatePlan(request->circuit,
                                      request->plan);
            if (!plan_error.empty()) {
                *error = plan_error;
                return false;
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
        if (!is_locate && (reference != nullptr || reg != nullptr ||
                           reg_b != nullptr || strategy != nullptr ||
                           family != nullptr ||
                           oracle_mode != nullptr ||
                           oracle_trials != nullptr)) {
            *error = "'reference' / 'register' / 'strategy' / "
                     "'family' / 'oracle_mode' / 'oracle_trials' are "
                     "only valid for locate";
            return false;
        }
        if (is_locate) {
            circuit::Circuit ref;
            if (!parseCircuitField(doc, "reference", limits, &ref,
                                   error, qasm))
                return false;
            request->reference = std::move(ref);
            if (reg != nullptr)
                request->registerA = reg->asString();
            if (reg_b != nullptr)
                request->registerB = reg_b->asString();
            if (strategy != nullptr &&
                !strategyFromName(strategy->asString(),
                                  &request->strategy)) {
                *error = "'strategy' must be adaptive or linear";
                return false;
            }
            if (family != nullptr &&
                !familyFromName(family->asString(),
                                &request->family)) {
                *error = "'family' must be segment_mirror / "
                         "mixture_marginal / rotated_marginal / "
                         "swap_test / auto";
                return false;
            }
            if (oracle_mode != nullptr &&
                !oracleModeFromName(oracle_mode->asString(),
                                    &request->oracleMode)) {
                *error = "'oracle_mode' must be exact / sampled / "
                         "auto";
                return false;
            }
            if (oracle_trials != nullptr) {
                request->oracleTrials = oracle_trials->asUint64();
                if (request->oracleTrials == 0 ||
                    request->oracleTrials > limits.maxEnsembleSize) {
                    *error = "'oracle_trials' must lie in [1, " +
                             std::to_string(limits.maxEnsembleSize) +
                             "]";
                    return false;
                }
            }
            const std::string locate_error =
                validateLocate(*request, limits);
            if (!locate_error.empty()) {
                *error = locate_error;
                return false;
            }
        }
        return true;
    } catch (const json::TypeError &e) {
        *error = e.what();
        return false;
    }
}

json::Value
executeRequest(const Request &request)
{
    QSA_OBS_SPAN(span, "serve.request");
    QSA_OBS_COUNTER("serve.requests", 1);

    if (request.command == "ping") {
        json::Value out = json::Value::object();
        out.set("pong", json::Value::boolean(true));
        return out;
    }
    if (request.command == "lint")
        return lintPayload(analyze::lintCircuit(request.circuit));
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
    json::Value doc;
    std::string parse_error;
    if (!json::Value::parse(line, &doc, &parse_error))
        return errorResponse(json::Value(),
                             "request is not valid JSON: " +
                                 parse_error,
                             nullptr);

    Request request;
    std::string error;
    circuit::QasmError qasm;
    if (!parseRequest(doc, &request, &error, &qasm, limits))
        return errorResponse(request.id, error,
                             qasm.line != 0 ? &qasm : nullptr);

    const auto start = std::chrono::steady_clock::now();
    json::Value result;
    try {
        result = executeRequest(request);
    } catch (const DeriveError &e) {
        // Program-inherent oracle failures (a wide-measurement
        // reference past the exact branch cap, an over-wide
        // register): fail the request with the offending instruction
        // named, keep the daemon alive. An "oracle_mode": "sampled"
        // (or the default auto) request sidesteps the branch cap.
        QSA_OBS_COUNTER("serve.requests.derive_errors", 1);
        return errorResponse(request.id, e.what(), nullptr,
                             e.where());
    } catch (const std::exception &e) {
        // Belt and braces: no execute path should throw on a
        // validated request, but a daemon never dies on one either.
        return errorResponse(request.id,
                             std::string("internal error: ") +
                                 e.what(),
                             nullptr);
    }
    const auto duration =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start);

    json::Value resp = json::Value::object();
    resp.set("id", request.id);
    resp.set("ok", json::Value::boolean(true));
    resp.set("command", json::Value::string(request.command));
    resp.set("result", std::move(result));

    // Everything timing- or environment-dependent lives here, outside
    // the deterministic "result" contract.
    json::Value obs = json::Value::object();
    obs.set("duration_ns",
            json::Value::integer(
                static_cast<std::uint64_t>(duration.count())));
    resp.set("obs", std::move(obs));
    return resp.dump();
}

} // namespace qsa::serve
