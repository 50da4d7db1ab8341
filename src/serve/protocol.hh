/**
 * @file
 * qsa::serve wire protocol: newline-delimited JSON requests and
 * responses (one JSON object per line, no embedded newlines).
 *
 * Request schema
 * --------------
 *
 *     {"id": <any JSON value, echoed back>,
 *      "command": "ping" | "lint" | "analyze" | "check" | "locate",
 *      "circuit": "<OpenQASM dialect text, see circuit/qasm.hh>",
 *      // check / analyze: the assertion plan (session/plan.hh schema)
 *      "plan": [{"at": "final", "expect": "classical", ...}, ...],
 *      // locate only:
 *      "reference": "<OpenQASM text of the trusted program>",
 *      "register": "name",          // optional: marginal localization
 *      "register_b": "name",        // optional: scope-inherited pairs
 *      "strategy": "adaptive" | "linear",
 *      "family": "segment_mirror" | "mixture_marginal" |
 *                "rotated_marginal" | "swap_test" | "auto",
 *      "oracle_mode": "exact" | "sampled" | "auto",
 *      "oracle_trials": 4096,       // sampled-oracle trajectory budget
 *      // ensemble configuration (all optional):
 *      "seed": 81985529216486895,
 *      "ensemble_size": 256,
 *      "mode": "sample_final_state" | "resimulate",
 *      "threads": 0,                // [0, 64]; scheduling only, see
 *                                   // Request::threads
 *      "g_test": false,
 *      "holm_bonferroni": false}
 *
 * Response schema
 * ---------------
 *
 *     {"id": <echoed>, "ok": true, "command": "check",
 *      "result": {...}, "obs": {...}}
 *     {"id": <echoed>, "ok": false,
 *      "error": {"message": "...",
 *                "line": 3, "column": 7, "token": "zz"}}  // QASM only
 *
 * Determinism contract: the "result" member is a pure function of the
 * request — identical bytes for identical requests, regardless of
 * thread count, request interleaving, or whether the request ran
 * in-process or through the daemon (CI byte-compares the two). All
 * timing and environment-dependent observability lives in the
 * separable top-level "obs" member, which carries the request's
 * execution time ("duration_ns") and the JSON and QASM parse time
 * before it ("parse_ns"), and is excluded from the contract.
 *
 * Errors: the library throws qsa::Error for everything it rejects,
 * and handleRequestLine catches it in one place, around both parsing
 * and execution, and answers "ok": false while the daemon keeps
 * serving. The daemon holds no copy of a library rule. What serve
 * checks itself is the request's shape (fields, types, which command
 * takes which field) and its own Limits; everything else is the
 * library's:
 *
 *  - circuit::QasmError: a circuit field that does not parse; the
 *    response carries its "line", "column" and "token".
 *  - a plan the Session rejects (an unknown register or site, a value
 *    outside the register, a malformed distribution or support, an
 *    alpha outside (0, 1)): the message is "plan[i]: " plus the
 *    library's. Rules that only run() can check, such as a source
 *    breakpoint that clashes with a generated boundary marker, carry
 *    no prefix.
 *  - a locate the library rejects (a register the circuit lacks, a
 *    family the scope does not support, mismatched qubit spaces, a
 *    program wider than its probe family's gate, no probeable
 *    boundary), before any simulation.
 *  - qsa::DeriveError: program-inherent oracle derivation failures
 *    (e.g. a wide-measurement reference past the exact oracle's
 *    branch cap). They depend on measurement *structure*, not any
 *    statically checkable count; the error object carries the
 *    offending "instruction".
 */

#ifndef QSA_SERVE_PROTOCOL_HH
#define QSA_SERVE_PROTOCOL_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "assertions/spec.hh"
#include "circuit/circuit.hh"
#include "common/json.hh"
#include "locate/locate.hh"
#include "session/plan.hh"

namespace qsa::serve
{

/**
 * Resource ceilings a request must respect — the daemon's protection
 * against well-formed but absurd work (a 30-qubit statevector, a
 * billion-trial ensemble). Limits violations are rejected at parse
 * time with an explanatory error response; a probe family's own width
 * gate is the locator's to enforce.
 */
struct Limits
{
    /** Statevector qubits (swap-test locate simulates 2n+1). */
    unsigned maxQubits = 12;

    /** Per-assertion / per-probe ensemble ceiling. */
    std::size_t maxEnsembleSize = 1 << 16;

    /** Plan entries per request. */
    std::size_t maxPlanItems = 64;

    /** Instructions per circuit. */
    std::size_t maxInstructions = 4096;
};

/**
 * A parsed request with a well-formed shape. executeRequest can still
 * throw qsa::Error on it when the library rejects the work it asks
 * for (see the file comment's error notes).
 */
struct Request
{
    std::string command;

    circuit::Circuit circuit;

    /** locate: the trusted program. */
    std::optional<circuit::Circuit> reference;

    /** check / analyze: the assertion plan. */
    std::vector<session::PlanAssertion> plan;

    /** locate: marginal register names ("" = full-space probes). */
    std::string registerA;
    std::string registerB;

    locate::Strategy strategy = locate::Strategy::AdaptiveBinarySearch;
    locate::ProbeFamily family = locate::ProbeFamily::SegmentMirror;

    /** locate: reference-oracle mode and sampled trajectory budget
     *  (0 = the locate layer's default). */
    locate::OracleMode oracleMode = locate::OracleMode::Auto;
    std::size_t oracleTrials = 0;

    std::uint64_t seed = 0x51c0ffee;
    std::size_t ensembleSize = 256;
    assertions::EnsembleMode mode =
        assertions::EnsembleMode::SampleFinalState;
    /** CheckConfig::numThreads for an in-process executeRequest:
     *  0 = the shared pool, otherwise a dedicated pool of that size.
     *  Scheduling only — the "result" bytes never depend on it. In
     *  the daemon it changes nothing: a dispatcher runs the whole
     *  request inline on its own thread (server.hh). */
    unsigned threads = 0;
    bool gTest = false;
    bool holmBonferroni = false;
};

/**
 * Parse one request object and check its shape and the limits.
 * Throws qsa::Error on any violation: circuit::QasmError when a
 * circuit field does not parse, its message prefixed with the field
 * ("'circuit': line 3, ...").
 */
Request parseRequest(const json::Value &doc,
                     const Limits &limits = Limits());

/**
 * Execute a parsed request and return its deterministic "result"
 * payload (see the file comment's contract). Runs the full
 * session/locate machinery, fanning out as Request::threads says —
 * except on a daemon dispatcher, which runs it inline. Throws
 * qsa::Error (DeriveError included) when the library rejects the
 * work; handleRequestLine catches it.
 */
json::Value executeRequest(const Request &request);

/**
 * The complete per-line entry point: parse `line`, execute, and
 * render the full NDJSON response (without trailing newline). Never
 * throws: every error becomes an "ok": false response — the daemon's
 * inner loop. Traced, the whole call is one "serve.request" span with
 * "serve.parse" and "serve.render" children.
 */
std::string handleRequestLine(const std::string &line,
                              const Limits &limits = Limits());

} // namespace qsa::serve

#endif // QSA_SERVE_PROTOCOL_HH
