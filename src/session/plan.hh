/**
 * @file
 * Serialized assertion plans: the JSON form of a Session's expect*
 * calls, and the machinery turning one into registered assertions.
 *
 * A wire client (qsa::serve) cannot call the fluent builders — it
 * sends data. A plan is a JSON array of assertion objects,
 *
 *     [{"at": "final", "expect": "classical",
 *       "register": "sum", "value": 3, "alpha": 0.01},
 *      {"after": 2, "expect": "entangled",
 *       "register": "a", "register_b": "b"}]
 *
 * where each object carries
 *
 *  - exactly one site: `"at": <breakpoint label>` or
 *    `"after": <instruction boundary>`,
 *  - `"expect"`: one of "classical" (+ `"value"`), "superposition",
 *    "distribution" (+ `"probs"`), "uniform_subset" (+ `"support"`),
 *    "entangled" / "product" (+ `"register_b"`),
 *  - `"register"` (and `"register_b"`): register *names*, resolved
 *    against the session's program,
 *  - optional `"alpha"`, `"name"`, `"ensemble_size"` — the same
 *    refinements the Expectation handle offers.
 *
 * Session::expect(PlanAssertion) registers one parsed item and
 * returns the usual Expectation handle, so a deserialized plan is
 * indistinguishable from the equivalent fluent calls — the substrate
 * of the serve determinism contract (wire request ≡ in-process
 * session).
 *
 * planFromValue checks the schema and throws qsa::Error on a
 * violation. Whether a plan fits its program (registers, sites,
 * values, probabilities, alphas) is the Session's to check, in
 * expect() and run(): a plan has no rules of its own.
 */

#ifndef QSA_SESSION_PLAN_HH
#define QSA_SESSION_PLAN_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace qsa::json
{
class Value;
} // namespace qsa::json

namespace qsa::session
{

/** Assertion kind addressable from a serialized plan. */
enum class PlanKind
{
    Classical,
    Superposition,
    Distribution,
    UniformSubset,
    Entangled,
    Product,
};

/** Wire name of a plan kind ("classical", "uniform_subset", ...). */
std::string planKindName(PlanKind kind);

/** One deserialized plan item (see file comment for the schema). */
struct PlanAssertion
{
    /** Site: breakpoint label when false, raw boundary when true. */
    bool atBoundary = false;
    std::string breakpoint;
    std::size_t boundary = 0;

    PlanKind kind = PlanKind::Classical;

    /** Register names, resolved against the program at expect(). */
    std::string regA;
    std::string regB;

    /** Classical expected value. */
    std::uint64_t expectedValue = 0;

    /** Distribution probabilities. */
    std::vector<double> probs;

    /** UniformSubset support values. */
    std::vector<std::uint64_t> support;

    /** 0 = the per-spec default (assertions::kDefaultAlpha). */
    double alpha = 0.0;

    /** Empty = run()-time default name. */
    std::string name;

    /** 0 = the session-wide ensemble size. */
    std::size_t ensembleSize = 0;
};

/**
 * Parse a plan from an already-parsed JSON array (the serve request
 * path — requests are parsed once). Throws qsa::Error with a
 * positioned message ("plan[2]: ...") on any schema violation.
 */
std::vector<PlanAssertion> planFromValue(const json::Value &array);

} // namespace qsa::session

#endif // QSA_SESSION_PLAN_HH
