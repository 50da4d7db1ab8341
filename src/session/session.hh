/**
 * @file
 * qsa::session — the fluent debugging front-end over checker,
 * runtime, and locator.
 *
 * The paper's workflow is one loop: write the program, place
 * assertions, run ensembles, read verdicts, localize the bug. The
 * lower layers expose that loop as four separately-driven subsystems
 * (instrument breakpoints by hand, push specs into an
 * AssertionChecker, render the report yourself, construct a
 * BugLocator). A Session owns the whole plan instead:
 *
 *   session::Session s(program);            // no pre-instrumentation
 *   s.ensembleSize(256);
 *   s.after(2).expectEntangled(q0, q1).alpha(0.01);
 *   s.at("final").expectClassical(helper, 0);
 *   s.use(assertions::EscalationPolicy{64, 2048, 0.30});
 *   s.use(session::HolmBonferroni{});
 *   std::cout << s.report();                // runs the plan
 *   auto where = s.locate(reference);       // hands off to qsa::locate
 *
 * Sites are addressed by existing breakpoint label (`at("entangled")`)
 * or by raw instruction boundary (`after(3)`); the first boundary
 * site auto-instruments the program via
 * circuit::Circuit::withBoundaryBreakpoints, so callers never
 * pre-instrument. Expect* builders return Expectation handles whose
 * fluent modifiers (.alpha, .named) refine the spec and whose
 * accessors (.outcome, .passed) read the verdict after the run.
 *
 * run() executes the whole plan in one runtime::BatchRunner fan-out —
 * every (truncation, assertion) pair across one pool, sharing one
 * engine's plan and sampler caches — with verdicts bit-identical to
 * driving an AssertionChecker directly (enforced by
 * tests/test_session.cc across thread counts and ensemble modes).
 * Escalation (sequential ensemble doubling) and Holm-Bonferroni
 * family-wise control are composable policy objects applied with
 * use(), not flags scattered across CheckConfig.
 *
 * The legacy entry points (AssertionChecker, BugLocator, renderReport)
 * remain the supported low-level layer; the session is sugar plus a
 * plan owner, not a replacement engine.
 */

#ifndef QSA_SESSION_SESSION_HH
#define QSA_SESSION_SESSION_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analyze/lint.hh"
#include "assertions/checker.hh"
#include "assertions/spec.hh"
#include "circuit/circuit.hh"
#include "locate/locate.hh"

namespace qsa::runtime
{
class BatchRunner;
} // namespace qsa::runtime

namespace qsa::session
{

class Session;
struct PlanAssertion;

/**
 * Family-wise error-control policy: adjudicate the whole plan's
 * verdicts together under Holm-Bonferroni step-down (see
 * assertions::applyHolmBonferroni) instead of per-assertion alpha.
 */
struct HolmBonferroni
{
    bool enabled = true;
};

/** How the static Clifford pass adjudicated one registered spec. */
enum class StaticVerdict
{
    /** The derived predicate proves the assertion passes. */
    Verified,

    /** The derived predicate proves the assertion fails. */
    Refuted,

    /** Outside the decidable Clifford fragment (or the assertion
     *  kind is not statically dischargeable). */
    Undecidable,
};

/** Human-readable verdict name. */
std::string staticVerdictName(StaticVerdict verdict);

/** Static adjudication of one registered assertion. */
struct StaticCheck
{
    /** Index into Session::assertions(). */
    std::size_t specIndex = 0;

    /** Display name (the run()-time default when none was set). */
    std::string name;

    /** Breakpoint label the assertion is anchored to. */
    std::string breakpoint;

    StaticVerdict verdict = StaticVerdict::Undecidable;

    /** Derivation detail: the statically derived predicate, or why
     *  the boundary was undecidable. */
    std::string detail;
};

/**
 * Result of Session::analyze(): the lint findings over the original
 * program plus the static discharge of every registered
 * expectClassical spec whose boundary the Clifford interpreter
 * decides.
 */
struct AnalysisReport
{
    analyze::LintReport lint;
    std::vector<StaticCheck> checks;

    /** Number of checks with the given verdict. */
    std::size_t count(StaticVerdict verdict) const;

    /** True when no defect-class (warning/error) lint finding and no
     *  refuted check exists; info findings are advisory. */
    bool clean() const;

    /** Human-readable rendering of both halves. */
    std::string render() const;
};

/**
 * Handle to one registered assertion: fluent spec refinement before
 * the run, verdict access after it. Copyable; all state lives in the
 * owning Session, which must outlive the handle.
 */
class Expectation
{
  public:
    /** Set the significance level for this assertion's verdict. */
    Expectation &alpha(double a);

    /** Set the display name used in reports. */
    Expectation &named(const std::string &name);

    /**
     * Override the ensemble size for this one assertion (0 restores
     * the session default). The outcome is bit-identical to checking
     * the same spec under a CheckConfig whose ensembleSize equals the
     * override; when an EscalationPolicy is in use the override
     * replaces the policy's initial size for this assertion (and
     * raises its cap to at least the override). The facade follow-up
     * for plans mixing cheap smoke assertions with a few
     * high-resolution ones.
     */
    Expectation &ensembleSize(std::size_t size);

    /** The spec as currently registered. */
    const assertions::AssertionSpec &spec() const;

    /**
     * This assertion's outcome; runs the session's plan first if it
     * has not run (or is stale) — so a one-assertion flow reads
     * `s.at("x").expectClassical(q, 0).passed()`. The reference is
     * into the session's result buffer: any later registration or
     * configuration change re-runs the plan and invalidates it (copy
     * the outcome to keep it across plan changes).
     */
    const assertions::AssertionOutcome &outcome();

    /** Verdict shorthand for outcome().passed. */
    bool passed() { return outcome().passed; }

    /** p-value shorthand for outcome().pValue. */
    double pValue() { return outcome().pValue; }

  private:
    friend class Session;
    Expectation(Session &owner, std::size_t index)
        : owner(&owner), index(index)
    {
    }

    Session *owner;
    std::size_t index;
};

/**
 * One assertion site — a breakpoint label resolved from at() or
 * after(). Value type; registration happens on the owning Session.
 */
class Site
{
  public:
    /** assert_classical: the register reads the integer `value`. */
    Expectation &expectClassical(const circuit::QubitRegister &reg,
                                 std::uint64_t value);

    /** assert_superposition: uniform over the register's domain. */
    Expectation &expectSuperposition(const circuit::QubitRegister &reg);

    /** The register's outcomes follow an explicit distribution. */
    Expectation &expectDistribution(const circuit::QubitRegister &reg,
                                    const std::vector<double> &probs);

    /** Uniform superposition over exactly the given support values. */
    Expectation &
    expectUniformSubset(const circuit::QubitRegister &reg,
                        const std::vector<std::uint64_t> &support);

    /** assert_entangled: the two registers read correlated values. */
    Expectation &expectEntangled(const circuit::QubitRegister &reg_a,
                                 const circuit::QubitRegister &reg_b);

    /** assert_product: the two registers read independent values. */
    Expectation &expectProduct(const circuit::QubitRegister &reg_a,
                               const circuit::QubitRegister &reg_b);

    /** The breakpoint label this site resolves to. */
    const std::string &breakpoint() const { return label; }

  private:
    friend class Session;
    Site(Session &owner, std::string label)
        : owner(&owner), label(std::move(label))
    {
    }

    Session *owner;
    std::string label;
};

/** See file comment. */
class Session
{
  public:
    /**
     * @param program the program under test (copied; breakpoints are
     *        optional — boundary sites instrument on demand)
     * @param config ensemble/test configuration baseline
     */
    explicit Session(const circuit::Circuit &program,
                     const assertions::CheckConfig &config =
                         assertions::CheckConfig());

    ~Session();

    /** Non-copyable: owns the engine bound to its program copy. */
    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /** @{ @name Fluent configuration */

    /** Measurements per assertion ensemble. */
    Session &ensembleSize(std::size_t size);

    /** Ensemble generation mode. */
    Session &mode(assertions::EnsembleMode m);

    /** Master seed for every ensemble stream. */
    Session &seed(std::uint64_t s);

    /** Worker threads (CheckConfig::numThreads semantics). */
    Session &threads(unsigned num_threads);

    /** Use the G-test instead of Pearson chi-square. */
    Session &gTest(bool enabled = true);

    /**
     * Probe family for locate() (locate::LocateConfig::family
     * semantics: the family is chosen per scope). The default keeps
     * each scope's classic family: segment mirrors on the full space,
     * mixture marginals on a register. Select
     * locate::ProbeFamily::SwapTest for the phase-sound comparator
     * probes, or locate::ProbeFamily::Auto to run the cheap
     * mirror-marginal search first and auto-escalate to swap-test
     * probes when its verdict is phase-ambiguous (a defect whose
     * only trace between its site and the verify step is a relative
     * phase — invisible to every computational-basis probe).
     */
    Session &probes(locate::ProbeFamily family);

    /**
     * Reference-oracle mode for locate()
     * (locate::LocateConfig::oracleMode semantics). The default,
     * locate::OracleMode::Auto, derives exact boundary marginals and
     * falls back to Monte-Carlo sampled estimates when a
     * wide-measurement reference overflows the branch enumeration
     * cap; Exact restores the hard failure, Sampled forces the
     * Monte-Carlo path. `trials` sets the sampled trajectory budget
     * (0 keeps locate::OracleOptions' default).
     */
    Session &oracle(locate::OracleMode mode, std::size_t trials = 0);

    /** Apply an ensemble-escalation policy to every check. */
    Session &use(const assertions::EscalationPolicy &policy);

    /** Apply (or remove) family-wise Holm-Bonferroni control. */
    Session &use(const HolmBonferroni &policy);

    /** The effective checker configuration. */
    const assertions::CheckConfig &config() const { return cfg; }

    /** @} */
    /** @{ @name Assertion sites */

    /**
     * Address an existing breakpoint by label. The label must exist
     * in the program (fatal otherwise — matching the checker's
     * registration-time validation).
     */
    Site at(const std::string &breakpoint);

    /**
     * Address the instruction boundary just after the first
     * `instructions` instructions of the original program (0 = the
     * initial state, size() = after the last instruction). The
     * program is instrumented on demand — no pre-placed breakpoints
     * needed.
     */
    Site after(std::size_t instructions);

    /**
     * The breakpoint label a boundary site resolves to (stable; usable
     * with the exact oracles against program()).
     */
    static std::string boundaryLabel(std::size_t boundary);

    /**
     * Register one deserialized plan item (see session/plan.hh):
     * resolves the site and register names against the program and
     * dispatches to the matching expect* builder, so a JSON plan is
     * indistinguishable from the equivalent fluent calls. Throws
     * qsa::Error on an unknown register or site, or on a value,
     * distribution, support or alpha the expect* builders reject.
     */
    Expectation &expect(const PlanAssertion &item);

    /** @} */
    /** @{ @name Execution, reporting, localization */

    /**
     * Check every registered assertion in one runtime::BatchRunner
     * fan-out (escalating each check first when an EscalationPolicy
     * is in use, re-adjudicating family-wise when HolmBonferroni is).
     * Verdicts are bit-identical to the direct AssertionChecker path.
     * Returns the outcomes in registration order; like the
     * Expectation accessors, the reference is invalidated by any
     * later registration or configuration change (which re-runs the
     * plan on next read).
     */
    const std::vector<assertions::AssertionOutcome> &run();

    /** Outcomes of the last run (runs first if the plan is stale). */
    const std::vector<assertions::AssertionOutcome> &outcomes();

    /** Human-readable outcome table (runs first if stale). */
    std::string report();

    /**
     * Machine-readable export of the outcome tables (runs first if
     * stale): one compact JSON object with the session configuration
     * ("session"), one assertions::toJson record per assertion
     * ("assertions"), the process-wide obs::metricsObject()
     * ("metrics") and "all_passed".
     */
    std::string exportJson();

    /** As exportJson() plus a newline, written to `path` (qsa::Error
     *  on I/O failure). */
    void exportJson(const std::string &path);

    /** True when every assertion passed (runs first if stale). */
    bool allPassed();

    /**
     * Static analysis of the plan — no simulation, no ensemble:
     * the lint rule registry runs over the original program
     * (analyze::lintCircuit) and the Clifford abstract interpreter
     * statically discharges every registered expectClassical spec
     * whose boundary lies in the decidable fragment (Verified /
     * Refuted; Undecidable past the first non-Clifford instruction
     * or for other assertion kinds). Sound: a Verified check cannot
     * fail statistically except through sampling error, a Refuted
     * check cannot pass. Emits analyze.* counters and trace spans
     * (honouring QSA_TRACE like every obs client).
     */
    AnalysisReport analyze();

    /**
     * Localize the first diverging instruction against a trusted
     * reference program over `scope` — the full qubit space by
     * default, one register, or a register pair — with the probe
     * family set by probes() (locate::BugLocator::locate). The
     * default family gives mirror probes on the full space
     * (phase-sensitive; the compared region must be unitary under the
     * default ensemble mode) and outcome-marginal predicates on a
     * register (tolerant of mid-program resets). Seed, threads,
     * ensemble mode, oracle mode and any escalation policy carry over
     * from the session — in particular, a session running in
     * EnsembleMode::Resimulate (`s.mode(...)`) hands that mode to the
     * locator, whose probes then cross mid-circuit measurements (see
     * locate::LocateConfig::mode).
     *
     * @throws qsa::Error when the locator rejects the configuration,
     *         the program pair, or the family on this scope
     */
    locate::LocalizationReport
    locate(const circuit::Circuit &reference,
           const locate::Scope &scope = locate::Scope(),
           locate::Strategy strategy =
               locate::Strategy::AdaptiveBinarySearch) const;

    /** The localization configuration locate() hands to BugLocator. */
    locate::LocateConfig locateConfig(locate::Strategy strategy) const;

    /** @} */
    /** @{ @name Introspection */

    /**
     * The resolved program the plan checks: the original, or the
     * boundary-instrumented copy once an after() site exists.
     */
    const circuit::Circuit &program();

    /** Registered assertion specs in registration order. */
    const std::vector<assertions::AssertionSpec> &assertions() const
    {
        return specs;
    }

    /** @} */

  private:
    friend class Expectation;
    friend class Site;

    circuit::Circuit original;
    assertions::CheckConfig cfg;

    std::vector<assertions::AssertionSpec> specs;
    std::deque<Expectation> handles; // stable addresses for handles

    /** Per-spec ensemble-size overrides (0 = session default). */
    std::vector<std::size_t> sizeOverrides;

    std::optional<assertions::EscalationPolicy> escalation;
    bool familyWise = false;

    /** Probe family handed to BugLocator by locate(). */
    locate::ProbeFamily probeFamily =
        locate::ProbeFamily::SegmentMirror;

    /** Reference-oracle mode handed to BugLocator by locate(). */
    locate::OracleMode oracleMode = locate::OracleMode::Auto;

    /** Sampled-oracle trajectory budget (0 = OracleOptions default). */
    std::size_t oracleTrials = 0;

    /** True once any after() site forces boundary instrumentation. */
    bool wantBoundaries = false;

    /** Lazily built execution state (engine + pool), see resolve(). */
    circuit::Circuit resolved;
    bool resolvedWithBoundaries = false;
    std::unique_ptr<assertions::AssertionChecker> checker;
    std::unique_ptr<runtime::BatchRunner> runner;

    /**
     * Plan results; `stale` (initially true, cleared only by run())
     * marks them out of date after a registration or config change.
     */
    std::vector<assertions::AssertionOutcome> results;
    bool stale = true;

    /** Invalidate engine + results after a config change. */
    Session &invalidate();

    /** Build `resolved`, the checker, and the runner if needed. */
    void resolve();

    /** Register a spec (shape-validated) and hand back its handle. */
    Expectation &addExpectation(assertions::AssertionSpec spec);

    /** run() when registration or configuration made results stale. */
    void ensureRun();
};

} // namespace qsa::session

#endif // QSA_SESSION_SESSION_HH
