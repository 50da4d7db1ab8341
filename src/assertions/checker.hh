/**
 * @file
 * The assertion checker: quantum breakpoints + ensemble simulation +
 * statistical tests.
 *
 * Mirrors the paper's toolflow (Section 3.3): for each assertion the
 * program is truncated at its breakpoint ("compiled into multiple
 * versions"), an ensemble of executions is simulated, the truncating
 * measurement is applied, and the outcome counts feed a chi-square
 * test whose p-value decides the verdict.
 *
 * A checker whose engine is paired with a reference (a swap-test or
 * mirror probe's, runtime::EngineOptions::reference) reads every
 * assertion as one bit computed from its program's prefix and the
 * reference's: the swap-test comparator's, or whether the mirror
 * returns to its prologue. The same statistics on a classical
 * observation whose acceptance is an overlap.
 */

#ifndef QSA_ASSERTIONS_CHECKER_HH
#define QSA_ASSERTIONS_CHECKER_HH

#include <memory>
#include <mutex>
#include <vector>

#include "assertions/spec.hh"
#include "circuit/circuit.hh"

namespace qsa::runtime
{
class BatchRunner;
class EnsembleEngine;
} // namespace qsa::runtime

namespace qsa::assertions
{

/** See file comment. */
class AssertionChecker
{
  public:
    /**
     * @param program the full instrumented program (with breakpoints),
     *        taken by value: pass an rvalue (a freshly built probe) to
     *        move it in, an lvalue to copy it
     * @param config ensemble/test configuration
     * @param options the engine's options (runtime/ensemble.hh): a
     *        prefix-state store shared with other checkers, under
     *        which outcomes are identical, and the reference a
     *        swap-test or mirror probe's checker is paired with, whose
     *        every assertion then reads the pairing's one bit. What
     *        they point to must outlive the checker.
     */
    AssertionChecker(circuit::Circuit program,
                     const CheckConfig &config = CheckConfig(),
                     runtime::EngineOptions options = {});

    ~AssertionChecker();

    /**
     * Non-copyable: the embedded runtime::EnsembleEngine is bound to
     * this checker's own program (and owns the plan caches).
     */
    AssertionChecker(const AssertionChecker &) = delete;
    AssertionChecker &operator=(const AssertionChecker &) = delete;

    /** @{ @name Assertion registration (Scaffold-style helpers) */

    /** assert_classical(reg, width, value) at a breakpoint. */
    void assertClassical(const std::string &breakpoint,
                         const circuit::QubitRegister &reg,
                         std::uint64_t value, double alpha = kDefaultAlpha);

    /** assert_superposition(reg, width) at a breakpoint. */
    void assertSuperposition(const std::string &breakpoint,
                             const circuit::QubitRegister &reg,
                             double alpha = kDefaultAlpha);

    /**
     * Extension: assert the register's outcomes follow an explicit
     * probability vector (length 2^width, summing to ~1).
     */
    void assertDistribution(const std::string &breakpoint,
                            const circuit::QubitRegister &reg,
                            const std::vector<double> &probs,
                            double alpha = kDefaultAlpha);

    /**
     * Extension: assert the register reads a uniform superposition
     * over exactly the given support values.
     */
    void assertUniformSubset(const std::string &breakpoint,
                             const circuit::QubitRegister &reg,
                             const std::vector<std::uint64_t> &support,
                             double alpha = kDefaultAlpha);

    /** assert_entangled(regA, regB) at a breakpoint. */
    void assertEntangled(const std::string &breakpoint,
                         const circuit::QubitRegister &reg_a,
                         const circuit::QubitRegister &reg_b,
                         double alpha = kDefaultAlpha);

    /** assert_product(regA, regB) at a breakpoint. */
    void assertProduct(const std::string &breakpoint,
                       const circuit::QubitRegister &reg_a,
                       const circuit::QubitRegister &reg_b,
                       double alpha = kDefaultAlpha);

    /** Register a fully specified assertion. */
    void addAssertion(const AssertionSpec &spec);

    /** @} */

    /** Registered assertions in registration order. */
    const std::vector<AssertionSpec> &assertions() const { return specs; }

    /**
     * Check a single assertion spec against the program. Ensemble
     * generation runs on the qsa::runtime pool selected by
     * CheckConfig::numThreads; safe to call concurrently from several
     * threads (BatchRunner does).
     */
    AssertionOutcome check(const AssertionSpec &spec) const;

    /**
     * As check(), with an explicit ensemble size overriding
     * CheckConfig::ensembleSize for this one check — the primitive
     * behind per-expectation ensemble-size overrides on the session
     * facade. Identical seed derivation: the outcome is bit-identical
     * to check() under a config whose ensembleSize equals
     * `ensemble_size`.
     */
    AssertionOutcome check(const AssertionSpec &spec,
                           std::size_t ensemble_size) const;

    /**
     * Sequential-testing variant of check(): starts at
     * policy.initialSize measurements and doubles the ensemble while
     * the verdict is inconclusive (p in (alpha, passThreshold)), up
     * to policy.maxSize. Escalated rounds *extend* the earlier
     * ensemble (trial streams are keyed by trial index), so this is a
     * true sequential test — qsa::locate uses it so probes near the
     * suspect boundary run on larger ensembles than exploratory ones.
     */
    AssertionOutcome checkEscalated(const AssertionSpec &spec,
                                    const EscalationPolicy &policy) const;

    /**
     * checkEscalated() over several specs at once: outcome i equals
     * checkEscalated(specs[i], policy). It works round by round: each
     * round gathers every spec still inconclusive at that round's size
     * in one engine call, so specs whose ensembles share one
     * Resimulate path walk (a dual mirror probe's two breakpoints,
     * runtime::EnsembleEngine::gather) are read out of it together,
     * and no walk is made for a spec that is already final.
     */
    std::vector<AssertionOutcome>
    checkEscalated(const std::vector<AssertionSpec> &specs,
                   const EscalationPolicy &policy) const;

    /**
     * Check every registered assertion. The (truncation, assertion)
     * pairs fan across the runtime pool through
     * runtime::BatchRunner (the same fan-out session::Session::run
     * uses) instead of a serial per-spec loop; outcomes are
     * bit-identical to checking each spec serially because every
     * check depends only on (spec, config, seed). With
     * CheckConfig::holmBonferroni the verdicts are then
     * re-adjudicated under Holm-Bonferroni family-wise error control
     * (applyHolmBonferroni below).
     */
    std::vector<AssertionOutcome> checkAll() const;

    /** Toggle Holm-Bonferroni control for checkAll() after the fact. */
    void setHolmBonferroni(bool enabled) { config.holmBonferroni = enabled; }

    /**
     * Drop the runtime's cached plans (a full head statevector per
     * checked breakpoint, in either mode) and shot samplers — the
     * relief valve for long-lived sessions sweeping many breakpoints.
     * Results are unaffected; only recomputed.
     */
    void clearRuntimeCache();

    /**
     * Gather the measurement ensemble for one assertion without
     * running the statistical test: returns (valueA, valueB) pairs
     * (valueB is 0 for single-variable assertions). Exposed for the
     * statistical-power ablation bench.
     */
    std::vector<std::pair<std::uint64_t, std::uint64_t>>
    gatherEnsemble(const AssertionSpec &spec) const;

  private:
    circuit::Circuit program;
    CheckConfig config;
    std::vector<AssertionSpec> specs;

    /**
     * Ensemble-execution backend: shards trials across a thread pool
     * and caches truncated-circuit prefixes (internally locked, so
     * const check() calls may run concurrently).
     */
    std::unique_ptr<runtime::EnsembleEngine> engine;

    /** checkAll's plan fan-out runner, built on first use. */
    mutable std::once_flag runnerOnce;
    mutable std::unique_ptr<runtime::BatchRunner> runner;

    void validateSpec(const AssertionSpec &spec) const;

    /** The engine request of `spec` at `ensemble_size` trials. */
    runtime::EnsembleSpec request(const AssertionSpec &spec,
                                  std::size_t ensemble_size) const;

    /** A joint readout split into (valueA, valueB) pairs. */
    static std::vector<std::pair<std::uint64_t, std::uint64_t>>
    valuePairs(const AssertionSpec &spec,
               const std::vector<std::uint64_t> &joint_values);

    /**
     * Check each spec at `ensemble_size` trials, their ensembles
     * gathered in one engine call (runtime::EnsembleEngine::gather):
     * a check() round, or an escalation round.
     */
    std::vector<AssertionOutcome>
    checkWithSize(const std::vector<const AssertionSpec *> &specs,
                  std::size_t ensemble_size) const;

    /** The statistical verdict of `spec` on its gathered pairs. */
    AssertionOutcome adjudicate(
        const AssertionSpec &spec, std::size_t ensemble_size,
        const std::vector<std::pair<std::uint64_t, std::uint64_t>> &pairs)
        const;
};

/**
 * Uniform probability vector over exactly `support` within a
 * width-qubit register's domain (qsa::Error on a register too wide
 * for a dense test, empty support or out-of-domain values) — the
 * expansion behind both
 * AssertionChecker::assertUniformSubset and the session facade's
 * expectUniformSubset.
 */
std::vector<double>
uniformSubsetProbs(unsigned width,
                   const std::vector<std::uint64_t> &support);

/**
 * The default display name for a spec with none set:
 * "<kind>@<breakpoint>". One definition so checker- and
 * session-registered assertions render identically.
 */
std::string defaultSpecName(const AssertionSpec &spec);

/**
 * Program-independent assertion-spec validation: register widths,
 * alpha range, the Classical expected value lying inside the register
 * domain, and Distribution probability vectors having exactly
 * 2^width entries that sum to ~1. Rejecting malformed specs at
 * registration (the facade and the checker both call this) beats
 * panicking later inside the statistics mid-check.
 */
void validateSpecShape(const AssertionSpec &spec);

/**
 * Full spec validation against a concrete program: everything
 * validateSpecShape checks, plus the breakpoint label existing in
 * `program`.
 */
void validateSpec(const circuit::Circuit &program,
                  const AssertionSpec &spec);

/**
 * Holm-Bonferroni step-down family-wise error control over a set of
 * outcomes checked together: the i-th smallest p-value (0-based rank
 * i of m) must clear alpha / (m - i) to reject its null hypothesis,
 * and the step-down stops at the first failure. `passed` is
 * re-adjudicated in place per assertion kind (Entangled passes on
 * rejection, everything else on non-rejection) and `effectiveAlpha`
 * records each outcome's step-down threshold.
 *
 * Each rank is tested against its *own* spec's alpha. That is exact
 * Holm when the family shares one alpha (the expected usage: an
 * auto-placed set, a locator's probe batch); with heterogeneous
 * alphas the early stop makes the procedure conservative — it only
 * ever withholds rejections relative to running Holm per alpha
 * group.
 *
 * @return number of null hypotheses rejected
 */
std::size_t
applyHolmBonferroni(std::vector<AssertionOutcome> &outcomes);

/**
 * Mechanical assertion placement from ComputeScope structure (the
 * paper's Section 5.1.1 claim that language syntax for reversible
 * computation makes entanglement-assertion placement automatic): for
 * every breakpoint pair "<label>_computed" / "<label>_uncomputed" in
 * the checker's program, register
 *  - assert_entangled(reg_a, reg_b) at "<label>_computed",
 *  - assert_product(reg_a, reg_b) at "<label>_uncomputed".
 *
 * Because the placement is mechanical, the set can get large and
 * accumulate false alarms under per-assertion alpha; when
 * `family_wise` is set (the default) and at least one pair is placed,
 * the checker's Holm-Bonferroni control is switched on so checkAll()
 * adjudicates the whole placed family together. Note the flag is
 * checker-wide: assertions registered manually on the same checker
 * join the corrected family (and Entangled assertions then need
 * p <= alpha/rank to pass) — pass family_wise = false to keep
 * per-assertion semantics.
 *
 * @return number of assertions registered
 */
std::size_t
autoPlaceScopeAssertions(AssertionChecker &checker,
                         const circuit::Circuit &circ,
                         const circuit::QubitRegister &reg_a,
                         const circuit::QubitRegister &reg_b,
                         double alpha = kDefaultAlpha, bool family_wise = true);

} // namespace qsa::assertions

#endif // QSA_ASSERTIONS_CHECKER_HH
