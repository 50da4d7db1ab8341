/**
 * @file
 * Assertion specifications and results.
 *
 * Section 3.1 of the paper defines three assertion types on quantum
 * state — classical, superposition, and entangled — plus the product-
 * state counterpart of the entanglement assertion (Section 4.5). An
 * AssertionSpec names a breakpoint, the quantum variable(s) under test,
 * and the hypothesis parameters.
 */

#ifndef QSA_ASSERTIONS_SPEC_HH
#define QSA_ASSERTIONS_SPEC_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "circuit/register.hh"
#include "runtime/ensemble.hh"
#include "stats/chi2.hh"
#include "stats/contingency.hh"

namespace qsa::assertions
{

/**
 * Default significance level for assertion verdicts — the paper's
 * working alpha. Centralised so every registration helper, policy
 * object, and the session facade agree on one value instead of
 * hard-coding 0.05 per signature.
 */
inline constexpr double kDefaultAlpha = 0.05;

/** The statistical assertion types. */
enum class AssertionKind
{
    /** Variable reads a single classical integer value. */
    Classical,

    /** Variable reads a uniform superposition over its domain. */
    Superposition,

    /** Two variables read correlated values (reject independence). */
    Entangled,

    /** Two variables read independent values (no entanglement). */
    Product,

    /**
     * Variable reads a caller-specified outcome distribution
     * (extension: generalises Superposition to non-uniform or
     * subset-supported states, e.g. Shor's lower register being
     * uniform over the order cycle {1, 7, 4, 13}).
     */
    Distribution,
};

/** Human-readable assertion kind name. */
std::string assertionKindName(AssertionKind kind);

/** One assertion: where to check, what to check, and against what. */
struct AssertionSpec
{
    /** Assertion type. */
    AssertionKind kind = AssertionKind::Classical;

    /** Breakpoint label the program is truncated at. */
    std::string breakpoint;

    /** Primary quantum variable. */
    circuit::QubitRegister regA;

    /** Second variable for Entangled/Product assertions. */
    circuit::QubitRegister regB;

    /** Expected integer value for Classical assertions. */
    std::uint64_t expectedValue = 0;

    /**
     * Expected outcome probabilities for Distribution assertions
     * (length 2^regA.width(), summing to ~1).
     */
    std::vector<double> expectedProbs;

    /**
     * Optional Monte-Carlo reference counts backing expectedProbs
     * (length 2^regA.width(), positive total) — set when the
     * expectation itself is a finite sample (the locate layer's
     * sampled oracle). When present, Distribution checks run the
     * two-sample chi-square against these counts instead of the
     * one-sample goodness-of-fit, so sampling noise on the reference
     * side is priced into the verdict rather than treated as ground
     * truth.
     */
    std::vector<double> referenceCounts;

    /** Significance level for the verdict. */
    double alpha = kDefaultAlpha;

    /** Optional display name for reports. */
    std::string name;
};

/** How ensemble members are produced (defined by the runtime). */
using EnsembleMode = runtime::EnsembleMode;

/** Checker configuration. */
struct CheckConfig
{
    /** Number of measurements per breakpoint. */
    std::size_t ensembleSize = 256;

    /** Ensemble generation mode. */
    EnsembleMode mode = EnsembleMode::SampleFinalState;

    /** Master seed; every ensemble member gets a split stream. */
    std::uint64_t seed = 0x51c0ffee;

    /**
     * Worker threads for ensemble generation: 0 = the process-wide
     * shared pool (hardware concurrency), 1 = serial, n = a dedicated
     * pool of n threads. Outcomes are bit-identical for any value
     * (qsa::runtime keys every trial's RNG stream by trial index).
     */
    unsigned numThreads = 0;

    /** Yates continuity correction on 2x2 contingency tables. */
    bool yatesFor2x2 = true;

    /** Use the G-test instead of Pearson chi-square (ablation). */
    bool useGTest = false;

    /**
     * Opt-in Holm-Bonferroni family-wise error control across the
     * assertions adjudicated together by checkAll(): per-assertion
     * alpha alone lets false alarms accumulate over large auto-placed
     * assertion sets (and over a bug locator's probe sequences).
     * Off by default to preserve per-assertion semantics.
     */
    bool holmBonferroni = false;
};

/**
 * Sequential-testing ensemble-size escalation policy: a check starts
 * at initialSize measurements and doubles while the p-value is
 * *inconclusive* — the hypothesis was not rejected (p > alpha) but the
 * evidence for it is weak (p < passThreshold) — until the verdict is
 * decisive or maxSize is reached. Because every trial m draws from the
 * stream keyed by m (see runtime/ensemble.hh), an escalated ensemble
 * extends the previous one rather than resampling it: the procedure
 * is a genuine sequential test, deterministic for a given seed.
 */
struct EscalationPolicy
{
    /** Measurements for the first round. */
    std::size_t initialSize = 64;

    /** Ensemble-size cap; the last round's verdict is final. */
    std::size_t maxSize = 2048;

    /**
     * Smallest p-value treated as decisively consistent with the
     * hypothesis; p in (alpha, passThreshold) escalates.
     */
    double passThreshold = 0.30;
};

/**
 * The escalation trigger, shared by every sequential-testing caller
 * (AssertionChecker::checkEscalated and qsa::locate's batch-driven
 * mirror probes). For most kinds a verdict is inconclusive when the
 * hypothesis was not rejected but the evidence for it is weak
 * (alpha < p < passThreshold). Entangled assertions invert the pass
 * semantics — rejecting independence is the *passing* verdict and an
 * underpowered ensemble yields a high p — so for them any
 * not-yet-rejected p escalates: more measurements can still expose
 * the correlation, and only the cap makes the failure final.
 */
inline bool
escalationInconclusive(const EscalationPolicy &policy,
                       AssertionKind kind, double alpha,
                       double p_value)
{
    if (kind == AssertionKind::Entangled)
        return p_value > alpha;
    return p_value > alpha && p_value < policy.passThreshold;
}

/** Result of checking one assertion. */
struct AssertionOutcome
{
    /** The spec that was checked. */
    AssertionSpec spec;

    /** p-value of the statistical test. */
    double pValue = 1.0;

    /** Test statistic. */
    double statistic = 0.0;

    /** Degrees of freedom. */
    double df = 0.0;

    /** Ensemble size actually used. */
    std::size_t ensembleSize = 0;

    /**
     * Significance threshold the verdict was adjudicated against:
     * spec.alpha for a standalone check, the Holm-Bonferroni step-down
     * threshold when family-wise control was applied.
     */
    double effectiveAlpha = 0.0;

    /**
     * Verdict: true when the observation is consistent with the
     * asserted state class. Classical/Superposition/Product pass when
     * p > alpha (independence or the hypothesised distribution cannot
     * be rejected); Entangled passes when p <= alpha (independence is
     * rejected, i.e. correlation was detected).
     */
    bool passed = false;

    /** Observed counts of regA values. */
    std::map<std::uint64_t, std::uint64_t> countsA;

    /** Joint counts for Entangled/Product assertions. */
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t>
        jointCounts;

    /** Effect sizes for contingency assertions. */
    double cramersV = 0.0;
    double contingencyC = 0.0;

    /** True when a zero-probability outcome was observed (p = 0). */
    bool impossibleOutcome = false;
};

} // namespace qsa::assertions

#endif // QSA_ASSERTIONS_SPEC_HH
