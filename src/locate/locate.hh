/**
 * @file
 * Statistical bug localization (qsa::locate).
 *
 * The paper's assertions *detect* a bug at programmer-chosen
 * breakpoints; the debugging loop its Section 5 case studies narrate —
 * rerun with more assertions until the first failing one brackets the
 * defect — is manual. BugLocator automates that loop as a statistical
 * search over instruction boundaries, following the bug-locating-by-
 * statistical-testing idea of Sato & Katsube (2024) and the mechanical
 * assertion refinement of Rovara et al. (2024):
 *
 *  1. breakpoints are inserted programmatically at every instruction
 *     boundary (Circuit::withBoundaryBreakpoints), or existing
 *     ComputeScope labels are reused;
 *  2. an expected-state predicate is derived per boundary from the
 *     *reference* program — a classical value tracked by exact
 *     semi-classical simulation, a distribution otherwise, or an
 *     entangled/product kind inherited from scope structure
 *     (locate/predicates.hh);
 *  3. an adaptive binary search probes O(log n) boundaries, each
 *     probe an ensemble assertion whose trials fan across the
 *     qsa::runtime pool (LinearScan batches additionally fan
 *     probe-wise through runtime::BatchRunner), so a single
 *     localization run saturates the pool; both sides of the
 *     converged bracket are re-adjudicated on escalated ensembles
 *     (assertions::EscalationPolicy) before the verdict is final.
 *
 * Two probe families are offered:
 *
 *  - *Mirror probes* (locate()): the probe program is the suspect
 *    prefix followed by the adjoint of the reference prefix, asserted
 *    classically equal to the initial state. Any behavioural
 *    divergence — including pure phase errors invisible to
 *    computational-basis marginals — lowers the probe fidelity below
 *    one, so the bracketed interval provably contains a diverging
 *    instruction. Requires the compared region to be unitary.
 *
 *  - *Predicate probes* (locateByPredicates()): the suspect program is
 *    instrumented at every boundary and each probe tests the oracle's
 *    marginal predicate for one register. Cheaper per probe, tolerant
 *    of mid-program resets (bug type 1 fixtures), blind to phase-only
 *    divergence until it reaches the measured marginal.
 *
 * The LinearScan strategy checks *every* boundary in one batch under
 * Holm-Bonferroni family-wise control — the statistically-sound
 * exhaustive baseline bench_locate compares against: a scan cannot
 * adjudicate "first failing" under family-wise control until the whole
 * family's p-values exist, whereas the adaptive search needs
 * exponentially fewer probes.
 *
 * Mid-circuit measurement: under the default SampleFinalState probe
 * ensembles both families clamp the probeable range at the first
 * Measure (one final-state sample cannot represent an outcome
 * mixture). Selecting LocateConfig::mode = EnsembleMode::Resimulate
 * lifts the clamp — each probe re-simulates the truncated program
 * once per ensemble member (exact under measurement; the runtime's
 * cached deterministic head keeps the per-trial cost to the region
 * past the first measure):
 *
 *  - predicate probes compare each boundary against the oracle's
 *    outcome-*mixture* marginal (PredicateOracle tracks measurement
 *    branches exactly, conditioning classically-controlled
 *    instructions on each branch's recorded outcomes);
 *
 *  - mirror probes become *segment* mirrors: the adjoint of the
 *    reference is appended from the last non-invertible instruction
 *    (measure/reset) before the probe boundary — conditioned gates
 *    invert under their own condition — and the result is asserted
 *    against the oracle's full-space mixture predicate at that
 *    segment start. Phase sensitivity is retained within each
 *    measure-free segment; divergence at a segment start shows up in
 *    the mixture distribution itself. Boundaries where the two
 *    programs' measurement/reset *structure* differs stay clamped
 *    (past such a point the mirror cannot be built).
 *
 * For measurement-free programs Resimulate mode probes the same
 * boundaries with the same specs as the default mode, so the search
 * trajectory and bracket are preserved (probe ensembles are drawn
 * through a different stream layout, so p-values differ numerically).
 *
 * Probe families and witness soundness: every computational-basis
 * probe is blind to divergence whose only trace is a relative phase
 * *until* some later instruction rotates that phase into an
 * amplitude — past a measurement, where segment mirrors fall back to
 * mixture-marginal witnesses, such a defect is bracketed at the
 * rotation (the verify step), not at its site. Two phase-sensitive
 * families close that gap (LocateConfig::family):
 *
 *  - *Rotated-basis predicate probes* (ProbeFamily::RotatedMarginal):
 *    each boundary is probed in the Z, X and Y frames at once — the
 *    truncated program gets a basis-change epilogue per frame
 *    (predicates.hh) and the oracle's predicate is transported into
 *    that frame. For a single-qubit register the three marginals
 *    determine the Bloch vector completely; phase divergence on the
 *    probed register is visible the instruction it appears. Still
 *    not a monotone witness (later instructions can rotate the
 *    divergence off the probed register).
 *
 *  - *Swap-test probes* (ProbeFamily::SwapTest): the probe program
 *    runs the suspect prefix on the low qubit half, the reference
 *    prefix (labels renamed) on the high half, and an
 *    ancilla-controlled SWAP comparator between them; the ancilla
 *    reads 0 with probability (1 + tr(rho sigma)) / 2, asserted as
 *    the Bernoulli the OverlapOracle predicts from the reference's
 *    mixture purity. The overlap deficit is invariant under common
 *    unitary evolution, so within any measure-free segment this
 *    witness is *monotone* — sound for non-persistent divergence —
 *    at the cost of simulating 2n+1 qubits per probe.
 *
 * Static pruning (qsa::analyze): before any probe runs, the locator
 * asks `analyze::equivalentPrefixBoundary` for the largest boundary E
 * up to which the suspect and reference prefixes are *provably*
 * equivalent — by structural instruction equality or by matching
 * Clifford-segment conjugation tableaux. Every probe family's
 * statistic is invariant under a common prefix acting identically on
 * the initial state, so boundaries <= E are certified passing and the
 * search starts its bracket at E instead of 0 (LinearScan skips them
 * outright). LocateConfig::staticPruning turns the pre-pass off;
 * LocalizationReport::prunedBoundaries records the win.
 *
 *  - ProbeFamily::Auto is the per-segment witness-selection layer:
 *    run the cheap segment-mirror search first; when its verdict is
 *    *phase-ambiguous* — the deciding probe failed only through a
 *    computational-marginal component whose segment unwind passed,
 *    or every probe passed even though post-measurement segments
 *    carry no phase-sound witness — escalate to a swap-test search
 *    and let the family with the sound witness adjudicate the final
 *    bracket (LocalizationReport::decidedBy).
 */

#ifndef QSA_LOCATE_LOCATE_HH
#define QSA_LOCATE_LOCATE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "assertions/spec.hh"
#include "circuit/circuit.hh"
#include "circuit/register.hh"
#include "locate/predicates.hh"

namespace qsa::locate
{

/** How the breakpoint sequence is searched. */
enum class Strategy
{
    /** Bracket the first failing boundary in O(log n) probes. */
    AdaptiveBinarySearch,

    /** Probe every boundary in one batch (the exhaustive baseline). */
    LinearScan,
};

/**
 * Which probe family adjudicates a boundary (see the file comment's
 * witness-soundness taxonomy). SegmentMirror / SwapTest / Auto drive
 * locate() on the full qubit space; MixtureMarginal / RotatedMarginal
 * drive locateByPredicates() on one register.
 */
enum class ProbeFamily
{
    /** Mirror (default) / segment-mirror probes: phase-sensitive
     *  within a measure-free segment, computational-basis witnesses
     *  past measurements. */
    SegmentMirror,

    /** Oracle marginal predicates on one register, computational
     *  basis only (the cheapest probes; blind to phase). */
    MixtureMarginal,

    /** Marginal predicates probed in the Z, X and Y frames via
     *  basis-change epilogues (phase-sensitive on the register). */
    RotatedMarginal,

    /** Ancilla-controlled-SWAP comparator against an embedded
     *  reference copy; monotone witness within unitary segments. */
    SwapTest,

    /** Per-segment witness selection: segment mirrors first,
     *  swap-test escalation when the verdict is phase-ambiguous. */
    Auto,
};

/** Human-readable probe-family name. */
std::string probeFamilyName(ProbeFamily family);

/**
 * @{ @name Width gates
 * The widest programs (in qubits) each full-space probe family
 * accepts; wider programs are rejected when the prober is built.
 * Exported so front ends (serve::validateLocate) reject such requests
 * up front with the locator's own bounds instead of a drifting copy.
 */

/**
 * Swap-test probes simulate two embedded copies plus an ancilla
 * (2n+1 qubits). Also the Auto paths' escalation-availability check:
 * an Auto search on a wider program keeps its cheap family's verdict
 * instead of dying in a prober it may never need. Tensor-split probe
 * trials (LocateConfig::tensorSwapProbes) simulate the two halves on
 * 2^n states and touch the 2^(2n+1) space only for the ~n comparator
 * gates, which lifted this gate from the historical 10; the bound is
 * the comparator's full-size state itself (2^23 amplitudes = 128 MiB
 * per in-flight trial at n = 11).
 */
inline constexpr unsigned kSwapQubitGate = 11;

/** Segment-mirror probes assert on the full qubit space. */
inline constexpr unsigned kMirrorQubitGate = 24;

/** Resimulate segment-mirror probes also hold a full-space mixture
 *  distribution per segment start. */
inline constexpr unsigned kResimMirrorQubitGate = 16;

/** @} */

/** Localization configuration. */
struct LocateConfig
{
    /** Search strategy. */
    Strategy strategy = Strategy::AdaptiveBinarySearch;

    /**
     * Probe family. locate() accepts SegmentMirror, SwapTest, and
     * Auto (full-space comparators); the one-register
     * locateByPredicates() accepts MixtureMarginal, RotatedMarginal,
     * SwapTest, and Auto, with the comparator scoped to the register
     * — the sensitive form past measurements. SegmentMirror, the
     * config default, selects the classic family per entry point
     * (mirrors for locate(), mixture marginals for
     * locateByPredicates), so existing callers keep their probes.
     */
    ProbeFamily family = ProbeFamily::SegmentMirror;

    /**
     * Probe ensemble generation mode. SampleFinalState (default)
     * keeps the fast sampling path and clamps the probeable range at
     * the first Measure; Resimulate re-runs each truncated probe once
     * per trial, lifting the clamp so semiclassical programs localize
     * past mid-circuit measurement (see the file comment).
     */
    assertions::EnsembleMode mode =
        assertions::EnsembleMode::SampleFinalState;

    /** Measurements per exploratory probe. */
    std::size_t ensembleSize = 64;

    /**
     * Measurements for confirmation probes at the converged bracket
     * (and the escalation cap for inconclusive probes).
     */
    std::size_t maxEnsembleSize = 2048;

    /** Per-probe significance level. */
    double alpha = 0.01;

    /**
     * Escalation pass threshold for inconclusive probes
     * (assertions::EscalationPolicy::passThreshold semantics): p in
     * (alpha, passThreshold) doubles the probe ensemble.
     */
    double passThreshold = 0.30;

    /** Master seed; probe ensembles derive per-boundary streams. */
    std::uint64_t seed = 0x10ca7eb6;

    /**
     * Reference-oracle derivation mode (predicates.hh). Auto
     * (default) derives exactly and falls back to Monte-Carlo
     * sampled marginals when the program's measurement-branch
     * mixture overflows the exact cap — the only way to localize
     * wide-measurement programs. Exact restores the
     * throw-on-overflow behaviour; Sampled forces Monte-Carlo even
     * below the cap. Swap-test probes always derive their purities
     * exactly (a sampled purity estimator needs two-copy trials the
     * OverlapOracle does not implement), so SwapTest/Auto families
     * keep the exact cap on the comparator path.
     */
    OracleMode oracleMode = OracleMode::Auto;

    /**
     * Trial budget per sampled oracle derivation; 0 selects
     * OracleOptions' default.
     */
    std::size_t oracleTrials = 0;

    /**
     * Worker threads (CheckConfig::numThreads semantics: 0 = shared
     * pool). Probe outcomes are bit-identical for any value.
     */
    unsigned numThreads = 0;

    /**
     * Run the Clifford/structural boundary-equivalence pre-pass
     * (analyze::equivalentPrefixBoundary) and start the search above
     * the certified-equivalent prefix. Purely static — no probe, no
     * simulation — and sound for every probe family, so it defaults
     * on; disable to reproduce the unpruned search trajectory.
     */
    bool staticPruning = true;

    /**
     * Holm-Bonferroni family-wise control over the LinearScan probe
     * family (the adaptive search controls errors sequentially via
     * escalation instead). Scope-inherited Entangled probes are
     * exempt: their pass is the rejection, so the correction would
     * cut the other way.
     */
    bool holmBonferroni = true;

    /**
     * Simulate swap-test probes half-by-half: the suspect prefix and
     * the embedded reference prefix each run on their own 2^n state
     * and tensor together only at the ancilla-controlled-SWAP
     * comparator (CheckConfig::tensorSplit), cutting per-trial probe
     * cost from 2^(2n+1) toward ~2^n. Identical overlap statistics
     * and brackets; disable to force monolithic probe simulation.
     */
    bool tensorSwapProbes = true;
};

/** Evidence from one probe: where, what, and how decisive. */
struct ProbeRecord
{
    /** Instruction boundary probed. */
    std::size_t boundary = 0;

    /** Assertion kind of the probe. */
    assertions::AssertionKind kind =
        assertions::AssertionKind::Classical;

    /** Measurements behind the final verdict (post escalation). */
    std::size_t ensembleSize = 0;

    /** p-value of the final adjudication. */
    double pValue = 1.0;

    /** True when the probe's assertion failed. */
    bool failed = false;

    /** Family of the probe that produced this record. */
    ProbeFamily family = ProbeFamily::SegmentMirror;

    /**
     * True when a failed dual mirror probe rejected only through its
     * computational-marginal component while its phase-sensitive
     * segment unwind passed: the divergence was transported here from
     * an earlier instruction of the same (or an earlier) segment, so
     * the boundary brackets where the divergence became *visible*,
     * not necessarily where it arose. ProbeFamily::Auto escalates to
     * swap-test probes on this signal.
     */
    bool phaseAmbiguous = false;
};

/** Outcome of a localization run. */
struct LocalizationReport
{
    /** True when a statistically failing boundary was bracketed. */
    bool bugFound = false;

    /** Largest probed boundary consistent with the reference. */
    std::size_t lastPassing = 0;

    /** Smallest probed boundary inconsistent with the reference. */
    std::size_t firstFailing = 0;

    /** Suspect instruction range [begin, end) in the tested program. */
    std::size_t suspectBegin() const { return lastPassing; }
    std::size_t suspectEnd() const { return firstFailing; }

    /** Mnemonics of the suspect instruction range. */
    std::string suspectGates;

    /** Every probe adjudicated, in execution order. */
    std::vector<ProbeRecord> probes;

    /** Total measurements across the final probe adjudications. */
    std::size_t totalMeasurements = 0;

    /**
     * Probe family whose witness adjudicated the final bracket (for
     * ProbeFamily::Auto this is SwapTest when the search escalated
     * and the swap-test probes re-bracketed the defect).
     */
    ProbeFamily decidedBy = ProbeFamily::SegmentMirror;

    /**
     * True when an Auto search escalated from segment mirrors to
     * swap-test probes (the mirror verdict was phase-ambiguous).
     */
    bool escalatedToSwapTest = false;

    /**
     * Boundaries the static boundary-equivalence pre-pass certified
     * as passing without a probe (the search's starting lower bound;
     * 0 when pruning is disabled or the programs diverge
     * structurally at the first instruction).
     */
    std::size_t prunedBoundaries = 0;

    /** One-paragraph human-readable account. */
    std::string summary() const;
};

/**
 * See file comment. A locator is bound to one (suspect, reference)
 * program pair on the same qubit space.
 */
class BugLocator
{
  public:
    /**
     * @param suspect the program whose end-to-end assertion fails
     * @param reference the trusted program it should agree with
     * @param config search/ensemble configuration
     */
    BugLocator(const circuit::Circuit &suspect,
               const circuit::Circuit &reference,
               const LocateConfig &config = LocateConfig());

    /**
     * Localize over the full qubit space with the configured family:
     * mirror probes (default; phase-sensitive where the compared
     * region is unitary), full-space swap-test probes, or Auto
     * (mirrors first, swap-test escalation on a phase-ambiguous
     * verdict).
     */
    LocalizationReport locate() const;

    /**
     * Localize on one register with the configured family: the
     * oracle's outcome-marginal predicates (default), the
     * rotated-basis Z/X/Y marginal triple, register-scoped swap-test
     * comparator probes, or Auto — the cheap marginal search first,
     * escalating to swap-test probes when a decisive swap probe at
     * the marginal bracket's lastPassing boundary (or at the top
     * boundary, when nothing failed) shows the divergence predates
     * what any computational marginal can see.
     */
    LocalizationReport
    locateByPredicates(const circuit::QubitRegister &reg) const;

    /**
     * As locateByPredicates(reg_a), additionally inheriting
     * entangled/product probe kinds on (reg_a, reg_b) at ComputeScope
     * boundaries of the suspect program.
     */
    LocalizationReport
    locateByPredicates(const circuit::QubitRegister &reg_a,
                       const circuit::QubitRegister &reg_b) const;

  private:
    circuit::Circuit suspect;
    circuit::Circuit reference;
    LocateConfig config;
};

} // namespace qsa::locate

#endif // QSA_LOCATE_LOCATE_HH
