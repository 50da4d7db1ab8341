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
 *     qsa::runtime pool, so a single localization run saturates the
 *     pool; both sides of the converged bracket are re-adjudicated
 *     on escalated ensembles (assertions::EscalationPolicy) before
 *     the verdict is final.
 *
 * One entry point, BugLocator::locate(scope), serves every search.
 * The Scope says what is compared: the full qubit space, one
 * register, or a register pair. The scope and LocateConfig::family
 * together pick the probe family:
 *
 *    scope          family                         probes
 *    full space     SegmentMirror, Auto            mirror
 *                   SwapTest                       full-space swap test
 *    one register   SegmentMirror, MixtureMarginal predicate
 *                   RotatedMarginal                rotated predicate
 *                   SwapTest                       register swap test
 *                   Auto                           predicate
 *    register pair  SegmentMirror, MixtureMarginal predicate, plus
 *                                                  scope-inherited kinds
 *
 * Auto starts with the cheap probes of its row and may escalate to
 * the swap test on the same scope (see the last bullet below). Every
 * other combination is rejected. The two classic families are:
 *
 *  - *Mirror probes* (full space): the suspect prefix followed by the
 *    adjoint of the reference prefix, asserted classically equal to
 *    the initial state. Any behavioural divergence — including pure
 *    phase errors invisible to computational-basis marginals —
 *    lowers the probe fidelity below one, so the bracketed interval
 *    provably contains a diverging instruction. Requires the compared
 *    region to be unitary. The mirror returns with probability
 *    F = |<psi_ref(b)|psi_sus(b)>|^2, so no probe simulates the
 *    adjoint: its checker runs the suspect prefix, is paired with the
 *    reference (runtime::Pairing::Mirror) and reads one bit per trial,
 *    0 with probability F, asserted to read 0.
 *
 *  - *Predicate probes* (a register scope): the suspect program is
 *    instrumented at every boundary and each probe tests the oracle's
 *    marginal predicate for one register. Cheaper per probe, tolerant
 *    of mid-program resets (bug type 1 fixtures), blind to phase-only
 *    divergence until it reaches the measured marginal. A register
 *    pair additionally probes entangled/product kinds on the pair at
 *    the suspect's ComputeScope boundaries.
 *
 * The LinearScan strategy checks *every* boundary in one batch under
 * Holm-Bonferroni family-wise control — the statistically-sound
 * exhaustive baseline bench_locate compares against: a scan cannot
 * adjudicate "first failing" under family-wise control until the whole
 * family's p-values exist, whereas the adaptive search needs
 * exponentially fewer probes. Both strategies check a boundary with
 * the same probe; a scan runs each at the fixed exploratory ensemble
 * size, its probes fanned across the pool through
 * runtime::BatchRunner.
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
 *    segment start (a segment that starts at the prologue is read
 *    as the fidelity bit, as under sampling). Phase sensitivity is
 *    retained within each measure-free segment; divergence at a
 *    segment start shows up in the mixture distribution itself.
 *    Boundaries where the two
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
 *  - *Swap-test probes* (ProbeFamily::SwapTest): the swap-test
 *    comparator of the suspect prefix and the reference prefix, an
 *    ancilla-controlled SWAP between them, whose ancilla reads 0
 *    with probability (1 + tr(rho sigma)) / 2, asserted as the
 *    Bernoulli the OverlapOracle predicts from the reference's
 *    mixture purity. Each trial walks both prefixes and reads that
 *    bit from the two leaf states' overlap, without simulating the
 *    comparator (runtime::EngineOptions::reference). The overlap
 *    deficit is invariant under common unitary evolution, so within
 *    any measure-free segment this witness is *monotone* — sound for
 *    non-persistent divergence — at the cost of walking the
 *    reference prefix from every suspect leaf of every probe.
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
 *    run the cheap search first, then one escalation step — a
 *    trigger on the cheap verdict and a sharper witness to re-check
 *    with, the shape of Rovara et al.'s assertion refinement. When
 *    the trigger fires, a swap-test search on the same scope
 *    adjudicates the final bracket (LocalizationReport::decidedBy).
 *    On the full space the trigger is a *phase-ambiguous* mirror
 *    verdict: the deciding probe failed only through a
 *    computational-marginal component whose segment unwind passed,
 *    or every probe passed even though post-measurement segments
 *    carry no phase-sound witness. On one register it is one
 *    decisive swap-test probe failing at the marginal bracket's
 *    lastPassing boundary (or at the top boundary when nothing
 *    failed). Programs wider than the swap-test gate (11 qubits)
 *    keep the cheap verdict.
 *
 * Preconditions: BugLocator::locate throws qsa::Error before any
 * static analysis or simulation when it cannot probe the pair — a
 * family the scope does not support, qubit spaces that differ or are
 * empty, a register outside the space, a program wider than its
 * family's gate (24 qubits for mirrors, 16 for Resimulate mirrors,
 * 11 for swap tests), or no probeable instruction boundary. The
 * BugLocator constructor throws it for an out-of-range LocateConfig.
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
 * witness-soundness taxonomy, and its table for the families each
 * Scope accepts).
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

    /** Swap-test comparator of the suspect and reference prefixes,
     *  read from their overlap; monotone witness within unitary
     *  segments. */
    SwapTest,

    /** Per-segment witness selection: segment mirrors first,
     *  swap-test escalation when the verdict is phase-ambiguous. */
    Auto,
};

/** Human-readable probe-family name. */
std::string probeFamilyName(ProbeFamily family);

/** Localization configuration. */
struct LocateConfig
{
    /** Search strategy. */
    Strategy strategy = Strategy::AdaptiveBinarySearch;

    /**
     * Probe family, chosen per Scope (the file comment's table). The
     * full space accepts SegmentMirror, SwapTest and Auto; one
     * register accepts all five, with the swap-test comparator scoped
     * to the register — the sensitive form past measurements; a
     * register pair accepts SegmentMirror and MixtureMarginal.
     * SegmentMirror, the default, selects each scope's classic
     * family: mirrors on the full space, mixture marginals on a
     * register.
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
 * What a localization compares: the full qubit space (the default),
 * one register's marginal, or a register pair (the first register's
 * marginal, plus entangled/product kinds on the pair inherited from
 * the suspect's ComputeScope boundaries). A register converts to a
 * one-register scope.
 */
class Scope
{
  public:
    /** The full qubit space. */
    Scope() = default;

    /** One register. */
    Scope(circuit::QubitRegister reg);

    /** A register pair. */
    Scope(circuit::QubitRegister reg_a, circuit::QubitRegister reg_b);

    /** None for the full space, else the one or two registers. */
    const std::vector<circuit::QubitRegister> &
    registers() const
    {
        return regs;
    }

  private:
    std::vector<circuit::QubitRegister> regs;
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
     * @throws qsa::Error when a LocateConfig field is out of range
     */
    BugLocator(const circuit::Circuit &suspect,
               const circuit::Circuit &reference,
               const LocateConfig &config = LocateConfig());

    /**
     * Localize over `scope` with the configured family (the file
     * comment's table): for example mirror probes on the full space,
     * mixture marginals on a register, or Auto's cheap search with
     * its swap-test escalation step.
     *
     * @throws qsa::Error before any static analysis or simulation
     *         when the locator cannot probe the pair on this scope
     *         (the file comment's "Preconditions")
     * @throws qsa::DeriveError when the reference oracle cannot be
     *         derived (predicates.hh)
     */
    LocalizationReport locate(const Scope &scope = Scope()) const;

  private:
    circuit::Circuit suspect;
    circuit::Circuit reference;
    LocateConfig config;
};

} // namespace qsa::locate

#endif // QSA_LOCATE_LOCATE_HH
