/**
 * @file
 * Expected-state predicates for bug localization.
 *
 * A BugLocator probe asks "does the program under test still look
 * like the reference program at boundary k?". The PredicateOracle
 * answers the *reference* half of that question: one exact
 * measurement-resolved pass over the reference program captures, at
 * every instruction boundary, what a statistical assertion on the
 * probed register should expect — a classical point-mass value where
 * the tracked state is classical, a uniform superposition where it is
 * uniform, and an explicit outcome distribution otherwise.
 *
 * Mid-circuit measurement is handled exactly: the pass tracks the
 * full outcome *mixture* (circuit::stepBranches), conditioning each
 * branch's classically-controlled instructions on that branch's own
 * recorded outcomes, and the boundary predicate describes the
 * probability-weighted marginal over all branches. That is precisely
 * the distribution a Resimulate-mode ensemble samples when it
 * re-simulates the truncated program once per trial, so the oracle's
 * predicates stay exact past any number of measurements (at a branch
 * count exponential in the nondeterministic ones — capped, throwing
 * qsa::DeriveError beyond). Past the cap the oracle has a sampled
 * mode (OracleMode::Sampled, the Auto default's fallback): it
 * Monte-Carlo samples reference trajectories under the splittable
 * per-trial RNG discipline and estimates each boundary marginal from
 * the empirical counts, which downstream checks compare against the
 * suspect ensemble by *two-sample* tests — the segment-comparison
 * scheme of Sato & Katsube (see DESIGN.md "Sampled oracle"). For
 * measurement-free programs the exact pass has a single branch and is
 * bit-identical to the previous semi-classical simulation.
 *
 * Scope structure is inherited separately: ComputeScope boundaries
 * ("<label>_computed" / "<label>_uncomputed", see circuit/scopes.hh)
 * name positions where the paper prescribes entangled / product
 * assertions, and scopeDerivedPredicates maps those labels onto
 * instruction boundaries so the locator can probe the inherited kind
 * instead of a plain marginal.
 */

#ifndef QSA_LOCATE_PREDICATES_HH
#define QSA_LOCATE_PREDICATES_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "assertions/spec.hh"
#include "circuit/circuit.hh"
#include "circuit/executor.hh"
#include "circuit/register.hh"

namespace qsa::locate
{

/**
 * Measurement frame a marginal predicate is stated in. The paper's
 * assertions sample in the computational (Z) basis only; Proq-style
 * projective checking shows non-computational-basis properties are
 * testable at runtime by rotating the frame onto the computational
 * basis first. A basis-change epilogue (frameEpilogue) appended to
 * the truncated probe transports the oracle's predicate into the X
 * or Y frame, where relative-phase divergence on the probed register
 * becomes an amplitude difference the chi-square machinery can see.
 */
enum class Frame
{
    Z, ///< computational basis (no epilogue)
    X, ///< Hadamard frame (epilogue: H per register qubit)
    Y, ///< Y frame (epilogue: Sdg then H per register qubit)
};

/** All frames, in probe order. */
inline constexpr Frame kAllFrames[] = {Frame::Z, Frame::X, Frame::Y};

/** Human-readable frame name ("Z" / "X" / "Y"). */
std::string frameName(Frame frame);

/**
 * Append the basis-change epilogue rotating `frame` onto the
 * computational basis for every listed qubit (no-op for Frame::Z).
 * Composes with any truncated program: measuring the qubits after
 * the epilogue samples their `frame`-basis outcome distribution.
 */
void appendFrameEpilogue(circuit::Circuit &circ,
                         const std::vector<unsigned> &qubits,
                         Frame frame);

/** What the reference program promises at one instruction boundary. */
struct BoundaryPredicate
{
    /** Assertion kind the boundary supports (Classical /
     *  Superposition / Distribution). */
    assertions::AssertionKind kind =
        assertions::AssertionKind::Classical;

    /** Expected register value for Classical predicates. */
    std::uint64_t expectedValue = 0;

    /** Exact outcome distribution for Distribution predicates. */
    std::vector<double> expectedProbs;

    /**
     * Monte-Carlo reference counts when the predicate was derived by
     * the sampled oracle (length 2^width, summing to
     * referenceTrials). Downstream checks then run the two-sample
     * chi-square against these counts — comparing two finite samples
     * — instead of a one-sample test against expectedProbs, which
     * would treat sampling noise in the reference as ground truth.
     */
    std::vector<double> referenceCounts;

    /** Sampled-derivation trial budget; 0 means exact. */
    std::size_t referenceTrials = 0;
};

/** How a PredicateOracle derives its reference predicates. */
enum class OracleMode
{
    /**
     * Enumerate the full measurement-outcome mixture
     * (circuit::stepBranches). Exact, but exponential in the
     * nondeterministic measurements; throws qsa::DeriveError past
     * the branch cap.
     */
    Exact,

    /**
     * Monte-Carlo: walk reference trajectories as one outcome tree
     * (runtime/walk.hh) with the splittable per-trial-index RNG
     * discipline (bit-identical across thread counts) and estimate
     * each boundary marginal from one outcome draw per trial.
     * Predicates become Distribution-with-counts and probes compare
     * suspect vs reference by two-sample tests. Cost is the walk's
     * path nodes plus one draw per trial, wanted boundary and frame,
     * regardless of how many qubits the program measures.
     */
    Sampled,

    /** Exact, falling back to Sampled when exact derivation throws
     *  DeriveError (branch-cap overflow). */
    Auto,
};

/** Human-readable oracle-mode name ("exact" / "sampled" / "auto"). */
std::string oracleModeName(OracleMode mode);

/** Derivation knobs threaded from LocateConfig / serve requests. */
struct OracleOptions
{
    /** Derivation strategy. */
    OracleMode mode = OracleMode::Auto;

    /**
     * Trajectories per sampled derivation. The default matches the
     * exact oracle's branch cap: the sampled reference is never
     * cheaper to distinguish against than the widest exact mixture
     * it replaces.
     */
    std::size_t sampleTrials = 4096;
};

/**
 * The reference's exact measurement-branch mixture at one boundary,
 * kept by a caller that derives one exact oracle after another at
 * boundaries that mostly lie above a rising floor (the mirror
 * prober's lazy per-boundary oracles). An exact derivation handed one
 * starts from it instead of instruction 0: it first advances the
 * mixture in place to min(target, smallest wanted boundary) — only
 * forward, and inside the derivation, so a branch-cap overflow on the
 * way still falls back to the sampled oracle in Auto mode — then
 * derives from a copy. The mixture is dropped for good when advancing
 * it overflows or when it outgrows runtime::CheckpointStore's byte
 * budget; derivations then start from instruction 0 again.
 */
struct BranchMixture
{
    /** Boundary the branches describe. */
    std::size_t boundary = 0;

    /** The mixture at `boundary`; empty means |0...0> at boundary 0. */
    std::vector<circuit::ExecutionBranch> branches;

    /** Where the next derivation should leave the mixture. */
    std::size_t target = 0;

    /** False once the mixture was dropped. */
    bool kept = true;
};

/**
 * See file comment. Construction runs the reference program once,
 * instruction by instruction, recording a predicate per boundary
 * (boundary k is the state after the first k instructions); cost is
 * one measurement-resolved simulation plus one marginalisation per
 * recorded boundary and branch.
 */
class PredicateOracle
{
  public:
    /**
     * @param reference the correct program
     * @param reg register the predicates describe
     * @param seed master seed for sampled derivation (every trial
     *        draws from the stream keyed by its trial index; exact
     *        derivation draws no randomness and ignores it)
     * @param options derivation mode + sample budget
     *
     * Throws qsa::DeriveError when derivation is impossible for the
     * given program/register: exact-mode branch-cap overflow (Auto
     * falls back to sampled instead), or a register too wide for
     * dense marginals in any mode.
     */
    PredicateOracle(const circuit::Circuit &reference,
                    const circuit::QubitRegister &reg,
                    std::uint64_t seed = 0x51c0ffee,
                    const OracleOptions &options = {});

    /**
     * As above, but record predicates only at the given boundaries —
     * the memory-lean form for callers that probe a sparse boundary
     * set with a wide register (mirror probes keep one full-space
     * predicate per mirror segment start, not per instruction).
     */
    PredicateOracle(const circuit::Circuit &reference,
                    const circuit::QubitRegister &reg,
                    std::uint64_t seed,
                    const std::vector<std::size_t> &boundaries,
                    const OracleOptions &options = {},
                    BranchMixture *resume = nullptr);

    /**
     * As above, additionally recording the register's mixture
     * marginal in each requested measurement frame (the rotated-basis
     * probe family asserts all of them per boundary). Frame::Z alone
     * is bit-identical to the two-frame-free constructors.
     */
    PredicateOracle(const circuit::Circuit &reference,
                    const circuit::QubitRegister &reg,
                    std::uint64_t seed,
                    const std::vector<std::size_t> *boundaries,
                    const std::vector<Frame> &frames,
                    const OracleOptions &options = {});

    /** Number of boundaries (reference instruction count + 1). */
    std::size_t numBoundaries() const { return totalBoundaries; }

    /** True when the predicates were derived by Monte-Carlo sampling
     *  (either forced or by Auto fallback past the branch cap). */
    bool sampled() const { return sampledTrials != 0; }

    /** Trial budget of the sampled derivation (0 when exact). */
    std::size_t trials() const { return sampledTrials; }

    /** Predicate at a (recorded) boundary, in a (recorded) frame. */
    const BoundaryPredicate &at(std::size_t boundary,
                                Frame frame = Frame::Z) const;

    /**
     * Build the assertion spec testing this oracle's predicate at a
     * boundary, bound to the given breakpoint label. The probe
     * program must carry the matching frameEpilogue before the
     * breakpoint when `frame` is not Z.
     */
    assertions::AssertionSpec specAt(std::size_t boundary,
                                     const std::string &breakpoint,
                                     double alpha,
                                     Frame frame = Frame::Z) const;

    /**
     * Every recorded predicate, keyed by (boundary, frame) — the
     * (de)serialization surface the persistent oracle store uses to
     * prove a warm restore equals a cold derivation.
     */
    const std::map<std::pair<std::size_t, Frame>, BoundaryPredicate> &
    entries() const
    {
        return preds;
    }

  private:
    circuit::QubitRegister reg;
    std::uint64_t seed = 0;
    std::size_t totalBoundaries = 0;
    std::size_t sampledTrials = 0;
    std::map<std::pair<std::size_t, Frame>, BoundaryPredicate> preds;

    void build(const circuit::Circuit &reference,
               const std::vector<std::size_t> *boundaries,
               const std::vector<Frame> &frames,
               const OracleOptions &options,
               BranchMixture *resume = nullptr);

    void buildExact(const circuit::Circuit &reference,
                    const std::vector<std::size_t> &sortedBoundaries,
                    bool allBoundaries,
                    const std::vector<Frame> &frames,
                    BranchMixture *resume);

    void buildSampled(const circuit::Circuit &reference,
                      const std::vector<std::size_t> &sortedBoundaries,
                      bool allBoundaries,
                      const std::vector<Frame> &frames);
};

/**
 * Expected swap-test statistics per boundary: one exact
 * measurement-resolved pass over the reference records the *purity*
 * tr(rho_k^2) of the reference's mixture rho_k, reduced to the
 * comparator register, at each requested boundary. A swap-test
 * probe's ancilla reads 0 with probability (1 + tr(rho sigma)) / 2,
 * where sigma is the suspect's reduced mixture at the same boundary
 * (the partial swap test measures subsystem overlap); under the null
 * hypothesis sigma = rho, so the expected ancilla Bernoulli is
 * (1 + purity) / 2 — a classical point mass at 0 wherever the
 * reference's reduced state is pure. Unlike a register marginal, the
 * overlap deficit 1 - tr(rho sigma) is *invariant* under common
 * unitary evolution of the register, which is what makes the
 * swap-test witness monotone within a measure-free segment (see
 * locate.hh's family taxonomy). Register scoping is also what keeps
 * the probe *sensitive* past measurements: comparing the full space
 * scales the per-branch overlap signal by the squared branch weights
 * (measured qubits make the branches nearly orthogonal), while the
 * register that discards them keeps a high-purity — often pure —
 * null.
 */
class OverlapOracle
{
  public:
    /**
     * @param reference the correct program
     * @param qubits comparator register (empty = the full space)
     * @param boundaries boundaries to record (empty = all)
     */
    OverlapOracle(const circuit::Circuit &reference,
                  const std::vector<unsigned> &qubits,
                  const std::vector<std::size_t> &boundaries);

    /** Number of boundaries (reference instruction count + 1). */
    std::size_t numBoundaries() const { return totalBoundaries; }

    /** True when the boundary was recorded by this oracle. */
    bool recorded(std::size_t boundary) const
    {
        return purities.count(boundary) != 0;
    }

    /** Reduced mixture purity tr(rho^2) at a recorded boundary. */
    double purityAt(std::size_t boundary) const;

    /** Expected P(ancilla = 0) of a swap-test probe at a boundary. */
    double swapPassProbability(std::size_t boundary) const
    {
        return 0.5 * (1.0 + purityAt(boundary));
    }

    /** Every recorded purity by boundary (the (de)serialization
     *  surface for the persistent oracle store). */
    const std::map<std::size_t, double> &recordedPurities() const
    {
        return purities;
    }

  private:
    std::size_t totalBoundaries = 0;
    std::map<std::size_t, double> purities;
};

/** A scope-inherited assertion kind at one instruction boundary. */
struct ScopePredicate
{
    /** Instruction boundary the scope label marks. */
    std::size_t boundary = 0;

    /** Entangled at "<label>_computed", Product at "_uncomputed". */
    assertions::AssertionKind kind =
        assertions::AssertionKind::Entangled;

    /** The breakpoint label the kind was inherited from. */
    std::string label;
};

/**
 * Map every ComputeScope breakpoint pair in `circ` to its inherited
 * assertion kinds (the same pairing rule as autoPlaceScopeAssertions,
 * but positional). Sorted by boundary.
 */
std::vector<ScopePredicate>
scopeDerivedPredicates(const circuit::Circuit &circ);

} // namespace qsa::locate

#endif // QSA_LOCATE_PREDICATES_HH
