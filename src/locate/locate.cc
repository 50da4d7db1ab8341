/**
 * @file
 * BugLocator implementation.
 */

#include "locate/locate.hh"

#include <algorithm>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <utility>

#include "analyze/clifford.hh"
#include "assertions/checker.hh"
#include "common/bits.hh"
#include "common/errors.hh"
#include "common/logging.hh"
#include "obs/obs.hh"
#include "runtime/batch.hh"
#include "runtime/checkpoint.hh"
#include "sim/statevector.hh"

namespace qsa::locate
{

namespace
{

/** Breakpoint label terminating a mirror-probe program. */
const std::string kProbeLabel = "qsa_locate_probe";

/**
 * Breakpoint label between a Resimulate mirror probe's suspect prefix
 * and its adjoint unwind (the direct-marginal half of a dual probe).
 */
const std::string kProbePreLabel = "qsa_locate_probe_pre";

/**
 * Markers an adaptive mirror probe carries in its suspect prefix, at
 * the search's passing floor, at the boundary the search probes next
 * if this probe fails (searchMidpoint) and at the probed boundary: the
 * positions later probes resume from through the search's
 * runtime::CheckpointStore.
 */
const std::string kFloorLabel = "qsa_locate_floor";
const std::string kMidpointLabel = "qsa_locate_midpoint";
const std::string kBoundaryMarkLabel = "qsa_locate_boundary";

/** Boundary-breakpoint prefix for predicate probes. */
const std::string kBoundaryPrefix = "qsa_locate_b";

/**
 * @{ @name Width gates
 * The widest programs (in qubits) each probe family accepts
 * (makeProber checks them).
 */

/**
 * Swap-test probes. The gate was set by the 2n+1-qubit comparator
 * program the probes once simulated (2^23 amplitudes, 128 MiB, per
 * in-flight trial at n = 11). A paired probe holds two 2^n states per
 * path instead (SwapProber) and could go wider, but the gate stays at
 * 11: Auto's escalation is skipped past it, so moving it would change
 * which programs Auto escalates on and which swap searches are
 * refused.
 */
constexpr unsigned kSwapQubitGate = 11;

/** Segment-mirror probes assert on the full qubit space. */
constexpr unsigned kMirrorQubitGate = 24;

/** Resimulate segment-mirror probes also hold a full-space mixture
 *  distribution per segment start. */
constexpr unsigned kResimMirrorQubitGate = 16;

/** @} */

/**
 * Seed salt separating swap-test probe streams from mirror probe
 * streams at the same boundary (an Auto search runs both).
 */
constexpr std::uint64_t kSwapSeedSalt = 0x5caff07dba5e11e5ULL;

/**
 * Per-frame seed salt for rotated-marginal probes (each frame's
 * ensemble is an independent stream at the same boundary).
 */
std::uint64_t
frameSeedSalt(Frame frame)
{
    return 0x0f7a7edba5e5ULL * (static_cast<std::uint64_t>(frame) + 1);
}

/** Probeable instruction: unitary gate or a no-op marker. */
bool
probeable(const circuit::Instruction &inst)
{
    if (!inst.condLabel.empty())
        return false;
    return circuit::gateKindInvertible(inst.kind) ||
           inst.kind == circuit::GateKind::Breakpoint;
}

/**
 * Instruction a Resimulate-mode mirror segment can span: anything
 * whose adjoint exists, conditioned or not (a conditioned gate
 * inverts under its own condition — exact within a measure-free
 * segment), plus inert markers. Measure and PrepZ terminate segments.
 */
bool
segmentSpans(const circuit::Instruction &inst)
{
    return circuit::gateKindInvertible(inst.kind) ||
           inst.kind == circuit::GateKind::Breakpoint;
}

/**
 * Structural equality of the non-invertible instructions mirror
 * probes must cross in Resimulate mode: a measure/reset boundary is
 * crossable only when both programs perform the identical operation
 * there (same kind, qubits, label, and classical condition), so the
 * suspect prefix's recorded outcomes are drawn from the same
 * measurements the reference's conditioned gates refer to.
 */
bool
alignedNonInvertible(const circuit::Instruction &a,
                     const circuit::Instruction &b)
{
    return a.kind == b.kind && a.targets == b.targets &&
           a.controls == b.controls && a.label == b.label &&
           a.bit == b.bit && a.condLabel == b.condLabel &&
           a.condValue == b.condValue;
}

/**
 * The boundary an adaptive search probes next inside its bracket
 * (lo, hi): runSearch's bisection step, and so also where a mirror
 * probe at `hi` above the floor `lo` leaves a checkpoint for the next
 * probe, should this one fail.
 */
std::size_t
searchMidpoint(std::size_t lo, std::size_t hi)
{
    return lo + (hi - lo) / 2;
}

/** Per-boundary probe seed (escalation keeps the boundary's stream). */
std::uint64_t
seedFor(std::uint64_t master, std::size_t boundary)
{
    return master + 0x9e3779b97f4a7c15ULL * (boundary + 1);
}

assertions::CheckConfig
baseConfig(const LocateConfig &cfg)
{
    assertions::CheckConfig cc;
    cc.ensembleSize = cfg.ensembleSize;
    cc.mode = cfg.mode;
    cc.seed = cfg.seed;
    cc.numThreads = cfg.numThreads;
    return cc;
}

/**
 * A probe's checker, built under its own trace span: the checker
 * takes the probe program (moved in when the caller passes a fresh
 * one) and sets up its ensemble engine under `options`.
 */
std::shared_ptr<assertions::AssertionChecker>
probeChecker(circuit::Circuit program, const assertions::CheckConfig &cc,
             runtime::EngineOptions options = {})
{
    QSA_OBS_SPAN(span, "locate.probe.checker");
    return std::make_shared<assertions::AssertionChecker>(
        std::move(program), cc, std::move(options));
}

/** The suspect with a breakpoint at every boundary, under the
 *  probe-construction span. */
circuit::Circuit
instrumentBoundaries(const circuit::Circuit &suspect)
{
    QSA_OBS_SPAN(span, "locate.probe.build");
    return suspect.withBoundaryBreakpoints(kBoundaryPrefix);
}

/**
 * One checker call of a probe: a checker and the specs it checks
 * together. A dual mirror probe's two breakpoints share one call, so
 * one path walk reads both out (a tap, runtime/ensemble.hh).
 */
struct Check
{
    /** The probe's own checker, or the one its prober shares across
     *  probes (the predicate family's instrumented suspect). */
    std::shared_ptr<assertions::AssertionChecker> checker;
    std::vector<assertions::AssertionSpec> specs;
};

/**
 * Reference oracles by boundary. Each derivation is held for every
 * boundary it recorded, and an entry is never replaced: an adaptive
 * search derives what it probes on first use, and a scan primes its
 * whole boundary list in one pass (Prober::prime). Search-thread
 * only: probe workers never touch it.
 */
template <typename Oracle>
class OracleMemo
{
  public:
    /** The oracle holding `boundary`, or null. */
    const Oracle *
    find(std::size_t boundary) const
    {
        const auto it = held.find(boundary);
        return it == held.end() ? nullptr : it->second.get();
    }

    /** Hold `oracle`, derived over the non-empty `boundaries`, and
     *  return it. */
    const Oracle &
    hold(const std::vector<std::size_t> &boundaries,
         std::shared_ptr<const Oracle> oracle)
    {
        for (const std::size_t b : boundaries)
            held.emplace(b, oracle);
        return *oracle;
    }

  private:
    std::map<std::size_t, std::shared_ptr<const Oracle>> held;
};

/** The oracle derivation knobs of a locate config (predicates.hh). */
OracleOptions
oracleOptionsFor(const LocateConfig &cfg)
{
    OracleOptions opts;
    opts.mode = cfg.oracleMode;
    if (cfg.oracleTrials != 0)
        opts.sampleTrials = cfg.oracleTrials;
    return opts;
}

/**
 * Boundaries per LinearScan chunk: a scan holds one chunk's probe
 * programs and plan states (a cached 2^n prefix state per probe) at a
 * time.
 */
constexpr std::size_t kScanChunk = 64;

/**
 * Probeable range shared by the marginal-style families (predicate,
 * rotated, swap): under final-state sampling one sampled final state
 * cannot represent an outcome mixture, so the range clamps at the
 * first measurement or classically-conditioned instruction of either
 * program; Resimulate mode needs no clamp at all.
 */
std::size_t
clampedCommonBoundary(const circuit::Circuit &suspect,
                      const circuit::Circuit &reference, bool resim)
{
    const auto &si = suspect.instructions();
    const auto &ri = reference.instructions();
    const std::size_t common = std::min(si.size(), ri.size());
    if (resim)
        return common;
    for (std::size_t i = 0; i < common; ++i) {
        if (si[i].kind == circuit::GateKind::Measure ||
            ri[i].kind == circuit::GateKind::Measure ||
            !si[i].condLabel.empty() || !ri[i].condLabel.empty())
            return i;
    }
    return common;
}

/** Length of the PrepZ prologue both programs share. */
std::size_t
commonPrologue(const circuit::Circuit &suspect,
               const circuit::Circuit &reference)
{
    const auto &si = suspect.instructions();
    const auto &ri = reference.instructions();
    const std::size_t common = std::min(si.size(), ri.size());
    std::size_t k = 0;
    while (k < common && si[k].kind == circuit::GateKind::PrepZ &&
           ri[k].kind == circuit::GateKind::PrepZ)
        ++k;
    return k;
}

/**
 * Probeable range of the mirror family: past the common PrepZ
 * prologue, boundaries the adjoint of the reference can unwind from.
 * Under final-state sampling that ends at the first non-invertible
 * or conditioned instruction. Resimulate probes cross measures and
 * resets as long as both programs perform the identical operation
 * there; structural divergence ends the mirrorable range (the
 * bracket still contains it: the last segment's probes fail first).
 */
std::size_t
mirrorRange(const circuit::Circuit &suspect,
            const circuit::Circuit &reference, bool resim)
{
    const auto &si = suspect.instructions();
    const auto &ri = reference.instructions();
    const std::size_t common = std::min(si.size(), ri.size());
    for (std::size_t i = commonPrologue(suspect, reference); i < common;
         ++i) {
        if (resim) {
            if (segmentSpans(si[i]) && segmentSpans(ri[i]))
                continue;
            if (alignedNonInvertible(si[i], ri[i]))
                continue;
        } else if (probeable(si[i]) && probeable(ri[i])) {
            continue;
        }
        return i;
    }
    return common;
}

/**
 * Holm-Bonferroni over a scanned probe family, with standard
 * reject-to-fail semantics. Entangled probes stay at per-probe alpha
 * — their *pass* is the rejection, so a step-down correction would
 * make a correct entangled boundary harder to pass and could bracket
 * defect-free code.
 */
void
holmFamily(std::vector<assertions::AssertionOutcome> &outcomes)
{
    std::vector<std::size_t> index;
    std::vector<assertions::AssertionOutcome> family;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (outcomes[i].spec.kind !=
            assertions::AssertionKind::Entangled) {
            index.push_back(i);
            family.push_back(outcomes[i]);
        }
    }
    assertions::applyHolmBonferroni(family);
    for (std::size_t j = 0; j < index.size(); ++j)
        outcomes[index[j]] = family[j];
}

/**
 * One probe family: what it checks at a boundary (checks) and how the
 * outcomes become the boundary's record (fold). runSearch drives both
 * strategies through the two: an adaptive probe runs its checks under
 * an escalation policy, a scan runs every boundary's checks at the
 * fixed exploratory ensemble.
 */
class Prober
{
  public:
    Prober(ProbeFamily family, std::size_t hi) : family(family), hi(hi)
    {
    }

    virtual ~Prober() = default;

    /**
     * The checks of the probe at `boundary`, in fold order. An
     * adaptive search passes its passing lower bound as `floor` (every
     * later probe of the search lies at or above it) and the probe
     * splits its alpha across its specs (Bonferroni). A scan passes no
     * floor: its probes run concurrently, and under Holm-Bonferroni
     * each spec keeps the full alpha for holmFamily's step-down.
     */
    virtual std::vector<Check> checks(std::size_t boundary,
                                      const std::size_t *floor) = 0;

    /**
     * Derive, in one pass, the reference predicates a scan of
     * `boundaries` reads. Families whose adaptive probes derive their
     * oracle per probed boundary override it.
     */
    virtual void prime(const std::vector<std::size_t> & /*boundaries*/) {}

    /**
     * Fold a probe's outcomes, in check order, into its record: the
     * probe fails when any component fails, and reports the smallest
     * component p-value, the failing component's kind and the summed
     * ensemble cost. A dual mirror probe ([pre-marginal,
     * segment-unwind]) that rejected only through the computational
     * pre-marginal while its phase-sensitive unwind passed is flagged
     * phase-ambiguous: the divergence was transported here, not
     * necessarily born here.
     */
    ProbeRecord
    fold(std::size_t boundary,
         const std::vector<assertions::AssertionOutcome> &outcomes) const
    {
        ProbeRecord rec;
        rec.boundary = boundary;
        rec.family = family;
        rec.kind = outcomes.back().spec.kind;
        for (const auto &out : outcomes) {
            rec.ensembleSize += out.ensembleSize;
            rec.pValue = std::min(rec.pValue, out.pValue);
            if (!out.passed && !rec.failed) {
                rec.failed = true;
                rec.kind = out.spec.kind;
            }
        }
        if (family == ProbeFamily::SegmentMirror && outcomes.size() == 2) {
            rec.phaseAmbiguous = rec.failed && !outcomes[0].passed &&
                                 outcomes[1].passed;
        }
        return rec;
    }

    /** The family every record of this prober carries. */
    const ProbeFamily family;

    /** Largest probeable boundary (at least 1). */
    const std::size_t hi;
};

/**
 * Mirror probes: suspect prefix followed by the adjoint of the
 * reference prefix, asserted classically equal to the prep state.
 *
 * Where the unwind would land on the common PrepZ prologue (every
 * SampleFinalState probe, and every Resimulate probe whose segment
 * starts there), the mirror returns with probability
 * F = |<psi_ref(b)|psi_sus(b)>|^2, so the probe is *paired*: its
 * checker runs the suspect prefix alone and is paired with the
 * reference (runtime::Pairing::Mirror), which reads one bit per trial
 * through a two-bin CdfSampler over [F, 1 - F] from the two head
 * states, and the spec is a classical point mass at 0 on that bit.
 * Trial m maps the uniform the unwind probe mapped (the reference's
 * resets draw nothing), so where the prologue value is 0 every trial
 * is the unwind probe's. No unwind is simulated and no oracle is
 * derived for it: through the search's checkpoint store, the
 * reference head resumes from the suspect's stored prefixes (below
 * the defect the two share keys) or from its own, stored at the
 * probe's marks.
 *
 * In Resimulate mode the adjoint covers the mirror *segment* — back
 * to the last measure/reset before the boundary — and the assertion
 * is the oracle's full-space mixture predicate at the segment start
 * (see locate.hh). A segment unwind alone has two blind spots once
 * the segment start is a measurement mixture rather than the
 * classical prologue: divergence whose only trace at the segment
 * start is a relative phase (a mixture marginal cannot see it the
 * way a point-mass fidelity check can), and divergence from an
 * *earlier* segment that the unwind of common instructions cancels.
 * Probes past the first measurement are therefore *dual*: the probe
 * program carries one breakpoint before the unwind asserting the
 * oracle's mixture predicate at the boundary itself (divergence that
 * reached any computational marginal) and one after the unwind
 * asserting the segment-start predicate (phase-sensitive within the
 * segment), each at alpha/2 so the pair keeps the probe's error
 * budget. Boundaries whose unwind reaches the classical prologue are
 * paired — in particular, on a measurement-free program the
 * Resimulate probe sequence is spec-for-spec the same as the default
 * mode's.
 *
 * Every probe runs on its own checker, so an adaptive probe's
 * escalation rounds reuse the cached prefix statevectors. Its
 * assertions go to the checker in one call (one Check), so a dual
 * probe's two breakpoints, which share the probe's seed, are read out
 * of one path walk per round: the pre-unwind one as a tap of the walk
 * to the probe's end. An adaptive probe's suspect prefix also carries
 * checkpoint markers at the search floor, at the midpoint the search
 * probes next if this probe fails, and at the boundary
 * (runtime/checkpoint.hh); a paired probe's reference ends at the
 * boundary whatever markers its program carries.
 */
class MirrorProber : public Prober
{
  public:
    MirrorProber(const circuit::Circuit &suspect,
                 const circuit::Circuit &reference,
                 const LocateConfig &cfg, std::size_t hi)
        : Prober(ProbeFamily::SegmentMirror, hi), suspect(suspect),
          reference(reference), cfg(cfg),
          resim(cfg.mode == assertions::EnsembleMode::Resimulate),
          prologue(commonPrologue(suspect, reference)),
          bitReg("qsa_mirror_bit", {suspect.numQubits()})
    {
        std::vector<unsigned> qubits(suspect.numQubits());
        for (unsigned q = 0; q < suspect.numQubits(); ++q)
            qubits[q] = q;
        allReg = circuit::QubitRegister("qsa_locate_all", qubits);

        if (resim) {
            // Mirror segment starts: segStart[k] is the largest
            // boundary <= k with only invertible instructions in
            // between, i.e. where the adjoint unwind of the reference
            // segment lands.
            const auto &ri = reference.instructions();
            segStart.resize(hi + 1);
            segStart[0] = 0;
            for (std::size_t k = 1; k <= hi; ++k) {
                segStart[k] =
                    segmentSpans(ri[k - 1]) ? segStart[k - 1] : k;
            }
        }
    }

    std::vector<Check>
    checks(std::size_t boundary, const std::size_t *floor) override
    {
        // One checker per probe program: escalated rounds then reuse
        // its cached prefix statevector and only resample shots, and
        // the boundary-keyed seed makes each round extend the earlier
        // ensemble (sequential testing, deterministic). An adaptive
        // search's checkpoint store carries prefix states from probe
        // to probe: the floor, midpoint and boundary markers are
        // where later probes resume. A scan's probes run concurrently
        // and share no store, which would make the simulated work
        // depend on which probe finished first.
        auto cc = baseConfig(cfg);
        cc.seed = seedFor(cfg.seed, boundary);
        const bool adaptive = floor != nullptr;
        const std::size_t lo = adaptive ? std::min(*floor, boundary) : 0;
        runtime::EngineOptions options;
        if (adaptive)
            options.checkpoints = &checkpoints;
        if (paired(boundary)) {
            options.reference = &reference;
            options.pairing = runtime::Pairing::Mirror;
        }
        std::vector<Check> out;
        out.push_back(
            {probeChecker(buildProbe(boundary, adaptive ? &lo : nullptr),
                          cc, std::move(options)),
             specsFor(boundary, lo, !adaptive && cfg.holmBonferroni)});
        return out;
    }

    void
    prime(const std::vector<std::size_t> &boundaries) override
    {
        // Every boundary up to the scan's last in one pass: the scan's
        // own, and the segment starts their unwinds land on. A scan
        // whose probes are all paired reads no oracle.
        const auto unpaired = [&](std::size_t b) { return !paired(b); };
        if (std::none_of(boundaries.begin(), boundaries.end(), unpaired))
            return;
        std::vector<std::size_t> upto(boundaries.back() + 1);
        std::iota(upto.begin(), upto.end(), 0);
        derive(upto, nullptr);
    }

    /**
     * True when some probeable boundary unwinds onto a measurement
     * mixture rather than the classical prologue: there the mirror
     * family's witnesses are computational marginals only, so an
     * all-passing run cannot certify the absence of phase divergence
     * (ProbeFamily::Auto escalates on this).
     */
    bool
    hasMixtureSegments() const
    {
        for (std::size_t k = 1; k <= hi; ++k) {
            if (dualProbe(k))
                return true;
        }
        return false;
    }

  private:
    const circuit::Circuit &suspect;
    const circuit::Circuit &reference;
    LocateConfig cfg;
    bool resim = false;
    std::size_t prologue = 0;
    circuit::QubitRegister allReg;

    /** The one bit a paired probe reads, no qubit of the program. */
    circuit::QubitRegister bitReg;
    std::vector<std::size_t> segStart;
    OracleMemo<PredicateOracle> oracles;

    /** Prefix states shared by this search's single probes. */
    runtime::CheckpointStore checkpoints;

    /** The reference's exact mixture kept at the search floor, where
     *  a dual probe's own derivation resumes. */
    BranchMixture floorMixture;

    /**
     * The oracle holding the full-space predicate at `boundary` (a
     * scan primed every boundary it reads). Segment starts, where
     * unwinds land, are derived together in one pass. A dual probe's
     * own boundary is derived alone, resumed from the reference's
     * mixture kept at min(floor, boundary): one extra
     * measurement-resolved pass, cheap next to the probe's ensemble,
     * so an adaptive search holds O(probed boundaries * 2^n), not
     * O(n * 2^n).
     */
    const PredicateOracle &
    oracleAt(std::size_t boundary, std::size_t floor)
    {
        if (const PredicateOracle *held = oracles.find(boundary))
            return *held;
        if (segStart[boundary] == boundary) {
            std::vector<std::size_t> starts;
            std::unique_copy(segStart.begin(), segStart.end(),
                             std::back_inserter(starts));
            return derive(starts, nullptr);
        }
        floorMixture.target = std::min(floor, boundary);
        return derive({boundary}, &floorMixture);
    }

    const PredicateOracle &
    derive(const std::vector<std::size_t> &boundaries,
           BranchMixture *resume)
    {
        return oracles.hold(boundaries,
                            std::make_shared<const PredicateOracle>(
                                reference, allReg, cfg.seed, boundaries,
                                oracleOptionsFor(cfg), resume));
    }

    /**
     * True when the probe is paired with the reference: its unwind
     * would land on the classical prologue (every SampleFinalState
     * probe), so the chance that it returns is the fidelity of the
     * two prefix states, and the probe simulates no unwind.
     */
    bool
    paired(std::size_t boundary) const
    {
        return !resim || segStart[boundary] <= prologue;
    }

    /**
     * True when the boundary needs the dual (marginal + unwind)
     * probe: its unwind lands on a measurement mixture, not the
     * classical prologue, and is non-trivial.
     */
    bool
    dualProbe(std::size_t boundary) const
    {
        return !paired(boundary) && segStart[boundary] < boundary;
    }

    /**
     * The probe program at `boundary`, assembled in one pass that
     * copies each instruction once: the suspect prefix, then, for a
     * dual probe, the reversed adjoint of the reference segment with
     * its markers left out. With a `floor`, the suspect prefix
     * carries the checkpoint markers at the floor, at the midpoint the
     * search probes next if this probe fails (when it lies above the
     * floor) and at the boundary.
     */
    circuit::Circuit
    buildProbe(std::size_t boundary, const std::size_t *floor) const
    {
        QSA_OBS_SPAN(span, "locate.probe.build");
        circuit::Circuit probe =
            suspect.sliceRange(0, floor != nullptr ? *floor : boundary);
        if (floor != nullptr) {
            probe.breakpoint(kFloorLabel);
            const std::size_t mid = searchMidpoint(*floor, boundary);
            if (mid > *floor) {
                probe.appendRange(suspect, *floor, mid);
                probe.breakpoint(kMidpointLabel);
            }
            probe.appendRange(suspect, mid, boundary);
            probe.breakpoint(kBoundaryMarkLabel);
        }
        if (dualProbe(boundary)) {
            probe.breakpoint(kProbePreLabel);
            // The segment is measure-free by construction, so a
            // conditioned gate's record cannot change inside it and
            // conditioned inversion is exact.
            circuit::RangeCopy unwind;
            unwind.adjoint = true;
            unwind.invertConditioned = true;
            unwind.skipMarkers = true;
            probe.appendRange(reference, segStart[boundary], boundary,
                              unwind);
        }
        probe.breakpoint(kProbeLabel);
        return probe;
    }

    /**
     * The probe's component assertions. Adaptive probes split their
     * alpha across a dual probe's two components (Bonferroni); a
     * `family_wise` scan keeps per-spec alpha and lets its
     * Holm-Bonferroni step-down control the whole family instead.
     */
    std::vector<assertions::AssertionSpec>
    specsFor(std::size_t boundary, std::size_t floor, bool family_wise)
    {
        std::vector<assertions::AssertionSpec> specs;
        if (paired(boundary)) {
            // The bit reads 0 when the mirror returns to the prologue:
            // under the null (equal prefix states) on every trial.
            assertions::AssertionSpec spec;
            spec.kind = assertions::AssertionKind::Classical;
            spec.breakpoint = kProbeLabel;
            spec.regA = bitReg;
            spec.expectedValue = 0;
            spec.alpha = cfg.alpha;
            spec.name = "mirror@" + std::to_string(boundary);
            specs.push_back(std::move(spec));
            return specs;
        }

        const PredicateOracle &start = oracleAt(segStart[boundary], floor);
        const bool dual = dualProbe(boundary);
        const double alpha =
            dual && !family_wise ? cfg.alpha / 2.0 : cfg.alpha;
        if (dual) {
            // Direct mixture predicate at the boundary itself:
            // divergence that reached any computational marginal,
            // including divergence from earlier segments the unwind
            // would cancel.
            assertions::AssertionSpec pre =
                oracleAt(boundary, floor)
                    .specAt(boundary, kProbePreLabel, alpha);
            pre.name = "mirror-marginal@" + std::to_string(boundary);
            specs.push_back(std::move(pre));
        }
        // The unwound state must read as the reference's mixture at
        // the segment start.
        assertions::AssertionSpec post =
            start.specAt(segStart[boundary], kProbeLabel, alpha);
        post.name = "mirror@" + std::to_string(boundary);
        specs.push_back(std::move(post));
        return specs;
    }
};

/**
 * Predicate probes: the suspect program instrumented at every
 * boundary, one persistent checker (shared plan caches), and the
 * reference oracle's marginal predicate — or a scope-inherited
 * entangled/product kind — per boundary. A scan's chunks share the
 * checker too; runSearch clears its plan states between chunks.
 */
class PredicateProber : public Prober
{
  public:
    /**
     * Under final-state sampling predicate probes survive mid-program
     * resets (the reference oracle tracks them exactly) but clamp per
     * clampedCommonBoundary; in Resimulate mode every trial
     * re-simulates the truncated prefix (measurements included) and
     * the oracle's predicate is the exact mixture marginal, so every
     * boundary is probeable.
     */
    PredicateProber(const circuit::Circuit &suspect,
                    const circuit::Circuit &reference,
                    const LocateConfig &cfg, std::size_t hi,
                    const circuit::QubitRegister &reg_a,
                    const circuit::QubitRegister *reg_b)
        : Prober(ProbeFamily::MixtureMarginal, hi), cfg(cfg),
          regA(reg_a),
          oracle(reference, reg_a, cfg.seed, oracleOptionsFor(cfg)),
          checker(probeChecker(instrumentBoundaries(suspect),
                               baseConfig(cfg)))
    {
        if (reg_b != nullptr) {
            regB = *reg_b;
            for (const auto &scoped : scopeDerivedPredicates(suspect))
                scopeKinds[scoped.boundary] = scoped.kind;
        }
    }

    std::vector<Check>
    checks(std::size_t boundary, const std::size_t * /*floor*/) override
    {
        std::vector<Check> out;
        out.push_back({checker, {specFor(boundary)}});
        return out;
    }

  private:
    LocateConfig cfg;
    circuit::QubitRegister regA;
    circuit::QubitRegister regB;
    PredicateOracle oracle;
    std::shared_ptr<assertions::AssertionChecker> checker;
    std::map<std::size_t, assertions::AssertionKind> scopeKinds;

    assertions::AssertionSpec
    specFor(std::size_t boundary) const
    {
        const std::string label =
            kBoundaryPrefix + std::to_string(boundary);
        const auto scoped = scopeKinds.find(boundary);
        if (scoped != scopeKinds.end()) {
            assertions::AssertionSpec spec;
            spec.kind = scoped->second;
            spec.breakpoint = label;
            spec.regA = regA;
            spec.regB = regB;
            spec.alpha = cfg.alpha;
            spec.name = "scope@" + std::to_string(boundary);
            return spec;
        }
        return oracle.specAt(boundary, label, cfg.alpha);
    }
};

/**
 * Swap-test probes: the probe at boundary b is the swap-test
 * comparator of the suspect prefix [0, b) and the reference prefix
 * [0, b) on the probed register (the full space without one): an
 * ancilla in |+>, a controlled SWAP of each register qubit between
 * the two copies, H, and a read of the ancilla. For pure pair states
 * the ancilla reads 0 with probability (1 + |<psi|phi>|^2) / 2; over
 * a register it measures the reduced-state overlap, and averaging
 * over independently sampled suspect and reference measurement
 * branches makes the unconditional ancilla distribution
 * Bernoulli((1 + tr(rho sigma)) / 2) for the two reduced mixtures.
 * The OverlapOracle supplies the null value (sigma = rho): a
 * classical point mass at 0 wherever the reference's reduced state
 * is pure — there a single observed 1 refutes the null outright — a
 * two-point distribution otherwise.
 *
 * No probe simulates the comparator. Its checker runs the suspect
 * prefix and is paired with the reference (runtime::EngineOptions::
 * reference): each trial walks the suspect prefix, then, from the
 * leaf it reached, the reference prefix, and reads the comparator's
 * bit from the two n-qubit leaf states' overlap, drawing exactly
 * what a trial of the 2n+1-qubit comparator program would draw
 * (runtime/ensemble.hh).
 *
 * Witness soundness: common unitary evolution of the register
 * preserves tr(rho sigma) exactly, so once a defective instruction
 * lowers the overlap the deficit persists at every later boundary of
 * the same measure-free segment — the monotone witness the adaptive
 * bracket needs, including for divergence invisible to every
 * computational marginal (relative phases, conditioned frame
 * errors). Across aligned measurements the deficit generally
 * survives (both mixtures pass through the same dephasing channel)
 * but is no longer invariant; the confirmation probes at the
 * converged bracket guard the verdict there, as they do for the
 * mirror family.
 *
 * Register scoping is the sensitivity lever past measurements: a
 * full-space comparator's overlap signal is scaled by the squared
 * branch weights once measured qubits make the branches nearly
 * orthogonal, while a register that excludes them keeps a
 * high-purity null (see OverlapOracle). A register Scope with
 * ProbeFamily::SwapTest/Auto is therefore the sharp tool; the
 * full-space form backs the full scope's families on measure-light
 * programs.
 *
 * Cost: each probe walks both prefixes, so the family is gated to
 * small programs (kSwapQubitGate) and is the *escalation* family,
 * not the default.
 */
class SwapProber : public Prober
{
  public:
    /**
     * @param reg comparator register (nullptr = the full space)
     *
     * In Resimulate mode each trial runs both prefixes' measurements,
     * so even structurally diverging programs stay comparable past
     * them (the range is clampedCommonBoundary's).
     */
    SwapProber(const circuit::Circuit &suspect,
               const circuit::Circuit &reference,
               const LocateConfig &cfg, std::size_t hi,
               const circuit::QubitRegister *reg)
        : Prober(ProbeFamily::SwapTest, hi), suspect(suspect),
          reference(reference), cfg(cfg),
          ancReg("qsa_swap_anc", {suspect.numQubits()})
    {
        // Empty selects the full space: the engine's fidelity and the
        // oracle's pairwise-fidelity purity (no 2^n x 2^n density
        // matrix).
        if (reg != nullptr)
            compared = reg->qubits();
    }

    std::vector<Check>
    checks(std::size_t boundary, const std::size_t * /*floor*/) override
    {
        std::vector<Check> out;
        out.push_back({probeChecker(buildProbe(boundary),
                                    probeConfig(boundary),
                                    {nullptr, &reference, compared}),
                       {specFor(boundary)}});
        return out;
    }

    void
    prime(const std::vector<std::size_t> &boundaries) override
    {
        derive(boundaries);
    }

  private:
    const circuit::Circuit &suspect;
    const circuit::Circuit &reference;
    LocateConfig cfg;

    /** The comparator's ancilla: the one bit a paired engine reads,
     *  no qubit of the probe program. */
    circuit::QubitRegister ancReg;

    /** The compared register's qubits; empty = the full space. */
    std::vector<unsigned> compared;
    OracleMemo<OverlapOracle> purities;

    const OverlapOracle &
    derive(const std::vector<std::size_t> &boundaries)
    {
        return purities.hold(boundaries,
                             std::make_shared<const OverlapOracle>(
                                 reference, compared, boundaries));
    }

    /** The reference's purity at `boundary`; an adaptive probe's
     *  boundary is derived alone (one measurement-resolved pass,
     *  cheap next to the probe's ensemble). */
    double
    purityAt(std::size_t boundary)
    {
        const OverlapOracle *held = purities.find(boundary);
        return (held != nullptr ? *held : derive({boundary}))
            .purityAt(boundary);
    }

    /** The boundary's salted stream. */
    assertions::CheckConfig
    probeConfig(std::size_t boundary) const
    {
        auto cc = baseConfig(cfg);
        cc.seed = seedFor(cfg.seed ^ kSwapSeedSalt, boundary);
        return cc;
    }

    /** The probe program at `boundary`: the suspect prefix, copied
     *  once, ending at the comparator's readout. The paired engine
     *  walks the reference prefix in place. */
    circuit::Circuit
    buildProbe(std::size_t boundary) const
    {
        QSA_OBS_SPAN(span, "locate.probe.build");
        circuit::Circuit probe(suspect.numQubits());
        probe.appendRange(suspect, 0, boundary);
        probe.breakpoint(kProbeLabel);
        return probe;
    }

    assertions::AssertionSpec
    specFor(std::size_t boundary)
    {
        const double p0 = 0.5 * (1.0 + purityAt(boundary));
        assertions::AssertionSpec spec;
        spec.breakpoint = kProbeLabel;
        spec.regA = ancReg;
        spec.alpha = cfg.alpha;
        spec.name = "swap@" + std::to_string(boundary);
        if (p0 >= 1.0 - 1e-9) {
            // Pure reference state: under the null the comparator
            // never reads 1, so one observed 1 is decisive.
            spec.kind = assertions::AssertionKind::Classical;
            spec.expectedValue = 0;
        } else {
            spec.kind = assertions::AssertionKind::Distribution;
            spec.expectedProbs = {p0, 1.0 - p0};
        }
        return spec;
    }
};

/**
 * Rotated-basis predicate probes: each boundary is adjudicated in
 * the Z, X and Y measurement frames at once. The probe program for
 * (boundary, frame) is the suspect prefix with the frame's
 * basis-change epilogue appended to the probed register, and the
 * assertion is the oracle's frame-transported mixture marginal
 * (PredicateOracle with frames). An adaptive probe Bonferroni-splits
 * its alpha across the three frames; a scan under Holm-Bonferroni
 * keeps per-spec alpha and lets the step-down control the whole
 * 3-per-boundary family. For a one-qubit register the three frames
 * determine the Bloch vector, so any divergence *on the register* is
 * visible the instruction it appears — including pure phase — at
 * three cheap n-qubit probes per boundary, without the swap test's
 * reference walk. The witness is still not monotone (divergence can
 * rotate off the probed register later), so brackets carry the same
 * first-visible caveat as the computational marginal family.
 */
class RotatedProber : public Prober
{
  public:
    RotatedProber(const circuit::Circuit &suspect,
                  const circuit::Circuit &reference,
                  const LocateConfig &cfg, std::size_t hi,
                  const circuit::QubitRegister &reg)
        : Prober(ProbeFamily::RotatedMarginal, hi), cfg(cfg), regA(reg),
          suspect(suspect), reference(reference)
    {
    }

    std::vector<Check>
    checks(std::size_t boundary, const std::size_t *floor) override
    {
        const double alpha = floor == nullptr && cfg.holmBonferroni
                                 ? cfg.alpha
                                 : cfg.alpha / 3.0;
        std::vector<Check> out;
        for (Frame frame : kAllFrames) {
            out.push_back({probeChecker(buildProbe(boundary, frame),
                                        frameConfig(boundary, frame)),
                           {oracleAt(boundary).specAt(
                               boundary, kProbeLabel, alpha, frame)}});
        }
        return out;
    }

    void
    prime(const std::vector<std::size_t> &boundaries) override
    {
        derive(boundaries);
    }

  private:
    LocateConfig cfg;
    circuit::QubitRegister regA;
    const circuit::Circuit &suspect;
    const circuit::Circuit &reference;

    /** Three-frame predicates; escalation and confirmation rounds at
     *  a boundary reuse its entry. */
    OracleMemo<PredicateOracle> oracles;

    const PredicateOracle &
    derive(const std::vector<std::size_t> &boundaries)
    {
        return oracles.hold(boundaries,
                            std::make_shared<const PredicateOracle>(
                                reference, regA, cfg.seed, &boundaries,
                                std::vector<Frame>{Frame::Z, Frame::X,
                                                   Frame::Y},
                                oracleOptionsFor(cfg)));
    }

    /** The oracle at `boundary`; an adaptive probe's boundary is
     *  derived alone (one measurement-resolved pass). */
    const PredicateOracle &
    oracleAt(std::size_t boundary)
    {
        const PredicateOracle *held = oracles.find(boundary);
        return held != nullptr ? *held : derive({boundary});
    }

    /** The frame's own stream at the boundary. */
    assertions::CheckConfig
    frameConfig(std::size_t boundary, Frame frame) const
    {
        auto cc = baseConfig(cfg);
        cc.seed = seedFor(cfg.seed ^ frameSeedSalt(frame), boundary);
        return cc;
    }

    circuit::Circuit
    buildProbe(std::size_t boundary, Frame frame) const
    {
        QSA_OBS_SPAN(span, "locate.probe.build");
        circuit::Circuit probe = suspect.sliceRange(0, boundary);
        appendFrameEpilogue(probe, regA.qubits(), frame);
        probe.breakpoint(kProbeLabel);
        return probe;
    }
};

/** Log one adjudicated probe into the report and the locate counters. */
void
logProbe(LocalizationReport &report, const ProbeRecord &rec)
{
    QSA_OBS_COUNTER("locate.probes", 1);
    QSA_OBS_COUNTER("locate.measurements", rec.ensembleSize);
    if (rec.failed)
        QSA_OBS_COUNTER("locate.probe_failures", 1);
    report.probes.push_back(rec);
    report.totalMeasurements += rec.ensembleSize;
}

/**
 * Run and log one single-boundary probe: its checks under `policy`,
 * then the fold. Every single probe — the search's and an escalation
 * trigger's decisive one — goes through here, so the trace gets one
 * span per probe, annotated with family/boundary/verdict.
 */
ProbeRecord
recordProbe(Prober &prober, std::size_t boundary, std::size_t floor,
            const assertions::EscalationPolicy &policy,
            LocalizationReport &report)
{
    QSA_OBS_SPAN(span, "locate.probe");
    std::vector<assertions::AssertionOutcome> outcomes;
    for (const Check &check : prober.checks(boundary, &floor)) {
        for (auto &out : check.checker->checkEscalated(check.specs, policy))
            outcomes.push_back(std::move(out));
    }
    const ProbeRecord rec = prober.fold(boundary, outcomes);
    span.arg("family", probeFamilyName(rec.family))
        .arg("boundary", rec.boundary)
        .arg("verdict", rec.failed ? "fail" : "pass")
        .arg("p_value", rec.pValue)
        .arg("ensemble", rec.ensembleSize);
    logProbe(report, rec);
    return rec;
}

/**
 * LinearScan: every boundary's checks at the fixed exploratory
 * ensemble (an escalation policy whose initial size is its cap: one
 * round), then Holm-Bonferroni over every outcome when
 * LocateConfig::holmBonferroni is set (mirror, swap and rotated specs
 * are never Entangled, so theirs is plain Holm), then each boundary's
 * fold. Checks are built on this thread in chunks of kScanChunk
 * boundaries and fan out through one runtime::BatchRunner. A probe's
 * own checker goes with its chunk; a checker that probes share (the
 * predicate family's) drops its plan states after each chunk.
 */
std::vector<ProbeRecord>
scan(Prober &prober, const std::vector<std::size_t> &boundaries,
     const LocateConfig &cfg)
{
    prober.prime(boundaries);
    const assertions::EscalationPolicy fixed{
        cfg.ensembleSize, cfg.ensembleSize, cfg.passThreshold};
    runtime::BatchRunner runner(cfg.numThreads);
    std::vector<assertions::AssertionOutcome> outcomes;
    std::vector<std::size_t> counts; // outcomes per boundary
    counts.reserve(boundaries.size());
    for (std::size_t base = 0; base < boundaries.size();
         base += kScanChunk) {
        const std::size_t end =
            std::min(boundaries.size(), base + kScanChunk);
        std::vector<Check> checks;
        for (std::size_t i = base; i < end; ++i) {
            std::size_t specs = 0;
            for (Check &check : prober.checks(boundaries[i], nullptr)) {
                specs += check.specs.size();
                checks.push_back(std::move(check));
            }
            counts.push_back(specs);
        }
        std::vector<std::vector<assertions::AssertionOutcome>> results(
            checks.size());
        runner.forEach(checks.size(), [&](std::size_t j) {
            results[j] =
                checks[j].checker->checkEscalated(checks[j].specs, fixed);
        });
        for (std::size_t j = 0; j < checks.size(); ++j) {
            outcomes.insert(outcomes.end(), results[j].begin(),
                            results[j].end());
            checks[j].checker->clearRuntimeCache();
        }
    }
    if (cfg.holmBonferroni)
        holmFamily(outcomes);
    std::vector<ProbeRecord> records;
    records.reserve(boundaries.size());
    auto cursor = outcomes.begin();
    for (std::size_t i = 0; i < boundaries.size(); ++i) {
        records.push_back(
            prober.fold(boundaries[i], {cursor, cursor + counts[i]}));
        cursor += counts[i];
    }
    return records;
}

/**
 * The search every probe family shares. `pruned_lo` is the
 * static pre-pass' certified-equivalent boundary: every boundary up to
 * it provably passes (the suspect and reference prefixes act
 * identically up to global phase, and every probe statistic is
 * phase-invariant), so the search treats it as a confirmed-passing
 * lower bound and never probes at or below it. A non-zero
 * `failing_top` is a boundary a probe on the escalated ensemble has
 * already failed: the adaptive search takes it as its confirmed-failing
 * upper bound and does not probe it again. (Boundary 0, the empty
 * prefix, passes by construction, so 0 means there is none.)
 */
LocalizationReport
runSearch(Prober &prober, const LocateConfig &cfg,
          std::size_t pruned_lo = 0, std::size_t failing_top = 0)
{
    LocalizationReport report;
    report.decidedBy = prober.family;
    const std::size_t top = prober.hi;
    // The probeable range can end below the certified boundary (e.g.
    // clamped at the first Measure); the certificate still covers the
    // clamped range.
    pruned_lo = std::min(pruned_lo, top);
    report.prunedBoundaries = pruned_lo;
    QSA_OBS_COUNTER("locate.pruned_boundaries", pruned_lo);

    QSA_OBS_COUNTER("locate.searches", 1);
    QSA_OBS_SPAN(search_span, "locate.search");
    search_span
        .arg("strategy", cfg.strategy == Strategy::LinearScan
                             ? "linear-scan"
                             : "adaptive")
        .arg("boundaries", top)
        .arg("pruned", pruned_lo);

    const assertions::EscalationPolicy explore{
        cfg.ensembleSize, cfg.maxEnsembleSize, cfg.passThreshold};
    const assertions::EscalationPolicy confirm{
        cfg.maxEnsembleSize, cfg.maxEnsembleSize, cfg.passThreshold};

    // The bracket's passing lower bound, handed to every probe.
    std::size_t lo = pruned_lo;
    const auto probeOne =
        [&](std::size_t boundary,
            const assertions::EscalationPolicy &policy) {
            return recordProbe(prober, boundary, lo, policy, report);
        };

    if (cfg.strategy == Strategy::LinearScan) {
        std::vector<std::size_t> boundaries;
        boundaries.reserve(top - pruned_lo);
        for (std::size_t k = pruned_lo + 1; k <= top; ++k)
            boundaries.push_back(k);
        if (boundaries.empty())
            return report; // whole range certified equivalent
        std::size_t first_failing = 0;
        QSA_OBS_SPAN(scan_span, "locate.scan");
        scan_span.arg("boundaries", boundaries.size());
        for (const ProbeRecord &rec : scan(prober, boundaries, cfg)) {
            logProbe(report, rec);
            if (rec.failed && first_failing == 0)
                first_failing = rec.boundary;
        }
        if (first_failing == 0)
            return report; // no boundary rejected: nothing to bracket
        report.bugFound = true;
        report.firstFailing = first_failing;
        report.lastPassing = first_failing - 1;
        return report;
    }

    // Adaptive binary search. Boundary `pruned_lo` (at least the
    // empty prefix, possibly a statically certified-equivalent
    // prefix) passes by construction; the end boundary must fail for
    // there to be anything to localize.
    std::size_t hi = failing_top > 0 ? std::min(failing_top, top) : top;
    if (pruned_lo >= hi)
        return report; // whole range certified equivalent
    if (failing_top == 0 && !probeOne(top, explore).failed)
        return report;

    std::vector<char> passed(top + 1, 0);
    passed[pruned_lo] = 1;
    std::set<std::size_t> failedSet{hi};
    // Escalated-ensemble verdicts already delivered (at most one
    // confirmation per boundary, so the outer loop is bounded).
    std::vector<char> confirmedPass(top + 1, 0);
    std::vector<char> confirmedFail(top + 1, 0);
    confirmedPass[pruned_lo] = 1;
    confirmedFail[hi] = failing_top > 0;
    bool located = true;
    while (true) {
        while (hi - lo > 1) {
            const std::size_t mid = searchMidpoint(lo, hi);
            if (probeOne(mid, explore).failed) {
                hi = mid;
                failedSet.insert(mid);
            } else {
                lo = mid;
                passed[mid] = 1;
            }
        }
        // Re-adjudicate both sides of the converged bracket on the
        // escalated ensemble: an exploratory pass can be a miss and
        // an exploratory failure a false alarm.
        if (!confirmedPass[lo]) {
            if (probeOne(lo, confirm).failed) {
                // Miss exposed: resume below the demoted boundary.
                passed[lo] = 0;
                failedSet.insert(lo);
                confirmedFail[lo] = 1;
                hi = lo;
                lo = pruned_lo;
                for (std::size_t b = pruned_lo + 1; b < hi; ++b) {
                    if (passed[b])
                        lo = b;
                }
                continue;
            }
            confirmedPass[lo] = 1;
        }
        if (!confirmedFail[hi]) {
            if (!probeOne(hi, confirm).failed) {
                // False alarm exposed: resume above it, at the next
                // boundary still believed failing.
                failedSet.erase(hi);
                passed[hi] = 1;
                confirmedPass[hi] = 1;
                lo = hi;
                const auto next = failedSet.upper_bound(hi);
                if (next == failedSet.end()) {
                    located = false; // nothing failing survives
                    break;
                }
                hi = *next;
                continue;
            }
            confirmedFail[hi] = 1;
        }
        break;
    }
    if (!located)
        return report;

    report.bugFound = true;
    report.lastPassing = lo;
    report.firstFailing = hi;
    return report;
}

/**
 * A run whose probes all passed can still hide a defect in the
 * trailing instructions one program has and the other lacks: every
 * probe compares index-aligned prefixes, so a pure length mismatch is
 * invisible to them. When the probeable range reached the full common
 * length, blame the suffix.
 */
void
resolveTailDivergence(LocalizationReport &report,
                      const circuit::Circuit &suspect,
                      const circuit::Circuit &reference,
                      std::size_t probed_hi)
{
    const std::size_t common =
        std::min(suspect.size(), reference.size());
    if (report.bugFound || suspect.size() == reference.size() ||
        probed_hi != common)
        return;

    report.bugFound = true;
    report.lastPassing = common;
    if (suspect.size() > reference.size()) {
        // The extra trailing instructions are the defect.
        report.firstFailing = suspect.size();
    } else {
        // The suspect ends early; there is no instruction to blame,
        // so the bracket names the one-past-the-end position where
        // the missing code belongs (keeping the firstFailing ==
        // lastPassing + 1 bracket shape).
        report.firstFailing = common + 1;
        report.suspectGates =
            "(program ends " +
            std::to_string(reference.size() - suspect.size()) +
            " instructions before the reference)";
    }
}

/** Render the suspect instruction range into the report. */
void
annotate(LocalizationReport &report, const circuit::Circuit &suspect)
{
    if (!report.bugFound || !report.suspectGates.empty())
        return;
    std::ostringstream os;
    const auto &insts = suspect.instructions();
    for (std::size_t i = report.suspectBegin();
         i < report.suspectEnd() && i < insts.size(); ++i) {
        if (os.tellp() > 0)
            os << "; ";
        const auto &inst = insts[i];
        os << std::string(inst.controls.size(), 'c')
           << circuit::gateKindName(inst.kind);
        os << "(";
        for (std::size_t t = 0; t < inst.targets.size(); ++t)
            os << (t ? "," : "") << inst.targets[t];
        os << ")";
    }
    report.suspectGates = os.str();
}

/**
 * Was the (mirror-family) verdict phase-ambiguous? A found bracket is
 * ambiguous when the deciding probe at firstFailing rejected only
 * through its computational-marginal component (ProbeRecord::
 * phaseAmbiguous); an all-passing run is ambiguous whenever the
 * program has post-measurement segments at all — there the mirror
 * witnesses are computational marginals, which cannot certify the
 * absence of phase divergence.
 */
bool
phaseAmbiguousVerdict(const LocalizationReport &report,
                      bool has_mixture_segments)
{
    if (!report.bugFound)
        return has_mixture_segments;
    for (auto it = report.probes.rbegin(); it != report.probes.rend();
         ++it) {
        if (it->boundary == report.firstFailing && it->failed)
            return it->phaseAmbiguous;
    }
    return false;
}

/**
 * The one place that knows which family runs on which scope (the
 * table in locate.hh's file comment). Auto gets its cheap prober
 * here, and its escalation asks for SwapTest on the same scope. Every
 * precondition is checked before a prober is built, so a rejected
 * pair throws qsa::Error before anything is simulated.
 */
std::unique_ptr<Prober>
makeProber(ProbeFamily family, const Scope &scope,
           const circuit::Circuit &suspect,
           const circuit::Circuit &reference, const LocateConfig &cfg)
{
    const auto &regs = scope.registers();
    const unsigned n = suspect.numQubits();
    const bool resim = cfg.mode == assertions::EnsembleMode::Resimulate;
    fatal_if(n != reference.numQubits(),
             "suspect and reference use different qubit spaces (", n,
             " vs ", reference.numQubits(), " qubits)");
    fatal_if(n == 0, "empty qubit space");
    for (const auto &reg : regs) {
        const auto &qs = reg.qubits();
        fatal_if(qs.empty() || *std::max_element(qs.begin(), qs.end()) >= n,
                 "register '", reg.name(),
                 "' is empty or reaches past the ", n, "-qubit space");
    }

    const bool mirror =
        regs.empty() && (family == ProbeFamily::SegmentMirror ||
                         family == ProbeFamily::Auto);
    const bool swap = regs.size() < 2 && family == ProbeFamily::SwapTest;
    fatal_if(regs.empty() && !mirror && !swap, probeFamilyName(family),
             " probes assert on one register's marginal; localize on a "
             "register scope instead");
    fatal_if(regs.size() >= 2 && family != ProbeFamily::SegmentMirror &&
                 family != ProbeFamily::MixtureMarginal,
             "scope-inherited two-register probes support "
             "ProbeFamily::MixtureMarginal only (got ",
             probeFamilyName(family), ")");
    fatal_if(mirror && n > kMirrorQubitGate,
             "segment-mirror probes assert on the full qubit space and "
             "support at most ", kMirrorQubitGate, " qubits (", n,
             " requested); localize on a register scope instead");
    fatal_if(mirror && resim && n > kResimMirrorQubitGate,
             "Resimulate segment-mirror probes hold a full-space mixture "
             "per segment start and support at most ",
             kResimMirrorQubitGate, " qubits (", n,
             " requested); localize on a register scope instead");
    fatal_if(swap && n > kSwapQubitGate,
             "swap-test probes walk the suspect and reference prefixes "
             "and read their overlap, and support at most ",
             kSwapQubitGate, " qubits (",
             n, " requested); use rotated-marginal probes on a register "
             "scope instead");
    const std::size_t hi =
        mirror ? mirrorRange(suspect, reference, resim)
               : clampedCommonBoundary(suspect, reference, resim);
    fatal_if(hi == 0, "no probeable instruction boundary (is a program "
                      "empty, or does it start with a measurement?)");

    if (mirror) {
        return std::make_unique<MirrorProber>(suspect, reference, cfg,
                                              hi);
    }
    if (swap) {
        return std::make_unique<SwapProber>(
            suspect, reference, cfg, hi,
            regs.empty() ? nullptr : &regs[0]);
    }
    if (family == ProbeFamily::RotatedMarginal) {
        return std::make_unique<RotatedProber>(suspect, reference, cfg,
                                               hi, regs[0]);
    }
    return std::make_unique<PredicateProber>(
        suspect, reference, cfg, hi, regs[0],
        regs.size() == 2 ? &regs[1] : nullptr);
}

/**
 * ProbeFamily::Auto's one escalation step, a trigger on the cheap
 * verdict and a sharper witness to re-check with (the shape of Rovara
 * et al.'s assertion refinement). `trigger` may spend decisive probes
 * of the swap prober it is handed (recordProbe logs them ahead of the
 * swap search's); when one fails, it names that boundary in
 * `failing`, and the swap search starts from it as its
 * confirmed-failing top instead of probing its own. When the trigger
 * fires, a swap-test search on the same scope decides the report if
 * it brackets a defect; the cheap probes stay in the log as the
 * evidence for escalating. Past the swap-test gate, or when the swap
 * oracle cannot derive, the cheap verdict stands.
 */
void
escalate(LocalizationReport &report, const Scope &scope,
         const circuit::Circuit &suspect,
         const circuit::Circuit &reference, const LocateConfig &cfg,
         std::size_t pruned,
         const std::function<bool(Prober &swap, LocalizationReport &report,
                                  std::size_t &failing)> &trigger)
{
    const std::string cheap = probeFamilyName(report.decidedBy);
    if (suspect.numQubits() > kSwapQubitGate) {
        warn("program too wide for swap-test escalation (",
             suspect.numQubits(), " > ", kSwapQubitGate,
             " qubits); keeping the ", cheap, " bracket");
        return;
    }
    try {
        const auto swap = makeProber(ProbeFamily::SwapTest, scope,
                                     suspect, reference, cfg);
        std::size_t failing = 0;
        if (!trigger(*swap, report, failing))
            return;
        QSA_OBS_COUNTER("locate.swap_escalations", 1);
        obs::instant("locate.escalate_swap_test");
        LocalizationReport refined =
            runSearch(*swap, cfg, pruned, failing);
        std::vector<ProbeRecord> probes = std::move(report.probes);
        probes.insert(probes.end(), refined.probes.begin(),
                      refined.probes.end());
        const std::size_t measurements =
            report.totalMeasurements + refined.totalMeasurements;
        if (refined.bugFound)
            report = std::move(refined);
        report.probes = std::move(probes);
        report.totalMeasurements = measurements;
        report.escalatedToSwapTest = true;
    } catch (const DeriveError &err) {
        // The swap family's purity oracle is exact-only (a
        // wide-measurement program past the branch cap).
        warn("swap-test escalation unavailable (", err.what(),
             "); keeping the ", cheap, " bracket");
    }
}

} // anonymous namespace

std::string
probeFamilyName(ProbeFamily family)
{
    switch (family) {
      case ProbeFamily::SegmentMirror: return "segment-mirror";
      case ProbeFamily::MixtureMarginal: return "mixture-marginal";
      case ProbeFamily::RotatedMarginal: return "rotated-marginal";
      case ProbeFamily::SwapTest: return "swap-test";
      case ProbeFamily::Auto: return "auto";
    }
    panic("unknown probe family");
}

std::string
LocalizationReport::summary() const
{
    std::ostringstream os;
    if (!bugFound) {
        os << "no statistically failing boundary in " << probes.size()
           << " probes (" << totalMeasurements << " measurements)";
        if (prunedBoundaries > 0)
            os << " [" << prunedBoundaries
               << " boundaries statically pruned]";
        if (escalatedToSwapTest)
            os << " [escalated to swap-test probes]";
        return os.str();
    }
    os << "bug bracketed in instructions [" << suspectBegin() << ", "
       << suspectEnd() << ")";
    if (!suspectGates.empty())
        os << " {" << suspectGates << "}";
    os << " after " << probes.size() << " probes ("
       << totalMeasurements << " measurements)";
    if (prunedBoundaries > 0)
        os << " [" << prunedBoundaries
           << " boundaries statically pruned]";
    if (escalatedToSwapTest) {
        os << " [" << probeFamilyName(decidedBy)
           << " witness after escalation]";
    }
    return os.str();
}

Scope::Scope(circuit::QubitRegister reg) : regs{std::move(reg)} {}

Scope::Scope(circuit::QubitRegister reg_a, circuit::QubitRegister reg_b)
    : regs{std::move(reg_a), std::move(reg_b)}
{
}

BugLocator::BugLocator(const circuit::Circuit &suspect,
                       const circuit::Circuit &reference,
                       const LocateConfig &config)
    : suspect(suspect), reference(reference), config(config)
{
    fatal_if(config.ensembleSize == 0,
             "probe ensemble size must be positive");
    fatal_if(config.maxEnsembleSize < config.ensembleSize,
             "escalation cap below the probe ensemble size");
    fatal_if(!(config.alpha > 0.0 && config.alpha < 1.0),
             "alpha must lie strictly between 0 and 1");
    // passThreshold <= alpha is legal: the inconclusive band is then
    // empty and probes simply never escalate (the pre-knob behaviour
    // for alpha >= 0.30 configs).
    fatal_if(!(config.passThreshold >= 0.0 && config.passThreshold <= 1.0),
             "escalation pass threshold ", config.passThreshold,
             " outside [0, 1]");
}

LocalizationReport
BugLocator::locate(const Scope &scope) const
{
    const std::unique_ptr<Prober> prober =
        makeProber(config.family, scope, suspect, reference, config);
    const std::size_t pruned =
        config.staticPruning
            ? analyze::equivalentPrefixBoundary(suspect, reference)
            : 0;
    LocalizationReport report = runSearch(*prober, config, pruned);

    if (config.family == ProbeFamily::Auto && scope.registers().empty()) {
        // A phase-ambiguous mirror verdict cannot pin (or rule out)
        // divergence whose only trace is a relative phase.
        // makeProber gives the full space's Auto the mirror prober.
        const bool ambiguous = phaseAmbiguousVerdict(
            report, static_cast<const MirrorProber &>(*prober)
                        .hasMixtureSegments());
        escalate(report, scope, suspect, reference, config, pruned,
                 [&](Prober &, LocalizationReport &, std::size_t &) {
                     return ambiguous;
                 });
    } else if (config.family == ProbeFamily::Auto) {
        // A register marginal is a first-*visible* witness: its
        // bracket may sit past the defect, and an all-passing run
        // cannot rule phase divergence out. One decisive swap-test
        // probe at the bracket's lastPassing (a failure there proves
        // the divergence predates the visible bracket), or at the top
        // boundary when nothing failed, decides; the swap search then
        // brackets below the boundary that failed it.
        const assertions::EscalationPolicy decisive{
            config.maxEnsembleSize, config.maxEnsembleSize,
            config.passThreshold};
        escalate(report, scope, suspect, reference, config, pruned,
                 [&](Prober &swap, LocalizationReport &cheap,
                     std::size_t &failing) {
                     const std::size_t at =
                         cheap.bugFound ? cheap.lastPassing : swap.hi;
                     if (at == 0 || !recordProbe(swap, at, pruned,
                                                 decisive, cheap)
                                         .failed)
                         return false;
                     failing = at;
                     return true;
                 });
    }

    // A bracket the swap search found never needs its range: the
    // tail is only blamed when no probe failed.
    resolveTailDivergence(report, suspect, reference, prober->hi);
    annotate(report, suspect);
    return report;
}

} // namespace qsa::locate
