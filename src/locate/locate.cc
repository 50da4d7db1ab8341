/**
 * @file
 * BugLocator implementation.
 */

#include "locate/locate.hh"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <sstream>

#include "analyze/clifford.hh"
#include "assertions/checker.hh"
#include "circuit/executor.hh"
#include "common/bits.hh"
#include "common/errors.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "obs/obs.hh"
#include "runtime/batch.hh"
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

/** Boundary-breakpoint prefix for predicate probes. */
const std::string kBoundaryPrefix = "qsa_locate_b";

/**
 * Label prefix renaming the embedded reference copy's measurement
 * records and breakpoints inside a swap-test probe, so the two
 * program copies keep disjoint classical records.
 */
const std::string kRefPrefix = "qsa_locate_ref:";

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
    cc.fuseGates = cfg.fuseGates;
    return cc;
}

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

ProbeRecord
toRecord(std::size_t boundary,
         const assertions::AssertionOutcome &out)
{
    ProbeRecord rec;
    rec.boundary = boundary;
    rec.kind = out.spec.kind;
    rec.ensembleSize = out.ensembleSize;
    rec.pValue = out.pValue;
    rec.failed = !out.passed;
    return rec;
}

/**
 * Fold a probe's component outcomes into one record: the probe fails
 * when any component fails, reports the smallest component p-value,
 * the failing component's kind, and the summed ensemble cost. Shared
 * by every multi-component probe family (dual mirrors, the three
 * rotated frames).
 */
ProbeRecord
combineRecords(std::size_t boundary,
               const std::vector<assertions::AssertionOutcome> &outcomes)
{
    ProbeRecord rec;
    rec.boundary = boundary;
    rec.kind = outcomes.back().spec.kind;
    for (const auto &out : outcomes) {
        rec.ensembleSize += out.ensembleSize;
        rec.pValue = std::min(rec.pValue, out.pValue);
        if (!out.passed && !rec.failed) {
            rec.failed = true;
            rec.kind = out.spec.kind;
        }
    }
    return rec;
}

/** Probes per LinearScan batch chunk (memory bound, see probeAll). */
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
    std::size_t hi = std::min(si.size(), ri.size());
    if (!resim) {
        for (std::size_t i = 0; i < hi; ++i) {
            const bool blocked =
                si[i].kind == circuit::GateKind::Measure ||
                ri[i].kind == circuit::GateKind::Measure ||
                !si[i].condLabel.empty() || !ri[i].condLabel.empty();
            if (blocked) {
                hi = i;
                break;
            }
        }
    }
    fatal_if(hi == 0, "no probeable instruction boundary");
    return hi;
}

/**
 * Family-wise adjudication of a scanned probe family: Holm-Bonferroni
 * over the probes with standard reject-to-fail semantics. Entangled
 * probes stay at per-probe alpha — their *pass* is the rejection, so
 * a step-down correction would make a correct entangled boundary
 * harder to pass and could bracket defect-free code.
 */
std::vector<ProbeRecord>
adjudicateFamily(const std::vector<std::size_t> &boundaries,
                 std::vector<assertions::AssertionOutcome> outcomes,
                 bool family_wise, ProbeFamily family)
{
    if (family_wise) {
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

    std::vector<ProbeRecord> records;
    records.reserve(boundaries.size());
    for (std::size_t i = 0; i < boundaries.size(); ++i) {
        records.push_back(toRecord(boundaries[i], outcomes[i]));
        records.back().family = family;
    }
    return records;
}

/** Copy a circuit with breakpoint markers dropped (for inversion). */
circuit::Circuit
stripMarkers(const circuit::Circuit &c)
{
    circuit::Circuit out(c.numQubits());
    for (const auto &inst : c.instructions()) {
        if (inst.kind == circuit::GateKind::Breakpoint)
            continue;
        circuit::Instruction copy = inst;
        if (copy.kind == circuit::GateKind::Unitary)
            copy.matrixId = out.addMatrix(c.matrix(inst.matrixId));
        out.append(copy);
    }
    return out;
}

/**
 * One probe family: adjudicate a single boundary (with sequential
 * escalation) or a whole boundary batch (with optional family-wise
 * control).
 */
class Prober
{
  public:
    virtual ~Prober() = default;

    virtual ProbeRecord
    probe(std::size_t boundary,
          const assertions::EscalationPolicy &policy) = 0;

    virtual std::vector<ProbeRecord>
    probeAll(const std::vector<std::size_t> &boundaries,
             bool family_wise) = 0;

    /** Largest probeable boundary. */
    virtual std::size_t hiBoundary() const = 0;
};

/**
 * Mirror probes: suspect prefix followed by the adjoint of the
 * reference prefix, asserted classically equal to the prep state.
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
 * budget. Boundaries whose unwind reaches the classical prologue
 * keep the single point-mass assertion — in particular, on a
 * measurement-free program the Resimulate probe sequence is
 * spec-for-spec the same as the default mode's.
 *
 * A single (adaptive) probe runs on its own checker so escalation
 * rounds reuse the cached prefix statevector, with the ensemble
 * fanned across the runtime pool; a LinearScan batch fans probe-wise
 * through runtime::BatchRunner in bounded-memory chunks.
 */
class MirrorProber : public Prober
{
  public:
    MirrorProber(const circuit::Circuit &suspect,
                 const circuit::Circuit &reference,
                 const LocateConfig &cfg)
        : suspect(suspect), reference(reference), cfg(cfg),
          resim(cfg.mode == assertions::EnsembleMode::Resimulate),
          runner(cfg.numThreads)
    {
        fatal_if(suspect.numQubits() != reference.numQubits(),
                 "suspect and reference use different qubit spaces");
        fatal_if(suspect.numQubits() == 0, "empty qubit space");
        fatal_if(suspect.numQubits() > kMirrorQubitGate,
                 "mirror probes assert on the full qubit space; ",
                 suspect.numQubits(), " qubits is too wide — use "
                 "locateByPredicates on a register instead");
        fatal_if(resim && suspect.numQubits() > kResimMirrorQubitGate,
                 "Resimulate mirror probes hold a full-space mixture "
                 "distribution per segment start; ", suspect.numQubits(),
                 " qubits is too wide — use locateByPredicates on a "
                 "register instead");

        std::vector<unsigned> qubits(suspect.numQubits());
        for (unsigned q = 0; q < suspect.numQubits(); ++q)
            qubits[q] = q;
        allReg = circuit::QubitRegister("qsa_locate_all", qubits);

        const auto &si = suspect.instructions();
        const auto &ri = reference.instructions();
        const std::size_t common = std::min(si.size(), ri.size());

        // Common PrepZ prologue: boundaries at or below it compare
        // against the reference's tracked classical state; boundaries
        // above it get the adjoint-of-reference mirror appended.
        prologue = 0;
        while (prologue < common &&
               si[prologue].kind == circuit::GateKind::PrepZ &&
               ri[prologue].kind == circuit::GateKind::PrepZ)
            ++prologue;

        hi = common;
        for (std::size_t i = prologue; i < common; ++i) {
            if (resim) {
                // Resimulate probes cross measures and resets as long
                // as both programs perform the identical operation
                // there; structural divergence ends the mirrorable
                // range (the bracket still contains it: the last
                // segment's probes fail first).
                if (segmentSpans(si[i]) && segmentSpans(ri[i]))
                    continue;
                if (alignedNonInvertible(si[i], ri[i]))
                    continue;
            } else if (probeable(si[i]) && probeable(ri[i])) {
                continue;
            }
            hi = i;
            break;
        }
        fatal_if(hi == 0, "no probeable instruction boundary (does "
                 "the program start with a measurement?)");

        // Exact semi-classical tracking of the reference prologue:
        // the expected classical value at every boundary <= prologue.
        sim::StateVector state(reference.numQubits());
        std::map<std::string, std::uint64_t> meas;
        Rng rng(cfg.seed);
        refValues.push_back(basisValue(state));
        for (std::size_t k = 0; k < prologue; ++k) {
            const auto step = reference.sliceRange(k, k + 1);
            circuit::runCircuitOn(step, state, meas, rng);
            refValues.push_back(basisValue(state));
        }

        if (resim) {
            // Mirror segment starts: segStart[k] is the largest
            // boundary <= k with only invertible instructions in
            // between, i.e. where the adjoint unwind of the reference
            // segment lands.
            segStart.resize(hi + 1);
            segStart[0] = 0;
            for (std::size_t k = 1; k <= hi; ++k) {
                segStart[k] =
                    segmentSpans(ri[k - 1]) ? segStart[k - 1] : k;
            }
            // The eager oracle records the full-space mixture
            // predicate at every segment start — and, for a scan
            // that will probe every boundary anyway, at every
            // boundary. An adaptive search touches O(log n)
            // boundaries, so its dual probes derive the per-boundary
            // marginal predicate lazily instead (oracleAt), keeping
            // memory at O(probed boundaries * 2^n), not O(n * 2^n).
            scanAll = cfg.strategy == Strategy::LinearScan;
            std::vector<std::size_t> boundaries;
            if (scanAll) {
                boundaries.resize(hi + 1);
                for (std::size_t k = 0; k <= hi; ++k)
                    boundaries[k] = k;
            } else {
                boundaries.assign(segStart.begin(), segStart.end());
                std::sort(boundaries.begin(), boundaries.end());
                boundaries.erase(std::unique(boundaries.begin(),
                                             boundaries.end()),
                                 boundaries.end());
            }
            oracle = std::make_unique<PredicateOracle>(
                reference, allReg, cfg.seed, boundaries,
                oracleOptionsFor(cfg));
        }
    }

    ProbeRecord
    probe(std::size_t boundary,
          const assertions::EscalationPolicy &policy) override
    {
        // One checker per probe program: escalated rounds then reuse
        // its cached prefix statevector and only resample shots, and
        // the boundary-keyed seed makes each round extend the earlier
        // ensemble (sequential testing, deterministic).
        const circuit::Circuit program = buildProbe(boundary);
        auto cc = baseConfig(cfg);
        cc.seed = seedFor(cfg.seed, boundary);
        const assertions::AssertionChecker checker(program, cc);

        const auto specs = specsFor(boundary, /*family_wise=*/false);
        std::vector<assertions::AssertionOutcome> outcomes;
        outcomes.reserve(specs.size());
        for (const auto &spec : specs)
            outcomes.push_back(checker.checkEscalated(spec, policy));
        return combineOutcomes(boundary, outcomes);
    }

    std::vector<ProbeRecord>
    probeAll(const std::vector<std::size_t> &boundaries,
             bool family_wise) override
    {
        // Chunked batches: each chunk's checkers (and their cached
        // prefix statevectors — a full 2^n vector per probe) are
        // dropped before the next chunk starts, bounding the scan's
        // memory at kScanChunk prefixes.
        std::vector<assertions::AssertionOutcome> outcomes;
        std::vector<std::size_t> spans; // specs per boundary
        spans.reserve(boundaries.size());
        for (std::size_t base = 0; base < boundaries.size();
             base += kScanChunk) {
            const std::size_t end =
                std::min(boundaries.size(), base + kScanChunk);
            std::deque<circuit::Circuit> programs;
            std::vector<runtime::BatchItem> items;
            items.reserve(end - base);
            for (std::size_t i = base; i < end; ++i) {
                programs.push_back(buildProbe(boundaries[i]));
                auto cc = baseConfig(cfg);
                cc.seed = seedFor(cfg.seed, boundaries[i]);
                const auto specs =
                    specsFor(boundaries[i], family_wise);
                spans.push_back(specs.size());
                items.push_back({&programs.back(), specs, cc});
            }
            for (const auto &per_item : runner.checkAll(items)) {
                outcomes.insert(outcomes.end(), per_item.begin(),
                                per_item.end());
            }
        }
        // Family-wise control over every component assertion (mirror
        // specs are never Entangled, so plain Holm applies), then
        // fold the components back into one record per boundary.
        if (family_wise)
            assertions::applyHolmBonferroni(outcomes);
        std::vector<ProbeRecord> records;
        records.reserve(boundaries.size());
        std::size_t cursor = 0;
        for (std::size_t i = 0; i < boundaries.size(); ++i) {
            const std::vector<assertions::AssertionOutcome> group(
                outcomes.begin() + cursor,
                outcomes.begin() + cursor + spans[i]);
            cursor += spans[i];
            records.push_back(combineOutcomes(boundaries[i], group));
        }
        return records;
    }

    std::size_t hiBoundary() const override { return hi; }

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
    runtime::BatchRunner runner;
    circuit::QubitRegister allReg;
    std::size_t prologue = 0;
    std::size_t hi = 0;
    std::vector<std::uint64_t> refValues;
    std::vector<std::size_t> segStart;
    std::unique_ptr<PredicateOracle> oracle;
    bool scanAll = false;
    mutable std::map<std::size_t, PredicateOracle> lazyOracles;

    static std::uint64_t
    basisValue(const sim::StateVector &state)
    {
        const auto &amps = state.amplitudes();
        for (std::uint64_t v = 0; v < amps.size(); ++v) {
            if (std::norm(amps[v]) >= 1.0 - 1e-9)
                return v;
        }
        panic("reference prologue state is not a basis state");
    }

    /** Where this boundary's adjoint unwind lands. */
    std::size_t
    segStartFor(std::size_t boundary) const
    {
        return resim ? segStart[boundary]
                     : std::min(boundary, prologue);
    }

    /**
     * The oracle holding the full-space predicate at `boundary`: the
     * eager one where it recorded the boundary (segment starts; every
     * boundary under LinearScan), else a lazily built and memoised
     * single-boundary oracle (one extra measurement-resolved pass —
     * cheap next to the probe's ensemble). Called from the search
     * thread only; probe workers never touch the cache.
     */
    const PredicateOracle &
    oracleAt(std::size_t boundary) const
    {
        if (scanAll || segStart[boundary] == boundary)
            return *oracle;
        auto it = lazyOracles.find(boundary);
        if (it == lazyOracles.end()) {
            it = lazyOracles
                     .emplace(boundary,
                              PredicateOracle(
                                  reference, allReg, cfg.seed,
                                  std::vector<std::size_t>{boundary},
                                  oracleOptionsFor(cfg)))
                     .first;
        }
        return it->second;
    }

    /**
     * True when the boundary needs the dual (marginal + unwind)
     * probe: its unwind lands on a measurement mixture, not the
     * classical prologue, and is non-trivial.
     */
    bool
    dualProbe(std::size_t boundary) const
    {
        if (!resim)
            return false;
        const std::size_t start = segStartFor(boundary);
        return start > prologue && start < boundary;
    }

    circuit::Circuit
    buildProbe(std::size_t boundary) const
    {
        circuit::Circuit probe = suspect.sliceRange(0, boundary);
        if (dualProbe(boundary))
            probe.breakpoint(kProbePreLabel);
        const std::size_t start = segStartFor(boundary);
        if (boundary > start) {
            // The segment is measure-free by construction, so a
            // conditioned gate's record cannot change inside it and
            // conditioned inversion is exact.
            const circuit::Circuit seg = stripMarkers(
                reference.sliceRange(start, boundary));
            probe.appendCircuit(
                seg.inverse(/*invert_conditioned=*/true));
        }
        probe.breakpoint(kProbeLabel);
        return probe;
    }

    /**
     * The probe's component assertions. Adaptive probes split their
     * alpha across a dual probe's two components (Bonferroni); a
     * LinearScan family keeps per-spec alpha and lets the batch-level
     * Holm-Bonferroni step-down control the whole family instead.
     */
    std::vector<assertions::AssertionSpec>
    specsFor(std::size_t boundary, bool family_wise) const
    {
        std::vector<assertions::AssertionSpec> specs;
        if (!resim) {
            assertions::AssertionSpec spec;
            spec.kind = assertions::AssertionKind::Classical;
            spec.breakpoint = kProbeLabel;
            spec.regA = allReg;
            spec.expectedValue =
                refValues[std::min(boundary, prologue)];
            spec.alpha = cfg.alpha;
            spec.name = "mirror@" + std::to_string(boundary);
            specs.push_back(std::move(spec));
            return specs;
        }

        const bool dual = dualProbe(boundary);
        const double alpha =
            dual && !family_wise ? cfg.alpha / 2.0 : cfg.alpha;
        if (dual) {
            // Direct mixture predicate at the boundary itself:
            // divergence that reached any computational marginal,
            // including divergence from earlier segments the unwind
            // would cancel.
            assertions::AssertionSpec pre =
                oracleAt(boundary).specAt(boundary, kProbePreLabel,
                                          alpha);
            pre.name = "mirror-marginal@" + std::to_string(boundary);
            specs.push_back(std::move(pre));
        }
        // The unwound state must read as the reference's mixture at
        // the segment start (for a measurement-free program that
        // start is the prologue and the predicate is the same
        // classical point mass as the default mode's).
        assertions::AssertionSpec post = oracle->specAt(
            segStartFor(boundary), kProbeLabel, alpha);
        post.name = "mirror@" + std::to_string(boundary);
        specs.push_back(std::move(post));
        return specs;
    }

    /**
     * combineRecords plus the mirror family's metadata: a dual probe
     * (outcomes [pre-marginal, segment-unwind]) that rejected only
     * through the computational pre-marginal while its phase-
     * sensitive unwind passed is flagged phase-ambiguous — the
     * divergence was transported here, not necessarily born here.
     */
    static ProbeRecord
    combineOutcomes(
        std::size_t boundary,
        const std::vector<assertions::AssertionOutcome> &outcomes)
    {
        ProbeRecord rec = combineRecords(boundary, outcomes);
        rec.family = ProbeFamily::SegmentMirror;
        if (outcomes.size() == 2) {
            rec.phaseAmbiguous = rec.failed && !outcomes[0].passed &&
                                 outcomes[1].passed;
        }
        return rec;
    }
};

/**
 * Predicate probes: the suspect program instrumented at every
 * boundary, one persistent checker (shared prefix caches), and the
 * reference oracle's marginal predicate — or a scope-inherited
 * entangled/product kind — per boundary.
 */
class PredicateProber : public Prober
{
  public:
    PredicateProber(const circuit::Circuit &suspect,
                    const circuit::Circuit &reference,
                    const LocateConfig &cfg,
                    const circuit::QubitRegister &reg_a,
                    const circuit::QubitRegister *reg_b)
        : cfg(cfg), regA(reg_a),
          instrumented(suspect.withBoundaryBreakpoints(kBoundaryPrefix)),
          oracle(reference, reg_a, cfg.seed, oracleOptionsFor(cfg)),
          checker(instrumented, baseConfig(cfg)), runner(cfg.numThreads)
    {
        fatal_if(suspect.numQubits() != reference.numQubits(),
                 "suspect and reference use different qubit spaces");

        // Under final-state sampling predicate probes survive
        // mid-program resets (the reference oracle tracks them
        // exactly) but clamp per clampedCommonBoundary; in Resimulate
        // mode every trial re-simulates the truncated prefix
        // (measurements included) and the oracle's predicate is the
        // exact mixture marginal, so every boundary is probeable.
        hi = clampedCommonBoundary(
            suspect, reference,
            cfg.mode == assertions::EnsembleMode::Resimulate);

        if (reg_b != nullptr) {
            regB = *reg_b;
            for (const auto &scoped : scopeDerivedPredicates(suspect))
                scopeKinds[scoped.boundary] = scoped.kind;
        }
    }

    ProbeRecord
    probe(std::size_t boundary,
          const assertions::EscalationPolicy &policy) override
    {
        ProbeRecord rec =
            toRecord(boundary,
                     checker.checkEscalated(specFor(boundary),
                                            policy));
        rec.family = ProbeFamily::MixtureMarginal;
        return rec;
    }

    std::vector<ProbeRecord>
    probeAll(const std::vector<std::size_t> &boundaries,
             bool family_wise) override
    {
        // Chunked like the mirror scan: the per-chunk checker (and
        // its one cached prefix statevector per probed breakpoint)
        // is dropped before the next chunk starts.
        std::vector<assertions::AssertionOutcome> outcomes;
        outcomes.reserve(boundaries.size());
        for (std::size_t base = 0; base < boundaries.size();
             base += kScanChunk) {
            const std::size_t end =
                std::min(boundaries.size(), base + kScanChunk);
            std::vector<assertions::AssertionSpec> specs;
            specs.reserve(end - base);
            for (std::size_t i = base; i < end; ++i)
                specs.push_back(specFor(boundaries[i]));
            const std::vector<runtime::BatchItem> items{
                {&instrumented, specs, baseConfig(cfg)}};
            const auto chunk = runner.checkAll(items)[0];
            outcomes.insert(outcomes.end(), chunk.begin(),
                            chunk.end());
        }
        return adjudicateFamily(boundaries, std::move(outcomes),
                                family_wise,
                                ProbeFamily::MixtureMarginal);
    }

    std::size_t hiBoundary() const override { return hi; }

  private:
    LocateConfig cfg;
    circuit::QubitRegister regA;
    circuit::QubitRegister regB;
    circuit::Circuit instrumented;
    PredicateOracle oracle;
    assertions::AssertionChecker checker;
    runtime::BatchRunner runner;
    std::map<std::size_t, assertions::AssertionKind> scopeKinds;
    std::size_t hi = 0;

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
 * Swap-test probes: the probe program runs the suspect prefix on
 * qubits [0, n), the reference prefix — qubit indices shifted and
 * classical labels renamed (Circuit::embedded) — on [n, 2n), then an
 * H / controlled-SWAP-per-register-qubit / H comparator on ancilla
 * qubit 2n. For pure pair states the ancilla reads 0 with
 * probability (1 + |<psi|phi>|^2) / 2; the partial swap test over a
 * register measures the reduced-state overlap, and averaging over
 * independently sampled suspect and reference measurement branches
 * makes the unconditional ancilla distribution
 * Bernoulli((1 + tr(rho sigma)) / 2) for the two reduced mixtures.
 * The OverlapOracle supplies the null value (sigma = rho): a
 * classical point mass at 0 wherever the reference's reduced state
 * is pure — there a single observed 1 refutes the null outright — a
 * two-point distribution otherwise.
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
 * high-purity null (see OverlapOracle). locateByPredicates(reg) with
 * ProbeFamily::SwapTest/Auto is therefore the sharp tool; the
 * full-space form backs locate()'s families on measure-light
 * programs.
 *
 * Cost: each probe simulates 2n+1 qubits, so the family is gated to
 * small programs and is the *escalation* family, not the default.
 */
class SwapProber : public Prober
{
  public:
    /** @param reg comparator register (nullptr = the full space) */
    SwapProber(const circuit::Circuit &suspect,
               const circuit::Circuit &reference,
               const LocateConfig &cfg,
               const circuit::QubitRegister *reg)
        : suspect(suspect), reference(reference), cfg(cfg),
          resim(cfg.mode == assertions::EnsembleMode::Resimulate),
          runner(cfg.numThreads)
    {
        fatal_if(suspect.numQubits() != reference.numQubits(),
                 "suspect and reference use different qubit spaces");
        fatal_if(suspect.numQubits() == 0, "empty qubit space");
        n = suspect.numQubits();
        fatal_if(n > kSwapQubitGate,
                 "swap-test probes simulate two embedded program "
                 "copies plus an ancilla (", 2 * n + 1,
                 " qubits for this program); ", n, " qubits is too "
                 "wide — use locateByPredicates with "
                 "ProbeFamily::RotatedMarginal on a register instead");
        anc = 2 * n;
        ancReg = circuit::QubitRegister("qsa_swap_anc", {anc});
        if (reg != nullptr) {
            swapQubits = reg->qubits();
            oracleQubits = reg->qubits();
        } else {
            swapQubits.resize(n);
            for (unsigned q = 0; q < n; ++q)
                swapQubits[q] = q;
            // Empty register selects the oracle's pairwise-fidelity
            // full-space purity (no 2^n x 2^n density matrix).
        }

        // In Resimulate mode the probe runs both copies' measurements
        // per trial, so even structurally diverging programs stay
        // comparable past them.
        hi = clampedCommonBoundary(suspect, reference, resim);
    }

    ProbeRecord
    probe(std::size_t boundary,
          const assertions::EscalationPolicy &policy) override
    {
        const circuit::Circuit program = buildProbe(boundary);
        auto cc = baseConfig(cfg);
        cc.seed = seedFor(cfg.seed ^ kSwapSeedSalt, boundary);
        if (cfg.tensorSwapProbes)
            cc.tensorSplit = n;
        const assertions::AssertionChecker checker(program, cc);
        ProbeRecord rec = toRecord(
            boundary,
            checker.checkEscalated(specFor(boundary), policy));
        rec.family = ProbeFamily::SwapTest;
        return rec;
    }

    std::vector<ProbeRecord>
    probeAll(const std::vector<std::size_t> &boundaries,
             bool family_wise) override
    {
        // A scan wants every boundary's purity: one eager
        // measurement-resolved pass beats one lazy pass per
        // boundary. Built here rather than in the constructor so an
        // Auto search that only ever issues its single decisive
        // escalation-check probe never pays for it.
        if (!oracle) {
            oracle = std::make_unique<OverlapOracle>(
                reference, oracleQubits, boundaries);
        }
        std::vector<assertions::AssertionOutcome> outcomes;
        outcomes.reserve(boundaries.size());
        for (std::size_t base = 0; base < boundaries.size();
             base += kScanChunk) {
            const std::size_t end =
                std::min(boundaries.size(), base + kScanChunk);
            std::deque<circuit::Circuit> programs;
            std::vector<runtime::BatchItem> items;
            items.reserve(end - base);
            for (std::size_t i = base; i < end; ++i) {
                programs.push_back(buildProbe(boundaries[i]));
                auto cc = baseConfig(cfg);
                cc.seed =
                    seedFor(cfg.seed ^ kSwapSeedSalt, boundaries[i]);
                if (cfg.tensorSwapProbes)
                    cc.tensorSplit = n;
                items.push_back({&programs.back(),
                                 {specFor(boundaries[i])}, cc});
            }
            for (const auto &per_item : runner.checkAll(items)) {
                outcomes.insert(outcomes.end(), per_item.begin(),
                                per_item.end());
            }
        }
        return adjudicateFamily(boundaries, std::move(outcomes),
                                family_wise, ProbeFamily::SwapTest);
    }

    std::size_t hiBoundary() const override { return hi; }

  private:
    const circuit::Circuit &suspect;
    const circuit::Circuit &reference;
    LocateConfig cfg;
    bool resim = false;
    runtime::BatchRunner runner;
    unsigned n = 0;
    unsigned anc = 0;
    circuit::QubitRegister ancReg;
    std::vector<unsigned> swapQubits;
    std::vector<unsigned> oracleQubits; // empty = full space
    std::size_t hi = 0;

    /** Eager purity oracle, built on the first probeAll. */
    std::unique_ptr<OverlapOracle> oracle;

    /**
     * Adaptive searches touch O(log n) boundaries: their purities are
     * derived lazily (one measurement-resolved pass each, cheap next
     * to the probe's ensemble) and memoised. Search-thread only.
     */
    mutable std::map<std::size_t, double> purityMemo;

    double
    purityAt(std::size_t boundary) const
    {
        auto it = purityMemo.find(boundary);
        if (it != purityMemo.end())
            return it->second;
        double purity;
        if (oracle && oracle->recorded(boundary)) {
            purity = oracle->purityAt(boundary);
        } else {
            const OverlapOracle one(reference, oracleQubits,
                                    {boundary});
            purity = one.purityAt(boundary);
        }
        return purityMemo.emplace(boundary, purity).first->second;
    }

    circuit::Circuit
    buildProbe(std::size_t boundary) const
    {
        const unsigned space = 2 * n + 1;
        circuit::Circuit probe(space);
        probe.appendCircuit(
            suspect.sliceRange(0, boundary).embedded(space, 0));
        probe.appendCircuit(reference.sliceRange(0, boundary)
                                .embedded(space, n, kRefPrefix));
        probe.h(anc);
        for (unsigned q : swapQubits)
            probe.cswap(anc, q, n + q);
        probe.h(anc);
        probe.breakpoint(kProbeLabel);
        return probe;
    }

    assertions::AssertionSpec
    specFor(std::size_t boundary) const
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
 * its alpha across the three frames; a LinearScan batch keeps
 * per-spec alpha and lets Holm-Bonferroni control the whole
 * 3-per-boundary family. For a one-qubit register the three frames
 * determine the Bloch vector, so any divergence *on the register* is
 * visible the instruction it appears — including pure phase — at
 * three cheap n-qubit probes per boundary instead of a 2n+1-qubit
 * swap test. The witness is still not monotone (divergence can
 * rotate off the probed register later), so brackets carry the same
 * first-visible caveat as the computational marginal family.
 */
class RotatedProber : public Prober
{
  public:
    RotatedProber(const circuit::Circuit &suspect,
                  const circuit::Circuit &reference,
                  const LocateConfig &cfg,
                  const circuit::QubitRegister &reg)
        : cfg(cfg), regA(reg), suspect(suspect),
          reference(reference), runner(cfg.numThreads)
    {
        fatal_if(suspect.numQubits() != reference.numQubits(),
                 "suspect and reference use different qubit spaces");

        hi = clampedCommonBoundary(
            suspect, reference,
            cfg.mode == assertions::EnsembleMode::Resimulate);
    }

    ProbeRecord
    probe(std::size_t boundary,
          const assertions::EscalationPolicy &policy) override
    {
        std::vector<assertions::AssertionOutcome> outcomes;
        outcomes.reserve(3);
        for (Frame frame : kAllFrames) {
            const circuit::Circuit program =
                buildProbe(boundary, frame);
            auto cc = baseConfig(cfg);
            cc.seed = seedFor(cfg.seed ^ frameSeedSalt(frame),
                              boundary);
            const assertions::AssertionChecker checker(program, cc);
            outcomes.push_back(checker.checkEscalated(
                specFor(oracleAt(boundary), boundary, frame,
                        cfg.alpha / 3.0),
                policy));
        }
        ProbeRecord rec = combineRecords(boundary, outcomes);
        rec.family = ProbeFamily::RotatedMarginal;
        return rec;
    }

    std::vector<ProbeRecord>
    probeAll(const std::vector<std::size_t> &boundaries,
             bool family_wise) override
    {
        const double alpha =
            family_wise ? cfg.alpha : cfg.alpha / 3.0;
        // A scan touches every boundary: one eager three-frame pass
        // beats one lazy pass per boundary (built here, not in the
        // constructor, so adaptive searches — which probe O(log n)
        // boundaries through the oracleAt memo — never pay for it).
        if (!scanOracle) {
            scanOracle = std::make_unique<PredicateOracle>(
                reference, regA, cfg.seed, &boundaries,
                std::vector<Frame>{Frame::Z, Frame::X, Frame::Y},
                oracleOptionsFor(cfg));
        }
        std::vector<assertions::AssertionOutcome> outcomes;
        for (std::size_t base = 0; base < boundaries.size();
             base += kScanChunk) {
            const std::size_t end =
                std::min(boundaries.size(), base + kScanChunk);
            std::deque<circuit::Circuit> programs;
            std::vector<runtime::BatchItem> items;
            items.reserve(3 * (end - base));
            for (std::size_t i = base; i < end; ++i) {
                for (Frame frame : kAllFrames) {
                    programs.push_back(
                        buildProbe(boundaries[i], frame));
                    auto cc = baseConfig(cfg);
                    cc.seed = seedFor(cfg.seed ^ frameSeedSalt(frame),
                                      boundaries[i]);
                    items.push_back(
                        {&programs.back(),
                         {specFor(*scanOracle, boundaries[i], frame,
                                  alpha)},
                         cc});
                }
            }
            for (const auto &per_item : runner.checkAll(items)) {
                outcomes.insert(outcomes.end(), per_item.begin(),
                                per_item.end());
            }
        }
        if (family_wise)
            assertions::applyHolmBonferroni(outcomes);
        std::vector<ProbeRecord> records;
        records.reserve(boundaries.size());
        for (std::size_t i = 0; i < boundaries.size(); ++i) {
            const std::vector<assertions::AssertionOutcome> group(
                outcomes.begin() + 3 * i,
                outcomes.begin() + 3 * (i + 1));
            records.push_back(combineRecords(boundaries[i], group));
            records.back().family = ProbeFamily::RotatedMarginal;
        }
        return records;
    }

    std::size_t hiBoundary() const override { return hi; }

  private:
    LocateConfig cfg;
    circuit::QubitRegister regA;
    const circuit::Circuit &suspect;
    const circuit::Circuit &reference;
    runtime::BatchRunner runner;
    std::size_t hi = 0;

    /** Eager three-frame oracle, built on the first probeAll. */
    std::unique_ptr<PredicateOracle> scanOracle;

    /**
     * Adaptive probes derive their boundary's three-frame predicates
     * lazily (one measurement-resolved pass each) and memoise them —
     * escalation and confirmation rounds at the same boundary reuse
     * the entry. Search-thread only.
     */
    mutable std::map<std::size_t, std::unique_ptr<PredicateOracle>>
        lazyOracles;

    const PredicateOracle &
    oracleAt(std::size_t boundary) const
    {
        auto it = lazyOracles.find(boundary);
        if (it == lazyOracles.end()) {
            const std::vector<std::size_t> one{boundary};
            it = lazyOracles
                     .emplace(boundary,
                              std::make_unique<PredicateOracle>(
                                  reference, regA, cfg.seed, &one,
                                  std::vector<Frame>{
                                      Frame::Z, Frame::X, Frame::Y},
                                  oracleOptionsFor(cfg)))
                     .first;
        }
        return *it->second;
    }

    circuit::Circuit
    buildProbe(std::size_t boundary, Frame frame) const
    {
        circuit::Circuit probe = suspect.sliceRange(0, boundary);
        appendFrameEpilogue(probe, regA.qubits(), frame);
        probe.breakpoint(kProbeLabel);
        return probe;
    }

    static assertions::AssertionSpec
    specFor(const PredicateOracle &oracle, std::size_t boundary,
            Frame frame, double alpha)
    {
        return oracle.specAt(boundary, kProbeLabel, alpha, frame);
    }
};

/**
 * Shared search driver over either probe family. `pruned_lo` is the
 * static pre-pass' certified-equivalent boundary: every boundary up to
 * it provably passes (the suspect and reference prefixes act
 * identically up to global phase, and every probe statistic is
 * phase-invariant), so the search treats it as a confirmed-passing
 * lower bound and never probes at or below it.
 */
LocalizationReport
runSearch(Prober &prober, const LocateConfig &cfg,
          std::size_t pruned_lo = 0)
{
    LocalizationReport report;
    const std::size_t top = prober.hiBoundary();
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

    const auto add = [&](const ProbeRecord &rec) {
        QSA_OBS_COUNTER("locate.probes", 1);
        QSA_OBS_COUNTER("locate.measurements", rec.ensembleSize);
        if (rec.failed)
            QSA_OBS_COUNTER("locate.probe_failures", 1);
        report.probes.push_back(rec);
        report.totalMeasurements += rec.ensembleSize;
        return rec;
    };

    // Every single-boundary probe goes through here so the trace gets
    // one span per probe, annotated with family/boundary/verdict.
    const auto probeOne =
        [&](std::size_t boundary,
            const assertions::EscalationPolicy &policy) {
            QSA_OBS_SPAN(span, "locate.probe");
            const ProbeRecord rec = prober.probe(boundary, policy);
            span.arg("family", probeFamilyName(rec.family))
                .arg("boundary", rec.boundary)
                .arg("verdict", rec.failed ? "fail" : "pass")
                .arg("p_value", rec.pValue)
                .arg("ensemble", rec.ensembleSize);
            return add(rec);
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
        for (const auto &rec :
             prober.probeAll(boundaries, cfg.holmBonferroni)) {
            add(rec);
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
    if (pruned_lo >= top)
        return report; // whole range certified equivalent
    if (!probeOne(top, explore).failed)
        return report;

    std::size_t lo = pruned_lo;
    std::size_t hi = top;
    std::vector<char> passed(top + 1, 0);
    passed[pruned_lo] = 1;
    std::set<std::size_t> failedSet{top};
    // Escalated-ensemble verdicts already delivered (at most one
    // confirmation per boundary, so the outer loop is bounded).
    std::vector<char> confirmedPass(top + 1, 0);
    std::vector<char> confirmedFail(top + 1, 0);
    confirmedPass[pruned_lo] = 1;
    bool located = true;
    while (true) {
        while (hi - lo > 1) {
            const std::size_t mid = lo + (hi - lo) / 2;
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

BugLocator::BugLocator(const circuit::Circuit &suspect,
                       const circuit::Circuit &reference,
                       const LocateConfig &config)
    : suspect(suspect), reference(reference), config(config)
{
    fatal_if(config.ensembleSize == 0,
             "probe ensemble size must be positive");
    fatal_if(config.maxEnsembleSize < config.ensembleSize,
             "escalation cap below the probe ensemble size");
    fatal_if(config.alpha <= 0.0 || config.alpha >= 1.0,
             "alpha must lie strictly between 0 and 1");
    // passThreshold <= alpha is legal: the inconclusive band is then
    // empty and probes simply never escalate (the pre-knob behaviour
    // for alpha >= 0.30 configs).
    fatal_if(config.passThreshold < 0.0 || config.passThreshold > 1.0,
             "escalation pass threshold ", config.passThreshold,
             " outside [0, 1]");
}

LocalizationReport
BugLocator::locate() const
{
    fatal_if(config.family == ProbeFamily::MixtureMarginal ||
                 config.family == ProbeFamily::RotatedMarginal,
             probeFamilyName(config.family), " probes assert on one "
             "register's marginal; call locateByPredicates(reg) "
             "instead");

    const std::size_t pruned =
        config.staticPruning
            ? analyze::equivalentPrefixBoundary(suspect, reference)
            : 0;

    if (config.family == ProbeFamily::SwapTest) {
        SwapProber prober(suspect, reference, config, nullptr);
        LocalizationReport report = runSearch(prober, config, pruned);
        report.decidedBy = ProbeFamily::SwapTest;
        resolveTailDivergence(report, suspect, reference,
                              prober.hiBoundary());
        annotate(report, suspect);
        return report;
    }

    MirrorProber prober(suspect, reference, config);
    LocalizationReport report = runSearch(prober, config, pruned);
    report.decidedBy = ProbeFamily::SegmentMirror;
    std::size_t probed_hi = prober.hiBoundary();

    if (config.family == ProbeFamily::Auto &&
        phaseAmbiguousVerdict(report, prober.hasMixtureSegments())) {
        // The mirror verdict cannot pin (or rule out) divergence
        // whose only trace is a relative phase: re-adjudicate with
        // the family whose witness is phase-sound and let it decide
        // the bracket. The mirror probes stay in the log — they are
        // the evidence the escalation was warranted. On programs too
        // wide for the two-copy probes the cheap verdict stands as
        // is (an Auto search must not die in a family it can only
        // escalate to).
        if (suspect.numQubits() > kSwapQubitGate) {
            warn("phase-ambiguous mirror verdict, but ",
                 suspect.numQubits(), " qubits exceeds the ",
                 kSwapQubitGate, "-qubit swap-test gate; keeping the "
                 "segment-mirror bracket unescalated");
            resolveTailDivergence(report, suspect, reference,
                                  probed_hi);
            annotate(report, suspect);
            return report;
        }
        try {
            SwapProber swapper(suspect, reference, config, nullptr);
            QSA_OBS_COUNTER("locate.swap_escalations", 1);
            obs::instant("locate.escalate_swap_test");
            LocalizationReport refined =
                runSearch(swapper, config, pruned);
            const bool swap_decides = refined.bugFound;
            LocalizationReport merged =
                swap_decides ? refined : report;
            merged.decidedBy = swap_decides
                                   ? ProbeFamily::SwapTest
                                   : ProbeFamily::SegmentMirror;
            merged.escalatedToSwapTest = true;
            std::vector<ProbeRecord> all = report.probes;
            all.insert(all.end(), refined.probes.begin(),
                       refined.probes.end());
            merged.probes = std::move(all);
            merged.totalMeasurements =
                report.totalMeasurements + refined.totalMeasurements;
            if (swap_decides)
                probed_hi = swapper.hiBoundary();
            report = std::move(merged);
        } catch (const DeriveError &err) {
            // The swap family's purity oracle is exact-only; when it
            // cannot derive (wide-measurement program past the
            // branch cap) the cheap verdict stands.
            warn("swap-test escalation unavailable (", err.what(),
                 "); keeping the segment-mirror bracket");
        }
    }

    resolveTailDivergence(report, suspect, reference, probed_hi);
    annotate(report, suspect);
    return report;
}

LocalizationReport
BugLocator::locateByPredicates(const circuit::QubitRegister &reg) const
{
    const std::size_t pruned =
        config.staticPruning
            ? analyze::equivalentPrefixBoundary(suspect, reference)
            : 0;

    if (config.family == ProbeFamily::RotatedMarginal) {
        RotatedProber prober(suspect, reference, config, reg);
        LocalizationReport report = runSearch(prober, config, pruned);
        report.decidedBy = ProbeFamily::RotatedMarginal;
        resolveTailDivergence(report, suspect, reference,
                              prober.hiBoundary());
        annotate(report, suspect);
        return report;
    }

    if (config.family == ProbeFamily::SwapTest) {
        SwapProber prober(suspect, reference, config, &reg);
        LocalizationReport report = runSearch(prober, config, pruned);
        report.decidedBy = ProbeFamily::SwapTest;
        resolveTailDivergence(report, suspect, reference,
                              prober.hiBoundary());
        annotate(report, suspect);
        return report;
    }

    PredicateProber prober(suspect, reference, config, reg, nullptr);
    LocalizationReport report = runSearch(prober, config, pruned);
    report.decidedBy = ProbeFamily::MixtureMarginal;
    std::size_t probed_hi = prober.hiBoundary();

    if (config.family == ProbeFamily::Auto &&
        suspect.numQubits() > kSwapQubitGate) {
        // An Auto search must not die constructing a family it may
        // never need: past the swap-test gate the marginal verdict
        // stands as is.
        warn("program too wide for swap-test escalation (",
             suspect.numQubits(), " > ", kSwapQubitGate,
             " qubits); keeping the mixture-marginal bracket");
    } else if (config.family == ProbeFamily::Auto) {
        try {
        // A register marginal is a first-*visible* witness, never a
        // defect-site witness: the bracket may sit instructions past
        // the defect (phase divergence transported into the marginal
        // by a later rotation), and an all-passing run cannot rule
        // phase divergence out. One swap-test probe decides whether
        // escalation is warranted: at the marginal bracket's
        // lastPassing boundary when a bracket exists (a failure there
        // proves the divergence predates the visible bracket), at
        // the top boundary otherwise.
        SwapProber swapper(suspect, reference, config, &reg);
        const assertions::EscalationPolicy decisive{
            config.maxEnsembleSize, config.maxEnsembleSize,
            config.passThreshold};
        const std::size_t checkAt =
            report.bugFound ? report.lastPassing
                            : swapper.hiBoundary();
        bool escalate = false;
        if (checkAt > 0) {
            QSA_OBS_SPAN(span, "locate.probe");
            const ProbeRecord check =
                swapper.probe(checkAt, decisive);
            span.arg("family", probeFamilyName(check.family))
                .arg("boundary", check.boundary)
                .arg("verdict", check.failed ? "fail" : "pass")
                .arg("p_value", check.pValue)
                .arg("ensemble", check.ensembleSize);
            QSA_OBS_COUNTER("locate.probes", 1);
            QSA_OBS_COUNTER("locate.measurements",
                            check.ensembleSize);
            if (check.failed)
                QSA_OBS_COUNTER("locate.probe_failures", 1);
            report.probes.push_back(check);
            report.totalMeasurements += check.ensembleSize;
            escalate = check.failed;
        }
        if (escalate) {
            QSA_OBS_COUNTER("locate.swap_escalations", 1);
            obs::instant("locate.escalate_swap_test");
            LocalizationReport refined =
                runSearch(swapper, config, pruned);
            LocalizationReport merged =
                refined.bugFound ? refined : report;
            merged.decidedBy = refined.bugFound
                                   ? ProbeFamily::SwapTest
                                   : ProbeFamily::MixtureMarginal;
            merged.escalatedToSwapTest = true;
            std::vector<ProbeRecord> all = report.probes;
            all.insert(all.end(), refined.probes.begin(),
                       refined.probes.end());
            merged.probes = std::move(all);
            merged.totalMeasurements =
                report.totalMeasurements + refined.totalMeasurements;
            if (refined.bugFound)
                probed_hi = swapper.hiBoundary();
            report = std::move(merged);
        }
        } catch (const DeriveError &err) {
            // The swap family's purity oracle is exact-only; when it
            // cannot derive (wide-measurement program past the
            // branch cap) the marginal verdict stands.
            warn("swap-test escalation unavailable (", err.what(),
                 "); keeping the mixture-marginal bracket");
        }
    }

    resolveTailDivergence(report, suspect, reference, probed_hi);
    annotate(report, suspect);
    return report;
}

LocalizationReport
BugLocator::locateByPredicates(const circuit::QubitRegister &reg_a,
                               const circuit::QubitRegister &reg_b) const
{
    fatal_if(config.family != ProbeFamily::SegmentMirror &&
                 config.family != ProbeFamily::MixtureMarginal,
             "scope-inherited two-register probes support "
             "ProbeFamily::MixtureMarginal only (got ",
             probeFamilyName(config.family), ")");
    const std::size_t pruned =
        config.staticPruning
            ? analyze::equivalentPrefixBoundary(suspect, reference)
            : 0;
    PredicateProber prober(suspect, reference, config, reg_a, &reg_b);
    LocalizationReport report = runSearch(prober, config, pruned);
    report.decidedBy = ProbeFamily::MixtureMarginal;
    resolveTailDivergence(report, suspect, reference,
                          prober.hiBoundary());
    annotate(report, suspect);
    return report;
}

} // namespace qsa::locate
