/**
 * @file
 * PredicateOracle / OverlapOracle implementation.
 */

#include "locate/predicates.hh"

#include <algorithm>
#include <cmath>

#include <sstream>

#include "circuit/executor.hh"
#include "circuit/scopes.hh"
#include "common/artifacts.hh"
#include "common/bits.hh"
#include "common/errors.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "obs/obs.hh"
#include "runtime/checkpoint.hh"
#include "sim/gates.hh"

namespace qsa::locate
{

namespace
{

/** Tolerance for classifying exact marginals. */
constexpr double kProbTol = 1e-9;

/**
 * Cap on the measurement-branch enumeration: 2^12 outcome histories
 * is far past any semiclassical program in the repo (one recycled
 * control qubit measured t times is 2^t branches) while still
 * bounding a pathological all-qubits-measured-repeatedly program.
 * Overflow is a designed qsa::DeriveError naming the measuring
 * instruction (circuit::stepBranches), never a silent truncation —
 * and in OracleMode::Auto it is the sampled-derivation trigger.
 */
constexpr std::size_t kMaxBranches = 4096;

/**
 * Salt separating the sampled oracle's per-boundary outcome-draw
 * streams from the trajectory streams. The draw at (boundary, frame,
 * trial) must not consume trajectory randomness: recording an extra
 * boundary would otherwise perturb every subsequent measurement of
 * the same trial, making the derivation depend on the probed
 * boundary set.
 */
constexpr std::uint64_t kSampleDrawSalt = 0x5a3d53edc0117ecULL;

BoundaryPredicate
classify(const std::vector<double> &probs)
{
    BoundaryPredicate pred;

    std::size_t argmax = 0;
    double maxp = 0.0;
    for (std::size_t v = 0; v < probs.size(); ++v) {
        if (probs[v] > maxp) {
            maxp = probs[v];
            argmax = v;
        }
    }
    if (maxp >= 1.0 - kProbTol) {
        pred.kind = assertions::AssertionKind::Classical;
        pred.expectedValue = argmax;
        return pred;
    }

    const double uniform = 1.0 / probs.size();
    const bool is_uniform =
        std::all_of(probs.begin(), probs.end(), [&](double p) {
            return std::abs(p - uniform) <= kProbTol;
        });
    if (is_uniform) {
        pred.kind = assertions::AssertionKind::Superposition;
        return pred;
    }

    pred.kind = assertions::AssertionKind::Distribution;
    pred.expectedProbs = probs;
    return pred;
}

/**
 * Weighted register marginal over a measurement-branch mixture, read
 * in `frame`: each branch state is rotated by the frame's
 * basis-change epilogue before marginalisation — exactly the
 * distribution a probe carrying frameEpilogue(reg, frame) samples.
 */
std::vector<double>
mixtureMarginal(const std::vector<circuit::ExecutionBranch> &branches,
                const std::vector<unsigned> &qubits, Frame frame)
{
    std::vector<double> probs(pow2(qubits.size()), 0.0);
    for (const auto &branch : branches) {
        std::vector<double> marginal;
        if (frame == Frame::Z) {
            marginal = branch.state.marginalProbs(qubits);
        } else {
            sim::StateVector rotated = branch.state;
            for (unsigned q : qubits) {
                if (frame == Frame::Y)
                    rotated.applyGate(sim::gates::sdg(), q);
                rotated.applyGate(sim::gates::h(), q);
            }
            marginal = rotated.marginalProbs(qubits);
        }
        for (std::size_t v = 0; v < probs.size(); ++v)
            probs[v] += branch.weight * marginal[v];
    }
    return probs;
}

/**
 * Mixture purity tr(rho^2), reduced to `qubits` (empty = the full
 * space, where the pairwise-fidelity form avoids materialising a
 * 2^n x 2^n density matrix).
 */
double
mixturePurity(const std::vector<circuit::ExecutionBranch> &branches,
              const std::vector<unsigned> &qubits)
{
    if (qubits.empty()) {
        double purity = 0.0;
        for (std::size_t i = 0; i < branches.size(); ++i) {
            purity += branches[i].weight * branches[i].weight;
            for (std::size_t j = i + 1; j < branches.size(); ++j) {
                purity += 2.0 * branches[i].weight *
                          branches[j].weight *
                          branches[i].state.fidelity(
                              branches[j].state);
            }
        }
        return purity;
    }

    // Weighted reduced density matrix, then tr(rho^2) = sum |rho_ij|^2
    // (rho is Hermitian).
    const std::uint64_t dim = pow2(qubits.size());
    sim::CMatrix rho(dim);
    for (const auto &branch : branches) {
        const sim::CMatrix branch_rho =
            branch.state.reducedDensityMatrix(qubits);
        for (std::uint64_t r = 0; r < dim; ++r) {
            for (std::uint64_t c = 0; c < dim; ++c) {
                rho.at(r, c) +=
                    branch.weight * branch_rho.at(r, c);
            }
        }
    }
    double purity = 0.0;
    for (std::uint64_t r = 0; r < dim; ++r) {
        for (std::uint64_t c = 0; c < dim; ++c)
            purity += std::norm(rho.at(r, c));
    }
    return purity;
}

/** Bytes of a branch mixture's states. */
std::size_t
mixtureBytes(const std::vector<circuit::ExecutionBranch> &branches)
{
    std::size_t bytes = 0;
    for (const auto &branch : branches)
        bytes += runtime::CheckpointStore::stateBytes(
            branch.state.numQubits());
    return bytes;
}

/**
 * Advance a kept mixture in place to boundary `to` (never backwards),
 * starting it at |0...0> when empty. An exception on the way (a
 * branch-cap overflow) drops the mixture before it propagates.
 */
void
advanceMixture(const circuit::Circuit &reference, BranchMixture &mixture,
               std::size_t to)
{
    if (mixture.branches.empty()) {
        mixture.boundary = 0;
        mixture.branches.push_back(circuit::ExecutionBranch{
            1.0, sim::StateVector(reference.numQubits()), {}});
    }
    try {
        for (; mixture.boundary < to; ++mixture.boundary) {
            circuit::stepBranches(
                reference, reference.instructions()[mixture.boundary],
                mixture.branches, kMaxBranches);
        }
    } catch (...) {
        mixture.branches.clear();
        mixture.kept = false;
        throw;
    }
}

/**
 * Canonical store key for a predicate-oracle derivation: payload
 * schema version, reference content hash, probed qubits, recorded
 * boundary set ("all" for the dense form), frames in probe order —
 * and, for sampled derivations, the trial budget and master seed
 * (two sampled derivations agree only when both match; an exact
 * derivation depends on neither). Everything the derivation depends
 * on is in the key, so a hit is usable as-is and a version bump
 * invalidates every old entry.
 */
std::string
predicateStoreKey(const circuit::Circuit &reference,
                  const std::vector<unsigned> &qubits,
                  const std::vector<std::size_t> *boundaries,
                  const std::vector<Frame> &frames,
                  std::size_t sample_trials, std::uint64_t seed)
{
    std::ostringstream os;
    os << "v2:" << std::hex << reference.contentHash() << std::dec
       << ":q";
    for (std::size_t i = 0; i < qubits.size(); ++i)
        os << (i ? "," : "") << qubits[i];
    os << ":b";
    if (boundaries == nullptr) {
        os << "all";
    } else {
        std::vector<std::size_t> sorted = *boundaries;
        std::sort(sorted.begin(), sorted.end());
        sorted.erase(std::unique(sorted.begin(), sorted.end()),
                     sorted.end());
        for (std::size_t i = 0; i < sorted.size(); ++i)
            os << (i ? "," : "") << sorted[i];
    }
    os << ":f";
    for (Frame frame : frames)
        os << frameName(frame);
    if (sample_trials != 0) {
        os << ":sampled" << sample_trials << ":s" << std::hex << seed
           << std::dec;
    }
    return os.str();
}

/**
 * Where a pass recording the wanted boundaries ends: at the last of
 * them (the reference's end when every boundary is wanted), since
 * nothing after it is recorded. An overflow or a draw past it would
 * change no recorded predicate.
 */
std::size_t
passEnd(const circuit::Circuit &reference,
        const std::vector<std::size_t> &sorted_boundaries, bool all)
{
    if (all)
        return reference.size();
    return sorted_boundaries.empty()
               ? 0
               : std::min(sorted_boundaries.back(), reference.size());
}

const char *
predicateKindTag(assertions::AssertionKind kind)
{
    switch (kind) {
      case assertions::AssertionKind::Classical: return "classical";
      case assertions::AssertionKind::Superposition:
          return "superposition";
      default: return "distribution";
    }
}

} // anonymous namespace

std::string
frameName(Frame frame)
{
    switch (frame) {
      case Frame::Z: return "Z";
      case Frame::X: return "X";
      case Frame::Y: return "Y";
    }
    panic("unknown measurement frame");
}

std::string
oracleModeName(OracleMode mode)
{
    switch (mode) {
      case OracleMode::Exact: return "exact";
      case OracleMode::Sampled: return "sampled";
      case OracleMode::Auto: return "auto";
    }
    panic("unknown oracle mode");
}

void
appendFrameEpilogue(circuit::Circuit &circ,
                    const std::vector<unsigned> &qubits, Frame frame)
{
    if (frame == Frame::Z)
        return;
    for (unsigned q : qubits) {
        if (frame == Frame::Y)
            circ.sdg(q);
        circ.h(q);
    }
}

PredicateOracle::PredicateOracle(const circuit::Circuit &reference,
                                 const circuit::QubitRegister &r,
                                 std::uint64_t seed_in,
                                 const OracleOptions &options)
    : reg(r), seed(seed_in)
{
    build(reference, nullptr, {Frame::Z}, options);
}

PredicateOracle::PredicateOracle(
    const circuit::Circuit &reference,
    const circuit::QubitRegister &r, std::uint64_t seed_in,
    const std::vector<std::size_t> &boundaries,
    const OracleOptions &options, BranchMixture *resume)
    : reg(r), seed(seed_in)
{
    build(reference, &boundaries, {Frame::Z}, options, resume);
}

PredicateOracle::PredicateOracle(
    const circuit::Circuit &reference,
    const circuit::QubitRegister &r, std::uint64_t seed_in,
    const std::vector<std::size_t> *boundaries,
    const std::vector<Frame> &frames,
    const OracleOptions &options)
    : reg(r), seed(seed_in)
{
    build(reference, boundaries, frames, options);
}

namespace
{

/** Serialize a predicate map for the oracle store (see build()). */
std::string
serializePredicates(
    std::size_t total,
    const std::map<std::pair<std::size_t, Frame>, BoundaryPredicate>
        &preds)
{
    json::Value doc = json::Value::object();
    doc.set("v", json::Value::integer(1));
    doc.set("total", json::Value::integer(total));
    json::Value entries = json::Value::array();
    for (const auto &entry : preds) {
        const BoundaryPredicate &pred = entry.second;
        json::Value e = json::Value::object();
        e.set("b", json::Value::integer(entry.first.first));
        e.set("f", json::Value::string(frameName(entry.first.second)));
        e.set("k",
              json::Value::string(predicateKindTag(pred.kind)));
        if (pred.kind == assertions::AssertionKind::Classical)
            e.set("value", json::Value::integer(pred.expectedValue));
        if (pred.kind == assertions::AssertionKind::Distribution) {
            json::Value probs = json::Value::array();
            for (double p : pred.expectedProbs)
                probs.push(json::Value::number(p));
            e.set("probs", std::move(probs));
        }
        if (pred.referenceTrials != 0) {
            json::Value counts = json::Value::array();
            for (double c : pred.referenceCounts)
                counts.push(json::Value::number(c));
            e.set("counts", std::move(counts));
            e.set("trials",
                  json::Value::integer(pred.referenceTrials));
        }
        entries.push(std::move(e));
    }
    doc.set("entries", std::move(entries));
    return doc.dump();
}

/**
 * Parse a stored predicate payload back into a map. Returns false on
 * any shape mismatch — the caller then just re-derives.
 */
bool
restorePredicates(
    const std::string &payload, std::size_t total,
    std::map<std::pair<std::size_t, Frame>, BoundaryPredicate> *out)
{
    json::Value doc;
    if (!json::Value::parse(payload, &doc))
        return false;
    try {
        if (doc.find("v") == nullptr ||
            doc.find("v")->asUint64() != 1 ||
            doc.find("total") == nullptr ||
            doc.find("total")->asUint64() != total)
            return false;
        const json::Value *entries = doc.find("entries");
        if (entries == nullptr || !entries->isArray())
            return false;
        std::map<std::pair<std::size_t, Frame>, BoundaryPredicate>
            restored;
        for (std::size_t i = 0; i < entries->size(); ++i) {
            const json::Value &e = entries->at(i);
            const json::Value *b = e.find("b");
            const json::Value *f = e.find("f");
            const json::Value *k = e.find("k");
            if (b == nullptr || f == nullptr || k == nullptr)
                return false;
            Frame frame = Frame::Z;
            if (f->asString() == "X")
                frame = Frame::X;
            else if (f->asString() == "Y")
                frame = Frame::Y;
            else if (f->asString() != "Z")
                return false;
            BoundaryPredicate pred;
            if (k->asString() == "classical") {
                pred.kind = assertions::AssertionKind::Classical;
                const json::Value *value = e.find("value");
                if (value == nullptr)
                    return false;
                pred.expectedValue = value->asUint64();
            } else if (k->asString() == "superposition") {
                pred.kind = assertions::AssertionKind::Superposition;
            } else if (k->asString() == "distribution") {
                pred.kind = assertions::AssertionKind::Distribution;
                const json::Value *probs = e.find("probs");
                if (probs == nullptr || !probs->isArray())
                    return false;
                for (std::size_t p = 0; p < probs->size(); ++p)
                    pred.expectedProbs.push_back(
                        probs->at(p).asDouble());
            } else {
                return false;
            }
            const json::Value *counts = e.find("counts");
            const json::Value *trials = e.find("trials");
            if ((counts == nullptr) != (trials == nullptr))
                return false;
            if (counts != nullptr) {
                if (!counts->isArray())
                    return false;
                for (std::size_t c = 0; c < counts->size(); ++c)
                    pred.referenceCounts.push_back(
                        counts->at(c).asDouble());
                pred.referenceTrials = trials->asUint64();
                if (pred.referenceTrials == 0)
                    return false;
            }
            restored.emplace(std::make_pair(b->asUint64(), frame),
                             std::move(pred));
        }
        *out = std::move(restored);
        return true;
    } catch (const json::TypeError &) {
        return false;
    }
}

} // anonymous namespace

void
PredicateOracle::build(const circuit::Circuit &reference,
                       const std::vector<std::size_t> *boundaries,
                       const std::vector<Frame> &frames,
                       const OracleOptions &options,
                       BranchMixture *resume)
{
    fatal_if(reg.width() == 0,
             "predicate oracle needs a non-empty register");
    fatal_if(frames.empty(),
             "predicate oracle needs at least one measurement frame");
    if (reg.width() > 24) {
        // Dense 2^width marginals are hopeless in *any* mode (the
        // sampled oracle still tallies per-value counts); the caller
        // can recover by asserting on a narrower register, so this
        // is a DeriveError, not a fatal.
        throw DeriveError(
            "register of " + std::to_string(reg.width()) + " qubits",
            "register too wide for dense boundary predicates (" +
                std::to_string(reg.width()) +
                " qubits > 24): assert on a narrower register");
    }

    totalBoundaries = reference.size() + 1;
    std::vector<std::size_t> sorted;
    if (boundaries != nullptr) {
        sorted = *boundaries;
        std::sort(sorted.begin(), sorted.end());
    }
    const bool all = boundaries == nullptr;

    if (options.mode == OracleMode::Sampled) {
        buildSampled(reference, sorted, all, frames,
                     options.sampleTrials);
        return;
    }
    try {
        buildExact(reference, sorted, all, frames, resume);
    } catch (const DeriveError &) {
        if (options.mode == OracleMode::Exact)
            throw;
        // Auto: past the branch cap the exact mixture is
        // unenumerable — re-derive by Monte-Carlo instead.
        QSA_OBS_COUNTER("locate.oracle.sampled_fallbacks", 1);
        preds.clear();
        buildSampled(reference, sorted, all, frames,
                     options.sampleTrials);
    }
}

void
PredicateOracle::buildExact(
    const circuit::Circuit &reference,
    const std::vector<std::size_t> &sortedBoundaries,
    bool allBoundaries, const std::vector<Frame> &frames,
    BranchMixture *resume)
{
    const auto wanted = [&](std::size_t b) {
        return allBoundaries ||
               std::binary_search(sortedBoundaries.begin(),
                                  sortedBoundaries.end(), b);
    };

    // A persistent store (when installed) short-circuits the whole
    // derivation: a restored map must cover exactly the wanted
    // (boundary, frame) grid, otherwise it is treated as a miss.
    common::ArtifactStore *store = common::artifactStore();
    std::string key;
    if (store != nullptr) {
        key = predicateStoreKey(
            reference, reg.qubits(),
            allBoundaries ? nullptr : &sortedBoundaries, frames, 0, 0);
        std::string payload;
        if (store->load("predicates", key, &payload) &&
            restorePredicates(payload, totalBoundaries, &preds)) {
            bool covered = true;
            for (std::size_t b = 0;
                 covered && b < totalBoundaries; ++b) {
                if (!wanted(b))
                    continue;
                for (Frame frame : frames)
                    covered = covered &&
                              preds.count({b, frame}) != 0;
            }
            if (covered)
                return;
            preds.clear();
        }
    }

    {
        // Timed so a warm store shows up as a ~0 derive total.
        QSA_OBS_TIMER(derive, "locate.oracle.derive");
        QSA_OBS_SPAN(span, "locate.oracle");
        span.arg("mode", "exact")
            .arg("boundaries", allBoundaries ? totalBoundaries
                                             : sortedBoundaries.size());

        const auto record =
            [&](std::size_t b,
                const std::vector<circuit::ExecutionBranch>
                    &branches) {
                for (Frame frame : frames) {
                    preds.emplace(std::make_pair(b, frame),
                                  classify(mixtureMarginal(
                                      branches, reg.qubits(),
                                      frame)));
                }
            };

        // One incremental measurement-resolved pass: advance the
        // branch mixture through instruction k, then record the
        // weighted register marginal(s) as the boundary-(k+1)
        // predicate. The pass starts from the caller's kept mixture
        // when it lies at or below the first wanted boundary, and
        // ends at the last (passEnd).
        const std::size_t first_wanted =
            allBoundaries || sortedBoundaries.empty()
                ? 0
                : sortedBoundaries.front();
        std::vector<circuit::ExecutionBranch> branches;
        std::size_t start = 0;
        if (resume != nullptr && resume->kept &&
            resume->boundary <= first_wanted) {
            advanceMixture(reference, *resume,
                           std::min(resume->target, first_wanted));
            start = resume->boundary;
            if (mixtureBytes(resume->branches) >
                runtime::CheckpointStore::kBudgetBytes) {
                branches = std::move(resume->branches);
                resume->branches.clear();
                resume->kept = false;
            } else {
                branches = resume->branches;
            }
        } else {
            branches.push_back(circuit::ExecutionBranch{
                1.0, sim::StateVector(reference.numQubits()), {}});
        }
        span.arg("resumed", start);

        if (wanted(start))
            record(start, branches);
        const std::size_t end =
            passEnd(reference, sortedBoundaries, allBoundaries);
        for (std::size_t k = start; k < end; ++k) {
            circuit::stepBranches(reference,
                                  reference.instructions()[k],
                                  branches, kMaxBranches);
            if (wanted(k + 1))
                record(k + 1, branches);
        }
    }

    if (store != nullptr)
        store->store("predicates", key,
                     serializePredicates(totalBoundaries, preds));
}

void
PredicateOracle::buildSampled(
    const circuit::Circuit &reference,
    const std::vector<std::size_t> &sortedBoundaries,
    bool allBoundaries, const std::vector<Frame> &frames,
    std::size_t trials)
{
    fatal_if(trials == 0,
             "sampled oracle needs a non-zero trial budget");
    sampledTrials = trials;

    const auto wanted = [&](std::size_t b) {
        return allBoundaries ||
               std::binary_search(sortedBoundaries.begin(),
                                  sortedBoundaries.end(), b);
    };

    common::ArtifactStore *store = common::artifactStore();
    std::string key;
    if (store != nullptr) {
        key = predicateStoreKey(
            reference, reg.qubits(),
            allBoundaries ? nullptr : &sortedBoundaries, frames,
            trials, seed);
        std::string payload;
        if (store->load("predicates", key, &payload) &&
            restorePredicates(payload, totalBoundaries, &preds)) {
            bool covered = true;
            for (std::size_t b = 0;
                 covered && b < totalBoundaries; ++b) {
                if (!wanted(b))
                    continue;
                for (Frame frame : frames)
                    covered = covered &&
                              preds.count({b, frame}) != 0;
            }
            if (covered)
                return;
            preds.clear();
        }
    }

    {
        QSA_OBS_TIMER(derive, "locate.oracle.derive");
        QSA_OBS_SPAN(span, "locate.oracle");
        span.arg("mode", "sampled").arg("trials", trials);
        QSA_OBS_COUNTER("locate.oracle.sampled_derivations", 1);
        QSA_OBS_COUNTER("locate.oracle.sampled_trials", trials);

        // Per-(boundary, frame) outcome tallies over all trials.
        std::map<std::pair<std::size_t, Frame>, std::vector<double>>
            counts;

        // Draw one outcome of trial t's state at boundary b in each
        // frame. The draw stream is keyed by (boundary, frame,
        // trial) and independent of the trajectory stream: recording
        // an extra boundary must not perturb the trajectory's later
        // measurements, or the derivation would depend on the probed
        // boundary set.
        const auto drawAt = [&](std::size_t b, std::size_t trial,
                                const sim::StateVector &state) {
            for (Frame frame : frames) {
                std::vector<double> marginal;
                if (frame == Frame::Z) {
                    marginal = state.marginalProbs(reg.qubits());
                } else {
                    sim::StateVector rotated = state;
                    for (unsigned q : reg.qubits()) {
                        if (frame == Frame::Y)
                            rotated.applyGate(sim::gates::sdg(), q);
                        rotated.applyGate(sim::gates::h(), q);
                    }
                    marginal = rotated.marginalProbs(reg.qubits());
                }
                Rng draw =
                    Rng(seed ^ kSampleDrawSalt)
                        .split(b * 3 +
                               static_cast<std::size_t>(frame))
                        .split(trial);
                std::vector<double> &tally = counts[{b, frame}];
                if (tally.empty())
                    tally.assign(pow2(reg.width()), 0.0);
                tally[draw.discrete(marginal)] += 1.0;
            }
        };

        // One sampled trajectory per trial, stepped with the same
        // interpreter as a Resimulate run (bit-identical
        // amplitudes), its RNG stream keyed by the trial index — the
        // tallies are independent of thread count and iteration
        // order by construction.
        const std::size_t end =
            passEnd(reference, sortedBoundaries, allBoundaries);
        for (std::size_t t = 0; t < trials; ++t) {
            Rng traj = Rng(seed).split(t);
            sim::StateVector state(reference.numQubits());
            std::map<std::string, std::uint64_t> meas;
            if (wanted(0))
                drawAt(0, t, state);
            for (std::size_t k = 0; k < end; ++k) {
                circuit::stepInstruction(reference,
                                         reference.instructions()[k],
                                         state, meas, traj);
                if (wanted(k + 1))
                    drawAt(k + 1, t, state);
            }
        }

        // Sampled predicates are always Distribution-with-counts:
        // classifying a finite sample as Classical/Superposition
        // would promote sampling noise into an exact hypothesis and
        // hard-fail probes on rare-but-possible outcomes. The
        // two-sample test downstream prices in both sides' noise.
        for (auto &entry : counts) {
            BoundaryPredicate pred;
            pred.kind = assertions::AssertionKind::Distribution;
            pred.referenceCounts = std::move(entry.second);
            pred.referenceTrials = trials;
            pred.expectedProbs.reserve(pred.referenceCounts.size());
            for (double c : pred.referenceCounts)
                pred.expectedProbs.push_back(
                    c / static_cast<double>(trials));
            preds.emplace(entry.first, std::move(pred));
        }
    }

    if (store != nullptr)
        store->store("predicates", key,
                     serializePredicates(totalBoundaries, preds));
}

const BoundaryPredicate &
PredicateOracle::at(std::size_t boundary, Frame frame) const
{
    fatal_if(boundary >= totalBoundaries, "boundary ", boundary,
             " beyond the reference program (", totalBoundaries - 1,
             " instructions)");
    const auto it = preds.find({boundary, frame});
    fatal_if(it == preds.end(), "boundary ", boundary, " (frame ",
             frameName(frame), ") was not recorded by this oracle");
    return it->second;
}

assertions::AssertionSpec
PredicateOracle::specAt(std::size_t boundary,
                        const std::string &breakpoint, double alpha,
                        Frame frame) const
{
    const BoundaryPredicate &pred = at(boundary, frame);

    assertions::AssertionSpec spec;
    spec.kind = pred.kind;
    spec.breakpoint = breakpoint;
    spec.regA = reg;
    spec.expectedValue = pred.expectedValue;
    spec.expectedProbs = pred.expectedProbs;
    spec.referenceCounts = pred.referenceCounts;
    spec.alpha = alpha;
    spec.name = "predicate@" + std::to_string(boundary);
    if (frame != Frame::Z)
        spec.name += "[" + frameName(frame) + "]";
    return spec;
}

namespace
{

/** Canonical overlap-oracle store key (see predicateStoreKey). */
std::string
overlapStoreKey(const circuit::Circuit &reference,
                const std::vector<unsigned> &qubits,
                const std::vector<std::size_t> &boundaries)
{
    std::ostringstream os;
    os << "v2:" << std::hex << reference.contentHash() << std::dec
       << ":q";
    for (std::size_t i = 0; i < qubits.size(); ++i)
        os << (i ? "," : "") << qubits[i];
    os << ":b";
    if (boundaries.empty()) {
        os << "all";
    } else {
        std::vector<std::size_t> sorted = boundaries;
        std::sort(sorted.begin(), sorted.end());
        sorted.erase(std::unique(sorted.begin(), sorted.end()),
                     sorted.end());
        for (std::size_t i = 0; i < sorted.size(); ++i)
            os << (i ? "," : "") << sorted[i];
    }
    return os.str();
}

std::string
serializePurities(std::size_t total,
                  const std::map<std::size_t, double> &purities)
{
    json::Value doc = json::Value::object();
    doc.set("v", json::Value::integer(1));
    doc.set("total", json::Value::integer(total));
    json::Value entries = json::Value::array();
    for (const auto &entry : purities) {
        json::Value e = json::Value::object();
        e.set("b", json::Value::integer(entry.first));
        e.set("p", json::Value::number(entry.second));
        entries.push(std::move(e));
    }
    doc.set("entries", std::move(entries));
    return doc.dump();
}

bool
restorePurities(const std::string &payload, std::size_t total,
                std::map<std::size_t, double> *out)
{
    json::Value doc;
    if (!json::Value::parse(payload, &doc))
        return false;
    try {
        if (doc.find("v") == nullptr ||
            doc.find("v")->asUint64() != 1 ||
            doc.find("total") == nullptr ||
            doc.find("total")->asUint64() != total)
            return false;
        const json::Value *entries = doc.find("entries");
        if (entries == nullptr || !entries->isArray())
            return false;
        std::map<std::size_t, double> restored;
        for (std::size_t i = 0; i < entries->size(); ++i) {
            const json::Value &e = entries->at(i);
            const json::Value *b = e.find("b");
            const json::Value *p = e.find("p");
            if (b == nullptr || p == nullptr)
                return false;
            restored.emplace(b->asUint64(), p->asDouble());
        }
        *out = std::move(restored);
        return true;
    } catch (const json::TypeError &) {
        return false;
    }
}

} // anonymous namespace

OverlapOracle::OverlapOracle(const circuit::Circuit &reference,
                             const std::vector<unsigned> &qubits,
                             const std::vector<std::size_t> &boundaries)
{
    if (!qubits.empty() && qubits.size() > 10) {
        // Recoverable by scoping the comparator to fewer qubits —
        // thrown so a serve daemon fails the request, not itself.
        throw DeriveError(
            "comparator register of " +
                std::to_string(qubits.size()) + " qubits",
            "comparator register too wide for reduced-density "
            "purities (" + std::to_string(qubits.size()) +
                " qubits > 10): scope the swap-test comparator to a "
                "narrower register");
    }

    totalBoundaries = reference.size() + 1;
    std::vector<std::size_t> sorted = boundaries;
    std::sort(sorted.begin(), sorted.end());
    const auto wanted = [&](std::size_t b) {
        return sorted.empty() ||
               std::binary_search(sorted.begin(), sorted.end(), b);
    };

    common::ArtifactStore *store = common::artifactStore();
    std::string key;
    if (store != nullptr) {
        key = overlapStoreKey(reference, qubits, boundaries);
        std::string payload;
        if (store->load("overlap", key, &payload) &&
            restorePurities(payload, totalBoundaries, &purities)) {
            bool covered = true;
            for (std::size_t b = 0;
                 covered && b < totalBoundaries; ++b)
                covered = !wanted(b) || purities.count(b) != 0;
            if (covered)
                return;
            purities.clear();
        }
    }

    {
        QSA_OBS_TIMER(derive, "locate.oracle.derive");

        std::vector<circuit::ExecutionBranch> branches;
        branches.push_back(circuit::ExecutionBranch{
            1.0, sim::StateVector(reference.numQubits()), {}});

        if (wanted(0))
            purities.emplace(0, mixturePurity(branches, qubits));
        const std::size_t end = passEnd(reference, sorted, sorted.empty());
        for (std::size_t k = 0; k < end; ++k) {
            circuit::stepBranches(reference,
                                  reference.instructions()[k],
                                  branches, kMaxBranches);
            if (wanted(k + 1))
                purities.emplace(k + 1,
                                 mixturePurity(branches, qubits));
        }
    }

    if (store != nullptr)
        store->store("overlap", key,
                     serializePurities(totalBoundaries, purities));
}

double
OverlapOracle::purityAt(std::size_t boundary) const
{
    fatal_if(boundary >= totalBoundaries, "boundary ", boundary,
             " beyond the reference program (", totalBoundaries - 1,
             " instructions)");
    const auto it = purities.find(boundary);
    fatal_if(it == purities.end(), "boundary ", boundary,
             " was not recorded by this overlap oracle");
    return it->second;
}

std::vector<ScopePredicate>
scopeDerivedPredicates(const circuit::Circuit &circ)
{
    std::vector<ScopePredicate> scoped;
    for (const auto &pair : circuit::scopeBreakpointPairs(circ)) {
        ScopePredicate computed;
        computed.kind = assertions::AssertionKind::Entangled;
        computed.boundary = circ.breakpointPosition(pair.computed);
        computed.label = pair.computed;
        scoped.push_back(std::move(computed));

        ScopePredicate uncomputed;
        uncomputed.kind = assertions::AssertionKind::Product;
        uncomputed.boundary = circ.breakpointPosition(pair.uncomputed);
        uncomputed.label = pair.uncomputed;
        scoped.push_back(std::move(uncomputed));
    }

    std::sort(scoped.begin(), scoped.end(),
              [](const ScopePredicate &a, const ScopePredicate &b) {
                  return a.boundary < b.boundary;
              });
    return scoped;
}

} // namespace qsa::locate
