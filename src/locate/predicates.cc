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
#include "runtime/walk.hh"
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
 * The marginal of `state` over `qubits`, read in `frame`: the state is
 * first rotated by the frame's basis-change epilogue, so this is
 * exactly the distribution a probe carrying
 * appendFrameEpilogue(qubits, frame) samples.
 */
std::vector<double>
frameMarginal(const sim::StateVector &state,
              const std::vector<unsigned> &qubits, Frame frame)
{
    if (frame == Frame::Z)
        return state.marginalProbs(qubits);
    sim::StateVector rotated = state;
    for (unsigned q : qubits) {
        if (frame == Frame::Y)
            rotated.applyGate(sim::gates::sdg(), q);
        rotated.applyGate(sim::gates::h(), q);
    }
    return rotated.marginalProbs(qubits);
}

/** Weighted register marginal over a measurement-branch mixture, read
 *  in `frame` (frameMarginal of each branch). */
std::vector<double>
mixtureMarginal(const std::vector<circuit::ExecutionBranch> &branches,
                const std::vector<unsigned> &qubits, Frame frame)
{
    std::vector<double> probs(pow2(qubits.size()), 0.0);
    for (const auto &branch : branches) {
        const std::vector<double> marginal =
            frameMarginal(branch.state, qubits, frame);
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
 * The boundaries a derivation records: every one (`all`), or those in
 * the ascending list `sorted` (repeats allowed).
 */
struct Wanted
{
    const std::vector<std::size_t> &sorted;
    bool all = false;

    bool
    operator()(std::size_t b) const
    {
        return all || std::binary_search(sorted.begin(), sorted.end(), b);
    }

    /**
     * Where a pass recording them over `reference` ends: at the last
     * (the reference's end when every boundary is wanted), since
     * nothing after it is recorded. An overflow or a draw past it
     * would change no recorded predicate.
     */
    std::size_t
    end(const circuit::Circuit &reference) const
    {
        if (all)
            return reference.size();
        return sorted.empty() ? 0 : std::min(sorted.back(), reference.size());
    }
};

/**
 * Canonical store key of a derivation over the `wanted` boundaries of
 * `reference` on `qubits`: payload schema version, reference content
 * hash, probed qubits and boundary set ("all" for the dense form, else
 * the distinct boundaries in order). Everything an overlap derivation
 * depends on; predicate keys add the rest (predicateStoreKey), so a
 * hit is usable as-is and a version bump invalidates every old entry.
 */
std::string
storeKey(const circuit::Circuit &reference,
         const std::vector<unsigned> &qubits, const Wanted &wanted)
{
    std::ostringstream os;
    os << "v2:" << std::hex << reference.contentHash() << std::dec
       << ":q";
    for (std::size_t i = 0; i < qubits.size(); ++i)
        os << (i ? "," : "") << qubits[i];
    os << ":b";
    if (wanted.all) {
        os << "all";
    } else {
        std::vector<std::size_t> distinct = wanted.sorted;
        distinct.erase(std::unique(distinct.begin(), distinct.end()),
                       distinct.end());
        for (std::size_t i = 0; i < distinct.size(); ++i)
            os << (i ? "," : "") << distinct[i];
    }
    return os.str();
}

/**
 * Store key of a predicate-oracle derivation: storeKey, then the
 * frames in probe order and, for sampled derivations, the trial
 * budget and master seed (two sampled derivations agree only when
 * both match; an exact derivation depends on neither).
 */
std::string
predicateStoreKey(const circuit::Circuit &reference,
                  const std::vector<unsigned> &qubits,
                  const Wanted &wanted, const std::vector<Frame> &frames,
                  std::size_t sample_trials, std::uint64_t seed)
{
    std::ostringstream os;
    os << storeKey(reference, qubits, wanted) << ":f";
    for (Frame frame : frames)
        os << frameName(frame);
    if (sample_trials != 0) {
        os << ":sampled" << sample_trials << ":s" << std::hex << seed
           << std::dec;
    }
    return os.str();
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

/**
 * A store payload: {"v": 1, "total": total, "entries": entries}, one
 * entry per recorded boundary (and frame).
 */
std::string
payloadOf(std::size_t total, json::Value entries)
{
    json::Value doc = json::Value::object();
    doc.set("v", json::Value::integer(1));
    doc.set("total", json::Value::integer(total));
    doc.set("entries", std::move(entries));
    return doc.dump();
}

/**
 * Parse a payloadOf() document for `total` boundaries into a fresh
 * map, adding each entry with add(entry, map). False on any shape
 * mismatch (add returns false on a bad entry): the caller then just
 * re-derives.
 */
template <typename Map, typename Add>
bool
restoreEntries(const std::string &payload, std::size_t total, Map *out,
               const Add &add)
{
    json::Value doc;
    if (!json::Value::parse(payload, &doc))
        return false;
    try {
        const json::Value *v = doc.find("v");
        const json::Value *t = doc.find("total");
        const json::Value *entries = doc.find("entries");
        if (v == nullptr || v->asUint64() != 1 || t == nullptr ||
            t->asUint64() != total || entries == nullptr ||
            !entries->isArray())
            return false;
        Map restored;
        for (std::size_t i = 0; i < entries->size(); ++i) {
            if (!add(entries->at(i), restored))
                return false;
        }
        *out = std::move(restored);
        return true;
    } catch (const json::TypeError &) {
        return false;
    }
}

/** Serialize a predicate map for the oracle store (see build()). */
std::string
serialize(std::size_t total,
          const std::map<std::pair<std::size_t, Frame>, BoundaryPredicate>
              &preds)
{
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
    return payloadOf(total, std::move(entries));
}

/** Parse a stored predicate payload back into a map. */
bool
restore(const std::string &payload, std::size_t total,
        std::map<std::pair<std::size_t, Frame>, BoundaryPredicate> *out)
{
    const auto add = [](const json::Value &e, auto &restored) {
        const json::Value *b = e.find("b");
        const json::Value *f = e.find("f");
        const json::Value *k = e.find("k");
        if (b == nullptr || f == nullptr || k == nullptr)
            return false;
        const Frame *frame = std::find_if(
            std::begin(kAllFrames), std::end(kAllFrames),
            [&](Frame named) { return frameName(named) == f->asString(); });
        if (frame == std::end(kAllFrames))
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
                pred.expectedProbs.push_back(probs->at(p).asDouble());
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
                pred.referenceCounts.push_back(counts->at(c).asDouble());
            pred.referenceTrials = trials->asUint64();
            if (pred.referenceTrials == 0)
                return false;
        }
        restored.emplace(std::make_pair(b->asUint64(), *frame),
                         std::move(pred));
        return true;
    };
    return restoreEntries(payload, total, out, add);
}

/** Serialize an overlap oracle's purities for the oracle store. */
std::string
serialize(std::size_t total, const std::map<std::size_t, double> &purities)
{
    json::Value entries = json::Value::array();
    for (const auto &entry : purities) {
        json::Value e = json::Value::object();
        e.set("b", json::Value::integer(entry.first));
        e.set("p", json::Value::number(entry.second));
        entries.push(std::move(e));
    }
    return payloadOf(total, std::move(entries));
}

/** Parse stored purities back into a map. */
bool
restore(const std::string &payload, std::size_t total,
        std::map<std::size_t, double> *out)
{
    const auto add = [](const json::Value &e, auto &restored) {
        const json::Value *b = e.find("b");
        const json::Value *p = e.find("p");
        if (b == nullptr || p == nullptr)
            return false;
        restored.emplace(b->asUint64(), p->asDouble());
        return true;
    };
    return restoreEntries(payload, total, out, add);
}

/**
 * Fill `out` from the installed oracle store (common::artifactStore)
 * when its `kind` entry under key() restores and covered(b) holds for
 * every boundary b < total; otherwise run derive(), which fills `out`,
 * and store what it derived under that key. A restored payload that
 * misses a wanted entry is a miss: it is dropped and re-derived.
 */
template <typename Map, typename Key, typename Covered, typename Derive>
void
loadOrDerive(const char *kind, const Key &key, std::size_t total,
             Map &out, const Covered &covered, const Derive &derive)
{
    common::ArtifactStore *store = common::artifactStore();
    std::string name;
    if (store != nullptr) {
        name = key();
        std::string payload;
        if (store->load(kind, name, &payload) &&
            restore(payload, total, &out)) {
            bool hit = true;
            for (std::size_t b = 0; hit && b < total; ++b)
                hit = covered(b);
            if (hit)
                return;
            out.clear();
        }
    }
    derive();
    if (store != nullptr)
        store->store(kind, name, serialize(total, out));
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
    const Wanted wanted{sorted, boundaries == nullptr};

    // A persistent store (when installed) short-circuits a whole
    // derivation: a restored map must cover exactly the wanted
    // (boundary, frame) grid, otherwise it is treated as a miss.
    const auto covered = [&](std::size_t b) {
        return !wanted(b) ||
               std::all_of(frames.begin(), frames.end(), [&](Frame f) {
                   return preds.count({b, f}) != 0;
               });
    };
    const auto derive = [&](std::size_t sample_trials, const auto &pass) {
        loadOrDerive(
            "predicates",
            [&] {
                return predicateStoreKey(reference, reg.qubits(), wanted,
                                         frames, sample_trials, seed);
            },
            totalBoundaries, preds, covered, pass);
    };
    const auto sampled = [&] {
        fatal_if(options.sampleTrials == 0,
                 "sampled oracle needs a non-zero trial budget");
        sampledTrials = options.sampleTrials;
        derive(sampledTrials, [&] {
            buildSampled(reference, sorted, wanted.all, frames);
        });
    };

    if (options.mode == OracleMode::Sampled) {
        sampled();
        return;
    }
    try {
        derive(0, [&] {
            buildExact(reference, sorted, wanted.all, frames, resume);
        });
    } catch (const DeriveError &) {
        if (options.mode == OracleMode::Exact)
            throw;
        // Auto: past the branch cap the exact mixture is
        // unenumerable — re-derive by Monte-Carlo instead.
        QSA_OBS_COUNTER("locate.oracle.sampled_fallbacks", 1);
        preds.clear();
        sampled();
    }
}

void
PredicateOracle::buildExact(
    const circuit::Circuit &reference,
    const std::vector<std::size_t> &sortedBoundaries,
    bool allBoundaries, const std::vector<Frame> &frames,
    BranchMixture *resume)
{
    const Wanted wanted{sortedBoundaries, allBoundaries};
    // Timed so a warm store shows up as a ~0 derive total.
    QSA_OBS_TIMER(derive, "locate.oracle.derive");
    QSA_OBS_SPAN(span, "locate.oracle");
    span.arg("mode", "exact")
        .arg("boundaries",
             allBoundaries ? totalBoundaries : sortedBoundaries.size());

    const auto record =
        [&](std::size_t b,
            const std::vector<circuit::ExecutionBranch> &branches) {
            for (Frame frame : frames) {
                preds.emplace(std::make_pair(b, frame),
                              classify(mixtureMarginal(
                                  branches, reg.qubits(), frame)));
            }
        };

    // One incremental measurement-resolved pass: advance the branch
    // mixture through instruction k, then record the weighted register
    // marginal(s) as the boundary-(k+1) predicate. The pass starts from
    // the caller's kept mixture when it lies at or below the first
    // wanted boundary, and ends at the last (Wanted::end).
    const std::size_t first_wanted =
        allBoundaries || sortedBoundaries.empty() ? 0
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
    const std::size_t end = wanted.end(reference);
    for (std::size_t k = start; k < end; ++k) {
        circuit::stepBranches(reference, reference.instructions()[k],
                              branches, kMaxBranches);
        if (wanted(k + 1))
            record(k + 1, branches);
    }
}

void
PredicateOracle::buildSampled(
    const circuit::Circuit &reference,
    const std::vector<std::size_t> &sortedBoundaries,
    bool allBoundaries, const std::vector<Frame> &frames)
{
    const Wanted wanted{sortedBoundaries, allBoundaries};
    QSA_OBS_TIMER(derive, "locate.oracle.derive");
    QSA_OBS_SPAN(span, "locate.oracle");
    span.arg("mode", "sampled").arg("trials", sampledTrials);
    QSA_OBS_COUNTER("locate.oracle.sampled_derivations", 1);
    QSA_OBS_COUNTER("locate.oracle.sampled_trials", sampledTrials);

    // The wanted boundaries the pass reaches, once each: the walk's
    // cursor positions, boundary b being the cursor at instruction b.
    const std::size_t end = wanted.end(reference);
    std::vector<std::size_t> positions;
    for (std::size_t b = 0; b <= end; ++b) {
        if (wanted(b))
            positions.push_back(b);
    }
    // One flat tally per (position, frame), at k * 3 + frame.
    std::vector<std::vector<double>> tallies(3 * positions.size());
    for (std::size_t k = 0; k < positions.size(); ++k) {
        for (Frame frame : frames)
            tallies[3 * k + static_cast<std::size_t>(frame)].assign(
                pow2(reg.width()), 0.0);
    }

    // Trial t walks on Rng(seed).split(t), through the same kernels as
    // a Resimulate run (bit-identical amplitudes), from |0...0>: there
    // is no deterministic head, so every reset draws. At each wanted
    // boundary b, each node computes its marginal in each frame once,
    // and each of its trials draws one outcome from its own stream
    // Rng(seed ^ kSampleDrawSalt).split(3b + frame).split(t). The
    // draws never touch the trajectory streams, so recording an extra
    // boundary perturbs no later measurement, and the tallies do not
    // depend on the thread count or on the order the walk visits
    // nodes in.
    const Rng draws(seed ^ kSampleDrawSalt);
    const runtime::Tail tail({&reference, 0, end});
    for (std::size_t lo = 0; lo < sampledTrials; lo += runtime::kWalkChunk) {
        runtime::StreamBank bank;
        bank.seed(seed, lo, std::min(sampledTrials - lo, runtime::kWalkChunk));
        const auto draw = [&](std::size_t k, const sim::StateVector &state,
                              std::size_t first, std::size_t last) {
            if (k == positions.size())
                return; // a leaf: `end` is a position when wanted
            for (Frame frame : frames) {
                const std::size_t f = static_cast<std::size_t>(frame);
                const std::vector<double> marginal =
                    frameMarginal(state, reg.qubits(), frame);
                const Rng stream = draws.split(3 * positions[k] + f);
                std::vector<double> &tally = tallies[3 * k + f];
                for (std::size_t slot = first; slot < last; ++slot) {
                    Rng trial = stream.split(lo + bank.trial(slot));
                    tally[trial.discrete(marginal)] += 1.0;
                }
            }
        };
        runtime::walkTail(tail, sim::StateVector(reference.numQubits()),
                          bank, 0, bank.size(), positions, draw);
    }

    // Sampled predicates are always Distribution-with-counts:
    // classifying a finite sample as Classical/Superposition would
    // promote sampling noise into an exact hypothesis and hard-fail
    // probes on rare-but-possible outcomes. The two-sample test
    // downstream prices in both sides' noise.
    for (std::size_t k = 0; k < positions.size(); ++k) {
        for (Frame frame : frames) {
            BoundaryPredicate pred;
            pred.kind = assertions::AssertionKind::Distribution;
            pred.referenceCounts =
                std::move(tallies[3 * k + static_cast<std::size_t>(frame)]);
            pred.referenceTrials = sampledTrials;
            pred.expectedProbs.reserve(pred.referenceCounts.size());
            for (double c : pred.referenceCounts)
                pred.expectedProbs.push_back(
                    c / static_cast<double>(sampledTrials));
            preds.emplace(std::make_pair(positions[k], frame),
                          std::move(pred));
        }
    }
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
    const Wanted wanted{sorted, sorted.empty()};

    loadOrDerive(
        "overlap", [&] { return storeKey(reference, qubits, wanted); },
        totalBoundaries, purities,
        [&](std::size_t b) { return !wanted(b) || purities.count(b) != 0; },
        [&] {
            QSA_OBS_TIMER(derive, "locate.oracle.derive");
            QSA_OBS_SPAN(span, "locate.oracle");
            span.arg("mode", "overlap")
                .arg("boundaries",
                     wanted.all ? totalBoundaries : sorted.size());

            std::vector<circuit::ExecutionBranch> branches;
            branches.push_back(circuit::ExecutionBranch{
                1.0, sim::StateVector(reference.numQubits()), {}});
            if (wanted(0))
                purities.emplace(0, mixturePurity(branches, qubits));
            const std::size_t end = wanted.end(reference);
            for (std::size_t k = 0; k < end; ++k) {
                circuit::stepBranches(reference,
                                      reference.instructions()[k],
                                      branches, kMaxBranches);
                if (wanted(k + 1))
                    purities.emplace(k + 1,
                                     mixturePurity(branches, qubits));
            }
        });
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
