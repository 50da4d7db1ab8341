/**
 * @file
 * EnsembleEngine implementation.
 */

#include "runtime/ensemble.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>

#include "circuit/executor.hh"
#include "common/logging.hh"
#include "obs/obs.hh"
#include "runtime/streams.hh"
#include "runtime/walk.hh"

namespace qsa::runtime
{

/**
 * Everything a gather at one breakpoint needs, built once per engine
 * and shared by both modes (see ensemble.hh): the deterministic head's
 * final state (simulated once), the number of RNG draws the head's
 * resets would have consumed per trial, and the nondeterministic tail
 * after it, up to the truncation point.
 */
struct BreakpointPlan
{
    BreakpointPlan(Head head_in, const InstructionRange &range)
        : head(std::move(head_in)), tail(range)
    {
    }

    /** Head of the truncated program. */
    Head head;

    /** The instructions after the head (possibly none). */
    Tail tail;

    /** Paired engines only: the reference's prefix at the same
     *  boundary, as a plan of its own. */
    std::unique_ptr<const BreakpointPlan> reference;
};

namespace
{

/** Contiguous trial range [lo, hi) of shard s out of num_shards. */
std::pair<std::size_t, std::size_t>
shardRange(std::size_t s, std::size_t num_shards, std::size_t n)
{
    const std::size_t base = n / num_shards;
    const std::size_t rem = n % num_shards;
    const std::size_t lo = s * base + std::min(s, rem);
    return {lo, lo + base + (s < rem ? 1 : 0)};
}

/**
 * Reset outcomes at least this certain are treated as deterministic
 * when extending a head. An uncached run taking the other branch is
 * below this probability per reset — the quantified slack in the
 * head's bit-identity contract (ensemble.hh).
 */
constexpr double kDeterministicTol = 1e-12;

/** Hash-chain value of the empty prefix (CheckpointKey::chain). */
constexpr std::uint64_t kChainSeed = 0x71c3c4e8b0a5d2f9ULL;

/** First instruction that ends every deterministic head. */
bool
endsHead(const circuit::Instruction &inst)
{
    return inst.kind == circuit::GateKind::Measure ||
           !inst.condLabel.empty();
}

/**
 * Extend the deterministic head of the range [begin, end) of `circ`
 * into `state` (the state after the instructions before `begin`; at
 * begin 0, |0...0> on the qubits the range touches): unitary gates
 * and markers always; resets only when the current state fixes their
 * implicit measurement outcome; stop at the first Measure or
 * classically-conditioned instruction (there is no record to
 * condition on yet — a valid program measures first). Returns where
 * the head ends; `draws` accumulates the per-trial RNG draws the
 * head's resets would have consumed. `at_marker(i)` runs at every
 * marker i passed, with `state` the state before it.
 */
template <typename AtMarker>
std::size_t
extendDeterministicHead(const circuit::Circuit &circ, std::size_t begin,
                        std::size_t end, sim::StateVector &state,
                        std::size_t &draws, AtMarker &&at_marker)
{
    const auto &insts = circ.instructions();
    std::size_t head = begin;
    for (; head < end; ++head) {
        const circuit::Instruction &inst = insts[head];
        if (endsHead(inst))
            break;
        if (inst.kind == circuit::GateKind::Breakpoint) {
            at_marker(head);
            continue;
        }
        if (inst.kind == circuit::GateKind::PrepZ) {
            const unsigned q = inst.targets[0];
            const double p1 = state.probabilityOne(q);
            if (p1 > kDeterministicTol && p1 < 1.0 - kDeterministicTol)
                break; // genuinely random reset: tail territory
            const unsigned outcome = p1 >= 0.5 ? 1 : 0;
            // One bernoulli draw the uncached run would have made.
            ++draws;
            state.projectQubit(q, outcome, outcome ? p1 : 1.0 - p1);
            if (outcome != (inst.bit & 1))
                state.applyGate(sim::Mat2{0.0, 1.0, 1.0, 0.0}, q);
            continue;
        }
        circuit::applyUnitaryInstruction(circ, inst, state);
    }
    return head;
}

/**
 * The mirror's readout on two pure states of one width: [F, 1 - F],
 * F = |<a|b>|^2 clamped to [0, 1]. Measuring `a` in a basis that
 * contains `b` finds `b` with probability F: the chance that the
 * reference's adjoint, run after the program's prefix, returns the
 * reference's prologue state.
 */
std::vector<double>
mirrorProbs(const sim::StateVector &a, const sim::StateVector &b)
{
    const double f = std::min(1.0, std::max(0.0, a.fidelity(b)));
    return {f, 1.0 - f};
}

/**
 * A mirror pairing's stops in `ref`: for each marker of the program's
 * prefix [0, end), and last for `end` itself, the position in `ref`
 * after as many state-changing instructions as the program holds
 * there (past ref's end when ref holds fewer). The last is where the
 * reference's prefix ends, so the markers a probe program carries do
 * not move it; at the others the reference's head stores checkpoints,
 * as the program's head does at its markers.
 */
std::vector<std::size_t>
mirrorStops(const circuit::Circuit &program, std::size_t end,
            const circuit::Circuit &ref)
{
    const auto marker = [](const circuit::Instruction &inst) {
        return inst.kind == circuit::GateKind::Breakpoint;
    };
    std::vector<std::size_t> counts;
    std::size_t gates = 0;
    for (std::size_t i = 0; i < end; ++i) {
        if (marker(program.instructions()[i]))
            counts.push_back(gates);
        else
            ++gates;
    }
    counts.push_back(gates);
    std::vector<std::size_t> stops;
    std::size_t pos = 0;
    std::size_t seen = 0;
    for (const std::size_t count : counts) {
        for (; seen < count && pos < ref.size(); ++pos) {
            if (!marker(ref.instructions()[pos]))
                ++seen;
        }
        stops.push_back(seen < count ? ref.size() + 1 : pos);
    }
    return stops;
}

/**
 * Read the leaf `state` of `plan`'s walk, reached by the bank's slots
 * [lo, hi), out over `qubits`: `emit(probs, first, last)` gets an
 * outcome distribution once per node, with the slots it covers. A
 * plain plan's leaf is read at once, through its marginal, and so is
 * a mirror plan's, through mirrorProbs against the reference's head
 * state. A swap-test plan's trials first discard the draws the
 * reference head's resets would have made, then walk the reference's
 * tail over [lo, hi) on the calling thread, and each reference leaf
 * emits comparatorProbs(state, its state, compared). Returns the path
 * segments that walk adds: its nodes, less the root, which continues
 * this leaf's segment.
 */
template <typename Emit>
std::size_t
readLeaf(const BreakpointPlan &plan, const EngineOptions &options,
         const sim::StateVector &state, const std::vector<unsigned> &qubits,
         StreamBank &bank, std::size_t lo, std::size_t hi, const Emit &emit)
{
    if (plan.reference == nullptr) {
        emit(state.marginalProbs(qubits), lo, hi);
        return 0;
    }
    const BreakpointPlan &ref = *plan.reference;
    if (options.pairing == Pairing::Mirror) {
        emit(mirrorProbs(state, ref.head.state), lo, hi);
        return 0;
    }
    bank.discard(lo, hi, ref.head.draws);
    return walkTail(ref.tail, ref.head.state, bank, lo, hi, {},
                    [&](std::size_t, const sim::StateVector &ref_state,
                        std::size_t first, std::size_t last) {
                        emit(comparatorProbs(state, ref_state,
                                             options.compared),
                             first, last);
                    }) -
           1;
}

/**
 * The marginal over `qubits` of the single run of the truncated
 * program that SampleFinalState samples from (stream Rng(seed).split(0),
 * ensemble.hh), as its leaf reads it (readLeaf): the plan's head state
 * itself when nothing follows it and no reference is walked, else a
 * one-trial walk of the tail from it.
 */
std::vector<double>
finalMarginal(const BreakpointPlan &plan, const EngineOptions &options,
              std::uint64_t seed, const std::vector<unsigned> &qubits)
{
    std::vector<double> marginal;
    const auto keep = [&](std::vector<double> probs, std::size_t,
                          std::size_t) { marginal = std::move(probs); };
    StreamBank bank;
    const InstructionRange &tail = plan.tail.range;
    if (tail.begin == tail.end &&
        (plan.reference == nullptr || options.pairing == Pairing::Mirror)) {
        readLeaf(plan, options, plan.head.state, qubits, bank, 0, 1, keep);
        return marginal;
    }

    bank.seed(seed, 0, 1);
    bank.discard(0, 1, plan.head.draws);
    walkTail(plan.tail, plan.head.state, bank, 0, 1, {},
             [&](std::size_t, const sim::StateVector &state, std::size_t lo,
                 std::size_t hi) {
                 readLeaf(plan, options, state, qubits, bank, lo, hi, keep);
             });
    return marginal;
}

/**
 * SampleFinalState's shots: shot m maps a uniform from
 * Rng(seed).split(m + 1) through `sampler`, in contiguous shards, one
 * per thread of `fan_out` (inline when null).
 */
void
sampleShots(const CdfSampler &sampler, std::uint64_t seed,
            std::vector<std::uint64_t> &out, ThreadPool *fan_out)
{
    const Rng master(seed);
    const auto sample = [&](std::size_t lo, std::size_t hi) {
        for (std::size_t m = lo; m < hi; ++m) {
            Rng rng = master.split(m + 1);
            out[m] = sampler.sample(rng.uniform());
        }
    };
    if (fan_out == nullptr) {
        sample(0, out.size());
        return;
    }
    const std::size_t num_shards =
        std::min<std::size_t>(fan_out->concurrency(), out.size());
    fan_out->parallelFor(num_shards, [&](std::size_t s) {
        const auto [lo, hi] = shardRange(s, num_shards, out.size());
        sample(lo, hi);
    });
}

} // anonymous namespace

const char *
ensembleModeName(EnsembleMode mode)
{
    return mode == EnsembleMode::Resimulate ? "resimulate"
                                            : "sample_final_state";
}

std::vector<double>
comparatorProbs(const sim::StateVector &a, const sim::StateVector &b,
                const std::vector<unsigned> &compared)
{
    double overlap = 0.0;
    if (compared.empty()) {
        overlap = a.fidelity(b);
    } else {
        // tr(rho sigma) = sum_rc rho_rc sigma_cr, and sigma is
        // Hermitian, so each term is rho_rc conj(sigma_rc).
        const sim::CMatrix rho = a.reducedDensityMatrix(compared);
        const sim::CMatrix sigma = b.reducedDensityMatrix(compared);
        for (std::size_t r = 0; r < rho.dim(); ++r) {
            for (std::size_t c = 0; c < rho.dim(); ++c)
                overlap += (rho.at(r, c) * std::conj(sigma.at(r, c))).real();
        }
    }
    overlap = std::min(1.0, std::max(0.0, overlap));
    return {0.5 * (1.0 + overlap), 0.5 * (1.0 - overlap)};
}

// --- CdfSampler ------------------------------------------------------------

CdfSampler::CdfSampler(const std::vector<double> &probs)
{
    panic_if(probs.empty(), "CdfSampler needs a non-empty distribution");
    cdf.resize(probs.size());
    double running = 0.0;
    for (std::size_t i = 0; i < probs.size(); ++i) {
        panic_if(probs[i] < 0.0 || std::isnan(probs[i]),
                 "CdfSampler weights must be non-negative");
        running += probs[i];
        cdf[i] = running;
    }
    panic_if(running <= 0.0,
             "CdfSampler weights must have a positive sum");
}

std::size_t
CdfSampler::sample(double u) const
{
    const double v = u * cdf.back();
    std::size_t idx = static_cast<std::size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), v) - cdf.begin());
    if (idx >= cdf.size()) {
        // u * total rounded up to total itself; walk back to the last
        // positive-width bin. upper_bound otherwise never lands on a
        // zero-width (zero-probability) bin.
        idx = cdf.size() - 1;
        while (idx > 0 && cdf[idx] == cdf[idx - 1])
            --idx;
    }
    return idx;
}

// --- EnsembleEngine --------------------------------------------------------

EnsembleEngine::EnsembleEngine(const circuit::Circuit &prog,
                               unsigned num_threads,
                               EngineOptions opts)
    : program(&prog), numThreads(num_threads), options(std::move(opts))
{
    if (const circuit::Circuit *ref = options.reference) {
        fatal_if(ref->numQubits() != prog.numQubits(),
                 "a paired engine's reference has ", ref->numQubits(),
                 " qubits, its program ", prog.numQubits());
    }
    for (const unsigned q : options.compared)
        fatal_if(q >= prog.numQubits(), "compared qubit ", q,
                 " out of range");
}

ThreadPool &
EnsembleEngine::pool()
{
    // Deferred so constructing an engine (or an AssertionChecker that
    // never checks anything) spawns no threads and does not
    // instantiate the shared pool.
    std::call_once(poolOnce, [this] {
        poolPtr = &ThreadPool::resolve(numThreads, ownedPool);
    });
    return *poolPtr;
}

template <typename Key, typename Value, typename Build>
std::shared_ptr<const Value>
EnsembleEngine::singleFlight(std::map<Key, Claim<Value>> &cache,
                             const Key &key, const Build &build,
                             bool &built)
{
    // Find-or-claim under the lock, build outside it.
    std::optional<std::promise<std::shared_ptr<const Value>>> promise;
    std::shared_future<std::shared_ptr<const Value>> future;
    std::uint64_t id = 0;
    {
        std::lock_guard<std::mutex> lock(cacheMutex);
        const auto it = cache.find(key);
        if (it != cache.end()) {
            future = it->second.future;
        } else {
            promise.emplace();
            future = promise->get_future().share();
            id = ++nextClaim;
            cache.emplace(key, Claim<Value>{future, id});
        }
    }
    built = promise.has_value();
    if (built) {
        try {
            promise->set_value(build());
        } catch (...) {
            // A qsa::Error (an unknown breakpoint, a condition on a
            // label nothing measured) or bad_alloc unwinds here: hand
            // racers the exception and drop the claim so later calls
            // retry instead of hitting a broken promise forever. Evict
            // only our own claim — a clearCache() plus re-claim may
            // have installed a successor under the same key.
            promise->set_exception(std::current_exception());
            std::lock_guard<std::mutex> lock(cacheMutex);
            const auto it = cache.find(key);
            if (it != cache.end() && it->second.id == id)
                cache.erase(it);
            throw;
        }
    }
    return future.get();
}

std::size_t
EnsembleEngine::deterministicHead(const circuit::Circuit &circ,
                                  const std::vector<std::size_t> &stops,
                                  sim::StateVector &state,
                                  std::size_t &draws, std::size_t &resumed)
{
    const std::size_t end = stops.back();
    resumed = 0;
    CheckpointStore *store = options.checkpoints;
    if (store == nullptr)
        return extendDeterministicHead(circ, 0, end, state, draws,
                                       [](std::size_t) {});

    // keys[i] addresses the first i instructions, up to the end of
    // the hash chain (the first Measure or conditioned instruction).
    const auto &insts = circ.instructions();
    std::vector<CheckpointKey> keys;
    {
        QSA_OBS_SPAN(span, "runtime.checkpoint.keys");
        keys.reserve(end + 1);
        CheckpointKey key{state.numQubits(), 0, kChainSeed};
        keys.push_back(key);
        for (std::size_t i = 0; i < end; ++i) {
            const circuit::Instruction &inst = insts[i];
            if (endsHead(inst))
                break;
            if (inst.kind != circuit::GateKind::Breakpoint) {
                key.chain = circ.chainHash(key.chain, inst);
                ++key.instructions;
            }
            keys.push_back(key);
        }
    }

    const auto [start, hit] = store->longestPrefix(keys);
    if (hit != nullptr) {
        state = hit->state;
        draws = hit->draws;
        resumed = start;
        QSA_OBS_COUNTER("runtime.checkpoint.hits", 1);
        QSA_OBS_COUNTER("runtime.checkpoint.resumed_instructions", start);
    } else {
        QSA_OBS_COUNTER("runtime.checkpoint.misses", 1);
    }
    const auto keep = [&, start = start](std::size_t i) {
        if (i > start && keys[i].instructions > 0)
            store->insert(keys[i], state, draws);
    };
    std::size_t head = start;
    for (const std::size_t stop : stops) {
        if (stop <= head)
            continue;
        const std::size_t reached =
            extendDeterministicHead(circ, head, stop, state, draws, keep);
        keep(reached);
        if (reached < stop)
            return reached;
        head = reached;
    }
    return head;
}

std::shared_ptr<const BreakpointPlan>
EnsembleEngine::buildPlan(const std::string &breakpoint)
{
    QSA_OBS_SPAN(span, "runtime.resim.head");
    span.arg("breakpoint", breakpoint);
    const std::size_t end = program->breakpointPosition(breakpoint);
    std::size_t resumed = 0;
    std::size_t simulated = 0;
    // The plan of the prefix of `circ` that ends at the last of
    // `stops`.
    const auto prefix = [&](const circuit::Circuit &circ,
                            const std::vector<std::size_t> &stops) {
        Head head(circ.numQubits());
        std::size_t taken = 0;
        const std::size_t head_end =
            deterministicHead(circ, stops, head.state, head.draws, taken);
        resumed += taken;
        simulated += head_end - taken;
        return std::make_unique<BreakpointPlan>(
            std::move(head), InstructionRange{&circ, head_end, stops.back()});
    };
    std::shared_ptr<BreakpointPlan> plan = prefix(*program, {end});
    if (const circuit::Circuit *ref = options.reference) {
        const bool mirror = options.pairing == Pairing::Mirror;
        const std::vector<std::size_t> stops =
            mirror ? mirrorStops(*program, end, *ref)
                   : std::vector<std::size_t>{end};
        fatal_if(stops.back() > ref->size(), "breakpoint '", breakpoint,
                 "' lies past the reference's ", ref->size(),
                 " instructions");
        plan->reference = prefix(*ref, stops);
        const InstructionRange &ref_tail = plan->reference->tail.range;
        fatal_if(mirror && ref_tail.begin != ref_tail.end,
                 "a mirror pairing's reference prefix must be a "
                 "deterministic head, but instruction ", ref_tail.begin,
                 " measures, is conditioned or resets at random");
    }
    span.arg("resumed", resumed).arg("simulated", simulated);
    return plan;
}

std::shared_ptr<const BreakpointPlan>
EnsembleEngine::planAt(const std::string &breakpoint)
{
    bool built = false;
    auto plan = singleFlight(
        plans, breakpoint, [&] { return buildPlan(breakpoint); }, built);
    if (built)
        QSA_OBS_COUNTER("runtime.head_cache.misses", 1);
    else
        QSA_OBS_COUNTER("runtime.head_cache.hits", 1);
    return plan;
}

std::shared_ptr<const CdfSampler>
EnsembleEngine::shotSampler(const EnsembleSpec &spec)
{
    const auto build = [&] {
        return std::make_shared<const CdfSampler>(
            finalMarginal(*planAt(spec.breakpoint), options, spec.seed,
                          spec.qubits));
    };
    bool built = false;
    auto sampler = singleFlight(
        samplers, std::make_tuple(spec.breakpoint, spec.seed, spec.qubits),
        build, built);
    if (built)
        QSA_OBS_COUNTER("runtime.sampler_cache.misses", 1);
    else
        QSA_OBS_COUNTER("runtime.sampler_cache.hits", 1);
    return sampler;
}

void
EnsembleEngine::clearCache()
{
    std::lock_guard<std::mutex> lock(cacheMutex);
    plans.clear();
    samplers.clear();
}

std::vector<std::uint64_t>
EnsembleEngine::gather(const EnsembleSpec &spec)
{
    return std::move(gather(std::vector<EnsembleSpec>{spec}).front());
}

std::vector<std::vector<std::uint64_t>>
EnsembleEngine::gather(const std::vector<EnsembleSpec> &specs)
{
    for (const EnsembleSpec &spec : specs) {
        fatal_if(options.reference != nullptr && spec.qubits.size() != 1,
                 "a paired engine reads one bit per trial, not ",
                 spec.qubits.size(), " qubits");
    }
    std::vector<std::vector<std::uint64_t>> outs(specs.size());
    std::vector<char> done(specs.size(), 0);
    // Breakpoint positions of the specs that could share a walk (a
    // one-spec call has nothing to share).
    std::vector<std::size_t> positions(specs.size(), 0);
    for (std::size_t i = 0; i < specs.size() && specs.size() > 1; ++i) {
        if (specs[i].mode == EnsembleMode::Resimulate && specs[i].shots > 0)
            positions[i] = program->breakpointPosition(specs[i].breakpoint);
    }
    const auto byPosition = [&](std::size_t a, std::size_t b) {
        return positions[a] < positions[b];
    };

    for (std::size_t first = 0; first < specs.size(); ++first) {
        while (!done[first]) {
            // The open specs whose trials draw from specs[first]'s
            // streams. The one with the latest breakpoint is walked.
            std::vector<std::size_t> group{first};
            for (std::size_t j = first + 1; j < specs.size(); ++j) {
                const EnsembleSpec &a = specs[first], &b = specs[j];
                if (!done[j] && a.mode == EnsembleMode::Resimulate &&
                    b.mode == EnsembleMode::Resimulate &&
                    a.seed == b.seed && a.shots == b.shots && a.shots > 0)
                    group.push_back(j);
            }
            const std::size_t walked =
                *std::max_element(group.begin(), group.end(), byPosition);
            const EnsembleSpec &spec = specs[walked];
            done[walked] = 1;
            if (spec.shots == 0)
                continue;

            QSA_OBS_SPAN(span, "runtime.gather");
            span.arg("breakpoint", spec.breakpoint)
                .arg("shots", spec.shots)
                .arg("mode", ensembleModeName(spec.mode));
            QSA_OBS_TIMER(gather_time, "runtime.ensemble.gather");
            QSA_OBS_COUNTER("runtime.ensemble.trials", spec.shots);

            std::vector<std::uint64_t> &out = outs[walked];
            out.resize(spec.shots);
            // From inside a worker (e.g. a BatchRunner unit) or for a
            // single trial the fan-out would run inline anyway — skip
            // resolving a pool entirely.
            ThreadPool *fan_out =
                ThreadPool::insideWorker() || spec.shots == 1 ? nullptr
                                                              : &pool();
            if (spec.mode == EnsembleMode::SampleFinalState) {
                sampleShots(*shotSampler(spec), spec.seed, out, fan_out);
                continue;
            }

            // The group's other specs whose breakpoints lie in this
            // plan's tail are read out as the walk passes them: the
            // same head, the same tail up to there, and the same
            // streams (ensemble.hh). Each still counts as a gather of
            // its own. A paired plan's readout needs the reference's
            // walk, so it takes no taps.
            const auto plan = planAt(spec.breakpoint);
            std::vector<std::size_t> tapped;
            for (const std::size_t j : group) {
                if (j != walked && plan->reference == nullptr &&
                    positions[j] >= plan->tail.range.begin)
                    tapped.push_back(j);
            }
            std::sort(tapped.begin(), tapped.end(), byPosition);
            std::vector<std::size_t> taps;
            for (const std::size_t j : tapped) {
                done[j] = 1;
                outs[j].resize(spec.shots);
                taps.push_back(positions[j]);
                QSA_OBS_COUNTER("runtime.ensemble.trials", spec.shots);
                QSA_OBS_COUNTER("runtime.ensemble.gather.count", 1);
            }
            span.arg("taps", tapped.size());

            // One walk per global chunk (see kWalkChunk). At a tap and
            // at each leaf (a paired plan's: each reference leaf under
            // it, readLeaf), the node's trials are read out with one
            // CdfSampler and, per trial, the next uniform of its own
            // stream, as SampleFinalState draws its shots. The uniform
            // is peeked, not drawn: a tap's trials walk on from there,
            // and at a leaf nothing draws again.
            for (std::size_t lo = 0; lo < spec.shots; lo += kWalkChunk) {
                QSA_OBS_SPAN(walk_span, "runtime.resim.walk");
                const std::size_t hi = std::min(spec.shots, lo + kWalkChunk);
                StreamBank bank;
                bank.seed(spec.seed, lo, hi - lo);
                // The draws the cached head's resets would have consumed.
                bank.discard(0, bank.size(), plan->head.draws);
                std::atomic<std::size_t> reference_segments{0};
                const auto readout = [&](std::size_t k,
                                         const sim::StateVector &state,
                                         std::size_t first, std::size_t last) {
                    const std::size_t j = k < taps.size() ? tapped[k] : walked;
                    std::uint64_t *dest = outs[j].data() + lo;
                    const auto read = [&](const std::vector<double> &probs,
                                          std::size_t from, std::size_t to) {
                        QSA_OBS_COUNTER("sim.measurements",
                                        specs[j].qubits.size());
                        const CdfSampler sampler(probs);
                        for (std::size_t slot = from; slot < to; ++slot)
                            dest[bank.trial(slot)] =
                                sampler.sample(bank.peekUniform(slot));
                    };
                    reference_segments += readLeaf(
                        *plan, options, state, specs[j].qubits, bank,
                        first, last, read);
                };
                const std::size_t segments =
                    walkTail(plan->tail, plan->head.state, bank, 0,
                             bank.size(), taps, readout, fan_out) +
                    reference_segments.load();
                QSA_OBS_COUNTER("runtime.resim.segments", segments);
                walk_span.arg("trials", hi - lo).arg("segments", segments);
            }
        }
    }
    return outs;
}

} // namespace qsa::runtime
