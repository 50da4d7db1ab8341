/**
 * @file
 * EnsembleEngine implementation.
 */

#include "runtime/ensemble.hh"

#include <algorithm>
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
 * The high stage of a tensor-staged plan. A truncated program whose
 * leading instructions act only on the low `split` qubits, followed by
 * a run acting only on the high qubits, followed by a combining tail
 * on the full space, has the shape of every swap-test probe (suspect
 * prefix, embedded reference prefix, ancilla-controlled-SWAP
 * comparator). Ensembles simulate the two halves on 2^split- and
 * 2^(n-split)-sized states and tensor them together only for the
 * comparator (StateVector::tensorWith), cutting per-path cost from 2^n
 * toward 2^split + 2^(n-split) + |combo| full-space applies. RNG draw
 * order is the monolithic program order (low, then high, then combo),
 * so outcome streams match an unstaged run draw for draw.
 */
struct HighStage
{
    explicit HighStage(unsigned num_qubits)
        : block(num_qubits), head(num_qubits)
    {
    }

    /** The high-only run, copied with indices shifted down by the
     *  split: the one block a truncation copies, because it is
     *  relabelled. */
    circuit::Circuit block;

    /** Deterministic head of `block`. */
    Head head;
};

/**
 * Everything a gather at one breakpoint needs, built once per engine
 * and shared by both modes (see ensemble.hh): the deterministic head's
 * final state (simulated once), the number of RNG draws the head's
 * resets would have consumed per trial, and the nondeterministic tail
 * after it, up to the truncation point.
 */
struct BreakpointPlan
{
    BreakpointPlan(Head head_in, std::unique_ptr<const HighStage> high_in,
                   const std::vector<InstructionRange> &ranges)
        : head(std::move(head_in)), high(std::move(high_in)),
          tail(ranges, high != nullptr ? &high->head : nullptr)
    {
    }

    /** Head of the truncated program; in a staged plan, of its low
     *  block, on the low qubits. */
    Head head;

    /** Staged plans only: the high block. */
    std::unique_ptr<const HighStage> high;

    /** The tail, in program order: the instructions after the head
     *  (possibly none), then, staged, those after the high block's
     *  head and the combining tail (everything after the high run, up
     *  to the truncation, on the full space). */
    Tail tail;
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

/** Simulate the head of instructions [0, end) of `circ` into `head`
 *  (no checkpoint store); returns the head length. */
std::size_t
simulateHead(const circuit::Circuit &circ, std::size_t end, Head &head)
{
    return extendDeterministicHead(circ, 0, end, head.state, head.draws,
                                   [](std::size_t) {});
}

/**
 * Where the tensor-split shape ends in the truncated program [0, end)
 * of `program`: the end of a maximal leading run touching only qubits
 * < split, and the end of the maximal run after it touching only
 * qubits >= split. Nullopt when either run is empty (nothing to
 * stage). Qubit-free markers bind to the phase they appear in.
 */
std::optional<std::pair<std::size_t, std::size_t>>
stagedRuns(const circuit::Circuit &program, std::size_t end,
           unsigned split)
{
    const unsigned total = program.numQubits();
    if (split == 0 || split >= total)
        return std::nullopt;

    // True for a qubit-free marker, which binds to the current phase.
    const auto within = [](const circuit::Instruction &inst,
                           unsigned base, unsigned bound) {
        const auto inside = [&](unsigned q) {
            return q >= base && q < bound;
        };
        return std::all_of(inst.targets.begin(), inst.targets.end(),
                           inside) &&
               std::all_of(inst.controls.begin(), inst.controls.end(),
                           inside);
    };

    const auto &insts = program.instructions();
    std::size_t low_end = 0;
    while (low_end < end && within(insts[low_end], 0, split))
        ++low_end;
    std::size_t high_end = low_end;
    while (high_end < end && within(insts[high_end], split, total))
        ++high_end;
    if (low_end == 0 || high_end == low_end)
        return std::nullopt;
    return std::make_pair(low_end, high_end);
}

/**
 * The marginal over `qubits` of the single run of the truncated
 * program that SampleFinalState samples from (stream Rng(seed).split(0),
 * ensemble.hh): the plan's head state itself when nothing follows it,
 * else a one-trial walk of the tail from it, whose leaf keeps the
 * marginal.
 */
std::vector<double>
finalMarginal(const BreakpointPlan &plan, std::uint64_t seed,
              const std::vector<unsigned> &qubits)
{
    const InstructionRange &tail = plan.tail.phases[0].range;
    if (plan.high == nullptr && tail.begin == tail.end)
        return plan.head.state.marginalProbs(qubits);

    StreamBank bank;
    bank.seed(seed, 0, 1);
    bank.discard(0, 1, plan.head.draws);
    std::vector<double> marginal;
    walkTail(plan.tail, plan.head.state, bank, {},
             [&](std::size_t, const sim::StateVector &state, std::size_t,
                 std::size_t) { marginal = state.marginalProbs(qubits); });
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
    : program(&prog), numThreads(num_threads), options(opts)
{
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
EnsembleEngine::deterministicHead(std::size_t end, sim::StateVector &state,
                                  std::size_t &draws,
                                  std::size_t &resumed)
{
    resumed = 0;
    CheckpointStore *store = options.checkpoints;
    if (store == nullptr)
        return extendDeterministicHead(*program, 0, end, state, draws,
                                       [](std::size_t) {});

    // keys[i] addresses the first i instructions, up to the end of
    // the hash chain (the first Measure or conditioned instruction).
    const auto &insts = program->instructions();
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
                key.chain = program->chainHash(key.chain, inst);
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
    const std::size_t head = extendDeterministicHead(
        *program, start, end, state, draws, keep);
    keep(head);
    return head;
}

std::shared_ptr<const BreakpointPlan>
EnsembleEngine::buildPlan(const std::string &breakpoint)
{
    QSA_OBS_SPAN(span, "runtime.resim.head");
    span.arg("breakpoint", breakpoint);
    const std::size_t end = program->breakpointPosition(breakpoint);
    const unsigned split = options.tensorSplit;
    const auto runs = stagedRuns(*program, end, split);
    if (!runs) {
        Head head(program->numQubits());
        std::size_t resumed = 0;
        const std::size_t head_end =
            deterministicHead(end, head.state, head.draws, resumed);
        span.arg("resumed", resumed).arg("simulated", head_end - resumed);
        return std::make_shared<BreakpointPlan>(
            std::move(head), nullptr,
            std::vector<InstructionRange>{{program, head_end, end}});
    }

    // Staged: per-half deterministic heads on the small spaces; trials
    // copy the half states, run the half tails, and tensor only for
    // the combining tail.
    const auto [low_end, high_end] = *runs;
    auto high = std::make_unique<HighStage>(program->numQubits() - split);
    {
        QSA_OBS_SPAN(slice, "runtime.slice");
        circuit::RangeCopy down;
        down.qubitOffset = -static_cast<int>(split);
        high->block.appendRange(*program, low_end, high_end, down);
    }
    Head low(split);
    const std::size_t low_head = simulateHead(*program, low_end, low);
    const std::size_t high_head =
        simulateHead(high->block, high->block.size(), high->head);
    const std::vector<InstructionRange> ranges{
        {program, low_head, low_end},
        {&high->block, high_head, high->block.size()},
        {program, high_end, end}};
    QSA_OBS_COUNTER("runtime.tensor_stages.built", 1);
    span.arg("resumed", 0).arg("simulated", low_head + high_head);
    return std::make_shared<BreakpointPlan>(std::move(low), std::move(high),
                                            ranges);
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
        return std::make_shared<const CdfSampler>(finalMarginal(
            *planAt(spec.breakpoint), spec.seed, spec.qubits));
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
            // plan's monolithic tail are read out as the walk passes
            // them: the same head, the same tail up to there, and the
            // same streams (ensemble.hh). Each still counts as a
            // gather of its own.
            const auto plan = planAt(spec.breakpoint);
            std::vector<std::size_t> tapped;
            for (const std::size_t j : group) {
                if (j != walked && plan->high == nullptr &&
                    positions[j] >= plan->tail.phases[0].range.begin)
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
            // at each leaf, the node's trials are read out with one
            // CdfSampler over its marginal and, per trial, the next
            // uniform of its own stream, as SampleFinalState draws its
            // shots. The uniform is peeked, not drawn: a tap's trials
            // walk on from there, and at a leaf nothing draws again.
            for (std::size_t lo = 0; lo < spec.shots; lo += kWalkChunk) {
                QSA_OBS_SPAN(walk_span, "runtime.resim.walk");
                const std::size_t hi = std::min(spec.shots, lo + kWalkChunk);
                StreamBank bank;
                bank.seed(spec.seed, lo, hi - lo);
                // The draws the cached head's resets would have consumed.
                bank.discard(0, bank.size(), plan->head.draws);
                const auto readout = [&](std::size_t k,
                                         const sim::StateVector &state,
                                         std::size_t first, std::size_t last) {
                    const std::size_t j = k < taps.size() ? tapped[k] : walked;
                    QSA_OBS_COUNTER("sim.measurements", specs[j].qubits.size());
                    const CdfSampler sampler(
                        state.marginalProbs(specs[j].qubits));
                    std::uint64_t *dest = outs[j].data() + lo;
                    for (std::size_t slot = first; slot < last; ++slot)
                        dest[bank.trial(slot)] =
                            sampler.sample(bank.peekUniform(slot));
                };
                const std::size_t segments = walkTail(
                    plan->tail, plan->head.state, bank, taps, readout, fan_out);
                QSA_OBS_COUNTER("runtime.resim.segments", segments);
                walk_span.arg("trials", hi - lo).arg("segments", segments);
            }
        }
    }
    return outs;
}

} // namespace qsa::runtime
