/**
 * @file
 * EnsembleEngine implementation.
 */

#include "runtime/ensemble.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <numeric>
#include <optional>

#include "circuit/fusion.hh"
#include "common/logging.hh"
#include "obs/obs.hh"

namespace qsa::runtime
{

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
 * when extending a Resimulate head. An uncached run taking the other
 * branch is below this probability per reset — the quantified slack
 * in the head cache's bit-identity contract (ensemble.hh).
 */
constexpr double kDeterministicTol = 1e-12;

/**
 * Simulate the deterministic head of `circ` into `state` (which must
 * start as |0...0> on at least circ.numQubits()): unitary gates and
 * markers always; resets only when the current state fixes their
 * implicit measurement outcome; stop at the first Measure or
 * classically-conditioned instruction. Returns the head length;
 * `draws` receives the per-trial RNG draws the head's resets would
 * have consumed.
 */
std::size_t
extendDeterministicHead(const circuit::Circuit &circ,
                        sim::StateVector &state, std::size_t &draws)
{
    const auto &insts = circ.instructions();
    std::size_t head = 0;
    for (; head < insts.size(); ++head) {
        const circuit::Instruction &inst = insts[head];
        if (inst.kind == circuit::GateKind::Measure ||
            !inst.condLabel.empty())
            break;
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
 * Scan a truncated circuit for the tensor-split shape: a maximal
 * leading run touching only qubits < split, then a maximal run
 * touching only qubits >= split, then the combining remainder.
 * Returns null when either block is empty (nothing to stage).
 * Qubit-free markers bind to the phase they appear in.
 */
std::shared_ptr<const TensorStages>
buildTensorStages(const circuit::Circuit &prefix, unsigned split)
{
    const unsigned total = prefix.numQubits();
    if (split == 0 || split >= total)
        return nullptr;

    const auto spanOf = [](const circuit::Instruction &inst) {
        std::vector<unsigned> span = inst.targets;
        span.insert(span.end(), inst.controls.begin(),
                    inst.controls.end());
        return span;
    };
    const auto onlyBelow = [&](const circuit::Instruction &inst,
                               unsigned bound, unsigned base) {
        const auto span = spanOf(inst);
        if (span.empty())
            return true; // markers bind to the current phase
        return std::all_of(span.begin(), span.end(), [&](unsigned q) {
            return q >= base && q < bound;
        });
    };

    const auto &insts = prefix.instructions();
    std::size_t low_end = 0;
    while (low_end < insts.size() &&
           onlyBelow(insts[low_end], split, 0))
        ++low_end;
    std::size_t high_end = low_end;
    while (high_end < insts.size() &&
           onlyBelow(insts[high_end], total, split))
        ++high_end;
    if (low_end == 0 || high_end == low_end)
        return nullptr;

    auto stages = std::make_shared<TensorStages>();
    stages->split = split;
    stages->low = circuit::Circuit(split);
    stages->high = circuit::Circuit(total - split);
    stages->combo = prefix.sliceRange(high_end, insts.size());
    for (std::size_t i = 0; i < low_end; ++i) {
        circuit::Instruction copy = insts[i];
        if (copy.kind == circuit::GateKind::Unitary)
            copy.matrixId =
                stages->low.addMatrix(prefix.matrix(copy.matrixId));
        stages->low.append(copy);
    }
    for (std::size_t i = low_end; i < high_end; ++i) {
        circuit::Instruction copy = insts[i];
        for (unsigned &q : copy.targets)
            q -= split;
        for (unsigned &q : copy.controls)
            q -= split;
        if (copy.kind == circuit::GateKind::Unitary)
            copy.matrixId =
                stages->high.addMatrix(prefix.matrix(copy.matrixId));
        stages->high.append(copy);
    }
    return stages;
}

/**
 * Trials per path walk. gather() and gatherHistogram() both walk the
 * fixed global chunks [k * kWalkChunk, (k + 1) * kWalkChunk), so the
 * outcome tree — and with it every sim.* total — never depends on
 * the shard count; the chunk also bounds the walk's per-trial
 * bookkeeping (one RNG stream and one index per trial).
 */
constexpr std::size_t kWalkChunk = 8192;

/**
 * The Resimulate trial loop as one walk over the tree of
 * measurement-outcome paths (see ensemble.hh). A node is the group of
 * trials sharing one outcome history: one state, one measurement
 * record, one cursor into the instruction stream. The stream is the
 * plan's tail (or, staged, the low tail, the high tail and the
 * combining tail) followed by the truncating readout of spec.qubits.
 */
class PathWalk
{
  public:
    /** Walk trials [lo, hi) of `spec`; outcome of trial m -> out[m - lo]. */
    PathWalk(const ResimPlan &plan, const EnsembleSpec &spec,
             std::size_t lo, std::size_t hi, std::uint64_t *out)
        : plan(plan), spec(spec), out(out)
    {
        const ResimStages *staged = plan.stages.get();
        if (staged != nullptr)
            phases = {&staged->lowTail, &staged->highTail,
                      &staged->layout->combo};
        else
            phases = {&plan.tail};
        const std::size_t skip =
            staged != nullptr ? staged->lowDraws : plan.headDraws;
        const Rng master(spec.seed);
        rngs.reserve(hi - lo);
        for (std::size_t m = lo; m < hi; ++m) {
            rngs.push_back(master.split(m));
            // The draws the cached head's resets would have consumed.
            for (std::size_t d = 0; d < skip; ++d)
                rngs.back().uniform();
        }
    }

    /** Walk the whole tree, fanning subtrees out on `pool` if given. */
    void
    run(ThreadPool *pool)
    {
        QSA_OBS_SPAN(span, "runtime.resim.walk");
        const ResimStages *staged = plan.stages.get();
        Node root{staged != nullptr ? staged->lowHead : plan.headState,
                  nullptr,
                  {},
                  std::vector<std::uint32_t>(rngs.size()),
                  0,
                  0,
                  0,
                  0};
        std::iota(root.trials.begin(), root.trials.end(), 0u);
        walk(std::move(root), pool);
        const std::size_t total = segments.load();
        QSA_OBS_COUNTER("runtime.resim.segments", total);
        span.arg("trials", rngs.size()).arg("segments", total);
    }

  private:
    /** A group of trials sharing one measurement-outcome history. */
    struct Node
    {
        /** State of the current phase (a half while staged). */
        sim::StateVector state;

        /** Staged high phase: the low leaf this subtree tensors with. */
        std::shared_ptr<const sim::StateVector> low;

        /** Measurement record of this outcome history. */
        std::map<std::string, std::uint64_t> record;

        /** Walk-local indices of the trials on this path. */
        std::vector<std::uint32_t> trials;

        /** Cursor: phase (phases.size() = readout), instruction,
         *  target within a multi-qubit Measure. */
        std::size_t phase = 0;
        std::size_t pc = 0;
        std::size_t sub = 0;

        /** Value of the Measure (or readout) in progress. */
        std::uint64_t value = 0;
    };

    const ResimPlan &plan;
    const EnsembleSpec &spec;
    std::uint64_t *out;
    std::vector<const circuit::Circuit *> phases;

    /** Per-trial streams; each is touched only by its trial's node. */
    std::vector<Rng> rngs;

    /** Path segments simulated (tree nodes), for the counter. */
    std::atomic<std::size_t> segments{0};

    /** Cross into phase `next`: the staged hand-offs, or readout. */
    void
    enterPhase(Node &node, std::size_t next)
    {
        node.phase = next;
        node.pc = 0;
        node.value = 0;
        const ResimStages *staged = plan.stages.get();
        if (staged == nullptr || next == phases.size())
            return;
        if (next == 1) {
            // Low leaf: start this history's high half from its head.
            node.low = std::make_shared<const sim::StateVector>(
                std::move(node.state));
            node.state = staged->highHead;
            for (std::uint32_t t : node.trials)
                for (std::size_t d = 0; d < staged->highDraws; ++d)
                    rngs[t].uniform();
        } else {
            node.state = node.low->tensorWith(node.state);
            node.low.reset();
        }
    }

    /**
     * Measure `qubit` for every trial of `node`: probabilityOne once,
     * one bernoulli per trial from its own stream, then the collapse
     * measureQubit would make — in place when every trial agrees,
     * else the outcome-1 trials split off into a copy, returned.
     * `reset_to` >= 0 X-corrects each branch to that bit (PrepZ);
     * otherwise the outcome lands in bit `bit` of the node's value.
     */
    std::optional<Node>
    measure(Node &node, unsigned qubit, int reset_to, std::size_t bit)
    {
        QSA_OBS_COUNTER("sim.measurements", 1);
        const double p1 = node.state.probabilityOne(qubit);
        std::vector<std::uint32_t> ones;
        auto zeros = node.trials.begin();
        for (std::uint32_t t : node.trials) {
            if (rngs[t].bernoulli(p1))
                ones.push_back(t);
            else
                *zeros++ = t;
        }
        node.trials.erase(zeros, node.trials.end());

        const auto collapse = [&](Node &branch, unsigned outcome) {
            branch.state.projectQubit(qubit, outcome,
                                      outcome ? p1 : 1.0 - p1);
            if (reset_to < 0)
                branch.value |= static_cast<std::uint64_t>(outcome)
                                << bit;
            else if (outcome != static_cast<unsigned>(reset_to))
                branch.state.applyGate(sim::Mat2{0.0, 1.0, 1.0, 0.0},
                                       qubit);
        };
        if (ones.empty()) {
            collapse(node, 0);
            return std::nullopt;
        }
        if (node.trials.empty()) {
            node.trials = std::move(ones);
            collapse(node, 1);
            return std::nullopt;
        }
        Node sibling{node.state, node.low,   node.record, std::move(ones),
                     node.phase, node.pc,    node.sub,    node.value};
        collapse(node, 0);
        collapse(sibling, 1);
        return sibling;
    }

    /**
     * Run `node` through one path segment: to its next split (the
     * split-off sibling is returned and `node` continues as the other
     * branch) or to its leaf (outcomes written, nullopt returned).
     */
    std::optional<Node>
    advance(Node &node)
    {
        segments.fetch_add(1, std::memory_order_relaxed);
        while (true) {
            if (node.phase == phases.size()) {
                // The truncating readout, one qubit at a time.
                if (node.pc == spec.qubits.size()) {
                    for (std::uint32_t t : node.trials)
                        out[t] = node.value;
                    return std::nullopt;
                }
                auto sibling =
                    measure(node, spec.qubits[node.pc], -1, node.pc);
                ++node.pc;
                if (sibling) {
                    ++sibling->pc;
                    return sibling;
                }
                continue;
            }
            const circuit::Circuit &circ = *phases[node.phase];
            if (node.pc == circ.size()) {
                enterPhase(node, node.phase + 1);
                continue;
            }
            const circuit::Instruction &inst =
                circ.instructions()[node.pc];
            if (!inst.condLabel.empty()) {
                const auto it = node.record.find(inst.condLabel);
                fatal_if(it == node.record.end(),
                         "conditional instruction references "
                         "unmeasured label '", inst.condLabel, "'");
                if (it->second != inst.condValue) {
                    ++node.pc;
                    continue;
                }
            }
            std::optional<Node> sibling;
            if (inst.kind == circuit::GateKind::PrepZ) {
                sibling = measure(node, inst.targets[0],
                                  static_cast<int>(inst.bit & 1), 0);
                ++node.pc;
                if (sibling)
                    ++sibling->pc;
            } else if (inst.kind == circuit::GateKind::Measure) {
                if (node.sub == 0)
                    node.value = 0; // overwrite semantics
                if (node.sub == inst.targets.size()) {
                    node.record[inst.label] = node.value;
                    node.sub = 0;
                    ++node.pc;
                    continue;
                }
                sibling = measure(node, inst.targets[node.sub], -1,
                                  node.sub);
                ++node.sub;
                if (sibling)
                    ++sibling->sub;
            } else {
                circuit::applyUnitaryInstruction(circ, inst, node.state);
                ++node.pc;
            }
            if (sibling)
                return sibling;
        }
    }

    /**
     * Depth-first walk on every thread of `pool` at once (on the
     * calling thread alone when null). A worker keeps its pending
     * siblings on a private stack; while some worker holds no subtree
     * it is handed the oldest pending sibling (nearest the root, so
     * the most work), so at most workers - 1 subtrees wait in the
     * hand-off queue.
     */
    void
    walk(Node root, ThreadPool *pool)
    {
        const std::size_t workers =
            pool != nullptr ? pool->concurrency() : 1;
        std::mutex mutex;
        std::condition_variable ready;
        std::vector<Node> handoff;
        handoff.push_back(std::move(root));
        std::size_t busy = 0;
        bool failed = false;

        const auto worker = [&](std::size_t) {
            std::deque<Node> local;
            std::unique_lock<std::mutex> lock(mutex);
            while (true) {
                ready.wait(lock, [&] {
                    return failed || !handoff.empty() || busy == 0;
                });
                if (failed || handoff.empty())
                    return; // the walk is complete
                local.push_back(std::move(handoff.back()));
                handoff.pop_back();
                ++busy;
                lock.unlock();
                try {
                    while (!local.empty()) {
                        Node node = std::move(local.back());
                        local.pop_back();
                        while (auto sibling = advance(node)) {
                            local.push_back(std::move(*sibling));
                            lock.lock();
                            while (!local.empty() &&
                                   busy + handoff.size() < workers) {
                                handoff.push_back(
                                    std::move(local.front()));
                                local.pop_front();
                                ready.notify_one();
                            }
                            lock.unlock();
                        }
                    }
                } catch (...) {
                    // Wake the waiters so nobody blocks on a walk that
                    // will never finish; the pool rethrows to the
                    // poster.
                    if (!lock.owns_lock())
                        lock.lock();
                    failed = true;
                    ready.notify_all();
                    throw;
                }
                lock.lock();
                if (--busy == 0 && handoff.empty())
                    ready.notify_all();
            }
        };
        if (workers == 1)
            worker(0);
        else
            pool->parallelFor(workers, worker);
    }
};

} // anonymous namespace

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

std::shared_ptr<const circuit::Circuit>
EnsembleEngine::prefix(const std::string &breakpoint)
{
    {
        std::lock_guard<std::mutex> lock(cacheMutex);
        auto it = prefixCache.find(breakpoint);
        if (it != prefixCache.end()) {
            QSA_OBS_COUNTER("runtime.prefix_cache.hits", 1);
            return it->second;
        }
    }
    // Slice (and fuse) outside the lock — an O(#gates) circuit copy;
    // racers may slice twice but the copies are identical and the
    // first insertion wins. A losing racer counts as a hit so the
    // miss total stays deterministic (misses == distinct
    // breakpoints). Fusing here means every downstream consumer —
    // prefix simulations, resimulation heads and tails, samplers —
    // sees the fused program, so the fused circuits slot into the
    // prefix/head caches by construction.
    circuit::Circuit sliced = program->prefixUpTo(breakpoint);
    circuit::FusionStats fusion;
    if (options.fuseGates)
        sliced = circuit::fuseGates(sliced, &fusion);
    auto built =
        std::make_shared<const circuit::Circuit>(std::move(sliced));
    std::lock_guard<std::mutex> lock(cacheMutex);
    const auto [it, inserted] =
        prefixCache.emplace(breakpoint, std::move(built));
    if (inserted) {
        QSA_OBS_COUNTER("runtime.prefix_cache.misses", 1);
        // Counted on the winning insertion only, so the fusion total
        // is deterministic (racing rebuilds fuse identically but must
        // not double-count).
        QSA_OBS_COUNTER("sim.fused_gates", fusion.fusedGates);
    } else {
        QSA_OBS_COUNTER("runtime.prefix_cache.hits", 1);
    }
    return it->second;
}

std::shared_ptr<const TensorStages>
EnsembleEngine::tensorStages(const std::string &breakpoint)
{
    if (options.tensorSplit == 0)
        return nullptr;
    {
        std::lock_guard<std::mutex> lock(cacheMutex);
        auto it = stagesCache.find(breakpoint);
        if (it != stagesCache.end())
            return it->second;
    }
    auto sliced = prefix(breakpoint);
    auto built = buildTensorStages(*sliced, options.tensorSplit);
    std::lock_guard<std::mutex> lock(cacheMutex);
    const auto [it, inserted] =
        stagesCache.emplace(breakpoint, std::move(built));
    if (inserted && it->second != nullptr)
        QSA_OBS_COUNTER("runtime.tensor_stages.built", 1);
    return it->second;
}

std::shared_ptr<const circuit::ExecutionRecord>
EnsembleEngine::prefixState(const std::string &breakpoint,
                            std::uint64_t seed)
{
    auto sliced = prefix(breakpoint);
    const auto key = std::make_pair(breakpoint, seed);

    // Find-or-claim under the lock, simulate outside it: concurrent
    // gathers at distinct breakpoints run their prefix simulations in
    // parallel; racers on the same key wait on the winner's future.
    std::promise<std::shared_ptr<const circuit::ExecutionRecord>>
        promise;
    std::shared_future<std::shared_ptr<const circuit::ExecutionRecord>>
        future;
    bool claimed = false;
    std::uint64_t claim_id = 0;
    {
        std::lock_guard<std::mutex> lock(cacheMutex);
        auto it = stateCache.find(key);
        if (it == stateCache.end()) {
            future = promise.get_future().share();
            claim_id = ++nextClaim;
            stateCache.emplace(key, PrefixClaim{future, claim_id});
            claimed = true;
        } else {
            future = it->second.future;
        }
    }
    if (claimed)
        QSA_OBS_COUNTER("runtime.state_cache.misses", 1);
    else
        QSA_OBS_COUNTER("runtime.state_cache.hits", 1);
    if (claimed) {
        // The one prefix execution of SampleFinalState mode; stream
        // split(0) per the layout in the file comment. When the
        // prefix tensor-splits, the halves simulate on their small
        // spaces (same instruction and draw order as a monolithic
        // run) and combine only for the tail.
        QSA_OBS_SPAN(span, "runtime.prefix");
        span.arg("breakpoint", breakpoint)
            .arg("instructions", sliced->size());
        try {
            auto stages = tensorStages(breakpoint);
            Rng rng = Rng(seed).split(0);
            if (stages != nullptr) {
                auto record =
                    std::make_shared<circuit::ExecutionRecord>(
                        program->numQubits());
                sim::StateVector low_state(stages->split);
                sim::StateVector high_state(program->numQubits() -
                                            stages->split);
                circuit::runCircuitOn(stages->low, low_state,
                                      record->measurements, rng);
                circuit::runCircuitOn(stages->high, high_state,
                                      record->measurements, rng);
                record->state = low_state.tensorWith(high_state);
                circuit::runCircuitOn(stages->combo, record->state,
                                      record->measurements, rng);
                promise.set_value(std::move(record));
            } else {
                promise.set_value(
                    std::make_shared<circuit::ExecutionRecord>(
                        circuit::runCircuit(*sliced, rng)));
            }
        } catch (...) {
            // Library errors fatal/panic rather than throw, but e.g.
            // bad_alloc can still unwind here: hand racers the
            // exception and drop the entry so later calls retry
            // instead of hitting a broken promise forever.
            promise.set_exception(std::current_exception());
            {
                // Evict only our own entry — a clearCache() plus
                // re-claim may have installed a successor's live
                // future under the same key.
                std::lock_guard<std::mutex> lock(cacheMutex);
                auto it = stateCache.find(key);
                if (it != stateCache.end() &&
                    it->second.claim == claim_id)
                    stateCache.erase(it);
            }
            throw;
        }
    }
    return future.get();
}

std::shared_ptr<const ResimPlan>
EnsembleEngine::resimPlan(const std::string &breakpoint)
{
    {
        std::lock_guard<std::mutex> lock(cacheMutex);
        auto it = resimCache.find(breakpoint);
        if (it != resimCache.end()) {
            QSA_OBS_COUNTER("runtime.head_cache.hits", 1);
            return it->second;
        }
    }
    // Build outside the lock (one head simulation); racers may build
    // twice but the builds are identical and the first insertion wins.
    QSA_OBS_SPAN(span, "runtime.resim.head");
    span.arg("breakpoint", breakpoint);
    auto sliced = prefix(breakpoint);
    auto stages = tensorStages(breakpoint);

    std::shared_ptr<ResimPlan> plan;
    if (stages != nullptr) {
        // Staged: per-half deterministic heads on the small spaces;
        // trials copy the half states, run the half tails, and tensor
        // only for the combining tail. The monolithic head is a
        // 1-qubit placeholder so a cached plan never pins a full-size
        // state it will not use.
        auto staged = std::make_shared<ResimStages>(
            stages->split, program->numQubits() - stages->split);
        staged->layout = stages;
        const std::size_t low_head = extendDeterministicHead(
            stages->low, staged->lowHead, staged->lowDraws);
        staged->lowTail =
            stages->low.sliceRange(low_head, stages->low.size());
        const std::size_t high_head = extendDeterministicHead(
            stages->high, staged->highHead, staged->highDraws);
        staged->highTail =
            stages->high.sliceRange(high_head, stages->high.size());
        plan = std::make_shared<ResimPlan>(1);
        plan->stages = std::move(staged);
    } else {
        plan = std::make_shared<ResimPlan>(program->numQubits());

        // Extend the head while instructions are deterministic:
        // unitary gates and markers always; resets only when the
        // current state fixes their implicit measurement outcome;
        // stop at the first Measure or classically-conditioned
        // instruction (there is no record to condition on yet — a
        // valid program measures first).
        const std::size_t head = extendDeterministicHead(
            *sliced, plan->headState, plan->headDraws);
        plan->tail = sliced->sliceRange(head, sliced->size());
    }

    std::lock_guard<std::mutex> lock(cacheMutex);
    const auto [it, inserted] =
        resimCache.emplace(breakpoint, std::move(plan));
    if (inserted)
        QSA_OBS_COUNTER("runtime.head_cache.misses", 1);
    else
        QSA_OBS_COUNTER("runtime.head_cache.hits", 1);
    return it->second;
}

std::shared_ptr<const CdfSampler>
EnsembleEngine::shotSampler(const EnsembleSpec &spec)
{
    const auto key =
        std::make_tuple(spec.breakpoint, spec.seed, spec.qubits);
    {
        std::lock_guard<std::mutex> lock(cacheMutex);
        auto it = samplerCache.find(key);
        if (it != samplerCache.end()) {
            QSA_OBS_COUNTER("runtime.sampler_cache.hits", 1);
            return it->second;
        }
    }
    // Build outside the lock; racers may build twice but the builds
    // are identical and the first insertion wins.
    auto record = prefixState(spec.breakpoint, spec.seed);
    auto built = std::make_shared<const CdfSampler>(
        record->state.marginalProbs(spec.qubits));
    std::lock_guard<std::mutex> lock(cacheMutex);
    const auto [it, inserted] =
        samplerCache.emplace(key, std::move(built));
    if (inserted)
        QSA_OBS_COUNTER("runtime.sampler_cache.misses", 1);
    else
        QSA_OBS_COUNTER("runtime.sampler_cache.hits", 1);
    return it->second;
}

void
EnsembleEngine::clearCache()
{
    std::lock_guard<std::mutex> lock(cacheMutex);
    prefixCache.clear();
    resimCache.clear();
    stateCache.clear();
    samplerCache.clear();
    stagesCache.clear();
}

void
EnsembleEngine::runTrials(const EnsembleSpec &spec,
                          const ResimPlan *plan,
                          const CdfSampler *sampler, std::size_t lo,
                          std::size_t hi, std::uint64_t *out)
{
    // From inside a worker (e.g. a BatchRunner unit) or for a single
    // trial the fan-out would run inline anyway — skip resolving a
    // pool entirely.
    ThreadPool *fan_out =
        ThreadPool::insideWorker() || hi - lo == 1 ? nullptr : &pool();
    if (spec.mode == SampleMode::Resimulate) {
        // One walk per global chunk, so the trees (and the sim.*
        // totals) do not depend on where [lo, hi) starts or ends.
        for (std::size_t m = lo; m < hi;) {
            const std::size_t end =
                std::min(hi, (m / kWalkChunk + 1) * kWalkChunk);
            PathWalk(*plan, spec, m, end, out + (m - lo)).run(fan_out);
            m = end;
        }
        return;
    }
    const Rng master(spec.seed);
    const auto sample = [&](std::size_t a, std::size_t b) {
        for (std::size_t m = a; m < b; ++m) {
            Rng rng = master.split(m + 1);
            out[m - lo] = sampler->sample(rng.uniform());
        }
    };
    if (fan_out == nullptr) {
        sample(lo, hi);
        return;
    }
    const std::size_t num_shards =
        std::min<std::size_t>(fan_out->concurrency(), hi - lo);
    fan_out->parallelFor(num_shards, [&](std::size_t s) {
        const auto [a, b] = shardRange(s, num_shards, hi - lo);
        sample(lo + a, lo + b);
    });
}

std::vector<std::uint64_t>
EnsembleEngine::gather(const EnsembleSpec &spec)
{
    if (spec.shots == 0)
        return {};

    QSA_OBS_SPAN(span, "runtime.gather");
    span.arg("breakpoint", spec.breakpoint)
        .arg("shots", spec.shots)
        .arg("mode", spec.mode == SampleMode::Resimulate
                         ? "resimulate"
                         : "sample");
    QSA_OBS_TIMER(gather_time, "runtime.ensemble.gather");
    QSA_OBS_COUNTER("runtime.ensemble.trials", spec.shots);

    std::shared_ptr<const ResimPlan> plan;
    std::shared_ptr<const CdfSampler> sampler;
    if (spec.mode == SampleMode::Resimulate)
        plan = resimPlan(spec.breakpoint);
    else
        sampler = shotSampler(spec);

    std::vector<std::uint64_t> results(spec.shots);
    runTrials(spec, plan.get(), sampler.get(), 0, spec.shots,
              results.data());
    return results;
}

std::map<std::uint64_t, std::uint64_t>
EnsembleEngine::gatherHistogram(const EnsembleSpec &spec)
{
    if (spec.shots == 0)
        return {};

    QSA_OBS_SPAN(span, "runtime.gather_histogram");
    span.arg("breakpoint", spec.breakpoint)
        .arg("shots", spec.shots)
        .arg("mode", spec.mode == SampleMode::Resimulate
                         ? "resimulate"
                         : "sample");
    QSA_OBS_TIMER(gather_time, "runtime.ensemble.gather");
    QSA_OBS_COUNTER("runtime.ensemble.trials", spec.shots);

    std::shared_ptr<const ResimPlan> plan;
    std::shared_ptr<const CdfSampler> sampler;
    if (spec.mode == SampleMode::Resimulate)
        plan = resimPlan(spec.breakpoint);
    else
        sampler = shotSampler(spec);

    if (spec.mode == SampleMode::Resimulate) {
        // Walk the same global chunks gather() walks (the walk fans
        // out on its own), folding each into the histogram so peak
        // memory is O(distinct outcomes), not O(shots).
        std::map<std::uint64_t, std::uint64_t> hist;
        std::vector<std::uint64_t> buffer(
            std::min(kWalkChunk, spec.shots));
        for (std::size_t lo = 0; lo < spec.shots; lo += kWalkChunk) {
            const std::size_t hi = std::min(lo + kWalkChunk, spec.shots);
            runTrials(spec, plan.get(), nullptr, lo, hi, buffer.data());
            for (std::size_t k = 0; k < hi - lo; ++k)
                ++hist[buffer[k]];
        }
        return hist;
    }

    const std::size_t num_shards =
        ThreadPool::insideWorker()
            ? 1
            : std::min<std::size_t>(pool().concurrency(), spec.shots);
    std::vector<std::map<std::uint64_t, std::uint64_t>> shard_hists(
        num_shards);
    auto run_shard = [&](std::size_t s) {
        const auto [lo, hi] = shardRange(s, num_shards, spec.shots);
        // Fold trials into the shard histogram in fixed-size chunks so
        // peak memory really is O(distinct outcomes), not O(shots).
        constexpr std::size_t chunk = 8192;
        std::vector<std::uint64_t> buffer(std::min(chunk, hi - lo));
        auto &hist = shard_hists[s];
        for (std::size_t m = lo; m < hi; m += chunk) {
            const std::size_t end = std::min(m + chunk, hi);
            runTrials(spec, plan.get(), sampler.get(), m, end,
                      buffer.data());
            for (std::size_t k = 0; k < end - m; ++k)
                ++hist[buffer[k]];
        }
    };
    if (num_shards == 1)
        run_shard(0); // no pool to resolve for an inline gather
    else
        pool().parallelFor(num_shards, run_shard);

    // Merge in shard order: deterministic regardless of which worker
    // finished first (counts commute, but the convention is cheap and
    // makes the reduction order part of the contract).
    std::map<std::uint64_t, std::uint64_t> merged;
    for (const auto &hist : shard_hists)
        for (const auto &[value, count] : hist)
            merged[value] += count;
    return merged;
}

} // namespace qsa::runtime
