/**
 * @file
 * The outcome-tree walk (walk.hh).
 */

#include "runtime/walk.hh"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "circuit/executor.hh"
#include "common/logging.hh"
#include "obs/obs.hh"

namespace qsa::runtime
{

Tail::Tail(const InstructionRange &range) : range(range)
{
    std::unordered_map<std::string_view, std::uint32_t> slots;
    const auto slotOf = [&](const std::string &label) {
        const auto next = static_cast<std::uint32_t>(slots.size());
        return slots.try_emplace(label, next).first->second;
    };
    labels.reserve(range.end - range.begin);
    const auto &insts = range.circ->instructions();
    for (std::size_t i = range.begin; i < range.end; ++i) {
        LabelSlots slot;
        if (insts[i].kind == circuit::GateKind::Measure)
            slot.write = slotOf(insts[i].label);
        if (!insts[i].condLabel.empty())
            slot.read = slotOf(insts[i].condLabel);
        labels.push_back(slot);
    }
    recordSlots = slots.size();
}

namespace
{

/** Measurement record of a walk node: a value per record slot
 *  (Tail::recordSlots), empty until some Measure writes it. */
using Record = std::vector<std::optional<std::uint64_t>>;

/** Whether `inst` runs on a path with `record`: it has no condition,
 *  or its condition holds. */
bool
conditionHolds(const circuit::Instruction &inst, const LabelSlots &labels,
               const Record &record)
{
    if (inst.condLabel.empty())
        return true;
    const auto &recorded = record[labels.read];
    fatal_if(!recorded,
             "conditional instruction references unmeasured label '",
             inst.condLabel, "'");
    return *recorded == inst.condValue;
}

/** One walk over the tree of outcome paths (walk.hh). */
class PathWalk
{
  public:
    PathWalk(const Tail &tail, StreamBank &bank,
             const std::vector<std::size_t> &positions,
             const WalkObserver &observe)
        : tail(tail), bank(bank), positions(positions), observe(observe)
    {
    }

    /** Walk the tree of slots [lo, hi) from `root` (see walkTail). */
    std::size_t
    run(sim::StateVector root, std::size_t lo, std::size_t hi,
        ThreadPool *pool)
    {
        walk(Node{std::move(root), Record(tail.recordSlots), lo, hi,
                  tail.range.begin, 0, 0, 0},
             pool);
        return segments.load();
    }

  private:
    /** A group of trials sharing one measurement-outcome history. */
    struct Node
    {
        /** State after this outcome history. */
        sim::StateVector state;

        /** Measurement record of this outcome history. */
        Record record;

        /** The bank slots [lo, hi) of the trials on this path. */
        std::size_t lo = 0;
        std::size_t hi = 0;

        /** Cursor: instruction (an index into the tail's circuit),
         *  target within a multi-qubit Measure. */
        std::size_t pc = 0;
        std::size_t sub = 0;

        /** Value of the Measure in progress. */
        std::uint64_t value = 0;

        /** The first position this node has not reached. */
        std::size_t position = 0;
    };

    const Tail &tail;
    StreamBank &bank;
    const std::vector<std::size_t> &positions;
    const WalkObserver &observe;

    /** Path segments simulated (tree nodes). */
    std::atomic<std::size_t> segments{0};

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
        const std::size_t ones =
            bank.partition(node.lo, node.hi, bernoulliThreshold(p1));

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
        if (ones == node.hi) {
            collapse(node, 0);
            return std::nullopt;
        }
        if (ones == node.lo) {
            collapse(node, 1);
            return std::nullopt;
        }
        Node sibling{node.state, node.record, ones,      node.hi,
                     node.pc,    node.sub,    node.value, node.position};
        node.hi = ones;
        collapse(node, 0);
        collapse(sibling, 1);
        return sibling;
    }

    /**
     * Run `node` through one path segment: to its next split (the
     * split-off sibling is returned and `node` continues as the other
     * branch) or to its leaf (observed, nullopt returned).
     */
    std::optional<Node>
    advance(Node &node)
    {
        segments.fetch_add(1, std::memory_order_relaxed);
        while (true) {
            // A cursor at a position has run every instruction before
            // it and none after.
            if (node.position < positions.size() &&
                positions[node.position] == node.pc) {
                observe(node.position, node.state, node.lo, node.hi);
                ++node.position;
                continue;
            }
            if (node.pc == tail.range.end) {
                observe(positions.size(), node.state, node.lo, node.hi);
                return std::nullopt;
            }
            const circuit::Circuit &circ = *tail.range.circ;
            const circuit::Instruction &inst =
                circ.instructions()[node.pc];
            const LabelSlots &labels =
                tail.labels[node.pc - tail.range.begin];
            if (!conditionHolds(inst, labels, node.record)) {
                ++node.pc;
                continue;
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
                    node.record[labels.write] = node.value;
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

std::size_t
walkTail(const Tail &tail, sim::StateVector root, StreamBank &bank,
         std::size_t lo, std::size_t hi,
         const std::vector<std::size_t> &positions,
         const WalkObserver &observe, ThreadPool *pool)
{
    return PathWalk(tail, bank, positions, observe)
        .run(std::move(root), lo, hi, pool);
}

} // namespace qsa::runtime
