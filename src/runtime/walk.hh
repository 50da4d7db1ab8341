/**
 * @file
 * The outcome-tree walk: trials stepped through a program's
 * measurement outcomes, one state per outcome history.
 *
 * The paper re-simulates a truncated program once per ensemble member
 * (Section 3.3). Members differ only in their measurement outcomes,
 * so a walk steps them as a tree: a node is the group of trials
 * sharing one outcome history, with one state, one measurement
 * record, one cursor and a contiguous slot range of the walk's
 * StreamBank. At each measured qubit (a Measure or a reset) the node
 * computes probabilityOne once, each trial draws one bernoulli from
 * its own stream (StreamBank::partition), and the node splits into at
 * most two children collapsed by StateVector::projectQubit, bit for
 * bit the collapse each trial's measureQubit would make alone. Every
 * trial draws exactly the numbers it would draw alone, in the same
 * order, against bit-identical states.
 *
 * At each of a sorted list of cursor positions a node reaches, and at
 * its leaf, the walk calls one observer with the node's state and slot
 * range: once per node, never once per trial. The ensemble engine's
 * gather reads trials out there (ensemble.hh), the sampled predicate
 * oracle draws each trial's boundary outcomes there
 * (locate/predicates.hh), and SampleFinalState's single run is a
 * one-trial walk whose leaf keeps the marginal. A walk may cover part
 * of a bank: a paired engine's leaf walks the reference's prefix over
 * just the leaf's slots, from inside the observer (ensemble.hh).
 *
 * The walk is iterative: its live states are the splits on the current
 * path plus at most one handed-off subtree per pool thread. Given a
 * pool, independent subtrees fan out across it; every node is still
 * simulated once, so the tree and every sim.* total are the same for
 * any thread count. The walk opens no span and counts no segment; its
 * callers do.
 */

#ifndef QSA_RUNTIME_WALK_HH
#define QSA_RUNTIME_WALK_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "circuit/circuit.hh"
#include "runtime/pool.hh"
#include "runtime/streams.hh"
#include "sim/statevector.hh"

namespace qsa::runtime
{

/**
 * Instructions [begin, end) of `circ`, read in place: a truncated
 * program, a head or a tail, never a copy.
 */
struct InstructionRange
{
    const circuit::Circuit *circ = nullptr;
    std::size_t begin = 0;
    std::size_t end = 0;
};

/** A deterministic head simulated once. */
struct Head
{
    explicit Head(unsigned num_qubits) : state(num_qubits) {}

    /** State after the head. */
    sim::StateVector state;

    /** Per-trial RNG draws the head's resets would have consumed. */
    std::size_t draws = 0;
};

/** A tail instruction's measurement labels, as measurement-record
 *  slots: the slot a Measure writes and the slot a condition reads. */
struct LabelSlots
{
    static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

    std::uint32_t write = kNone;
    std::uint32_t read = kNone;
};

/**
 * What a walk steps through: a truncated program's nondeterministic
 * tail, its labels resolved to record slots once (numbered in the
 * order the tail first names them), so a node's record is a flat
 * vector: labels[i - range.begin] holds instruction i's slots.
 */
struct Tail
{
    explicit Tail(const InstructionRange &range);

    InstructionRange range;
    std::vector<LabelSlots> labels;

    /** Distinct labels the tail measures or conditions on. */
    std::size_t recordSlots = 0;
};

/**
 * Trials per walk: one stream bank. Callers walk the fixed global
 * chunks [k * kWalkChunk, (k + 1) * kWalkChunk), so the outcome tree,
 * and with it every sim.* total, never depends on a shard count; the
 * chunk also bounds the walk's per-trial bookkeeping (one bank slot
 * per trial).
 */
constexpr std::size_t kWalkChunk = StreamBank::kMaxSlots;

/**
 * A walk's observer: called once per node at each position the node's
 * cursor reaches, with k its index in the walk's position list, and
 * once at the node's leaf, with k the list's size; `state` is the
 * node's state there and [lo, hi) the bank slots of its trials. A
 * walk on a pool calls it from several threads at once, for disjoint
 * slot ranges.
 */
using WalkObserver =
    std::function<void(std::size_t k, const sim::StateVector &state,
                       std::size_t lo, std::size_t hi)>;

/**
 * Walk the slots [lo, hi) of `bank` through `tail` from `root`,
 * calling `observe` at each of `positions` (ascending instruction
 * indices into the tail's program; a position equal to the tail's end
 * is reached just before the leaf) and at each leaf. Runs on every
 * thread of `pool` at once, or on the calling thread alone when null.
 * Throws what a trial run alone would throw first on some path (a
 * condition on a label no Measure on the path wrote), or what
 * `observe` throws. Returns the path segments walked (tree nodes).
 */
std::size_t walkTail(const Tail &tail, sim::StateVector root,
                     StreamBank &bank, std::size_t lo, std::size_t hi,
                     const std::vector<std::size_t> &positions,
                     const WalkObserver &observe,
                     ThreadPool *pool = nullptr);

} // namespace qsa::runtime

#endif // QSA_RUNTIME_WALK_HH
