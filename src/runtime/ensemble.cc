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
#include <optional>
#include <string_view>
#include <unordered_map>

#include "circuit/executor.hh"
#include "common/bits.hh"
#include "common/logging.hh"
#include "obs/obs.hh"
#include "runtime/streams.hh"

namespace qsa::runtime
{

/**
 * Instructions [begin, end) of `circ`, read in place: a truncated
 * program, a head, a tail or a tensor stage, never a copy.
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

    /** Per-trial RNG draws the head's resets would have made. */
    std::size_t draws = 0;
};

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

/** A tail instruction's measurement labels, as measurement-record
 *  slots: the slot a Measure writes and the slot a condition reads. */
struct LabelSlots
{
    static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

    std::uint32_t write = kNone;
    std::uint32_t read = kNone;
};

/** One stretch of the tail that runs on one state, with the record
 *  slots of its instructions (labels[i - range.begin]). */
struct TailPhase
{
    InstructionRange range;
    std::vector<LabelSlots> labels;
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
    explicit BreakpointPlan(unsigned num_qubits) : head(num_qubits) {}

    /** Head of the truncated program; in a staged plan, of its low
     *  block, on the low qubits. */
    Head head;

    /** Staged plans only: the high block. */
    std::unique_ptr<const HighStage> high;

    /** The tail, in program order: the instructions after the head
     *  (possibly none), then, staged, those after the high block's
     *  head and the combining tail (everything after the high run, up
     *  to the truncation, on the full space). Its measurement labels
     *  are resolved to record slots once, here (setTail). */
    std::vector<TailPhase> phases;

    /** Distinct labels the tail measures or conditions on: the size of
     *  a walk node's measurement record. */
    std::size_t recordSlots = 0;
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

/** Measurement record of a tail run: a value per record slot
 *  (BreakpointPlan::recordSlots), empty until some Measure writes it. */
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

/** Run `phase` onto `state` on one stream (circuit::stepInstruction
 *  over the phase, with the record kept in slots). */
void
runPhase(const TailPhase &phase, sim::StateVector &state, Record &record,
         Rng &rng)
{
    const circuit::Circuit &circ = *phase.range.circ;
    for (std::size_t i = phase.range.begin; i < phase.range.end; ++i) {
        const circuit::Instruction &inst = circ.instructions()[i];
        const LabelSlots &labels = phase.labels[i - phase.range.begin];
        if (!conditionHolds(inst, labels, record))
            continue;
        if (inst.kind == circuit::GateKind::PrepZ)
            state.prepZ(inst.targets[0], inst.bit, rng);
        else if (inst.kind == circuit::GateKind::Measure)
            record[labels.write] = state.measureQubits(inst.targets, rng);
        else
            circuit::applyUnitaryInstruction(circ, inst, state);
    }
}

/** Advance `rng` past `draws` draws. */
void
discardDraws(Rng &rng, std::size_t draws)
{
    for (std::size_t d = 0; d < draws; ++d)
        rng.uniform();
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
 * else one path through the tail(s), each head's reset draws
 * discarded before its tail, in program order.
 */
std::vector<double>
finalMarginal(const BreakpointPlan &plan, std::uint64_t seed,
              const std::vector<unsigned> &qubits)
{
    const InstructionRange &tail = plan.phases[0].range;
    if (plan.high == nullptr && tail.begin == tail.end)
        return plan.head.state.marginalProbs(qubits);

    Rng rng = Rng(seed).split(0);
    Record record(plan.recordSlots);
    sim::StateVector state = plan.head.state;
    discardDraws(rng, plan.head.draws);
    runPhase(plan.phases[0], state, record, rng);
    if (plan.high != nullptr) {
        const HighStage &high = *plan.high;
        sim::StateVector high_state = high.head.state;
        discardDraws(rng, high.head.draws);
        runPhase(plan.phases[1], high_state, record, rng);
        state = state.tensorWith(high_state);
        runPhase(plan.phases[2], state, record, rng);
    }
    return state.marginalProbs(qubits);
}

/**
 * Set `plan`'s tail to `ranges`, its measurement labels resolved to
 * record slots numbered in the order the ranges first name them, so a
 * record is a flat vector and no run looks a label up by name.
 */
void
setTail(BreakpointPlan &plan, const std::vector<InstructionRange> &ranges)
{
    std::unordered_map<std::string_view, std::uint32_t> slots;
    const auto slotOf = [&](const std::string &label) {
        const auto next = static_cast<std::uint32_t>(slots.size());
        return slots.try_emplace(label, next).first->second;
    };
    for (const InstructionRange &range : ranges) {
        TailPhase phase{range, {}};
        phase.labels.reserve(range.end - range.begin);
        const auto &insts = range.circ->instructions();
        for (std::size_t i = range.begin; i < range.end; ++i) {
            LabelSlots labels;
            if (insts[i].kind == circuit::GateKind::Measure)
                labels.write = slotOf(insts[i].label);
            if (!insts[i].condLabel.empty())
                labels.read = slotOf(insts[i].condLabel);
            phase.labels.push_back(labels);
        }
        plan.phases.push_back(std::move(phase));
    }
    plan.recordSlots = slots.size();
}

/**
 * Trials per path walk: one stream bank. gather() walks the fixed
 * global chunks [k * kWalkChunk, (k + 1) * kWalkChunk), so the outcome
 * tree — and with it every sim.* total — never depends on the shard
 * count; the chunk also bounds the walk's per-trial bookkeeping (one
 * bank slot per trial).
 */
constexpr std::size_t kWalkChunk = StreamBank::kMaxSlots;

/**
 * The Resimulate trial loop as one walk over the tree of
 * measurement-outcome paths (see ensemble.hh). A node is the group of
 * trials sharing one outcome history: one state, one measurement
 * record, one cursor into the instruction stream, and a contiguous
 * range of the walk's stream bank. The stream is the plan's tail
 * phases followed by the truncating readout of spec.qubits, which
 * runs on compacted sub-states (readout()).
 */
class PathWalk
{
  public:
    /** Walk trials [lo, hi) of `spec`; outcome of trial m -> out[m - lo]. */
    PathWalk(const BreakpointPlan &plan, const EnsembleSpec &spec,
             std::size_t lo, std::size_t hi, std::uint64_t *out)
        : plan(plan), spec(spec), out(out)
    {
        bank.seed(spec.seed, lo, hi - lo);
        // The draws the cached head's resets would have consumed.
        bank.discard(0, bank.size(), plan.head.draws);
        layOutReadout();
    }

    /** Walk the whole tree, fanning subtrees out on `pool` if given. */
    void
    run(ThreadPool *pool)
    {
        QSA_OBS_SPAN(span, "runtime.resim.walk");
        Node root{plan.head.state,
                  nullptr,
                  Record(plan.recordSlots),
                  0,
                  bank.size(),
                  0,
                  plan.phases[0].range.begin,
                  0,
                  0};
        walk(std::move(root), pool);
        const std::size_t total = segments.load();
        QSA_OBS_COUNTER("runtime.resim.segments", total);
        span.arg("trials", bank.size()).arg("segments", total);
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
        Record record;

        /** The bank slots [lo, hi) of the trials on this path. */
        std::size_t lo = 0;
        std::size_t hi = 0;

        /** Cursor: phase (phases.size() = readout), instruction (an
         *  index into the phase's circuit), target within a
         *  multi-qubit Measure. */
        std::size_t phase = 0;
        std::size_t pc = 0;
        std::size_t sub = 0;

        /** Value of the Measure in progress. */
        std::uint64_t value = 0;
    };

    /**
     * Readout position j as every readout node at depth j sees it. A
     * node at depth j holds, in ascending index order, only the
     * 2^width amplitudes whose qubits read so far match its outcomes;
     * the rest are exact zeros of the full state. spec.qubits[j] is
     * bit `bit` of that compact index, unless position `repeats` < j
     * already read the same qubit.
     */
    struct ReadoutStep
    {
        unsigned width = 0;
        unsigned bit = 0;
        std::size_t repeats = 0;
    };

    const BreakpointPlan &plan;
    const EnsembleSpec &spec;
    std::uint64_t *out;

    /** Per-trial streams; each node owns a contiguous slot range. */
    StreamBank bank;

    /** spec.qubits as readout steps (layOutReadout). */
    std::vector<ReadoutStep> readoutSteps;

    /** Path segments simulated (tree nodes), for the counter. */
    std::atomic<std::size_t> segments{0};

    void
    layOutReadout()
    {
        const unsigned n =
            plan.head.state.numQubits() +
            (plan.high != nullptr ? plan.high->head.state.numQubits() : 0);
        std::uint64_t read = 0; // qubits read so far
        for (std::size_t j = 0; j < spec.qubits.size(); ++j) {
            const unsigned q = spec.qubits[j];
            panic_if(q >= n, "qubit out of range");
            const std::uint64_t mask = std::uint64_t{1} << q;
            ReadoutStep step;
            step.width = n - popcount64(read);
            step.repeats = j;
            if (read & mask) {
                step.repeats = static_cast<std::size_t>(
                    std::find(spec.qubits.begin(), spec.qubits.end(), q) -
                    spec.qubits.begin());
            } else {
                step.bit = q - popcount64(read & (mask - 1));
                read |= mask;
            }
            readoutSteps.push_back(step);
        }
    }

    /** Cross into phase `next`: the staged hand-offs, or readout. */
    void
    enterPhase(Node &node, std::size_t next)
    {
        node.phase = next;
        node.pc = next < plan.phases.size() ? plan.phases[next].range.begin
                                            : 0;
        node.value = 0;
        if (plan.high == nullptr || next == plan.phases.size())
            return;
        if (next == 1) {
            // Low leaf: start this history's high half from its head.
            node.low = std::make_shared<const sim::StateVector>(
                std::move(node.state));
            node.state = plan.high->head.state;
            bank.discard(node.lo, node.hi, plan.high->head.draws);
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
        Node sibling{node.state, node.low,  node.record, ones,
                     node.hi,    node.phase, node.pc,    node.sub,
                     node.value};
        node.hi = ones;
        collapse(node, 0);
        collapse(sibling, 1);
        return sibling;
    }

    /**
     * A node of the readout subtree: its depth (readout positions
     * read), bank slots and outcomes so far, and its compacted
     * amplitudes at `offset` in buffer `buffer` — none once a repeated
     * qubit read against its earlier outcome left the state zero.
     */
    struct ReadoutNode
    {
        std::size_t depth = 0;
        std::size_t lo = 0;
        std::size_t hi = 0;
        std::uint64_t value = 0;
        unsigned buffer = 0;
        std::uint64_t offset = 0;
        bool zero = false;
    };

    /**
     * The truncating readout of `node`'s trials, all on this thread.
     * The readout subtree is walked depth first on compacted blocks
     * (StateVector::blockProbabilityOne and blockCollapse): a node at
     * depth j holds only the 2^width amplitudes consistent with its
     * outcomes so far (ReadoutStep), so the draws, outcomes and
     * sim.measurements count are those of measuring the full state
     * qubit by qubit. A split writes both halves from one buffer into
     * the same range of the other: the node's own amplitudes, then one
     * scratch of the same size.
     */
    void
    readout(Node &node)
    {
        std::vector<sim::Complex> own =
            std::move(node.state).releaseAmplitudes();
        std::unique_ptr<double[]> scratch(new double[2 * own.size()]);
        double *const buffers[2] = {reinterpret_cast<double *>(own.data()),
                                    scratch.get()};
        ReadoutNode root;
        root.lo = node.lo;
        root.hi = node.hi;
        std::vector<ReadoutNode> pending{root};
        while (!pending.empty()) {
            ReadoutNode part = pending.back();
            pending.pop_back();
            while (part.depth < readoutSteps.size()) {
                if (auto sibling = readoutStep(part, buffers)) {
                    segments.fetch_add(2, std::memory_order_relaxed);
                    pending.push_back(*sibling);
                }
            }
            for (std::size_t slot = part.lo; slot < part.hi; ++slot)
                out[bank.trial(slot)] = part.value;
        }
    }

    /** Read one qubit out of `part`; a split returns the outcome-1
     *  branch and leaves `part` the outcome-0 one. */
    std::optional<ReadoutNode>
    readoutStep(ReadoutNode &part, double *const (&buffers)[2])
    {
        QSA_OBS_COUNTER("sim.measurements", 1);
        using sim::StateVector;
        const ReadoutStep &step = readoutSteps[part.depth];
        const std::size_t j = part.depth++;
        StateVector::BlockQubit qubit{step.bit};
        if (step.repeats < j)
            qubit.fixed = static_cast<int>((part.value >> step.repeats) & 1);
        const double *const block = buffers[part.buffer] + 2 * part.offset;
        const double p1 =
            part.zero ? 0.0
                      : StateVector::blockProbabilityOne(block, step.width,
                                                         qubit);
        const std::size_t ones =
            bank.partition(part.lo, part.hi, bernoulliThreshold(p1));

        ReadoutNode one = part;
        one.lo = ones;
        one.value |= std::uint64_t{1} << j;
        part.hi = ones;
        // Each half, compacted, into the node's range of the other
        // buffer: outcome 0 first, outcome 1 after it. A fixed qubit
        // leaves the block where it is; at most one of its branches
        // is not zero.
        if (qubit.fixed < 0) {
            part.buffer = one.buffer = 1 - part.buffer;
            one.offset = part.offset + (std::uint64_t{1} << step.width) / 2;
        }
        const auto collapse = [&](ReadoutNode &branch, unsigned value,
                                  double prob) {
            if (branch.lo < branch.hi && !branch.zero)
                branch.zero = !StateVector::blockCollapse(
                    block, step.width, qubit, value, prob,
                    buffers[branch.buffer] + 2 * branch.offset);
        };
        collapse(part, 0, 1.0 - p1);
        collapse(one, 1, p1);
        if (part.lo == part.hi) {
            part = one;
            return std::nullopt;
        }
        if (one.lo == one.hi)
            return std::nullopt;
        return one;
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
            if (node.phase == plan.phases.size()) {
                readout(node);
                return std::nullopt;
            }
            const TailPhase &phase = plan.phases[node.phase];
            if (node.pc == phase.range.end) {
                enterPhase(node, node.phase + 1);
                continue;
            }
            const circuit::Circuit &circ = *phase.range.circ;
            const circuit::Instruction &inst =
                circ.instructions()[node.pc];
            const LabelSlots &labels =
                phase.labels[node.pc - phase.range.begin];
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
        auto plan = std::make_shared<BreakpointPlan>(program->numQubits());
        std::size_t resumed = 0;
        const std::size_t head = deterministicHead(
            end, plan->head.state, plan->head.draws, resumed);
        setTail(*plan, {{program, head, end}});
        span.arg("resumed", resumed).arg("simulated", head - resumed);
        return plan;
    }

    // Staged: per-half deterministic heads on the small spaces; trials
    // copy the half states, run the half tails, and tensor only for
    // the combining tail.
    const auto [low_end, high_end] = *runs;
    auto plan = std::make_shared<BreakpointPlan>(split);
    auto high = std::make_unique<HighStage>(program->numQubits() - split);
    {
        QSA_OBS_SPAN(slice, "runtime.slice");
        circuit::RangeCopy down;
        down.qubitOffset = -static_cast<int>(split);
        high->block.appendRange(*program, low_end, high_end, down);
    }
    const std::size_t low_head = simulateHead(*program, low_end, plan->head);
    const std::size_t high_head =
        simulateHead(high->block, high->block.size(), high->head);
    setTail(*plan, {{program, low_head, low_end},
                    {&high->block, high_head, high->block.size()},
                    {program, high_end, end}});
    plan->high = std::move(high);
    QSA_OBS_COUNTER("runtime.tensor_stages.built", 1);
    span.arg("resumed", 0).arg("simulated", low_head + high_head);
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
    if (spec.shots == 0)
        return {};

    QSA_OBS_SPAN(span, "runtime.gather");
    span.arg("breakpoint", spec.breakpoint)
        .arg("shots", spec.shots)
        .arg("mode", ensembleModeName(spec.mode));
    QSA_OBS_TIMER(gather_time, "runtime.ensemble.gather");
    QSA_OBS_COUNTER("runtime.ensemble.trials", spec.shots);

    std::shared_ptr<const BreakpointPlan> plan;
    std::shared_ptr<const CdfSampler> sampler;
    if (spec.mode == EnsembleMode::Resimulate)
        plan = planAt(spec.breakpoint);
    else
        sampler = shotSampler(spec);

    std::vector<std::uint64_t> out(spec.shots);
    // From inside a worker (e.g. a BatchRunner unit) or for a single
    // trial the fan-out would run inline anyway — skip resolving a
    // pool entirely.
    ThreadPool *fan_out = ThreadPool::insideWorker() || spec.shots == 1
                              ? nullptr
                              : &pool();
    if (plan != nullptr) {
        // One walk per global chunk (see kWalkChunk).
        for (std::size_t lo = 0; lo < spec.shots; lo += kWalkChunk) {
            const std::size_t hi = std::min(spec.shots, lo + kWalkChunk);
            PathWalk(*plan, spec, lo, hi, out.data() + lo).run(fan_out);
        }
        return out;
    }

    const Rng master(spec.seed);
    const auto sample = [&](std::size_t lo, std::size_t hi) {
        for (std::size_t m = lo; m < hi; ++m) {
            Rng rng = master.split(m + 1);
            out[m] = sampler->sample(rng.uniform());
        }
    };
    if (fan_out == nullptr) {
        sample(0, spec.shots);
        return out;
    }
    const std::size_t num_shards =
        std::min<std::size_t>(fan_out->concurrency(), spec.shots);
    fan_out->parallelFor(num_shards, [&](std::size_t s) {
        const auto [lo, hi] = shardRange(s, num_shards, spec.shots);
        sample(lo, hi);
    });
    return out;
}

} // namespace qsa::runtime
