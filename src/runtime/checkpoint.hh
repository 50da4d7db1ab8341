/**
 * @file
 * Content-addressed store of deterministic prefix states.
 *
 * An adaptive localization search runs one probe program per probed
 * boundary, and consecutive probes share long prefixes: every probe
 * above the search's passing floor starts with the same suspect
 * prefix, and a confirmation round repeats an earlier probe exactly.
 * A CheckpointStore lets the EnsembleEngine of each probe resume from
 * the longest prefix an earlier probe already simulated instead of
 * from instruction 0.
 *
 * Key. A deterministic prefix is keyed by (qubit count, number of
 * state-changing instructions, 64-bit hash chain over them), the
 * chain folding each instruction in with Circuit::chainHash — so a
 * Unitary is hashed by its matrix contents, as Circuit::contentHash
 * does. Breakpoint markers do not change the chain: the same prefix
 * carries different markers in different probes. Only deterministic
 * prefixes have keys: the chain stops at the first Measure or
 * classically-conditioned instruction, and nothing is stored past a
 * reset whose outcome is random (the Resimulate head rule, see
 * ensemble.hh). What a prefix leaves behind is then a function of
 * its instructions alone: the state, and the number of RNG draws its
 * resets make per trial, stored with it.
 *
 * Determinism. A resumed prefix skips exactly the instructions the
 * stored state already went through; the rest runs through the same
 * kernels with the same RNG draws, so every ensemble result equals a
 * store-free run bit for bit.
 *
 * Budget. A fixed byte budget (kBudgetBytes, no option) bounds the
 * stored states, with least-recently-used eviction. A state larger
 * than the whole budget is never copied in, so wide programs behave
 * as they do without a store.
 *
 * Scope. One store per adaptive mirror search (locate.cc), whose
 * probes mark three positions of their suspect prefix: the search's
 * passing floor, the boundary it probes next if the probe fails (the
 * midpoint between floor and boundary) and the probed boundary. The
 * next probe lies at that midpoint if this one fails and above the
 * boundary if it passes, so its head resumes at its own boundary or at
 * this one's, and simulates only the suspect instructions after that.
 * A probe paired with the reference (one that reads the fidelity of
 * the two prefix states, ensemble.hh) resumes its reference head from
 * the same store: below the first instruction where the programs
 * differ, the reference's keys are the suspect's, and past it the
 * reference head stores its own entries at the probe's three marks,
 * so the next probe's reference resumes there too. Engines without a
 * store keep their per-breakpoint caches only.
 */

#ifndef QSA_RUNTIME_CHECKPOINT_HH
#define QSA_RUNTIME_CHECKPOINT_HH

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/statevector.hh"

namespace qsa::runtime
{

/** Content address of a deterministic prefix (see file comment). */
struct CheckpointKey
{
    /** Qubit count of the state. */
    unsigned numQubits = 0;

    /** State-changing instructions the chain covers (markers
     *  excluded). */
    std::size_t instructions = 0;

    /** Hash chain over those instructions. */
    std::uint64_t chain = 0;

    bool
    operator==(const CheckpointKey &other) const
    {
        return numQubits == other.numQubits &&
               instructions == other.instructions &&
               chain == other.chain;
    }
};

/** A stored prefix state and its per-trial reset draws. */
struct Checkpoint
{
    sim::StateVector state;
    std::size_t draws = 0;
};

/** See file comment. Internally locked. */
class CheckpointStore
{
  public:
    /** Byte budget of the stored states. */
    static constexpr std::size_t kBudgetBytes = std::size_t{1} << 20;

    /** Bytes a stored state on `num_qubits` qubits occupies. */
    static std::size_t stateBytes(unsigned num_qubits);

    /**
     * The longest stored prefix among `keys` (keys[i] addresses the
     * first i instructions of one program): its index and checkpoint,
     * or (0, null) when none is stored. A hit becomes the most
     * recently used entry.
     */
    std::pair<std::size_t, std::shared_ptr<const Checkpoint>>
    longestPrefix(const std::vector<CheckpointKey> &keys);

    /**
     * Store a copy of `state` under `key` (a present key is only
     * touched). Evicts least-recently-used entries to fit; a state
     * larger than the budget is not stored.
     */
    void insert(const CheckpointKey &key, const sim::StateVector &state,
                std::size_t draws);

    /** Bytes currently stored (never above kBudgetBytes). */
    std::size_t bytes() const;

    /** Entries currently stored. */
    std::size_t size() const;

  private:
    struct KeyHash
    {
        std::size_t
        operator()(const CheckpointKey &key) const
        {
            return static_cast<std::size_t>(
                key.chain ^ (key.instructions * 0x9e3779b97f4a7c15ULL) ^
                key.numQubits);
        }
    };

    using Entry =
        std::pair<CheckpointKey, std::shared_ptr<const Checkpoint>>;

    mutable std::mutex mutex;

    /** Entries, most recently used first. */
    std::list<Entry> lru;

    std::unordered_map<CheckpointKey, std::list<Entry>::iterator,
                       KeyHash>
        index;

    std::size_t used = 0;
};

} // namespace qsa::runtime

#endif // QSA_RUNTIME_CHECKPOINT_HH
