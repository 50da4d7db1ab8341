/**
 * @file
 * Sharded ensemble-execution engine.
 *
 * The paper's toolflow truncates the program at a breakpoint and runs
 * an *ensemble* of independent executions whose outcome counts feed the
 * chi-square machinery; the authors needed a cluster because ensembles
 * dominate the cost. The EnsembleEngine reproduces that fan-out on a
 * thread pool:
 *
 *  - every trial m derives its own RNG stream from the master seed by
 *    trial index (Rng::split(m), collision-free — see rng.hh), never
 *    from the worker or shard it happens to land on, so results are
 *    bit-identical for any thread count, including 1;
 *  - results land in disjoint slots of a preallocated trial-ordered
 *    buffer, so the merge is deterministic by construction;
 *  - both modes start from one *plan* per breakpoint, built once and
 *    cached: the truncation point, the tensor-stage layout (below),
 *    and the truncated program's *deterministic head* — the longest
 *    prefix containing no measurement, no conditional instruction,
 *    and only resets whose outcome is certain (a reset whose other
 *    outcome has probability <= 1e-12 counts as certain) — simulated
 *    once, followed by the nondeterministic tail. For the paper's
 *    measurement-free benchmarks the whole truncated program is head.
 *  - in Resimulate mode the tail is simulated once per
 *    measurement-outcome path. Trials differ only in their
 *    measurement outcomes, so the engine walks the tree of outcome
 *    paths: trials that share an outcome history share one state. At
 *    each measured qubit (a tail Measure, a random reset, or the
 *    truncating readout) the node computes probabilityOne once, each
 *    of its trials draws its own bernoulli from its own stream, and
 *    the node splits into at most two children collapsed by
 *    StateVector::projectQubit — bit for bit the collapse each
 *    trial's measureQubit would have made on its own copy — each
 *    child with its own measurement record. A tail with t binary
 *    measurements costs at most 2^t path segments, not N tails.
 *    Tensor-staged plans walk the low tail, then the high tail at
 *    each low leaf, then tensor the halves, then walk the combining
 *    tail. The trials' streams live in a StreamBank
 *    (runtime/streams.hh) whose slot ranges the nodes partition in
 *    place, and the readout keeps, per node, only the amplitudes
 *    consistent with its outcomes so far — the same sums and scalings
 *    as the full-state readout, bit for bit
 *    (sim::StateVector::blockCollapse).
 *  - in SampleFinalState mode the truncated program runs ONCE — the
 *    plan's head state itself when the tail is empty, otherwise one
 *    path through the tail(s) — and the N shots are split into
 *    contiguous shards, one per available worker, and
 *    multinomial-sampled from that state's outcome distribution via
 *    inverse-CDF binary search (a CdfSampler cached per breakpoint,
 *    seed and qubit list). This is exact only when the tail measures
 *    nothing; Resimulate stays exact for programs with mid-circuit
 *    measurement.
 *  - the walk is iterative (an explicit stack of pending siblings).
 *    Its live states are the splits on the current path plus at most
 *    one handed-off subtree per pool thread — never proportional to
 *    the trial count — and, per readout in progress, at most 2^n
 *    scratch amplitudes; a readout is never handed off. Independent
 *    subtrees fan out across the pool;
 *    every path node is simulated exactly once whatever the thread
 *    count, and inside a pool worker (e.g. a BatchRunner unit) the
 *    walk runs inline.
 *  - gather() walks fixed global chunks of trials whose boundaries do
 *    not depend on the shard count, so the tree — and every sim.*
 *    total — is thread-count invariant.
 *  - both caches, plans and samplers, are single-flight: the first
 *    gather of a key builds it outside the cache lock and concurrent
 *    gathers of that key wait for the one build, so each key is
 *    built — and counted, in sim.* and in its cache's misses — once
 *    whatever the thread count. A failed build evicts only its own
 *    claim, so a later gather retries it.
 *  - truncation copies nothing: a breakpoint resolves to its position
 *    in the bound program, and the truncated program, its
 *    deterministic head and its tail are instruction ranges of that
 *    program, read in place. Only a tensor-staged plan copies one
 *    block, its high-qubit run, which is relabelled onto the small
 *    state.
 *  - with a shared CheckpointStore (EngineOptions::checkpoints), a
 *    monolithic plan's head resumes from the longest stored prefix of
 *    its own program and stores a checkpoint at every marker it
 *    passes and at the head's end (checkpoint.hh). The resumed part
 *    is never re-run, so results equal a store-free run bit for bit;
 *    only the work counters shrink.
 *
 * Work accounting: in Resimulate mode the sim.* counters measure
 * path-node work, not per-trial work. sim.gate_applies and
 * sim.amp_touches count each path segment's gates once, and
 * sim.measurements counts one per measured qubit per path node (the
 * readout included), however many trials share that node. Certain
 * resets inside a deterministic head are applied as projections and
 * are not counted in sim.measurements, in either mode; nor is any
 * work a checkpoint resume skips.
 *
 * RNG stream layout (fixed; part of the reproducibility contract):
 *  - Resimulate: trial m uses Rng(seed).split(m) for both gate-level
 *    randomness and the truncating measurement. The cached head
 *    consumes no outcome-relevant randomness, and each trial discards
 *    exactly the draws the head's resets would have made, so trial
 *    outcomes are bit-identical to an uncached full re-simulation
 *    (up to reset outcomes whose probability is below the ~1e-12
 *    determinism tolerance). The path walk draws exactly the numbers
 *    each trial would draw alone, in the same order, against
 *    bit-identical states, so it changes no outcome.
 *  - SampleFinalState: the single run of the truncated program uses
 *    Rng(seed).split(0) — the heads' certain resets each discard one
 *    draw, as an uncached run's measurement of them would have made —
 *    and shot m draws its uniform from Rng(seed).split(m + 1). For
 *    resets whose outcome is exactly certain this is bit for bit a
 *    plain runCircuit of the prefix; a reset whose other outcome has
 *    probability in (0, 1e-12] always takes the likely outcome.
 */

#ifndef QSA_RUNTIME_ENSEMBLE_HH
#define QSA_RUNTIME_ENSEMBLE_HH

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "circuit/circuit.hh"
#include "runtime/checkpoint.hh"
#include "runtime/pool.hh"
#include "sim/statevector.hh"

namespace qsa::runtime
{

// Private to ensemble.cc: a breakpoint's truncation point, tensor
// stages, deterministic head(s) and tail(s).
struct BreakpointPlan;

/** How ensemble members are produced. */
enum class EnsembleMode
{
    /**
     * Re-run the truncated program once per ensemble member with an
     * independent random stream — the paper's methodology (one QX
     * simulation per measurement, Section 3.3). Exact for every
     * program, including ones with mid-circuit measurement.
     */
    Resimulate,

    /**
     * Run the truncated program once and sample measurement outcomes
     * from the exact final distribution. Equivalent to Resimulate for
     * programs whose only nondeterminism is the final measurement
     * (true of all the paper's benchmarks) and orders of magnitude
     * faster.
     */
    SampleFinalState,
};

/** Wire and report name of `mode`: "resimulate" or
 *  "sample_final_state". */
const char *ensembleModeName(EnsembleMode mode);

/** One ensemble request: where to truncate, what to measure, how. */
struct EnsembleSpec
{
    /** Breakpoint label the program is truncated at. */
    std::string breakpoint;

    /** Joint measurement qubit list (qubits[i] packs as bit i). */
    std::vector<unsigned> qubits;

    /** Number of trials. */
    std::size_t shots = 0;

    /** Trial generation mode. */
    EnsembleMode mode = EnsembleMode::SampleFinalState;

    /** Master seed; every trial gets a split stream (see file comment). */
    std::uint64_t seed = 0;
};

/**
 * Inverse-CDF sampler over a fixed discrete distribution: O(domain)
 * once to build, O(log domain) per draw — the multinomial shot sampler
 * behind SampleFinalState mode (the linear scan in Rng::discrete is
 * too slow at 2^width bins times millions of shots).
 */
class CdfSampler
{
  public:
    /** @param probs unnormalised non-negative weights, positive sum. */
    explicit CdfSampler(const std::vector<double> &probs);

    /** Map a uniform [0, 1) draw to a bin index. */
    std::size_t sample(double u) const;

  private:
    std::vector<double> cdf;
};

/** Per-engine simulation options (fixed for the engine's lifetime, so
 *  every cache entry is built under one option set). */
struct EngineOptions
{
    /**
     * Tensor-split hint: when non-zero, truncated prefixes whose
     * leading instructions separate into a low block on this many
     * qubits followed by a high-only block (the swap-probe shape) are
     * simulated half-by-half and tensored at the combining tail.
     * Prefixes without that structure fall back to monolithic
     * execution automatically.
     */
    unsigned tensorSplit = 0;

    /**
     * Shared store of deterministic prefix states (checkpoint.hh), or
     * null. Monolithic plans' heads then resume from the longest
     * stored prefix of their own program and store a checkpoint at
     * every marker they pass and at the head's end. Results are
     * identical with and without a store. Must outlive the engine.
     */
    CheckpointStore *checkpoints = nullptr;
};

/**
 * See file comment. An engine is bound to one program; it may be used
 * concurrently from several threads (BatchRunner does), with the
 * caches protected internally.
 */
class EnsembleEngine
{
  public:
    /**
     * @param program the full instrumented program; must outlive the
     *        engine (held by reference)
     * @param num_threads worker threads for the shards: 0 = the
     *        process-wide shared pool, otherwise a dedicated pool of
     *        exactly that concurrency (1 = serial)
     * @param options per-engine simulation options
     */
    explicit EnsembleEngine(const circuit::Circuit &program,
                            unsigned num_threads = 0,
                            EngineOptions options = {});

    /**
     * Gather the ensemble: trial-ordered joint measurement outcomes
     * (entry m is trial m's value, identical for any thread count).
     */
    std::vector<std::uint64_t> gather(const EnsembleSpec &spec);

    /**
     * Drop the cached plans and shot samplers. The caches trade memory
     * for speed — a plan holds a full 2^n head state per breakpoint —
     * so long-lived sessions that sweep many breakpoints can call this
     * to bound the footprint.
     */
    void clearCache();

    /**
     * The pool the shards run on; resolved (and for a dedicated pool,
     * spawned) on first use, so idle engines own no threads.
     */
    ThreadPool &pool();

  private:
    const circuit::Circuit *program;
    unsigned numThreads;
    EngineOptions options;
    std::once_flag poolOnce;
    std::unique_ptr<ThreadPool> ownedPool;
    ThreadPool *poolPtr = nullptr;

    /**
     * One in-flight-or-built cache entry. A future so a miss builds
     * OUTSIDE the cache mutex: gathers at distinct keys build in
     * parallel, while racers on one key wait for the one build. The
     * claim id lets a failed build evict exactly its own entry (not a
     * successor's, re-claimed after a clearCache()).
     */
    template <typename Value> struct Claim
    {
        std::shared_future<std::shared_ptr<const Value>> future;
        std::uint64_t id = 0;
    };

    /** Guards both caches and nextClaim. */
    std::mutex cacheMutex;

    /** Next claim id. */
    std::uint64_t nextClaim = 0;

    /** Plans keyed by breakpoint label; seed- and mode-independent. */
    std::map<std::string, Claim<BreakpointPlan>> plans;

    /**
     * SampleFinalState shot samplers keyed by (breakpoint, seed,
     * qubits): repeated gathers of the same request skip the O(2^n)
     * marginalisation and CDF build, not just the simulation.
     */
    std::map<std::tuple<std::string, std::uint64_t,
                        std::vector<unsigned>>,
             Claim<CdfSampler>>
        samplers;

    /**
     * The value cached under `key`, built by `build()` on the calling
     * thread if nobody has claimed the key, else the claimant's
     * (waiting for its build). `built` reports which.
     */
    template <typename Key, typename Value, typename Build>
    std::shared_ptr<const Value>
    singleFlight(std::map<Key, Claim<Value>> &cache, const Key &key,
                 const Build &build, bool &built);

    /**
     * Simulate the deterministic head of the truncated program
     * [0, end) into `state` (|0...0> on entry) through
     * options.checkpoints when set: resume from the longest stored
     * prefix, then store a checkpoint at every marker passed and at
     * the head's end. Returns the head length; `draws` receives the
     * head resets' per-trial draws and `resumed` the instructions
     * taken from the store.
     */
    std::size_t deterministicHead(std::size_t end,
                                  sim::StateVector &state,
                                  std::size_t &draws,
                                  std::size_t &resumed);

    /** The plan of `breakpoint` (cached, single-flight). */
    std::shared_ptr<const BreakpointPlan>
    planAt(const std::string &breakpoint);

    /** Simulate the plan of `breakpoint` (a plan-cache miss). */
    std::shared_ptr<const BreakpointPlan>
    buildPlan(const std::string &breakpoint);

    /** The shot sampler of a SampleFinalState spec (cached,
     *  single-flight). */
    std::shared_ptr<const CdfSampler>
    shotSampler(const EnsembleSpec &spec);
};

} // namespace qsa::runtime

#endif // QSA_RUNTIME_ENSEMBLE_HH
