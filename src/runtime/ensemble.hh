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
 *    cached: the truncation point and the truncated program's
 *    *deterministic head* — the longest
 *    prefix containing no measurement, no conditional instruction,
 *    and only resets whose outcome is certain (a reset whose other
 *    outcome has probability <= 1e-12 counts as certain) — simulated
 *    once, followed by the nondeterministic tail. For the paper's
 *    measurement-free benchmarks the whole truncated program is head.
 *  - in Resimulate mode the tail is simulated once per
 *    measurement-outcome path, not once per trial: gather() walks the
 *    trials through it as one outcome tree (runtime/walk.hh), so
 *    trials that share an outcome history share one state, each
 *    drawing exactly what it would draw alone. A tail with t binary
 *    measurements costs at most 2^t path segments, not N tails.
 *    At a leaf, the truncating readout builds one CdfSampler over the
 *    leaf state's marginal of the readout qubits, and each trial maps
 *    one uniform from its own stream through it: the paper's one
 *    measurement of each ensemble member at the breakpoint, drawn
 *    jointly, as SampleFinalState draws its shots.
 *  - in SampleFinalState mode the truncated program runs ONCE — the
 *    plan's head state itself when the tail is empty, otherwise a
 *    one-trial walk of the tail — and the N shots are split into
 *    contiguous shards, one per available worker, and
 *    multinomial-sampled from that state's outcome distribution via
 *    inverse-CDF binary search (a CdfSampler cached per breakpoint,
 *    seed and qubit list). This is exact only when the tail measures
 *    nothing; Resimulate stays exact for programs with mid-circuit
 *    measurement.
 *  - gather() walks fixed global chunks of trials (kWalkChunk) whose
 *    boundaries do not depend on the shard count, fanning subtrees
 *    out across the pool (inline inside a pool worker, e.g. a
 *    BatchRunner unit), so every sim.* total is thread-count
 *    invariant.
 *  - both caches, plans and samplers, are single-flight: the first
 *    gather of a key builds it outside the cache lock and concurrent
 *    gathers of that key wait for the one build, so each key is
 *    built — and counted, in sim.* and in its cache's misses — once
 *    whatever the thread count. A failed build evicts only its own
 *    claim, so a later gather retries it.
 *  - truncation copies nothing: a breakpoint resolves to its position
 *    in the bound program, and the truncated program, its
 *    deterministic head and its tail are instruction ranges of that
 *    program, read in place.
 *  - a multi-spec gather walks once for every Resimulate spec that
 *    shares the walked spec's seed and trial count and whose
 *    breakpoint lies at or after the start of the walked plan's
 *    tail: such a spec truncates the same program earlier,
 *    so its own plan would have the same head (the head rule stops at
 *    the same instruction), and its own walk would be the walked
 *    tree cut off at its breakpoint. Each node whose cursor reaches
 *    that breakpoint reads the spec out there, a *tap*: one
 *    CdfSampler over the node's marginal, as at a leaf. Paired plans
 *    take no taps.
 *  - with a shared CheckpointStore (EngineOptions::checkpoints), a
 *    plan's head resumes from the longest stored prefix of
 *    its own program and stores a checkpoint at every marker it
 *    passes and at the head's end (checkpoint.hh). A paired plan's
 *    reference head uses the same store; a mirror pairing's stores
 *    where the program's head stores, after the same numbers of
 *    state-changing instructions. The resumed part is never re-run,
 *    so results equal a store-free run bit for bit; only the work
 *    counters shrink.
 *  - a *paired* engine (EngineOptions::reference) reads one bit per
 *    trial from its program's prefix and a reference's prefix at the
 *    same boundary, each a head and a tail, as EngineOptions::pairing
 *    says:
 *     - Pairing::SwapTest is the swap-test comparator of the two,
 *       without the 2n+1-qubit comparator program. The reference's
 *       prefix is [0, b). A trial walks the program's tail; from the
 *       leaf it reaches, it discards the draws the reference head's
 *       resets would have made and walks the reference's tail over
 *       that leaf's slots (a walk of its own, inline on the leaf's
 *       thread). At each pair of leaves, with pure states psi and
 *       phi, the comparator's ancilla reads 0 with probability
 *       (1 + T) / 2, T = tr(rho_R sigma_R) their overlap on the
 *       compared qubits R (comparatorProbs), so a two-bin CdfSampler
 *       over [(1 + T) / 2, (1 - T) / 2] maps the trial's next
 *       uniform. This is the draw order of the comparator program
 *       itself (the suspect's draws, the reference's, then the
 *       readout), so trial vectors equal a plain engine's on that
 *       program, except where a uniform falls in the rounding gap
 *       between the simulated and the computed P(0) (below 1e-13 on
 *       the differential test's programs).
 *     - Pairing::Mirror is the paper's mirror check without its
 *       unwind: the program's prefix followed by the reference's
 *       adjoint returns to the reference's prologue state with
 *       probability F = |<phi|psi>|^2, the fidelity of the two
 *       prefix states. The reference's prefix holds as many
 *       state-changing instructions as the program's (the markers a
 *       probe program carries do not move it) and must be a
 *       deterministic head. At each program leaf a two-bin
 *       CdfSampler over [F, 1 - F] maps the trial's next uniform; the
 *       reference draws nothing, as the unwind it replaces ran none
 *       of its resets. So where the prologue value is 0, trial
 *       vectors equal a plain engine's on the unwind program (bin 0
 *       is [0, F) in both readouts), up to the rounding gap between
 *       the two ways of computing F (below 1e-14 on the differential
 *       test's programs).
 *    SampleFinalState runs the same reads once, as one trial.
 *
 * Work accounting: in Resimulate mode the sim.* counters measure
 * path-node work, not per-trial work. sim.gate_applies and
 * sim.amp_touches count each path segment's gates once, and
 * sim.measurements counts one per measured qubit per path node: one
 * per tail measurement, and |qubits| per leaf for the readout,
 * however many trials share that node. runtime.resim.segments counts
 * the tail's path segments (tree nodes); a readout adds none. A
 * paired plan counts one readout measurement per leaf pair, and a
 * swap-test plan the reference walks' segments too, less one per
 * walk, whose root continues the program leaf's segment. A tap adds
 * |qubits| to
 * sim.measurements per tapped node and no segments;
 * the tail before it is counted once, by the walk. Trials
 * (runtime.ensemble.trials) and gathers (runtime.ensemble.gather's
 * count) still count per spec, tapped or walked. Certain resets inside
 * a deterministic head are applied as projections and are not counted
 * in sim.measurements, in either mode; nor is any work a checkpoint
 * resume skips.
 *
 * RNG stream layout (fixed; part of the reproducibility contract):
 *  - Resimulate: trial m uses Rng(seed).split(m) for both gate-level
 *    randomness and the truncating measurement: after its head
 *    discards and its tail's draws, trial m's readout is one uniform
 *    from that stream, mapped through a CdfSampler over its final
 *    state's marginal. The cached head consumes no outcome-relevant
 *    randomness, and each trial discards exactly the draws the head's
 *    resets would have made, so trial outcomes are bit-identical to an
 *    uncached full re-simulation followed by that one draw (up to
 *    reset outcomes whose probability is below the ~1e-12 determinism
 *    tolerance); the path walk (walk.hh) changes no outcome. A
 *    swap-test pairing's trial m draws the program's tail, discards
 *    the reference head's draws, draws the reference's tail, then
 *    reads its one uniform: the comparator program's order. A mirror
 *    pairing's trial m draws the program's tail, then reads its one
 *    uniform: the unwind program's order. A tap
 *    reads trial m's next uniform without consuming it
 *    (StreamBank::peekUniform): that is the uniform a separate gather
 *    of the tapped spec maps through the same marginal, since its
 *    trial m has drawn exactly the same numbers by then, and the
 *    walk's own trial m draws on as if the tap were not there.
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

// Private to ensemble.cc: a breakpoint's deterministic head and tail,
// and a paired engine's reference prefix.
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
 * once to build, O(log domain) per draw — the readout of both modes,
 * SampleFinalState's shots and each Resimulate leaf's trials (the
 * linear scan in Rng::discrete is too slow at 2^width bins times
 * millions of shots).
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

/** What a paired engine reads out per trial (file comment). */
enum class Pairing
{
    /**
     * The swap-test comparator's ancilla: [(1 + T) / 2, (1 - T) / 2],
     * T the two prefixes' overlap on the compared qubits.
     */
    SwapTest,

    /**
     * The mirror's return to its prologue: [F, 1 - F], F the fidelity
     * of the program's prefix state and the reference's. The
     * reference's prefix must be a deterministic head.
     */
    Mirror,
};

/** Per-engine simulation options (fixed for the engine's lifetime, so
 *  every cache entry is built under one option set). */
struct EngineOptions
{
    /**
     * Shared store of deterministic prefix states (checkpoint.hh), or
     * null. Plans' heads then resume from the longest stored prefix of
     * their own program and store a checkpoint at every marker they
     * pass and at the head's end. Results are identical with and
     * without a store. Must outlive the engine.
     */
    CheckpointStore *checkpoints = nullptr;

    /**
     * The reference of a paired engine (file comment), or null: every
     * gather then reads out, as `pairing` says, one bit per trial
     * from the program's prefix and the reference's prefix at the
     * same boundary, for a spec naming one qubit (the bit's, outside
     * the program). Same qubit count as the program; must outlive the
     * engine.
     */
    const circuit::Circuit *reference = nullptr;

    /** A paired engine's compared qubits (SwapTest); empty = the full
     *  space. */
    std::vector<unsigned> compared;

    /** What a paired engine reads out. */
    Pairing pairing = Pairing::SwapTest;
};

/**
 * The swap-test comparator's ancilla distribution on two pure states
 * of one width: [(1 + T) / 2, (1 - T) / 2], where T = tr(rho_R
 * sigma_R) is their overlap on `compared` (empty = the full space,
 * where T is a.fidelity(b)), from the two reduced density matrices,
 * and clamped to [0, 1].
 */
std::vector<double> comparatorProbs(const sim::StateVector &a,
                                    const sim::StateVector &b,
                                    const std::vector<unsigned> &compared);

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
     * The one-spec form of the call below.
     */
    std::vector<std::uint64_t> gather(const EnsembleSpec &spec);

    /**
     * Gather several ensembles in one call: entry i is gather(specs[i])
     * bit for bit. Resimulate specs with one seed and one trial count
     * draw from the same trial streams, so the walk of the latest
     * breakpoint among them reads out each other one whose breakpoint
     * lies in its plan's tail as a *tap* (file comment);
     * every other spec gathers alone. Throws as gathering the specs
     * one by one would, though not necessarily for the same spec
     * first.
     */
    std::vector<std::vector<std::uint64_t>>
    gather(const std::vector<EnsembleSpec> &specs);

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
     * [0, end) of `circ` (the program or the reference), `end` the
     * last of the ascending `stops`, into `state` (|0...0> on entry)
     * through options.checkpoints when set: resume from the longest
     * stored prefix, then store a checkpoint at every marker and stop
     * passed and at the head's end. Returns the head length; `draws`
     * receives the head resets' per-trial draws and `resumed` the
     * instructions taken from the store.
     */
    std::size_t deterministicHead(const circuit::Circuit &circ,
                                  const std::vector<std::size_t> &stops,
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
