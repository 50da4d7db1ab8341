/**
 * @file
 * Batch assertion checking across the ensemble pool.
 *
 * A checker's assertion plan (AssertionChecker::checkAll,
 * session::Session::run) and a bug locator's LinearScan are many
 * independent checks. BatchRunner fans them across one thread pool at
 * check granularity; each unit's ensemble generation then runs inline
 * on the worker it landed on (nested parallelFor calls run inline —
 * see pool.hh), so the pool is never oversubscribed and the fan-out
 * cannot deadlock.
 *
 * The pool is resolved on the first real fan-out, not at
 * construction: with at most one unit, or on a thread that already
 * counts as a worker (a pool body, or a qsa_serve dispatcher holding
 * a ThreadPool::WorkerScope), the units run inline on the calling
 * thread and no pool is created, posted to or waited on.
 *
 * Results are positionally identical — and numerically bit-identical —
 * to checking each spec serially: every check routes through
 * qsa::runtime's EnsembleEngine with the same per-trial stream
 * derivation from CheckConfig::seed.
 */

#ifndef QSA_RUNTIME_BATCH_HH
#define QSA_RUNTIME_BATCH_HH

#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "assertions/checker.hh"
#include "runtime/pool.hh"

namespace qsa::runtime
{

/** See file comment. */
class BatchRunner
{
  public:
    /**
     * @param num_threads pool concurrency for the fan-out: 0 = the
     *        process-wide shared pool, otherwise a dedicated pool
     *        (spawned on the first fan-out, see the file comment).
     */
    explicit BatchRunner(unsigned num_threads = 0);

    ~BatchRunner();

    /**
     * Fan one checker's specs across this runner's pool, sharing the
     * checker's engine (plan and sampler caches) across all units —
     * the plan-execution path behind both AssertionChecker::checkAll
     * and session::Session::run. Each
     * unit's own ensemble generation runs inline on the worker it
     * lands on (nested parallelFor, pool.hh); a single spec is
     * checked directly so its ensemble keeps trial-level fan-out.
     * With `escalation` set, every unit runs the sequential
     * ensemble-doubling test of AssertionChecker::checkEscalated
     * instead of a fixed-size check. With `ensemble_sizes` set (same
     * length as `specs`), a non-zero entry overrides that one spec's
     * ensemble size — replacing the checker config's size for a plain
     * check, or the policy's initial size (with the cap raised to at
     * least the override) for an escalated one. result[j] is
     * specs[j]'s outcome; outcomes are bit-identical to a serial
     * per-spec loop.
     */
    std::vector<assertions::AssertionOutcome>
    checkAll(const assertions::AssertionChecker &checker,
             const std::vector<assertions::AssertionSpec> &specs,
             const assertions::EscalationPolicy *escalation = nullptr,
             const std::vector<std::size_t> *ensemble_sizes = nullptr);

    /** Run body(i) for every i in [0, n): inline when there is
     *  nothing to fan out (see the file comment), otherwise on the
     *  pool, resolving it on first use. */
    void forEach(std::size_t n,
                 const std::function<void(std::size_t)> &body);

  private:
    unsigned numThreads;
    std::once_flag poolOnce;
    std::unique_ptr<ThreadPool> ownedPool;
    ThreadPool *poolPtr = nullptr;
};

} // namespace qsa::runtime

#endif // QSA_RUNTIME_BATCH_HH
