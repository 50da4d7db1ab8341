/**
 * @file
 * Shard-oriented thread pool for ensemble execution.
 *
 * The paper ran its ensembles as independent simulator jobs on a
 * cluster; qsa::runtime reproduces that shape on one machine with a
 * fixed pool of workers. The pool deliberately has no work stealing and
 * no futures — the only primitive is parallelFor(n, body), which hands
 * out indices [0, n) to the workers (the calling thread participates)
 * and blocks until every index has been processed.
 *
 * Determinism contract: parallelFor guarantees each index runs exactly
 * once, but in no particular order and on no particular thread. Callers
 * that need thread-count-invariant results must therefore make the work
 * for index i depend only on i (the ensemble engine derives one RNG
 * stream per trial index, never per worker).
 *
 * Nested parallelFor calls — a worker's body calling parallelFor, on
 * any pool — run inline on the calling worker. That makes composition
 * (BatchRunner fanning out assertion checks whose ensemble generation
 * is itself parallelised) deadlock-free by construction.
 */

#ifndef QSA_RUNTIME_POOL_HH
#define QSA_RUNTIME_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace qsa::runtime
{

/** See file comment. */
class ThreadPool
{
  public:
    /**
     * @param num_threads total concurrency including the calling
     *        thread (the pool spawns num_threads - 1 workers);
     *        0 means the hardware concurrency.
     */
    explicit ThreadPool(unsigned num_threads = 0);

    /**
     * Safe while work is still arriving: an in-flight job is drained
     * to completion, posters blocked waiting for the pool observe the
     * shutdown and run their job inline on their own thread, and only
     * then are the workers joined. Destruction never drops posted
     * work and never deadlocks against concurrent parallelFor calls
     * (tests/test_shutdown.cc churns pools under load to pin this).
     */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total concurrency (helper workers + the calling thread). */
    unsigned concurrency() const
    {
        return static_cast<unsigned>(workers.size()) + 1;
    }

    /**
     * Run body(i) exactly once for every i in [0, n), distributing
     * indices across the workers and the calling thread; blocks until
     * all n calls have returned. Safe to call from multiple external
     * threads (calls are serialised) and from inside a worker (runs
     * inline, see file comment).
     *
     * A body that throws does not wedge the pool: the first exception
     * is captured, later indices may be skipped, and once every
     * claimed call has returned the exception is rethrown to the
     * parallelFor caller — matching what the inline (serial) path
     * does naturally.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &body);

    /**
     * True when the calling thread is currently executing a
     * parallelFor body (of any pool). Lets layered code skip
     * fan-out work — e.g. the ensemble engine avoids resolving a
     * pool at all for gathers that would run inline anyway.
     */
    static bool insideWorker();

    /**
     * Process-wide pool sized to the hardware concurrency, created on
     * first use and never destroyed. The default backend for
     * ensembles and batches.
     */
    static ThreadPool &shared();

    /**
     * The library's pool-selection convention in one place:
     * num_threads == 0 resolves to shared(); any other value spawns a
     * dedicated pool of that concurrency into `owned`.
     */
    static ThreadPool &resolve(unsigned num_threads,
                               std::unique_ptr<ThreadPool> &owned);

  private:
    /** One parallelFor invocation: an atomically drained index range. */
    struct Job
    {
        const std::function<void(std::size_t)> *body = nullptr;
        std::size_t n = 0;
        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> completed{0};
        std::mutex doneMutex;
        std::condition_variable done;

        /** First exception thrown by a body; rethrown to the poster. */
        std::atomic<bool> failed{false};
        std::exception_ptr error;
        std::mutex errorMutex;
    };

    std::vector<std::thread> workers;
    std::mutex poolMutex;
    std::condition_variable wake;
    std::condition_variable idle;

    /** Destructor-side rendezvous: signalled when a blocked poster
     *  leaves or the in-flight job clears during teardown. */
    std::condition_variable drained;

    /** Posters currently blocked in parallelFor's idle wait. */
    std::size_t postersWaiting = 0;

    std::shared_ptr<Job> current;
    bool stopping = false;

    void workerLoop();
    static void drainJob(Job &job);
};

} // namespace qsa::runtime

#endif // QSA_RUNTIME_POOL_HH
