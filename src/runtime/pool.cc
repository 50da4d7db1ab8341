/**
 * @file
 * ThreadPool implementation.
 */

#include "runtime/pool.hh"

#include "common/logging.hh"
#include "obs/obs.hh"

namespace qsa::runtime
{

namespace
{

/**
 * Set while the current thread is executing a parallelFor body on
 * behalf of any pool; nested parallelFor calls detect it and run
 * inline instead of re-entering a pool.
 */
thread_local bool inside_worker = false;

} // anonymous namespace

ThreadPool::ThreadPool(unsigned num_threads)
{
    num_threads = concurrencyFor(num_threads);
    QSA_OBS_COUNTER("runtime.pool.spawned_threads", num_threads - 1);
    workers.reserve(num_threads - 1);
    for (unsigned i = 0; i + 1 < num_threads; ++i)
        workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(poolMutex);
        stopping = true;
        // Both waiter classes must observe the shutdown: workers
        // blocked on `wake` and posters blocked on `idle` (whose
        // predicate is stopping-aware; they fall back to running
        // their job inline). Forgetting `idle` deadlocks any thread
        // mid-post when a pool dies under load.
        wake.notify_all();
        idle.notify_all();
        // Let the in-flight job (if any) finish and every blocked
        // poster leave before the workers are joined.
        drained.wait(lock, [this] {
            return postersWaiting == 0 && current == nullptr;
        });
    }
    for (auto &worker : workers)
        worker.join();
}

bool
ThreadPool::insideWorker()
{
    return inside_worker;
}

ThreadPool::WorkerScope::WorkerScope() : previous(inside_worker)
{
    inside_worker = true;
}

ThreadPool::WorkerScope::~WorkerScope()
{
    inside_worker = previous;
}

unsigned
ThreadPool::concurrencyFor(unsigned num_threads)
{
    if (num_threads != 0)
        return num_threads;
    const unsigned hardware = std::thread::hardware_concurrency();
    return hardware == 0 ? 1 : hardware;
}

void
ThreadPool::drainJob(Job &job)
{
    while (true) {
        const std::size_t i = job.next.fetch_add(1);
        if (i >= job.n)
            break;
        QSA_OBS_COUNTER("runtime.pool.tasks", 1);
        // Letting an exception escape would leave the body and its
        // output buffers dangling under the other workers; capture
        // the first one instead and rethrow it from the poster once
        // every claimed call has returned (see pool.hh). After a
        // failure the remaining indices are skipped.
        try {
            if (!job.failed.load(std::memory_order_relaxed))
                (*job.body)(i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(job.errorMutex);
            if (!job.error) {
                job.error = std::current_exception();
                job.failed.store(true, std::memory_order_relaxed);
            }
        }
        if (job.completed.fetch_add(1) + 1 == job.n) {
            // Take the mutex so the poster cannot check the predicate
            // and block between our increment and our notify.
            std::lock_guard<std::mutex> lock(job.doneMutex);
            job.done.notify_all();
        }
    }
}

void
ThreadPool::workerLoop()
{
    inside_worker = true;
    std::unique_lock<std::mutex> lock(poolMutex);
    while (true) {
        {
            // Time blocked-without-work episodes; this is the pool's
            // idle-time signal (wall-clock, not part of the
            // determinism contract).
            QSA_OBS_TIMER(idle_wait, "runtime.pool.worker_idle");
            wake.wait(lock, [this] {
                return stopping ||
                       (current && current->next.load() < current->n);
            });
        }
        // Drain an in-flight job even when stopping: teardown must
        // not drop work the poster already handed over.
        if (current && current->next.load() < current->n) {
            auto job = current;
            lock.unlock();
            drainJob(*job);
            lock.lock();
            continue;
        }
        if (stopping)
            return;
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &body)
{
    if (n == 0)
        return;
    if (workers.empty() || n == 1 || inside_worker) {
        // Serial pool, trivial range, or a nested call from a worker:
        // run inline (see the deadlock-freedom note in pool.hh).
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    auto job = std::make_shared<Job>();
    job->body = &body;
    job->n = n;

    QSA_OBS_COUNTER("runtime.pool.jobs", 1);
    QSA_OBS_GAUGE_ADD("runtime.pool.queue_depth", 1);
    {
        // Serialise posters: one job owns the pool at a time. The
        // wait is stopping-aware so pool destruction cannot strand a
        // thread here (see ~ThreadPool); on shutdown the job runs
        // inline below, touching no pool state after the unlock.
        std::unique_lock<std::mutex> lock(poolMutex);
        QSA_OBS_TIMER(post_wait, "runtime.pool.poster_wait");
        ++postersWaiting;
        idle.wait(lock,
                  [this] { return stopping || current == nullptr; });
        --postersWaiting;
        if (stopping) {
            drained.notify_all();
            lock.unlock();
            for (std::size_t i = 0; i < n; ++i)
                body(i);
            QSA_OBS_GAUGE_ADD("runtime.pool.queue_depth", -1);
            return;
        }
        current = job;
    }
    wake.notify_all();

    // The poster works too, then blocks until the stragglers finish.
    {
        WorkerScope scope;
        drainJob(*job);
    }

    {
        std::unique_lock<std::mutex> lock(job->doneMutex);
        QSA_OBS_TIMER(straggler_wait, "runtime.pool.poster_wait");
        job->done.wait(lock, [&] {
            return job->completed.load() == job->n;
        });
    }
    {
        // Notify under the lock: the destructor's drained.wait cannot
        // finish (and free the condition variables) before this
        // region releases poolMutex, and nothing here touches the
        // pool after that.
        std::lock_guard<std::mutex> lock(poolMutex);
        current.reset();
        if (stopping)
            drained.notify_all();
        else
            idle.notify_one();
    }
    QSA_OBS_GAUGE_ADD("runtime.pool.queue_depth", -1);

    // A worker may still hold the last reference to the job. Take the
    // exception out under its lock, so the worker's destruction of the
    // job cannot release the exception this thread is rethrowing.
    std::exception_ptr error;
    {
        std::lock_guard<std::mutex> lock(job->errorMutex);
        error = std::move(job->error);
    }
    if (error)
        std::rethrow_exception(error);
}

ThreadPool &
ThreadPool::shared()
{
    // Immortal by design: never destroyed, so no exit path runs
    // ~ThreadPool on it. Every normal exit runs static destructors,
    // also one in a fork()ed child (a gtest death test), where the
    // workers the destructor would join do not exist: joining them
    // would crash the child instead of letting it report its status.
    // The OS reclaims the threads at process exit.
    static ThreadPool &pool = *new ThreadPool();
    return pool;
}

ThreadPool &
ThreadPool::resolve(unsigned num_threads,
                    std::unique_ptr<ThreadPool> &owned)
{
    if (num_threads == 0)
        return shared();
    owned = std::make_unique<ThreadPool>(num_threads);
    return *owned;
}

} // namespace qsa::runtime
