/**
 * @file
 * BatchRunner implementation.
 */

#include "runtime/batch.hh"

#include "common/logging.hh"

namespace qsa::runtime
{

BatchRunner::BatchRunner(unsigned num_threads) : numThreads(num_threads)
{
}

BatchRunner::~BatchRunner() = default;

void
BatchRunner::forEach(std::size_t n,
                     const std::function<void(std::size_t)> &body)
{
    if (n <= 1 || ThreadPool::insideWorker()) {
        // Nothing to fan out, or a worker already: parallelFor would
        // run inline anyway, so do not resolve (or spawn) a pool.
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    // call_once: AssertionChecker::checkAll is const and may race on
    // its shared runner.
    std::call_once(poolOnce, [this] {
        poolPtr = &ThreadPool::resolve(numThreads, ownedPool);
    });
    poolPtr->parallelFor(n, body);
}

std::vector<assertions::AssertionOutcome>
BatchRunner::checkAll(const assertions::AssertionChecker &checker,
                      const std::vector<assertions::AssertionSpec> &specs,
                      const assertions::EscalationPolicy *escalation,
                      const std::vector<std::size_t> *ensemble_sizes)
{
    fatal_if(ensemble_sizes != nullptr &&
                 ensemble_sizes->size() != specs.size(),
             "per-spec ensemble sizes must match the spec count");
    std::vector<assertions::AssertionOutcome> outcomes(specs.size());
    const auto unit = [&](std::size_t j) {
        const std::size_t size =
            ensemble_sizes ? (*ensemble_sizes)[j] : 0;
        if (escalation) {
            assertions::EscalationPolicy policy = *escalation;
            if (size != 0) {
                policy.initialSize = size;
                policy.maxSize = std::max(policy.maxSize, size);
            }
            outcomes[j] = checker.checkEscalated(specs[j], policy);
        } else if (size != 0) {
            outcomes[j] = checker.check(specs[j], size);
        } else {
            outcomes[j] = checker.check(specs[j]);
        }
    };
    // A single spec runs directly on the calling thread (forEach), so
    // its one ensemble still shards its trials across the engine's
    // pool.
    forEach(specs.size(), unit);
    return outcomes;
}

} // namespace qsa::runtime
