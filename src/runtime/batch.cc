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

std::vector<std::vector<assertions::AssertionOutcome>>
BatchRunner::checkAll(const std::vector<BatchItem> &items)
{
    std::vector<std::vector<assertions::AssertionOutcome>> results(
        items.size());
    struct Unit
    {
        std::size_t item;
        std::size_t spec;
    };
    std::vector<Unit> units;
    for (std::size_t i = 0; i < items.size(); ++i) {
        results[i].resize(items[i].specs.size());
        for (std::size_t j = 0; j < items[i].specs.size(); ++j)
            units.push_back({i, j});
    }

    // One checker per item so every assertion against the same program
    // shares that item's plan and sampler caches.
    // Per-item numThreads is replaced (see BatchItem::config): with
    // several units, ensembles run inline on the batch workers
    // (nested parallelFor, pool.hh), so dedicated per-item pools
    // would only spawn threads that never execute work; with exactly
    // one unit there is nothing to fan out at unit granularity, so
    // the single checker gets this runner's own concurrency instead.
    // Outcomes are numThreads-invariant either way, preserving
    // bit-identity with serial checkAll.
    // (0 = the shared pool; a dedicated count only when this runner
    // has a custom size, so a shared-pool runner does not spawn a
    // redundant hardware-wide pool next to the idle shared one.
    // Known tradeoff: in the custom-size case the ensemble pool is a
    // second, transient set of threads while the runner's workers sit
    // idle — reusing them would mean plumbing a pool handle through
    // CheckConfig, which is not worth it for a scheduling wart.)
    // A serial runner must stay serial end to end: its units run
    // inline on the posting thread (not on a pool worker), so without
    // the explicit 1 their engines would resolve the hardware-wide
    // shared pool behind the caller's back.
    const unsigned concurrency = ThreadPool::concurrencyFor(numThreads);
    const unsigned ensemble_threads =
        concurrency == 1                        ? 1
        : units.size() == 1 && numThreads != 0  ? concurrency
                                                : 0;
    std::vector<std::unique_ptr<assertions::AssertionChecker>> checkers;
    checkers.reserve(items.size());
    for (const auto &item : items) {
        fatal_if(item.program == nullptr,
                 "BatchItem has no program attached");
        auto config = item.config;
        config.numThreads = ensemble_threads;
        checkers.push_back(
            std::make_unique<assertions::AssertionChecker>(
                *item.program, config));
    }

    forEach(units.size(), [&](std::size_t k) {
        const auto [i, j] = units[k];
        results[i][j] = checkers[i]->check(items[i].specs[j]);
    });
    return results;
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

std::vector<std::vector<assertions::AssertionOutcome>>
BatchRunner::checkAll(
    const std::vector<const circuit::Circuit *> &programs,
    const std::vector<assertions::AssertionSpec> &specs,
    const assertions::CheckConfig &config)
{
    std::vector<BatchItem> items;
    items.reserve(programs.size());
    for (const auto *program : programs)
        items.push_back({program, specs, config});
    return checkAll(items);
}

} // namespace qsa::runtime
