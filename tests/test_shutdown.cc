/**
 * @file
 * Graceful-shutdown regression tests (ISSUE 8 satellite): destroying
 * a runtime::ThreadPool while posters are blocked and jobs are in
 * flight must neither deadlock nor drop work, and the QSA_TRACE
 * atexit flush must survive heavy pool churn during process exit.
 *
 * The deadlock these tests pin: the old destructor only notified the
 * worker wake-up condition, so a poster parked in the idle wait (its
 * predicate blind to `stopping`) was stranded forever — ~ThreadPool
 * then hung joining workers that were themselves fine. The fix makes
 * the destructor wake posters, drain the in-flight job, and wait for
 * every poster to fall back to inline execution.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "qsa/qsa.hh"

namespace
{

using namespace qsa;

TEST(PoolShutdown, TrivialConstructDestroy)
{
    for (int i = 0; i < 8; ++i) {
        runtime::ThreadPool pool(4);
    }
}

TEST(PoolShutdown, DestructorDrainsPostersBlockedUnderLoad)
{
    // Regression for the poster-stranding deadlock: several threads
    // contend for the single job slot (so all but one block in the
    // idle wait), then the pool is destroyed mid-flight. Every
    // parallelFor must still complete — in-flight work drains on the
    // pool, stranded posters fall back to running inline.
    constexpr int kPosters = 4;
    constexpr std::size_t kIndices = 64;

    for (int round = 0; round < 8; ++round) {
        auto owner = std::make_unique<runtime::ThreadPool>(4);
        std::atomic<int> entered{0};
        std::vector<std::atomic<int>> ran(kPosters * kIndices);
        for (auto &r : ran)
            r.store(0);

        std::vector<std::thread> posters;
        for (int t = 0; t < kPosters; ++t) {
            // Capture the raw pool pointer by value: the owner
            // unique_ptr is reset below while posters run, and they
            // must not touch its storage.
            runtime::ThreadPool *pool = owner.get();
            posters.emplace_back([&, pool, t] {
                entered.fetch_add(1);
                pool->parallelFor(kIndices, [&, t](std::size_t i) {
                    ran[static_cast<std::size_t>(t) * kIndices + i]
                        .fetch_add(1);
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(300));
                });
            });
        }

        // Wait until every poster has announced itself, then give
        // the stragglers ample time to move the one step from the
        // announcement into parallelFor before the pool dies under
        // them. The first job alone runs long enough (64 × 300µs /
        // 5 runners) that destruction lands mid-flight.
        while (entered.load() < kPosters)
            std::this_thread::yield();
        std::this_thread::sleep_for(std::chrono::milliseconds(5));

        owner.reset(); // must not deadlock
        for (auto &p : posters)
            p.join();

        for (std::size_t i = 0; i < ran.size(); ++i)
            ASSERT_EQ(ran[i].load(), 1)
                << "round " << round << " index " << i;
    }
}

TEST(PoolShutdown, EngineTeardownUnderLoadLeavesNoThreadsBehind)
{
    // Session owns an EnsembleEngine owns (at numThreads > 1) a
    // dedicated pool; rapid construct-run-destroy cycles exercise the
    // whole teardown chain right after a fan-out.
    const circuit::Circuit bell = algo::buildBellProgram();
    const auto q = bell.registers().at(0);
    for (int round = 0; round < 5; ++round) {
        session::Session s(bell);
        s.ensembleSize(64).threads(4).seed(7 + round);
        s.at("entangled")
            .expectEntangled(q.slice(0, 1, "q0"), q.slice(1, 1, "q1"));
        const auto &outcomes = s.run();
        ASSERT_EQ(outcomes.size(), 1u);
        EXPECT_TRUE(outcomes[0].passed);
    } // ~Session at loop bottom: engine + pool teardown under churn
}

/**
 * Child half of the trace-flush test: churn pools, do real traced
 * work, and return normally. Run only when re-exec'd by the parent
 * with QSA_SHUTDOWN_CHILD=1 — the parent sets QSA_TRACE and checks
 * the flushed file afterwards.
 */
TEST(TraceFlush, ChildWorkload)
{
    if (std::getenv("QSA_SHUTDOWN_CHILD") == nullptr)
        GTEST_SKIP() << "parent-driven child workload";

    {
        runtime::ThreadPool pool(4);
        std::atomic<int> n{0};
        pool.parallelFor(128, [&](std::size_t) { n.fetch_add(1); });
        ASSERT_EQ(n.load(), 128);
    }
    // Emit real spans, then tear another loaded engine down.
    const circuit::Circuit bell = algo::buildBellProgram();
    analyze::lintCircuit(bell);
    session::Session s(bell);
    s.ensembleSize(64).threads(4);
    const auto q = bell.registers().at(0);
    s.at("superposition").expectSuperposition(q.slice(0, 1, "q0"));
    s.run();
}

TEST(TraceFlush, AtexitFlushSurvivesPoolTeardown)
{
#if !QSA_OBS_ENABLED
    GTEST_SKIP() << "tracing is compiled out (QSA_OBS=OFF): no "
                    "QSA_TRACE file to flush";
#endif
    if (std::getenv("QSA_SHUTDOWN_CHILD") != nullptr)
        GTEST_SKIP() << "child process runs ChildWorkload only";

    const std::string trace_path =
        ::testing::TempDir() + "qsa_shutdown_trace_" +
        std::to_string(::getpid()) + ".json";
    std::remove(trace_path.c_str());

    // Resolve our own binary up front: /proc/self/exe inside the
    // std::system() shell would name the shell, not this test.
    char self[4096];
    const ssize_t len =
        ::readlink("/proc/self/exe", self, sizeof(self) - 1);
    ASSERT_GT(len, 0);
    self[len] = '\0';

    std::ostringstream cmd;
    cmd << "QSA_SHUTDOWN_CHILD=1 QSA_TRACE=" << trace_path << " "
        << self
        << " --gtest_filter=TraceFlush.ChildWorkload"
           " >/dev/null 2>&1";
    const int status = std::system(cmd.str().c_str());
    ASSERT_EQ(status, 0) << "child test run failed";

    std::ifstream in(trace_path);
    ASSERT_TRUE(in.good())
        << "QSA_TRACE file was not flushed at exit: " << trace_path;
    std::ostringstream content;
    content << in.rdbuf();
    EXPECT_NE(content.str().find("traceEvents"), std::string::npos);
    EXPECT_NE(content.str().find("]"), std::string::npos)
        << "trace file is truncated (flush raced teardown)";
    std::remove(trace_path.c_str());
}

} // namespace
