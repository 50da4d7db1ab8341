/**
 * @file
 * Tests for qsa::runtime: the thread pool, the RNG splitting/jumping
 * machinery it relies on, thread-count invariance of the ensemble
 * engine, and batch-vs-serial equivalence of BatchRunner.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "qsa/qsa.hh"

#include "expect_throw.hh"

namespace
{

using namespace qsa;

/** A registry counter's value (0 while unregistered, and always 0 in
 *  a -DQSA_OBS=OFF build, where the checks on it are compiled out). */
std::int64_t
counterValue(const std::string &name)
{
    for (const auto &[key, value] : obs::Registry::snapshot())
        if (key == name)
            return value;
    return 0;
}

// --- ThreadPool ------------------------------------------------------------

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    runtime::ThreadPool pool(4);
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(n, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, EmptyRangeIsANoop)
{
    runtime::ThreadPool pool(4);
    bool touched = false;
    pool.parallelFor(0, [&](std::size_t) { touched = true; });
    EXPECT_FALSE(touched);
}

TEST(ThreadPool, SerialPoolRunsInOrder)
{
    runtime::ThreadPool pool(1);
    EXPECT_EQ(pool.concurrency(), 1u);
    std::vector<std::size_t> order;
    pool.parallelFor(16, [&](std::size_t i) { order.push_back(i); });
    ASSERT_EQ(order.size(), 16u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock)
{
    runtime::ThreadPool pool(4);
    std::atomic<int> total{0};
    pool.parallelFor(8, [&](std::size_t) {
        // A worker body fanning out again must run inline, not wait
        // for pool slots it may be occupying itself.
        pool.parallelFor(8, [&](std::size_t) { ++total; });
    });
    EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, BodyExceptionPropagatesAndPoolSurvives)
{
    runtime::ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(64,
                                  [](std::size_t i) {
                                      if (i == 10)
                                          throw std::runtime_error(
                                              "boom");
                                  }),
                 std::runtime_error);
    // The job must not wedge the pool: later work still runs.
    std::atomic<int> count{0};
    pool.parallelFor(32, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPool, ReusableAcrossManyInvocations)
{
    runtime::ThreadPool pool(3);
    std::atomic<long> sum{0};
    for (int round = 0; round < 50; ++round)
        pool.parallelFor(10, [&](std::size_t i) { sum += (long)i; });
    EXPECT_EQ(sum.load(), 50 * 45);
}

// --- ThreadPool::WorkerScope -----------------------------------------------

TEST(WorkerScope, ParallelForRunsInlineOnTheCallingThread)
{
    runtime::ThreadPool dedicated(4);
    runtime::ThreadPool &shared = runtime::ThreadPool::shared();
    EXPECT_FALSE(runtime::ThreadPool::insideWorker());
    [[maybe_unused]] const std::int64_t jobs0 =
        counterValue("runtime.pool.jobs");
    {
        const runtime::ThreadPool::WorkerScope scope;
        EXPECT_TRUE(runtime::ThreadPool::insideWorker());
        for (runtime::ThreadPool *pool : {&shared, &dedicated}) {
            std::vector<std::thread::id> ran_on(64);
            pool->parallelFor(ran_on.size(), [&](std::size_t i) {
                ran_on[i] = std::this_thread::get_id();
            });
            for (std::size_t i = 0; i < ran_on.size(); ++i)
                EXPECT_EQ(ran_on[i], std::this_thread::get_id())
                    << "index " << i << " of a "
                    << pool->concurrency() << "-thread pool";
        }
    }
    EXPECT_FALSE(runtime::ThreadPool::insideWorker());
#if QSA_OBS_ENABLED
    EXPECT_EQ(counterValue("runtime.pool.jobs"), jobs0)
        << "a parallelFor under the scope posted a pool job";
#endif
}

TEST(WorkerScope, RestoresThePreviousStateOnEveryExit)
{
    // Nested scopes: leaving the inner one keeps the outer in force.
    {
        const runtime::ThreadPool::WorkerScope outer;
        {
            const runtime::ThreadPool::WorkerScope inner;
            EXPECT_TRUE(runtime::ThreadPool::insideWorker());
        }
        EXPECT_TRUE(runtime::ThreadPool::insideWorker());
    }
    EXPECT_FALSE(runtime::ThreadPool::insideWorker());

    // A body that throws under the scope unwinds through it.
    runtime::ThreadPool pool(4);
    EXPECT_THROW(
        {
            const runtime::ThreadPool::WorkerScope scope;
            pool.parallelFor(8, [](std::size_t i) {
                if (i == 3)
                    throw std::runtime_error("boom");
            });
        },
        std::runtime_error);
    EXPECT_FALSE(runtime::ThreadPool::insideWorker());

    // So does one that throws from a real fan-out, where the poster
    // drains its own share of the job as a worker.
    EXPECT_THROW(pool.parallelFor(64,
                                  [](std::size_t i) {
                                      if (i == 10)
                                          throw std::runtime_error(
                                              "boom");
                                  }),
                 std::runtime_error);
    EXPECT_FALSE(runtime::ThreadPool::insideWorker());
}

// --- Rng splitting and jumping --------------------------------------------

TEST(RngSplit, MatchesDocumentedGammaStreamDerivation)
{
    // split(i) is documented (rng.hh) as seeding the child with the
    // i-th output of the SplitMix64 sequence started at the parent
    // seed. Recompute that by hand through the public splitMix64.
    const std::uint64_t seed = 0x51c0ffee;
    for (std::uint64_t i : {0ull, 1ull, 7ull, 63ull}) {
        std::uint64_t sm = seed + i * 0x9e3779b97f4a7c15ull;
        Rng expected{splitMix64(sm)};
        Rng child = Rng(seed).split(i);
        for (int k = 0; k < 4; ++k)
            EXPECT_EQ(child.next(), expected.next());
    }
}

TEST(RngSplit, ChildrenAreDistinctAcrossManyShards)
{
    // The satellite requirement: collision-free stream splitting for
    // >= 64 shards. The derivation is injective in the child index, so
    // the children's first outputs must all differ (xoshiro's first
    // output is a bijective-ish hash of the seed; 4096 distinct seeds
    // colliding here would be a real bug, not bad luck).
    const Rng master(0xdeadbeef);
    std::set<std::uint64_t> firsts;
    for (std::uint64_t i = 0; i < 4096; ++i) {
        Rng child = master.split(i);
        firsts.insert(child.next());
    }
    EXPECT_EQ(firsts.size(), 4096u);
}

TEST(RngSplit, DeterministicPerIndex)
{
    const Rng master(123);
    Rng a = master.split(42);
    Rng b = master.split(42);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngJump, JumpedStreamsDiffer)
{
    Rng base(7);
    Rng hopped(7);
    hopped.jump();
    std::set<std::uint64_t> base_vals;
    for (int i = 0; i < 512; ++i)
        base_vals.insert(base.next());
    // Disjoint subsequences: none of the jumped stream's outputs
    // should appear in the base stream's window.
    for (int i = 0; i < 512; ++i)
        EXPECT_EQ(base_vals.count(hopped.next()), 0u);
}

TEST(RngJump, JumpedCountComposes)
{
    Rng twice(99);
    twice.jump();
    twice.jump();
    Rng composed = Rng(99).jumped(2);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(twice.next(), composed.next());

    Rng far(99);
    far.longJump();
    Rng near(99);
    near.jump();
    EXPECT_NE(far.next(), near.next());
}

TEST(RngJump, JumpRekeysSplitDerivation)
{
    // Handing shard k a jumped copy and then splitting per trial must
    // give different children than the parent's (split() is keyed on
    // the seed, which jump()/longJump() re-key).
    const Rng master(0x77);
    Rng hop = master.jumped(1);
    Rng hop2 = master.jumped(2);
    Rng lj(0x77);
    lj.longJump();
    std::set<std::uint64_t> firsts;
    for (const Rng &parent : {master, hop, hop2, lj})
        for (std::uint64_t i = 0; i < 4; ++i)
            firsts.insert(parent.split(i).next());
    EXPECT_EQ(firsts.size(), 16u);
}

// --- CdfSampler ------------------------------------------------------------

TEST(CdfSampler, NeverPicksZeroProbabilityBins)
{
    runtime::CdfSampler sampler({0.0, 0.25, 0.0, 0.75, 0.0});
    Rng rng(11);
    for (int i = 0; i < 2000; ++i) {
        const std::size_t bin = sampler.sample(rng.uniform());
        EXPECT_TRUE(bin == 1 || bin == 3) << "bin " << bin;
    }
    // Boundary draws must also land on positive-probability bins.
    EXPECT_EQ(sampler.sample(0.0), 1u);
    EXPECT_EQ(sampler.sample(0.25), 3u);
}

TEST(CdfSampler, MatchesExpectedFrequencies)
{
    runtime::CdfSampler sampler({1.0, 3.0});
    Rng rng(5);
    std::size_t ones = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        ones += sampler.sample(rng.uniform());
    EXPECT_NEAR((double)ones / n, 0.75, 0.02);
}

// --- EnsembleEngine --------------------------------------------------------

/** Bell-pair program with a breakpoint, the paper's Figure 1 shape. */
circuit::Circuit
bellProgram()
{
    circuit::Circuit circ;
    auto a = circ.addRegister("a", 1);
    auto b = circ.addRegister("b", 1);
    circ.h(a[0]);
    circ.cnot(a[0], b[0]);
    circ.breakpoint("pair");
    circ.measure(a, "ma");
    circ.measure(b, "mb");
    return circ;
}

/** Three-qubit GHZ chain with a breakpoint after the entangler. */
circuit::Circuit
ghzProgram()
{
    circuit::Circuit circ;
    auto r = circ.addRegister("r", 3);
    circ.h(r[0]);
    circ.cnot(r[0], r[1]);
    circ.cnot(r[1], r[2]);
    circ.breakpoint("ghz");
    return circ;
}

runtime::EnsembleSpec
bellSpec(runtime::EnsembleMode mode)
{
    runtime::EnsembleSpec spec;
    spec.breakpoint = "pair";
    spec.qubits = {0, 1};
    spec.shots = 512;
    spec.mode = mode;
    spec.seed = 0xabcdef;
    return spec;
}

TEST(EnsembleEngine, ThreadCountInvariance)
{
    const auto program = bellProgram();
    for (auto mode : {runtime::EnsembleMode::Resimulate,
                      runtime::EnsembleMode::SampleFinalState}) {
        const auto spec = bellSpec(mode);
        runtime::EnsembleEngine serial(program, 1);
        runtime::EnsembleEngine four(program, 4);
        runtime::EnsembleEngine eight(program, 8);

        const auto r1 = serial.gather(spec);
        const auto r4 = four.gather(spec);
        const auto r8 = eight.gather(spec);
        EXPECT_EQ(r1, r4);
        EXPECT_EQ(r1, r8);
    }
}

TEST(EnsembleEngine, GhzYieldsOnlyCorrelatedOutcomes)
{
    const auto program = ghzProgram();
    runtime::EnsembleSpec spec;
    spec.breakpoint = "ghz";
    spec.qubits = {0, 1, 2};
    spec.shots = 300;
    spec.seed = 42;

    for (auto mode : {runtime::EnsembleMode::Resimulate,
                      runtime::EnsembleMode::SampleFinalState}) {
        spec.mode = mode;
        runtime::EnsembleEngine engine(program, 4);
        std::set<std::uint64_t> seen;
        for (auto v : engine.gather(spec))
            seen.insert(v);
        // GHZ on |0..0>: only all-zeros and all-ones outcomes exist.
        EXPECT_EQ(seen, (std::set<std::uint64_t>{0, 7}))
            << runtime::ensembleModeName(mode);
    }
}

TEST(EnsembleEngine, CacheIsTransparent)
{
    const auto program = bellProgram();
    runtime::EnsembleEngine engine(program, 2);
    const auto spec = bellSpec(runtime::EnsembleMode::SampleFinalState);
    const auto first = engine.gather(spec);   // cold: builds the plan
    const auto second = engine.gather(spec);  // warm: cached sampler
    EXPECT_EQ(first, second);
    engine.clearCache();
    EXPECT_EQ(first, engine.gather(spec));
}

TEST(EnsembleEngine, ZeroShotsYieldsEmpty)
{
    const auto program = bellProgram();
    runtime::EnsembleEngine engine(program, 2);
    auto spec = bellSpec(runtime::EnsembleMode::Resimulate);
    spec.shots = 0;
    EXPECT_TRUE(engine.gather(spec).empty());
}

/**
 * A measurement, a long unitary stretch, then an instruction
 * conditioned on a label that nothing measures: the executor
 * (SampleFinalState's one path through the tail) and the path walk
 * (Resimulate) both reject it part way through a gather. The walk
 * splits at the measurement and hands one branch to a second pool
 * worker; the workers left without a branch wait for one while the
 * two simulate the stretch, so the failure must wake them.
 */
circuit::Circuit
unmeasuredConditionProgram()
{
    constexpr unsigned kQubits = 14;
    circuit::Circuit circ(kQubits);
    for (unsigned q = 0; q < kQubits; ++q)
        circ.h(q);
    circ.measureQubits({0}, "m0");
    for (int layer = 0; layer < 30; ++layer)
        for (unsigned q = 1; q < kQubits; ++q)
            circ.h(q);
    circ.x(0);
    circ.conditionLast("never", 1);
    circ.breakpoint("end");
    return circ;
}

TEST(EnsembleEngine, ErrorsMidGatherUnwindCleanly)
{
    // A failed sampler build evicts its cache claim, and a failed
    // path walk wakes the pool workers it handed subtrees to. So
    // every call on the same engine throws the qsa::Error again: none
    // hangs, and none throws std::future_error from a broken promise.
    // A failed plan build (an unknown breakpoint) evicts its claim too.
    const auto program = unmeasuredConditionProgram();
    for (auto mode : {runtime::EnsembleMode::SampleFinalState,
                      runtime::EnsembleMode::Resimulate}) {
        for (unsigned threads : {1u, 4u}) {
            SCOPED_TRACE(testing::Message()
                         << "threads " << threads << ", mode "
                         << runtime::ensembleModeName(mode));
            runtime::EnsembleEngine engine(program, threads);
            runtime::EnsembleSpec spec;
            spec.breakpoint = "end";
            spec.qubits = {0, 1, 2};
            spec.shots = 256;
            spec.mode = mode;
            spec.seed = 7;
            runtime::EnsembleSpec unknown = spec;
            unknown.breakpoint = "nowhere";
            for (int call = 0; call < 2; ++call) {
                EXPECT_THROW_MESSAGE(engine.gather(spec), qsa::Error,
                                     "unmeasured label 'never'");
                EXPECT_THROW_MESSAGE(engine.gather(unknown), qsa::Error,
                                     "nowhere");
            }
        }
    }
}

#if QSA_OBS_ENABLED
TEST(EnsembleEngine, BothModesShareOnePlan)
{
    // One plan per breakpoint: a Resimulate and a SampleFinalState
    // gather at the same breakpoint simulate its head once between
    // them.
    const auto program = bellProgram();
    runtime::EnsembleEngine engine(program, 1);
    const std::int64_t misses0 = counterValue("runtime.head_cache.misses");
    const std::int64_t hits0 = counterValue("runtime.head_cache.hits");
    (void)engine.gather(bellSpec(runtime::EnsembleMode::Resimulate));
    (void)engine.gather(bellSpec(runtime::EnsembleMode::SampleFinalState));
    EXPECT_EQ(counterValue("runtime.head_cache.misses") - misses0, 1);
    EXPECT_EQ(counterValue("runtime.head_cache.hits") - hits0, 1);
}

TEST(EnsembleEngine, RacingAssertionsBuildOneHead)
{
    // Four Resimulate assertions at one breakpoint fan out across the
    // pool and race for its plan. The plan cache is single-flight, so
    // the head is simulated once whatever the thread count: the work
    // and the cache counters read as on one thread, every time.
    const auto grover = algo::buildGroverProgram(algo::GroverConfig());
    const auto work = [&](unsigned threads) {
        assertions::CheckConfig cfg;
        cfg.ensembleSize = 64;
        cfg.mode = assertions::EnsembleMode::Resimulate;
        cfg.numThreads = threads;
        assertions::AssertionChecker checker(grover.circuit, cfg);
        const std::string at = "oracle_computed";
        checker.assertEntangled(at, grover.q, grover.work);
        checker.assertSuperposition(at, grover.q);
        checker.assertProduct(at, grover.q, grover.chain);
        checker.assertClassical(at, grover.chain, 0);
        obs::Registry::reset();
        (void)checker.checkAll();
        std::map<std::string, std::int64_t> out;
        for (const char *name :
             {"sim.amp_touches", "sim.gate_applies",
              "runtime.head_cache.hits", "runtime.head_cache.misses"})
            out[name] = counterValue(name);
        return out;
    };
    const auto serial = work(1);
    EXPECT_GT(serial.at("sim.amp_touches"), 0);
    EXPECT_EQ(serial.at("runtime.head_cache.misses"), 1);
    EXPECT_EQ(serial.at("runtime.head_cache.hits"), 3);
    for (int run = 0; run < 20; ++run)
        EXPECT_EQ(work(4), serial) << "run " << run;
}
#endif

// --- Checker-level invariance ---------------------------------------------

TEST(CheckerRuntime, OutcomesInvariantUnderThreadCount)
{
    const auto program = bellProgram();
    for (auto mode : {assertions::EnsembleMode::Resimulate,
                      assertions::EnsembleMode::SampleFinalState}) {
        std::vector<assertions::AssertionOutcome> per_thread_count;
        for (unsigned threads : {1u, 4u, 8u}) {
            assertions::CheckConfig cfg;
            cfg.ensembleSize = 256;
            cfg.mode = mode;
            cfg.seed = 0x51c0ffee;
            cfg.numThreads = threads;
            assertions::AssertionChecker checker(program, cfg);
            checker.assertEntangled("pair", program.reg("a"),
                                    program.reg("b"));
            per_thread_count.push_back(
                checker.check(checker.assertions()[0]));
        }
        const auto &ref = per_thread_count.front();
        EXPECT_TRUE(ref.passed);
        for (const auto &outcome : per_thread_count) {
            EXPECT_EQ(outcome.pValue, ref.pValue);
            EXPECT_EQ(outcome.statistic, ref.statistic);
            EXPECT_EQ(outcome.countsA, ref.countsA);
            EXPECT_EQ(outcome.jointCounts, ref.jointCounts);
        }
    }
}

TEST(CheckerRuntime, ClearRuntimeCacheIsTransparent)
{
    const auto program = bellProgram();
    assertions::CheckConfig cfg;
    cfg.ensembleSize = 128;
    assertions::AssertionChecker checker(program, cfg);
    checker.assertSuperposition("pair", program.reg("a"));
    const auto before = checker.check(checker.assertions()[0]);
    checker.clearRuntimeCache();
    const auto after = checker.check(checker.assertions()[0]);
    EXPECT_EQ(before.pValue, after.pValue);
    EXPECT_EQ(before.countsA, after.countsA);
}

// --- Spec-list escalation --------------------------------------------------

void
expectSameOutcome(const assertions::AssertionOutcome &got,
                  const assertions::AssertionOutcome &want,
                  const std::string &where)
{
    EXPECT_EQ(got.spec.name, want.spec.name) << where;
    EXPECT_EQ(got.pValue, want.pValue) << where;
    EXPECT_EQ(got.statistic, want.statistic) << where;
    EXPECT_EQ(got.df, want.df) << where;
    EXPECT_EQ(got.ensembleSize, want.ensembleSize) << where;
    EXPECT_EQ(got.effectiveAlpha, want.effectiveAlpha) << where;
    EXPECT_EQ(got.passed, want.passed) << where;
    EXPECT_EQ(got.countsA, want.countsA) << where;
    EXPECT_EQ(got.jointCounts, want.jointCounts) << where;
    EXPECT_EQ(got.cramersV, want.cramersV) << where;
    EXPECT_EQ(got.impossibleOutcome, want.impossibleOutcome) << where;
}

/**
 * A coin measured mid-circuit, then two breakpoints in the tail:
 * "mid", where qubit 1 reads 1 whatever the coin, and "end", where
 * qubit 0 (re-randomised) and qubit 2 (rotated on heads) are
 * independent. A Classical assertion at "mid" is final at once
 * (p = 1); an Entangled one at "end" is not rejected, so it escalates.
 */
circuit::Circuit
escalationProgram()
{
    circuit::Circuit circ(3);
    circ.h(0);
    circ.measureQubits({0}, "coin");
    circ.x(1);
    circ.breakpoint("mid");
    circ.ry(2, 0.7);
    circ.conditionLast("coin", 1);
    circ.h(0);
    circ.breakpoint("end");
    return circ;
}

TEST(CheckerRuntime, SpecListEscalationMatchesPerSpecChecks)
{
    const auto program = escalationProgram();
    assertions::AssertionSpec mid;
    mid.kind = assertions::AssertionKind::Classical;
    mid.breakpoint = "mid";
    mid.regA = circuit::QubitRegister("one", {1});
    mid.expectedValue = 1;
    mid.name = "mid";
    assertions::AssertionSpec end;
    end.kind = assertions::AssertionKind::Entangled;
    end.breakpoint = "end";
    end.regA = circuit::QubitRegister("zero", {0});
    end.regB = circuit::QubitRegister("two", {2});
    end.name = "end";
    assertions::AssertionSpec superposed = end;
    superposed.kind = assertions::AssertionKind::Superposition;
    superposed.name = "end-superposed";
    const assertions::EscalationPolicy policy{32, 512, 0.3};

    for (const unsigned threads : {1u, 4u, 0u}) {
        assertions::CheckConfig cfg;
        cfg.mode = assertions::EnsembleMode::Resimulate;
        cfg.seed = 0xe5ca1;
        cfg.numThreads = threads;
        for (const auto &specs :
             {std::vector<assertions::AssertionSpec>{mid, end},
              std::vector<assertions::AssertionSpec>{end, superposed, mid}}) {
            const std::string where = "threads=" + std::to_string(threads) +
                                      " specs=" +
                                      std::to_string(specs.size());
            obs::Registry::reset();
            std::vector<assertions::AssertionOutcome> separate;
            {
                const assertions::AssertionChecker checker(program, cfg);
                for (const auto &spec : specs)
                    separate.push_back(checker.checkEscalated(spec, policy));
            }
            const std::int64_t separate_trials =
                counterValue("runtime.ensemble.trials");
            const std::int64_t separate_checks =
                counterValue("assertions.checks");
            const std::int64_t separate_plans =
                counterValue("runtime.head_cache.misses");

            obs::Registry::reset();
            const assertions::AssertionChecker checker(program, cfg);
            const auto together = checker.checkEscalated(specs, policy);
            ASSERT_EQ(together.size(), specs.size()) << where;
            for (std::size_t i = 0; i < specs.size(); ++i)
                expectSameOutcome(together[i], separate[i],
                                  where + " " + specs[i].name);
#if QSA_OBS_ENABLED
            // No spec is gathered after it is final, and "mid" is read
            // out of the walk of "end" in the first round.
            EXPECT_EQ(counterValue("runtime.ensemble.trials"),
                      separate_trials)
                << where;
            EXPECT_EQ(counterValue("assertions.checks"), separate_checks)
                << where;
            EXPECT_LT(counterValue("runtime.head_cache.misses"),
                      separate_plans)
                << where;
#else
            (void)separate_trials;
            (void)separate_checks;
            (void)separate_plans;
#endif
        }
    }

    // The case the round-by-round loop exists for: "mid" is final
    // after its first round while "end" escalates past it.
    assertions::CheckConfig cfg;
    cfg.mode = assertions::EnsembleMode::Resimulate;
    cfg.seed = 0xe5ca1;
    const assertions::AssertionChecker checker(program, cfg);
    const auto outcomes = checker.checkEscalated({mid, end}, policy);
    EXPECT_EQ(outcomes[0].ensembleSize, policy.initialSize);
    EXPECT_GT(outcomes[1].ensembleSize, policy.initialSize);
}

TEST(EnsembleEngine, TappedGatherThrowsAsItsSpecsWould)
{
    // A walk that fails past a tap's breakpoint fails the whole call,
    // as the walked spec's own gather would, and wakes every pool
    // worker it handed a subtree to.
    auto program = unmeasuredConditionProgram();
    circuit::Circuit tapped(program.numQubits());
    const auto &insts = program.instructions();
    for (std::size_t i = 0; i < insts.size(); ++i) {
        if (i > 0 && insts[i - 1].kind == circuit::GateKind::Measure)
            tapped.breakpoint("after_measure");
        tapped.appendRange(program, i, i + 1);
    }
    runtime::EnsembleSpec early;
    early.breakpoint = "after_measure";
    early.qubits = {0, 1};
    early.shots = 256;
    early.mode = runtime::EnsembleMode::Resimulate;
    early.seed = 7;
    runtime::EnsembleSpec late = early;
    late.breakpoint = "end";
    for (unsigned threads : {1u, 4u}) {
        runtime::EnsembleEngine engine(tapped, threads);
        for (int call = 0; call < 2; ++call) {
            EXPECT_THROW_MESSAGE(engine.gather({early, late}), qsa::Error,
                                 "unmeasured label 'never'");
        }
        // Alone, the early spec walks only up to its breakpoint.
        EXPECT_EQ(engine.gather(early).size(), early.shots);
    }
}

// --- BatchRunner -----------------------------------------------------------

TEST(BatchRunner, BatchedCheckAllMatchesSerialPerSpecLoop)
{
    // AssertionChecker::checkAll now fans its specs through
    // BatchRunner; the satellite contract is that the batched plan is
    // bit-identical to checking each spec serially, at any thread
    // count and in both ensemble modes.
    const auto program = bellProgram();
    for (auto mode : {assertions::EnsembleMode::Resimulate,
                      assertions::EnsembleMode::SampleFinalState}) {
        for (unsigned threads : {1u, 4u, 0u}) {
            assertions::CheckConfig cfg;
            cfg.ensembleSize = 192;
            cfg.mode = mode;
            cfg.numThreads = threads;
            assertions::AssertionChecker checker(program, cfg);
            checker.assertClassical("pair", program.reg("a"), 0, 0.2);
            checker.assertSuperposition("pair", program.reg("a"));
            checker.assertEntangled("pair", program.reg("a"),
                                    program.reg("b"));
            checker.assertProduct("pair", program.reg("a"),
                                  program.reg("b"));

            const auto batched = checker.checkAll();
            ASSERT_EQ(batched.size(), 4u);
            for (std::size_t i = 0; i < batched.size(); ++i) {
                const auto serial =
                    checker.check(checker.assertions()[i]);
                EXPECT_EQ(batched[i].pValue, serial.pValue);
                EXPECT_EQ(batched[i].statistic, serial.statistic);
                EXPECT_EQ(batched[i].df, serial.df);
                EXPECT_EQ(batched[i].passed, serial.passed);
                EXPECT_EQ(batched[i].countsA, serial.countsA);
                EXPECT_EQ(batched[i].jointCounts, serial.jointCounts);
            }
        }
    }
}

TEST(BatchRunner, SharedCheckerOverloadMatchesDirectChecks)
{
    // The BatchRunner::checkAll(checker, specs) overload — the plan
    // executor behind checkAll and Session::run — shares one engine
    // across units and stays bit-identical, with or without an
    // escalation policy.
    const auto program = bellProgram();
    assertions::CheckConfig cfg;
    cfg.ensembleSize = 64;
    assertions::AssertionChecker checker(program, cfg);
    checker.assertSuperposition("pair", program.reg("a"));
    checker.assertEntangled("pair", program.reg("a"),
                            program.reg("b"));
    const auto &specs = checker.assertions();

    runtime::BatchRunner runner(4);
    const auto plain = runner.checkAll(checker, specs);
    ASSERT_EQ(plain.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto want = checker.check(specs[i]);
        EXPECT_EQ(plain[i].pValue, want.pValue);
        EXPECT_EQ(plain[i].countsA, want.countsA);
    }

    const assertions::EscalationPolicy policy{16, 256, 0.30};
    const auto escalated = runner.checkAll(checker, specs, &policy);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto want = checker.checkEscalated(specs[i], policy);
        EXPECT_EQ(escalated[i].pValue, want.pValue);
        EXPECT_EQ(escalated[i].ensembleSize, want.ensembleSize);
        EXPECT_EQ(escalated[i].passed, want.passed);
    }
}

/** Two programs (the Bell pair and an unentangled variant) and two
 *  specs each: two batch units per checker, enough to fan out. */
struct LazyBatchFixture
{
    circuit::Circuit bell = bellProgram();
    circuit::Circuit broken;
    std::vector<assertions::AssertionSpec> specs;
    assertions::CheckConfig cfg;

    LazyBatchFixture()
    {
        auto a = broken.addRegister("a", 1);
        broken.addRegister("b", 1);
        broken.h(a[0]);
        broken.breakpoint("pair");
        cfg.ensembleSize = 128;
        cfg.seed = 0x1a2b;
        assertions::AssertionChecker proto(bell, cfg);
        proto.assertEntangled("pair", bell.reg("a"), bell.reg("b"));
        proto.assertSuperposition("pair", bell.reg("a"));
        specs = proto.assertions();
    }

    /** The two programs. */
    std::vector<const circuit::Circuit *>
    programs() const
    {
        return {&bell, &broken};
    }

    /** The same checks, one program at a time on one thread. */
    std::vector<std::vector<assertions::AssertionOutcome>>
    serial() const
    {
        std::vector<std::vector<assertions::AssertionOutcome>> out;
        for (const circuit::Circuit *program : programs()) {
            auto config = cfg;
            config.numThreads = 1;
            assertions::AssertionChecker checker(*program, config);
            for (const auto &spec : specs)
                checker.addAssertion(spec);
            out.push_back(checker.checkAll());
        }
        return out;
    }
};

void
expectSameOutcomes(const std::vector<assertions::AssertionOutcome> &got,
                   const std::vector<assertions::AssertionOutcome> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t j = 0; j < want.size(); ++j) {
        EXPECT_EQ(got[j].pValue, want[j].pValue) << "spec " << j;
        EXPECT_EQ(got[j].statistic, want[j].statistic) << "spec " << j;
        EXPECT_EQ(got[j].df, want[j].df) << "spec " << j;
        EXPECT_EQ(got[j].passed, want[j].passed) << "spec " << j;
        EXPECT_EQ(got[j].ensembleSize, want[j].ensembleSize)
            << "spec " << j;
        EXPECT_EQ(got[j].effectiveAlpha, want[j].effectiveAlpha)
            << "spec " << j;
        EXPECT_EQ(got[j].countsA, want[j].countsA) << "spec " << j;
        EXPECT_EQ(got[j].jointCounts, want[j].jointCounts)
            << "spec " << j;
        EXPECT_EQ(got[j].cramersV, want[j].cramersV) << "spec " << j;
        EXPECT_EQ(got[j].contingencyC, want[j].contingencyC)
            << "spec " << j;
        EXPECT_EQ(got[j].impossibleOutcome, want[j].impossibleOutcome)
            << "spec " << j;
    }
}

TEST(BatchRunner, UnderAWorkerScopeSpawnsNothingAndMatchesSerial)
{
    const LazyBatchFixture f;
    const auto want = f.serial();
    [[maybe_unused]] const std::int64_t spawned0 =
        counterValue("runtime.pool.spawned_threads");
    [[maybe_unused]] const std::int64_t jobs0 =
        counterValue("runtime.pool.jobs");
    {
        const runtime::ThreadPool::WorkerScope scope;
        runtime::BatchRunner runner(8);
        // One checker of 8 threads per program.
        auto config = f.cfg;
        config.numThreads = 8;
        for (std::size_t i = 0; i < f.programs().size(); ++i) {
            assertions::AssertionChecker checker(*f.programs()[i], config);
            expectSameOutcomes(runner.checkAll(checker, f.specs), want[i]);
        }
    }
#if QSA_OBS_ENABLED
    EXPECT_EQ(counterValue("runtime.pool.spawned_threads"), spawned0);
    EXPECT_EQ(counterValue("runtime.pool.jobs"), jobs0);
#endif
}

TEST(BatchRunner, SpawnsItsDedicatedPoolOnceOnFirstFanOut)
{
    const LazyBatchFixture f;
    const auto want = f.serial();
    [[maybe_unused]] const std::int64_t spawned0 =
        counterValue("runtime.pool.spawned_threads");
    runtime::BatchRunner runner(8);
#if QSA_OBS_ENABLED
    EXPECT_EQ(counterValue("runtime.pool.spawned_threads"), spawned0)
        << "constructing the runner spawned its pool";
#endif
    for (int round = 0; round < 2; ++round) {
        for (std::size_t i = 0; i < f.programs().size(); ++i) {
            const assertions::AssertionChecker checker(*f.programs()[i],
                                                       f.cfg);
            expectSameOutcomes(runner.checkAll(checker, f.specs), want[i]);
        }
#if QSA_OBS_ENABLED
        EXPECT_EQ(counterValue("runtime.pool.spawned_threads"),
                  spawned0 + 7)
            << "round " << round;
#endif
    }
}

} // anonymous namespace
