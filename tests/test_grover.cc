/**
 * @file
 * Grover search tests: diffusion correctness, oracle reversibility,
 * success amplification, the GF(2^k) square-root case study, and the
 * Table 4 assertion placement.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "algo/grover.hh"
#include "assertions/checker.hh"
#include "assertions/exact.hh"
#include "circuit/executor.hh"
#include "common/bits.hh"
#include "common/errors.hh"
#include "common/rng.hh"
#include "sim/gates.hh"

#include "expect_throw.hh"

namespace
{

using namespace qsa;
using namespace qsa::algo;
using namespace qsa::assertions;

TEST(Grover, OptimalIterationCounts)
{
    EXPECT_EQ(optimalGroverIterations(4), 1u);   // 2 qubits: exact
    EXPECT_EQ(optimalGroverIterations(16), 3u);  // 4 qubits
    EXPECT_EQ(optimalGroverIterations(64), 6u);  // 6 qubits
    EXPECT_EQ(optimalGroverIterations(16, 4), 1u);
}

TEST(Grover, TwoQubitSearchIsExact)
{
    // N = 4 with one iteration succeeds with probability 1.
    for (std::uint64_t marked = 0; marked < 4; ++marked) {
        const auto prog = buildMarkedValueGrover(2, marked);
        const auto probs =
            exactMarginal(prog.circuit, "iter_1", prog.q);
        EXPECT_NEAR(probs[marked], 1.0, 1e-9) << "marked " << marked;
    }
}

class GroverWidths : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(GroverWidths, AmplifiesMarkedValue)
{
    const unsigned n = GetParam();
    const std::uint64_t marked = (0xb ^ n) & lowMask(n);
    const auto prog = buildMarkedValueGrover(n, marked);

    const std::string last_bp =
        "iter_" + std::to_string(prog.iterations);
    const auto probs = exactMarginal(prog.circuit, last_bp, prog.q);
    // Theoretical optimum exceeds 1 - 1/N; allow slack.
    EXPECT_GT(probs[marked], 0.8) << "n=" << n;
}

TEST_P(GroverWidths, SuccessProbabilityGrowsThenPeaks)
{
    const unsigned n = GetParam();
    if (n < 3)
        GTEST_SKIP() << "needs at least 2 iterations";
    const auto prog = buildMarkedValueGrover(n, 1);

    double prev = 1.0 / pow2(n);
    for (unsigned i = 1; i <= prog.iterations; ++i) {
        const auto probs = exactMarginal(
            prog.circuit, "iter_" + std::to_string(i), prog.q);
        EXPECT_GT(probs[1], prev) << "iteration " << i;
        prev = probs[1];
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, GroverWidths,
                         ::testing::Values(2u, 3u, 4u, 5u));

TEST(Grover, Gf16SquareRootSearch)
{
    // The paper's oracle: find sqrt(c) in GF(16).
    GroverConfig config;
    config.degree = 4;
    config.target = 0b1011;
    const auto prog = buildGroverProgram(config);

    const gf2::Field field(4);
    EXPECT_EQ(field.square(prog.expectedAnswer), config.target);

    const std::string last_bp =
        "iter_" + std::to_string(prog.iterations);
    const auto probs = exactMarginal(prog.circuit, last_bp, prog.q);
    EXPECT_GT(probs[prog.expectedAnswer], 0.9);

    // Every other outcome is strongly damped.
    for (std::uint64_t v = 0; v < 16; ++v) {
        if (v != prog.expectedAnswer) {
            EXPECT_LT(probs[v], 0.02) << "value " << v;
        }
    }
}

class Gf2Targets : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(Gf2Targets, FindsEverySquareRoot)
{
    GroverConfig config;
    config.degree = 3;
    config.target = GetParam();
    const auto prog = buildGroverProgram(config);

    const std::string last_bp =
        "iter_" + std::to_string(prog.iterations);
    const auto probs = exactMarginal(prog.circuit, last_bp, prog.q);
    EXPECT_GT(probs[prog.expectedAnswer], 0.8)
        << "target " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllTargets, Gf2Targets,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u, 5u, 6u,
                                           7u));

TEST(Grover, OracleUncomputesWorkRegister)
{
    // After uncompute, the work register must be |0...0> again and in
    // a product state with the search register (Section 5.1.3).
    GroverConfig config;
    const auto prog = buildGroverProgram(config);

    const auto work_probs =
        exactMarginal(prog.circuit, "oracle_uncomputed", prog.work);
    EXPECT_NEAR(work_probs[0], 1.0, 1e-9);
    EXPECT_NEAR(exactPurity(prog.circuit, "oracle_uncomputed",
                            prog.work),
                1.0, 1e-9);
}

TEST(Grover, OracleComputeEntanglesQAndWork)
{
    GroverConfig config;
    const auto prog = buildGroverProgram(config);
    // Mid-oracle the work register carries x^2: maximally correlated
    // with x.
    EXPECT_LT(exactPurity(prog.circuit, "oracle_computed", prog.work),
              0.2);
}

TEST(Grover, Table4AssertionPlacement)
{
    // The assertions the language structure dictates (Section 5.1):
    // superposition precondition, entanglement while computed,
    // product after uncompute.
    GroverConfig config;
    const auto prog = buildGroverProgram(config);

    CheckConfig cfg;
    cfg.ensembleSize = 256;
    AssertionChecker checker(prog.circuit, cfg);
    checker.assertClassical("init", prog.q, 0);
    checker.assertSuperposition("superposed", prog.q);
    checker.assertEntangled("oracle_computed", prog.q, prog.work);
    checker.assertProduct("oracle_uncomputed", prog.q, prog.work);

    const auto outcomes = checker.checkAll();
    for (const auto &o : outcomes)
        EXPECT_TRUE(o.passed) << o.spec.name;
}

TEST(Grover, MeasurementReturnsAnswer)
{
    GroverConfig config;
    config.degree = 3;
    config.target = 5;
    const auto prog = buildGroverProgram(config);

    Rng rng(77);
    int hits = 0;
    const int runs = 50;
    for (int i = 0; i < runs; ++i) {
        const auto rec = circuit::runCircuit(prog.circuit, rng);
        hits += rec.measurements.at("result") == prog.expectedAnswer;
    }
    EXPECT_GT(hits, runs * 3 / 5);
}

TEST(Grover, MultipleMarkedValues)
{
    // Two marked items among 16: optimal iterations = 2, and the
    // final distribution concentrates on the marked set.
    const std::vector<std::uint64_t> marked{3, 12};
    const auto prog = buildMarkedSetGrover(4, marked);
    EXPECT_EQ(prog.iterations, 2u);

    const std::string last_bp =
        "iter_" + std::to_string(prog.iterations);
    const auto probs = exactMarginal(prog.circuit, last_bp, prog.q);
    double mass = 0.0;
    for (std::uint64_t v : marked)
        mass += probs[v];
    EXPECT_GT(mass, 0.9);
    // Equal amplitude on both marked values.
    EXPECT_NEAR(probs[3], probs[12], 1e-9);
}

TEST(Grover, MarkedSetValidation)
{
    EXPECT_THROW_MESSAGE(buildMarkedSetGrover(3, {}), qsa::Error,
                         "at least one");
    EXPECT_THROW_MESSAGE(buildMarkedSetGrover(3, {9}), qsa::Error,
                         "out of range");
}

TEST(Grover, DiffusionIsInversionAboutMean)
{
    // Apply diffusion to a hand-crafted state and compare against the
    // closed-form reflection 2|s><s| - I.
    circuit::Circuit circ;
    const auto q = circ.addRegister("q", 3);
    const auto chain = circ.addRegister("chain", 2);
    // Prepare amplitudes proportional to basis weights via rotations:
    // use a simple state |000> rotated a bit on each qubit.
    circ.ry(q[0], 0.4);
    circ.ry(q[1], 0.9);
    circ.ry(q[2], 1.3);
    appendDiffusion(circ, q, chain);

    Rng rng(5);
    const auto state = circuit::runCircuit(circ, rng).state;

    // Reference: build the same pre-diffusion state, reflect.
    sim::StateVector ref(5);
    ref.applyGate(sim::gates::ry(0.4), 0);
    ref.applyGate(sim::gates::ry(0.9), 1);
    ref.applyGate(sim::gates::ry(1.3), 2);

    // Mean over the 8 q-basis amplitudes (chain is |00>). Table 4's
    // construction realises I - 2|s><s| (the global-phase negative of
    // the textbook 2|s><s| - I), i.e. amp -> amp - 2 * mean.
    sim::Complex mean(0.0);
    for (std::uint64_t b = 0; b < 8; ++b)
        mean += ref.amp(b);
    mean /= 8.0;

    for (std::uint64_t b = 0; b < 8; ++b) {
        const sim::Complex want = ref.amp(b) - 2.0 * mean;
        EXPECT_NEAR(std::abs(state.amp(b) - want), 0.0, 1e-9)
            << "basis " << b;
    }
}

} // anonymous namespace
