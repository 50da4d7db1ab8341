/**
 * @file
 * Integration tests for the full Shor program: output distribution,
 * helper-register cleanliness, assertion roadmap, and the Table 3 bug.
 */

#include <gtest/gtest.h>

#include "algo/numtheory.hh"
#include "algo/shor.hh"
#include "assertions/checker.hh"
#include "assertions/exact.hh"
#include "circuit/executor.hh"
#include "common/errors.hh"
#include "common/rng.hh"

#include "expect_throw.hh"

namespace
{

using namespace qsa;
using namespace qsa::algo;
using namespace qsa::assertions;

constexpr double tol = 1e-9;

TEST(Shor, OutputDistributionIsMultiplesOfTwo)
{
    // N&C p. 235: factoring 15 with a = 7 and 3 upper qubits returns
    // 0, 2, 4, 6 with probability 1/4 each.
    const ShorProgram prog = buildShorProgram();
    const auto probs =
        exactMarginal(prog.circuit, "final", prog.upper);
    ASSERT_EQ(probs.size(), 8u);
    for (std::uint64_t v = 0; v < 8; ++v) {
        const double expected = v % 2 == 0 ? 0.25 : 0.0;
        EXPECT_NEAR(probs[v], expected, tol) << "output " << v;
    }
}

TEST(Shor, HelperRegisterEndsClean)
{
    const ShorProgram prog = buildShorProgram();
    const auto probs =
        exactMarginal(prog.circuit, "final", prog.helper);
    EXPECT_NEAR(probs[0], 1.0, tol);
    const auto flag =
        exactMarginal(prog.circuit, "final", prog.flag);
    EXPECT_NEAR(flag[0], 1.0, tol);
}

TEST(Shor, LowerRegisterHoldsPowersOfA)
{
    // The lower register ends in a uniform mixture of the order cycle
    // {1, 7, 4, 13} (7^j mod 15).
    const ShorProgram prog = buildShorProgram();
    const auto probs =
        exactMarginal(prog.circuit, "final", prog.lower);
    for (std::uint64_t v : {1ull, 7ull, 4ull, 13ull})
        EXPECT_NEAR(probs[v], 0.25, tol) << "value " << v;
    for (std::uint64_t v : {0ull, 2ull, 3ull, 5ull, 6ull})
        EXPECT_NEAR(probs[v], 0.0, tol) << "value " << v;
}

TEST(Shor, RoadmapAssertionsAllPass)
{
    // Figure 2's assertion sites on a correct program.
    const ShorProgram prog = buildShorProgram();
    CheckConfig cfg;
    cfg.ensembleSize = 128;
    AssertionChecker checker(prog.circuit, cfg);

    checker.assertClassical("init", prog.upper, 0);
    checker.assertClassical("init", prog.lower, 1);
    checker.assertClassical("init", prog.helper, 0);
    checker.assertSuperposition("superposed", prog.upper);
    checker.assertClassical("superposed", prog.lower, 1);
    checker.assertEntangled("entangled", prog.upper, prog.lower);
    checker.assertProduct("entangled", prog.upper, prog.helper);
    checker.assertClassical("final", prog.helper, 0);

    const auto outcomes = checker.checkAll();
    for (const auto &o : outcomes)
        EXPECT_TRUE(o.passed) << o.spec.name;
}

TEST(Shor, FactorsFifteen)
{
    Rng rng(2024);
    const auto result = runShorFactoring(ShorConfig(), rng);
    ASSERT_TRUE(result.factors.has_value());
    const auto [f1, f2] = *result.factors;
    EXPECT_EQ(f1 * f2, 15u);
    EXPECT_TRUE((f1 == 3 && f2 == 5) || (f1 == 5 && f2 == 3));
}

TEST(Shor, Bug1WrongLowerInitBreaksPreconditions)
{
    // Bug type 1: lower register initialised to 0 instead of 1.
    ShorConfig config;
    config.lowerInit = 0;
    const ShorProgram prog = buildShorProgram(config);

    AssertionChecker checker(prog.circuit);
    checker.assertClassical("init", prog.lower, 1);
    const auto o = checker.check(checker.assertions()[0]);
    EXPECT_FALSE(o.passed);
    EXPECT_EQ(o.pValue, 0.0);
}

TEST(Shor, Bug6WrongInverseDirtiesHelper)
{
    // Table 3's bug: a^-1 = 12 instead of 13 on the first iteration.
    ShorConfig config;
    config.pairs = shorClassicalInputs(7, 15, 3);
    config.pairs[0].second = 12;
    const ShorProgram prog = buildShorProgram(config);

    // The helper register no longer returns to 0...
    const auto probs =
        exactMarginal(prog.circuit, "final", prog.helper);
    EXPECT_LT(probs[0], 0.9);

    // ...and the classical postcondition assertion catches it.
    AssertionChecker checker(prog.circuit);
    checker.assertClassical("final", prog.helper, 0);
    const auto o = checker.check(checker.assertions()[0]);
    EXPECT_FALSE(o.passed);
    EXPECT_EQ(o.pValue, 0.0);
}

TEST(Shor, Bug6KeepsHalfTheProbabilityOnZero)
{
    // Table 3 structure: P(helper = 0) = 1/2, and conditioned on a
    // clean helper the output distribution is still the correct one.
    ShorConfig config;
    config.pairs = shorClassicalInputs(7, 15, 3);
    config.pairs[0].second = 12;
    const ShorProgram prog = buildShorProgram(config);

    const auto joint = exactJoint(prog.circuit, "final", prog.helper,
                                  prog.upper);
    double p_zero = 0.0;
    for (double p : joint[0])
        p_zero += p;
    EXPECT_NEAR(p_zero, 0.5, 0.05);
}

TEST(Shor, WrongBaseRejectedClassically)
{
    ShorConfig config;
    config.a = 6; // shares factor 3 with 15
    EXPECT_THROW_MESSAGE(buildShorProgram(config), qsa::Error,
                         "shares a factor");
}

} // anonymous namespace
