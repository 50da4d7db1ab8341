/**
 * @file
 * Tests for the extension features: distribution / uniform-subset
 * assertions, teleportation (entangled preconditions), textbook QPE,
 * circuit depth, and QASM file I/O.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "algo/qft.hh"
#include "algo/qpe.hh"
#include "algo/shor.hh"
#include "algo/teleport.hh"
#include "assertions/checker.hh"
#include "assertions/exact.hh"
#include "assertions/report.hh"
#include "circuit/executor.hh"
#include "circuit/qasm.hh"
#include "common/errors.hh"
#include "common/rng.hh"
#include "sim/gates.hh"

#include "expect_throw.hh"

namespace
{

using namespace qsa;
using qsa::circuit::Circuit;

// --- Distribution assertions -------------------------------------------------

TEST(Distribution, ShorLowerRegisterOrderCycle)
{
    // After modular exponentiation the lower register is uniform over
    // the order cycle {1, 7, 4, 13} — assertUniformSubset checks it.
    const auto prog = algo::buildShorProgram(algo::ShorConfig());
    assertions::AssertionChecker checker(prog.circuit);
    checker.assertUniformSubset("final", prog.lower, {1, 7, 4, 13});
    const auto o = checker.check(checker.assertions()[0]);
    EXPECT_TRUE(o.passed);
    EXPECT_GT(o.pValue, 0.05);
}

TEST(Distribution, WrongSupportRejected)
{
    const auto prog = algo::buildShorProgram(algo::ShorConfig());
    assertions::AssertionChecker checker(prog.circuit);
    // Claim the cycle contains 2 instead of 13: impossible outcomes
    // (13 appears but has zero expected probability) force p = 0.
    checker.assertUniformSubset("final", prog.lower, {1, 7, 4, 2});
    const auto o = checker.check(checker.assertions()[0]);
    EXPECT_FALSE(o.passed);
    EXPECT_TRUE(o.impossibleOutcome);
}

TEST(Distribution, NonUniformExpectedDistribution)
{
    // Ry rotation gives a known Bernoulli distribution; assert it.
    Circuit circ;
    const auto q = circ.addRegister("q", 1);
    const double p1 = 0.3;
    circ.ry(q[0], 2.0 * std::asin(std::sqrt(p1)));
    circ.breakpoint("bp");

    assertions::CheckConfig cfg;
    cfg.ensembleSize = 512;
    assertions::AssertionChecker checker(circ, cfg);
    checker.assertDistribution("bp", q, {1.0 - p1, p1});
    EXPECT_TRUE(checker.check(checker.assertions()[0]).passed);

    // And reject a clearly wrong claim.
    assertions::AssertionChecker wrong(circ, cfg);
    wrong.assertDistribution("bp", q, {0.05, 0.95});
    EXPECT_FALSE(wrong.check(wrong.assertions()[0]).passed);
}

TEST(Distribution, ValidationRejectsBadVectors)
{
    Circuit circ;
    const auto q = circ.addRegister("q", 2);
    circ.breakpoint("bp");
    assertions::AssertionChecker checker(circ);
    EXPECT_THROW_MESSAGE(
        checker.assertDistribution("bp", q, {0.5, 0.5}), qsa::Error,
        "2\\^width");
    EXPECT_THROW_MESSAGE(
        checker.assertDistribution("bp", q, {0.5, 0.5, 0.5, 0.5}), qsa::Error,
        "sum to 1");
}

// --- Teleportation --------------------------------------------------------------

class TeleportAngles
    : public ::testing::TestWithParam<std::pair<double, double>>
{
};

TEST_P(TeleportAngles, PayloadArrivesIntact)
{
    const auto [theta, phi] = GetParam();
    const auto prog = algo::buildTeleportProgram(theta, phi);

    // The verification stage returns the receiver to |0>.
    const auto probs = assertions::exactMarginal(
        prog.circuit, "verified", prog.receiver);
    EXPECT_NEAR(probs[0], 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Angles, TeleportAngles,
    ::testing::Values(std::make_pair(0.0, 0.0),
                      std::make_pair(1.0, 0.5),
                      std::make_pair(M_PI / 2, M_PI / 3),
                      std::make_pair(2.7, -1.2)));

TEST(Teleport, EntangledPreconditionHolds)
{
    const auto prog = algo::buildTeleportProgram(1.1, 0.4);
    assertions::AssertionChecker checker(prog.circuit);
    checker.assertEntangled("pair_ready", prog.senderHalf,
                            prog.receiver);
    checker.assertClassical("verified", prog.receiver, 0);
    EXPECT_TRUE(assertions::allPassed(checker.checkAll()));
}

TEST(Teleport, BrokenPairCaughtByPrecondition)
{
    // Forget the CNOT when making the Bell pair: the precondition
    // assertion fires and the payload is corrupted.
    circuit::Circuit circ;
    const auto msg = circ.addRegister("msg", 1);
    const auto alice = circ.addRegister("alice", 1);
    const auto bob = circ.addRegister("bob", 1);
    const double theta = 1.1, phi = 0.4;
    circ.prepZ(msg[0], 0);
    circ.ry(msg[0], theta);
    circ.rz(msg[0], phi);
    circ.prepZ(alice[0], 0);
    circ.prepZ(bob[0], 0);
    circ.h(alice[0]); // BUG: no cnot(alice, bob)
    circ.breakpoint("pair_ready");
    circ.cnot(msg[0], alice[0]);
    circ.h(msg[0]);
    circ.cnot(alice[0], bob[0]);
    circ.cz(msg[0], bob[0]);
    circ.rz(bob[0], -phi);
    circ.ry(bob[0], -theta);
    circ.breakpoint("verified");

    assertions::AssertionChecker checker(circ);
    checker.assertEntangled("pair_ready", alice, bob);
    checker.assertClassical("verified", bob, 0);
    const auto outcomes = checker.checkAll();
    EXPECT_FALSE(outcomes[0].passed); // precondition violated
    EXPECT_FALSE(outcomes[1].passed); // and the payload is corrupted
}

// --- QPE -------------------------------------------------------------------------

TEST(Qpe, ExactPhaseReadout)
{
    // Phase 5/16 on |1>: with 4 counting qubits the measurement is
    // deterministic.
    const double phi = 5.0 / 16.0;
    const auto u =
        sim::CMatrix::fromMat2(sim::gates::phase(2.0 * M_PI * phi));
    const auto prog = algo::buildQpeProgram(u, 1, 4, 1);

    const auto probs = assertions::exactMarginal(
        prog.circuit, "final", prog.counting);
    EXPECT_NEAR(probs[5], 1.0, 1e-9);
    EXPECT_NEAR(algo::qpeMeasurementToPhase(5, 4), phi, 1e-12);
}

TEST(Qpe, MatchesIpeaOnH2Phase)
{
    // QPE and IPEA agree on a non-trivial eigenphase.
    const double phi = 0.34375; // 11/32, 5 bits
    const auto u =
        sim::CMatrix::fromMat2(sim::gates::phase(2.0 * M_PI * phi));
    const auto prog = algo::buildQpeProgram(u, 1, 5, 1);

    Rng rng(42);
    const auto rec = circuit::runCircuit(prog.circuit, rng);
    EXPECT_NEAR(algo::qpeMeasurementToPhase(
                    rec.measurements.at("phase"), 5),
                phi, 1e-12);
}

TEST(Qpe, BreakpointAssertionsFollowShorStructure)
{
    const double phi = 3.0 / 8.0;
    const auto u =
        sim::CMatrix::fromMat2(sim::gates::phase(2.0 * M_PI * phi));
    const auto prog = algo::buildQpeProgram(u, 1, 3, 1);

    assertions::AssertionChecker checker(prog.circuit);
    checker.assertClassical("prepared", prog.counting, 0);
    checker.assertClassical("prepared", prog.system, 1);
    checker.assertSuperposition("superposed", prog.counting);
    checker.assertClassical("final", prog.counting, 3); // 0.011b
    EXPECT_TRUE(assertions::allPassed(checker.checkAll()));
}

TEST(Qpe, NonEigenstateSuperposition)
{
    // System in |+> under a controlled phase: counting register ends
    // in a mixture of phase 0 and phi estimates.
    const double phi = 0.25;
    const auto u =
        sim::CMatrix::fromMat2(sim::gates::phase(2.0 * M_PI * phi));
    auto prog = algo::buildQpeProgram(u, 1, 3, 0);
    // Hack the prepared state: apply H on the system qubit right
    // after preparation by rebuilding with an extra instruction.
    circuit::Circuit circ;
    const auto counting = circ.addRegister("counting", 3);
    const auto system = circ.addRegister("system", 1);
    circ.prepRegister(counting, 0);
    circ.prepRegister(system, 0);
    circ.h(system[0]);
    for (unsigned k = 0; k < 3; ++k)
        circ.h(counting[k]);
    sim::CMatrix power = u;
    for (unsigned k = 0; k < 3; ++k) {
        circ.unitary(power, system.qubits(), {counting[k]});
        power = power.mul(power);
    }
    algo::iqft(circ, counting, true);
    circ.breakpoint("final");

    const auto probs =
        assertions::exactMarginal(circ, "final", counting);
    EXPECT_NEAR(probs[0], 0.5, 1e-9); // phase 0 branch
    EXPECT_NEAR(probs[2], 0.5, 1e-9); // phase 1/4 branch
}

// --- Depth and QASM file I/O -------------------------------------------------------

TEST(Depth, CountsCriticalPath)
{
    Circuit circ(3);
    EXPECT_EQ(circ.depth(), 0u);
    circ.h(0);
    circ.h(1); // parallel with the first H
    EXPECT_EQ(circ.depth(), 1u);
    circ.cnot(0, 1); // depends on both
    EXPECT_EQ(circ.depth(), 2u);
    circ.h(2); // parallel lane
    EXPECT_EQ(circ.depth(), 2u);
    circ.breakpoint("bp"); // markers do not add depth
    EXPECT_EQ(circ.depth(), 2u);
    circ.ccnot(0, 1, 2);
    EXPECT_EQ(circ.depth(), 3u);
}

TEST(Depth, ShorCircuitStats)
{
    const auto prog = algo::buildShorProgram(algo::ShorConfig());
    EXPECT_GT(prog.circuit.depth(), 100u);
    EXPECT_LE(prog.circuit.depth(), prog.circuit.size());
}

TEST(QasmFile, SaveLoadRoundTrip)
{
    Circuit circ;
    const auto q = circ.addRegister("q", 2);
    circ.prepZ(q[0], 1);
    circ.h(q[1]);
    circ.cphase(q[0], q[1], 0.625);
    circ.breakpoint("bp");
    circ.measure(q, "m");

    const std::string path = "/tmp/qsa_roundtrip_test.qasm";
    circuit::saveQasmFile(circ, path);
    const Circuit loaded = circuit::loadQasmFile(path);
    std::remove(path.c_str());

    EXPECT_EQ(loaded.numQubits(), circ.numQubits());
    EXPECT_EQ(circuit::toQasm(loaded), circuit::toQasm(circ));
}

TEST(QasmFile, MissingFileIsFatal)
{
    EXPECT_THROW_MESSAGE(
        circuit::loadQasmFile("/nonexistent/nope.qasm"), qsa::Error,
        "cannot open");
}

} // anonymous namespace
