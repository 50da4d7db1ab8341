/**
 * @file
 * Tests for classically-conditioned gates and the semiclassical
 * (2n+3-qubit) Shor variant built on them.
 */

#include <gtest/gtest.h>

#include "algo/numtheory.hh"
#include "algo/shor.hh"
#include "circuit/executor.hh"
#include "circuit/qasm.hh"
#include "common/errors.hh"
#include "common/rng.hh"
#include "stats/chi2.hh"

#include "expect_throw.hh"

namespace
{

using namespace qsa;
using qsa::circuit::Circuit;

// --- Conditional instructions ------------------------------------------------

TEST(Conditional, GateFiresOnlyOnMatch)
{
    // Measure a |1> qubit, then flip another conditioned on the
    // outcome being 1 (fires) and on 0 (does not).
    Circuit circ(3);
    circ.prepZ(0, 1);
    circ.measureQubits({0}, "m");
    circ.x(1);
    circ.conditionLast("m", 1);
    circ.x(2);
    circ.conditionLast("m", 0);

    Rng rng(1);
    const auto rec = circuit::runCircuit(circ, rng);
    EXPECT_NEAR(rec.state.probabilityOne(1), 1.0, 1e-12);
    EXPECT_NEAR(rec.state.probabilityOne(2), 0.0, 1e-12);
}

TEST(Conditional, DeferredMeasurementTeleport)
{
    // Measurement-based teleportation: corrections conditioned on the
    // two measured bits reproduce the payload exactly.
    const double theta = 1.3, phi = -0.7;
    Circuit circ(3);
    circ.prepZ(0, 0); // message
    circ.ry(0, theta);
    circ.rz(0, phi);
    circ.prepZ(1, 0); // alice
    circ.prepZ(2, 0); // bob
    circ.h(1);
    circ.cnot(1, 2);
    circ.cnot(0, 1);
    circ.h(0);
    circ.measureQubits({1}, "mx");
    circ.measureQubits({0}, "mz");
    circ.x(2);
    circ.conditionLast("mx", 1);
    circ.z(2);
    circ.conditionLast("mz", 1);
    // Verify: undo the payload preparation; bob must read |0>.
    circ.rz(2, -phi);
    circ.ry(2, -theta);

    Rng rng(7);
    for (int trial = 0; trial < 20; ++trial) {
        const auto rec = circuit::runCircuit(circ, rng);
        EXPECT_NEAR(rec.state.probabilityOne(2), 0.0, 1e-9);
    }
}

TEST(Conditional, UnmeasuredLabelIsFatal)
{
    Circuit circ(1);
    circ.x(0);
    circ.conditionLast("nope", 1);
    Rng rng(1);
    EXPECT_THROW_MESSAGE(circuit::runCircuit(circ, rng), qsa::Error,
                         "unmeasured");
}

TEST(Conditional, CannotInvertOrControl)
{
    Circuit circ(2);
    circ.measureQubits({0}, "m");
    circ.x(1);
    circ.conditionLast("m", 1);
    EXPECT_THROW_MESSAGE({ auto inv = circ.inverse(); (void)inv; }, qsa::Error,
                         "cannot invert");
}

TEST(Conditional, QasmRoundTrip)
{
    Circuit circ;
    const auto q = circ.addRegister("q", 2);
    circ.h(q[0]);
    circ.measureQubits({q[0]}, "m");
    circ.x(q[1]);
    circ.conditionLast("m", 1);

    const std::string text = circuit::toQasm(circ);
    EXPECT_NE(text.find("if(m_m==1) x q[1];"), std::string::npos);

    const Circuit parsed = circuit::fromQasm(text);
    EXPECT_EQ(circuit::toQasm(parsed), text);

    // Behavioural check under a shared stream.
    Rng ra(3), rb(3);
    const auto rec_a = circuit::runCircuit(circ, ra);
    const auto rec_b = circuit::runCircuit(parsed, rb);
    EXPECT_NEAR(rec_a.state.fidelity(rec_b.state), 1.0, 1e-12);
}

// --- Semiclassical Shor --------------------------------------------------------

TEST(SemiclassicalShor, UsesTwoNPlusThreeQubits)
{
    const auto prog =
        algo::buildSemiclassicalShorProgram(algo::ShorConfig());
    // n = 4 bits for N = 15: 2n + 3 = 11 qubits.
    EXPECT_EQ(prog.circuit.numQubits(), 11u);
}

TEST(SemiclassicalShor, OutputsMatchFullRegisterVersion)
{
    // The semiclassical outputs follow the same {0, 2, 4, 6}
    // distribution as the full-register program.
    const auto prog =
        algo::buildSemiclassicalShorProgram(algo::ShorConfig());

    Rng rng(4242);
    std::vector<double> counts(8, 0.0);
    const int runs = 160;
    for (int i = 0; i < runs; ++i) {
        const auto rec = circuit::runCircuit(prog.circuit, rng);
        const std::uint64_t out =
            algo::semiclassicalShorOutput(rec.measurements, 3);
        ASSERT_LT(out, 8u);
        ASSERT_EQ(out % 2, 0u) << "odd output " << out;
        counts[out] += 1.0;

        // Helper register clean on every trajectory.
        EXPECT_EQ(rec.measurements.at("helper"), 0u);
        EXPECT_EQ(rec.measurements.at("flag"), 0u);
    }

    // Uniformity over {0, 2, 4, 6} via chi-square.
    const std::vector<double> observed{counts[0], counts[2], counts[4],
                                       counts[6]};
    const auto res = stats::chiSquareGof(
        observed, stats::uniformExpected(4, runs));
    EXPECT_GT(res.pValue, 0.01);
}

TEST(SemiclassicalShor, FactorsFifteen)
{
    const auto prog =
        algo::buildSemiclassicalShorProgram(algo::ShorConfig());
    Rng rng(99);
    bool factored = false;
    for (int attempt = 0; attempt < 10 && !factored; ++attempt) {
        const auto rec = circuit::runCircuit(prog.circuit, rng);
        const auto out =
            algo::semiclassicalShorOutput(rec.measurements, 3);
        const auto f = algo::shorPostprocess(out, 3, 7, 15);
        factored = f.has_value() && f->first * f->second == 15;
    }
    EXPECT_TRUE(factored);
}

TEST(SemiclassicalShor, WrongInverseDirtiesHelper)
{
    // The Table 3 bug shows up in the semiclassical variant too.
    algo::ShorConfig config;
    config.pairs = algo::shorClassicalInputs(7, 15, 3);
    config.pairs[0].second = 12;
    const auto prog = algo::buildSemiclassicalShorProgram(config);

    Rng rng(55);
    int dirty = 0;
    const int runs = 60;
    for (int i = 0; i < runs; ++i) {
        const auto rec = circuit::runCircuit(prog.circuit, rng);
        dirty += rec.measurements.at("helper") != 0;
    }
    // Paper's Table 3: helper non-zero with probability ~1/2.
    EXPECT_GT(dirty, runs / 4);
    EXPECT_LT(dirty, 3 * runs / 4);
}

TEST(SemiclassicalShor, SerialisesWithConditions)
{
    const auto prog =
        algo::buildSemiclassicalShorProgram(algo::ShorConfig());
    const std::string text = circuit::toQasm(prog.circuit);
    EXPECT_NE(text.find("if(m_m_3==1)"), std::string::npos);
    const auto parsed = circuit::fromQasm(text);
    EXPECT_EQ(circuit::toQasm(parsed), text);
}

} // anonymous namespace
