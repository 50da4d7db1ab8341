/**
 * @file
 * Robustness and edge-case coverage: error paths (fatal/panic), mid-
 * circuit resets, scattered-qubit dense unitaries, statistics corner
 * cases, and the logging/table utilities.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "circuit/circuit.hh"
#include "circuit/executor.hh"
#include "common/errors.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "sim/gates.hh"
#include "sim/statevector.hh"
#include "stats/chi2.hh"
#include "stats/contingency.hh"
#include "stats/specfun.hh"

#include "expect_throw.hh"

namespace
{

using namespace qsa;
using qsa::circuit::Circuit;

// --- Simulator edges -----------------------------------------------------------

TEST(SimEdges, ScatteredUnitaryMatchesGatePath)
{
    // A 2-qubit unitary applied to non-adjacent qubits {0, 3} in a
    // 5-qubit register: compare dense path against native gates for
    // CNOT with control on qubit 3, target on qubit 0.
    sim::CMatrix cnot(4);
    // Matrix index space: bit 0 = qubits[0] = q0 (target),
    // bit 1 = qubits[1] = q3 (control).
    cnot.at(0b00, 0b00) = 1;
    cnot.at(0b01, 0b01) = 1;
    cnot.at(0b11, 0b10) = 1;
    cnot.at(0b10, 0b11) = 1;

    for (std::uint64_t input = 0; input < 32; ++input) {
        sim::StateVector dense(5), native(5);
        dense.setBasisState(input);
        native.setBasisState(input);
        dense.applyUnitary(cnot, {0, 3});
        native.applyControlled(sim::gates::x(), {3}, 0);
        EXPECT_NEAR(dense.fidelity(native), 1.0, 1e-12)
            << "input " << input;
    }
}

TEST(SimEdges, NormalizeRestoresUnitNorm)
{
    sim::StateVector sv(2);
    sv.applyGate(sim::Mat2{2.0, 0.0, 0.0, 2.0}, 0); // non-unitary x2
    EXPECT_NEAR(sv.norm(), 4.0, 1e-12);
    sv.normalize();
    EXPECT_NEAR(sv.norm(), 1.0, 1e-12);
}

TEST(SimEdges, GhzMeasurementIsAllOrNothing)
{
    Rng rng(8);
    for (int trial = 0; trial < 30; ++trial) {
        sim::StateVector sv(4);
        sv.applyGate(sim::gates::h(), 0);
        for (unsigned q = 1; q < 4; ++q)
            sv.applyControlled(sim::gates::x(), {q - 1}, q);
        const std::uint64_t m = sv.measureQubits({0, 1, 2, 3}, rng);
        EXPECT_TRUE(m == 0 || m == 0b1111) << m;
    }
}

TEST(SimEdges, MidCircuitResetStatistics)
{
    // prepZ on a superposed qubit must land deterministically in the
    // requested state while collapsing entanglement partners
    // consistently.
    Rng rng(9);
    int partner_ones = 0;
    const int trials = 400;
    for (int t = 0; t < trials; ++t) {
        sim::StateVector sv(2);
        sv.applyGate(sim::gates::h(), 0);
        sv.applyControlled(sim::gates::x(), {0}, 1);
        sv.prepZ(0, 0, rng);
        EXPECT_NEAR(sv.probabilityOne(0), 0.0, 1e-12);
        // The partner collapsed to a definite value during the reset.
        const double p1 = sv.probabilityOne(1);
        EXPECT_TRUE(p1 < 1e-9 || p1 > 1.0 - 1e-9);
        partner_ones += p1 > 0.5;
    }
    EXPECT_NEAR(partner_ones / (double)trials, 0.5, 0.1);
}

TEST(SimEdges, BadArgumentsThrow)
{
    sim::StateVector sv(2);
    EXPECT_THROW_MESSAGE(sv.setBasisState(4), Error, "out of range");
    EXPECT_THROW_MESSAGE(sv.applyGate(sim::gates::x(), 2), Error,
                         "out of range");
    EXPECT_THROW_MESSAGE(sv.applyControlled(sim::gates::x(), {1}, 1),
                         Error, "control equals target");
    EXPECT_THROW_MESSAGE(sv.applySwap(0, 0), Error, "distinct");
    const sim::CMatrix bad(2);
    EXPECT_THROW_MESSAGE(sv.applyUnitary(bad, {0, 1}), Error,
                         "dimension mismatch");
}

TEST(SimEdges, ReadOutArgumentsThrow)
{
    // The read-out entry points report a bad argument as qsa::Error,
    // so a host process that passes one can catch it.
    sim::StateVector sv(2);
    EXPECT_THROW_MESSAGE(sv.amp(4), Error, "basis index out of range");
    EXPECT_THROW_MESSAGE(sv.setAmplitudes({1.0, 0.0}), Error,
                         "amplitude vector of size 2");
    EXPECT_THROW_MESSAGE(sv.projectQubit(2, 0, 1.0), Error,
                         "projected qubit out of range");
    EXPECT_THROW_MESSAGE(sv.probabilityOne(2), Error,
                         "qubit out of range");
    EXPECT_THROW_MESSAGE(sv.marginalProbs({0, 2}), Error,
                         "qubit out of range");
    EXPECT_THROW_MESSAGE(sv.reducedDensityMatrix({1, 5}), Error,
                         "qubit out of range");
    EXPECT_THROW_MESSAGE(sv.reducedDensityMatrix(std::vector<unsigned>(17)),
                         Error, "reduced density matrix too large");
    EXPECT_THROW_MESSAGE(sv.innerProduct(sim::StateVector(3)), Error,
                         "state dimension mismatch");
}

TEST(SimEdges, ControlOverlapsUnitaryTarget)
{
    sim::StateVector sv(3);
    const sim::CMatrix id4 = sim::CMatrix::identity(4);
    EXPECT_THROW_MESSAGE(sv.applyControlledUnitary(id4, {1}, {0, 1}),
                         Error, "overlap");
}

TEST(SimEdges, RejectedArgumentsLeaveTheStateUnchanged)
{
    // Every qubit argument is checked before a kernel or a collapse
    // runs, so the caller can catch the error and keep the state.
    sim::StateVector sv(3);
    sv.applyGate(sim::gates::h(), 0);
    sv.applyControlled(sim::gates::x(), {0}, 1);
    const std::vector<sim::Complex> before = sv.amplitudes();
    Rng rng(7);
    EXPECT_THROW_MESSAGE(sv.measureQubits({0, 3}, rng), Error,
                         "measured qubit out of range");
    EXPECT_THROW_MESSAGE(sv.prepZ(5, 0, rng), Error,
                         "measured qubit out of range");
    EXPECT_THROW_MESSAGE(sv.applyControlledSwap({3}, 0, 1), Error,
                         "control qubit out of range");
    EXPECT_THROW_MESSAGE(sv.applyControlledTwoQubit(
                             sim::mat4Identity(), {0}, 0, 2),
                         Error, "control equals target");
    EXPECT_THROW_MESSAGE(
        sv.applyUnitary(sim::CMatrix::identity(8), {0, 2, 0}), Error,
        "distinct");
    EXPECT_EQ(sv.amplitudes(), before);
}

// --- Executor edges ---------------------------------------------------------------

TEST(ExecutorEdges, RunsOnLargerState)
{
    // A 2-qubit circuit applied to a 4-qubit state touches only its
    // own qubits.
    Circuit circ(2);
    circ.h(0);
    circ.cnot(0, 1);

    sim::StateVector sv(4);
    sv.setBasisState(0b1100);
    std::map<std::string, std::uint64_t> meas;
    Rng rng(2);
    circuit::runCircuitOn(circ, sv, meas, rng);
    // Upper qubits untouched.
    const auto probs = sv.marginalProbs({2, 3});
    EXPECT_NEAR(probs[0b11], 1.0, 1e-12);
}

TEST(ExecutorEdges, StateTooSmallIsFatal)
{
    Circuit circ(3);
    circ.h(2);
    sim::StateVector sv(2);
    std::map<std::string, std::uint64_t> meas;
    Rng rng(1);
    EXPECT_THROW_MESSAGE(
        circuit::runCircuitOn(circ, sv, meas, rng), qsa::Error, "too small");
}

TEST(ExecutorEdges, RepeatedMeasureLabelOverwrites)
{
    Circuit circ(1);
    circ.prepZ(0, 1);
    circ.measureQubits({0}, "m");
    circ.x(0);
    circ.measureQubits({0}, "m");
    Rng rng(1);
    const auto rec = circuit::runCircuit(circ, rng);
    EXPECT_EQ(rec.measurements.at("m"), 0u); // latest wins
}

// --- Statistics edges ----------------------------------------------------------

TEST(StatsEdges, QuantileMonotoneInDf)
{
    double prev = 0.0;
    for (double df : {1.0, 2.0, 5.0, 10.0, 30.0}) {
        const double q = stats::chiSquareQuantile(0.95, df);
        EXPECT_GT(q, prev);
        prev = q;
    }
}

TEST(StatsEdges, GammaQLargeArguments)
{
    // Q(a, x) -> 0 for x >> a and stays in [0, 1].
    EXPECT_LT(stats::gammaQ(2.0, 200.0), 1e-60);
    EXPECT_GE(stats::gammaQ(50.0, 30.0), 0.0);
    EXPECT_LE(stats::gammaQ(50.0, 30.0), 1.0);
    EXPECT_NEAR(stats::gammaP(50.0, 30.0) + stats::gammaQ(50.0, 30.0),
                1.0, 1e-10);
}

TEST(StatsEdges, TwoSampleDetectsShift)
{
    // Binned samples from shifted distributions reject equality.
    std::vector<double> s1{50, 30, 15, 5, 0, 0};
    std::vector<double> s2{0, 0, 5, 15, 30, 50};
    const auto res = stats::chiSquareTwoSample(s1, s2);
    EXPECT_LT(res.pValue, 1e-10);
}

TEST(StatsEdgesDeath, InvalidInputs)
{
    EXPECT_THROW_MESSAGE(stats::chiSquareSf(1.0, 0.0), Error, "df > 0");
    EXPECT_THROW_MESSAGE(stats::lnGamma(-1.0), Error, "x > 0");
    EXPECT_THROW_MESSAGE(stats::chiSquareGof({1.0}, {1.0, 2.0}), Error,
                         "mismatch");
    EXPECT_THROW_MESSAGE(stats::pointMassExpected(4, 9, 16.0), Error,
                         "outside");
}

TEST(StatsEdgesDeath, ContingencyShapeChecks)
{
    EXPECT_THROW_MESSAGE(stats::ContingencyTable::fromCounts(
                             {0, 1}, {0}, {{1.0}, {2.0, 3.0}}),
                         Error, "mismatch");
}

// --- Utility edges -----------------------------------------------------------------

TEST(UtilEdges, TableSeparators)
{
    AsciiTable t;
    t.setHeader({"a"});
    t.addRow({"1"});
    t.addSeparator();
    t.addRow({"2"});
    const std::string out = t.render();
    // Four rules: top, under-header, separator, bottom.
    std::size_t rules = 0, pos = 0;
    while ((pos = out.find("+---", pos)) != std::string::npos) {
        ++rules;
        pos += 4;
    }
    EXPECT_EQ(rules, 4u);
}

TEST(UtilEdges, LoggingSinksDoNotCrash)
{
    inform("info message ", 42);
    warn("warn message ", 3.14);
    SUCCEED();
}

TEST(UtilEdgesDeath, FatalThrowsPanicAborts)
{
    // fatal() leaves printing to whoever catches its qsa::Error.
    ::testing::internal::CaptureStderr();
    EXPECT_THROW_MESSAGE(fatal("boom"), qsa::Error, "boom");
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
    EXPECT_DEATH(panic("kaboom"), "kaboom");
}

TEST(UtilEdgesDeath, RngValidation)
{
    Rng rng(1);
    EXPECT_THROW_MESSAGE(rng.uniformInt(0), qsa::Error, "positive");
    EXPECT_THROW_MESSAGE(rng.discrete({0.0, 0.0}), qsa::Error,
                         "positive sum");
    EXPECT_THROW_MESSAGE(rng.discrete({-1.0, 2.0}), qsa::Error,
                         "non-negative");
}

TEST(UtilEdgesDeath, RegisterSliceBounds)
{
    circuit::QubitRegister r("r", {0, 1, 2});
    EXPECT_THROW_MESSAGE(r.slice(2, 2), qsa::Error, "out of range");
    EXPECT_THROW_MESSAGE(r.slice(1, 0xFFFFFFFFu), qsa::Error,
                         "out of range");
    EXPECT_THROW_MESSAGE(r.qubit(3), qsa::Error, "out of range");
}

} // anonymous namespace
