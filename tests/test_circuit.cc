/**
 * @file
 * Unit tests for the circuit IR: registers, builders, composition
 * patterns (inverse/controlled), breakpoints, executor, QASM round
 * trips.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "circuit/circuit.hh"
#include "circuit/executor.hh"
#include "circuit/qasm.hh"
#include "common/errors.hh"
#include "common/rng.hh"
#include "sim/gates.hh"

#include "expect_throw.hh"

namespace
{

using namespace qsa;
using namespace qsa::circuit;

constexpr double tol = 1e-12;

TEST(Register, IndexingAndSlices)
{
    QubitRegister r("b", {4, 5, 6, 7});
    EXPECT_EQ(r.width(), 4u);
    EXPECT_EQ(r[0], 4u);
    EXPECT_EQ(r[3], 7u);

    const auto s = r.slice(1, 2, "mid");
    EXPECT_EQ(s.width(), 2u);
    EXPECT_EQ(s[0], 5u);
    EXPECT_EQ(s.name(), "mid");

    const auto rev = r.reversed();
    EXPECT_EQ(rev[0], 7u);
    EXPECT_EQ(rev[3], 4u);
}

TEST(CircuitIR, RegisterAllocationIsSequential)
{
    Circuit c;
    const auto a = c.addRegister("a", 3);
    const auto b = c.addRegister("b", 2);
    EXPECT_EQ(c.numQubits(), 5u);
    EXPECT_EQ(a[0], 0u);
    EXPECT_EQ(b[0], 3u);
    EXPECT_EQ(c.reg("b").width(), 2u);
}

TEST(CircuitIR, GateCountsFoldControls)
{
    Circuit c(3);
    c.h(0);
    c.cnot(0, 1);
    c.ccnot(0, 1, 2);
    c.cphase(0, 1, 0.5);
    const auto counts = c.gateCounts();
    EXPECT_EQ(counts.at("h"), 1u);
    EXPECT_EQ(counts.at("cx"), 1u);
    EXPECT_EQ(counts.at("ccx"), 1u);
    EXPECT_EQ(counts.at("cu1"), 1u);
}

TEST(CircuitIR, PrepRegisterLoadsValue)
{
    Circuit c;
    const auto r = c.addRegister("r", 4);
    c.prepRegister(r, 0b0101);
    c.measure(r, "m");

    Rng rng(1);
    const auto rec = runCircuit(c, rng);
    EXPECT_EQ(rec.measurements.at("m"), 0b0101u);
}

TEST(CircuitIR, ExecutorBellCorrelations)
{
    Circuit c;
    const auto q = c.addRegister("q", 2);
    c.h(q[0]);
    c.cnot(q[0], q[1]);
    c.measure(q, "m");

    Rng rng(2);
    int ones = 0;
    for (int i = 0; i < 200; ++i) {
        const auto rec = runCircuit(c, rng);
        const auto m = rec.measurements.at("m");
        ASSERT_TRUE(m == 0b00 || m == 0b11) << m;
        ones += m == 0b11;
    }
    EXPECT_GT(ones, 50);
    EXPECT_LT(ones, 150);
}

TEST(CircuitIR, InverseUndoesCircuit)
{
    Circuit c(3);
    c.h(0);
    c.t(1);
    c.cnot(0, 1);
    c.rz(2, 0.3);
    c.cphase(1, 2, 1.1);
    c.swap(0, 2);
    c.s(0);

    Circuit round_trip(3);
    round_trip.appendCircuit(c);
    round_trip.appendCircuit(c.inverse());

    Rng rng(3);
    const auto rec = runCircuit(round_trip, rng);
    EXPECT_NEAR(std::abs(rec.state.amp(0)), 1.0, tol);
}

TEST(CircuitIR, InverseRejectsMeasurement)
{
    Circuit c(1);
    c.measureQubits({0}, "m");
    EXPECT_THROW_MESSAGE({ auto inv = c.inverse(); (void)inv; }, qsa::Error,
                         "cannot invert");
}

TEST(CircuitIR, AppendControlledImplementsRecursion)
{
    // Controlled-X circuit wrapped with one more control == Toffoli.
    Circuit base(3);
    base.cnot(1, 2);

    Circuit wrapped(3);
    wrapped.appendControlled(base, {0});

    for (std::uint64_t input = 0; input < 8; ++input) {
        sim::StateVector direct(3), via(3);
        direct.setBasisState(input);
        via.setBasisState(input);
        direct.applyControlled(sim::gates::x(), {0, 1}, 2);

        std::map<std::string, std::uint64_t> meas;
        Rng rng(4);
        runCircuitOn(wrapped, via, meas, rng);
        EXPECT_NEAR(direct.fidelity(via), 1.0, tol) << input;
    }
}

TEST(CircuitIR, BreakpointSlicing)
{
    Circuit c(2);
    c.h(0);
    c.breakpoint("after_h");
    c.cnot(0, 1);
    c.breakpoint("after_cnot");
    c.measureQubits({0, 1}, "m");

    const auto labels = c.breakpointLabels();
    ASSERT_EQ(labels.size(), 2u);
    EXPECT_EQ(labels[0], "after_h");

    const Circuit prefix = c.prefixUpTo("after_h");
    EXPECT_EQ(prefix.size(), 1u); // just the H

    const Circuit prefix2 = c.prefixUpTo("after_cnot");
    EXPECT_EQ(prefix2.size(), 3u); // h, breakpoint marker, cnot
}

TEST(CircuitIR, DuplicateBreakpointRejected)
{
    Circuit c(1);
    c.breakpoint("b");
    EXPECT_THROW_MESSAGE(c.breakpoint("b"), qsa::Error,
                         "duplicate breakpoint");
}

TEST(CircuitIR, ValidationCatchesBadQubits)
{
    Circuit c(2);
    EXPECT_THROW_MESSAGE(c.h(5), qsa::Error, "out of range");
    EXPECT_THROW_MESSAGE(c.cnot(0, 0), qsa::Error, "collides");
}

/** An instruction built field by field, for the rejection table. */
Instruction
rawInstruction(GateKind kind, std::vector<unsigned> targets,
               std::vector<unsigned> controls = {}, int matrix_id = -1)
{
    Instruction inst;
    inst.kind = kind;
    inst.targets = std::move(targets);
    inst.controls = std::move(controls);
    inst.matrixId = matrix_id;
    return inst;
}

TEST(CircuitIR, EveryValidationRejectionKeepsItsMessage)
{
    struct Rejection
    {
        const char *what;
        Instruction inst;
        const char *message;
    };
    std::vector<unsigned> wide(20);
    for (unsigned q = 0; q < 20; ++q)
        wide[q] = q;
    wide.back() = 3;
    const std::vector<Rejection> table{
        {"target out of range", rawInstruction(GateKind::H, {24}),
         "qubit 24 out of range \\(circuit has 20 qubits\\)"},
        {"control out of range", rawInstruction(GateKind::X, {0}, {21}),
         "qubit 21 out of range \\(circuit has 20 qubits\\)"},
        {"duplicate target", rawInstruction(GateKind::Swap, {1, 1}),
         "duplicate target qubits in swap"},
        {"duplicate target in a wide list",
         rawInstruction(GateKind::Measure, wide),
         "duplicate target qubits in measure"},
        {"control colliding with a target",
         rawInstruction(GateKind::X, {2}, {0, 2}),
         "control qubit 2 collides with a target in x"},
        // A repeated control is caught by the collision check, which
        // also covers the controls already seen, so it reads as a
        // collision.
        {"duplicate control", rawInstruction(GateKind::Z, {2}, {0, 0}),
         "control qubit 0 collides with a target in z"},
        {"swap without two targets", rawInstruction(GateKind::Swap, {0}),
         "swap needs two targets"},
        {"bad matrix id", rawInstruction(GateKind::Unitary, {0}, {}, 1),
         "unitary instruction with invalid matrix id"},
        {"wrong unitary dimension",
         rawInstruction(GateKind::Unitary, {0, 1}, {}, 0),
         "unitary dimension does not match target count"},
        {"controlled measure", rawInstruction(GateKind::Measure, {0}, {1}),
         "measure cannot be controlled"},
        {"controlled breakpoint",
         rawInstruction(GateKind::Breakpoint, {}, {1}),
         "breakpoint cannot be controlled"},
        {"controlled prepz", rawInstruction(GateKind::PrepZ, {0}, {1}),
         "prepz cannot be controlled"},
        {"prepz target count", rawInstruction(GateKind::PrepZ, {0, 1}),
         "prepz takes one target"},
        {"single-target kind given two targets",
         rawInstruction(GateKind::Rz, {0, 1}),
         "rz takes exactly one target"},
    };
    for (const Rejection &row : table) {
        SCOPED_TRACE(row.what);
        Circuit c(20);
        c.addMatrix(sim::CMatrix::fromMat2(sim::gates::x()));
        EXPECT_THROW_MESSAGE(c.append(row.inst), qsa::Error, row.message);
    }
}

TEST(CircuitIR, BoundaryMarkersRejectAClashingSourceLabel)
{
    // A source breakpoint named like a generated marker is a
    // duplicate wherever it sits: before the boundary whose marker it
    // copies, or after it.
    Circuit before(1);
    for (int k = 0; k < 5; ++k)
        before.h(0);
    before.breakpoint("qsa_boundary_7");
    before.h(0);
    EXPECT_THROW_MESSAGE(before.withBoundaryBreakpoints(), qsa::Error,
                         "duplicate breakpoint label 'qsa_boundary_7'");

    Circuit after(1);
    for (int k = 0; k < 5; ++k)
        after.h(0);
    after.breakpoint("qsa_boundary_1");
    after.h(0);
    EXPECT_THROW_MESSAGE(after.withBoundaryBreakpoints(), qsa::Error,
                         "duplicate breakpoint label 'qsa_boundary_1'");

    // Labels that only look alike are not generated markers.
    Circuit alike(1);
    alike.h(0);
    alike.breakpoint("qsa_boundary_01");
    alike.breakpoint("qsa_boundary_9");
    alike.breakpoint("qsa_boundary_x");
    alike.breakpoint("qsa_boundary_");
    const Circuit marked = alike.withBoundaryBreakpoints();
    EXPECT_EQ(marked.size(), 2 * alike.size() + 1);
    EXPECT_EQ(marked.breakpointPosition("qsa_boundary_5"), 10u);
}

TEST(CircuitIR, UnitaryInstructionExecutes)
{
    Circuit c(2);
    c.unitary(sim::CMatrix::fromMat2(sim::gates::x()), {1});
    Rng rng(5);
    const auto rec = runCircuit(c, rng);
    EXPECT_NEAR(std::abs(rec.state.amp(2)), 1.0, tol);
}

TEST(CircuitIR, InverseOfUnitaryInstruction)
{
    sim::CMatrix m = sim::CMatrix::fromMat2(sim::gates::t());
    Circuit c(1);
    c.unitary(m, {0});
    Circuit round(1);
    round.h(0); // make phases observable
    round.appendCircuit(c);
    round.appendCircuit(c.inverse());
    round.h(0);

    Rng rng(6);
    const auto rec = runCircuit(round, rng);
    EXPECT_NEAR(std::abs(rec.state.amp(0)), 1.0, tol);
}

// --- QASM -----------------------------------------------------------------

// --- QubitList ---------------------------------------------------------------

TEST(QubitList, SpillsToTheHeapOnlyPastItsInlineCapacity)
{
    QubitList list;
    for (unsigned q = 0; q < QubitList::kInline; ++q)
        list.push_back(10 + q);
    EXPECT_EQ(list.capacity(), QubitList::kInline);
    EXPECT_EQ(list, (std::vector<unsigned>{10, 11, 12, 13}));

    list.push_back(14); // capacity + 1
    EXPECT_GT(list.capacity(), QubitList::kInline);
    EXPECT_EQ(list, (std::vector<unsigned>{10, 11, 12, 13, 14}));
    EXPECT_EQ(list.size(), 5u);

    // Gate lists stay inline however they are built.
    const QubitList gate{1, 2};
    EXPECT_EQ(gate.capacity(), QubitList::kInline);
    const QubitList from_vector(std::vector<unsigned>{5, 6, 7, 8});
    EXPECT_EQ(from_vector.capacity(), QubitList::kInline);
}

TEST(QubitList, CopiesAndMovesOfSpilledLists)
{
    const std::vector<unsigned> qubits{0, 1, 2, 3, 4, 5, 6};
    QubitList spilled(qubits);
    ASSERT_GT(spilled.capacity(), QubitList::kInline);

    QubitList copy(spilled);
    EXPECT_EQ(copy, qubits);
    EXPECT_NE(copy.data(), spilled.data());
    copy[0] = 9; // the copy owns its own block
    EXPECT_EQ(spilled, qubits);

    const unsigned *block = spilled.data();
    QubitList moved(std::move(spilled));
    EXPECT_EQ(moved, qubits);
    EXPECT_EQ(moved.data(), block); // the block changes hands
    EXPECT_TRUE(spilled.empty());   // NOLINT(bugprone-use-after-move)

    // Assignment in every direction: inline into spilled, spilled
    // into inline, moved spilled into inline, and onto itself.
    QubitList small{7};
    copy = small;
    EXPECT_EQ(copy, (std::vector<unsigned>{7}));
    small = moved;
    EXPECT_EQ(small, qubits);
    QubitList target{1, 2};
    target = std::move(moved);
    EXPECT_EQ(target, qubits);
    const QubitList &alias = target;
    target = alias;
    EXPECT_EQ(target, qubits);

    // Moving an inline list copies its qubits.
    QubitList inline_list{3, 4};
    QubitList taken(std::move(inline_list));
    EXPECT_EQ(taken, (std::vector<unsigned>{3, 4}));
    EXPECT_EQ(taken.capacity(), QubitList::kInline);
}

TEST(QubitList, ComparesWithVectors)
{
    const QubitList list{4, 2};
    const std::vector<unsigned> same{4, 2};
    EXPECT_TRUE(list == same);
    EXPECT_TRUE(same == list);
    EXPECT_FALSE(list != same);
    EXPECT_TRUE(list != (std::vector<unsigned>{2, 4}));
    EXPECT_TRUE(list != (std::vector<unsigned>{4, 2, 1}));
    EXPECT_TRUE((std::vector<unsigned>{4}) != list);
    EXPECT_TRUE(QubitList() == std::vector<unsigned>());
    EXPECT_TRUE(list == QubitList({4, 2}));
    EXPECT_TRUE(list != QubitList({4}));
}

TEST(QubitList, AppendAtTheEndAsAppendControlledUsesIt)
{
    QubitList list{1, 2};
    const std::vector<unsigned> extra{3, 4, 5};
    list.append(extra.data(), extra.data() + extra.size());
    EXPECT_EQ(list, (std::vector<unsigned>{1, 2, 3, 4, 5}));
    list.append(extra.data(), extra.data()); // empty range
    EXPECT_EQ(list.size(), 5u);

    // A Toffoli under three more controls: five controls, spilled,
    // the gate's own first.
    Circuit body(6);
    body.ccnot(0, 1, 2);
    Circuit wrapped(6);
    wrapped.appendControlled(body, {3, 4, 5});
    const Instruction &inst = wrapped.instructions().at(0);
    EXPECT_EQ(inst.controls, (std::vector<unsigned>{0, 1, 3, 4, 5}));
    EXPECT_EQ(inst.targets, (std::vector<unsigned>{2}));
    EXPECT_EQ(body.instructions()[0].controls,
              (std::vector<unsigned>{0, 1}));
}

TEST(Qasm, EmitContainsExpectedLines)
{
    Circuit c;
    const auto q = c.addRegister("q", 2);
    c.prepZ(q[0], 1);
    c.h(q[0]);
    c.cnot(q[0], q[1]);
    c.cphase(q[0], q[1], M_PI / 4.0);
    c.breakpoint("bp");
    c.measure(q, "out");

    const std::string text = toQasm(c);
    EXPECT_NE(text.find("OPENQASM 2.0;"), std::string::npos);
    EXPECT_NE(text.find("qreg q[2];"), std::string::npos);
    EXPECT_NE(text.find("// qsa.prepz 0 1"), std::string::npos);
    EXPECT_NE(text.find("h q[0];"), std::string::npos);
    EXPECT_NE(text.find("cx q[0],q[1];"), std::string::npos);
    EXPECT_NE(text.find("cu1("), std::string::npos);
    EXPECT_NE(text.find("// qsa.breakpoint bp"), std::string::npos);
    EXPECT_NE(text.find("measure q[0] -> m_out[0];"),
              std::string::npos);
}

TEST(Qasm, RoundTripPreservesBehaviour)
{
    Circuit c;
    const auto a = c.addRegister("a", 2);
    const auto b = c.addRegister("b", 2);
    c.prepZ(a[0], 1);
    c.h(a[1]);
    c.t(b[0]);
    c.cnot(a[1], b[0]);
    c.ccphase(a[0], a[1], b[1], 0.375);
    c.crz(a[0], b[1], -0.5);
    c.cswap(a[0], b[0], b[1]);
    c.breakpoint("bp");
    c.measure(b, "m");

    const Circuit parsed = fromQasm(toQasm(c));
    EXPECT_EQ(parsed.numQubits(), c.numQubits());
    EXPECT_EQ(parsed.breakpointLabels(), c.breakpointLabels());

    // Behavioural equivalence: identical final states and outcomes
    // under the same random stream.
    Rng rng_a(7), rng_b(7);
    const auto rec_a = runCircuit(c, rng_a);
    const auto rec_b = runCircuit(parsed, rng_b);
    EXPECT_NEAR(rec_a.state.fidelity(rec_b.state), 1.0, 1e-9);
    EXPECT_EQ(rec_a.measurements.at("m"), rec_b.measurements.at("m"));
}

TEST(Qasm, ParsesAngleExpressions)
{
    const std::string text =
        "OPENQASM 2.0;\n"
        "qreg q[1];\n"
        "u1(pi/2) q[0];\n"
        "u1(-pi/4) q[0];\n"
        "u1(3*pi/4 - pi) q[0];\n";
    const Circuit c = fromQasm(text);
    ASSERT_EQ(c.size(), 3u);
    EXPECT_NEAR(c.instructions()[0].angle, M_PI / 2.0, tol);
    EXPECT_NEAR(c.instructions()[1].angle, -M_PI / 4.0, tol);
    EXPECT_NEAR(c.instructions()[2].angle, -M_PI / 4.0, tol);
}

TEST(Qasm, MultiControlledMnemonics)
{
    Circuit c(4);
    c.controlledGate(GateKind::Phase, {0, 1, 2}, 3, 0.25);
    const std::string text = toQasm(c);
    EXPECT_NE(text.find("cccu1(0.25) q[0],q[1],q[2],q[3];"),
              std::string::npos);

    const Circuit parsed = fromQasm(text);
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed.instructions()[0].controls.size(), 3u);
    EXPECT_EQ(parsed.instructions()[0].kind, GateKind::Phase);
}

} // anonymous namespace
