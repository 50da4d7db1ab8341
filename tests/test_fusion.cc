/**
 * @file
 * Gate-fusion tests: the fused program must be observationally
 * equivalent to the unfused one — same final states to numerical
 * tolerance — while actually eliminating gates (FusionStats
 * positive). The ensemble engine no longer fuses; the pass remains
 * for callers that replay it on their own.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <vector>

#include "algo/arith.hh"
#include "algo/qft.hh"
#include "circuit/circuit.hh"
#include "circuit/executor.hh"
#include "circuit/fusion.hh"
#include "common/rng.hh"
#include "sim/statevector.hh"

namespace
{

using namespace qsa;
using qsa::circuit::Circuit;
using qsa::circuit::FusionStats;
using qsa::circuit::fuseGates;
using qsa::circuit::GateKind;

/**
 * Fused execution reorders floating-point matrix products, so
 * amplitudes agree to rounding, not bit-for-bit.
 */
constexpr double kAmpTol = 1e-9;

void
expectSameState(const sim::StateVector &a, const sim::StateVector &b,
                const std::string &what)
{
    ASSERT_EQ(a.numQubits(), b.numQubits()) << what;
    for (std::uint64_t i = 0; i < a.dim(); ++i)
        EXPECT_LT(std::abs(a.amp(i) - b.amp(i)), kAmpTol)
            << what << ": amplitude " << i;
}

/** Run both circuits from |0...0> with the same seed and compare. */
void
expectEquivalent(const Circuit &original, const Circuit &fused,
                 const std::string &what, std::uint64_t seed = 7)
{
    Rng rng_a(seed);
    Rng rng_b(seed);
    const auto rec_a = circuit::runCircuit(original, rng_a);
    const auto rec_b = circuit::runCircuit(fused, rng_b);
    expectSameState(rec_a.state, rec_b.state, what);
    EXPECT_EQ(rec_a.measurements, rec_b.measurements) << what;
}

// --- Pass-level structure ----------------------------------------------------

TEST(FusionPass, MergesSingleQubitRun)
{
    Circuit circ(1);
    circ.h(0);
    circ.s(0);
    circ.t(0);
    circ.h(0);

    FusionStats stats;
    const Circuit fused = fuseGates(circ, &stats);

    EXPECT_EQ(fused.size(), 1u);
    EXPECT_EQ(stats.fusedGates, 3u);
    EXPECT_EQ(stats.emitted, 1u);
    EXPECT_EQ(fused.instructions()[0].kind, GateKind::Unitary);
    expectEquivalent(circ, fused, "1q run");
}

TEST(FusionPass, MergesAcrossTwoQubitGate)
{
    // 1q gates sandwiching a 2q gate on its own qubits collapse into
    // one dense Mat4 apply.
    Circuit circ(2);
    circ.h(0);
    circ.h(1);
    circ.cnot(0, 1);
    circ.x(1);
    circ.t(0);

    FusionStats stats;
    const Circuit fused = fuseGates(circ, &stats);

    EXPECT_EQ(fused.size(), 1u);
    EXPECT_EQ(stats.fusedGates, 4u);
    expectEquivalent(circ, fused, "2q sandwich");
}

TEST(FusionPass, DisjointRunsFuseIndependently)
{
    Circuit circ(4);
    circ.h(0);
    circ.h(2);
    circ.t(0);
    circ.s(2);
    circ.cnot(0, 1);
    circ.cnot(2, 3);

    FusionStats stats;
    const Circuit fused = fuseGates(circ, &stats);

    // Two blocks: {0,1} and {2,3}, each fusing 3 gates into 1.
    EXPECT_EQ(fused.size(), 2u);
    EXPECT_EQ(stats.fusedGates, 4u);
    expectEquivalent(circ, fused, "disjoint blocks");
}

TEST(FusionPass, BarriersFlushPendingBlocks)
{
    Circuit circ(1);
    const auto r = circ.addRegister("r", 1);
    circ.h(0);
    circ.t(0);
    circ.measure(r, "m");
    circ.h(0);
    circ.s(0);

    FusionStats stats;
    const Circuit fused = fuseGates(circ, &stats);

    // Unitary, Measure, Unitary — nothing merges across the barrier.
    ASSERT_EQ(fused.size(), 3u);
    EXPECT_EQ(fused.instructions()[1].kind, GateKind::Measure);
    EXPECT_EQ(stats.fusedGates, 2u);
}

TEST(FusionPass, BreakpointsAndConditionedGatesAreBarriers)
{
    Circuit circ(1);
    const auto r = circ.addRegister("r", 1);
    circ.h(0);
    circ.measure(r, "m");
    circ.z(0);
    circ.conditionLast("m", 1);
    circ.breakpoint("bp");
    circ.x(0);

    const Circuit fused = fuseGates(circ);

    // Every instruction survives verbatim: the lone H before the
    // measurement, the conditioned Z, the breakpoint, the trailing X.
    ASSERT_EQ(fused.size(), circ.size());
    for (std::size_t i = 0; i < circ.size(); ++i)
        EXPECT_EQ(fused.instructions()[i].kind,
                  circ.instructions()[i].kind)
            << "instruction " << i;
    EXPECT_EQ(fused.instructions()[2].condLabel, "m");
    EXPECT_EQ(fused.breakpointLabels(), circ.breakpointLabels());
}

TEST(FusionPass, ThreeQubitGatesFlushAndPassThrough)
{
    Circuit circ(3);
    circ.h(0);
    circ.h(1);
    circ.ccnot(0, 1, 2);
    circ.t(2);

    FusionStats stats;
    const Circuit fused = fuseGates(circ, &stats);

    // H(0) and H(1) touch disjoint qubits, so they stay separate
    // single-member blocks and are emitted verbatim; ccnot spans
    // three qubits and flushes; the trailing T(2) stays single too.
    ASSERT_EQ(fused.size(), 4u);
    EXPECT_EQ(fused.instructions()[0].kind, GateKind::H);
    EXPECT_EQ(fused.instructions()[2].kind, GateKind::X);
    EXPECT_EQ(fused.instructions()[2].controls.size(), 2u);
    EXPECT_EQ(fused.instructions()[3].kind, GateKind::T);
    EXPECT_EQ(stats.fusedGates, 0u);
    expectEquivalent(circ, fused, "ccnot barrier");
}

TEST(FusionPass, SingleMemberBlocksEmitOriginalInstruction)
{
    Circuit circ(2);
    circ.h(0);
    circ.cnot(0, 1);

    const Circuit fused = fuseGates(circ);

    // H and CNot overlap on qubit 0, so they fuse; but a lone gate
    // that never merges must keep its original compact encoding.
    Circuit lone(2);
    lone.rz(1, 0.375);
    const Circuit lone_fused = fuseGates(lone);
    ASSERT_EQ(lone_fused.size(), 1u);
    EXPECT_EQ(lone_fused.instructions()[0].kind, GateKind::Rz);
    EXPECT_EQ(lone_fused.instructions()[0].angle, 0.375);
    EXPECT_EQ(fused.size(), 1u);
}

TEST(FusionPass, PreservesRegistersAndQubitCount)
{
    Circuit circ(3);
    const auto r = circ.addRegister("data", 2);
    circ.h(r.qubit(0));
    circ.cnot(r.qubit(0), r.qubit(1));

    const Circuit fused = fuseGates(circ);
    EXPECT_EQ(fused.numQubits(), circ.numQubits());
    EXPECT_EQ(fused.reg("data").width(), 2u);
}

// --- Randomized equivalence --------------------------------------------------

/** Random measure-free circuit over the fusible + barrier gate set. */
Circuit
randomCircuit(unsigned n, std::size_t gates, std::uint64_t seed)
{
    Circuit circ(n);
    Rng rng(seed);
    for (std::size_t g = 0; g < gates; ++g) {
        const unsigned q = (unsigned)rng.uniformInt(n);
        unsigned p = (unsigned)rng.uniformInt(n);
        if (p == q)
            p = (q + 1) % n;
        switch (rng.uniformInt(10)) {
        case 0: circ.h(q); break;
        case 1: circ.x(q); break;
        case 2: circ.s(q); break;
        case 3: circ.t(q); break;
        case 4: circ.rz(q, 0.1 + 0.2 * (double)g); break;
        case 5: circ.ry(q, 0.3 + 0.1 * (double)g); break;
        case 6: circ.cnot(q, p); break;
        case 7: circ.cphase(q, p, 0.25 + 0.05 * (double)g); break;
        case 8: circ.swap(q, p); break;
        default: {
            // Occasional 3-qubit barrier exercises the flush path.
            unsigned t = 0;
            while (t == q || t == p)
                ++t;
            circ.ccnot(q, p, t);
            break;
        }
        }
    }
    return circ;
}

TEST(FusionEquivalence, RandomizedCircuits)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const Circuit circ = randomCircuit(5, 60, seed);
        FusionStats stats;
        const Circuit fused = fuseGates(circ, &stats);
        EXPECT_GT(stats.fusedGates, 0u) << "seed " << seed;
        EXPECT_LT(fused.size(), circ.size()) << "seed " << seed;
        expectEquivalent(circ, fused,
                         "random seed " + std::to_string(seed));
    }
}

TEST(FusionEquivalence, QftAdderCircuit)
{
    Circuit circ(5);
    const auto b = circ.addRegister("b", 5);
    circ.prepRegister(b, 12);
    algo::qft(circ, b);
    algo::phiAdd(circ, b, 9);
    algo::iqft(circ, b);

    FusionStats stats;
    const Circuit fused = fuseGates(circ, &stats);
    EXPECT_GT(stats.fusedGates, 0u);
    expectEquivalent(circ, fused, "qft adder");
}

TEST(FusionEquivalence, FusionIsIdempotentOnFusedOutput)
{
    const Circuit circ = randomCircuit(4, 40, 42);
    FusionStats first;
    const Circuit fused = fuseGates(circ, &first);
    FusionStats second;
    const Circuit refused = fuseGates(fused, &second);
    // A second pass may still merge adjacent emitted blocks, but the
    // result must stay equivalent and never grow.
    EXPECT_LE(refused.size(), fused.size());
    expectEquivalent(circ, refused, "double fusion");
}

} // anonymous namespace
