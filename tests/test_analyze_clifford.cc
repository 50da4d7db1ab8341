/**
 * @file
 * Tests for the Clifford abstract interpreter: stabilizer-tableau
 * unit semantics, instruction lowering, the soundness contract of
 * CliffordSimulation (exact predicates inside the decidable fragment,
 * Top past it — never a wrong answer), the boundary-for-boundary
 * agreement with the simulated locate::PredicateOracle on
 * Clifford-only programs, prefix-equivalence certification, and the
 * static discharge of expectClassical specs via Session::analyze().
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "qsa/qsa.hh"

#include "program_generator.hh"

namespace
{

using namespace qsa;
using analyze::CliffordOp;
using analyze::CliffordSimulation;
using analyze::CliffordUnitary;
using analyze::StabilizerTableau;
using assertions::AssertionKind;
using circuit::Circuit;
using circuit::QubitRegister;

// --- StabilizerTableau -----------------------------------------------------

TEST(Tableau, FreshStateIsDeterministicZero)
{
    StabilizerTableau tab(3);
    EXPECT_EQ(tab.numQubits(), 3u);
    for (std::size_t q = 0; q < 3; ++q) {
        EXPECT_TRUE(tab.measureIsDeterministic(q));
        EXPECT_FALSE(tab.deterministicValue(q));
        EXPECT_TRUE(tab.qubitIsUnentangled(q));
    }
}

TEST(Tableau, PauliGatesFlipDeterministicValues)
{
    StabilizerTableau tab(2);
    tab.x(0);
    EXPECT_TRUE(tab.measureIsDeterministic(0));
    EXPECT_TRUE(tab.deterministicValue(0));

    tab.y(1); // Y|0> = i|1>: Z-value 1
    EXPECT_TRUE(tab.deterministicValue(1));

    tab.z(0); // diagonal: no Z-value change
    EXPECT_TRUE(tab.deterministicValue(0));

    tab.swap(0, 1);
    EXPECT_TRUE(tab.deterministicValue(0));
    EXPECT_TRUE(tab.deterministicValue(1));
}

TEST(Tableau, HadamardRandomizesAndForceMeasureCollapses)
{
    StabilizerTableau tab(1);
    tab.h(0);
    EXPECT_FALSE(tab.measureIsDeterministic(0));

    const bool outcome = tab.forceMeasure(0, true);
    EXPECT_TRUE(outcome);
    EXPECT_TRUE(tab.measureIsDeterministic(0));
    EXPECT_TRUE(tab.deterministicValue(0));
}

TEST(Tableau, ForceMeasureReturnsDeterministicValueWhenFixed)
{
    StabilizerTableau tab(1);
    tab.x(0);
    // Forcing 0 on a qubit pinned to 1 reports the real outcome.
    EXPECT_TRUE(tab.forceMeasure(0, false));
}

TEST(Tableau, EntanglementTracking)
{
    StabilizerTableau tab(3);
    tab.h(0);
    EXPECT_TRUE(tab.qubitIsUnentangled(0)) << "|+> is a product state";

    tab.cnot(0, 1); // Bell pair
    EXPECT_FALSE(tab.qubitIsUnentangled(0));
    EXPECT_FALSE(tab.qubitIsUnentangled(1));
    EXPECT_TRUE(tab.qubitIsUnentangled(2));

    tab.cnot(0, 1); // uncompute
    EXPECT_TRUE(tab.qubitIsUnentangled(0));
    EXPECT_TRUE(tab.qubitIsUnentangled(1));

    tab.s(0);
    tab.sdg(0);
    EXPECT_TRUE(tab.qubitIsUnentangled(0));

    // CZ between |+> qubits entangles; on a |0> control it is inert.
    tab.h(1);
    tab.cz(0, 1);
    EXPECT_FALSE(tab.qubitIsUnentangled(0));
    EXPECT_FALSE(tab.qubitIsUnentangled(1));
}

// --- cliffordDecompose -----------------------------------------------------

/** The single instruction of a one-gate circuit builder. */
template <typename Build>
circuit::Instruction
oneGate(unsigned num_qubits, Build build)
{
    Circuit circ;
    const auto q = circ.addRegister("q", num_qubits);
    build(circ, q);
    return circ.instructions().back();
}

/** Unitary image of an op list on `n` qubits. */
CliffordUnitary
unitaryOf(std::size_t n, const std::vector<CliffordOp> &ops)
{
    CliffordUnitary u(n);
    u.apply(ops);
    return u;
}

TEST(CliffordDecompose, ElementaryGatesLower)
{
    const auto h = analyze::cliffordDecompose(
        oneGate(1, [](Circuit &c, const QubitRegister &q) { c.h(q[0]); }));
    ASSERT_TRUE(h.has_value());
    EXPECT_EQ(h->size(), 1u);

    const auto cnot = analyze::cliffordDecompose(oneGate(
        2, [](Circuit &c, const QubitRegister &q) { c.cnot(q[0], q[1]); }));
    ASSERT_TRUE(cnot.has_value());

    const auto brk = analyze::cliffordDecompose(oneGate(
        1, [](Circuit &c, const QubitRegister &) { c.breakpoint("x"); }));
    ASSERT_TRUE(brk.has_value());
    EXPECT_TRUE(brk->empty()) << "breakpoint is the identity";
}

TEST(CliffordDecompose, QuarterTurnAnglesSnap)
{
    const double half_pi = 1.5707963267948966;
    const auto rz = analyze::cliffordDecompose(
        oneGate(1, [&](Circuit &c, const QubitRegister &q) {
            c.rz(q[0], half_pi);
        }));
    ASSERT_TRUE(rz.has_value());
    const auto s_gate = analyze::cliffordDecompose(
        oneGate(1, [](Circuit &c, const QubitRegister &q) { c.s(q[0]); }));
    ASSERT_TRUE(s_gate.has_value());
    EXPECT_TRUE(unitaryOf(1, *rz) == unitaryOf(1, *s_gate))
        << "Rz(pi/2) acts as S up to global phase";

    const auto phase_pi = analyze::cliffordDecompose(
        oneGate(1, [](Circuit &c, const QubitRegister &q) {
            c.phase(q[0], 3.141592653589793);
        }));
    ASSERT_TRUE(phase_pi.has_value());
    const auto z_gate = analyze::cliffordDecompose(
        oneGate(1, [](Circuit &c, const QubitRegister &q) { c.z(q[0]); }));
    EXPECT_TRUE(unitaryOf(1, *phase_pi) == unitaryOf(1, *z_gate));
}

TEST(CliffordDecompose, NonCliffordRejected)
{
    EXPECT_FALSE(analyze::cliffordDecompose(
        oneGate(1, [](Circuit &c, const QubitRegister &q) { c.t(q[0]); })));
    EXPECT_FALSE(analyze::cliffordDecompose(
        oneGate(1, [](Circuit &c, const QubitRegister &q) {
            c.rz(q[0], 0.3);
        })));
    EXPECT_FALSE(analyze::cliffordDecompose(oneGate(
        3, [](Circuit &c, const QubitRegister &q) {
            c.ccnot(q[0], q[1], q[2]);
        })));
    EXPECT_FALSE(analyze::cliffordDecompose(oneGate(
        1, [](Circuit &c, const QubitRegister &q) { c.prepZ(q[0], 0); })));
    EXPECT_FALSE(analyze::cliffordDecompose(
        oneGate(1, [](Circuit &c, const QubitRegister &q) {
            c.measureQubits({q[0]}, "m");
        })));
}

// --- CliffordUnitary -------------------------------------------------------

TEST(CliffordUnitaryAlgebra, KnownIdentities)
{
    using K = CliffordOp::Kind;

    // HZH = X.
    CliffordUnitary hzh(1), x(1);
    hzh.apply({{K::H, 0, 0}, {K::Z, 0, 0}, {K::H, 0, 0}});
    x.apply({{K::X, 0, 0}});
    EXPECT_TRUE(hzh == x);

    // SS = Z.
    CliffordUnitary ss(1), z(1);
    ss.apply({{K::S, 0, 0}, {K::S, 0, 0}});
    z.apply({{K::Z, 0, 0}});
    EXPECT_TRUE(ss == z);

    // XZ = -ZX: equal once global phase is dropped.
    CliffordUnitary xz(1), zx(1);
    xz.apply({{K::X, 0, 0}, {K::Z, 0, 0}});
    zx.apply({{K::Z, 0, 0}, {K::X, 0, 0}});
    EXPECT_TRUE(xz == zx);

    CliffordUnitary h(1);
    h.apply({{K::H, 0, 0}});
    EXPECT_TRUE(h != x);
    EXPECT_TRUE(CliffordUnitary(1) != x);
}

// --- CliffordSimulation: oracle agreement ----------------------------------

/**
 * The tentpole soundness criterion: on a Clifford-only program the
 * statically derived predicate must match the simulated oracle's at
 * every boundary, for every probed register.
 */
void
expectOracleAgreement(const Circuit &circ, const QubitRegister &reg,
                      const std::string &where)
{
    const CliffordSimulation sim(circ);
    ASSERT_EQ(sim.decidableBoundary(), circ.size())
        << where << ": expected a fully decidable program ("
        << sim.topReason() << ")";

    const locate::PredicateOracle oracle(circ, reg);
    for (std::size_t b = 0; b <= circ.size(); ++b) {
        const locate::BoundaryPredicate got = sim.predicateAt(b, reg);
        const locate::BoundaryPredicate want = oracle.at(b);
        ASSERT_EQ(got.kind, want.kind)
            << where << " boundary " << b << ": static "
            << assertions::assertionKindName(got.kind) << " vs oracle "
            << assertions::assertionKindName(want.kind);
        if (want.kind == AssertionKind::Classical) {
            EXPECT_EQ(got.expectedValue, want.expectedValue)
                << where << " boundary " << b;
        } else if (want.kind == AssertionKind::Distribution) {
            ASSERT_EQ(got.expectedProbs.size(),
                      want.expectedProbs.size())
                << where << " boundary " << b;
            for (std::size_t v = 0; v < want.expectedProbs.size(); ++v) {
                EXPECT_NEAR(got.expectedProbs[v], want.expectedProbs[v],
                            1e-12)
                    << where << " boundary " << b << " value " << v;
            }
        }
    }
}

TEST(CliffordVsOracle, BellPairWithDressing)
{
    Circuit circ;
    const auto q = circ.addRegister("q", 2);
    circ.x(q[0]);
    circ.h(q[0]);
    circ.cnot(q[0], q[1]);
    circ.s(q[1]);
    circ.z(q[0]);
    circ.cz(q[0], q[1]);
    circ.h(q[1]);
    expectOracleAgreement(circ, q, "bell-dressed");
}

TEST(CliffordVsOracle, GhzMarginalsPerRegister)
{
    Circuit circ;
    const auto a = circ.addRegister("a", 2);
    const auto b = circ.addRegister("b", 1);
    circ.h(a[0]);
    circ.cnot(a[0], a[1]);
    circ.cnot(a[1], b[0]);
    circ.x(b[0]);
    circ.swap(a[0], a[1]);

    // A GHZ sub-register marginal is a correlated two-point
    // distribution: the Distribution kind path on both sides.
    expectOracleAgreement(circ, a, "ghz[a]");
    expectOracleAgreement(circ, b, "ghz[b]");
}

TEST(CliffordVsOracle, DeterministicMeasurementAndCondition)
{
    Circuit circ;
    const auto q = circ.addRegister("q", 2);
    circ.x(q[0]);
    circ.measureQubits({q[0]}, "m");
    circ.x(q[1]);
    circ.conditionLast("m", 1); // statically fires
    circ.z(q[1]);
    circ.conditionLast("m", 0); // statically dead
    circ.h(q[1]);
    expectOracleAgreement(circ, q, "semiclassical");

    const CliffordSimulation sim(circ);
    ASSERT_EQ(sim.labels().count("m"), 1u);
    EXPECT_EQ(sim.labels().at("m"), 1u);
}

TEST(CliffordVsOracle, PrepZRecyclingAgrees)
{
    Circuit circ;
    const auto q = circ.addRegister("q", 2);
    circ.x(q[0]);
    circ.prepZ(q[0], 0); // reset of a deterministic qubit
    circ.h(q[1]);
    circ.prepZ(q[1], 1); // reset of a random product qubit
    expectOracleAgreement(circ, q, "prepz");
}

/**
 * A seeded Clifford-only program on `n` >= 2 qubits (register "q"):
 * H, S, X, Z, CNOT, CZ and SWAP, and resets to either bit. A reset
 * lands only where the tableau resets exactly, on a deterministic or
 * an unentangled qubit (CliffordSimulation degrades to Top at a reset
 * of an entangled one, which becomes an H instead), so the whole
 * program stays decidable. `random_resets` counts the resets of a
 * qubit in superposition, which split the oracle's mixture.
 */
Circuit
generatedClifford(std::uint64_t seed, unsigned n, std::size_t count,
                  std::size_t &random_resets)
{
    Circuit circ;
    circ.addRegister("q", n);
    StabilizerTableau tab(n);
    Rng rng(seed);
    for (std::size_t i = 0; i < count; ++i) {
        const auto a = static_cast<unsigned>(rng.uniformInt(n));
        auto b = static_cast<unsigned>(rng.uniformInt(n - 1));
        b += b >= a ? 1 : 0;
        switch (rng.uniformInt(8)) {
          case 0: circ.h(a); tab.h(a); break;
          case 1: circ.s(a); tab.s(a); break;
          case 2: circ.x(a); tab.x(a); break;
          case 3: circ.z(a); tab.z(a); break;
          case 4: circ.cnot(a, b); tab.cnot(a, b); break;
          case 5: circ.cz(a, b); tab.cz(a, b); break;
          case 6: circ.swap(a, b); tab.swap(a, b); break;
          default: {
            const bool bit = rng.bernoulli(0.5);
            if (tab.measureIsDeterministic(a)) {
                if (tab.deterministicValue(a) != bit)
                    tab.x(a);
            } else if (tab.qubitIsUnentangled(a)) {
                tab.forceMeasure(a, bit);
                ++random_resets;
            } else {
                circ.h(a);
                tab.h(a);
                break;
            }
            circ.prepZ(a, bit ? 1 : 0);
            break;
          }
        }
    }
    return circ;
}

TEST(CliffordVsOracle, GeneratedProgramsAgreeAtEveryBoundary)
{
    std::size_t random_resets = 0;
    std::size_t resets = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        const unsigned n = 2 + seed % 5;
        const Circuit circ = generatedClifford(seed, n, 36, random_resets);
        const std::string where = "seed " + std::to_string(seed);
        for (const auto &inst : circ.instructions())
            resets += inst.kind == circuit::GateKind::PrepZ;

        // Every qubit alone, the first and last together, and the
        // whole register.
        for (unsigned q = 0; q < n; ++q)
            expectOracleAgreement(circ, QubitRegister("r", {q}),
                                  where + " q" + std::to_string(q));
        expectOracleAgreement(circ, QubitRegister("p", {0, n - 1}),
                              where + " pair");
        expectOracleAgreement(circ, circ.reg("q"), where + " all");
    }
    // Both kinds of reset occur: of a deterministic qubit and of one
    // in superposition.
    EXPECT_GT(random_resets, 0u);
    EXPECT_GT(resets, random_resets);
}

// --- CliffordSimulation: Top degradation -----------------------------------

TEST(CliffordTop, NonCliffordGateDegrades)
{
    Circuit circ;
    const auto q = circ.addRegister("q", 1);
    circ.h(q[0]);
    circ.t(q[0]);
    circ.h(q[0]);

    const CliffordSimulation sim(circ);
    EXPECT_EQ(sim.numBoundaries(), 4u);
    EXPECT_EQ(sim.decidableBoundary(), 1u);
    EXPECT_TRUE(sim.decidableAt(1));
    EXPECT_FALSE(sim.decidableAt(2));
    EXPECT_NE(sim.topReason().find("instruction 1"), std::string::npos)
        << sim.topReason();
    EXPECT_NE(sim.topReason().find("Clifford"), std::string::npos);
}

TEST(CliffordTop, NondeterministicMeasurementDegrades)
{
    Circuit circ;
    const auto q = circ.addRegister("q", 1);
    circ.h(q[0]);
    circ.measureQubits({q[0]}, "m");

    const CliffordSimulation sim(circ);
    EXPECT_EQ(sim.decidableBoundary(), 1u);
    EXPECT_NE(sim.topReason().find("nondeterministic"),
              std::string::npos)
        << sim.topReason();
    EXPECT_TRUE(sim.labels().empty());
}

TEST(CliffordTop, EntangledResetDegrades)
{
    Circuit circ;
    const auto q = circ.addRegister("q", 2);
    circ.h(q[0]);
    circ.cnot(q[0], q[1]);
    circ.prepZ(q[1], 0);

    const CliffordSimulation sim(circ);
    EXPECT_EQ(sim.decidableBoundary(), 2u);
    EXPECT_NE(sim.topReason().find("reset"), std::string::npos)
        << sim.topReason();
}

TEST(CliffordTop, UnknownConditionLabelDegrades)
{
    Circuit circ;
    const auto q = circ.addRegister("q", 1);
    circ.x(q[0]);
    circ.conditionLast("ghost", 1);

    const CliffordSimulation sim(circ);
    EXPECT_EQ(sim.decidableBoundary(), 0u);
    EXPECT_NE(sim.topReason().find("ghost"), std::string::npos)
        << sim.topReason();
}

// --- equivalentPrefixBoundary ----------------------------------------------

TEST(PrefixEquivalence, IdenticalProgramsCertifyFully)
{
    Circuit circ;
    const auto q = circ.addRegister("q", 2);
    circ.h(q[0]);
    circ.t(q[0]); // non-Clifford: structural equality carries it
    circ.cnot(q[0], q[1]);
    circ.measureQubits({q[0], q[1]}, "out");

    EXPECT_EQ(analyze::equivalentPrefixBoundary(circ, circ),
              circ.size());
}

TEST(PrefixEquivalence, QubitCountMismatchOrImmediateDivergence)
{
    Circuit a, b;
    const auto qa = a.addRegister("q", 2);
    const auto qb = b.addRegister("q", 3);
    a.h(qa[0]);
    b.h(qb[0]);
    EXPECT_EQ(analyze::equivalentPrefixBoundary(a, b), 0u);

    Circuit c, d;
    const auto qc = c.addRegister("q", 1);
    const auto qd = d.addRegister("q", 1);
    c.t(qc[0]); // non-Clifford: no run can absorb the mismatch
    d.x(qd[0]);
    EXPECT_EQ(analyze::equivalentPrefixBoundary(c, d), 0u);
}

TEST(PrefixEquivalence, CommutedPauliRunCertifiesPastReordering)
{
    // x;z vs z;x differ structurally but are the same unitary up to
    // global phase; the run barrier is the shared breakpoint.
    Circuit s, r;
    const auto qs = s.addRegister("q", 1);
    const auto qr = r.addRegister("q", 1);
    s.x(qs[0]);
    s.z(qs[0]);
    s.breakpoint("sync");
    s.h(qs[0]);
    r.z(qr[0]);
    r.x(qr[0]);
    r.breakpoint("sync");
    r.h(qr[0]);

    EXPECT_EQ(analyze::equivalentPrefixBoundary(s, r), 4u);
}

TEST(PrefixEquivalence, EndOfProgramActsAsRunBarrier)
{
    Circuit s, r;
    const auto qs = s.addRegister("q", 1);
    const auto qr = r.addRegister("q", 1);
    s.x(qs[0]);
    s.z(qs[0]);
    r.z(qr[0]);
    r.x(qr[0]);
    EXPECT_EQ(analyze::equivalentPrefixBoundary(s, r), 2u);
}

TEST(PrefixEquivalence, UnequalRunLengthsAreNotCertified)
{
    // h;z;h equals x as a unitary, but the runs end at different
    // indices, so certification soundly declines (boundary indices
    // would not correspond).
    Circuit s, r;
    const auto qs = s.addRegister("q", 1);
    const auto qr = r.addRegister("q", 1);
    s.h(qs[0]);
    s.z(qs[0]);
    s.h(qs[0]);
    s.breakpoint("sync");
    r.x(qr[0]);
    r.breakpoint("sync");
    EXPECT_EQ(analyze::equivalentPrefixBoundary(s, r), 0u);
}

TEST(PrefixEquivalence, DivergentRunStopsCertification)
{
    Circuit s, r;
    const auto qs = s.addRegister("q", 2);
    const auto qr = r.addRegister("q", 2);
    s.h(qs[0]);
    s.cnot(qs[0], qs[1]);
    s.h(qs[0]); // diverges: H on q0
    r.h(qr[0]);
    r.cnot(qr[0], qr[1]);
    r.h(qr[1]); // vs H on q1
    EXPECT_EQ(analyze::equivalentPrefixBoundary(s, r), 2u);
}

/** The state the first `length` instructions of `circ` prepare. */
sim::StateVector
prefixState(const Circuit &circ, std::size_t length)
{
    sim::StateVector state(circ.numQubits());
    std::map<std::string, std::uint64_t> measurements;
    Rng rng(0);
    circuit::runCircuitOn(circ.sliceRange(0, length), state, measurements,
                          rng);
    return state;
}

/** True for the Clifford gates appendGates emits. */
bool
cliffordGate(const circuit::Instruction &inst)
{
    const bool one_qubit = inst.kind == circuit::GateKind::H ||
                           inst.kind == circuit::GateKind::S;
    const bool cnot = inst.kind == circuit::GateKind::X;
    return inst.controls.size() == (cnot ? 1u : 0u) && (one_qubit || cnot);
}

/** True when the two instructions act on no common qubit. */
bool
disjoint(const circuit::Instruction &a, const circuit::Instruction &b)
{
    for (const auto *x : {&a.targets, &a.controls}) {
        for (const auto *y : {&b.targets, &b.controls}) {
            for (unsigned p : *x)
                for (unsigned q : *y)
                    if (p == q)
                        return false;
        }
    }
    return true;
}

TEST(PrefixEquivalence, GeneratedPairsCertifyOnlyEquivalentPrefixes)
{
    // Measurement-free generated references; each suspect swaps two
    // adjacent Clifford gates on disjoint qubits (the same length and
    // the same tableau, but no longer structurally equal) and then
    // replaces one later instruction: a Clifford gate by another one
    // (a run of the same length with a different tableau), anything
    // else by a rotation. Whatever boundary E the pre-pass certifies,
    // both locate strategies start above it, so the two length-E
    // prefixes must prepare the same state up to global phase.
    std::size_t pairs = 0, past_swap = 0;
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        Circuit reference(4);
        testgen::ProgramGenerator(reference, seed).appendGates(0, 4, 40);
        const auto &ri = reference.instructions();
        Rng rng(seed);
        std::vector<std::size_t> sites;
        for (std::size_t i = 0; i + 2 < ri.size(); ++i) {
            if (cliffordGate(ri[i]) && cliffordGate(ri[i + 1]) &&
                disjoint(ri[i], ri[i + 1]))
                sites.push_back(i);
        }
        if (sites.empty())
            continue;
        const std::size_t i = sites[rng.uniformInt(sites.size())];
        const std::size_t j = i + 2 + rng.uniformInt(ri.size() - i - 2);

        Circuit suspect = reference.sliceRange(0, i);
        suspect.appendRange(reference, i + 1, i + 2);
        suspect.appendRange(reference, i, i + 1);
        suspect.appendRange(reference, i + 2, j);
        const unsigned q = ri[j].targets[0];
        if (!cliffordGate(ri[j]))
            suspect.rx(q, 0.77);
        else if (ri[j].kind == circuit::GateKind::H)
            suspect.s(q);
        else
            suspect.h(q);
        suspect.appendRange(reference, j + 1, ri.size());
        ASSERT_EQ(suspect.size(), reference.size());

        const std::size_t e =
            analyze::equivalentPrefixBoundary(suspect, reference);
        EXPECT_LE(e, j) << "seed " << seed;
        EXPECT_GE(prefixState(suspect, e)
                      .fidelity(prefixState(reference, e)),
                  1.0 - 1e-9)
            << "seed " << seed << ": swap at " << i << ", rotation at "
            << j << ", certified " << e;
        ++pairs;
        if (e > i)
            ++past_swap;
    }
    // Enough pairs, and the tableau match (not only structural
    // equality) certified past the swap in some of them.
    EXPECT_GE(pairs, 20u);
    EXPECT_GT(past_swap, 0u);
}

// --- Session::analyze ------------------------------------------------------

TEST(SessionAnalyze, StaticallyDischargesClassicalSpecs)
{
    Circuit circ;
    const auto q = circ.addRegister("q", 2);
    circ.x(q[0]);
    circ.cnot(q[0], q[1]);
    circ.t(q[0]);

    session::Session s(circ);
    s.after(2).expectClassical(q, 3).named("both-set");
    s.after(2).expectClassical(q, 1).named("wrong-value");
    s.after(3).expectClassical(q, 3).named("past-the-t");
    s.after(1).expectSuperposition(q); // not statically dischargeable

    session::AnalysisReport report = s.analyze();
    ASSERT_EQ(report.checks.size(), 3u)
        << "only expectClassical specs are adjudicated";

    EXPECT_EQ(report.checks[0].verdict,
              session::StaticVerdict::Verified);
    EXPECT_EQ(report.checks[0].name, "both-set");
    EXPECT_EQ(report.checks[1].verdict,
              session::StaticVerdict::Refuted);
    EXPECT_EQ(report.checks[2].verdict,
              session::StaticVerdict::Undecidable);
    EXPECT_FALSE(report.checks[2].detail.empty());

    EXPECT_EQ(report.count(session::StaticVerdict::Verified), 1u);
    EXPECT_EQ(report.count(session::StaticVerdict::Refuted), 1u);
    EXPECT_EQ(report.count(session::StaticVerdict::Undecidable), 1u);
    EXPECT_FALSE(report.clean()) << "a refuted check is not clean";

    const std::string text = report.render();
    EXPECT_NE(text.find("wrong-value"), std::string::npos);
    EXPECT_NE(text.find("refuted"), std::string::npos);
}

TEST(SessionAnalyze, StaticVerdictAgreesWithTheEnsemble)
{
    // Soundness end-to-end: the static verdicts and the statistical
    // verdicts agree on the same plan.
    Circuit circ;
    const auto q = circ.addRegister("q", 2);
    circ.x(q[0]);
    circ.cnot(q[0], q[1]);

    session::Session s(circ);
    s.ensembleSize(64).seed(7);
    auto &good = s.after(2).expectClassical(q, 3);
    auto &bad = s.after(2).expectClassical(q, 2);

    session::AnalysisReport report = s.analyze();
    ASSERT_EQ(report.checks.size(), 2u);
    EXPECT_EQ(report.checks[0].verdict,
              session::StaticVerdict::Verified);
    EXPECT_EQ(report.checks[1].verdict,
              session::StaticVerdict::Refuted);

    EXPECT_TRUE(good.passed());
    EXPECT_FALSE(bad.passed());
}

TEST(SessionAnalyze, LintHalfCoversTheOriginalProgram)
{
    Circuit circ;
    const auto q = circ.addRegister("q", 1);
    circ.h(q[0]);
    circ.h(q[0]); // adjacent-self-inverse
    circ.x(q[0]);

    session::Session s(circ);
    session::AnalysisReport report = s.analyze();
    EXPECT_TRUE(report.checks.empty());
    ASSERT_EQ(report.lint.diagnostics.size(), 1u);
    EXPECT_EQ(report.lint.diagnostics[0].rule, "adjacent-self-inverse");
    EXPECT_TRUE(report.clean())
        << "info findings do not dirty the analysis";
}

TEST(SessionAnalyze, VerdictNames)
{
    EXPECT_EQ(session::staticVerdictName(
                  session::StaticVerdict::Verified),
              "verified");
    EXPECT_EQ(session::staticVerdictName(
                  session::StaticVerdict::Refuted),
              "refuted");
    EXPECT_EQ(session::staticVerdictName(
                  session::StaticVerdict::Undecidable),
              "undecidable");
}

} // anonymous namespace
