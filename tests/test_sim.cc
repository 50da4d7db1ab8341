/**
 * @file
 * Unit tests for the state-vector simulator: gate algebra, measurement
 * statistics, entanglement ground truth, dense-matrix cross checks.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/bits.hh"
#include "common/rng.hh"
#include "sim/gates.hh"
#include "sim/matrix.hh"
#include "sim/statevector.hh"

namespace
{

using namespace qsa;
using namespace qsa::sim;

constexpr double tol = 1e-12;

TEST(Mat2, StandardGatesAreUnitary)
{
    EXPECT_TRUE(matIsUnitary(gates::h()));
    EXPECT_TRUE(matIsUnitary(gates::x()));
    EXPECT_TRUE(matIsUnitary(gates::y()));
    EXPECT_TRUE(matIsUnitary(gates::z()));
    EXPECT_TRUE(matIsUnitary(gates::s()));
    EXPECT_TRUE(matIsUnitary(gates::t()));
    EXPECT_TRUE(matIsUnitary(gates::rx(0.731)));
    EXPECT_TRUE(matIsUnitary(gates::ry(1.234)));
    EXPECT_TRUE(matIsUnitary(gates::rz(2.5)));
    EXPECT_TRUE(matIsUnitary(gates::phase(0.77)));
}

TEST(Mat2, GateIdentities)
{
    // H^2 = I, S^2 = Z, T^2 = S.
    EXPECT_LT(matDistance(matMul(gates::h(), gates::h()),
                          gates::identity()), tol);
    EXPECT_LT(matDistance(matMul(gates::s(), gates::s()), gates::z()),
              tol);
    EXPECT_LT(matDistance(matMul(gates::t(), gates::t()), gates::s()),
              tol);
    // HXH = Z.
    EXPECT_LT(matDistance(matMul(gates::h(),
                                 matMul(gates::x(), gates::h())),
                          gates::z()), tol);
}

TEST(Mat2, RzVersusPhaseGlobalPhase)
{
    // phase(t) = e^{it/2} rz(t): identical up to global phase, which
    // matters exactly when controlled (Section 4.2 of the paper).
    const double theta = 0.9;
    const Mat2 rz = gates::rz(theta);
    const Mat2 ph = gates::phase(theta);
    const Complex factor = std::exp(Complex(0, theta / 2.0));
    EXPECT_NEAR(std::abs(ph.a00 - factor * rz.a00), 0.0, tol);
    EXPECT_NEAR(std::abs(ph.a11 - factor * rz.a11), 0.0, tol);
}

TEST(StateVector, InitialState)
{
    StateVector sv(3);
    EXPECT_EQ(sv.dim(), 8u);
    EXPECT_NEAR(std::abs(sv.amp(0) - Complex(1.0)), 0.0, tol);
    EXPECT_NEAR(sv.norm(), 1.0, tol);
}

TEST(StateVector, XFlipsBit)
{
    StateVector sv(2);
    sv.applyGate(gates::x(), 1);
    EXPECT_NEAR(std::abs(sv.amp(2) - Complex(1.0)), 0.0, tol);
}

TEST(StateVector, HadamardSuperposition)
{
    StateVector sv(1);
    sv.applyGate(gates::h(), 0);
    EXPECT_NEAR(std::abs(sv.amp(0)), 1.0 / std::sqrt(2.0), tol);
    EXPECT_NEAR(std::abs(sv.amp(1)), 1.0 / std::sqrt(2.0), tol);
    EXPECT_NEAR(sv.probabilityOne(0), 0.5, tol);
}

TEST(StateVector, BellStateAmplitudes)
{
    StateVector sv(2);
    sv.applyGate(gates::h(), 0);
    sv.applyControlled(gates::x(), {0}, 1);
    EXPECT_NEAR(std::abs(sv.amp(0)), 1.0 / std::sqrt(2.0), tol);
    EXPECT_NEAR(std::abs(sv.amp(3)), 1.0 / std::sqrt(2.0), tol);
    EXPECT_NEAR(std::abs(sv.amp(1)), 0.0, tol);
    EXPECT_NEAR(std::abs(sv.amp(2)), 0.0, tol);
}

TEST(StateVector, ControlledGateRespectsControls)
{
    StateVector sv(2);
    // Control is |0>: nothing happens.
    sv.applyControlled(gates::x(), {0}, 1);
    EXPECT_NEAR(std::abs(sv.amp(0) - Complex(1.0)), 0.0, tol);
    // Set control, now target flips.
    sv.applyGate(gates::x(), 0);
    sv.applyControlled(gates::x(), {0}, 1);
    EXPECT_NEAR(std::abs(sv.amp(3) - Complex(1.0)), 0.0, tol);
}

TEST(StateVector, ToffoliTruthTable)
{
    for (std::uint64_t input = 0; input < 8; ++input) {
        StateVector sv(3);
        sv.setBasisState(input);
        sv.applyControlled(gates::x(), {0, 1}, 2);
        const std::uint64_t expected =
            (input & 3) == 3 ? input ^ 4 : input;
        EXPECT_NEAR(std::abs(sv.amp(expected)), 1.0, tol)
            << "input " << input;
    }
}

TEST(StateVector, SwapExchangesQubits)
{
    StateVector sv(2);
    sv.applyGate(gates::x(), 0); // |01>
    sv.applySwap(0, 1);
    EXPECT_NEAR(std::abs(sv.amp(2)), 1.0, tol); // |10>
}

TEST(StateVector, FredkinTruthTable)
{
    for (std::uint64_t input = 0; input < 8; ++input) {
        StateVector sv(3);
        sv.setBasisState(input);
        sv.applyControlledSwap({2}, 0, 1);
        std::uint64_t expected = input;
        if (input & 4) {
            const std::uint64_t b0 = input & 1, b1 = (input >> 1) & 1;
            expected = (input & 4) | (b0 << 1) | b1;
        }
        EXPECT_NEAR(std::abs(sv.amp(expected)), 1.0, tol)
            << "input " << input;
    }
}

TEST(StateVector, DenseUnitaryMatchesGates)
{
    // Applying CNOT as a dense 2-qubit unitary must equal the native
    // controlled-X path (cross-validation of the two code paths).
    CMatrix cnot(4);
    cnot.at(0, 0) = 1;
    cnot.at(1, 3) = 1;
    cnot.at(2, 2) = 1;
    cnot.at(3, 1) = 1;

    for (std::uint64_t input = 0; input < 4; ++input) {
        StateVector a(2), b(2);
        a.setBasisState(input);
        b.setBasisState(input);
        a.applyControlled(gates::x(), {0}, 1);
        // qubits = {0, 1}: qubit 0 is the matrix LSB (the control).
        b.applyUnitary(cnot, {0, 1});
        EXPECT_NEAR(a.fidelity(b), 1.0, tol) << "input " << input;
    }
}

TEST(StateVector, ControlledUnitaryOnSubset)
{
    // Controlled-H via dense path equals native controlled-H.
    const CMatrix h2 = CMatrix::fromMat2(gates::h());
    StateVector a(3), b(3);
    a.setBasisState(0b101);
    b.setBasisState(0b101);
    a.applyControlled(gates::h(), {0}, 2);
    b.applyControlledUnitary(h2, {0}, {2});
    EXPECT_NEAR(a.fidelity(b), 1.0, tol);
}

TEST(StateVector, MeasurementCollapses)
{
    qsa::Rng rng(3);
    StateVector sv(2);
    sv.applyGate(gates::h(), 0);
    sv.applyControlled(gates::x(), {0}, 1);

    const unsigned m0 = sv.measureQubit(0, rng);
    // After measuring one half of a Bell pair the other is determined.
    EXPECT_NEAR(sv.probabilityOne(1), (double)m0, tol);
    EXPECT_NEAR(sv.norm(), 1.0, tol);
}

TEST(StateVector, MeasurementStatistics)
{
    qsa::Rng rng(5);
    int ones = 0;
    const int n = 2000;
    for (int i = 0; i < n; ++i) {
        StateVector sv(1);
        sv.applyGate(gates::ry(2.0 * std::asin(std::sqrt(0.3))), 0);
        ones += sv.measureQubit(0, rng);
    }
    EXPECT_NEAR(ones / (double)n, 0.3, 0.035);
}

TEST(StateVector, MeasureQubitsPacksBits)
{
    qsa::Rng rng(7);
    StateVector sv(3);
    sv.setBasisState(0b110);
    EXPECT_EQ(sv.measureQubits({1, 2}, rng), 0b11u);
    EXPECT_EQ(sv.measureQubits({0}, rng), 0u);
}

TEST(StateVector, PrepZResets)
{
    qsa::Rng rng(11);
    StateVector sv(2);
    sv.applyGate(gates::h(), 0);
    sv.prepZ(0, 1, rng);
    EXPECT_NEAR(sv.probabilityOne(0), 1.0, tol);
    sv.prepZ(0, 0, rng);
    EXPECT_NEAR(sv.probabilityOne(0), 0.0, tol);
}

TEST(StateVector, MarginalProbs)
{
    StateVector sv(3);
    sv.applyGate(gates::h(), 0);
    sv.applyControlled(gates::x(), {0}, 2);
    // Qubits 0 and 2 are perfectly correlated.
    const auto probs = sv.marginalProbs({0, 2});
    EXPECT_NEAR(probs[0b00], 0.5, tol);
    EXPECT_NEAR(probs[0b11], 0.5, tol);
    EXPECT_NEAR(probs[0b01], 0.0, tol);
    EXPECT_NEAR(probs[0b10], 0.0, tol);
}

TEST(StateVector, MarginalOrderMatters)
{
    StateVector sv(2);
    sv.applyGate(gates::x(), 1); // |10>
    const auto lsb_first = sv.marginalProbs({0, 1});
    const auto msb_first = sv.marginalProbs({1, 0});
    EXPECT_NEAR(lsb_first[0b10], 1.0, tol);
    EXPECT_NEAR(msb_first[0b01], 1.0, tol);
}

TEST(StateVector, MarginalMatchesThePerAmplitudeGather)
{
    // marginalProbs against the loop it replaced: extractBits per
    // nonzero amplitude, bins summed in ascending index order. The
    // sums must agree bit for bit on the identity register, permuted,
    // partial and repeated lists, and a 1-qubit state.
    const auto reference = [](const StateVector &sv,
                              const std::vector<unsigned> &qubits) {
        std::vector<double> probs(pow2(qubits.size()), 0.0);
        const auto &amps = sv.amplitudes();
        for (std::uint64_t i = 0; i < amps.size(); ++i) {
            const double p = std::norm(amps[i]);
            if (p == 0.0)
                continue;
            probs[extractBits(i, qubits)] += p;
        }
        return probs;
    };
    Rng rng(0x3a291);
    for (const unsigned n : {1u, 3u, 6u, 9u}) {
        StateVector sv(n);
        std::vector<Complex> amps(pow2(n));
        for (auto &a : amps) {
            // Some exact zeros, as a collapsed state has.
            a = rng.uniform() < 0.2
                    ? Complex(0.0, 0.0)
                    : Complex(rng.uniform() - 0.5, rng.uniform() - 0.5);
        }
        sv.setAmplitudes(amps);
        std::vector<unsigned> identity(n);
        for (unsigned q = 0; q < n; ++q)
            identity[q] = q;
        std::vector<std::vector<unsigned>> lists{identity};
        std::vector<unsigned> reversed(identity.rbegin(), identity.rend());
        lists.push_back(reversed);
        lists.push_back({n - 1});
        lists.push_back({0, n - 1, 0});
        if (n > 2) {
            lists.push_back({2, 0});
            lists.push_back({1, 2, 0});
        }
        for (const auto &qubits : lists)
            EXPECT_EQ(sv.marginalProbs(qubits), reference(sv, qubits))
                << "n=" << n << " qubits=" << qubits.size();
    }
}

TEST(StateVector, PurityProductState)
{
    StateVector sv(2);
    sv.applyGate(gates::h(), 0);
    EXPECT_NEAR(sv.subsystemPurity({0}), 1.0, tol);
    EXPECT_NEAR(sv.subsystemPurity({1}), 1.0, tol);
}

TEST(StateVector, PurityBellState)
{
    StateVector sv(2);
    sv.applyGate(gates::h(), 0);
    sv.applyControlled(gates::x(), {0}, 1);
    // Maximally entangled: each half is maximally mixed, purity 1/2.
    EXPECT_NEAR(sv.subsystemPurity({0}), 0.5, tol);
    EXPECT_NEAR(sv.subsystemPurity({1}), 0.5, tol);
}

TEST(StateVector, ReducedDensityMatrixBell)
{
    StateVector sv(2);
    sv.applyGate(gates::h(), 0);
    sv.applyControlled(gates::x(), {0}, 1);
    const CMatrix rho = sv.reducedDensityMatrix({0});
    EXPECT_NEAR(std::abs(rho.at(0, 0) - Complex(0.5)), 0.0, tol);
    EXPECT_NEAR(std::abs(rho.at(1, 1) - Complex(0.5)), 0.0, tol);
    EXPECT_NEAR(std::abs(rho.at(0, 1)), 0.0, tol);
}

TEST(StateVector, InnerProductAndFidelity)
{
    StateVector a(1), b(1);
    a.applyGate(gates::h(), 0);
    EXPECT_NEAR(std::abs(a.innerProduct(b) -
                         Complex(1.0 / std::sqrt(2.0))), 0.0, tol);
    EXPECT_NEAR(a.fidelity(b), 0.5, tol);
    EXPECT_NEAR(a.fidelity(a), 1.0, tol);
}

TEST(StateVector, GlobalPhaseInvisibleUncontrolled)
{
    // rz and phase act identically on measurement statistics when not
    // controlled...
    StateVector a(1), b(1);
    a.applyGate(gates::h(), 0);
    b.applyGate(gates::h(), 0);
    a.applyGate(gates::rz(0.7), 0);
    b.applyGate(gates::phase(0.7), 0);
    EXPECT_NEAR(a.fidelity(b), 1.0, tol);
}

TEST(StateVector, GlobalPhaseVisibleControlled)
{
    // ...but diverge once controlled (the Table 1 lesson).
    StateVector a(2), b(2);
    a.applyGate(gates::h(), 0);
    b.applyGate(gates::h(), 0);
    a.applyControlled(gates::rz(0.7), {0}, 1);
    b.applyControlled(gates::phase(0.7), {0}, 1);
    EXPECT_LT(a.fidelity(b), 1.0 - 1e-3);
}

// --- CMatrix --------------------------------------------------------------

TEST(CMatrixTest, IdentityAndMul)
{
    const CMatrix id = CMatrix::identity(4);
    CMatrix m(4);
    m.at(0, 1) = Complex(2.0);
    EXPECT_LT(m.mul(id).distance(m), tol);
    EXPECT_LT(id.mul(m).distance(m), tol);
}

TEST(CMatrixTest, KronDimensions)
{
    const CMatrix a = CMatrix::identity(2);
    const CMatrix b = CMatrix::fromMat2(gates::x());
    const CMatrix k = a.kron(b);
    EXPECT_EQ(k.dim(), 4u);
    // I (x) X maps |00> -> |01>.
    EXPECT_NEAR(std::abs(k.at(1, 0) - Complex(1.0)), 0.0, tol);
}

TEST(CMatrixTest, ControlledExpansion)
{
    const CMatrix x = CMatrix::fromMat2(gates::x());
    const CMatrix cx = x.controlled();
    EXPECT_EQ(cx.dim(), 4u);
    // Control bit is the high-order (prepended) index bit.
    EXPECT_NEAR(std::abs(cx.at(0, 0) - Complex(1.0)), 0.0, tol);
    EXPECT_NEAR(std::abs(cx.at(1, 1) - Complex(1.0)), 0.0, tol);
    EXPECT_NEAR(std::abs(cx.at(2, 3) - Complex(1.0)), 0.0, tol);
    EXPECT_NEAR(std::abs(cx.at(3, 2) - Complex(1.0)), 0.0, tol);
    EXPECT_TRUE(cx.isUnitary());
}

TEST(CMatrixTest, AdjointUnitary)
{
    const CMatrix h = CMatrix::fromMat2(gates::h());
    EXPECT_LT(h.adjoint().mul(h).distance(CMatrix::identity(2)), tol);
}

TEST(CMatrixTest, DistanceUpToPhase)
{
    const CMatrix h = CMatrix::fromMat2(gates::h());
    const CMatrix h_phased = h.scale(std::exp(Complex(0, 1.234)));
    EXPECT_GT(h.distance(h_phased), 0.1);
    EXPECT_LT(h.distanceUpToPhase(h_phased), tol);
}

TEST(TensorProduct, ComposesAmplitudesLowQubitsFirst)
{
    // |psi> = ry-rotated single qubit, |phi> = H|0>: the product
    // state's amplitude at (hi, lo) must factor exactly.
    StateVector psi(1);
    psi.applyGate(gates::ry(0.8), 0);
    StateVector phi(1);
    phi.applyGate(gates::h(), 0);

    const StateVector product = psi.tensorWith(phi);
    ASSERT_EQ(product.numQubits(), 2u);
    for (std::uint64_t hi = 0; hi < 2; ++hi) {
        for (std::uint64_t lo = 0; lo < 2; ++lo) {
            const Complex want = phi.amp(hi) * psi.amp(lo);
            EXPECT_NEAR(std::abs(product.amp((hi << 1) | lo) - want),
                        0.0, tol);
        }
    }
    EXPECT_NEAR(product.norm(), 1.0, tol);
}

TEST(TensorProduct, SwapTestIdentity)
{
    // Ground truth for the swap-test probe family: on
    // |psi> (x) |phi> (x) |0>_anc, the H / cswap / H comparator
    // leaves P(anc = 0) = (1 + |<psi|phi>|^2) / 2.
    StateVector psi(1);
    psi.applyGate(gates::ry(1.1), 0);
    psi.applyGate(gates::rz(0.6), 0);
    StateVector phi(1);
    phi.applyGate(gates::ry(1.1), 0);
    phi.applyGate(gates::phase(M_PI / 2), 0); // S-frame divergence

    StateVector anc(1);
    StateVector probe = psi.tensorWith(phi).tensorWith(anc);
    probe.applyGate(gates::h(), 2);
    probe.applyControlledSwap({2}, 0, 1);
    probe.applyGate(gates::h(), 2);

    const double want = 0.5 * (1.0 + psi.fidelity(phi));
    EXPECT_NEAR(probe.marginalProbs({2})[0], want, tol);

    // Identical halves: the ancilla never reads 1 (the pure-null
    // point mass the swap probes assert classically).
    StateVector same = psi.tensorWith(psi).tensorWith(anc);
    same.applyGate(gates::h(), 2);
    same.applyControlledSwap({2}, 0, 1);
    same.applyGate(gates::h(), 2);
    EXPECT_NEAR(same.marginalProbs({2})[1], 0.0, tol);
}

TEST(CMatrixTest, ApplyMatchesStateVector)
{
    // Build H (x) I as dense and compare against the simulator.
    const CMatrix h = CMatrix::fromMat2(gates::h());
    const CMatrix id = CMatrix::identity(2);
    const CMatrix full = h.kron(id); // qubit 1 gets H (row-major kron)

    std::vector<Complex> state{1, 0, 0, 0};
    state = full.apply(state);

    StateVector sv(2);
    sv.applyGate(gates::h(), 1);
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_NEAR(std::abs(state[i] - sv.amp(i)), 0.0, tol);
}

} // anonymous namespace
