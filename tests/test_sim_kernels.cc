/**
 * @file
 * Differential tests for the state-vector kernels.
 *
 * The StateVector kernels do their complex arithmetic on local doubles
 * and give diagonal gates a scale-only path. The std::complex loops
 * they replaced are kept below (namespace `ref`, over a plain full
 * scan) as the reference: on seeded random normalized states, every
 * kernel must leave every real and imaginary part equal to the
 * reference's under == (a diagonal kernel may differ only in the sign
 * of a zero, which == ignores), and each call must add exactly what
 * the accounting contract at countGate says to sim.amp_touches.
 *
 * Every test runs once per kernel level (baseline, AVX2, AVX-512),
 * forced through sim::detail::ScopedKernelLevel; a level the host
 * lacks is skipped by name, and the suite ends with one
 * "[kernel levels] run: ...; skipped: ..." line.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "algo/shor.hh"
#include "circuit/circuit.hh"
#include "circuit/executor.hh"
#include "circuit/fusion.hh"
#include "common/bits.hh"
#include "common/rng.hh"
#include "obs/obs.hh"
#include "program_generator.hh"
#include "sim/kernel_level.hh"
#include "sim/matrix.hh"
#include "sim/statevector.hh"

namespace
{

using namespace qsa;
using circuit::GateKind;
using sim::CMatrix;
using sim::Complex;
using sim::Mat2;
using sim::Mat4;
using sim::QubitSpan;
using sim::StateVector;
using sim::detail::KernelLevel;
using sim::detail::kernelLevelName;

// --- Kernel levels -----------------------------------------------------------

/** Runs each test with its level forced; skips a level the host lacks. */
class SimKernels : public ::testing::TestWithParam<KernelLevel>
{
  protected:
    void
    SetUp() override
    {
        if (!sim::detail::hostSupports(GetParam())) {
            GTEST_SKIP() << "kernel level " << kernelLevelName(GetParam())
                         << " is not supported on this host";
        }
        forced.emplace(GetParam());
    }

  private:
    std::optional<sim::detail::ScopedKernelLevel> forced;
};

INSTANTIATE_TEST_SUITE_P(
    Levels, SimKernels, ::testing::ValuesIn(sim::detail::kKernelLevels),
    [](const ::testing::TestParamInfo<KernelLevel> &info) {
        return std::string(kernelLevelName(info.param));
    });

/** Prints which levels the suite ran and which it skipped. */
class LevelReport : public ::testing::Environment
{
  public:
    void
    TearDown() override
    {
        std::string run, skipped;
        for (KernelLevel level : sim::detail::kKernelLevels) {
            std::string &list =
                sim::detail::hostSupports(level) ? run : skipped;
            list += std::string(list.empty() ? "" : " ") +
                    kernelLevelName(level);
        }
        std::cout << "[kernel levels] run: " << run
                  << "; skipped: " << (skipped.empty() ? "none" : skipped)
                  << std::endl;
    }
};

[[maybe_unused]] const ::testing::Environment *const kLevelReport =
    ::testing::AddGlobalTestEnvironment(new LevelReport);

TEST(KernelLevels, HostLevelIsTheWidestSupported)
{
    using sim::detail::hostKernelLevel;
    using sim::detail::hostSupports;
    EXPECT_TRUE(hostSupports(KernelLevel::Baseline));
    EXPECT_TRUE(hostSupports(hostKernelLevel()));
    for (KernelLevel level : sim::detail::kKernelLevels) {
        if (level > hostKernelLevel()) {
            EXPECT_FALSE(hostSupports(level)) << kernelLevelName(level);
        }
    }
    EXPECT_EQ(sim::detail::activeKernelLevel(), hostKernelLevel());
}

TEST(KernelLevels, GuardForcesAndRestoresTheLevel)
{
    const KernelLevel host = sim::detail::hostKernelLevel();
    for (KernelLevel level : sim::detail::kKernelLevels) {
        if (!sim::detail::hostSupports(level)) {
            EXPECT_THROW(sim::detail::ScopedKernelLevel{level},
                         std::invalid_argument)
                << kernelLevelName(level);
            EXPECT_EQ(sim::detail::activeKernelLevel(), host);
            continue;
        }
        {
            const sim::detail::ScopedKernelLevel outer(level);
            EXPECT_EQ(sim::detail::activeKernelLevel(), level);
            {
                const sim::detail::ScopedKernelLevel inner(
                    KernelLevel::Baseline);
                EXPECT_EQ(sim::detail::activeKernelLevel(),
                          KernelLevel::Baseline);
            }
            EXPECT_EQ(sim::detail::activeKernelLevel(), level);
        }
        EXPECT_EQ(sim::detail::activeKernelLevel(), host);
    }
}

/** Random states per kernel test. */
constexpr unsigned kTrials = 120;

// --- Reference kernels: the std::complex loops the kernels replaced --------

namespace ref
{

/** Bit mask of a qubit list. */
std::uint64_t
maskOf(QubitSpan qubits)
{
    std::uint64_t mask = 0;
    for (unsigned q : qubits)
        mask |= pow2(q);
    return mask;
}

void
applyControlled(std::vector<Complex> &amps, const Mat2 &gate,
                QubitSpan controls, unsigned target)
{
    const std::uint64_t cmask = maskOf(controls);
    const std::uint64_t tmask = pow2(target);
    for (std::uint64_t i0 = 0; i0 < amps.size(); ++i0) {
        if ((i0 & tmask) || (i0 & cmask) != cmask)
            continue;
        const std::uint64_t i1 = i0 | tmask;
        const Complex a0 = amps[i0];
        const Complex a1 = amps[i1];
        amps[i0] = gate.a00 * a0 + gate.a01 * a1;
        amps[i1] = gate.a10 * a0 + gate.a11 * a1;
    }
}

void
applyControlledTwoQubit(std::vector<Complex> &amps, const Mat4 &u,
                        QubitSpan controls, unsigned q0, unsigned q1)
{
    const std::uint64_t cmask = maskOf(controls);
    const std::uint64_t m0 = pow2(q0);
    const std::uint64_t m1 = pow2(q1);
    for (std::uint64_t base = 0; base < amps.size(); ++base) {
        if ((base & (m0 | m1)) || (base & cmask) != cmask)
            continue;
        const std::uint64_t idx[4] = {base, base | m0, base | m1,
                                      base | m0 | m1};
        const Complex a0 = amps[idx[0]];
        const Complex a1 = amps[idx[1]];
        const Complex a2 = amps[idx[2]];
        const Complex a3 = amps[idx[3]];
        for (unsigned r = 0; r < 4; ++r) {
            amps[idx[r]] = u.at(r, 0) * a0 + u.at(r, 1) * a1 +
                           u.at(r, 2) * a2 + u.at(r, 3) * a3;
        }
    }
}

void
applyControlledSwap(std::vector<Complex> &amps, QubitSpan controls,
                    unsigned q0, unsigned q1)
{
    const std::uint64_t cmask = maskOf(controls);
    const std::uint64_t m0 = pow2(q0);
    const std::uint64_t m1 = pow2(q1);
    for (std::uint64_t base = 0; base < amps.size(); ++base) {
        if ((base & (m0 | m1)) || (base & cmask) != cmask)
            continue;
        std::swap(amps[base | m0], amps[base | m1]);
    }
}

/** Dispatches 1q/2q matrices like StateVector::applyControlledUnitary. */
void
applyControlledUnitary(std::vector<Complex> &amps, const CMatrix &u,
                       QubitSpan controls, QubitSpan qubit_span)
{
    const std::vector<unsigned> qubits(qubit_span.begin(),
                                       qubit_span.end());
    const unsigned k = qubits.size();
    if (k == 1) {
        applyControlled(amps,
                        Mat2{u.at(0, 0), u.at(0, 1), u.at(1, 0),
                             u.at(1, 1)},
                        controls, qubits[0]);
        return;
    }
    if (k == 2) {
        Mat4 dense;
        for (unsigned r = 0; r < 4; ++r)
            for (unsigned c = 0; c < 4; ++c)
                dense.at(r, c) = u.at(r, c);
        applyControlledTwoQubit(amps, dense, controls, qubits[0],
                                qubits[1]);
        return;
    }
    const std::uint64_t cmask = maskOf(controls);
    const std::uint64_t qmask = maskOf(qubits);
    const std::uint64_t sub = pow2(k);
    std::vector<Complex> in(sub), out(sub);
    for (std::uint64_t base = 0; base < amps.size(); ++base) {
        if ((base & qmask) || (base & cmask) != cmask)
            continue;
        for (std::uint64_t v = 0; v < sub; ++v)
            in[v] = amps[depositBits(base, qubits, v)];
        for (std::uint64_t r = 0; r < sub; ++r) {
            Complex acc(0.0);
            for (std::uint64_t c = 0; c < sub; ++c)
                acc += u.at(r, c) * in[c];
            out[r] = acc;
        }
        for (std::uint64_t v = 0; v < sub; ++v)
            amps[depositBits(base, qubits, v)] = out[v];
    }
}

/** |low> (x) |high>, low qubits first. */
std::vector<Complex>
tensor(const std::vector<Complex> &low, unsigned low_qubits,
       const std::vector<Complex> &high)
{
    std::vector<Complex> product(low.size() * high.size(), Complex(0.0));
    for (std::uint64_t hi = 0; hi < high.size(); ++hi) {
        const Complex scale = high[hi];
        if (scale == Complex(0.0))
            continue;
        const std::uint64_t base = hi << low_qubits;
        for (std::uint64_t lo = 0; lo < low.size(); ++lo)
            product[base | lo] = scale * low[lo];
    }
    return product;
}

void
collapse(std::vector<Complex> &amps, unsigned qubit, unsigned value,
         double prob)
{
    const std::uint64_t mask = pow2(qubit);
    const double scale = 1.0 / std::sqrt(prob);
    for (std::uint64_t i = 0; i < amps.size(); ++i) {
        const bool bit = (i & mask) != 0;
        if (bit != static_cast<bool>(value))
            amps[i] = Complex(0.0);
        else
            amps[i] *= scale;
    }
}

/**
 * One instruction, as circuit::stepInstruction runs it, with the
 * unitary kinds on the reference kernels. Measure and PrepZ are not
 * under test here: they run through a StateVector holding the
 * reference amplitudes, drawing from the reference side's own Rng.
 */
void
step(const circuit::Circuit &circ, const circuit::Instruction &inst,
     std::vector<Complex> &amps,
     std::map<std::string, std::uint64_t> &measurements, Rng &rng)
{
    if (!inst.condLabel.empty() &&
        measurements.at(inst.condLabel) != inst.condValue)
        return;
    switch (inst.kind) {
      case GateKind::Measure:
      case GateKind::PrepZ: {
        StateVector state(circ.numQubits());
        state.setAmplitudes(std::move(amps));
        if (inst.kind == GateKind::Measure)
            measurements[inst.label] =
                state.measureQubits(inst.targets, rng);
        else
            state.prepZ(inst.targets[0], inst.bit, rng);
        amps = state.amplitudes();
        break;
      }
      case GateKind::Breakpoint:
        break;
      case GateKind::Swap:
        applyControlledSwap(amps, inst.controls, inst.targets[0],
                            inst.targets[1]);
        break;
      case GateKind::Unitary:
        applyControlledUnitary(amps, circ.matrix(inst.matrixId),
                               inst.controls, inst.targets);
        break;
      default:
        applyControlled(amps, circuit::gateMatrix1q(inst),
                        inst.controls, inst.targets[0]);
        break;
    }
}

} // namespace ref

// --- Helpers -----------------------------------------------------------------

/** Every real and imaginary part equal under ==. */
::testing::AssertionResult
sameAmplitudes(const std::vector<Complex> &got,
               const std::vector<Complex> &want)
{
    if (got.size() != want.size())
        return ::testing::AssertionFailure()
               << "dimension " << got.size() << " vs " << want.size();
    for (std::size_t i = 0; i < got.size(); ++i) {
        if (got[i].real() != want[i].real() ||
            got[i].imag() != want[i].imag()) {
            return ::testing::AssertionFailure()
                   << std::setprecision(17) << "amplitude " << i
                   << ": kernel " << got[i] << ", reference " << want[i];
        }
    }
    return ::testing::AssertionSuccess();
}

/** sim.amp_touches so far (0 in a QSA_OBS=OFF build). */
std::int64_t
ampTouches()
{
    for (const auto &[name, value] : obs::Registry::snapshot())
        if (name == "sim.amp_touches")
            return value;
    return 0;
}

/** A random normalized state on n qubits. */
std::vector<Complex>
randomState(unsigned n, Rng &rng)
{
    std::vector<Complex> amps(pow2(n));
    double norm = 0.0;
    for (Complex &a : amps) {
        a = Complex(2.0 * rng.uniform() - 1.0, 2.0 * rng.uniform() - 1.0);
        norm += std::norm(a);
    }
    const double scale = 1.0 / std::sqrt(norm);
    for (Complex &a : amps)
        a *= scale;
    return amps;
}

/** `count` distinct qubits out of n, in random order. */
std::vector<unsigned>
pickQubits(unsigned n, unsigned count, Rng &rng)
{
    std::vector<unsigned> all(n);
    for (unsigned q = 0; q < n; ++q)
        all[q] = q;
    for (unsigned i = 0; i < count; ++i)
        std::swap(all[i], all[i + rng.uniformInt(n - i)]);
    all.resize(count);
    return all;
}

/** A uniformly random angle in [-2π, 2π). */
double
randomAngle(Rng &rng)
{
    return (4.0 * rng.uniform() - 2.0) * M_PI;
}

/** A random entry with parts in [-1, 1). */
Complex
randomEntry(Rng &rng)
{
    return Complex(2.0 * rng.uniform() - 1.0, 2.0 * rng.uniform() - 1.0);
}

bool
isZero(const Complex &c)
{
    return c.real() == 0.0 && c.imag() == 0.0;
}

bool
isOne(const Complex &c)
{
    return c.real() == 1.0 && c.imag() == 0.0;
}

/*
 * Expected sim.amp_touches per the contract at countGate: a dense
 * kernel touches every slot of every participating pair or coset; a
 * diagonal one (every off-diagonal exactly zero) only the slot classes
 * whose diagonal entry is not exactly 1+0i.
 */

std::uint64_t
mat2Touches(const Mat2 &g, unsigned n, unsigned controls)
{
    const std::uint64_t pairs = pow2(n - controls - 1);
    if (!isZero(g.a01) || !isZero(g.a10))
        return 2 * pairs;
    return pairs * (!isOne(g.a00) + !isOne(g.a11));
}

std::uint64_t
mat4Touches(const Mat4 &u, unsigned n, unsigned controls)
{
    const std::uint64_t cosets = pow2(n - controls - 2);
    std::uint64_t scaled = 0;
    for (unsigned r = 0; r < 4; ++r) {
        for (unsigned c = 0; c < 4; ++c)
            if (r != c && !isZero(u.at(r, c)))
                return 4 * cosets;
        scaled += !isOne(u.at(r, r));
    }
    return cosets * scaled;
}

/**
 * Run `kernel` on a StateVector holding `state` and `reference` on a
 * copy of it; require equal amplitudes and, in an instrumented build,
 * a sim.amp_touches delta of `touches`.
 */
template <typename Kernel, typename Reference>
void
checkKernel(unsigned n, const std::vector<Complex> &state,
            Kernel &&kernel, Reference &&reference, std::uint64_t touches,
            const std::string &what)
{
    StateVector subject(n);
    subject.setAmplitudes(state);
    std::vector<Complex> want = state;
    const std::int64_t before = ampTouches();
    kernel(subject);
    const std::int64_t delta = ampTouches() - before;
    reference(want);
    EXPECT_TRUE(sameAmplitudes(subject.amplitudes(), want)) << what;
#if QSA_OBS_ENABLED
    EXPECT_EQ(delta, static_cast<std::int64_t>(touches)) << what;
#else
    (void)delta;
    (void)touches;
#endif
}

/** "what" line for failure messages. */
std::string
describe(const std::string &kernel, unsigned n,
         const std::vector<unsigned> &controls,
         const std::vector<unsigned> &targets)
{
    std::ostringstream os;
    os << kernel << " on " << n << " qubits, targets";
    for (unsigned q : targets)
        os << ' ' << q;
    os << ", controls";
    for (unsigned q : controls)
        os << ' ' << q;
    return os.str();
}

/** The matrix structure classes the kernels distinguish. */
enum class MatClass
{
    Dense,      ///< random entries everywhere
    NearDiag,   ///< diagonal plus one nonzero off-diagonal
    Diagonal,   ///< random phases on the diagonal
    IdentityMix ///< diagonal mixing exact 1s, phases and 1+bi
};

const std::pair<MatClass, const char *> kMatClasses[] = {
    {MatClass::Dense, "dense"},
    {MatClass::NearDiag, "near-diagonal"},
    {MatClass::Diagonal, "diagonal"},
    {MatClass::IdentityMix, "identity-entry"},
};

/** A random dim x dim matrix of the given class, row major. */
std::vector<Complex>
randomMatrix(unsigned dim, MatClass cls, Rng &rng)
{
    std::vector<Complex> m(dim * dim, Complex(0.0));
    if (cls == MatClass::Dense) {
        for (Complex &e : m)
            e = randomEntry(rng);
        return m;
    }
    for (unsigned r = 0; r < dim; ++r)
        m[r * dim + r] = std::polar(1.0, randomAngle(rng));
    if (cls == MatClass::NearDiag) {
        const unsigned r = rng.uniformInt(dim);
        const unsigned c = (r + 1 + rng.uniformInt(dim - 1)) % dim;
        m[r * dim + c] = randomEntry(rng);
    } else if (cls == MatClass::IdentityMix) {
        for (unsigned r = 0; r < dim; ++r) {
            switch (rng.uniformInt(3)) {
              case 0:
                m[r * dim + r] = 1.0;
                break;
              case 1:
                m[r * dim + r] = Complex(1.0, randomAngle(rng));
                break;
              default:
                break;
            }
        }
    }
    return m;
}

// --- Kernel tests ------------------------------------------------------------

TEST_P(SimKernels, EveryOneQubitKindMatchesReference)
{
    const GateKind kinds[] = {
        GateKind::H,  GateKind::X,   GateKind::Y,  GateKind::Z,
        GateKind::S,  GateKind::Sdg, GateKind::T,  GateKind::Tdg,
        GateKind::Rx, GateKind::Ry,  GateKind::Rz, GateKind::Phase,
    };
    Rng rng(0x51a1);
    for (unsigned trial = 0; trial < kTrials; ++trial) {
        const unsigned n = 1 + trial % 10;
        const auto state = randomState(n, rng);
        for (GateKind kind : kinds) {
            const unsigned nc = rng.uniformInt(std::min(3u, n - 1) + 1);
            const auto qubits = pickQubits(n, 1 + nc, rng);
            const unsigned target = qubits[0];
            const std::vector<unsigned> controls(qubits.begin() + 1,
                                                 qubits.end());
            circuit::Instruction inst;
            inst.kind = kind;
            inst.angle = randomAngle(rng);
            const Mat2 gate = circuit::gateMatrix1q(inst);
            checkKernel(
                n, state,
                [&](StateVector &sv) {
                    if (controls.empty())
                        sv.applyGate(gate, target);
                    else
                        sv.applyControlled(gate, controls, target);
                },
                [&](std::vector<Complex> &amps) {
                    ref::applyControlled(amps, gate, controls, target);
                },
                mat2Touches(gate, n, nc),
                describe(circuit::gateKindName(kind), n, controls,
                         {target}));
        }
    }
}

TEST_P(SimKernels, RandomMat2sMatchReference)
{
    // Every dense 1q kind has a real or zero a00, so the kinds alone
    // cannot tell apart sums that differ only in how a00's products
    // associate.
    Rng rng(0x3a72);
    for (unsigned trial = 0; trial < kTrials; ++trial) {
        const unsigned n = 1 + trial % 14;
        const auto state = randomState(n, rng);
        for (const auto &[cls, name] : kMatClasses) {
            const unsigned nc = rng.uniformInt(std::min(3u, n - 1) + 1);
            const auto qubits = pickQubits(n, 1 + nc, rng);
            const std::vector<unsigned> controls(qubits.begin() + 1,
                                                 qubits.end());
            const auto m = randomMatrix(2, cls, rng);
            const Mat2 gate{m[0], m[1], m[2], m[3]};
            // Alternate with the fused-block route through
            // applyControlledUnitary.
            CMatrix dense(2);
            for (unsigned e = 0; e < 4; ++e)
                dense.at(e / 2, e % 2) = m[e];
            checkKernel(
                n, state,
                [&](StateVector &sv) {
                    if (trial % 2 == 1)
                        sv.applyControlledUnitary(dense, controls,
                                                  {qubits[0]});
                    else
                        sv.applyControlled(gate, controls, qubits[0]);
                },
                [&](std::vector<Complex> &amps) {
                    ref::applyControlled(amps, gate, controls, qubits[0]);
                },
                mat2Touches(gate, n, nc),
                describe(std::string(name) + " Mat2", n, controls,
                         {qubits[0]}));
        }
    }
}

TEST_P(SimKernels, DiagonalEdgeCasesMatchReference)
{
    // Entries on the boundary of the diagonal class: exact identity
    // (nothing touched), a real part of 1 with a nonzero imaginary
    // part (must be scaled), a negative zero (counts as zero/one), and
    // one nonzero off-diagonal (dense).
    const std::vector<Mat2> gates = {
        {1.0, 0.0, 0.0, 1.0},
        {Complex(1.0, 0.25), 0.0, 0.0, 1.0},
        {1.0, 0.0, 0.0, Complex(1.0, -1e-300)},
        {Complex(1.0, -0.0), Complex(-0.0, 0.0), 0.0, -1.0},
        {-1.0, 0.0, 0.0, Complex(0.0, 1.0)},
        {1.0, 0.0, Complex(0.5, 0.5), 1.0},
        {1.0, Complex(0.0, 1e-300), 0.0, 1.0},
    };
    Rng rng(0xd1a6);
    for (unsigned trial = 0; trial < kTrials; ++trial) {
        const unsigned n = 1 + trial % 10;
        const auto state = randomState(n, rng);
        for (std::size_t g = 0; g < gates.size(); ++g) {
            const unsigned nc = rng.uniformInt(std::min(3u, n - 1) + 1);
            const auto qubits = pickQubits(n, 1 + nc, rng);
            const std::vector<unsigned> controls(qubits.begin() + 1,
                                                 qubits.end());
            checkKernel(
                n, state,
                [&](StateVector &sv) {
                    sv.applyControlled(gates[g], controls, qubits[0]);
                },
                [&](std::vector<Complex> &amps) {
                    ref::applyControlled(amps, gates[g], controls,
                                         qubits[0]);
                },
                mat2Touches(gates[g], n, nc),
                describe("edge-case Mat2 #" + std::to_string(g), n,
                         controls, {qubits[0]}));
        }
    }
}

TEST_P(SimKernels, TwoQubitMatricesMatchReference)
{
    Rng rng(0x4a74);
    for (unsigned trial = 0; trial < kTrials; ++trial) {
        const unsigned n = 2 + trial % 13;
        const auto state = randomState(n, rng);
        for (const auto &[cls, name] : kMatClasses) {
            const unsigned nc = rng.uniformInt(std::min(2u, n - 2) + 1);
            const auto qubits = pickQubits(n, 2 + nc, rng);
            const std::vector<unsigned> controls(qubits.begin() + 2,
                                                 qubits.end());
            const auto m = randomMatrix(4, cls, rng);
            Mat4 u;
            CMatrix dense(4);
            for (unsigned e = 0; e < 16; ++e) {
                u.m[e] = m[e];
                dense.at(e / 4, e % 4) = m[e];
            }
            // Alternate with the fused-block route through
            // applyControlledUnitary.
            const bool via_unitary = trial % 2 == 1;
            checkKernel(
                n, state,
                [&](StateVector &sv) {
                    if (via_unitary)
                        sv.applyControlledUnitary(dense, controls,
                                                  {qubits[0], qubits[1]});
                    else if (controls.empty())
                        sv.applyTwoQubit(u, qubits[0], qubits[1]);
                    else
                        sv.applyControlledTwoQubit(u, controls, qubits[0],
                                                   qubits[1]);
                },
                [&](std::vector<Complex> &amps) {
                    ref::applyControlledTwoQubit(amps, u, controls,
                                                 qubits[0], qubits[1]);
                },
                mat4Touches(u, n, nc),
                describe(std::string(name) + " Mat4", n, controls,
                         {qubits[0], qubits[1]}));
        }
    }
}

TEST_P(SimKernels, SwapAndControlledSwapMatchReference)
{
    Rng rng(0x5a4b);
    for (unsigned trial = 0; trial < kTrials; ++trial) {
        const unsigned n = 2 + trial % 9;
        const auto state = randomState(n, rng);
        const unsigned nc = rng.uniformInt(std::min(2u, n - 2) + 1);
        const auto qubits = pickQubits(n, 2 + nc, rng);
        const std::vector<unsigned> controls(qubits.begin() + 2,
                                             qubits.end());
        checkKernel(
            n, state,
            [&](StateVector &sv) {
                if (controls.empty())
                    sv.applySwap(qubits[0], qubits[1]);
                else
                    sv.applyControlledSwap(controls, qubits[0], qubits[1]);
            },
            [&](std::vector<Complex> &amps) {
                ref::applyControlledSwap(amps, controls, qubits[0],
                                         qubits[1]);
            },
            2 * pow2(n - nc - 2),
            describe(controls.empty() ? "swap" : "cswap", n, controls,
                     {qubits[0], qubits[1]}));
    }
}

TEST_P(SimKernels, ThreeQubitUnitaryMatchesReference)
{
    Rng rng(0x3b17);
    for (unsigned trial = 0; trial < kTrials; ++trial) {
        const unsigned n = 3 + trial % 8;
        const auto state = randomState(n, rng);
        const unsigned nc = rng.uniformInt(std::min(2u, n - 3) + 1);
        const auto qubits = pickQubits(n, 3 + nc, rng);
        const std::vector<unsigned> targets(qubits.begin(),
                                            qubits.begin() + 3);
        const std::vector<unsigned> controls(qubits.begin() + 3,
                                             qubits.end());
        CMatrix u(8);
        for (unsigned r = 0; r < 8; ++r)
            for (unsigned c = 0; c < 8; ++c)
                u.at(r, c) = randomEntry(rng);
        checkKernel(
            n, state,
            [&](StateVector &sv) {
                sv.applyControlledUnitary(u, controls, targets);
            },
            [&](std::vector<Complex> &amps) {
                ref::applyControlledUnitary(amps, u, controls, targets);
            },
            8 * pow2(n - nc - 3),
            describe("3-qubit Unitary", n, controls, targets));
    }
}

TEST_P(SimKernels, TensorWithMatchesReference)
{
    Rng rng(0x7e50);
    for (unsigned trial = 0; trial < kTrials; ++trial) {
        const unsigned low_n = 1 + trial % 5;
        const unsigned high_n = 1 + (trial / 5) % 5;
        const auto low = randomState(low_n, rng);
        auto high = randomState(high_n, rng);
        // Zero amplitudes in the high factor take the skip path.
        for (Complex &a : high)
            if (rng.uniformInt(4) == 0)
                a = Complex(0.0);
        StateVector low_sv(low_n), high_sv(high_n);
        low_sv.setAmplitudes(low);
        high_sv.setAmplitudes(high);
        const std::int64_t before = ampTouches();
        const StateVector product = low_sv.tensorWith(high_sv);
        EXPECT_EQ(ampTouches(), before);
        EXPECT_EQ(product.numQubits(), low_n + high_n);
        EXPECT_TRUE(sameAmplitudes(product.amplitudes(),
                                   ref::tensor(low, low_n, high)))
            << low_n << " (x) " << high_n << " qubits";
    }
}

TEST_P(SimKernels, CollapseMatchesReference)
{
    Rng rng(0xc011);
    for (unsigned trial = 0; trial < kTrials; ++trial) {
        const unsigned n = 1 + trial % 10;
        const auto state = randomState(n, rng);
        const unsigned qubit = rng.uniformInt(n);
        StateVector probe(n);
        probe.setAmplitudes(state);
        const double p1 = probe.probabilityOne(qubit);

        // projectQubit onto a chosen outcome.
        const unsigned value = rng.uniformInt(2);
        const double prob = value ? p1 : 1.0 - p1;
        checkKernel(
            n, state,
            [&](StateVector &sv) { sv.projectQubit(qubit, value, prob); },
            [&](std::vector<Complex> &amps) {
                ref::collapse(amps, qubit, value, prob);
            },
            0, describe("projectQubit", n, {}, {qubit}));

        // measureQubit: the same draw on both sides.
        const std::uint64_t seed = rng.next();
        Rng draw(seed);
        Rng ref_draw(seed);
        unsigned outcome = 2;
        unsigned ref_outcome = 2;
        checkKernel(
            n, state,
            [&](StateVector &sv) { outcome = sv.measureQubit(qubit, draw); },
            [&](std::vector<Complex> &amps) {
                ref_outcome = ref_draw.bernoulli(p1) ? 1 : 0;
                ref::collapse(amps, qubit, ref_outcome,
                              ref_outcome ? p1 : 1.0 - p1);
            },
            0, describe("measureQubit", n, {}, {qubit}));
        EXPECT_EQ(outcome, ref_outcome);
    }
}

// --- Layouts the wide kernels distinguish -----------------------------------
//
// A wide body takes a sweep when the run below the lowest reserved bit
// holds a vector (2 slots for AVX2, 4 for AVX-512), or, for a diagonal
// sweep, when bit 0 is reserved and the next reserved bit leaves a
// block of at least one vector, where it stores only the slots whose
// bit 0 matches. The tests below walk those gates' edges.

/** Check one controlled Mat2 on a fresh random state. */
void
checkMat2(unsigned n, const Mat2 &gate,
          const std::vector<unsigned> &controls, unsigned target, Rng &rng,
          const std::string &what)
{
    checkKernel(
        n, randomState(n, rng),
        [&](StateVector &sv) { sv.applyControlled(gate, controls, target); },
        [&](std::vector<Complex> &amps) {
            ref::applyControlled(amps, gate, controls, target);
        },
        mat2Touches(gate, n, controls.size()),
        describe(what, n, controls, {target}));
}

TEST_P(SimKernels, EveryReservedLayoutMatchesReference)
{
    // Every target and every set of at most two controls on 1-7
    // qubits: the lowest reserved bit sits at each of qubits 0-6 with
    // the next one at every distance above it, and the 1-3-qubit
    // states are smaller than one AVX-512 vector.
    Rng rng(0x1a70);
    for (unsigned n = 1; n <= 7; ++n) {
        for (unsigned target = 0; target < n; ++target) {
            for (std::uint64_t cmask = 0; cmask < pow2(n); ++cmask) {
                if ((cmask & pow2(target)) || popcount64(cmask) > 2)
                    continue;
                std::vector<unsigned> controls;
                for (unsigned q = 0; q < n; ++q)
                    if (cmask & pow2(q))
                        controls.push_back(q);
                for (const auto &[cls, name] : kMatClasses) {
                    const auto m = randomMatrix(2, cls, rng);
                    checkMat2(n, Mat2{m[0], m[1], m[2], m[3]}, controls,
                              target, rng, std::string(name) + " Mat2");
                }
            }
        }
    }
}

TEST_P(SimKernels, ControlOnQubitZeroUnderHighTarget)
{
    // Controlled phases on a qubit-0 control (set bit 0 is 1), and
    // diagonals on target 0 under a high control (set bit 0 is 0 for
    // the |0> entry and 1 for the |1> entry), up to 14 qubits.
    Rng rng(0xc0b0);
    for (unsigned n = 2; n <= 14; ++n) {
        const unsigned high = n - 1;
        const Complex phase = std::polar(1.0, randomAngle(rng));
        checkMat2(n, Mat2{1.0, 0.0, 0.0, phase}, {0}, high, rng,
                  "controlled phase");
        checkMat2(n, Mat2{phase, 0.0, 0.0, 1.0}, {0}, high, rng,
                  "controlled |0>-phase");
        const auto dense = randomMatrix(2, MatClass::Dense, rng);
        checkMat2(n, Mat2{dense[0], dense[1], dense[2], dense[3]}, {0},
                  high, rng, "dense Mat2");
        checkMat2(n, Mat2{phase, 0.0, 0.0, 1.0}, {high}, 0, rng,
                  "|0>-phase on qubit 0");
        checkMat2(n, Mat2{1.0, 0.0, 0.0, phase}, {high}, 0, rng,
                  "phase on qubit 0");
        if (n < 3)
            continue;
        const auto diag = randomMatrix(2, MatClass::Diagonal, rng);
        checkMat2(n, Mat2{diag[0], 0.0, 0.0, diag[3]}, {1, high}, 0, rng,
                  "diagonal on qubit 0");
    }
}

// --- Whole programs ----------------------------------------------------------

/**
 * Step `circ` through the library executor and through ref::step side
 * by side, comparing every amplitude after every instruction.
 */
void
stepInLockstep(const circuit::Circuit &circ, std::uint64_t seed)
{
    StateVector subject(circ.numQubits());
    std::map<std::string, std::uint64_t> measurements;
    Rng rng(seed);
    std::vector<Complex> reference = subject.amplitudes();
    std::map<std::string, std::uint64_t> ref_measurements;
    Rng ref_rng(seed);
    for (std::size_t i = 0; i < circ.size(); ++i) {
        const circuit::Instruction &inst = circ.instructions()[i];
        circuit::stepInstruction(circ, inst, subject, measurements, rng);
        ref::step(circ, inst, reference, ref_measurements, ref_rng);
        ASSERT_TRUE(sameAmplitudes(subject.amplitudes(), reference))
            << "after instruction " << i << " ("
            << circuit::gateKindName(inst.kind) << ")";
    }
    EXPECT_EQ(measurements, ref_measurements);
}

TEST_P(SimKernels, ShorProgramStepsIdentically)
{
    const auto prog = algo::buildShorProgram(algo::ShorConfig());
    ASSERT_EQ(prog.circuit.numQubits(), 13u);
    stepInLockstep(prog.circuit, 0x5407);
}

TEST_P(SimKernels, FusedShorProgramStepsIdentically)
{
    const auto prog = algo::buildShorProgram(algo::ShorConfig());
    const circuit::Circuit fused = circuit::fuseGates(prog.circuit);
    ASSERT_LT(fused.size(), prog.circuit.size());
    stepInLockstep(fused, 0x5407);
}

TEST_P(SimKernels, GeneratedProgramsStepIdentically)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        const unsigned n = 2 + seed % 9;
        stepInLockstep(testgen::monolithicProgram(seed, n, 80), seed);
        circuit::Circuit gates(n);
        testgen::ProgramGenerator(gates, seed).appendGates(0, n, 80);
        stepInLockstep(gates, seed);
    }
}

} // anonymous namespace
