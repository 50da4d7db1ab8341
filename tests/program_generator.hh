/**
 * @file
 * Seeded random programs for differential tests of the ensemble
 * engine: one- and two-qubit rotations and Clifford+T gates,
 * controlled gates, mid-circuit Measure of one or two qubits with
 * label reuse, PrepZ to either bit, gates and resets conditioned on
 * earlier measurements, deterministic-reset block prologues, and
 * measurement-free gate runs with dense Unitary instructions.
 */

#ifndef QSA_TESTS_PROGRAM_GENERATOR_HH
#define QSA_TESTS_PROGRAM_GENERATOR_HH

#include <complex>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "circuit/circuit.hh"
#include "common/rng.hh"
#include "sim/gates.hh"
#include "sim/matrix.hh"

namespace qsa::testgen
{

/**
 * Seeded program generator. Appends `count` random instructions on
 * qubits [lo, hi): one-qubit Clifford+T and rotations, controlled
 * gates, mid-circuit Measure of one or two qubits (labels are reused
 * now and then, exercising overwrite semantics), PrepZ to either bit,
 * and gates or resets conditioned on a label measured earlier.
 */
class ProgramGenerator
{
  public:
    ProgramGenerator(circuit::Circuit &circ, std::uint64_t seed)
        : circ(circ), rng(seed)
    {
    }

    void
    append(unsigned lo, unsigned hi, std::size_t count)
    {
        for (std::size_t i = 0; i < count; ++i)
            appendOne(lo, hi);
    }

    /**
     * As append(), but gates only — no measurement, reset or
     * condition — with dense one- and two-qubit Unitary instructions
     * mixed in: a long deterministic run.
     */
    void
    appendGates(unsigned lo, unsigned hi, std::size_t count)
    {
        for (std::size_t i = 0; i < count; ++i) {
            const unsigned q = pick(lo, hi);
            const auto kind = rng.uniformInt(12);
            if (kind < 10) {
                appendGate(kind, lo, hi, q);
            } else if (kind == 10 || hi - lo < 2) {
                circ.unitary(randomUnitary(2), {q});
            } else {
                circ.unitary(randomUnitary(4), {q, other(lo, hi, q)});
            }
        }
    }

    /** A random unitary of dimension 2 or 4 (from this stream). */
    sim::CMatrix
    randomUnitary(std::size_t dim)
    {
        const auto one = [&] {
            return sim::CMatrix::fromMat2(sim::gates::rz(angle()))
                .mul(sim::CMatrix::fromMat2(sim::gates::ry(angle())))
                .mul(sim::CMatrix::fromMat2(sim::gates::rz(angle())));
        };
        if (dim == 2)
            return one();
        sim::CMatrix entangler = sim::CMatrix::identity(4);
        entangler.at(3, 3) = std::polar(1.0, angle());
        return one().kron(one()).mul(entangler);
    }

  private:
    circuit::Circuit &circ;
    Rng rng;

    /** Labels measured so far, with their widths. */
    std::vector<std::pair<std::string, unsigned>> labels;

    unsigned
    pick(unsigned lo, unsigned hi)
    {
        return lo + static_cast<unsigned>(rng.uniformInt(hi - lo));
    }

    /** A qubit of [lo, hi) other than `q`. */
    unsigned
    other(unsigned lo, unsigned hi, unsigned q)
    {
        const unsigned r = pick(lo, hi - 1);
        return r >= q ? r + 1 : r;
    }

    double
    angle()
    {
        return 6.283185307179586 * rng.uniform();
    }

    /** Gate kinds 0-9 of appendOne on target `q`. */
    void
    appendGate(std::uint64_t kind, unsigned lo, unsigned hi, unsigned q)
    {
        switch (kind) {
          case 0: circ.h(q); break;
          case 1: circ.t(q); break;
          case 2: circ.tdg(q); break;
          case 3: circ.s(q); break;
          case 4: circ.rx(q, angle()); break;
          case 5: circ.ry(q, angle()); break;
          case 6: circ.rz(q, angle()); break;
          case 7: circ.cnot(q, other(lo, hi, q)); break;
          case 8: circ.crz(q, other(lo, hi, q), angle()); break;
          case 9: {
            if (hi - lo < 3) {
                circ.cz(q, other(lo, hi, q));
                break;
            }
            const unsigned c1 = other(lo, hi, q);
            unsigned t = pick(lo, hi);
            while (t == q || t == c1)
                t = pick(lo, hi);
            circ.ccnot(q, c1, t);
            break;
          }
        }
    }

    void
    appendOne(unsigned lo, unsigned hi)
    {
        const unsigned q = pick(lo, hi);
        switch (const auto kind = rng.uniformInt(14)) {
          case 10:
          case 11: {
            std::vector<unsigned> targets{q};
            if (rng.bernoulli(0.5))
                targets.push_back(other(lo, hi, q));
            std::string label;
            if (!labels.empty() && rng.bernoulli(0.25)) {
                label = labels[rng.uniformInt(labels.size())].first;
            } else {
                label = "m" + std::to_string(labels.size());
            }
            circ.measureQubits(targets, label);
            bool known = false;
            for (auto &[name, width] : labels) {
                if (name == label) {
                    width = static_cast<unsigned>(targets.size());
                    known = true;
                }
            }
            if (!known)
                labels.emplace_back(label,
                                    static_cast<unsigned>(targets.size()));
            break;
          }
          case 12: circ.prepZ(q, static_cast<unsigned>(rng.uniformInt(2)));
            break;
          case 13: {
            if (labels.empty()) {
                circ.h(q);
                break;
            }
            const auto &[label, width] =
                labels[rng.uniformInt(labels.size())];
            if (rng.bernoulli(0.3))
                circ.prepZ(q, 1);
            else if (rng.bernoulli(0.5))
                circ.x(q);
            else
                circ.ry(q, angle());
            circ.conditionLast(label, rng.uniformInt(1ull << width));
            break;
          }
          default:
            appendGate(kind, lo, hi, q);
            break;
        }
    }
};

/**
 * Block prologue: a reset whose outcome is certain (the engine's
 * cached head absorbs it, and each trial must skip its draw) and a
 * Hadamard, so no block starts with a measurement.
 */
inline void
prologue(circuit::Circuit &circ, unsigned q)
{
    circ.prepZ(q, 1);
    circ.h(q);
}

/** Monolithic program on `n` qubits. */
inline circuit::Circuit
monolithicProgram(std::uint64_t seed, unsigned n, std::size_t count)
{
    circuit::Circuit circ(n);
    ProgramGenerator gen(circ, seed);
    prologue(circ, 0);
    gen.append(0, n, count);
    return circ;
}

} // namespace qsa::testgen

#endif // QSA_TESTS_PROGRAM_GENERATOR_HH
