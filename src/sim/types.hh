/**
 * @file
 * Core numeric types for the state-vector simulator.
 */

#ifndef QSA_SIM_TYPES_HH
#define QSA_SIM_TYPES_HH

#include <complex>
#include <cstddef>
#include <initializer_list>
#include <vector>

namespace qsa::sim
{

/** Amplitude type used throughout the simulator. */
using Complex = std::complex<double>;

/**
 * A non-owning view of a qubit list: what the StateVector entry points
 * the executor calls take, so an instruction's inline
 * circuit::QubitList, a std::vector or a braced list reaches a kernel
 * without building a vector. It is a parameter type only: a braced
 * list's array lives until the end of the call's full expression, so
 * never keep a view past the call that received it.
 */
class QubitSpan
{
  public:
    constexpr QubitSpan() = default;

    constexpr QubitSpan(const unsigned *first, std::size_t count)
        : ptr(first), len(count)
    {
    }

    QubitSpan(const std::vector<unsigned> &qubits)
        : ptr(qubits.data()), len(qubits.size())
    {
    }

    /** A braced list, for the length of the call it is passed to
     *  (as std::span's initializer_list constructor in C++26). */
    constexpr QubitSpan(std::initializer_list<unsigned> qubits)
        : QubitSpan(qubits.begin(), qubits.size())
    {
    }

    constexpr std::size_t size() const { return len; }
    constexpr const unsigned *begin() const { return ptr; }
    constexpr const unsigned *end() const { return ptr + len; }
    constexpr unsigned operator[](std::size_t i) const { return ptr[i]; }

  private:
    const unsigned *ptr = nullptr;
    std::size_t len = 0;
};

/** A 2x2 single-qubit gate matrix, row major. */
struct Mat2
{
    Complex a00, a01;
    Complex a10, a11;
};

/** Matrix product of two single-qubit gates (lhs applied after rhs). */
Mat2 matMul(const Mat2 &lhs, const Mat2 &rhs);

/** Conjugate transpose of a single-qubit gate. */
Mat2 matAdjoint(const Mat2 &m);

/** Max-norm distance between two single-qubit gates. */
double matDistance(const Mat2 &a, const Mat2 &b);

/** True when m is unitary to within tol. */
bool matIsUnitary(const Mat2 &m, double tol = 1e-10);

/**
 * A 4x4 two-qubit gate matrix, row major. Bit 0 of the index space is
 * the kernel's first qubit argument (little endian, like basis-state
 * indices). This is the fusion target: runs of 1q/2q gates on at most
 * two qubits collapse into one Mat4 apply.
 */
struct Mat4
{
    Complex m[16];

    Complex &at(unsigned r, unsigned c) { return m[r * 4 + c]; }
    const Complex &at(unsigned r, unsigned c) const
    {
        return m[r * 4 + c];
    }
};

/** 4x4 identity. */
Mat4 mat4Identity();

/** Matrix product of two two-qubit gates (lhs applied after rhs). */
Mat4 mat4Mul(const Mat4 &lhs, const Mat4 &rhs);

/** Max-norm distance between two two-qubit gates. */
double mat4Distance(const Mat4 &a, const Mat4 &b);

/** True when m is unitary to within tol. */
bool mat4IsUnitary(const Mat4 &m, double tol = 1e-10);

} // namespace qsa::sim

#endif // QSA_SIM_TYPES_HH
