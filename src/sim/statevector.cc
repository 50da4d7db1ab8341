/**
 * @file
 * State-vector simulator implementation.
 */

#include "sim/statevector.hh"

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/bits.hh"
#include "common/logging.hh"
#include "obs/obs.hh"
#include "sim/kernel_level.hh"

// The wide kernel bodies need x86-64 and a compiler with per-function
// target attributes; anywhere else only the baseline level exists.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define QSA_WIDE_KERNELS 1
#include <immintrin.h>
#define QSA_TARGET_AVX2 __attribute__((target("avx2")))
#define QSA_TARGET_AVX512 __attribute__((target("avx512f")))
#else
#define QSA_WIDE_KERNELS 0
#endif

namespace qsa::sim
{

namespace detail
{

const char *
kernelLevelName(KernelLevel level)
{
    switch (level) {
      case KernelLevel::Avx2:
        return "avx2";
      case KernelLevel::Avx512:
        return "avx512";
      case KernelLevel::Baseline:
        break;
    }
    return "baseline";
}

bool
hostSupports(KernelLevel level)
{
#if QSA_WIDE_KERNELS
    static const bool avx2 = (__builtin_cpu_init(),
                              __builtin_cpu_supports("avx2") != 0);
    static const bool avx512 = __builtin_cpu_supports("avx512f") != 0;
    switch (level) {
      case KernelLevel::Avx2:
        return avx2;
      case KernelLevel::Avx512:
        return avx512;
      case KernelLevel::Baseline:
        break;
    }
#endif
    return level == KernelLevel::Baseline;
}

KernelLevel
hostKernelLevel()
{
    static const KernelLevel host =
        hostSupports(KernelLevel::Avx512) ? KernelLevel::Avx512
        : hostSupports(KernelLevel::Avx2) ? KernelLevel::Avx2
                                          : KernelLevel::Baseline;
    return host;
}

namespace
{
std::atomic<KernelLevel> &
levelSlot()
{
    static std::atomic<KernelLevel> slot{hostKernelLevel()};
    return slot;
}
} // anonymous namespace

KernelLevel
activeKernelLevel()
{
    return levelSlot().load(std::memory_order_relaxed);
}

ScopedKernelLevel::ScopedKernelLevel(KernelLevel level)
    : previous(activeKernelLevel())
{
    if (!hostSupports(level)) {
        throw std::invalid_argument(
            std::string("kernel level ") + kernelLevelName(level) +
            " is not supported on this host");
    }
    levelSlot().store(level, std::memory_order_relaxed);
}

ScopedKernelLevel::~ScopedKernelLevel()
{
    levelSlot().store(previous, std::memory_order_relaxed);
}

} // namespace detail

namespace
{

using detail::KernelLevel;

/**
 * One bookkeeping call per kernel invocation (never per amplitude):
 * gate applications and the amplitudes they sweep are the paper's
 * simulated-work currency, so every apply* kernel reports here.
 *
 * Accounting contract: `amps_touched` is the number of amplitude slots
 * the kernel actually reads/writes, each slot counted once — d for an
 * uncontrolled 1q gate, d/2^|c| for a controlled one (2 slots per
 * participating pair), d/2^(|c|+1) for a controlled swap. Diagonal
 * kernels count only the slots they scale: an entry that is exactly
 * 1+0i leaves its slots untouched, so controlled-Z counts d/2^(|c|+1)
 * and a diagonal Mat4 counts one slot per coset for each entry that
 * is not 1. Kernels that dispatch to another public kernel must not
 * double-count.
 */
inline void
countGate(std::uint64_t amps_touched)
{
#if QSA_OBS_ENABLED
    static const obs::Counter &applies =
        obs::Registry::counter("sim.gate_applies");
    static const obs::Counter &touches =
        obs::Registry::counter("sim.amp_touches");
    obs::Counter::addTwo(applies, 1, touches, amps_touched);
#else
    (void)amps_touched;
#endif
}

/**
 * Decompose a reserved-bit mask into ascending single-bit masks for
 * expandIndex. Returns the number of reserved bits.
 */
inline unsigned
splitMask(std::uint64_t reserved, std::uint64_t *masks)
{
    unsigned k = 0;
    while (reserved) {
        const std::uint64_t low = reserved & (~reserved + 1);
        masks[k++] = low;
        reserved &= reserved - 1;
    }
    return k;
}

/**
 * Compact-index expansion: spread the bits of `i` across the positions
 * NOT covered by `masks` (ascending single-bit masks), leaving the
 * reserved positions clear. Enumerating i over [0, d >> k) yields, in
 * ascending order, exactly the basis indices with all reserved bits
 * zero — the mask-indexed iteration that lets controlled kernels visit
 * only participating amplitudes instead of scanning all d indices.
 */
inline std::uint64_t
expandIndex(std::uint64_t i, const std::uint64_t *masks, unsigned k)
{
    for (unsigned b = 0; b < k; ++b) {
        const std::uint64_t low = masks[b] - 1;
        i = ((i & ~low) << 1) | (i & low);
    }
    return i;
}

/**
 * Call visit(i | set) for every basis index i below d whose reserved
 * bits (`masks`, k >= 1 ascending single-bit masks) are clear, in
 * ascending order. Below the lowest reserved bit the indices run
 * contiguously, so only one index per run is expanded and the inner
 * loop is a plain stride-1 sweep.
 */
template <typename Visit>
inline void
forEachIndex(std::uint64_t d, const std::uint64_t *masks, unsigned k,
             std::uint64_t set, Visit &&visit)
{
    const std::uint64_t run = masks[0];
    const std::uint64_t count = d >> k;
    for (std::uint64_t i = 0; i < count; i += run) {
        const std::uint64_t base = expandIndex(i, masks, k) | set;
        for (std::uint64_t off = 0; off < run; ++off)
            visit(base + off);
    }
}

/**
 * The amplitudes as interleaved (re, im) doubles. std::complex<double>
 * is array-compatible with double[2] ([complex.numbers]), so this is
 * the same storage, not a copy.
 */
inline double *
interleaved(std::vector<Complex> &amps)
{
    return reinterpret_cast<double *>(amps.data());
}

inline const double *
interleaved(const std::vector<Complex> &amps)
{
    return reinterpret_cast<const double *>(amps.data());
}

/**
 * One gate-matrix entry held in local doubles. Kernels copy their
 * matrix into these once per apply: read through a reference the
 * matrix may alias the amplitudes as far as the compiler can tell, so
 * it would be reloaded for every slot.
 */
struct Entry
{
    double re = 0.0;
    double im = 0.0;
    double negIm = 0.0;

    Entry() = default;
    explicit Entry(const Complex &c)
        : re(c.real()), im(c.imag()), negIm(-c.imag())
    {
    }

    /** Exactly zero (either sign): an off-diagonal that mixes nothing. */
    bool zero() const { return re == 0.0 && im == 0.0; }

    /** Exactly 1+0i: a diagonal entry that leaves its slots as they are. */
    bool one() const { return re == 1.0 && im == 0.0; }
};

/*
 * The product e·(x + iy) written out as (ac − bd, ad + bc). That is the
 * value std::complex<double>::operator* returns for finite operands;
 * only its Annex G branch (both parts NaN → __muldc3) is gone. Sums of
 * products below keep std::complex's left-to-right order, so every
 * amplitude is bit-identical to the std::complex expression.
 *
 * The real part is computed as ac + (−b)d: negation is exact and IEEE
 * 754 defines x − y as x + (−y), so it is ac − bd to the bit. Written
 * as a sum it has the same multiply-add shape as the imaginary part,
 * and the compiler keeps (re, im) pairs packed in one SSE2 register.
 */

/** Real part of e·(x + iy). */
inline double
mulRe(const Entry &e, double x, double y)
{
    return e.re * x + e.negIm * y;
}

/** Imaginary part of e·(x + iy). */
inline double
mulIm(const Entry &e, double x, double y)
{
    return e.re * y + e.im * x;
}

#if QSA_WIDE_KERNELS
/*
 * Wide bodies of the scale sweep and the dense pair update, one set
 * per level. A register holds two (AVX2) or four (AVX-512) complex
 * slots as interleaved (re, im) doubles v, and each slot's product is
 * re·v + (−im, im)·swap(v): lane re is re·x + (−im)·y, mulRe's sum,
 * and lane im is re·y + im·x, mulIm's, with the same operands in the
 * same order. A pair row adds its two column products left to right,
 * as mat2Kernel's scalar form does. libqsa is built with
 * -ffp-contract=off (avx512f implies FMA), so every lane rounds
 * exactly like the baseline loop and amplitudes are bit-identical at
 * every level.
 *
 * A body takes the sweep only where a vector fits: a run below the
 * lowest reserved bit of at least one vector, or (scale only) a
 * reserved bit 0 with the next reserved bit at least one vector up.
 * That second case sweeps whole vectors over the block between them
 * and stores only the slots whose bit 0 matches `set`, so the slots
 * the gate leaves alone are never written. Each body returns false
 * where it does not apply and the caller runs the baseline loop.
 */

namespace avx2
{

/** An entry broadcast over two slots: re·v + im·swap(v). */
struct Lane
{
    __m256d re;
    __m256d im; ///< (−im, im, −im, im)
};

QSA_TARGET_AVX2 inline Lane
lane(const Entry &e)
{
    return {_mm256_set1_pd(e.re),
            _mm256_setr_pd(e.negIm, e.im, e.negIm, e.im)};
}

QSA_TARGET_AVX2 inline __m256d
mul(const Lane &e, __m256d v)
{
    return _mm256_add_pd(_mm256_mul_pd(e.re, v),
                         _mm256_mul_pd(e.im, _mm256_permute_pd(v, 0x5)));
}

QSA_TARGET_AVX2 bool
scaleSweep(double *a, std::uint64_t d, const std::uint64_t *masks,
           unsigned k, std::uint64_t set, const Entry &entry)
{
    const Lane e = lane(entry);
    if (masks[0] >= 2) {
        for (std::uint64_t i = 0; i < d >> k; i += masks[0]) {
            double *p = a + 2 * (expandIndex(i, masks, k) | set);
            for (double *end = p + 2 * masks[0]; p != end; p += 4)
                _mm256_storeu_pd(p, mul(e, _mm256_loadu_pd(p)));
        }
        return true;
    }
    const std::uint64_t block = k > 1 ? masks[1] : d;
    if (block < 2)
        return false;
    // Bit 0 is reserved: of each vector's two slots, store the one
    // whose bit 0 is set's.
    const __m256i keep = (set & 1) ? _mm256_setr_epi64x(0, 0, -1, -1)
                                   : _mm256_setr_epi64x(-1, -1, 0, 0);
    for (std::uint64_t i = 0; i < d >> (k - 1); i += block) {
        double *p = a + 2 * (expandIndex(i, masks + 1, k - 1) |
                             (set & ~std::uint64_t{1}));
        for (double *end = p + 2 * block; p != end; p += 4)
            _mm256_maskstore_pd(p, keep, mul(e, _mm256_loadu_pd(p)));
    }
    return true;
}

QSA_TARGET_AVX2 bool
pairSweep(double *a, std::uint64_t d, const std::uint64_t *masks,
          unsigned k, std::uint64_t cmask, std::uint64_t tmask,
          const Entry (&g)[4])
{
    if (masks[0] < 2)
        return false;
    const Lane g00 = lane(g[0]), g01 = lane(g[1]);
    const Lane g10 = lane(g[2]), g11 = lane(g[3]);
    for (std::uint64_t i = 0; i < d >> k; i += masks[0]) {
        double *p0 = a + 2 * (expandIndex(i, masks, k) | cmask);
        double *p1 = p0 + 2 * tmask;
        for (double *end = p0 + 2 * masks[0]; p0 != end;
             p0 += 4, p1 += 4) {
            const __m256d v0 = _mm256_loadu_pd(p0);
            const __m256d v1 = _mm256_loadu_pd(p1);
            _mm256_storeu_pd(p0, _mm256_add_pd(mul(g00, v0), mul(g01, v1)));
            _mm256_storeu_pd(p1, _mm256_add_pd(mul(g10, v0), mul(g11, v1)));
        }
    }
    return true;
}

} // namespace avx2

namespace avx512
{

/** An entry broadcast over four slots: re·v + im·swap(v). */
struct Lane
{
    __m512d re;
    __m512d im; ///< (−im, im) four times
};

QSA_TARGET_AVX512 inline Lane
lane(const Entry &e)
{
    return {_mm512_set1_pd(e.re),
            _mm512_setr_pd(e.negIm, e.im, e.negIm, e.im, e.negIm, e.im,
                           e.negIm, e.im)};
}

QSA_TARGET_AVX512 inline __m512d
mul(const Lane &e, __m512d v)
{
    // shuffle_pd(v, v, 0x55) swaps re and im in every slot.
    return _mm512_add_pd(_mm512_mul_pd(e.re, v),
                         _mm512_mul_pd(e.im, _mm512_shuffle_pd(v, v, 0x55)));
}

QSA_TARGET_AVX512 bool
scaleSweep(double *a, std::uint64_t d, const std::uint64_t *masks,
           unsigned k, std::uint64_t set, const Entry &entry)
{
    const Lane e = lane(entry);
    if (masks[0] >= 4) {
        for (std::uint64_t i = 0; i < d >> k; i += masks[0]) {
            double *p = a + 2 * (expandIndex(i, masks, k) | set);
            for (double *end = p + 2 * masks[0]; p != end; p += 8)
                _mm512_storeu_pd(p, mul(e, _mm512_loadu_pd(p)));
        }
        return true;
    }
    const std::uint64_t block = k > 1 ? masks[1] : d;
    if (masks[0] != 1 || block < 4)
        return false;
    // Bit 0 is reserved: of each vector's four slots, store the two
    // whose bit 0 is set's.
    const __mmask8 keep = (set & 1) ? 0xcc : 0x33;
    for (std::uint64_t i = 0; i < d >> (k - 1); i += block) {
        double *p = a + 2 * (expandIndex(i, masks + 1, k - 1) |
                             (set & ~std::uint64_t{1}));
        for (double *end = p + 2 * block; p != end; p += 8)
            _mm512_mask_storeu_pd(p, keep, mul(e, _mm512_loadu_pd(p)));
    }
    return true;
}

QSA_TARGET_AVX512 bool
pairSweep(double *a, std::uint64_t d, const std::uint64_t *masks,
          unsigned k, std::uint64_t cmask, std::uint64_t tmask,
          const Entry (&g)[4])
{
    if (masks[0] < 4)
        return false;
    const Lane g00 = lane(g[0]), g01 = lane(g[1]);
    const Lane g10 = lane(g[2]), g11 = lane(g[3]);
    for (std::uint64_t i = 0; i < d >> k; i += masks[0]) {
        double *p0 = a + 2 * (expandIndex(i, masks, k) | cmask);
        double *p1 = p0 + 2 * tmask;
        for (double *end = p0 + 2 * masks[0]; p0 != end;
             p0 += 8, p1 += 8) {
            const __m512d v0 = _mm512_loadu_pd(p0);
            const __m512d v1 = _mm512_loadu_pd(p1);
            _mm512_storeu_pd(p0, _mm512_add_pd(mul(g00, v0), mul(g01, v1)));
            _mm512_storeu_pd(p1, _mm512_add_pd(mul(g10, v0), mul(g11, v1)));
        }
    }
    return true;
}

} // namespace avx512
#endif // QSA_WIDE_KERNELS

/**
 * Diagonal sweep: slot i ← e·slot i for every index forEachIndex
 * visits. This is the whole update of a diagonal gate on that slot
 * class: the dense update adds the off-diagonal products, which are
 * zeros, so the results agree under == (only the sign of a zero can
 * differ). The active level's wide body takes the sweep where a
 * vector fits.
 */
inline void
scaleSweep(double *a, std::uint64_t d, const std::uint64_t *masks,
           unsigned k, std::uint64_t set, const Entry &e)
{
#if QSA_WIDE_KERNELS
    switch (detail::activeKernelLevel()) {
      case KernelLevel::Avx512:
        if (avx512::scaleSweep(a, d, masks, k, set, e))
            return;
        break;
      case KernelLevel::Avx2:
        if (avx2::scaleSweep(a, d, masks, k, set, e))
            return;
        break;
      case KernelLevel::Baseline:
        break;
    }
#endif
    forEachIndex(d, masks, k, set, [&](std::uint64_t i) {
        const double x = a[2 * i];
        const double y = a[2 * i + 1];
        a[2 * i] = mulRe(e, x, y);
        a[2 * i + 1] = mulIm(e, x, y);
    });
}

/**
 * The 2x2 kernel on every pair (i, i | tmask), i visiting the indices
 * with the reserved bits (`masks`: controls and target) clear, OR'd
 * with the control mask. Returns the slots touched.
 */
std::uint64_t
mat2Kernel(double *a, std::uint64_t d, const Mat2 &gate,
           const std::uint64_t *masks, unsigned k, std::uint64_t cmask,
           std::uint64_t tmask)
{
    const Entry g[4] = {Entry(gate.a00), Entry(gate.a01), Entry(gate.a10),
                        Entry(gate.a11)};
    const Entry &g00 = g[0], &g01 = g[1], &g10 = g[2], &g11 = g[3];
    const std::uint64_t pairs = d >> k;
    if (g01.zero() && g10.zero()) {
        std::uint64_t touched = 0;
        if (!g00.one()) {
            scaleSweep(a, d, masks, k, cmask, g00);
            touched += pairs;
        }
        if (!g11.one()) {
            scaleSweep(a, d, masks, k, cmask | tmask, g11);
            touched += pairs;
        }
        return touched;
    }
#if QSA_WIDE_KERNELS
    switch (detail::activeKernelLevel()) {
      case KernelLevel::Avx512:
        if (avx512::pairSweep(a, d, masks, k, cmask, tmask, g))
            return 2 * pairs;
        break;
      case KernelLevel::Avx2:
        if (avx2::pairSweep(a, d, masks, k, cmask, tmask, g))
            return 2 * pairs;
        break;
      case KernelLevel::Baseline:
        break;
    }
#endif
    // i0 has the target bit clear, so i0 + tmask is i0 | tmask; the
    // sum lets the compiler see the two slots' (re, im) pairs as
    // adjacent doubles and pack them.
    forEachIndex(d, masks, k, cmask, [&](std::uint64_t i0) {
        const std::uint64_t i1 = i0 + tmask;
        const double x0 = a[2 * i0], y0 = a[2 * i0 + 1];
        const double x1 = a[2 * i1], y1 = a[2 * i1 + 1];
        a[2 * i0] = mulRe(g00, x0, y0) + mulRe(g01, x1, y1);
        a[2 * i0 + 1] = mulIm(g00, x0, y0) + mulIm(g01, x1, y1);
        a[2 * i1] = mulRe(g10, x0, y0) + mulRe(g11, x1, y1);
        a[2 * i1 + 1] = mulIm(g10, x0, y0) + mulIm(g11, x1, y1);
    });
    return 2 * pairs;
}

/**
 * The 4x4 kernel on every coset {b, b|m0, b|m1, b|m0|m1}, b visiting
 * the indices with the reserved bits clear, OR'd with the control
 * mask. Returns the slots touched.
 */
std::uint64_t
mat4Kernel(double *a, std::uint64_t d, const Mat4 &gate,
           const std::uint64_t *masks, unsigned k, std::uint64_t cmask,
           std::uint64_t m0, std::uint64_t m1)
{
    // Row major: the diagonal is entries 0, 5, 10 and 15.
    Entry u[16];
    bool diagonal = true;
    for (unsigned e = 0; e < 16; ++e) {
        u[e] = Entry(gate.m[e]);
        if (e % 5 != 0 && !u[e].zero())
            diagonal = false;
    }
    const std::uint64_t offset[4] = {0, m0, m1, m0 | m1};
    const std::uint64_t cosets = d >> k;
    if (diagonal) {
        std::uint64_t touched = 0;
        for (unsigned r = 0; r < 4; ++r) {
            if (u[5 * r].one())
                continue;
            scaleSweep(a, d, masks, k, cmask | offset[r], u[5 * r]);
            touched += cosets;
        }
        return touched;
    }
    // base has both target bits clear: base + offset[r] is the slot
    // (an OR would hide the adjacency the compiler packs on).
    forEachIndex(d, masks, k, cmask, [&](std::uint64_t base) {
        double x[4], y[4];
        for (unsigned c = 0; c < 4; ++c) {
            x[c] = a[2 * (base + offset[c])];
            y[c] = a[2 * (base + offset[c]) + 1];
        }
        for (unsigned r = 0; r < 4; ++r) {
            const Entry *row = u + 4 * r;
            const std::uint64_t i = base + offset[r];
            a[2 * i] = mulRe(row[0], x[0], y[0]) +
                       mulRe(row[1], x[1], y[1]) +
                       mulRe(row[2], x[2], y[2]) +
                       mulRe(row[3], x[3], y[3]);
            a[2 * i + 1] = mulIm(row[0], x[0], y[0]) +
                           mulIm(row[1], x[1], y[1]) +
                           mulIm(row[2], x[2], y[2]) +
                           mulIm(row[3], x[3], y[3]);
        }
    });
    return 4 * cosets;
}
} // anonymous namespace

StateVector::StateVector(unsigned num_qubits) : nQubits(num_qubits)
{
    fatal_if(num_qubits == 0, "state vector needs at least one qubit");
    fatal_if(num_qubits > kMaxQubits, "refusing to allocate ",
             num_qubits, " qubits (limit ", kMaxQubits, ")");
    amps.assign(pow2(num_qubits), Complex(0.0));
    amps[0] = Complex(1.0);
}

Complex
StateVector::amp(std::uint64_t basis) const
{
    fatal_if(basis >= dim(), "basis index out of range");
    return amps[basis];
}

void
StateVector::setBasisState(std::uint64_t basis)
{
    fatal_if(basis >= dim(), "basis index out of range");
    std::fill(amps.begin(), amps.end(), Complex(0.0));
    amps[basis] = Complex(1.0);
}

void
StateVector::setAmplitudes(std::vector<Complex> amplitudes)
{
    fatal_if(amplitudes.size() != dim(), "amplitude vector of size ",
             amplitudes.size(), " for a state of dimension ", dim());
    amps = std::move(amplitudes);
}

void
StateVector::applyGate(const Mat2 &gate, unsigned target)
{
    applyControlled(gate, {}, target);
}

void
StateVector::applyControlled(const Mat2 &gate, QubitSpan controls,
                             unsigned target)
{
    fatal_if(target >= nQubits, "gate target out of range");
    std::uint64_t cmask = 0;
    for (unsigned c : controls) {
        fatal_if(c >= nQubits, "control qubit out of range");
        fatal_if(c == target, "control equals target");
        cmask |= pow2(c);
    }

    const std::uint64_t tmask = pow2(target);
    std::uint64_t masks[64];
    const unsigned k = splitMask(cmask | tmask, masks);
    countGate(mat2Kernel(interleaved(amps), dim(), gate, masks, k, cmask,
                         tmask));
}

void
StateVector::applyTwoQubit(const Mat4 &u, unsigned q0, unsigned q1)
{
    applyControlledTwoQubit(u, {}, q0, q1);
}

void
StateVector::applyControlledTwoQubit(const Mat4 &u, QubitSpan controls,
                                     unsigned q0, unsigned q1)
{
    fatal_if(q0 >= nQubits || q1 >= nQubits,
             "two-qubit gate target out of range");
    fatal_if(q0 == q1, "two-qubit gate requires distinct qubits");

    std::uint64_t cmask = 0;
    for (unsigned c : controls) {
        fatal_if(c >= nQubits, "control qubit out of range");
        fatal_if(c == q0 || c == q1, "control equals target");
        cmask |= pow2(c);
    }

    const std::uint64_t m0 = pow2(q0);
    const std::uint64_t m1 = pow2(q1);
    std::uint64_t masks[64];
    const unsigned k = splitMask(cmask | m0 | m1, masks);
    countGate(mat4Kernel(interleaved(amps), dim(), u, masks, k, cmask, m0,
                         m1));
}

void
StateVector::applySwap(unsigned q0, unsigned q1)
{
    applyControlledSwap({}, q0, q1);
}

void
StateVector::applyControlledSwap(QubitSpan controls, unsigned q0,
                                 unsigned q1)
{
    fatal_if(q0 >= nQubits || q1 >= nQubits, "swap qubit out of range");
    fatal_if(q0 == q1, "swap requires distinct qubits");

    std::uint64_t cmask = 0;
    for (unsigned c : controls) {
        fatal_if(c >= nQubits, "control qubit out of range");
        fatal_if(c == q0 || c == q1, "control equals swap target");
        cmask |= pow2(c);
    }

    const std::uint64_t m0 = pow2(q0);
    const std::uint64_t m1 = pow2(q1);
    std::uint64_t masks[64];
    const unsigned k = splitMask(cmask | m0 | m1, masks);
    countGate(2 * (dim() >> k));
    // Visit each swapped pair once: q0 set, q1 clear.
    forEachIndex(dim(), masks, k, cmask, [&](std::uint64_t base) {
        std::swap(amps[base | m0], amps[base | m1]);
    });
}

void
StateVector::applyUnitary(const CMatrix &u, QubitSpan qubits)
{
    applyControlledUnitary(u, {}, qubits);
}

void
StateVector::applyControlledUnitary(const CMatrix &u, QubitSpan controls,
                                    QubitSpan qubits)
{
    const unsigned k = qubits.size();
    fatal_if(u.dim() != pow2(k), "unitary dimension mismatch");
    for (unsigned q : qubits) {
        fatal_if(q >= nQubits, "unitary qubit out of range");
        for (unsigned c : controls)
            fatal_if(c == q, "controls overlap unitary targets");
    }

    // Fast dispatch: small dense unitaries — including every fused
    // block the gate-fusion pass emits — run through the specialised
    // pair/Mat4 kernels. The dispatched kernel does the counting.
    if (k == 1) {
        applyControlled(Mat2{u.at(0, 0), u.at(0, 1), u.at(1, 0),
                             u.at(1, 1)},
                        controls, qubits[0]);
        return;
    }
    if (k == 2) {
        Mat4 dense;
        for (unsigned r = 0; r < 4; ++r)
            for (unsigned c = 0; c < 4; ++c)
                dense.at(r, c) = u.at(r, c);
        applyControlledTwoQubit(dense, controls, qubits[0], qubits[1]);
        return;
    }

    std::uint64_t cmask = 0;
    for (unsigned c : controls) {
        fatal_if(c >= nQubits, "control qubit out of range");
        cmask |= pow2(c);
    }
    std::uint64_t qmask = 0;
    for (unsigned q : qubits)
        qmask |= pow2(q);
    fatal_if(popcount64(qmask) != k, "unitary qubits must be distinct");

    const std::uint64_t sub = pow2(k);
    std::vector<Entry> mat(sub * sub);
    std::vector<std::uint64_t> offset(sub);
    for (std::uint64_t r = 0; r < sub; ++r) {
        offset[r] = 0;
        for (unsigned i = 0; i < k; ++i)
            offset[r] |= getBit(r, i) << qubits[i];
        for (std::uint64_t c = 0; c < sub; ++c)
            mat[r * sub + c] = Entry(u.at(r, c));
    }
    std::vector<double> x(sub), y(sub);
    std::uint64_t masks[64];
    const unsigned reserved = splitMask(cmask | qmask, masks);
    countGate(sub * (dim() >> reserved));

    // Each participating coset once: all target bits clear, all
    // control bits set. Rows accumulate from 0.0 in column order, as a
    // std::complex accumulator does (0.0 + -0.0 is +0.0), so the sums
    // are bit-identical.
    double *a = interleaved(amps);
    forEachIndex(dim(), masks, reserved, cmask, [&](std::uint64_t base) {
        for (std::uint64_t v = 0; v < sub; ++v) {
            x[v] = a[2 * (base + offset[v])];
            y[v] = a[2 * (base + offset[v]) + 1];
        }
        for (std::uint64_t r = 0; r < sub; ++r) {
            const Entry *row = mat.data() + r * sub;
            double re = 0.0;
            double im = 0.0;
            for (std::uint64_t c = 0; c < sub; ++c) {
                re += mulRe(row[c], x[c], y[c]);
                im += mulIm(row[c], x[c], y[c]);
            }
            a[2 * (base + offset[r])] = re;
            a[2 * (base + offset[r]) + 1] = im;
        }
    });
}

unsigned
StateVector::measureQubit(unsigned qubit, Rng &rng)
{
    fatal_if(qubit >= nQubits, "measured qubit out of range");

    QSA_OBS_COUNTER("sim.measurements", 1);
    const double p1 = probabilityOne(qubit);
    const unsigned outcome = rng.bernoulli(p1) ? 1 : 0;
    collapse(qubit, outcome, outcome ? p1 : 1.0 - p1);
    return outcome;
}

std::uint64_t
StateVector::measureQubits(QubitSpan qubits, Rng &rng)
{
    // All checked first, so a bad list collapses nothing.
    for (unsigned q : qubits)
        fatal_if(q >= nQubits, "measured qubit out of range");
    std::uint64_t value = 0;
    for (std::size_t i = 0; i < qubits.size(); ++i)
        value |= static_cast<std::uint64_t>(measureQubit(qubits[i], rng))
                 << i;
    return value;
}

void
StateVector::prepZ(unsigned qubit, unsigned bit, Rng &rng)
{
    const unsigned current = measureQubit(qubit, rng);
    if (current != (bit & 1))
        applyGate(Mat2{0.0, 1.0, 1.0, 0.0}, qubit);
}

void
StateVector::projectQubit(unsigned qubit, unsigned value,
                          double probability)
{
    fatal_if(qubit >= nQubits, "projected qubit out of range");
    collapse(qubit, value & 1, probability);
}

double
StateVector::probabilityOne(unsigned qubit) const
{
    fatal_if(qubit >= nQubits, "qubit out of range");
    // Stride-blocked over the |1> half only: same ascending visit
    // order (so bit-identical sums), half the indices scanned.
    const std::uint64_t stride = pow2(qubit);
    const std::uint64_t d = dim();
    double p1 = 0.0;
    for (std::uint64_t base = stride; base < d; base += 2 * stride) {
        for (std::uint64_t off = 0; off < stride; ++off)
            p1 += std::norm(amps[base + off]);
    }
    return std::min(1.0, std::max(0.0, p1));
}

std::vector<double>
StateVector::marginalProbs(const std::vector<unsigned> &qubits) const
{
    // The list once, in a local array, so the bit gather below runs
    // inline; a list of 64 or more entries has no 2^k-entry marginal.
    const std::size_t k = qubits.size();
    fatal_if(k >= 64, "marginal over too many qubits");
    unsigned local[64];
    bool identity = k == nQubits;
    for (std::size_t j = 0; j < k; ++j) {
        fatal_if(qubits[j] >= nQubits, "qubit out of range");
        local[j] = qubits[j];
        identity = identity && qubits[j] == j;
    }

    // Every bin sums its amplitudes' weights in ascending index order.
    std::vector<double> probs(pow2(k), 0.0);
    if (identity) {
        // Qubits 0, 1, ..., n-1: each bin holds one weight.
        for (std::uint64_t i = 0; i < dim(); ++i)
            probs[i] = std::norm(amps[i]);
        return probs;
    }
    for (std::uint64_t i = 0; i < dim(); ++i) {
        const double p = std::norm(amps[i]);
        if (p == 0.0)
            continue;
        std::uint64_t v = 0;
        for (std::size_t j = 0; j < k; ++j)
            v |= getBit(i, local[j]) << j;
        probs[v] += p;
    }
    return probs;
}

CMatrix
StateVector::reducedDensityMatrix(
    const std::vector<unsigned> &qubits) const
{
    const unsigned k = qubits.size();
    fatal_if(k > 16, "reduced density matrix too large");
    for (unsigned q : qubits)
        fatal_if(q >= nQubits, "qubit out of range");

    std::uint64_t qmask = 0;
    for (unsigned q : qubits)
        qmask |= pow2(q);

    const std::uint64_t sub = pow2(k);
    CMatrix rho(sub);
    const std::uint64_t d = dim();
    for (std::uint64_t base = 0; base < d; ++base) {
        if (base & qmask)
            continue; // enumerate environment configurations once
        for (std::uint64_t r = 0; r < sub; ++r) {
            const Complex ar = amps[depositBits(base, qubits, r)];
            if (ar == Complex(0.0))
                continue;
            for (std::uint64_t c = 0; c < sub; ++c) {
                const Complex ac = amps[depositBits(base, qubits, c)];
                rho.at(r, c) += ar * std::conj(ac);
            }
        }
    }
    return rho;
}

double
StateVector::subsystemPurity(const std::vector<unsigned> &qubits) const
{
    const CMatrix rho = reducedDensityMatrix(qubits);
    double purity = 0.0;
    for (std::size_t r = 0; r < rho.dim(); ++r)
        for (std::size_t c = 0; c < rho.dim(); ++c)
            purity += std::norm(rho.at(r, c));
    return purity;
}

double
StateVector::norm() const
{
    double s = 0.0;
    for (const Complex &a : amps)
        s += std::norm(a);
    return s;
}

Complex
StateVector::innerProduct(const StateVector &other) const
{
    fatal_if(dim() != other.dim(), "state dimension mismatch");
    Complex acc(0.0);
    for (std::uint64_t i = 0; i < dim(); ++i)
        acc += std::conj(amps[i]) * other.amps[i];
    return acc;
}

double
StateVector::fidelity(const StateVector &other) const
{
    return std::norm(innerProduct(other));
}

StateVector
StateVector::tensorWith(const StateVector &other) const
{
    fatal_if(nQubits + other.nQubits > 28,
             "tensor product of ", static_cast<unsigned>(nQubits),
             " + ", static_cast<unsigned>(other.nQubits),
             " qubits exceeds the simulator's memory budget");
    // Constructed as |0...0>: clearing slot 0 leaves all zeros.
    StateVector product(nQubits + other.nQubits);
    product.amps[0] = Complex(0.0);
    const double *lo = interleaved(amps);
    double *out = interleaved(product.amps);
    for (std::uint64_t hi = 0; hi < other.dim(); ++hi) {
        const Entry scale(other.amps[hi]);
        if (scale.zero())
            continue;
        double *block = out + 2 * (hi << nQubits);
        for (std::uint64_t i = 0; i < dim(); ++i) {
            block[2 * i] = mulRe(scale, lo[2 * i], lo[2 * i + 1]);
            block[2 * i + 1] = mulIm(scale, lo[2 * i], lo[2 * i + 1]);
        }
    }
    return product;
}

void
StateVector::normalize()
{
    const double n = std::sqrt(norm());
    panic_if(n < 1e-12, "cannot normalise a zero state");
    for (Complex &a : amps)
        a /= n;
}

void
StateVector::collapse(unsigned qubit, unsigned value, double prob)
{
    // Guard against collapsing onto a zero-probability branch due to
    // floating-point round-off.
    panic_if(prob < 1e-15, "collapse onto zero-probability branch");

    // Stride-blocked: in each 2·stride block the half where the qubit
    // reads `value` is rescaled part by part (as Complex *= double
    // does) and the other half is zeroed, with no per-slot bit test.
    const std::uint64_t stride = pow2(qubit);
    const std::uint64_t kept = value ? stride : 0;
    const double scale = 1.0 / std::sqrt(prob);
    double *a = interleaved(amps);
    for (std::uint64_t base = 0; base < dim(); base += 2 * stride) {
        double *keep = a + 2 * (base + kept);
        double *drop = a + 2 * (base + (stride - kept));
        for (std::uint64_t i = 0; i < 2 * stride; ++i) {
            keep[i] *= scale;
            drop[i] = 0.0;
        }
    }
}

} // namespace qsa::sim
