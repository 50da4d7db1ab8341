/**
 * @file
 * The state-vector kernels' SIMD level, exposed for tests and benches.
 *
 * The diagonal scale sweep and the dense 2x2 pair update are compiled
 * three times: the baseline loop (SSE2 on x86-64, plain C++
 * elsewhere), an AVX2 body holding two complex amplitudes per
 * register and an AVX-512 body holding four. Once per process the
 * widest level the CPU supports becomes the active one; every level
 * gives bit-identical amplitudes (DESIGN.md "Simulation kernels").
 *
 * Nothing here is part of the public API: qsa/qsa.hh does not include
 * this header, and there is no option or environment variable. Tests
 * force each level the host has through ScopedKernelLevel, so one
 * binary checks all of them against the reference; benches label
 * their runs with the level that ran.
 */

#ifndef QSA_SIM_KERNEL_LEVEL_HH
#define QSA_SIM_KERNEL_LEVEL_HH

namespace qsa::sim::detail
{

/** Kernel widths, narrowest first. */
enum class KernelLevel : unsigned
{
    Baseline, ///< one complex amplitude per step (SSE2 on x86-64)
    Avx2,     ///< two per 256-bit register
    Avx512,   ///< four per 512-bit register
};

/** Every level, narrowest first. */
constexpr KernelLevel kKernelLevels[] = {
    KernelLevel::Baseline, KernelLevel::Avx2, KernelLevel::Avx512};

/** "baseline", "avx2" or "avx512". */
const char *kernelLevelName(KernelLevel level);

/** True when this CPU (and build) can run the level's kernels. */
bool hostSupports(KernelLevel level);

/** The widest level the host supports, probed once per process. */
KernelLevel hostKernelLevel();

/** The level kernel calls use now: the host's, unless forced. */
KernelLevel activeKernelLevel();

/**
 * Forces a level for the guard's lifetime and restores the previous
 * one after. The level lives in one process-wide atomic that every
 * kernel call reads, so pool workers run the forced level too; guards
 * nest, but must not overlap across threads. Throws
 * std::invalid_argument for a level the host lacks.
 */
class ScopedKernelLevel
{
  public:
    explicit ScopedKernelLevel(KernelLevel level);
    ~ScopedKernelLevel();

    ScopedKernelLevel(const ScopedKernelLevel &) = delete;
    ScopedKernelLevel &operator=(const ScopedKernelLevel &) = delete;

  private:
    KernelLevel previous;
};

} // namespace qsa::sim::detail

#endif // QSA_SIM_KERNEL_LEVEL_HH
