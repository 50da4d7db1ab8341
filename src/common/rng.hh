/**
 * @file
 * Deterministic, splittable random number generation.
 *
 * The assertion checker simulates *ensembles* of program executions; the
 * paper ran each ensemble member as an independent QX simulation on a
 * cluster. To keep those ensembles reproducible and independent we use a
 * counter-based seeding scheme: a master seed is expanded with SplitMix64
 * into per-run seeds, each of which initialises an independent
 * xoshiro256** stream.
 *
 * Stream-splitting scheme (used by qsa::runtime to shard ensembles):
 *
 *  - split(i) derives the i-th child seed as the i-th output of the
 *    SplitMix64 sequence started at the parent's seed, i.e.
 *    mix(seed + (i + 1) * GAMMA) where mix is SplitMix64's finalizer.
 *    GAMMA is odd, so seed + (i + 1) * GAMMA is injective in i modulo
 *    2^64, and mix is a bijection — distinct child indices of the same
 *    parent are GUARANTEED distinct seeds for any number of children
 *    (in particular across >= 64 shards; the previous xor-of-two-
 *    outputs derivation had no such guarantee).
 *
 *  - jump()/longJump() advance the generator by 2^128 / 2^192 steps in
 *    O(1) (Blackman & Vigna's jump polynomials). Repeatedly jumping a
 *    copy of one master stream yields provably non-overlapping
 *    subsequences of length 2^128 (resp. 2^192) — the belt-and-braces
 *    option when disjointness, not just distinctness, is required.
 */

#ifndef QSA_COMMON_RNG_HH
#define QSA_COMMON_RNG_HH

#include <cstdint>
#include <vector>

namespace qsa
{

namespace detail
{

/** SplitMix64's increment (the golden-ratio gamma). */
constexpr std::uint64_t kSplitMixGamma = 0x9e3779b97f4a7c15ull;

/** SplitMix64's output function: a bijection of the 64-bit words. */
inline std::uint64_t
splitMixOutput(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** x rotated left by k (0 < k < 64). */
inline std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

/**
 * One xoshiro256** step on the state words s0..s3: returns the output
 * and advances the state. Rng::next and the runtime's trial-stream
 * bank (runtime/streams.hh) both step through this definition.
 */
inline std::uint64_t
xoshiroStep(std::uint64_t &s0, std::uint64_t &s1, std::uint64_t &s2,
            std::uint64_t &s3)
{
    const std::uint64_t result = rotl(s1 * 5, 7) * 9;
    const std::uint64_t t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = rotl(s3, 45);
    return result;
}

/** A raw draw's top 53 bits as a double in [0, 1): Rng::uniform. */
inline double
unitInterval(std::uint64_t draw)
{
    return (draw >> 11) * 0x1.0p-53;
}

} // namespace detail

/**
 * SplitMix64 step: maps a 64-bit state to a well-mixed 64-bit output and
 * advances the state. Used for seed expansion only.
 */
inline std::uint64_t
splitMix64(std::uint64_t &state)
{
    return detail::splitMixOutput(state += detail::kSplitMixGamma);
}

/**
 * xoshiro256** pseudo-random generator (Blackman & Vigna).
 *
 * Small, fast, and of far higher quality than needed for sampling
 * measurement outcomes; chosen so ensembles are identical across
 * platforms (std::mt19937 distributions are not portable).
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform integer in [0, bound) without modulo bias; a zero
     *  bound throws qsa::Error. */
    std::uint64_t uniformInt(std::uint64_t bound);

    /** Bernoulli draw: true with probability p. */
    bool bernoulli(double p);

    /**
     * Sample an index from an (unnormalised) weight vector.
     * Weights must be non-negative with a positive sum (qsa::Error
     * otherwise).
     */
    std::size_t discrete(const std::vector<double> &weights);

    /**
     * Derive an independent child generator; the i-th child of a given
     * parent is deterministic, and distinct child indices are
     * guaranteed distinct seeds (see the file comment for the scheme).
     * Used to give every ensemble member its own stream, mirroring
     * independent simulator invocations.
     */
    Rng split(std::uint64_t child_index) const;

    /**
     * Advance this generator by 2^128 steps of next() in O(1). Jumping
     * a copy k times yields the k-th of 2^128 non-overlapping
     * subsequences, each 2^128 values long. Also re-keys the seed that
     * split() derives children from, so a jumped generator's children
     * differ from its parent's.
     */
    void jump();

    /** As jump(), but 2^192 steps (2^64 subsequences of 2^192). */
    void longJump();

    /**
     * Copy of this generator jumped `count` times — the conventional
     * way to hand shard k its own provably disjoint stream.
     */
    Rng jumped(unsigned count) const;

  private:
    /** xoshiro256** state. */
    std::uint64_t s[4];

    /** Seed material retained for split(). */
    std::uint64_t seedValue;
};

} // namespace qsa

#endif // QSA_COMMON_RNG_HH
