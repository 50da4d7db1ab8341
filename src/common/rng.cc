/**
 * @file
 * xoshiro256** implementation (public-domain algorithm by Blackman &
 * Vigna) plus SplitMix64 seed expansion.
 */

#include "common/rng.hh"

#include <cmath>

#include "common/logging.hh"

namespace qsa
{

Rng::Rng(std::uint64_t seed) : seedValue(seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s)
        word = splitMix64(sm);
}

std::uint64_t
Rng::next()
{
    return detail::xoshiroStep(s[0], s[1], s[2], s[3]);
}

double
Rng::uniform()
{
    // 53 random mantissa bits -> uniform double in [0, 1).
    return detail::unitInterval(next());
}

std::uint64_t
Rng::uniformInt(std::uint64_t bound)
{
    fatal_if(bound == 0, "uniformInt bound must be positive");
    // Rejection sampling to remove modulo bias.
    const std::uint64_t limit = ~0ull - (~0ull % bound + 1) % bound;
    std::uint64_t x;
    do {
        x = next();
    } while (x > limit);
    return x % bound;
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

std::size_t
Rng::discrete(const std::vector<double> &weights)
{
    double total = 0.0;
    for (double w : weights) {
        fatal_if(w < 0.0 || std::isnan(w),
                 "discrete() weights must be non-negative");
        total += w;
    }
    fatal_if(total <= 0.0, "discrete() weights must have a positive sum");

    double r = uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        r -= weights[i];
        if (r < 0.0)
            return i;
    }
    // Floating-point slack: fall back to the last positive weight.
    for (std::size_t i = weights.size(); i-- > 0;) {
        if (weights[i] > 0.0)
            return i;
    }
    return weights.size() - 1;
}

Rng
Rng::split(std::uint64_t child_index) const
{
    // Child seed = the child_index-th output of the SplitMix64 sequence
    // started at the parent seed: mix(seed + (i + 1) * GAMMA). GAMMA is
    // odd so the pre-mix state is injective in i, and the finalizer is a
    // bijection, so distinct children get distinct seeds (see rng.hh).
    std::uint64_t sm = seedValue + child_index * detail::kSplitMixGamma;
    return Rng(splitMix64(sm));
}

namespace
{

/**
 * Shared jump-ahead walker: for each set bit of the polynomial, xor the
 * running state into the accumulator, stepping the generator once per
 * bit. Equivalent to multiplying by the jump polynomial in the
 * generator's F2-linear transition ring.
 */
template <typename Step>
void
jumpWith(const std::uint64_t (&poly)[4], std::uint64_t (&s)[4], Step step)
{
    std::uint64_t acc[4] = {0, 0, 0, 0};
    for (std::uint64_t word : poly) {
        for (int bit = 0; bit < 64; ++bit) {
            if (word & (1ull << bit)) {
                for (int i = 0; i < 4; ++i)
                    acc[i] ^= s[i];
            }
            step();
        }
    }
    for (int i = 0; i < 4; ++i)
        s[i] = acc[i];
}

} // anonymous namespace

void
Rng::jump()
{
    // Blackman & Vigna's 2^128 jump polynomial for xoshiro256**.
    static const std::uint64_t poly[4] = {
        0x180ec6d33cfd0abaull, 0xd5a61266f0c9392cull,
        0xa9582618e03fc9aaull, 0x39abdc4529b1661cull};
    jumpWith(poly, s, [this] { next(); });
    // Re-key the split() derivation too: split() is keyed on the seed,
    // not the xoshiro state, so without this a jumped generator would
    // hand out the same children as its parent.
    std::uint64_t sm = seedValue ^ 0x2545f4914f6cdd1dull;
    seedValue = splitMix64(sm);
}

void
Rng::longJump()
{
    // Blackman & Vigna's 2^192 long-jump polynomial for xoshiro256**.
    static const std::uint64_t poly[4] = {
        0x76e15d3efefdcbbfull, 0xc5004e441c522fb3ull,
        0x77710069854ee241ull, 0x39109bb02acbe635ull};
    jumpWith(poly, s, [this] { next(); });
    // As in jump(), with a distinct tag so jump and longJump re-key
    // differently.
    std::uint64_t sm = seedValue ^ 0xda942042e4dd58b5ull;
    seedValue = splitMix64(sm);
}

Rng
Rng::jumped(unsigned count) const
{
    Rng r = *this;
    for (unsigned i = 0; i < count; ++i)
        r.jump();
    return r;
}

} // namespace qsa
