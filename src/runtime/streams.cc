/**
 * @file
 * StreamBank implementation: the seeding, discard and draw loops.
 */

#include "runtime/streams.hh"

#include <algorithm>
#include <bitset>
#include <cmath>
#include <utility>

#include "common/logging.hh"
#include "common/rng.hh"

namespace qsa::runtime
{

std::uint64_t
bernoulliThreshold(double p)
{
    if (!(p > 0.0))
        return 0;
    if (p >= 1.0)
        return std::uint64_t{1} << 53;
    return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

void
StreamBank::seed(std::uint64_t seed, std::uint64_t first, std::size_t count)
{
    panic_if(count > kMaxSlots, "stream bank holds at most ", kMaxSlots,
             " slots");
    slots = count;
    words.reset(new std::uint64_t[4 * count]);
    trials.reset(new std::uint32_t[count]);
    for (std::size_t i = 0; i < count; ++i)
        trials[i] = static_cast<std::uint32_t>(i);

    // Slot i is Rng(seed).split(first + i): Rng(x_i) for the child
    // seed x_i = splitMixOutput(seed + (first + i + 1) * gamma).
    std::uint64_t *const s0 = plane(0), *const s1 = plane(1),
                        *const s2 = plane(2), *const s3 = plane(3);
    const std::uint64_t base = seed + (first + 1) * detail::kSplitMixGamma;
    for (std::size_t i = 0; i < count; ++i) {
        std::uint64_t sm = base + i * detail::kSplitMixGamma;
        sm = detail::splitMixOutput(sm);
        s0[i] = splitMix64(sm);
        s1[i] = splitMix64(sm);
        s2[i] = splitMix64(sm);
        s3[i] = splitMix64(sm);
    }
}

void
StreamBank::discard(std::size_t lo, std::size_t hi, std::size_t draws)
{
    if (draws == 0)
        return;
    std::uint64_t *const s0 = plane(0), *const s1 = plane(1),
                        *const s2 = plane(2), *const s3 = plane(3);
    for (std::size_t i = lo; i < hi; ++i) {
        // The words in locals: stepping the planes in place would
        // store and reload each word on every draw.
        std::uint64_t a = s0[i], b = s1[i], c = s2[i], d = s3[i];
        for (std::size_t k = 0; k < draws; ++k)
            detail::xoshiroStep(a, b, c, d);
        s0[i] = a;
        s1[i] = b;
        s2[i] = c;
        s3[i] = d;
    }
}

std::size_t
StreamBank::partition(std::size_t lo, std::size_t hi,
                      std::uint64_t threshold)
{
    // A certain outcome moves no slot; each stream still draws once.
    if (threshold == 0 || threshold >> 53) {
        discard(lo, hi, 1);
        return threshold == 0 ? hi : lo;
    }
    // One draw per slot; bit j of the words is slot lo + j's success.
    const std::size_t n = hi - lo;
    std::uint64_t bits[kMaxSlots / 64];
    std::uint64_t *const s0 = plane(0), *const s1 = plane(1),
                        *const s2 = plane(2), *const s3 = plane(3);
    for (std::size_t w = 0; w * 64 < n; ++w) {
        std::uint64_t word = 0;
        for (std::size_t j = w * 64; j < std::min(n, w * 64 + 64); ++j) {
            const std::size_t i = lo + j;
            std::uint64_t a = s0[i], b = s1[i], c = s2[i], d = s3[i];
            const std::uint64_t k = detail::xoshiroStep(a, b, c, d) >> 11;
            s0[i] = a;
            s1[i] = b;
            s2[i] = c;
            s3[i] = d;
            word |= static_cast<std::uint64_t>(k < threshold) << (j & 63);
        }
        bits[w] = word;
    }

    // Successes among the first `end` slots.
    const auto successesBelow = [&](std::size_t end) {
        std::size_t count = 0;
        for (std::size_t w = 0; w < end >> 6; ++w)
            count += std::bitset<64>(bits[w]).count();
        if (end & 63)
            count += std::bitset<64>(bits[end >> 6] &
                                     ((std::uint64_t{1} << (end & 63)) - 1))
                         .count();
        return count;
    };
    const std::size_t failures = n - successesBelow(n);
    if (failures == 0 || failures == n)
        return lo + failures;

    // Swap each success among the first `failures` slots with a
    // failure after them, scanning the bit words rather than the
    // slots: the loop runs once per swap, with no branch per slot.
    std::size_t a = 0, b = n - 1;
    for (std::size_t swaps = successesBelow(failures); swaps > 0; --swaps) {
        std::uint64_t word = bits[a >> 6] & (~std::uint64_t{0} << (a & 63));
        while (word == 0)
            word = bits[(a = (a | 63) + 1) >> 6];
        a = (a & ~std::size_t{63}) + __builtin_ctzll(word);
        word = ~bits[b >> 6] & (~std::uint64_t{0} >> (63 - (b & 63)));
        while (word == 0)
            word = ~bits[(b = (b & ~std::size_t{63}) - 1) >> 6];
        b = (b & ~std::size_t{63}) + 63 - __builtin_clzll(word);
        swapSlots(lo + a++, lo + b--);
    }
    return lo + failures;
}

void
StreamBank::swapSlots(std::size_t a, std::size_t b)
{
    for (unsigned w = 0; w < 4; ++w)
        std::swap(plane(w)[a], plane(w)[b]);
    std::swap(trials[a], trials[b]);
}

} // namespace qsa::runtime
