/**
 * @file
 * A bank of per-trial random streams, stored as a structure of arrays.
 *
 * Every ensemble trial m draws from its own stream Rng(seed).split(m)
 * (ensemble.hh). A Resimulate walk draws for a group of trials at a
 * time: one bernoulli per trial at each measured qubit of the tail,
 * with one probability shared by the group, and one uniform per trial
 * for each readout of the group, at its leaf and at every tap it
 * passes, peeked rather than drawn (peekUniform). The bank keeps each
 * trial's four xoshiro256** words in four planes and its trial index
 * beside them (36 bytes a slot), so seeding, discarding and drawing
 * are loops over a contiguous slot range. Each loop steps each stream
 * exactly as Rng::next does, through the one definition in
 * common/rng.hh, so a slot's draws are its Rng's draw for draw.
 *
 * A walk node owns a contiguous slot range; a measurement partitions
 * the range in place, so a split hands each branch a sub-range and
 * never copies a stream.
 */

#ifndef QSA_RUNTIME_STREAMS_HH
#define QSA_RUNTIME_STREAMS_HH

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/rng.hh"

namespace qsa::runtime
{

/**
 * The integer form of Rng::bernoulli(p): a draw d is a success
 * exactly when (d >> 11) < bernoulliThreshold(p). uniform() is
 * k * 2^-53 for the integer k = d >> 11, and scaling by 2^53 is
 * exact, so k * 2^-53 < p holds exactly when k < ceil(p * 2^53).
 * Zero, negative and NaN p give 0 (never); p >= 1 gives 2^53
 * (always).
 */
std::uint64_t bernoulliThreshold(double p);

/** See file comment. */
class StreamBank
{
  public:
    /** Most slots one bank holds (a trial index fits 32 bits). */
    static constexpr std::size_t kMaxSlots = 8192;

    /**
     * Replace the bank's contents with `count` slots (at most
     * kMaxSlots): slot i holds Rng(seed).split(first + i), unused,
     * and trial index i.
     */
    void seed(std::uint64_t seed, std::uint64_t first, std::size_t count);

    /** Number of slots. */
    std::size_t size() const { return slots; }

    /** Trial index of `slot` (its position when seeded). */
    std::uint32_t trial(std::size_t slot) const { return trials[slot]; }

    /** Advance the stream of every slot in [lo, hi) by `draws`. */
    void discard(std::size_t lo, std::size_t hi, std::size_t draws);

    /**
     * One draw per slot of [lo, hi), a success when it passes
     * `threshold` (bernoulliThreshold). Reorders the range so the
     * failures come first and returns where the successes start (hi
     * when none succeeded). Slots keep their streams and trial
     * indices; only their order within the range changes.
     */
    std::size_t partition(std::size_t lo, std::size_t hi,
                          std::uint64_t threshold);

    /**
     * The uniform [0, 1) the next draw of `slot`'s stream would give
     * (Rng::uniform), leaving the stream where it is: a Resimulate
     * trial's readout draw. A walk reads a tap out with it and walks
     * on, so the trial's later draws, and its own readout, are those
     * of a walk without the tap.
     */
    double
    peekUniform(std::size_t slot) const
    {
        std::uint64_t a = plane(0)[slot], b = plane(1)[slot],
                      c = plane(2)[slot], d = plane(3)[slot];
        return detail::unitInterval(detail::xoshiroStep(a, b, c, d));
    }

  private:
    std::size_t slots = 0;

    /** The xoshiro256** words: word w of slot i at w * size() + i.
     *  seed() allocates both arrays unfilled and writes every entry. */
    std::unique_ptr<std::uint64_t[]> words;

    std::unique_ptr<std::uint32_t[]> trials;

    /** The four word planes. */
    std::uint64_t *plane(unsigned w) { return words.get() + w * slots; }
    const std::uint64_t *
    plane(unsigned w) const
    {
        return words.get() + w * slots;
    }

    void swapSlots(std::size_t a, std::size_t b);
};

} // namespace qsa::runtime

#endif // QSA_RUNTIME_STREAMS_HH
