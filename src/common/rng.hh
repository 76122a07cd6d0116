/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Everything stochastic in the library (scenario arrivals, workload
 * selection, dropout masks, weight initialization) draws from an Rng so
 * experiments are reproducible from a single seed.  The core generator is
 * xoshiro256**, seeded via splitmix64 as its authors recommend.
 */

#ifndef ADRIAS_COMMON_RNG_HH
#define ADRIAS_COMMON_RNG_HH

#include <cstdint>
#include <utility>
#include <vector>

namespace adrias
{

namespace io
{
class BinaryWriter;
class BinaryReader;
} // namespace io

/**
 * A small, fast, seedable random number generator (xoshiro256**).
 *
 * Not cryptographically secure; intended for simulation reproducibility.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (any value, including 0, is valid). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** @return the next raw 64-bit value. */
    std::uint64_t nextU64();

    /** @return a double uniformly distributed in [0, 1). */
    double uniform();

    /** @return a double uniformly distributed in [lo, hi). */
    double uniform(double lo, double hi);

    /**
     * @return an integer uniformly distributed in [lo, hi] inclusive.
     * @pre lo <= hi
     */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /**
     * @return a sample from the standard normal distribution N(0, 1):
     *         the first variate of a Box-Muller pair, then the second.
     */
    double gaussian();

    /**
     * Draw the uniforms of one Box-Muller pair, as gaussian() does:
     * u1 in (0, 1) (zero draws rejected), then u2 in [0, 1).
     */
    std::pair<double, double> boxMullerUniforms();

    /** @return a sample from N(mean, stddev^2). */
    double gaussian(double mean, double stddev);

    /** @return true with the given probability (clamped to [0, 1]). */
    bool bernoulli(double probability);

    /**
     * Serialize the exact stream position: the four xoshiro256** state
     * words plus the cached Box-Muller variate.  A restored generator
     * continues the sequence bit-for-bit where the saved one stopped —
     * gaussian() draws included.
     */
    void saveState(io::BinaryWriter &out) const;

    /** Restore a position saved with saveState(). */
    void restoreState(io::BinaryReader &in);

    /** Fisher-Yates shuffle of an index container. */
    template <typename Container>
    void
    shuffle(Container &items)
    {
        if (items.size() < 2)
            return;
        for (std::size_t i = items.size() - 1; i > 0; --i) {
            auto j = static_cast<std::size_t>(
                uniformInt(0, static_cast<std::int64_t>(i)));
            std::swap(items[i], items[j]);
        }
    }

  private:
    std::uint64_t state[4];

    /** Cached second Box-Muller variate (NaN when absent). */
    double cachedGaussian;
    bool hasCachedGaussian = false;
};

/**
 * @return the Box-Muller radius sqrt(-2 ln u1).  Both variates of the
 *         pair have magnitude at most this, in floating point too:
 *         |cos| and |sin| never exceed 1, and rounding is monotone.
 */
double boxMullerRadius(double u1);

/**
 * @return the Box-Muller pair {radius cos(2 pi u2), radius sin(2 pi u2)}
 *         in the order gaussian() returns them.
 */
std::pair<double, double> boxMullerPair(double radius, double u2);

} // namespace adrias

#endif // ADRIAS_COMMON_RNG_HH
