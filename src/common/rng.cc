#include "common/rng.hh"

#include <cmath>

#include "common/io/binary.hh"
#include "common/logging.hh"

namespace adrias
{

namespace
{

/** splitmix64 step, used to expand the seed into generator state. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed) : cachedGaussian(0.0)
{
    std::uint64_t sm = seed;
    for (auto &word : state)
        word = splitmix64(sm);
}

std::uint64_t
Rng::nextU64()
{
    const std::uint64_t result = rotl(state[1] * 5, 7) * 9;
    const std::uint64_t t = state[1] << 17;

    state[2] ^= state[0];
    state[3] ^= state[1];
    state[1] ^= state[2];
    state[0] ^= state[3];
    state[2] ^= t;
    state[3] = rotl(state[3], 45);

    return result;
}

double
Rng::uniform()
{
    // 53 random mantissa bits -> uniform double in [0, 1).
    return static_cast<double>(nextU64() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    if (lo > hi)
        panic("uniformInt: lo > hi");
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) // full 64-bit range
        return static_cast<std::int64_t>(nextU64());
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = UINT64_MAX - UINT64_MAX % span;
    std::uint64_t draw;
    do {
        draw = nextU64();
    } while (draw >= limit);
    return lo + static_cast<std::int64_t>(draw % span);
}

double
Rng::gaussian()
{
    if (hasCachedGaussian) {
        hasCachedGaussian = false;
        return cachedGaussian;
    }
    const auto [u1, u2] = boxMullerUniforms();
    const auto [first, second] = boxMullerPair(boxMullerRadius(u1), u2);
    cachedGaussian = second;
    hasCachedGaussian = true;
    return first;
}

std::pair<double, double>
Rng::boxMullerUniforms()
{
    double u1;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    return {u1, uniform()};
}

double
boxMullerRadius(double u1)
{
    return std::sqrt(-2.0 * std::log(u1));
}

std::pair<double, double>
boxMullerPair(double radius, double u2)
{
    const double angle = 2.0 * M_PI * u2;
    return {radius * std::cos(angle), radius * std::sin(angle)};
}

double
Rng::gaussian(double mean, double stddev)
{
    return mean + stddev * gaussian();
}

bool
Rng::bernoulli(double probability)
{
    if (probability <= 0.0)
        return false;
    if (probability >= 1.0)
        return true;
    return uniform() < probability;
}

void
Rng::saveState(io::BinaryWriter &out) const
{
    for (std::uint64_t word : state)
        out.writeU64(word);
    out.writeF64(cachedGaussian);
    out.writeBool(hasCachedGaussian);
}

void
Rng::restoreState(io::BinaryReader &in)
{
    for (auto &word : state)
        word = in.readU64();
    cachedGaussian = in.readF64();
    hasCachedGaussian = in.readBool();
}

} // namespace adrias
