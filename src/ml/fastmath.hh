/**
 * @file
 * Inline transcendentals for the ML hot path (DESIGN.md §11).
 *
 * The LSTM gate loop evaluates five sigmoid/tanh per cell per step;
 * through libm each is an opaque PLT call that blocks inlining and
 * vectorization and dominates the forward pass.  These replacements
 * use the textbook reduction exp(x) = 2^n * exp(r) with a two-part
 * ln 2, a degree-12 Taylor polynomial on |r| <= ln2/2 (error below
 * one ulp), and bit-level 2^n scaling, so the whole gate computation
 * inlines into one straight-line loop.
 *
 * They are NOT bitwise-identical to libm (last-ulp differences), so
 * every consumer of a nonlinearity goes through these helpers — the
 * LSTM gate loops, and the loop oracle the tests check them against —
 * which keeps the two equal bit for bit (same scalar function, same
 * evaluation order).
 *
 * Domain notes: expNeg requires x <= 0 (the sign-split callers only
 * ever need decaying exponentials), returns 0 below -708 (the libm
 * result there is at most 3e-308), propagates NaN, and is exact at 0.
 */

#ifndef ADRIAS_ML_FASTMATH_HH
#define ADRIAS_ML_FASTMATH_HH

#include <bit>
#include <cmath>
#include <cstdint>

namespace adrias::ml::fastmath
{

/** exp(x) for x <= 0; 0 below -708; NaN propagates. */
inline double
expNeg(double x)
{
    if (!(x > -708.0))
        return std::isnan(x) ? x : 0.0;
    // Round x/ln2 to the nearest integer with the 1.5*2^52 trick:
    // adding the magic constant pushes the integer part into the low
    // mantissa bits (round-to-nearest-even), branch-free.
    constexpr double kMagic = 6755399441055744.0; // 1.5 * 2^52
    constexpr double kLog2e = 1.4426950408889634074;
    constexpr double kLn2Hi = 6.93147180369123816490e-01;
    constexpr double kLn2Lo = 1.90821492927058770002e-10;
    const double shifted = x * kLog2e + kMagic;
    const auto n = static_cast<std::int32_t>(
        static_cast<std::uint32_t>(std::bit_cast<std::uint64_t>(shifted)));
    const double nd = shifted - kMagic;
    const double r = (x - nd * kLn2Hi) - nd * kLn2Lo;

    // Taylor to r^12/12! on |r| <= ln2/2: remainder < 2e-16 relative.
    double p = 1.0 / 479001600.0; // 1/12!
    p = p * r + 1.0 / 39916800.0;
    p = p * r + 1.0 / 3628800.0;
    p = p * r + 1.0 / 362880.0;
    p = p * r + 1.0 / 40320.0;
    p = p * r + 1.0 / 5040.0;
    p = p * r + 1.0 / 720.0;
    p = p * r + 1.0 / 120.0;
    p = p * r + 1.0 / 24.0;
    p = p * r + 1.0 / 6.0;
    p = p * r + 0.5;
    p = p * r + 1.0;
    p = p * r + 1.0;

    // 2^n by exponent-field construction: x > -708 keeps n >= -1021,
    // so the scale and the product both stay normal.
    const double scale = std::bit_cast<double>(
        static_cast<std::uint64_t>(1023 + n) << 52);
    return p * scale;
}

/** expm1(r) for -0.25 <= r <= 0, cancellation-free (no 1-e subtract). */
inline double
expm1SmallNeg(double r)
{
    // Taylor through r^12/12!; remainder < 1e-17 of the result for
    // |r| <= 0.25.
    double p = 1.0 / 479001600.0;
    p = p * r + 1.0 / 39916800.0;
    p = p * r + 1.0 / 3628800.0;
    p = p * r + 1.0 / 362880.0;
    p = p * r + 1.0 / 40320.0;
    p = p * r + 1.0 / 5040.0;
    p = p * r + 1.0 / 720.0;
    p = p * r + 1.0 / 120.0;
    p = p * r + 1.0 / 24.0;
    p = p * r + 1.0 / 6.0;
    p = p * r + 0.5;
    p = p * r + 1.0;
    return p * r;
}

/**
 * Logistic sigmoid, sign-split so the exponential always decays:
 * 1/(1+e) for x >= 0, e/(1+e) below.  The numerator is selected
 * first, so a vectorized gate loop divides once per element, not once
 * per arm; the quotient's operands, and so its bits, are the same.
 */
inline double
sigmoid(double x)
{
    const double e = expNeg(-std::fabs(x));
    return (x >= 0.0 ? 1.0 : e) / (1.0 + e);
}

/**
 * tanh via exp(-2|x|); cancellation-free near zero via expm1.  Like
 * sigmoid, each arm only selects its numerator and denominator, and
 * the one division comes after.
 */
inline double
tanh(double x)
{
    const double a2 = 2.0 * std::fabs(x);
    double num;
    double den;
    if (a2 <= 0.25) {
        // (1-e)/(1+e) == -em1/(2+em1); avoids the 1-e cancellation
        // that would cost ~half the digits for small |x|.
        const double em1 = expm1SmallNeg(-a2);
        num = -em1;
        den = 2.0 + em1;
    } else {
        const double e = expNeg(-a2);
        num = 1.0 - e;
        den = 1.0 + e;
    }
    return std::copysign(num / den, x);
}

} // namespace adrias::ml::fastmath

#endif // ADRIAS_ML_FASTMATH_HH
