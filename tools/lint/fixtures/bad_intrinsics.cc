// Deliberately violating fixture for the raw-intrinsics rule.

#include <emmintrin.h>

void
leakyKernel(const double *x, double *out)
{
    __m128d v = _mm_loadu_pd(x);
    v = _mm_add_pd(v, v);
    _mm_storeu_pd(out, v);
    // NOLINTNEXTLINE(raw-intrinsics)
    const __m128d escaped = _mm_setzero_pd();
    (void)escaped;
}
