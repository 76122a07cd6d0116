// Deliberately violating fixture for the isa-clones rule.

#include <cstddef>

__attribute__((target_clones("avx2", "default"))) void
cloned(double *out, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] += 1.0;
}

__attribute__((target_clones("avx2,fma", "default"))) void fused(double *);
__attribute__((target("arch=haswell"))) void tuned(double *);
[[gnu::target("avx2")]] void widened(double *);
#pragma GCC target("fma")
// A variable named target is not an ISA request.
double target(3.0);
// NOLINTNEXTLINE(isa-clones)
__attribute__((target("avx512f"))) void waived(double *);
