// Deliberately violating fixture for the kernel-tier rule.

#include "ml/simd.hh"

void
pinnedServe()
{
    const adrias::ml::ScopedKernelTier pin(adrias::ml::KernelTier::Vector);
    adrias::ml::setKernelTier(adrias::ml::KernelTier::Scalar);
    if (adrias::ml::effectiveKernelTier() == adrias::ml::KernelTier::Vector)
        return;
    // A mention that is not a call is not a dispatch.
    auto *probe = &adrias::ml::effectiveKernelTier;
    (void)probe;
    // NOLINTNEXTLINE(kernel-tier)
    adrias::ml::setKernelTier(adrias::ml::KernelTier::Vector);
}
