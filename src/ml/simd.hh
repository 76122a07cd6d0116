/**
 * @file
 * The AVX2 clones of the scalar kernels (DESIGN.md §11.1).
 *
 * The ML hot loops in matrix.cc and lstm.cc are built twice from one
 * source (ADRIAS_SCALAR_CLONES below): a baseline body and an AVX2
 * body without FMA, one of which the loader's ifunc resolver binds for
 * the whole process.  Both run the same IEEE operations in the same
 * order, so they return the same bits: goldens, checkpoints and the
 * trained-weight digest are reproducible bit for bit across hosts,
 * whichever clone runs.
 *
 * cmake -DADRIAS_SIMD=OFF builds only the baseline body, which is how
 * CI runs that body on an AVX2 runner.  No source file includes an
 * intrinsics header or names an intrinsic (the `raw-intrinsics` lint
 * rule), and ISA attributes appear only here and in
 * ml/{matrix,lstm}.cc, naming "avx2" and "default" alone (the
 * `isa-clones` lint rule).
 */

#ifndef ADRIAS_ML_SIMD_HH
#define ADRIAS_ML_SIMD_HH

#if !defined(ADRIAS_SIMD_ENABLED)
#define ADRIAS_SIMD_ENABLED 1
#endif

/** 1 when the AVX2 clones are compiled: -DADRIAS_SIMD=ON, x86-64,
 *  GCC or Clang. */
#if ADRIAS_SIMD_ENABLED && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define ADRIAS_SIMD_X86 1
#else
#define ADRIAS_SIMD_X86 0
#endif

/**
 * Marks a scalar kernel (a whole loop nest, so the indirect call is
 * paid once per kernel call, not per row) to be compiled twice from
 * the same source: the baseline ISA and AVX2 *without* FMA, chosen at
 * load time by an ifunc resolver.  The AVX2 body may only widen the
 * loops to 4 lanes: with no FMA there is nothing to contract a mul+add
 * into, and the translation units that use it build with
 * -ffp-contract=off and without -ffast-math, so no operation is fused
 * or reassociated and both bodies return the same bits.  Without the
 * AVX2 clones (-DADRIAS_SIMD=OFF, non-x86) only the baseline body is
 * built.
 */
#if ADRIAS_SIMD_X86
#define ADRIAS_SCALAR_CLONES \
    __attribute__((target_clones("avx2", "default")))
#else
#define ADRIAS_SCALAR_CLONES
#endif

#endif // ADRIAS_ML_SIMD_HH
