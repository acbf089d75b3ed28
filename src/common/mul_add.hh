/**
 * @file
 * Multiply-add whose rounding the build target fixes, not the optimizer.
 *
 * With an FMA unit in the target, GCC and Clang may contract `c + a * b`
 * into one fused, singly-rounded instruction — or not, depending on the
 * optimization level and the tuning (GCC's Zen tunings keep a
 * loop-carried `v += a * b` unfused). Code that must repeat another
 * path's IEEE results bit for bit, such as the Viola-Jones table and
 * lane scans against Cascade::classifyWindow, calls mulAdd instead: it
 * is fused exactly when the translation unit is compiled with FMA
 * (`__FMA__`), and two roundings otherwise.
 */

#ifndef INCAM_COMMON_MUL_ADD_HH
#define INCAM_COMMON_MUL_ADD_HH

#include <cmath>

namespace incam {

/** Whether mulAdd rounds once (the target has FMA). */
#ifdef __FMA__
inline constexpr bool kFusedMulAdd = true;
#else
inline constexpr bool kFusedMulAdd = false;
#endif

/** a * b + c: fused iff kFusedMulAdd. */
inline double
mulAdd(double a, double b, double c)
{
    if constexpr (kFusedMulAdd) {
        return std::fma(a, b, c);
    } else {
        // No FMA instruction in the target, so nothing can contract this.
        return a * b + c;
    }
}

} // namespace incam

#endif // INCAM_COMMON_MUL_ADD_HH
