// Private: fixed-width 4-lane vector types for the comparison kernels.
//
// Both implementations expose the same operations over exactly 4 double
// lanes, and every kernel in simd_kernels_impl.hpp is a template over the
// lane type — so the AVX2 build and the scalar fallback execute the same
// per-element operations in the same order and produce bit-identical
// results. That is the determinism contract the pre-execution pool and the
// SIMD-vs-scalar tests rely on; widening the logical vector width would
// change reduction order and break it. Only the simd_kernels*.cpp TUs may
// include this header (the AVX2 one is the only TU compiled with -mavx2,
// keeping the intrinsics out of every other translation unit).
#pragma once

#include <cstddef>

#if defined(__AVX2__) && !defined(RCK_SIMD_DISABLE)
#define RCK_SIMD_HAVE_AVX2 1
#include <immintrin.h>
#endif

namespace rck::core::kern {

inline constexpr std::size_t kLanes = 4;

/// Portable 4-lane mask (result of lane-wise comparisons). The AVX2 type
/// uses the native all-ones/all-zeros __m256d representation instead; both
/// are consumed only through V::blend, which has identical per-lane
/// semantics: `blend(ge(a, b), t, f)` selects exactly like the scalar
/// ternary `(a >= b) ? t : f`, including on signed zeros (where max_pd
/// would not) and NaNs (GE is false -> f, as in the scalar comparison).
struct M4Scalar {
  bool m[4];
};

/// Portable 4-lane "vector": plain doubles, same lane semantics as V4Avx.
/// Compilers typically auto-vectorize it with whatever ISA the TU allows,
/// which is fine — per-lane IEEE add/mul/div results do not depend on the
/// instruction encoding (FMA contraction is disabled build-wide).
struct V4Scalar {
  double l[4];

  static V4Scalar broadcast(double v) noexcept { return {{v, v, v, v}}; }
  static V4Scalar load(const double* p) noexcept {
    return {{p[0], p[1], p[2], p[3]}};
  }
  void store(double* p) const noexcept {
    p[0] = l[0];
    p[1] = l[1];
    p[2] = l[2];
    p[3] = l[3];
  }

  friend V4Scalar operator+(const V4Scalar& a, const V4Scalar& b) noexcept {
    return {{a.l[0] + b.l[0], a.l[1] + b.l[1], a.l[2] + b.l[2], a.l[3] + b.l[3]}};
  }
  friend V4Scalar operator-(const V4Scalar& a, const V4Scalar& b) noexcept {
    return {{a.l[0] - b.l[0], a.l[1] - b.l[1], a.l[2] - b.l[2], a.l[3] - b.l[3]}};
  }
  friend V4Scalar operator*(const V4Scalar& a, const V4Scalar& b) noexcept {
    return {{a.l[0] * b.l[0], a.l[1] * b.l[1], a.l[2] * b.l[2], a.l[3] * b.l[3]}};
  }
  friend V4Scalar operator/(const V4Scalar& a, const V4Scalar& b) noexcept {
    return {{a.l[0] / b.l[0], a.l[1] / b.l[1], a.l[2] / b.l[2], a.l[3] / b.l[3]}};
  }

  /// Fixed-order horizontal sum: (l0 + l1) + (l2 + l3).
  double hsum() const noexcept { return (l[0] + l[1]) + (l[2] + l[3]); }

  // --- Lane-shuffling / select operations (NW wavefront + batch DP) ------
  using Mask = M4Scalar;

  static V4Scalar set(double a, double b, double c, double d) noexcept {
    return {{a, b, c, d}};
  }
  /// Lane-wise a >= b (ordered; false on NaN, exactly like the scalar >=).
  static Mask ge(const V4Scalar& a, const V4Scalar& b) noexcept {
    return {{a.l[0] >= b.l[0], a.l[1] >= b.l[1], a.l[2] >= b.l[2],
             a.l[3] >= b.l[3]}};
  }
  /// Lane-wise select: m ? t : f.
  static V4Scalar blend(const Mask& m, const V4Scalar& t,
                        const V4Scalar& f) noexcept {
    return {{m.m[0] ? t.l[0] : f.l[0], m.m[1] ? t.l[1] : f.l[1],
             m.m[2] ? t.l[2] : f.l[2], m.m[3] ? t.l[3] : f.l[3]}};
  }
  /// [x, v0, v1, v2]: shift lanes up by one, inserting x at lane 0 (the
  /// cross-lane hand-off of the anti-diagonal wavefront).
  static V4Scalar shift_in(const V4Scalar& v, double x) noexcept {
    return {{x, v.l[0], v.l[1], v.l[2]}};
  }
  /// Strided gather: lane r = p[r * stride].
  static V4Scalar gather(const double* p, std::ptrdiff_t stride) noexcept {
    return {{p[0], p[stride], p[2 * stride], p[3 * stride]}};
  }
  /// Strided scatter: p[r * stride] = lane r.
  void scatter(double* p, std::ptrdiff_t stride) const noexcept {
    p[0] = l[0];
    p[stride] = l[1];
    p[2 * stride] = l[2];
    p[3 * stride] = l[3];
  }
  double lane(std::size_t k) const noexcept { return l[k]; }
};

#if defined(RCK_SIMD_HAVE_AVX2)

struct V4Avx {
  __m256d v;

  static V4Avx broadcast(double x) noexcept { return {_mm256_set1_pd(x)}; }
  static V4Avx load(const double* p) noexcept { return {_mm256_loadu_pd(p)}; }
  void store(double* p) const noexcept { _mm256_storeu_pd(p, v); }

  friend V4Avx operator+(const V4Avx& a, const V4Avx& b) noexcept {
    return {_mm256_add_pd(a.v, b.v)};
  }
  friend V4Avx operator-(const V4Avx& a, const V4Avx& b) noexcept {
    return {_mm256_sub_pd(a.v, b.v)};
  }
  friend V4Avx operator*(const V4Avx& a, const V4Avx& b) noexcept {
    return {_mm256_mul_pd(a.v, b.v)};
  }
  friend V4Avx operator/(const V4Avx& a, const V4Avx& b) noexcept {
    return {_mm256_div_pd(a.v, b.v)};
  }

  double hsum() const noexcept {
    alignas(32) double t[4];
    _mm256_store_pd(t, v);
    return (t[0] + t[1]) + (t[2] + t[3]);
  }

  // --- Lane-shuffling / select operations (NW wavefront + batch DP) ------
  /// Comparison results are carried as the native all-ones/all-zeros mask.
  using Mask = V4Avx;

  static V4Avx set(double a, double b, double c, double d) noexcept {
    return {_mm256_setr_pd(a, b, c, d)};
  }
  /// _CMP_GE_OQ matches the scalar >= exactly: ordered (false on NaN) and
  /// true on -0.0 >= +0.0.
  static Mask ge(const V4Avx& a, const V4Avx& b) noexcept {
    return {_mm256_cmp_pd(a.v, b.v, _CMP_GE_OQ)};
  }
  /// blendv picks t where the mask is set, f elsewhere — bit-exact select,
  /// unlike max_pd (which differs from the scalar ternary on signed zeros).
  static V4Avx blend(const Mask& m, const V4Avx& t, const V4Avx& f) noexcept {
    return {_mm256_blendv_pd(f.v, t.v, m.v)};
  }
  static V4Avx shift_in(const V4Avx& v, double x) noexcept {
    // [v0, v0, v1, v2] then replace lane 0 with x.
    const __m256d up = _mm256_permute4x64_pd(v.v, 0x90);
    return {_mm256_blend_pd(up, _mm256_set1_pd(x), 0x1)};
  }
  static V4Avx gather(const double* p, std::ptrdiff_t stride) noexcept {
    return {_mm256_setr_pd(p[0], p[stride], p[2 * stride], p[3 * stride])};
  }
  void scatter(double* p, std::ptrdiff_t stride) const noexcept {
    const __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    _mm_storel_pd(p, lo);
    _mm_storeh_pd(p + stride, lo);
    _mm_storel_pd(p + 2 * stride, hi);
    _mm_storeh_pd(p + 3 * stride, hi);
  }
  double lane(std::size_t k) const noexcept {
    alignas(32) double t[4];
    _mm256_store_pd(t, v);
    return t[k];
  }
};

#endif  // RCK_SIMD_HAVE_AVX2

}  // namespace rck::core::kern
