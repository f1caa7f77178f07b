// Backend implementations for VecU32x16. Included by vec.hpp only.
#pragma once

#include <cassert>

namespace phissl::simd {

#if PHISSL_SIMD_AVX512

// GCC 12's avx512fintrin.h trips -Wuninitialized on its own internal
// _mm512_undefined_epi32 (GCC PR105593); silence it for this backend only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

inline VecU32x16 VecU32x16::zero() { return {_mm512_setzero_si512()}; }

inline VecU32x16 VecU32x16::broadcast(std::uint32_t x) {
  return {_mm512_set1_epi32(static_cast<int>(x))};
}

inline VecU32x16 VecU32x16::load(const std::uint32_t* p) {
  return {_mm512_loadu_si512(p)};
}

inline void VecU32x16::store(std::uint32_t* p) const {
  _mm512_storeu_si512(p, v);
}

inline std::uint32_t VecU32x16::lane(std::size_t i) const {
  assert(i < kLanes);
  alignas(64) std::uint32_t tmp[kLanes];
  _mm512_store_si512(tmp, v);
  return tmp[i];
}

inline std::array<std::uint32_t, VecU32x16::kLanes> VecU32x16::to_array()
    const {
  alignas(64) std::array<std::uint32_t, kLanes> out;
  _mm512_store_si512(out.data(), v);
  return out;
}

inline VecU32x16 add(VecU32x16 a, VecU32x16 b) {
  return {_mm512_add_epi32(a.v, b.v)};
}

inline VecU32x16 sub(VecU32x16 a, VecU32x16 b) {
  return {_mm512_sub_epi32(a.v, b.v)};
}

inline VecU32x16 mul_lo(VecU32x16 a, VecU32x16 b) {
  return {_mm512_mullo_epi32(a.v, b.v)};
}

inline VecU32x16 mul_hi(VecU32x16 a, VecU32x16 b) {
  // KNC had vpmulhud natively; AVX-512F does not, so emulate with two
  // 32x32->64 even-lane multiplies and re-interleave the high words.
  const __m512i even = _mm512_mul_epu32(a.v, b.v);
  const __m512i odd = _mm512_mul_epu32(_mm512_srli_epi64(a.v, 32),
                                       _mm512_srli_epi64(b.v, 32));
  const __m512i even_hi = _mm512_srli_epi64(even, 32);
  const __m512i odd_hi =
      _mm512_and_si512(odd, _mm512_set1_epi64(static_cast<long long>(
                                0xffffffff00000000ULL)));
  return {_mm512_or_si512(even_hi, odd_hi)};
}

inline VecU32x16 bit_and(VecU32x16 a, VecU32x16 b) {
  return {_mm512_and_si512(a.v, b.v)};
}

inline VecU32x16 bit_or(VecU32x16 a, VecU32x16 b) {
  return {_mm512_or_si512(a.v, b.v)};
}

inline VecU32x16 shr(VecU32x16 a, unsigned s) {
  return {_mm512_srli_epi32(a.v, s)};
}

inline VecU32x16 shl(VecU32x16 a, unsigned s) {
  return {_mm512_slli_epi32(a.v, s)};
}

inline Mask16 cmp_lt_u32(VecU32x16 a, VecU32x16 b) {
  return _mm512_cmplt_epu32_mask(a.v, b.v);
}

inline VecU32x16 select(Mask16 mask, VecU32x16 a, VecU32x16 b) {
  return {_mm512_mask_blend_epi32(mask, b.v, a.v)};
}

inline VecU32x16 masked_add(Mask16 mask, VecU32x16 a, VecU32x16 b) {
  return {_mm512_mask_add_epi32(a.v, mask, a.v, b.v)};
}

#pragma GCC diagnostic pop

#else  // portable scalar backend

inline VecU32x16 VecU32x16::zero() { return {{}}; }

inline VecU32x16 VecU32x16::broadcast(std::uint32_t x) {
  VecU32x16 r;
  r.v.fill(x);
  return r;
}

inline VecU32x16 VecU32x16::load(const std::uint32_t* p) {
  VecU32x16 r;
  for (std::size_t i = 0; i < kLanes; ++i) r.v[i] = p[i];
  return r;
}

inline void VecU32x16::store(std::uint32_t* p) const {
  for (std::size_t i = 0; i < kLanes; ++i) p[i] = v[i];
}

inline std::uint32_t VecU32x16::lane(std::size_t i) const {
  assert(i < kLanes);
  return v[i];
}

inline std::array<std::uint32_t, VecU32x16::kLanes> VecU32x16::to_array()
    const {
  return v;
}

inline VecU32x16 add(VecU32x16 a, VecU32x16 b) {
  VecU32x16 r;
  for (std::size_t i = 0; i < VecU32x16::kLanes; ++i) r.v[i] = a.v[i] + b.v[i];
  return r;
}

inline VecU32x16 sub(VecU32x16 a, VecU32x16 b) {
  VecU32x16 r;
  for (std::size_t i = 0; i < VecU32x16::kLanes; ++i) r.v[i] = a.v[i] - b.v[i];
  return r;
}

inline VecU32x16 mul_lo(VecU32x16 a, VecU32x16 b) {
  VecU32x16 r;
  for (std::size_t i = 0; i < VecU32x16::kLanes; ++i) r.v[i] = a.v[i] * b.v[i];
  return r;
}

inline VecU32x16 mul_hi(VecU32x16 a, VecU32x16 b) {
  VecU32x16 r;
  for (std::size_t i = 0; i < VecU32x16::kLanes; ++i) {
    r.v[i] = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(a.v[i]) * b.v[i]) >> 32);
  }
  return r;
}

inline VecU32x16 bit_and(VecU32x16 a, VecU32x16 b) {
  VecU32x16 r;
  for (std::size_t i = 0; i < VecU32x16::kLanes; ++i) r.v[i] = a.v[i] & b.v[i];
  return r;
}

inline VecU32x16 bit_or(VecU32x16 a, VecU32x16 b) {
  VecU32x16 r;
  for (std::size_t i = 0; i < VecU32x16::kLanes; ++i) r.v[i] = a.v[i] | b.v[i];
  return r;
}

inline VecU32x16 shr(VecU32x16 a, unsigned s) {
  VecU32x16 r;
  for (std::size_t i = 0; i < VecU32x16::kLanes; ++i) r.v[i] = a.v[i] >> s;
  return r;
}

inline VecU32x16 shl(VecU32x16 a, unsigned s) {
  VecU32x16 r;
  for (std::size_t i = 0; i < VecU32x16::kLanes; ++i) r.v[i] = a.v[i] << s;
  return r;
}

inline Mask16 cmp_lt_u32(VecU32x16 a, VecU32x16 b) {
  Mask16 m = 0;
  for (std::size_t i = 0; i < VecU32x16::kLanes; ++i) {
    if (a.v[i] < b.v[i]) m = static_cast<Mask16>(m | (1u << i));
  }
  return m;
}

inline VecU32x16 select(Mask16 mask, VecU32x16 a, VecU32x16 b) {
  VecU32x16 r;
  for (std::size_t i = 0; i < VecU32x16::kLanes; ++i) {
    r.v[i] = (mask & (1u << i)) ? a.v[i] : b.v[i];
  }
  return r;
}

inline VecU32x16 masked_add(Mask16 mask, VecU32x16 a, VecU32x16 b) {
  VecU32x16 r = a;
  for (std::size_t i = 0; i < VecU32x16::kLanes; ++i) {
    if (mask & (1u << i)) r.v[i] = a.v[i] + b.v[i];
  }
  return r;
}

#endif  // backend

}  // namespace phissl::simd
