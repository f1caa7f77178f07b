// Batched lane-parallel Montgomery arithmetic: 16 INDEPENDENT operand
// sets, one per SIMD lane, advancing in lockstep.
//
// The kernel in vector_mont.hpp vectorizes WITHIN one multiplication
// (latency mode). This one vectorizes ACROSS multiplications (throughput
// mode): lane l carries the l-th base/accumulator, all lanes share the
// modulus and — crucially for RSA — the exponent, which is the server
// signing workload (same key, 16 messages). Every step of the column
// algorithm, including the per-lane quotient digit and the per-iteration
// ripple carry, is a lane-wise vector op; only the final normalization is
// scalar per lane.
//
// Layout: digit j of lane l lives at rep[j*16 + l] (digit-major,
// transposed), so one vector load fetches digit j of all 16 lanes.
//
// The context satisfies the generic Montgomery-context concept in
// modexp.hpp (Rep, Workspace, one_mont_rep, mul/sqr with and without a
// workspace), so the windowed exponentiation schedules are shared with the
// other three kernels rather than hand-cloned here.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "bigint/bigint.hpp"

namespace phissl::mont {

template <typename Ctx>
struct ExpWorkspace;

class BatchVectorMontCtx {
 public:
  static constexpr std::size_t kBatch = 16;

  /// Transposed batch residue: digits() * kBatch entries, digit-major.
  using Rep = std::vector<std::uint32_t>;

  /// Reusable scratch for mul/sqr/to_mont/from_mont. Not thread-safe.
  struct Workspace {
    std::vector<std::uint32_t> acc_lo, acc_hi;  // column accumulators
    Rep rep;                                    // residue-sized scratch
    std::vector<std::uint32_t> lane;            // one lane's digits
  };

  /// Builds the context for an odd modulus m > 1 shared by all lanes.
  /// Same digit-width constraints as VectorMontCtx.
  explicit BatchVectorMontCtx(const bigint::BigInt& m,
                              unsigned digit_bits = 27);

  /// Redundant-radix digit width (bits) chosen at construction.
  [[nodiscard]] unsigned digit_bits() const { return digit_bits_; }
  /// Digits per lane: ceil(modulus_bits / digit_bits).
  [[nodiscard]] std::size_t digits() const { return d_; }
  /// Words in one Rep: digits() * kBatch (all 16 lanes, transposed).
  [[nodiscard]] std::size_t rep_size() const { return d_ * kBatch; }
  /// The modulus every lane shares.
  [[nodiscard]] const bigint::BigInt& modulus() const { return m_; }

  /// Packs 16 values (each in [0, m)) into Montgomery form, one per lane.
  [[nodiscard]] Rep to_mont(std::span<const bigint::BigInt> xs) const;
  void to_mont(std::span<const bigint::BigInt> xs, Rep& out,
               Workspace& ws) const;

  /// Unpacks all 16 lanes out of Montgomery form.
  [[nodiscard]] std::array<bigint::BigInt, kBatch> from_mont(
      const Rep& a) const;
  void from_mont(const Rep& a, std::span<bigint::BigInt> out,
                 Workspace& ws) const;

  /// Montgomery form of 1 in every lane.
  [[nodiscard]] Rep one_mont() const { return one_m_; }
  [[nodiscard]] const Rep& one_mont_rep() const { return one_m_; }

  /// Lane-wise out[l] = a[l]*b[l]*R^-1 mod m. out may alias a or b.
  void mul(const Rep& a, const Rep& b, Rep& out) const;
  void mul(const Rep& a, const Rep& b, Rep& out, Workspace& ws) const;

  /// Lane-wise out[l] = a[l]^2*R^-1 mod m: mul's fused sweep schedule, but
  /// each off-diagonal pair touched once with a pre-doubled 2*a_i operand
  /// plus the diagonal (~3/4 the lane multiplies of mul at identical
  /// accumulator traffic).
  void sqr(const Rep& a, Rep& out) const;
  void sqr(const Rep& a, Rep& out, Workspace& ws) const;

  /// Lane-wise fixed-window exponentiation with a SHARED exponent:
  /// out[l] = base[l]^exp mod m. window <= 0 selects choose_window().
  /// Thin wrapper over the generic fixed_window_exp_rep in modexp.hpp.
  [[nodiscard]] Rep fixed_window_exp(const Rep& base,
                                     const bigint::BigInt& exp,
                                     int window = 0) const;

  /// Convenience: full-domain batch modexp over 16 bases.
  [[nodiscard]] std::array<bigint::BigInt, kBatch> mod_exp(
      std::span<const bigint::BigInt> bases, const bigint::BigInt& exp,
      int window = 0) const;

  /// Allocation-free full-domain batch modexp (after warm-up).
  void mod_exp(std::span<const bigint::BigInt> bases,
               const bigint::BigInt& exp, std::span<bigint::BigInt> out,
               ExpWorkspace<BatchVectorMontCtx>& ws, int window = 0) const;

 private:
  // Per-lane normalization and constant-time conditional subtract of the
  // result columns (acc rows d_ .. 2d_-1) into out.
  void finalize_lanes(const std::uint32_t* acc_lo, const std::uint32_t* acc_hi,
                      Rep& out) const;

  bigint::BigInt m_;
  unsigned digit_bits_;
  std::uint32_t digit_mask_;
  std::size_t d_;
  std::vector<std::uint32_t> n_;  // modulus digits (NOT transposed; shared)
  std::uint32_t n0_ = 0;
  bigint::BigInt rr_;
  Rep rr_rep_;     // R^2 mod m broadcast to every lane
  Rep one_plain_;  // plain 1 in every lane
  Rep one_m_;      // R mod m in every lane
};

/// 16-lane batched radix-2^52 Montgomery context with truncated REDC
/// (see DESIGN.md "Radix-52 truncated REDC") — the throughput-mode
/// sibling of mont::IfmaMontCtx, same layout contract
/// as BatchVectorMontCtx (digit-major transposed: digit j of lane l at
/// rep[j*16 + l], all lanes sharing modulus and exponent) but with 52-bit
/// digits in 64-bit words, two 8-lane zmm registers per digit row when the
/// vpmadd52 kernels are available, and the portable u128 instantiation of
/// the identical algorithm otherwise (gather lane -> generic kernel ->
/// scatter). Satisfies the modexp.hpp context concept.
class BatchIfmaMontCtx {
 public:
  static constexpr std::size_t kBatch = 16;

  /// Transposed batch residue: digits() * kBatch words, digit-major.
  using Rep = std::vector<std::uint64_t>;

  /// Reusable scratch for mul/sqr/to_mont/from_mont. Not thread-safe.
  struct Workspace {
    std::vector<std::uint64_t> pad, t, q;       // IFMA kernel scratch
    std::vector<unsigned __int128> cols;        // portable columns
    std::vector<std::uint64_t> la, lb, lt, lq;  // portable per-lane gather
    Rep rep;                                    // residue-sized scratch
    std::vector<std::uint32_t> u32;             // digit unpack scratch
  };

  /// Builds the context for an odd modulus m > 1 shared by all lanes.
  explicit BatchIfmaMontCtx(const bigint::BigInt& m,
                            bool force_portable = false);

  /// 52-bit digits per lane.
  [[nodiscard]] std::size_t digits() const { return d_; }
  /// Words in one Rep: digits() * kBatch (all 16 lanes, transposed).
  [[nodiscard]] std::size_t rep_size() const { return d_ * kBatch; }
  [[nodiscard]] const bigint::BigInt& modulus() const { return m_; }

  /// True when mul/sqr run the vpmadd52 batch kernels.
  [[nodiscard]] bool uses_ifma() const { return use_ifma_; }

  /// Packs 16 values (each in [0, m)) into Montgomery form, one per lane.
  [[nodiscard]] Rep to_mont(std::span<const bigint::BigInt> xs) const;
  void to_mont(std::span<const bigint::BigInt> xs, Rep& out,
               Workspace& ws) const;

  /// Unpacks all 16 lanes out of Montgomery form.
  [[nodiscard]] std::array<bigint::BigInt, kBatch> from_mont(
      const Rep& a) const;
  void from_mont(const Rep& a, std::span<bigint::BigInt> out,
                 Workspace& ws) const;

  /// Montgomery form of 1 in every lane.
  [[nodiscard]] Rep one_mont() const { return one_m_; }
  [[nodiscard]] const Rep& one_mont_rep() const { return one_m_; }

  /// Lane-wise out[l] = a[l]*b[l]*R^-1 mod m. out may alias a or b.
  void mul(const Rep& a, const Rep& b, Rep& out) const;
  void mul(const Rep& a, const Rep& b, Rep& out, Workspace& ws) const;

  /// Lane-wise out[l] = a[l]^2*R^-1 mod m (off-diagonal-once squaring).
  void sqr(const Rep& a, Rep& out) const;
  void sqr(const Rep& a, Rep& out, Workspace& ws) const;

  /// Lane-wise fixed-window exponentiation with a SHARED exponent.
  [[nodiscard]] Rep fixed_window_exp(const Rep& base,
                                     const bigint::BigInt& exp,
                                     int window = 0) const;

  /// Convenience: full-domain batch modexp over 16 bases.
  [[nodiscard]] std::array<bigint::BigInt, kBatch> mod_exp(
      std::span<const bigint::BigInt> bases, const bigint::BigInt& exp,
      int window = 0) const;

  /// Allocation-free full-domain batch modexp (after warm-up).
  void mod_exp(std::span<const bigint::BigInt> bases,
               const bigint::BigInt& exp, std::span<bigint::BigInt> out,
               ExpWorkspace<BatchIfmaMontCtx>& ws, int window = 0) const;

 private:
  void prepare(Workspace& ws) const;

  bigint::BigInt m_;
  std::size_t d_ = 0;
  bool use_ifma_ = false;
  // Modulus and -m^-1 mod beta^d (shared, plain digits), each between
  // zero digits the vpmadd52 kernels read past both ends.
  std::vector<std::uint64_t> n52_;
  std::vector<std::uint64_t> mu52_;
  Rep rr_rep_;     // R^2 mod m broadcast to every lane
  Rep one_plain_;  // plain 1 in every lane
  Rep one_m_;      // R mod m in every lane
};

}  // namespace phissl::mont
