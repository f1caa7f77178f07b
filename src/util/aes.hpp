// AES-128 block cipher (FIPS 197) and CBC mode with PKCS#7 padding: the
// symmetric half of the TLS record layer. AES-NI runs when
// util::cpu_features() reports it, else the constant-time bitsliced
// fallback in util/aes_generic.hpp, which src/ct/ certifies; neither loads
// from a table at a secret address. The round keys are wiped
// (util::secure_wipe) when the object dies.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace phissl::util {

class Aes {
 public:
  static constexpr std::size_t kBlockSize = 16;
  static constexpr std::size_t kKeySize = 16;

  /// Key must be 16 bytes (AES-128); throws std::invalid_argument
  /// otherwise. force_portable pins the bitsliced fallback.
  explicit Aes(std::span<const std::uint8_t> key, bool force_portable = false);
  ~Aes();

  Aes(const Aes&) = default;
  Aes& operator=(const Aes&) = default;

  /// Encrypts/decrypts exactly one 16-byte block, out may alias in.
  void encrypt_block(const std::uint8_t* in, std::uint8_t* out) const;
  void decrypt_block(const std::uint8_t* in, std::uint8_t* out) const;

  /// True when this key runs on AES-NI.
  [[nodiscard]] bool hardware() const { return hardware_; }

 private:
  bool hardware_;
  // AES-NI: 11 encryption then 11 decryption round keys of 16 bytes.
  // Fallback: 11 bitsliced round keys of eight planes. Both are 88 words.
  alignas(16) std::array<std::uint32_t, 88> rk_{};
};

/// CBC encryption with PKCS#7 padding. iv must be 16 bytes.
/// Output length = (plaintext length / 16 + 1) * 16.
std::vector<std::uint8_t> aes_cbc_encrypt(const Aes& cipher,
                                          std::span<const std::uint8_t> iv,
                                          std::span<const std::uint8_t> plaintext);

/// CBC decryption with a branch-free PKCS#7 unpad (no early exit on the
/// first bad pad byte — see the padding-oracle note in the .cpp). Throws
/// std::invalid_argument on a bad length. Returns true with the unpadded
/// plaintext in `out` when the padding validates; returns false with the
/// WHOLE decrypted buffer in `out` (zero-length-pad semantics, RFC 5246
/// §6.2.3.2) so MAC-then-encrypt callers can run their MAC check either
/// way and reject on one uniform signal.
bool aes_cbc_decrypt(const Aes& cipher, std::span<const std::uint8_t> iv,
                     std::span<const std::uint8_t> ciphertext,
                     std::vector<std::uint8_t>& out);

}  // namespace phissl::util
