#include "ssl/record.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#include "ssl/prf.hpp"
#include "util/ct_bytes.hpp"
#include "util/wipe.hpp"

namespace phissl::ssl {

namespace {
constexpr std::uint8_t kVersionMajor = 3;  // TLS 1.2
constexpr std::uint8_t kVersionMinor = 3;
}  // namespace

RecordChannel::RecordChannel(std::span<const std::uint8_t> enc_key,
                             std::span<const std::uint8_t> mac_key)
    : cipher_(enc_key), mac_(mac_key) {}

RecordChannel::~RecordChannel() {
  // The midstates are a function of the MAC key alone, so they are as
  // secret as the key they replace.
  static_assert(std::is_trivially_destructible_v<util::HmacSha256>);
  util::secure_wipe(&mac_, sizeof mac_);
}

std::array<std::uint8_t, 32> RecordChannel::mac_header(
    std::uint64_t seq, std::uint8_t type, std::size_t len,
    const std::uint8_t* data, std::size_t n) const {
  // MAC(seq_num || type || version || length || fragment), RFC 5246 §6.2.3.1.
  util::HmacSha256 h = mac_;
  std::uint8_t header[13];
  for (int i = 0; i < 8; ++i) {
    header[i] = static_cast<std::uint8_t>(seq >> (56 - 8 * i));
  }
  header[8] = type;
  header[9] = kVersionMajor;
  header[10] = kVersionMinor;
  header[11] = static_cast<std::uint8_t>(len >> 8);
  header[12] = static_cast<std::uint8_t>(len);
  h.update(std::span<const std::uint8_t>(header, 13));
  h.update(std::span<const std::uint8_t>(data, n));
  return h.finish();
}

std::vector<std::uint8_t> RecordChannel::seal(
    std::uint8_t content_type, std::span<const std::uint8_t> plaintext,
    util::Rng& rng) {
  if (seal_seq_ >= kSeqLimit) {
    // Fail closed rather than wrap: a wrapped counter would reuse
    // (key, seq) MAC inputs and turn old captured records into replays.
    throw std::runtime_error(
        "RecordChannel::seal: send sequence space exhausted");
  }
  const auto mac = mac_header(seal_seq_++, content_type, plaintext.size(),
                              plaintext.data(), plaintext.size());
  std::vector<std::uint8_t> payload(plaintext.begin(), plaintext.end());
  payload.insert(payload.end(), mac.begin(), mac.end());

  std::vector<std::uint8_t> iv(kIvSize);
  rng.fill_bytes(iv.data(), iv.size());
  const auto ct = util::aes_cbc_encrypt(cipher_, iv, payload);

  std::vector<std::uint8_t> record(kIvSize + ct.size());
  std::copy(iv.begin(), iv.end(), record.begin());
  std::copy(ct.begin(), ct.end(), record.begin() + kIvSize);
  return record;
}

std::optional<std::vector<std::uint8_t>> RecordChannel::open(
    std::uint8_t content_type, std::span<const std::uint8_t> record) {
  if (open_seq_ >= kSeqLimit) return std::nullopt;  // fail closed, no wrap
  // Length checks depend only on the (public) record size. The minimum
  // well-formed record carries MAC (32) plus at least one byte of padding,
  // i.e. a 48-byte ciphertext; rejecting shorter ones here — before any
  // decryption — guarantees every record that reaches the padding check
  // also reaches the MAC check below, whatever the padding says.
  constexpr std::size_t kMinCt =
      util::Sha256::kDigestSize + util::Aes::kBlockSize;
  if (record.size() < kIvSize + kMinCt ||
      (record.size() - kIvSize) % util::Aes::kBlockSize != 0) {
    return std::nullopt;
  }
  const auto iv = record.subspan(0, kIvSize);
  const auto ct = record.subspan(kIvSize);

  // Padding-oracle countermeasure (RFC 5246 §6.2.3.2): the padding check
  // is branch-free inside aes_cbc_decrypt, and on a bad pad `payload`
  // holds the whole decrypted buffer (as if the pad length were zero) so
  // the HMAC below ALWAYS runs — over data of a length determined only by
  // the public record size in the bad-pad case. Both failure causes merge
  // into one `ok` bit and one return path, so an attacker mauling
  // ciphertexts sees the same rejection whether the padding or the MAC
  // was what failed.
  std::vector<std::uint8_t> payload;
  const bool pad_ok = util::aes_cbc_decrypt(cipher_, iv, ct, payload);

  const std::size_t pt_len = payload.size() - util::Sha256::kDigestSize;
  const auto expected =
      mac_header(open_seq_, content_type, pt_len, payload.data(), pt_len);
  // Constant-time MAC comparison via the shared accumulate-XOR kernel
  // (util/ct_bytes.hpp; the shadow-taint checker certifies the same
  // template over tainted words in ct_check_test).
  std::uint32_t got[util::Sha256::kDigestSize];
  std::uint32_t want[util::Sha256::kDigestSize];
  for (std::size_t i = 0; i < expected.size(); ++i) {
    want[i] = expected[i];
    got[i] = payload[pt_len + i];
  }
  const bool mac_ok =
      util::ctb::ct_eq_mask(got, want, expected.size()) != 0;
  const bool ok = pad_ok & mac_ok;
  if (!ok) return std::nullopt;

  ++open_seq_;
  payload.resize(pt_len);
  return payload;
}

SessionKeys derive_session_keys(const MasterSecret& master,
                                const Random& client_random,
                                const Random& server_random) {
  // Note the reversed random order vs. the master-secret derivation
  // (RFC 5246 §6.3 uses server_random || client_random here).
  std::vector<std::uint8_t> seed;
  seed.reserve(2 * kRandomSize);
  seed.insert(seed.end(), server_random.begin(), server_random.end());
  seed.insert(seed.end(), client_random.begin(), client_random.end());
  const std::size_t block_len = 2 * kMacKeySize + 2 * kEncKeySize;
  const auto block = prf_sha256(master, "key expansion", seed, block_len);

  SessionKeys keys;
  std::size_t off = 0;
  std::memcpy(keys.client_mac_key.data(), &block[off], kMacKeySize);
  off += kMacKeySize;
  std::memcpy(keys.server_mac_key.data(), &block[off], kMacKeySize);
  off += kMacKeySize;
  std::memcpy(keys.client_enc_key.data(), &block[off], kEncKeySize);
  off += kEncKeySize;
  std::memcpy(keys.server_enc_key.data(), &block[off], kEncKeySize);
  return keys;
}

Session::Session(const SessionKeys& keys, bool is_server)
    : out_(is_server ? keys.server_enc_key : keys.client_enc_key,
           is_server ? keys.server_mac_key : keys.client_mac_key),
      in_(is_server ? keys.client_enc_key : keys.server_enc_key,
          is_server ? keys.client_mac_key : keys.server_mac_key) {}

std::vector<std::uint8_t> Session::send(std::span<const std::uint8_t> data,
                                        util::Rng& rng) {
  return out_.seal(kContentApplicationData, data, rng);
}

std::optional<std::vector<std::uint8_t>> Session::receive(
    std::span<const std::uint8_t> record) {
  return in_.open(kContentApplicationData, record);
}

}  // namespace phissl::ssl
