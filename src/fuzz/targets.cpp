#include "fuzz/targets.hpp"

#include "fuzz/fixture.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <optional>
#include <stdexcept>

#include "rsa/der.hpp"
#include "rsa/engine.hpp"
#include "rsa/key.hpp"
#include "rsa/pkcs1.hpp"
#include "ssl/async/connection.hpp"
#include "ssl/async/wire.hpp"
#include "ssl/record.hpp"
#include "util/base64.hpp"
#include "util/hex.hpp"
#include "util/random.hpp"

namespace phissl::fuzz {

namespace {

using ssl::async::Frame;
using ssl::async::FrameReader;
using ssl::async::MsgType;

// Inputs beyond this are truncated: replay latency stays bounded and the
// interesting parser states all fit well inside it anyway.
constexpr std::size_t kMaxInput = std::size_t{1} << 16;

std::span<const std::uint8_t> clamp(std::span<const std::uint8_t> data) {
  return data.subspan(0, std::min(data.size(), kMaxInput));
}

/// Decodes a frame body through the codec matching its tag. Return values
/// are deliberately ignored — any body must either decode or be rejected
/// with nullopt, never crash.
void decode_by_type(const Frame& f) {
  switch (f.type) {
    case MsgType::kClientHello:
      (void)ssl::async::decode_client_hello(f.body);
      break;
    case MsgType::kServerHello:
      (void)ssl::async::decode_server_hello(f.body);
      break;
    case MsgType::kCertificate:
      (void)ssl::async::decode_certificate(f.body);
      break;
    case MsgType::kClientKeyExchange:
      (void)ssl::async::decode_client_key_exchange(f.body);
      break;
    case MsgType::kServerKeyExchange:
      (void)ssl::async::decode_server_key_exchange(f.body);
      break;
    case MsgType::kDheClientKeyExchange:
      (void)ssl::async::decode_dhe_client_key_exchange(f.body);
      break;
    case MsgType::kFinished:
      (void)ssl::async::decode_finished(f.body);
      break;
    case MsgType::kAlert:
      (void)ssl::async::decode_alert(f.body);
      break;
    default:
      break;  // kAppData/kClose bodies are opaque here
  }
}

}  // namespace

void target_frame_reader(std::span<const std::uint8_t> data) {
  data = clamp(data);
  // First byte steers the chunking split so the corpus explores partial
  // headers and partial bodies, not just whole-buffer feeds.
  const std::size_t split =
      data.empty() ? 0 : 1 + data[0] % std::max<std::size_t>(1, data.size());
  const auto stream = data.subspan(std::min<std::size_t>(1, data.size()));

  FrameReader r;
  r.feed(stream.subspan(0, std::min(split, stream.size())));
  std::size_t consumed = 0;
  while (auto f = r.next()) {
    consumed += 4 + f->body.size();
    decode_by_type(*f);
  }
  r.feed(stream.subspan(std::min(split, stream.size())));
  while (auto f = r.next()) {
    consumed += 4 + f->body.size();
    decode_by_type(*f);
  }
  // Invariants: frames never fabricate bytes, and poison latches with the
  // buffer released (a hostile length prefix must not pin memory).
  if (consumed > stream.size()) throw std::logic_error("frame over-read");
  if (r.bad()) {
    if (r.next()) throw std::logic_error("poisoned reader yielded a frame");
    if (r.buffered() != 0) throw std::logic_error("poisoned reader holds bytes");
    r.feed(stream);
    if (r.buffered() != 0) throw std::logic_error("poisoned reader accepted bytes");
  }
}

void target_record_cbc(std::span<const std::uint8_t> data) {
  data = clamp(data);
  ssl::RecordChannel seal_ch(kFuzzEncKey, kFuzzMacKey);
  ssl::RecordChannel open_ch(kFuzzEncKey, kFuzzMacKey);
  if (!data.empty() && (data[0] & 1) != 0) {
    // Round-trip mode: seal the tail, then open must give it back.
    util::Rng rng(kFuzzRngSeed);
    const auto pt = data.subspan(1);
    const auto rec = seal_ch.seal(ssl::kContentApplicationData, pt, rng);
    const auto back = open_ch.open(ssl::kContentApplicationData, rec);
    if (!back || !std::equal(back->begin(), back->end(), pt.begin(), pt.end())) {
      throw std::logic_error("CBC record round-trip mismatch");
    }
  } else {
    // Hostile-record mode: the tail is a wire record; open must reject or
    // accept without crashing (seeds include genuinely sealed records, so
    // mutants land near the authenticated boundary).
    (void)open_ch.open(ssl::kContentApplicationData,
                       data.subspan(std::min<std::size_t>(1, data.size())));
  }
}

void target_handshake(std::span<const std::uint8_t> data) {
  data = clamp(data);
  ssl::async::ServerConnection conn(fuzz_engine(), kFuzzRngSeed,
                                    /*cache=*/nullptr, /*admission=*/nullptr,
                                    /*dhe_group=*/nullptr);
  // Byte-at-a-time delivery: every partial-message parking state along the
  // way is entered and resumed. Pending crypto ops are resolved inline
  // with the engine (the batch service is not under test here).
  for (std::size_t i = 0; i < data.size(); ++i) {
    conn.on_input(data.subspan(i, 1));
    (void)conn.take_output();
    if (auto op = conn.take_pending_op()) {
      using Kind = ssl::async::PendingOp::Kind;
      std::optional<std::vector<std::uint8_t>> result;
      if (op->kind == Kind::kPrivateOp) {
        result = rsa::decrypt_pkcs1(fuzz_engine(), op->payload, nullptr);
      } else {
        const std::size_t k = fuzz_engine().pub().byte_size();
        // A fixed well-sized block stands in for the signature; the fuzz
        // interest is the state machine, not signature validity.
        result = std::vector<std::uint8_t>(k, 0x42);
      }
      conn.on_crypto_result(std::move(result));
    }
    if (conn.state() == ssl::async::ConnState::kClosed) break;
  }
  (void)conn.take_output();
}

void target_der_key(std::span<const std::uint8_t> data) {
  data = clamp(data);
  // DER is canonical: whatever decodes must re-encode to the exact input
  // bytes — a strong differential oracle over the whole TLV parser.
  try {
    const rsa::PrivateKey key = rsa::decode_private_key_der(data);
    const auto back = rsa::encode_private_key_der(key);
    if (!std::equal(back.begin(), back.end(), data.begin(), data.end())) {
      throw std::logic_error("private key DER decode/encode not canonical");
    }
  } catch (const std::invalid_argument&) {
    // Malformed input, rejected: the expected path.
  }
  try {
    const rsa::PublicKey key = rsa::decode_public_key_der(data);
    const auto back = rsa::encode_public_key_der(key);
    if (!std::equal(back.begin(), back.end(), data.begin(), data.end())) {
      throw std::logic_error("public key DER decode/encode not canonical");
    }
  } catch (const std::invalid_argument&) {
  }
}

void target_b64hex(std::span<const std::uint8_t> data) {
  data = clamp(data);
  const std::string text(data.begin(), data.end());
  // Decode arbitrary text: must reject cleanly or survive a re-encode
  // round-trip (encode(decode(x)) need not equal x — whitespace and
  // padding normalize — but decode(encode(decode(x))) must).
  try {
    const auto bytes = util::base64_decode(text);
    if (util::base64_decode(util::base64_encode(bytes)) != bytes) {
      throw std::logic_error("base64 re-decode mismatch");
    }
  } catch (const std::invalid_argument&) {
  }
  try {
    const auto bytes = util::hex_decode(text);
    if (util::hex_decode(util::hex_encode(bytes)) != bytes) {
      throw std::logic_error("hex re-decode mismatch");
    }
  } catch (const std::invalid_argument&) {
  }
  // Encode arbitrary bytes: decode must invert exactly.
  const std::vector<std::uint8_t> raw(data.begin(), data.end());
  if (util::base64_decode(util::base64_encode(raw)) != raw) {
    throw std::logic_error("base64 encode/decode not inverse");
  }
  if (util::hex_decode(util::hex_encode(raw)) != raw) {
    throw std::logic_error("hex encode/decode not inverse");
  }
}

std::span<const TargetInfo> targets() {
  static constexpr TargetInfo kTargets[] = {
      {"frame_reader", &target_frame_reader, /*framed=*/true},
      {"record_cbc", &target_record_cbc, /*framed=*/false},
      {"handshake", &target_handshake, /*framed=*/true},
      {"der_key", &target_der_key, /*framed=*/false},
      {"b64hex", &target_b64hex, /*framed=*/false},
  };
  return kTargets;
}

const TargetInfo* find_target(std::string_view name) {
  for (const auto& t : targets()) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

}  // namespace phissl::fuzz
