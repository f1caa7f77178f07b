// Seed-corpus construction. Everything here is a pure function of the
// fixtures in fixture.hpp, so `fuzz_seed_gen` regenerates byte-identical
// files and the checked-in corpus under tests/corpus/ can be audited
// against this code.
#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>

#include "fuzz/fixture.hpp"
#include "fuzz/targets.hpp"
#include "rsa/der.hpp"
#include "rsa/key.hpp"
#include "rsa/pkcs1.hpp"
#include "ssl/async/connection.hpp"
#include "ssl/async/wire.hpp"
#include "util/base64.hpp"
#include "util/hex.hpp"
#include "util/random.hpp"

namespace phissl::fuzz {

const rsa::Engine& fuzz_engine() {
  static const rsa::Engine engine(rsa::test_key(512), rsa::EngineOptions{});
  return engine;
}

namespace {

using Bytes = std::vector<std::uint8_t>;
using ssl::async::MsgType;
using ssl::async::PendingOp;
using ssl::async::ScriptedClient;
using ssl::async::ServerConnection;

/// Runs a scripted client against a server configured EXACTLY like
/// target_handshake's (same engine, same rng seed, no cache/admission/
/// DHE) and returns (client->server bytes, server->client bytes). The
/// c2s stream replayed into a fresh target server reproduces the whole
/// handshake deterministically, through kEstablished to kClosed.
std::pair<Bytes, Bytes> capture_transcript() {
  ServerConnection server(fuzz_engine(), kFuzzRngSeed, nullptr, nullptr,
                          nullptr);
  ScriptedClient client(fuzz_engine(), kFuzzClientSeed);
  Bytes c2s;
  Bytes s2c;
  client.start();
  for (int i = 0; i < 1000; ++i) {
    bool progressed = false;
    const auto out = client.take_output();
    if (!out.empty()) {
      c2s.insert(c2s.end(), out.begin(), out.end());
      server.on_input(out);
      progressed = true;
    }
    if (auto op = server.take_pending_op()) {
      std::optional<Bytes> result;
      if (op->kind == PendingOp::Kind::kPrivateOp) {
        result = rsa::decrypt_pkcs1(fuzz_engine(), op->payload, nullptr);
      }
      server.on_crypto_result(std::move(result));
      progressed = true;
    }
    const auto back = server.take_output();
    if (!back.empty()) {
      s2c.insert(s2c.end(), back.begin(), back.end());
      client.on_server_bytes(back);
      progressed = true;
    }
    if (!progressed && client.done()) break;
  }
  return {std::move(c2s), std::move(s2c)};
}

Bytes with_mode(std::uint8_t mode, const Bytes& tail) {
  Bytes out{mode};
  out.insert(out.end(), tail.begin(), tail.end());
  return out;
}

Bytes str_bytes(std::string_view s) { return Bytes(s.begin(), s.end()); }

/// A raw frame with an arbitrary (possibly lying) length field.
Bytes raw_frame(std::uint8_t type, std::size_t claimed_len,
                const Bytes& body) {
  Bytes out{type, static_cast<std::uint8_t>(claimed_len >> 16),
            static_cast<std::uint8_t>(claimed_len >> 8),
            static_cast<std::uint8_t>(claimed_len)};
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

}  // namespace

std::vector<std::vector<std::uint8_t>> seed_inputs(std::string_view target) {
  if (target == "frame_reader") {
    const auto [c2s, s2c] = capture_transcript();
    // Leading byte steers the target's chunk split; 0 = split after one
    // byte (maximally partial first feed).
    std::vector<Bytes> seeds;
    seeds.push_back(with_mode(0, c2s));
    seeds.push_back(with_mode(127, s2c));
    seeds.push_back(with_mode(0, ssl::async::encode_close()));
    seeds.push_back(
        with_mode(3, ssl::async::encode_alert(ssl::Alert::kHandshakeFailure)));
    // Oversize length prefix: drives the poison path.
    seeds.push_back(
        with_mode(0, raw_frame(9, ssl::async::kMaxFrameBody + 1, {})));
    // Truncated header and truncated body.
    seeds.push_back(with_mode(0, {0x01, 0x00}));
    seeds.push_back(with_mode(0, raw_frame(1, 64, Bytes(10, 0xab))));
    return seeds;
  }
  if (target == "record_cbc") {
    const Bytes ping = str_bytes("ping");
    ssl::RecordChannel ch(kFuzzEncKey, kFuzzMacKey);
    util::Rng rng(kFuzzRngSeed);
    const Bytes sealed = ch.seal(ssl::kContentApplicationData, ping, rng);
    std::vector<Bytes> seeds;
    // Mode 0 (even first byte): open the tail as a wire record. The
    // genuinely-sealed seed authenticates; its mutants probe the MAC
    // boundary. A one-bit-flipped copy starts on the reject path.
    seeds.push_back(with_mode(0, sealed));
    Bytes flipped = sealed;
    flipped[flipped.size() / 2] ^= 0x01;
    seeds.push_back(with_mode(0, flipped));
    seeds.push_back(with_mode(0, Bytes(16, 0x00)));  // too short
    // Mode 1 (odd first byte): seal-then-open round-trip of the tail.
    seeds.push_back(with_mode(1, ping));
    seeds.push_back(with_mode(1, Bytes(100, 0x5a)));
    seeds.push_back(with_mode(1, {}));
    return seeds;
  }
  if (target == "handshake") {
    const auto [c2s, s2c] = capture_transcript();
    std::vector<Bytes> seeds;
    seeds.push_back(c2s);  // full happy path: ClientHello..CKX..Fin..Close
    // Truncations at message-ish prefixes exercise parking states.
    seeds.push_back(Bytes(c2s.begin(),
                          c2s.begin() + static_cast<std::ptrdiff_t>(
                                            std::min<std::size_t>(40, c2s.size()))));
    seeds.push_back(s2c);  // server-flight bytes fed to a server: alerts
    seeds.push_back(ssl::async::encode_close());
    return seeds;
  }
  if (target == "der_key") {
    const auto& key = rsa::test_key(512);
    std::vector<Bytes> seeds;
    seeds.push_back(rsa::encode_private_key_der(key));
    seeds.push_back(rsa::encode_public_key_der(key.pub));
    Bytes truncated = seeds[0];
    truncated.resize(truncated.size() / 2);
    seeds.push_back(truncated);
    Bytes trailing = seeds[1];
    trailing.push_back(0x00);
    seeds.push_back(trailing);
    seeds.push_back({0x30, 0x00});  // empty SEQUENCE
    return seeds;
  }
  if (target == "b64hex") {
    const auto& der = rsa::encode_public_key_der(rsa::test_key(512).pub);
    std::vector<Bytes> seeds;
    seeds.push_back(str_bytes(util::base64_encode(der)));
    seeds.push_back(str_bytes(util::hex_encode(der)));
    seeds.push_back(str_bytes("SGVsbG8sIHdvcmxkIQ=="));
    seeds.push_back(str_bytes("deadbeef"));
    seeds.push_back(str_bytes("not!valid@base64#or$hex"));
    return seeds;
  }
  return {};
}

}  // namespace phissl::fuzz
