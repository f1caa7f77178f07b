#include "ssl/dhe_handshake.hpp"

#include <algorithm>
#include <stdexcept>

#include "rsa/pkcs1.hpp"

namespace phissl::ssl {

using bigint::BigInt;

namespace {

void absorb(util::Sha256& h, std::string_view label) {
  h.update({reinterpret_cast<const std::uint8_t*>(label.data()),
            label.size()});
}

void absorb(util::Sha256& h, std::span<const std::uint8_t> bytes) {
  h.update(bytes);
}

void append_int(std::vector<std::uint8_t>& out, const BigInt& v) {
  const auto bytes = v.to_bytes_be();
  // 2-byte length prefix keeps the encoding injective.
  out.push_back(static_cast<std::uint8_t>(bytes.size() >> 8));
  out.push_back(static_cast<std::uint8_t>(bytes.size()));
  out.insert(out.end(), bytes.begin(), bytes.end());
}

void absorb_skx(util::Sha256& transcript, const ServerKeyExchange& skx) {
  absorb(transcript, "server_key_exchange");
  std::vector<std::uint8_t> enc;
  append_int(enc, skx.dh_p);
  append_int(enc, skx.dh_g);
  append_int(enc, skx.dh_ys);
  absorb(transcript, enc);
  absorb(transcript, skx.signature);
}

void absorb_ckx(util::Sha256& transcript, const DheClientKeyExchange& kex) {
  absorb(transcript, "client_key_exchange");
  std::vector<std::uint8_t> enc;
  append_int(enc, kex.dh_yc);
  absorb(transcript, enc);
}

}  // namespace

std::vector<std::uint8_t> skx_signed_content(const Random& client_random,
                                             const Random& server_random,
                                             const BigInt& p, const BigInt& g,
                                             const BigInt& ys) {
  std::vector<std::uint8_t> out;
  out.insert(out.end(), client_random.begin(), client_random.end());
  out.insert(out.end(), server_random.begin(), server_random.end());
  append_int(out, p);
  append_int(out, g);
  append_int(out, ys);
  return out;
}

// --- Server -----------------------------------------------------------------

DheServerHandshake::DheServerHandshake(const rsa::Engine& engine,
                                       const dh::Dh& group, util::Rng& rng)
    : engine_(engine), group_(group), rng_(rng) {
  if (!engine.has_private()) {
    throw std::invalid_argument("DheServerHandshake: engine needs a key");
  }
}

Result<DheServerHandshake::Flight1> DheServerHandshake::on_client_hello(
    const ClientHello& hello) {
  // The blocking form is begin + inline sign + complete. sign_sha256 and
  // signing the _begin digest through a SignService produce the identical
  // RSASSA-PKCS1-v1_5 block, so both forms interoperate with any client.
  auto begun = on_client_hello_begin(hello);
  if (!begun.ok()) return begun.alert();
  const auto signed_content =
      skx_signed_content(client_random_, server_random_, group_.params().p,
                         group_.params().g, ephemeral_.y);
  return on_client_hello_complete(
      rsa::sign_sha256(engine_, signed_content, &rng_));
}

Result<util::Sha256::Digest> DheServerHandshake::on_client_hello_begin(
    const ClientHello& hello) {
  if (state_ != State::kExpectHello) return Alert::kUnexpectedMessage;
  if (std::find(hello.cipher_suites.begin(), hello.cipher_suites.end(),
                kCipherDheRsaWithSha256) == hello.cipher_suites.end()) {
    return Alert::kHandshakeFailure;
  }
  client_random_ = hello.client_random;
  rng_.fill_bytes(server_random_.data(), server_random_.size());

  absorb(transcript_, "client_hello");
  absorb(transcript_, std::span<const std::uint8_t>(client_random_));
  absorb(transcript_, "server_hello");
  absorb(transcript_, std::span<const std::uint8_t>(server_random_));

  // Fresh ephemeral per connection (forward secrecy); the signature over
  // it is the one piece of the flight the caller supplies.
  ephemeral_ = group_.generate_keypair(rng_);
  Flight1 flight;
  flight.hello.server_random = server_random_;
  flight.hello.chosen_suite = kCipherDheRsaWithSha256;
  flight.certificate = Certificate{engine_.pub()};
  flight.key_exchange.dh_p = group_.params().p;
  flight.key_exchange.dh_g = group_.params().g;
  flight.key_exchange.dh_ys = ephemeral_.y;
  pending_flight_ = std::move(flight);
  state_ = State::kAwaitSignature;

  const auto signed_content =
      skx_signed_content(client_random_, server_random_, group_.params().p,
                         group_.params().g, ephemeral_.y);
  util::Sha256 h;
  h.update(signed_content);
  return h.finish();
}

Result<DheServerHandshake::Flight1> DheServerHandshake::on_client_hello_complete(
    std::vector<std::uint8_t> signature) {
  if (state_ != State::kAwaitSignature || !pending_flight_.has_value()) {
    return Alert::kUnexpectedMessage;
  }
  Flight1 flight = std::move(*pending_flight_);
  pending_flight_.reset();
  flight.key_exchange.signature = std::move(signature);

  absorb_skx(transcript_, flight.key_exchange);
  state_ = State::kExpectKeyExchange;
  return flight;
}

Result<Finished> DheServerHandshake::on_key_exchange(
    const DheClientKeyExchange& kex, const Finished& client_fin) {
  if (state_ != State::kExpectKeyExchange) return Alert::kUnexpectedMessage;

  BigInt shared;
  try {
    shared = group_.compute_shared(ephemeral_.x, kex.dh_yc);
  } catch (const std::invalid_argument&) {
    state_ = State::kExpectHello;
    return Alert::kDecryptError;
  }

  absorb_ckx(transcript_, kex);
  const auto transcript_hash = util::Sha256(transcript_).finish();
  const auto premaster = shared.to_bytes_be();  // leading zeros stripped
  const auto master = derive_master(premaster, client_random_, server_random_);
  if (!finished_matches(client_fin, master, transcript_hash, false)) {
    state_ = State::kExpectHello;
    return Alert::kBadFinished;
  }
  master_ = master;
  state_ = State::kEstablished;
  Finished fin;
  fin.verify_data = compute_verify_data(master, transcript_hash, true);
  return fin;
}

SessionKeys DheServerHandshake::session_keys() const {
  if (!master_) throw std::logic_error("session_keys: handshake incomplete");
  return derive_session_keys(*master_, client_random_, server_random_);
}

// --- Client -----------------------------------------------------------------

DheClientHandshake::DheClientHandshake(const rsa::Engine& engine,
                                       util::Rng& rng)
    : engine_(engine), rng_(rng) {}

ClientHello DheClientHandshake::start() {
  rng_.fill_bytes(client_random_.data(), client_random_.size());
  state_ = State::kSentHello;
  ClientHello hello;
  hello.client_random = client_random_;
  hello.cipher_suites = {kCipherDheRsaWithSha256, kCipherRsaWithSha256};
  return hello;
}

Result<std::pair<DheClientKeyExchange, Finished>>
DheClientHandshake::on_server_flight(const ServerHello& hello,
                                     const Certificate& cert,
                                     const ServerKeyExchange& skx) {
  if (state_ != State::kSentHello) return Alert::kUnexpectedMessage;
  if (hello.chosen_suite != kCipherDheRsaWithSha256) {
    return Alert::kHandshakeFailure;
  }
  if (cert.server_key.n != engine_.pub().n ||
      cert.server_key.e != engine_.pub().e) {
    return Alert::kHandshakeFailure;
  }
  server_random_ = hello.server_random;

  // Authenticate the ephemeral parameters (one RSA verify).
  const auto signed_content = skx_signed_content(
      client_random_, server_random_, skx.dh_p, skx.dh_g, skx.dh_ys);
  if (!rsa::verify_sha256(engine_, signed_content, skx.signature)) {
    return Alert::kBadFinished;
  }

  absorb(transcript_, "client_hello");
  absorb(transcript_, std::span<const std::uint8_t>(client_random_));
  absorb(transcript_, "server_hello");
  absorb(transcript_, std::span<const std::uint8_t>(server_random_));
  absorb_skx(transcript_, skx);

  // The client builds the group from the wire parameters.
  dh::Params params;
  params.p = skx.dh_p;
  params.g = skx.dh_g;
  dh::Dh group(std::move(params), engine_.options().kernel);
  const dh::KeyPair mine = group.generate_keypair(rng_);
  BigInt shared;
  try {
    shared = group.compute_shared(mine.x, skx.dh_ys);
  } catch (const std::invalid_argument&) {
    return Alert::kDecryptError;
  }

  DheClientKeyExchange kex;
  kex.dh_yc = mine.y;
  absorb_ckx(transcript_, kex);
  const auto transcript_hash = util::Sha256(transcript_).finish();
  const auto premaster = shared.to_bytes_be();
  master_ = derive_master(premaster, client_random_, server_random_);
  Finished fin;
  fin.verify_data = compute_verify_data(*master_, transcript_hash, false);
  state_ = State::kSentKeyExchange;
  return std::make_pair(std::move(kex), fin);
}

Result<Unit> DheClientHandshake::on_server_finished(const Finished& fin) {
  if (state_ != State::kSentKeyExchange) return Alert::kUnexpectedMessage;
  const auto transcript_hash = util::Sha256(transcript_).finish();
  if (!finished_matches(fin, *master_, transcript_hash, true)) {
    return Alert::kBadFinished;
  }
  state_ = State::kEstablished;
  return Unit{};
}

SessionKeys DheClientHandshake::session_keys() const {
  if (!master_) throw std::logic_error("session_keys: handshake incomplete");
  return derive_session_keys(*master_, client_random_, server_random_);
}

}  // namespace phissl::ssl
