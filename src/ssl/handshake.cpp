#include "ssl/handshake.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "obs/trace.hpp"
#include "rsa/pkcs1.hpp"
#include "ssl/prf.hpp"

namespace phissl::ssl {

namespace {

void absorb(util::Sha256& h, std::string_view label) {
  h.update({reinterpret_cast<const std::uint8_t*>(label.data()),
            label.size()});
}

void absorb(util::Sha256& h, std::span<const std::uint8_t> bytes) {
  h.update(bytes);
}

// Constant-time comparison (Finished values are secrets-derived).
template <std::size_t N>
bool ct_equal(const std::array<std::uint8_t, N>& a,
              const std::array<std::uint8_t, N>& b) {
  unsigned diff = 0;
  for (std::size_t i = 0; i < N; ++i) diff |= a[i] ^ b[i];
  return diff == 0;
}

Random make_random(util::Rng& rng) {
  Random r;
  rng.fill_bytes(r.data(), r.size());
  return r;
}

// Both sides absorb the hello exchange identically.
void absorb_hellos(util::Sha256& transcript, const Random& client_random,
                   const Random& server_random, bool resumed) {
  absorb(transcript, "client_hello");
  absorb(transcript, std::span<const std::uint8_t>(client_random));
  absorb(transcript, "server_hello");
  absorb(transcript, std::span<const std::uint8_t>(server_random));
  if (resumed) absorb(transcript, "resumed");
}

}  // namespace

const char* to_string(Alert a) {
  switch (a) {
    case Alert::kHandshakeFailure:
      return "handshake_failure";
    case Alert::kDecryptError:
      return "decrypt_error";
    case Alert::kBadFinished:
      return "bad_finished";
    case Alert::kUnexpectedMessage:
      return "unexpected_message";
  }
  return "?";
}

MasterSecret derive_master(std::span<const std::uint8_t> premaster,
                           const Random& client_random,
                           const Random& server_random) {
  std::vector<std::uint8_t> seed;
  seed.reserve(2 * kRandomSize);
  seed.insert(seed.end(), client_random.begin(), client_random.end());
  seed.insert(seed.end(), server_random.begin(), server_random.end());
  const auto bytes = prf_sha256(premaster, "master secret", seed, kMasterSize);
  MasterSecret master;
  std::copy(bytes.begin(), bytes.end(), master.begin());
  return master;
}

std::array<std::uint8_t, kVerifyDataSize> compute_verify_data(
    const MasterSecret& master, const util::Sha256::Digest& transcript,
    bool is_server) {
  const auto bytes =
      prf_sha256(master, is_server ? "server finished" : "client finished",
                 transcript, kVerifyDataSize);
  std::array<std::uint8_t, kVerifyDataSize> out;
  std::copy(bytes.begin(), bytes.end(), out.begin());
  return out;
}

// --- Server -----------------------------------------------------------------

ServerHandshake::ServerHandshake(const rsa::Engine& engine, util::Rng& rng,
                                 SessionCache* cache)
    : engine_(engine), rng_(rng), cache_(cache) {}

Result<ServerFlight1> ServerHandshake::on_client_hello(
    const ClientHello& hello) {
  if (state_ != State::kExpectHello) return Alert::kUnexpectedMessage;
  if (std::find(hello.cipher_suites.begin(), hello.cipher_suites.end(),
                kCipherRsaWithSha256) == hello.cipher_suites.end()) {
    return Alert::kHandshakeFailure;
  }
  client_random_ = hello.client_random;
  server_random_ = make_random(rng_);

  // Resumption: accept the offered session if the cache knows it.
  std::optional<MasterSecret> cached;
  if (cache_ != nullptr && hello.session_id.has_value()) {
    cached = cache_->get(*hello.session_id);
  }

  ServerFlight1 flight;
  flight.hello.server_random = server_random_;
  flight.hello.chosen_suite = kCipherRsaWithSha256;

  if (cached.has_value()) {
    resumed_ = true;
    session_id_ = *hello.session_id;
    flight.hello.session_id = session_id_;
    flight.hello.resumed = true;

    absorb_hellos(transcript_, client_random_, server_random_, true);
    const auto transcript_hash = util::Sha256(transcript_).finish();
    // RFC 5246 §7.3: resumption reuses the master secret verbatim; the
    // fresh randoms only feed the key block and the Finished transcript.
    master_ = *cached;
    // Abbreviated flow: the server's Finished comes first.
    Finished fin;
    fin.verify_data = compute_verify_data(*master_, transcript_hash, true);
    flight.finished = fin;
    state_ = State::kExpectResumedFinished;
    return flight;
  }

  // Full handshake: assign a fresh session id now, cache on completion.
  rng_.fill_bytes(session_id_.data(), session_id_.size());
  flight.hello.session_id = session_id_;
  flight.certificate = Certificate{engine_.pub()};
  absorb_hellos(transcript_, client_random_, server_random_, false);
  state_ = State::kExpectKeyExchange;
  return flight;
}

Result<Finished> ServerHandshake::on_key_exchange(const ClientKeyExchange& kex,
                                                  const Finished& client_fin) {
  // The blocking form is begin + scalar decrypt + complete.
  if (auto begun = on_key_exchange_begin(kex); !begun.ok()) {
    return begun.alert();
  }
  std::optional<std::vector<std::uint8_t>> decrypted;
  {
    // The handshake's dominant cost: the RSA private-key decryption.
    PHISSL_OBS_SPAN("ssl.kex_decrypt");
    decrypted = rsa::decrypt_pkcs1(engine_, kex.encrypted_premaster, &rng_);
  }
  return on_key_exchange_complete(decrypted, client_fin);
}

Result<Unit> ServerHandshake::on_key_exchange_begin(
    const ClientKeyExchange& kex) {
  if (state_ != State::kExpectKeyExchange) return Alert::kUnexpectedMessage;

  // Bleichenbacher countermeasure (RFC 5246 §7.4.7.1): draw the random
  // fallback premaster BEFORE decrypting, then substitute it on ANY
  // decryption failure — bad PKCS#1 padding and a wrong premaster length
  // alike — instead of returning a distinct alert. The handshake then
  // proceeds with a premaster the client cannot know, so every malformed
  // ClientKeyExchange fails the SAME way a well-formed-but-wrong one
  // does: at the Finished check, with kBadFinished. A distinct
  // decrypt_error alert here would be a million-message oracle revealing
  // whether a chosen ciphertext is PKCS#1-conforming under the server
  // key.
  rng_.fill_bytes(fallback_premaster_.data(), fallback_premaster_.size());

  absorb(transcript_, "client_key_exchange");
  absorb(transcript_, kex.encrypted_premaster);
  state_ = State::kAwaitKexCompletion;
  return Unit{};
}

Result<Finished> ServerHandshake::on_key_exchange_complete(
    const std::optional<std::vector<std::uint8_t>>& decrypted,
    const Finished& client_fin) {
  if (state_ != State::kAwaitKexCompletion) return Alert::kUnexpectedMessage;

  std::vector<std::uint8_t> premaster(fallback_premaster_.begin(),
                                      fallback_premaster_.end());
  if (decrypted.has_value() && decrypted->size() == kPremasterSize) {
    std::copy(decrypted->begin(), decrypted->end(), premaster.begin());
  }
  const util::Sha256::Digest transcript_hash = util::Sha256(transcript_).finish();

  const auto master = derive_master(premaster, client_random_, server_random_);
  const auto expected = compute_verify_data(master, transcript_hash, false);
  if (!ct_equal(expected, client_fin.verify_data)) {
    state_ = State::kExpectHello;
    return Alert::kBadFinished;
  }

  master_ = master;
  state_ = State::kEstablished;
  if (cache_ != nullptr) cache_->put(session_id_, master);
  Finished fin;
  fin.verify_data = compute_verify_data(master, transcript_hash, true);
  return fin;
}

Result<Unit> ServerHandshake::on_resumed_client_finished(
    const Finished& client_fin) {
  if (state_ != State::kExpectResumedFinished) {
    return Alert::kUnexpectedMessage;
  }
  const auto transcript_hash = util::Sha256(transcript_).finish();
  const auto expected = compute_verify_data(*master_, transcript_hash, false);
  if (!ct_equal(expected, client_fin.verify_data)) {
    state_ = State::kExpectHello;
    master_.reset();
    return Alert::kBadFinished;
  }
  state_ = State::kEstablished;
  return Unit{};
}

SessionKeys ServerHandshake::session_keys() const {
  if (!master_) throw std::logic_error("session_keys: handshake incomplete");
  return derive_session_keys(*master_, client_random_, server_random_);
}

// --- Client -----------------------------------------------------------------

ClientHandshake::ClientHandshake(const rsa::Engine& engine, util::Rng& rng)
    : engine_(engine), rng_(rng) {}

ClientHello ClientHandshake::start(
    const std::optional<ResumableSession>& resume) {
  client_random_ = make_random(rng_);
  state_ = State::kSentHello;
  ClientHello hello;
  hello.client_random = client_random_;
  hello.cipher_suites = {kCipherRsaWithSha256};
  if (resume.has_value()) {
    offered_resumption_ = true;
    session_id_ = resume->id;
    offered_master_ = resume->master;
    hello.session_id = resume->id;
  }
  return hello;
}

Result<std::pair<ClientKeyExchange, Finished>> ClientHandshake::on_server_hello(
    const ServerHello& hello, const Certificate& cert) {
  if (state_ != State::kSentHello) return Alert::kUnexpectedMessage;
  if (hello.chosen_suite != kCipherRsaWithSha256 || hello.resumed) {
    return Alert::kHandshakeFailure;
  }
  // The client's engine is pre-built for the server it dials (certificate
  // pinning, in effect); a certificate for any other key is rejected.
  if (cert.server_key.n != engine_.pub().n ||
      cert.server_key.e != engine_.pub().e) {
    return Alert::kHandshakeFailure;
  }
  server_random_ = hello.server_random;
  session_id_ = hello.session_id;  // server-assigned, for later resumption

  absorb_hellos(transcript_, client_random_, server_random_, false);

  // Premaster secret, encrypted to the server's public key.
  std::vector<std::uint8_t> premaster(kPremasterSize);
  rng_.fill_bytes(premaster.data(), premaster.size());
  ClientKeyExchange kex;
  kex.encrypted_premaster = rsa::encrypt_pkcs1(engine_, premaster, rng_);

  absorb(transcript_, "client_key_exchange");
  absorb(transcript_, kex.encrypted_premaster);
  const util::Sha256::Digest transcript_hash = util::Sha256(transcript_).finish();

  master_ = derive_master(premaster, client_random_, server_random_);
  Finished fin;
  fin.verify_data = compute_verify_data(*master_, transcript_hash, false);

  state_ = State::kSentKeyExchange;
  return std::make_pair(std::move(kex), fin);
}

Result<Finished> ClientHandshake::on_resumed_hello(const ServerHello& hello,
                                                   const Finished& server_fin) {
  if (state_ != State::kSentHello) return Alert::kUnexpectedMessage;
  if (!offered_resumption_ || !hello.resumed ||
      hello.session_id != session_id_ ||
      hello.chosen_suite != kCipherRsaWithSha256) {
    return Alert::kHandshakeFailure;
  }
  server_random_ = hello.server_random;
  absorb_hellos(transcript_, client_random_, server_random_, true);
  const auto transcript_hash = util::Sha256(transcript_).finish();
  master_ = *offered_master_;  // reused verbatim, per RFC 5246 §7.3

  const auto expected = compute_verify_data(*master_, transcript_hash, true);
  if (!ct_equal(expected, server_fin.verify_data)) {
    master_.reset();
    return Alert::kBadFinished;
  }
  resumed_ = true;
  state_ = State::kEstablished;
  Finished fin;
  fin.verify_data = compute_verify_data(*master_, transcript_hash, false);
  return fin;
}

Result<Unit> ClientHandshake::on_server_finished(const Finished& fin) {
  if (state_ != State::kSentKeyExchange) return Alert::kUnexpectedMessage;
  util::Sha256 t = transcript_;
  const util::Sha256::Digest transcript_hash = t.finish();
  const auto expected = compute_verify_data(*master_, transcript_hash, true);
  if (!ct_equal(expected, fin.verify_data)) return Alert::kBadFinished;
  state_ = State::kEstablished;
  return Unit{};
}

ResumableSession ClientHandshake::resumable() const {
  if (state_ != State::kEstablished || !master_) {
    throw std::logic_error("resumable: handshake incomplete");
  }
  return ResumableSession{session_id_, *master_};
}

SessionKeys ClientHandshake::session_keys() const {
  if (!master_) throw std::logic_error("session_keys: handshake incomplete");
  return derive_session_keys(*master_, client_random_, server_random_);
}

}  // namespace phissl::ssl
