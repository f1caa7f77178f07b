// Lane-coalescing private ops for the TLS terminator.
//
// A full TLS 1.2 RSA-key-transport handshake costs one private-key
// decryption, and a terminator runs many handshakes concurrently — the
// same irregular-arrivals-vs-16-wide-kernel mismatch the signing service
// solves. This adapter closes the loop for the DECRYPT direction: it owns
// a single-key service::SignService (whose raw private_op() path shares
// the adaptive linger/backpressure scheduler, the 16-lane BatchEngine and
// the per-flush cost route with signing traffic) and exposes it through a
// completion bridge. The reactor (ssl/async/reactor.hpp) submits every
// parked connection's private op here, so once enough of them are in
// flight they fill whole SIMD batches, and otherwise run single-stream
// CRT ops on a dispatch worker — whichever the flush's measured costs
// say is cheaper. It is the reactor's batched decrypter; the other choice
// resolves each op inline on the connection's worker.
//
// PKCS#1 v1.5 unpadding runs on the dispatch worker after the service
// returns the raw k-byte block; a padding failure is delivered as nullopt
// and absorbed by the handshake's random-premaster substitution like any
// scalar-path failure.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "bigint/bigint.hpp"
#include "rsa/key.hpp"
#include "service/sign_service.hpp"

namespace phissl::ssl {

/// The decrypter's scheduler knobs are the underlying service's; the old
/// name remains as an alias while bench/e2e/layers.cpp spells it.
using BatchDecryptConfig = service::SignServiceConfig;

class BatchDecryptService final {
 public:
  explicit BatchDecryptService(rsa::PrivateKey key,
                               service::SignServiceConfig config = {});

  /// Result delivery for the non-blocking calls below. Invoked exactly
  /// once; nullopt covers every failure (malformed ciphertext, bad
  /// padding, batch dispatch failure) so the handshake's uniform-failure
  /// discipline sees one shape. Runs on a SignService dispatch worker —
  /// or INLINE, before the call returns, when the input fails the public
  /// checks — so it must be cheap and must not block (see
  /// service::SignService::Completion for the full contract).
  using DecryptCompletion =
      std::function<void(std::optional<std::vector<std::uint8_t>>)>;

  /// Coalesced RSAES-PKCS1-v1_5 decryption: enqueues the raw private op
  /// and delivers the unpadded premaster through `done` — nullopt on a
  /// wrong-size ciphertext, a value >= n, or invalid PKCS#1 padding.
  void decrypt_premaster_async(std::span<const std::uint8_t> ciphertext,
                               DecryptCompletion done);

  /// Non-blocking RSASSA-PKCS1-v1_5 signature over a 32-byte SHA-256
  /// digest, on the same key and through the same adaptive scheduler as
  /// the decryptions — a terminator mixing DHE and RSA-kex connections
  /// coalesces both operation kinds into shared 16-lane batches. `done`
  /// receives the k-byte signature block, or nullopt on dispatch failure.
  void sign_digest_async(std::span<const std::uint8_t> digest,
                         DecryptCompletion done);

  /// Scheduler counters of the underlying service (lane occupancy,
  /// batch/padded-lane/single-stream counts, queue-wait quantiles).
  [[nodiscard]] service::StatsSnapshot stats() const { return svc_.stats(); }

 private:
  std::size_t k_;      // modulus size in bytes
  bigint::BigInt n_;   // modulus, for the public range check
  service::SignService svc_;
};

}  // namespace phissl::ssl
