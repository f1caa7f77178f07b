#include "ssl/batch_decrypt.hpp"

#include <utility>

#include "rsa/pkcs1.hpp"

namespace phissl::ssl {

namespace {
constexpr char kKeyId[] = "kex";
}  // namespace

BatchDecryptService::BatchDecryptService(rsa::PrivateKey key,
                                         service::SignServiceConfig config)
    : k_(key.pub.byte_size()), n_(key.pub.n), svc_(config) {
  svc_.add_key(kKeyId, std::move(key));
}

void BatchDecryptService::decrypt_premaster_async(
    std::span<const std::uint8_t> ciphertext, DecryptCompletion done) {
  // Public checks first (ciphertext length and range are not secrets):
  // private_op throws on these, but a malformed wire ciphertext is a
  // normal protocol event, not a caller bug, so it resolves inline to the
  // same nullopt a padding failure produces — there is nothing to batch.
  if (ciphertext.size() != k_ ||
      bigint::BigInt::from_bytes_be(ciphertext) >= n_) {
    done(std::nullopt);
    return;
  }
  svc_.private_op_async(
      kKeyId, ciphertext,
      [done = std::move(done)](std::optional<service::SignResult> r) {
        // Unpadding on the dispatch worker: a table-free scan of k bytes,
        // well within the Completion cheapness contract.
        done(r.has_value() ? rsa::rsaes_pkcs1_v15_unpad(r->signature)
                           : std::nullopt);
      });
}

void BatchDecryptService::sign_digest_async(
    std::span<const std::uint8_t> digest, DecryptCompletion done) {
  svc_.sign_async(
      kKeyId, digest,
      [done = std::move(done)](std::optional<service::SignResult> r) {
        if (r.has_value()) {
          done(std::move(r->signature));
        } else {
          done(std::nullopt);
        }
      },
      // Everything through this entry point is a DHE ServerKeyExchange
      // signature; tag it so the workload trace records the true op mix.
      obs::WorkloadOp::kDheSign);
}

}  // namespace phissl::ssl
