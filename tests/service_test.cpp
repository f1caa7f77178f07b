// SignService tests: the async batching layer must produce exactly the
// signatures the synchronous engines produce, on every dispatch path —
// the 16-pending fast path, the linger-deadline partial flush (with
// dummy-padded lanes), the stop() drain, and cross-key routing — and its
// stats block must stay consistent with the traffic it served.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "bigint/bigint.hpp"
#include "rsa/engine.hpp"
#include "rsa/key.hpp"
#include "rsa/pkcs1.hpp"
#include "service/sign_service.hpp"
#include "util/random.hpp"
#include "util/sha256.hpp"

namespace phissl {
namespace {

using bigint::BigInt;
using service::SignResult;
using service::SignService;
using service::SignServiceConfig;
using service::StatsSnapshot;

util::Sha256::Digest digest_of(std::uint64_t seed) {
  util::Rng rng(seed);
  util::Sha256::Digest d;
  rng.fill_bytes(d.data(), d.size());
  return d;
}

// Verifies a service signature with nothing but the public key: the
// public op must reproduce the EMSA-PKCS1-v1_5 encoding of the digest.
bool verifies(const rsa::PublicKey& pub, const util::Sha256::Digest& digest,
              std::span<const std::uint8_t> signature) {
  const rsa::Engine pub_engine(pub, rsa::EngineOptions{});
  const std::size_t k = pub.byte_size();
  if (signature.size() != k) return false;
  const BigInt s = BigInt::from_bytes_be(signature);
  if (s >= pub.n) return false;
  return pub_engine.public_op(s).to_bytes_be(k) ==
         rsa::emsa_pkcs1_v15_from_digest(digest, k);
}

TEST(SignService, FullBatchFastPath) {
  SignServiceConfig cfg;
  cfg.full_batches_only = true;  // only the 16-pending path can dispatch
  SignService svc(cfg);
  svc.add_key("k", rsa::test_key(512));

  std::vector<util::Sha256::Digest> digests;
  std::vector<std::future<SignResult>> futs;
  for (std::size_t i = 0; i < SignService::kBatch; ++i) {
    digests.push_back(digest_of(i));
    futs.push_back(svc.sign("k", digests.back()));
  }
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const SignResult r = futs[i].get();
    EXPECT_TRUE(verifies(svc.public_key("k"), digests[i], r.signature));
    EXPECT_GE(r.completed_at, r.submitted_at);
  }

  const StatsSnapshot s = svc.stats();
  EXPECT_EQ(s.requests, SignService::kBatch);
  EXPECT_EQ(s.batches, 1u);
  EXPECT_EQ(s.full_batches, 1u);
  EXPECT_EQ(s.padded_lanes, 0u);
  EXPECT_DOUBLE_EQ(s.mean_lane_occupancy, 1.0);
}

TEST(SignService, PartialBatchLingerFlush) {
  SignServiceConfig cfg;
  cfg.max_linger = std::chrono::microseconds(2000);
  SignService svc(cfg);
  svc.add_key("k", rsa::test_key(512));

  std::vector<util::Sha256::Digest> digests;
  std::vector<std::future<SignResult>> futs;
  const auto submit_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < 3; ++i) {
    digests.push_back(digest_of(100 + i));
    futs.push_back(svc.sign("k", digests.back()));
  }
  const auto submit_window =
      std::chrono::steady_clock::now() - submit_start;
  // No stop() here: completion must come from the linger timer alone.
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const SignResult r = futs[i].get();
    EXPECT_TRUE(verifies(svc.public_key("k"), digests[i], r.signature));
  }

  const StatsSnapshot s = svc.stats();
  EXPECT_EQ(s.requests, 3u);
  EXPECT_EQ(s.full_batches, 0u);
  // The linger deadline starts no earlier than the first submission, so if
  // all three submissions landed within max_linger of each other they are
  // guaranteed to flush as ONE batch. If scheduler contention stretched
  // the submission loop past the deadline, the dispatcher may correctly
  // split the flush — assert the shape invariants instead of the exact
  // count rather than serializing the whole test run around a timing
  // budget (this is CPU contention, not a race: certified under TSan).
  if (submit_window < cfg.max_linger) {
    EXPECT_EQ(s.batches, 1u);
  } else {
    EXPECT_GE(s.batches, 1u);
    EXPECT_LE(s.batches, 3u);
  }
  EXPECT_EQ(s.padded_lanes, s.batches * SignService::kBatch - 3);
  EXPECT_DOUBLE_EQ(
      s.mean_lane_occupancy,
      3.0 / static_cast<double>(s.batches * SignService::kBatch));
}

TEST(SignService, MatchesSynchronousEngineSignature) {
  // No blinding anywhere, so the batched service signature must be
  // byte-identical to the single-op Engine path for the same message.
  const rsa::PrivateKey& key = rsa::test_key(512);
  SignServiceConfig cfg;
  cfg.max_linger = std::chrono::microseconds(500);
  SignService svc(cfg);
  svc.add_key("k", key);

  const std::string msg = "sign me through the batching service";
  const std::span<const std::uint8_t> bytes{
      reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()};
  const auto digest = util::Sha256::hash(bytes);

  const SignResult r = svc.sign("k", digest).get();
  const rsa::Engine engine(key, rsa::EngineOptions{});
  EXPECT_EQ(r.signature, rsa::sign_sha256(engine, bytes));
  EXPECT_TRUE(rsa::verify_sha256(engine, bytes, r.signature));
}

TEST(SignService, RawPrivateOpMatchesEngine) {
  // private_op must compute exactly x^d mod n for a caller-chosen block —
  // no EMSA encoding on the way in, no interpretation on the way out —
  // so the TLS path can run RSAES decryptions through the same batches.
  const rsa::PrivateKey& key = rsa::test_key(512);
  const std::size_t k = key.pub.byte_size();
  util::Rng rng(4242);
  std::vector<std::uint8_t> block(k);
  rng.fill_bytes(block.data(), block.size());
  block[0] = 0;  // keep the value comfortably below n
  const rsa::Engine engine(key, rsa::EngineOptions{});
  const auto expected =
      engine.private_op(bigint::BigInt::from_bytes_be(block)).to_bytes_be(k);

  for (const rsa::Backend b : rsa::kAllBackends) {
    if (!rsa::has_batch_form(b)) continue;
    SignService svc(SignServiceConfig{.backend = b});
    svc.add_key("k", key);
    const SignResult r = svc.private_op("k", block).get();
    EXPECT_EQ(r.signature, expected) << rsa::to_string(b);
    EXPECT_GE(r.completed_at, r.submitted_at);
  }
}

TEST(SignService, RawPrivateOpAndSignSharePipeline) {
  // Mixed traffic on one key: raw blocks and digests interleave in the
  // same shard and both come back correct.
  const rsa::PrivateKey& key = rsa::test_key(512);
  const std::size_t k = key.pub.byte_size();
  SignService svc;
  svc.add_key("k", key);
  const rsa::Engine engine(key, rsa::EngineOptions{});

  std::vector<std::future<SignResult>> raw_futs, sign_futs;
  std::vector<std::vector<std::uint8_t>> blocks;
  util::Rng rng(777);
  for (int i = 0; i < 6; ++i) {
    std::vector<std::uint8_t> block(k);
    rng.fill_bytes(block.data(), block.size());
    block[0] = 0;
    blocks.push_back(block);
    raw_futs.push_back(svc.private_op("k", block));
    sign_futs.push_back(svc.sign("k", digest_of(900 + i)));
  }
  for (int i = 0; i < 6; ++i) {
    const auto expected =
        engine.private_op(bigint::BigInt::from_bytes_be(blocks[i]))
            .to_bytes_be(k);
    EXPECT_EQ(raw_futs[i].get().signature, expected) << i;
    EXPECT_TRUE(verifies(svc.public_key("k"), digest_of(900 + i),
                         sign_futs[i].get().signature))
        << i;
  }
}

TEST(SignService, RawPrivateOpRejectsBadInput) {
  const rsa::PrivateKey& key = rsa::test_key(512);
  const std::size_t k = key.pub.byte_size();
  SignService svc;
  svc.add_key("k", key);
  // Wrong size.
  EXPECT_THROW(svc.private_op("k", std::vector<std::uint8_t>(k - 1, 0)),
               std::invalid_argument);
  // Value >= n.
  EXPECT_THROW(svc.private_op("k", std::vector<std::uint8_t>(k, 0xff)),
               std::invalid_argument);
  // Unknown key.
  EXPECT_THROW(svc.private_op("nope", std::vector<std::uint8_t>(k, 0)),
               std::invalid_argument);
}

TEST(SignService, CrossKeyRouting) {
  util::Rng rng_a(1001), rng_b(2002);
  const rsa::PrivateKey key_a = rsa::generate_key(512, rng_a);
  const rsa::PrivateKey key_b = rsa::generate_key(512, rng_b);
  ASSERT_NE(key_a.pub.n, key_b.pub.n);

  SignServiceConfig cfg;
  cfg.max_linger = std::chrono::microseconds(500);
  SignService svc(cfg);
  svc.add_key("a", key_a);
  svc.add_key("b", key_b);

  // Interleaved submissions must land on the right shard/key.
  std::vector<util::Sha256::Digest> digests;
  std::vector<std::future<SignResult>> futs;
  for (std::size_t i = 0; i < 8; ++i) {
    digests.push_back(digest_of(200 + i));
    futs.push_back(svc.sign(i % 2 == 0 ? "a" : "b", digests.back()));
  }
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const SignResult r = futs[i].get();
    const rsa::PublicKey& right = i % 2 == 0 ? key_a.pub : key_b.pub;
    const rsa::PublicKey& wrong = i % 2 == 0 ? key_b.pub : key_a.pub;
    EXPECT_TRUE(verifies(right, digests[i], r.signature));
    EXPECT_FALSE(verifies(wrong, digests[i], r.signature));
  }

  EXPECT_THROW((void)svc.sign("nope", digests[0]), std::invalid_argument);
  EXPECT_THROW(svc.add_key("a", key_a), std::invalid_argument);
  const std::vector<std::uint8_t> short_digest(16, 0xab);
  EXPECT_THROW((void)svc.sign("a", short_digest), std::invalid_argument);
}

TEST(SignService, StopDrainsPartialEvenWhenFullBatchesOnly) {
  SignServiceConfig cfg;
  cfg.full_batches_only = true;
  SignService svc(cfg);
  svc.add_key("k", rsa::test_key(512));

  std::vector<util::Sha256::Digest> digests;
  std::vector<std::future<SignResult>> futs;
  for (std::size_t i = 0; i < 5; ++i) {
    digests.push_back(digest_of(300 + i));
    futs.push_back(svc.sign("k", digests.back()));
  }
  svc.stop();  // must flush the 5-element partial and complete everything
  for (std::size_t i = 0; i < futs.size(); ++i) {
    EXPECT_TRUE(
        verifies(svc.public_key("k"), digests[i], futs[i].get().signature));
  }
  EXPECT_THROW((void)svc.sign("k", digests[0]), std::runtime_error);
  EXPECT_THROW(svc.add_key("late", rsa::test_key(512)), std::runtime_error);
  svc.stop();  // idempotent
}

TEST(SignService, StatsSnapshotSanity) {
  SignServiceConfig cfg;
  cfg.max_linger = std::chrono::microseconds(1000);
  SignService svc(cfg);
  svc.add_key("k", rsa::test_key(512));

  constexpr std::size_t kRequests = 35;  // 2 full batches + a partial
  std::vector<std::future<SignResult>> futs;
  for (std::size_t i = 0; i < kRequests; ++i) {
    futs.push_back(svc.sign("k", digest_of(400 + i)));
    if (i == kRequests / 2) {
      // Snapshots must be consistent mid-run too.
      const StatsSnapshot mid = svc.stats();
      EXPECT_LE(mid.requests, kRequests);
      EXPECT_LE(mid.full_batches, mid.batches);
    }
  }
  for (auto& f : futs) (void)f.get();
  svc.stop();

  const StatsSnapshot s = svc.stats();
  EXPECT_EQ(s.requests, kRequests);
  EXPECT_GE(s.batches, kRequests / SignService::kBatch);
  EXPECT_GE(s.full_batches, 2u);
  EXPECT_GT(s.mean_lane_occupancy, 0.0);
  EXPECT_LE(s.mean_lane_occupancy, 1.0);
  // Every request contributes one queue-wait sample; every batch one
  // service-time sample.
  EXPECT_EQ(s.queue_wait_us.count, kRequests);
  EXPECT_EQ(s.service_us.count, s.batches);
  EXPECT_GE(s.queue_wait_us.p99, s.queue_wait_us.median);
  EXPECT_GE(s.service_us.min, 0.0);
  // Occupancy identity: signed lanes + padded lanes = batches * 16.
  EXPECT_EQ(static_cast<std::uint64_t>(
                s.mean_lane_occupancy *
                    static_cast<double>(s.batches * SignService::kBatch) +
                0.5) +
                s.padded_lanes,
            s.batches * SignService::kBatch);
}

}  // namespace
}  // namespace phissl
