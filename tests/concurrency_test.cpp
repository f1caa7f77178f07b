// Concurrency tests: the engines are documented as safe for concurrent
// use after construction (immutable state + thread_local scratch in the
// vector kernels). These tests hammer shared objects from many threads
// and check every result against the single-threaded oracle — including
// the tricky case of one thread alternating between contexts of different
// sizes (which stresses the thread_local buffer resizing).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "baseline/systems.hpp"
#include "mont/modexp.hpp"
#include "mont/vector_mont.hpp"
#include "rsa/engine.hpp"
#include "rsa/key.hpp"
#include "rsa/pkcs1.hpp"
#include "ssl/session_cache.hpp"
#include "util/random.hpp"

namespace phissl {
namespace {

using bigint::BigInt;

TEST(Concurrency, SharedEngineManyThreads) {
  const rsa::PrivateKey& key = rsa::test_key(512);
  const rsa::Engine engine(key, rsa::EngineOptions{});

  // Precompute oracle answers single-threaded.
  util::Rng rng(1);
  constexpr int kOps = 24;
  std::vector<BigInt> inputs, expected;
  for (int i = 0; i < kOps; ++i) {
    inputs.push_back(BigInt::random_below(key.pub.n, rng));
    expected.push_back(engine.private_op(inputs.back()));
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = t; i < kOps; i += 4) {
        if (engine.private_op(inputs[static_cast<std::size_t>(i)]) !=
            expected[static_cast<std::size_t>(i)]) {
          mismatches++;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(Concurrency, OneThreadAlternatingContextSizes) {
  // The vector kernel's thread_local accumulators are resized per call;
  // alternating between two moduli of very different size in one thread
  // must not corrupt either computation.
  util::Rng rng(2);
  const BigInt m_small = BigInt::random_odd_exact_bits(128, rng);
  const BigInt m_large = BigInt::random_odd_exact_bits(2048, rng);
  const mont::VectorMontCtx small(m_small);
  const mont::VectorMontCtx large(m_large);

  for (int i = 0; i < 10; ++i) {
    const BigInt a = BigInt::random_below(m_small, rng);
    const BigInt b = BigInt::random_below(m_small, rng);
    const BigInt c = BigInt::random_below(m_large, rng);
    const BigInt d = BigInt::random_below(m_large, rng);
    mont::VectorMontCtx::Rep out_s, out_l;
    small.mul(small.to_mont(a), small.to_mont(b), out_s);
    large.mul(large.to_mont(c), large.to_mont(d), out_l);
    EXPECT_EQ(small.from_mont(out_s), (a * b).mod(m_small));
    EXPECT_EQ(large.from_mont(out_l), (c * d).mod(m_large));
  }
}

TEST(Concurrency, ParallelSignaturesAllVerify) {
  const rsa::PrivateKey& key = rsa::test_key(512);
  const rsa::Engine engine =
      baseline::make_engine(baseline::System::kPhiOpenSSL, key);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 6; ++i) {
        const std::string msg =
            "thread " + std::to_string(t) + " msg " + std::to_string(i);
        const std::span<const std::uint8_t> bytes{
            reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()};
        const auto sig = rsa::sign_sha256(engine, bytes);
        if (!rsa::verify_sha256(engine, bytes, sig)) failures++;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(Concurrency, DistinctEnginesDistinctKernelsInParallel) {
  // One thread per backend, one key: all must agree.
  const rsa::PrivateKey& key = rsa::test_key(512);
  util::Rng rng(3);
  const BigInt m = BigInt::random_below(key.pub.n, rng);
  const BigInt expected = m.mod_pow(key.d, key.pub.n);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (const rsa::Backend k : rsa::kAllBackends) {
    threads.emplace_back([&, k] {
      rsa::EngineOptions opts;
      opts.kernel = k;
      const rsa::Engine engine(key, opts);
      for (int i = 0; i < 5; ++i) {
        if (engine.private_op(m) != expected) mismatches++;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(Concurrency, SessionCacheChurnStaysBoundedAndConsistent) {
  // 4 threads hammer one sharded cache with interleaved put/get over an
  // id space larger than the capacity, forcing constant LRU eviction in
  // every shard. Invariants under churn: (a) a get() that hits returns
  // the master that was stored for THAT id (we derive the master from
  // the id, so a cross-id smash is detectable), (b) the cache never
  // exceeds its capacity, (c) the counters balance. Runs in the TSan
  // ctest subset, which is what certifies the striped locking.
  ssl::SessionCache cache(
      ssl::SessionCacheConfig{.capacity = 64, .shards = 8});
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 4000;
  constexpr std::uint8_t kIdSpace = 200;  // > capacity -> steady eviction

  const auto master_for = [](std::uint8_t tag) {
    ssl::MasterSecret m{};
    for (std::size_t i = 0; i < m.size(); ++i) {
      m[i] = static_cast<std::uint8_t>(tag ^ i);
    }
    return m;
  };
  const auto id_for = [](std::uint8_t tag) {
    ssl::SessionId id{};
    id[0] = tag;                       // vary the map-hash bytes
    id[ssl::kSessionIdSize - 1] = tag; // vary the shard-selection bytes
    return id;
  };

  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      util::Rng rng(static_cast<std::uint64_t>(t) + 1);
      for (int op = 0; op < kOpsPerThread; ++op) {
        const auto tag = static_cast<std::uint8_t>(rng.next_u32() % kIdSpace);
        if (rng.next_u32() % 2 == 0) {
          cache.put(id_for(tag), master_for(tag));
        } else {
          const auto got = cache.get(id_for(tag));
          if (got.has_value() && *got != master_for(tag)) bad++;
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(bad.load(), 0);
  EXPECT_LE(cache.size(), 64u);
  const ssl::SessionCacheStats st = cache.stats();
  EXPECT_EQ(st.hits + st.misses,
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread - st.puts);
  EXPECT_GT(st.evictions, 0u);
}

}  // namespace
}  // namespace phissl
