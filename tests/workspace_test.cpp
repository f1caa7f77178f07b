// Zero-allocation property of the workspace-threaded RSA paths.
//
// The global operator new/delete pair below counts every heap allocation in
// the test binary. After a warm-up call (which sizes the per-thread
// workspaces for the key in use), Engine::private_op_into and
// BatchEngine::private_op must perform zero heap allocations per call —
// the property the ExpWorkspace / kernel-workspace design exists to
// provide.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "bigint/bigint.hpp"
#include "rsa/batch_engine.hpp"
#include "rsa/engine.hpp"
#include "rsa/key.hpp"
#include "util/random.hpp"

namespace {
std::atomic<std::size_t> g_alloc_count{0};

std::size_t alloc_count() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

void* counted_alloc(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* counted_alloc(std::size_t n, std::align_val_t al) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(al),
                                   (n + static_cast<std::size_t>(al) - 1) &
                                       ~(static_cast<std::size_t>(al) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace phissl::rsa {
namespace {

using bigint::BigInt;

TEST(Workspace, EngineCrtPrivateOpIsAllocationFreeAfterWarmup) {
  const PrivateKey& key = test_key(1024);
  util::Rng rng(31);
  for (const Backend k : kAllBackends) {
    for (Schedule sched : {Schedule::kFixedWindow, Schedule::kSlidingWindow}) {
      EngineOptions opts;
      opts.kernel = k;
      opts.schedule = sched;
      opts.use_crt = true;
      opts.blinding = false;
      const Engine eng(key, opts);

      std::vector<BigInt> xs;
      for (int i = 0; i < 4; ++i) {
        xs.push_back(BigInt::random_below(key.pub.n, rng));
      }
      BigInt out;
      // Two warm-up calls size every per-thread workspace and give `out`
      // its full capacity.
      eng.private_op_into(xs[0], out);
      eng.private_op_into(xs[1], out);

      const std::size_t before = alloc_count();
      for (const BigInt& x : xs) {
        eng.private_op_into(x, out);
      }
      const std::size_t after = alloc_count();
      EXPECT_EQ(after - before, 0u)
          << to_string(k) << "/" << to_string(sched);
      // Correctness of the final measured call, checked outside the
      // measured region.
      EXPECT_EQ(out, eng.private_op(xs.back()))
          << to_string(k) << "/" << to_string(sched);
    }
  }
}

TEST(Workspace, BatchEnginePrivateOpIsAllocationFreeAfterWarmup) {
  const PrivateKey& key = test_key(1024);
  const Engine scalar(key, EngineOptions{});
  util::Rng rng(32);
  std::array<BigInt, BatchEngine::kBatch> xs, out;
  for (auto& x : xs) x = BigInt::random_below(key.pub.n, rng);

  for (const Backend b :
       {Backend::kKncVec, Backend::kIfma52, Backend::kIfma52Portable}) {
    const BatchEngine batch(key, b);
    batch.private_op(xs, out);
    batch.private_op(xs, out);  // warm-up

    const std::size_t before = alloc_count();
    for (int i = 0; i < 3; ++i) {
      batch.private_op(xs, out);
    }
    const std::size_t after = alloc_count();
    EXPECT_EQ(after - before, 0u) << to_string(b);

    for (std::size_t l = 0; l < BatchEngine::kBatch; ++l) {
      EXPECT_EQ(out[l], scalar.private_op(xs[l])) << to_string(b) << " " << l;
    }
  }
}

TEST(Workspace, AllocationCounterSeesHeapTraffic) {
  // Sanity-check the instrument itself: a vector growth must be counted.
  const std::size_t before = alloc_count();
  std::vector<std::uint64_t>* v = new std::vector<std::uint64_t>(1024);
  delete v;
  const std::size_t after = alloc_count();
  EXPECT_GE(after - before, 1u);
}

}  // namespace
}  // namespace phissl::rsa
