// TLS 1.2 record layer tests: key derivation, duplex sessions, sequence
// discipline, tampering, truncation, cross-side key agreement, and that a
// closed channel leaves no key material behind.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <new>
#include <stdexcept>

#include "ssl/record.hpp"
#include "util/random.hpp"

namespace phissl::ssl {
namespace {

class RecordTest : public ::testing::Test {
 protected:
  RecordTest() {
    rng_.fill_bytes(master_.data(), master_.size());
    rng_.fill_bytes(client_random_.data(), client_random_.size());
    rng_.fill_bytes(server_random_.data(), server_random_.size());
    keys_ = derive_session_keys(master_, client_random_, server_random_);
  }

  util::Rng rng_{77};
  MasterSecret master_{};
  Random client_random_{};
  Random server_random_{};
  SessionKeys keys_{};
};

TEST_F(RecordTest, KeyDerivationDeterministicAndDistinct) {
  const auto again = derive_session_keys(master_, client_random_, server_random_);
  EXPECT_EQ(again.client_mac_key, keys_.client_mac_key);
  EXPECT_EQ(again.server_enc_key, keys_.server_enc_key);
  EXPECT_NE(keys_.client_mac_key, keys_.server_mac_key);
  EXPECT_NE(keys_.client_enc_key, keys_.server_enc_key);
  // Different randoms -> different keys.
  Random other = client_random_;
  other[0] ^= 1;
  const auto diff = derive_session_keys(master_, other, server_random_);
  EXPECT_NE(diff.client_enc_key, keys_.client_enc_key);
}

TEST_F(RecordTest, DuplexRoundTrip) {
  Session client(keys_, /*is_server=*/false);
  Session server(keys_, /*is_server=*/true);

  const std::vector<std::uint8_t> req = {'G', 'E', 'T', ' ', '/'};
  const auto wire1 = client.send(req, rng_);
  const auto got1 = server.receive(wire1);
  ASSERT_TRUE(got1.has_value());
  EXPECT_EQ(*got1, req);

  const std::vector<std::uint8_t> resp(500, 0x42);
  const auto wire2 = server.send(resp, rng_);
  const auto got2 = client.receive(wire2);
  ASSERT_TRUE(got2.has_value());
  EXPECT_EQ(*got2, resp);
}

TEST_F(RecordTest, ManyRecordsKeepSequence) {
  Session client(keys_, false);
  Session server(keys_, true);
  for (int i = 0; i < 50; ++i) {
    const std::vector<std::uint8_t> msg(static_cast<std::size_t>(i) + 1,
                                        static_cast<std::uint8_t>(i));
    const auto wire = client.send(msg, rng_);
    const auto got = server.receive(wire);
    ASSERT_TRUE(got.has_value()) << i;
    EXPECT_EQ(*got, msg) << i;
  }
}

TEST_F(RecordTest, ReplayRejected) {
  Session client(keys_, false);
  Session server(keys_, true);
  const std::vector<std::uint8_t> msg = {1, 2, 3};
  const auto wire = client.send(msg, rng_);
  ASSERT_TRUE(server.receive(wire).has_value());
  // Same record again: the receiver's sequence number advanced, so the
  // MAC (which covers the sequence number) no longer verifies.
  EXPECT_FALSE(server.receive(wire).has_value());
}

TEST_F(RecordTest, ReorderRejected) {
  Session client(keys_, false);
  Session server(keys_, true);
  const auto first = client.send(std::vector<std::uint8_t>{1}, rng_);
  const auto second = client.send(std::vector<std::uint8_t>{2}, rng_);
  EXPECT_FALSE(server.receive(second).has_value());  // out of order
  EXPECT_TRUE(server.receive(first).has_value());
}

TEST_F(RecordTest, TamperingRejected) {
  Session client(keys_, false);
  const std::vector<std::uint8_t> msg(64, 0x5a);
  const auto wire = client.send(msg, rng_);
  for (std::size_t pos : {std::size_t{0}, kIvSize, wire.size() - 1}) {
    Session server(keys_, true);
    auto bad = wire;
    bad[pos] ^= 0x01;
    EXPECT_FALSE(server.receive(bad).has_value()) << pos;
  }
}

TEST_F(RecordTest, TruncationRejected) {
  Session client(keys_, false);
  Session server(keys_, true);
  auto wire = client.send(std::vector<std::uint8_t>(40, 1), rng_);
  wire.resize(wire.size() - 16);  // drop a whole block
  EXPECT_FALSE(server.receive(wire).has_value());
  EXPECT_FALSE(server.receive(std::vector<std::uint8_t>(5, 0)).has_value());
}

TEST_F(RecordTest, DirectionKeysNotInterchangeable) {
  Session client1(keys_, false);
  Session client2(keys_, false);
  // A client cannot open a record another client sealed (it decrypts with
  // the SERVER write keys).
  const auto wire = client1.send(std::vector<std::uint8_t>{9}, rng_);
  EXPECT_FALSE(client2.receive(wire).has_value());
}

TEST_F(RecordTest, WrongContentTypeRejected) {
  RecordChannel sender(keys_.client_enc_key, keys_.client_mac_key);
  RecordChannel receiver(keys_.client_enc_key, keys_.client_mac_key);
  const std::vector<std::uint8_t> msg = {1, 2, 3};
  const auto wire = sender.seal(kContentApplicationData, msg, rng_);
  EXPECT_FALSE(receiver.open(22, wire).has_value());  // handshake type
}

TEST_F(RecordTest, EmptyPayloadAllowed) {
  Session client(keys_, false);
  Session server(keys_, true);
  const auto wire = client.send({}, rng_);
  const auto got = server.receive(wire);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->empty());
}

TEST_F(RecordTest, PaddingAndMacFailuresIndistinguishable) {
  // Vaudenay regression: a receiver must reject a record whose CBC
  // padding was corrupted the same way it rejects one whose padding is
  // intact but whose MAC fails — one signal, one code path. A 16-byte
  // plaintext + 32-byte MAC pads with a full block (pad = 16), so
  // flipping the last byte of the LAST ciphertext block corrupts the pad
  // itself, while flipping an IV byte garbles only plaintext byte 0 and
  // leaves the padding valid (MAC failure). Both must read as nullopt.
  RecordChannel sender(keys_.client_enc_key, keys_.client_mac_key);
  const std::vector<std::uint8_t> msg(16, 0x11);
  const auto wire = sender.seal(kContentApplicationData, msg, rng_);

  auto pad_corrupt = wire;
  pad_corrupt.back() ^= 0x01;  // hits the padding block
  RecordChannel r1(keys_.client_enc_key, keys_.client_mac_key);
  EXPECT_EQ(r1.open(kContentApplicationData, pad_corrupt), std::nullopt);

  auto mac_fail = wire;
  mac_fail[0] ^= 0x01;  // IV bit flip: padding stays valid, MAC fails
  RecordChannel r2(keys_.client_enc_key, keys_.client_mac_key);
  EXPECT_EQ(r2.open(kContentApplicationData, mac_fail), std::nullopt);

  // Neither failure advanced the sequence: the intact record still opens.
  EXPECT_TRUE(r1.open(kContentApplicationData, wire).has_value());
  EXPECT_TRUE(r2.open(kContentApplicationData, wire).has_value());
}

TEST_F(RecordTest, TooShortForMacRejectedBeforeDecryption) {
  // 2 ciphertext blocks (32 bytes) can never hold MAC + >=1 pad byte;
  // the public length check must reject them so the MAC-always-runs
  // invariant never sees an undersized buffer.
  RecordChannel receiver(keys_.client_enc_key, keys_.client_mac_key);
  std::vector<std::uint8_t> runt(kIvSize + 32, 0);
  EXPECT_FALSE(receiver.open(kContentApplicationData, runt).has_value());
  EXPECT_EQ(receiver.open_seq(), 0u);
}

TEST_F(RecordTest, SequenceExhaustionFailsClosed) {
  RecordChannel sender(keys_.client_enc_key, keys_.client_mac_key);
  RecordChannel receiver(keys_.client_enc_key, keys_.client_mac_key);
  const std::vector<std::uint8_t> msg = {1, 2, 3};

  // One from the limit: the last usable sequence number still works.
  sender.seq_override_for_testing(RecordChannel::kSeqLimit - 1, 0);
  receiver.seq_override_for_testing(0, RecordChannel::kSeqLimit - 1);
  const auto last = sender.seal(kContentApplicationData, msg, rng_);
  EXPECT_EQ(sender.seal_seq(), RecordChannel::kSeqLimit);
  const auto got = receiver.open(kContentApplicationData, last);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, msg);
  EXPECT_EQ(receiver.open_seq(), RecordChannel::kSeqLimit);

  // At the limit: seal fails closed (throws), open fails closed
  // (nullopt), and neither counter wraps back to reusable values.
  EXPECT_THROW(sender.seal(kContentApplicationData, msg, rng_),
               std::runtime_error);
  EXPECT_EQ(sender.seal_seq(), RecordChannel::kSeqLimit);
  EXPECT_FALSE(receiver.open(kContentApplicationData, last).has_value());
  EXPECT_EQ(receiver.open_seq(), RecordChannel::kSeqLimit);
}

/// The storage a channel leaves after its destructor ran (`dead`) and
/// while it was alive and had sealed one record (`live`).
struct ChannelRemains {
  std::array<unsigned char, sizeof(RecordChannel)> live{};
  std::array<unsigned char, sizeof(RecordChannel)> dead{};
};

ChannelRemains remains(std::span<const std::uint8_t> enc,
                       std::span<const std::uint8_t> mac) {
  alignas(RecordChannel) unsigned char storage[sizeof(RecordChannel)];
  std::fill(std::begin(storage), std::end(storage), 0xa5);
  auto* ch = ::new (static_cast<void*>(storage)) RecordChannel(enc, mac);
  util::Rng rng(5);
  (void)ch->seal(kContentApplicationData, std::vector<std::uint8_t>(40, 7),
                 rng);
  ChannelRemains r;
  std::memcpy(r.live.data(), storage, sizeof storage);
  ch->~RecordChannel();
  asm volatile("" : : "r"(storage) : "memory");
  std::memcpy(r.dead.data(), storage, sizeof storage);
  return r;
}

TEST_F(RecordTest, ClosedChannelLeavesNoKeyByte) {
  // The AES round keys and the keyed-HMAC midstates both live inline in
  // the channel. Two channels under different keys, same sequence history:
  // every byte that differs while they live is key-derived, and after
  // destruction none may differ. The raw keys may not appear either.
  const auto a = remains(keys_.client_enc_key, keys_.client_mac_key);
  const auto b = remains(keys_.server_enc_key, keys_.server_mac_key);
  EXPECT_NE(a.live, b.live);
  EXPECT_EQ(a.dead, b.dead);
  for (const auto& key :
       {std::span<const std::uint8_t>(keys_.client_enc_key),
        std::span<const std::uint8_t>(keys_.client_mac_key)}) {
    EXPECT_EQ(std::search(a.dead.begin(), a.dead.end(), key.begin(),
                          key.begin() + 4),
              a.dead.end());
  }
}

}  // namespace
}  // namespace phissl::ssl
