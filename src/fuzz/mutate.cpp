#include "fuzz/mutate.hpp"

#include <algorithm>

#include "ssl/async/wire.hpp"

namespace phissl::fuzz {

namespace {

using ssl::async::kMaxFrameBody;

/// Tiny deterministic PRNG (splitmix64) seeded by the mutation index so
/// each k explores an independent edit without any global state.
struct Mix {
  std::uint64_t s;
  std::uint64_t next() {
    s += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t bound) {
    return bound == 0 ? 0 : static_cast<std::size_t>(next() % bound);
  }
};

std::size_t frame_len(const std::uint8_t* hdr) {
  return (static_cast<std::size_t>(hdr[1]) << 16) |
         (static_cast<std::size_t>(hdr[2]) << 8) | hdr[3];
}

void write_len(std::uint8_t* hdr, std::size_t len) {
  hdr[1] = static_cast<std::uint8_t>(len >> 16);
  hdr[2] = static_cast<std::uint8_t>(len >> 8);
  hdr[3] = static_cast<std::uint8_t>(len);
}

}  // namespace

std::vector<std::size_t> frame_boundaries(std::span<const std::uint8_t> data) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos + 4 <= data.size()) {
    const std::size_t len = frame_len(&data[pos]);
    if (len > kMaxFrameBody) break;  // FrameReader poisons here
    out.push_back(pos);
    if (pos + 4 + len > data.size()) break;  // trailing partial frame
    pos += 4 + len;
  }
  return out;
}

std::size_t fixup_frame_lengths(std::vector<std::uint8_t>& buf) {
  const auto bounds = frame_boundaries(buf);
  std::size_t fixed = 0;
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    const std::size_t body_end =
        (i + 1 < bounds.size()) ? bounds[i + 1] : buf.size();
    const std::size_t body = body_end - bounds[i] - 4;
    if (frame_len(&buf[bounds[i]]) != body && body <= kMaxFrameBody) {
      write_len(&buf[bounds[i]], body);
      ++fixed;
    }
  }
  return fixed;
}

std::vector<std::uint8_t> mutate_framed(std::span<const std::uint8_t> in,
                                        std::uint64_t k) {
  std::vector<std::uint8_t> buf(in.begin(), in.end());
  const auto bounds = frame_boundaries(buf);
  if (bounds.empty()) return mutate_bytes(in, k);

  Mix rng{k * 0x2545f4914f6cdd1dULL + 1};
  const std::size_t fi = rng.below(bounds.size());
  const std::size_t hdr = bounds[fi];
  const std::size_t body_len =
      std::min(frame_len(&buf[hdr]), buf.size() - hdr - 4);

  switch (k % 9) {
    case 0: {  // message-type swap: reroute the body to another decoder
      buf[hdr] = static_cast<std::uint8_t>(1 + rng.below(10));
      break;
    }
    case 1: {  // truncate at a frame boundary: drop this frame's tail
      buf.resize(hdr);
      break;
    }
    case 2: {  // truncate mid-body: a partial frame the reader parks on
      buf.resize(hdr + 4 + rng.below(body_len + 1));
      break;
    }
    case 3: {  // extend at a field boundary: splice bytes into the body
      const std::size_t at = hdr + 4 + rng.below(body_len + 1);
      const std::size_t n = 1 + rng.below(8);
      const auto spliced = buf.insert(
          buf.begin() + static_cast<std::ptrdiff_t>(at), n, std::uint8_t{0});
      std::generate_n(spliced, n,
                      [&] { return static_cast<std::uint8_t>(rng.next()); });
      fixup_frame_lengths(buf);
      break;
    }
    case 4: {  // length off-by-one, NO fixup: misalign every later frame
      const std::size_t len = frame_len(&buf[hdr]);
      write_len(&buf[hdr], (rng.next() & 1) != 0 ? len + 1
                                                 : (len == 0 ? 1 : len - 1));
      break;
    }
    case 5: {  // hostile length: probe the oversize-poison boundary
      const std::size_t probe[] = {kMaxFrameBody, kMaxFrameBody + 1,
                                   (std::size_t{1} << 24) - 1};
      write_len(&buf[hdr], probe[rng.below(3)]);
      break;
    }
    case 6: {  // duplicate a frame (replayed message)
      std::vector<std::uint8_t> copy(
          buf.begin() + static_cast<std::ptrdiff_t>(hdr),
          buf.begin() + static_cast<std::ptrdiff_t>(hdr + 4 + body_len));
      buf.insert(buf.begin() + static_cast<std::ptrdiff_t>(hdr + 4 + body_len),
                 copy.begin(), copy.end());
      break;
    }
    case 7: {  // swap two whole frames (out-of-order delivery)
      if (bounds.size() >= 2) {
        const std::size_t fj = rng.below(bounds.size());
        if (fi != fj) {
          const std::size_t a = std::min(bounds[fi], bounds[fj]);
          const std::size_t b = std::max(bounds[fi], bounds[fj]);
          const std::size_t a_len =
              std::min(4 + frame_len(&buf[a]), buf.size() - a);
          const std::size_t b_len =
              std::min(4 + frame_len(&buf[b]), buf.size() - b);
          std::vector<std::uint8_t> fa(buf.begin() + static_cast<std::ptrdiff_t>(a),
                                       buf.begin() + static_cast<std::ptrdiff_t>(a + a_len));
          std::vector<std::uint8_t> mid(buf.begin() + static_cast<std::ptrdiff_t>(a + a_len),
                                        buf.begin() + static_cast<std::ptrdiff_t>(b));
          std::vector<std::uint8_t> fb(buf.begin() + static_cast<std::ptrdiff_t>(b),
                                       buf.begin() + static_cast<std::ptrdiff_t>(b + b_len));
          std::vector<std::uint8_t> out;
          out.insert(out.end(), buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(a));
          out.insert(out.end(), fb.begin(), fb.end());
          out.insert(out.end(), mid.begin(), mid.end());
          out.insert(out.end(), fa.begin(), fa.end());
          out.insert(out.end(), buf.begin() + static_cast<std::ptrdiff_t>(b + b_len), buf.end());
          buf = std::move(out);
        }
      }
      break;
    }
    default: {  // body corruption with fixup: reach deep decoder states
      if (body_len > 0) {
        const std::size_t at = hdr + 4 + rng.below(body_len);
        buf[at] ^= static_cast<std::uint8_t>(1 + rng.below(255));
      }
      fixup_frame_lengths(buf);
      break;
    }
  }
  return buf;
}

std::vector<std::uint8_t> mutate_bytes(std::span<const std::uint8_t> in,
                                       std::uint64_t k) {
  std::vector<std::uint8_t> buf(in.begin(), in.end());
  Mix rng{k * 0x9e3779b97f4a7c15ULL + 7};
  switch (k % 4) {
    case 0: {  // flip a byte
      if (!buf.empty()) {
        buf[rng.below(buf.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
      }
      break;
    }
    case 1: {  // truncate
      buf.resize(rng.below(buf.size() + 1));
      break;
    }
    case 2: {  // extend with deterministic noise
      const std::size_t n = 1 + rng.below(16);
      for (std::size_t i = 0; i < n; ++i) {
        buf.push_back(static_cast<std::uint8_t>(rng.next()));
      }
      break;
    }
    default: {  // duplicate a chunk in place
      if (!buf.empty()) {
        const std::size_t at = rng.below(buf.size());
        const std::size_t n = 1 + rng.below(std::min<std::size_t>(16, buf.size() - at));
        std::vector<std::uint8_t> chunk(
            buf.begin() + static_cast<std::ptrdiff_t>(at),
            buf.begin() + static_cast<std::ptrdiff_t>(at + n));
        buf.insert(buf.begin() + static_cast<std::ptrdiff_t>(at), chunk.begin(),
                   chunk.end());
      }
      break;
    }
  }
  return buf;
}

}  // namespace phissl::fuzz
