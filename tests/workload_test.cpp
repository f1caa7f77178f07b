// Unit tests for the workload trace recorder (src/obs/workload.hpp): the
// ops' wire names as the writer emits them, the exact JSONL lines the
// global recorder exports for what it recorded,
// ring wraparound (oldest events overwritten, drop totals and the
// registry drop counter advance) and the recording toggle.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/workload.hpp"

namespace phissl::obs {
namespace {

WorkloadEvent make_event(std::uint64_t arrival, WorkloadOp op,
                         std::uint8_t lanes) {
  WorkloadEvent ev;
  ev.arrival_ns = arrival;
  ev.queue_wait_ns = arrival / 2;
  ev.batch_id = arrival % 7;
  ev.key_bits = 1024;
  ev.op = op;
  ev.lanes_filled = lanes;
  return ev;
}

TEST(WorkloadOpNames, RoundTrip) {
  // Each op's stable wire name is what the writer puts in the "op" field,
  // and reading that field back out of the line gives the same name.
  const struct {
    WorkloadOp op;
    const char* name;
  } cases[] = {{WorkloadOp::kSign, "sign"},
               {WorkloadOp::kPrivateOp, "private_op"},
               {WorkloadOp::kDheSign, "dhe_sign"}};
  for (const auto& c : cases) {
    EXPECT_STREQ(to_string(c.op), c.name);
    const WorkloadEvent ev = make_event(1, c.op, 1);
    std::ostringstream os;
    write_workload_jsonl(os, std::span<const WorkloadEvent>(&ev, 1));
    const std::string doc = os.str();
    const std::string key = "\"op\":\"";
    const std::size_t at = doc.find(key);
    ASSERT_NE(at, std::string::npos) << c.name;
    const std::size_t begin = at + key.size();
    const std::size_t end = doc.find('"', begin);
    ASSERT_NE(end, std::string::npos) << c.name;
    EXPECT_EQ(doc.substr(begin, end - begin), c.name);
  }
}

TEST(WorkloadRecorder, RecordExportLoadRoundTrip) {
  // What the recorder took in comes out as the schema's exact lines: the
  // header, then one object per event in arrival order (recorded here in
  // reverse), each op by its wire name and the flags as 0/1.
  WorkloadRecorder& rec = WorkloadRecorder::global();
  rec.set_recording(true);
  rec.clear();

  std::vector<WorkloadEvent> events;
  events.push_back(make_event(0, WorkloadOp::kSign, 16));
  events.push_back(make_event(1'000, WorkloadOp::kPrivateOp, 1));
  events.push_back(make_event(2'500, WorkloadOp::kDheSign, 7));
  WorkloadEvent shed;
  shed.arrival_ns = 3'000;
  shed.shed = true;
  events.push_back(shed);
  WorkloadEvent resumed;
  resumed.arrival_ns = 4'000;
  resumed.resumed = true;
  events.push_back(resumed);
  WorkloadEvent extremes;
  extremes.arrival_ns = UINT64_MAX;
  extremes.queue_wait_ns = UINT64_MAX;
  extremes.batch_id = UINT64_MAX;
  extremes.key_bits = UINT32_MAX;
  extremes.lanes_filled = 255;
  events.push_back(extremes);
  for (auto it = events.rbegin(); it != events.rend(); ++it) rec.record(*it);
  EXPECT_GE(rec.recorded_total(), events.size());
  // Batch ordinals start at 1: batch_id 0 marks an unbatched op.
  EXPECT_NE(rec.next_batch_id(), 0u);

  std::ostringstream os;
  rec.export_jsonl(os);
  EXPECT_EQ(os.str(),
            "{\"schema\":\"phissl-workload-trace\",\"version\":1,"
            "\"events\":6}\n"
            "{\"arrival_ns\":0,\"op\":\"sign\",\"key_bits\":1024,"
            "\"queue_wait_ns\":0,\"batch_id\":0,\"lanes_filled\":16,"
            "\"shed\":0,\"resumed\":0}\n"
            "{\"arrival_ns\":1000,\"op\":\"private_op\",\"key_bits\":1024,"
            "\"queue_wait_ns\":500,\"batch_id\":6,\"lanes_filled\":1,"
            "\"shed\":0,\"resumed\":0}\n"
            "{\"arrival_ns\":2500,\"op\":\"dhe_sign\",\"key_bits\":1024,"
            "\"queue_wait_ns\":1250,\"batch_id\":1,\"lanes_filled\":7,"
            "\"shed\":0,\"resumed\":0}\n"
            "{\"arrival_ns\":3000,\"op\":\"sign\",\"key_bits\":0,"
            "\"queue_wait_ns\":0,\"batch_id\":0,\"lanes_filled\":0,"
            "\"shed\":1,\"resumed\":0}\n"
            "{\"arrival_ns\":4000,\"op\":\"sign\",\"key_bits\":0,"
            "\"queue_wait_ns\":0,\"batch_id\":0,\"lanes_filled\":0,"
            "\"shed\":0,\"resumed\":1}\n"
            "{\"arrival_ns\":18446744073709551615,\"op\":\"sign\","
            "\"key_bits\":4294967295,"
            "\"queue_wait_ns\":18446744073709551615,"
            "\"batch_id\":18446744073709551615,\"lanes_filled\":255,"
            "\"shed\":0,\"resumed\":0}\n");
  rec.set_recording(false);
  rec.clear();
}

TEST(WorkloadRecorder, RecordingToggle) {
  WorkloadRecorder& rec = WorkloadRecorder::global();
  rec.set_recording(false);
  EXPECT_FALSE(rec.enabled());
  rec.set_recording(true);
  EXPECT_TRUE(rec.enabled());
  rec.set_recording(false);
  EXPECT_FALSE(rec.enabled());
}

TEST(WorkloadRecorder, RelNsSaturatesAtEpoch) {
  WorkloadRecorder& rec = WorkloadRecorder::global();
  EXPECT_EQ(rec.rel_ns(0), 0u);  // long before the epoch
  const std::uint64_t now = rec.now_rel_ns();
  // now_rel_ns is measured against the same epoch rel_ns subtracts.
  EXPECT_GE(rec.now_rel_ns(), now);
}

TEST(WorkloadRecorder, RingWraparoundKeepsNewestAndCountsDrops) {
  WorkloadRecorder& rec = WorkloadRecorder::global();
  rec.set_recording(true);
  rec.clear();
  Counter& drop_counter = Registry::global().counter(
      "phissl_workload_dropped_total", "");
  const std::uint64_t counter_before = drop_counter.value();
  const std::uint64_t dropped_before = rec.dropped_total();

  const std::uint64_t extra = 123;
  const std::uint64_t total = WorkloadRecorder::kRingCapacity + extra;
  for (std::uint64_t i = 0; i < total; ++i) {
    rec.record(make_event(i, WorkloadOp::kSign, 1));
  }

  const std::vector<WorkloadEvent> kept = rec.drain();
  ASSERT_EQ(kept.size(), WorkloadRecorder::kRingCapacity);
  // Oldest `extra` events were overwritten: the survivors are exactly
  // [extra, total), still sorted by arrival.
  EXPECT_EQ(kept.front().arrival_ns, extra);
  EXPECT_EQ(kept.back().arrival_ns, total - 1);
  for (std::size_t i = 1; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i].arrival_ns, kept[i - 1].arrival_ns + 1);
  }

  EXPECT_EQ(rec.dropped_total() - dropped_before, extra);
  // The registry counter mirrors the drop total (and being monotone, it
  // survives clear()).
  EXPECT_EQ(drop_counter.value() - counter_before, extra);

  rec.set_recording(false);
  rec.clear();
  EXPECT_TRUE(rec.drain().empty());
}

}  // namespace
}  // namespace phissl::obs
