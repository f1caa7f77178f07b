// PCIe offload model for the coprocessor deployment.
//
// The KNC is not a CPU: requests reach it over PCIe (gen2 x16 on the
// 5110P). Offloading an RSA operation costs a transfer each way plus a
// dispatch latency, so there is a break-even batch size below which
// running on the host wins even if the card's crypto throughput is
// higher. This model quantifies that trade-off — the deployment question
// an SSL terminator built on PhiOpenSSL has to answer.
#pragma once

#include <cstddef>

#include "phisim/core_model.hpp"

namespace phissl::phisim {

struct PcieConfig {
  double bandwidth_bytes_per_s = 6.0e9;  ///< effective gen2 x16 payload rate
  double dispatch_latency_s = 15e-6;     ///< per-transfer setup (doorbell, DMA)
};

class OffloadModel {
 public:
  explicit OffloadModel(PcieConfig pcie = {}, ChipModel chip = ChipModel())
      : pcie_(pcie), chip_(chip) {}

  /// Wall time to ship `batch` requests of `request_bytes` each to the
  /// card, run them at full occupancy, and ship `response_bytes` each
  /// back. Transfers overlap computation only across batches, not within
  /// one (worst case for the card).
  [[nodiscard]] double offload_batch_seconds(const KernelProfile& op,
                                             std::size_t batch,
                                             std::size_t request_bytes,
                                             std::size_t response_bytes) const;

  /// Wall time for the same batch on a host with `host_cores` cores whose
  /// per-op latency is `host_op_seconds` (measure it; the host is real).
  [[nodiscard]] static double host_batch_seconds(double host_op_seconds,
                                                 std::size_t batch,
                                                 int host_cores);

  /// Smallest batch for which offloading beats the host, or 0 if the host
  /// always wins up to `max_batch`.
  [[nodiscard]] std::size_t break_even_batch(const KernelProfile& op,
                                             double host_op_seconds,
                                             int host_cores,
                                             std::size_t request_bytes,
                                             std::size_t response_bytes,
                                             std::size_t max_batch = 65536) const;

  [[nodiscard]] const PcieConfig& pcie() const { return pcie_; }
  [[nodiscard]] const ChipModel& chip() const { return chip_; }

 private:
  PcieConfig pcie_;
  ChipModel chip_;
};

}  // namespace phissl::phisim
