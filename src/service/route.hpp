// The per-flush route decision of the signing service
// (service::SignService): the one function that picks how a flush runs.
//
// A flush of k real requests can run as one fixed-shape 16-lane batch
// (the unused lanes padded) or as k single-stream private ops one after
// another. The batch costs the same whatever k is; the single-stream run
// costs k ops. So a partial flush runs single-stream exactly when that is
// cheaper: k * op_us < batch_us. A full flush always runs as a batch.
//
// op_us and batch_us are execution times measured where the work runs
// (SignService times them on its dispatch workers, excluding any wait for
// one), so both sides of the comparison are CPU the flush would consume.
#pragma once

#include <cstddef>

namespace phissl::service {

/// Lanes of one batch dispatch (rsa::BatchEngine::kBatch).
inline constexpr std::size_t kBatchLanes = 16;

/// What one flush costs on each route, in microseconds of execution.
struct RouteCosts {
  double op_us = 0.0;     ///< one single-stream private op
  double batch_us = 0.0;  ///< one 16-lane batch, padded or not
};

/// True when a flush of `lanes` real requests should run them one after
/// another single-stream rather than as one batch: a partial flush whose
/// summed single-op cost is strictly below the batch's (a tie runs the
/// batch).
inline bool runs_single(std::size_t lanes, const RouteCosts& c) {
  return lanes < kBatchLanes && static_cast<double>(lanes) * c.op_us < c.batch_us;
}

}  // namespace phissl::service
