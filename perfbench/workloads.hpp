// The three workloads. Each runs, in order: set-up (several deployments
// from the weight file), a closed-loop saturation phase, a batch of weight
// rollouts, then an open-loop Poisson phase; then checks every output.
#pragma once

#include <cstdint>
#include <string>

#include "harness.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  std::string weights;    ///< the deployed model's weight text file
  std::string trace_out;  ///< where traced spans are written (optional)
};

Result run_csd_stream(const Options& options);
Result run_fleet_churn(const Options& options);
Result run_guarded_writes(const Options& options);

}  // namespace perfbench
