// Pieces every workload shares: the deployed configuration, the due-window
// index the checks and latencies key on, the reference check of a sample
// of served probabilities, and the traced-run layer probes.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "detect/detector.hpp"
#include "harness.hpp"
#include "inputs.hpp"
#include "kernels/engine.hpp"
#include "nn/weights_io.hpp"

namespace perfbench {

namespace detect = csdml::detect;
namespace kernels = csdml::kernels;

/// Rounds per run (saturation slice, rollouts, deployments, open-loop
/// slice), rollouts per round (even: the last restores the committed
/// weights) and extra deployments per round (setup_s is the median of
/// these and the live one).
inline constexpr std::size_t kRounds = 16;
inline constexpr std::size_t kRolloutsPerRound = 8;
inline constexpr std::size_t kSetupsPerRound = 4;
/// Open-loop calls per host-time chunk; each holds several health sweeps
/// and process exits.
inline constexpr std::size_t kCallsPerChunk = 1024;
/// Consecutive slices a run's time-ordered verdict latencies are cut into;
/// a latency percentile is the slice percentiles' interquartile mean.
inline constexpr std::size_t kLatencySlices = 16;
/// Share trimmed from each end for trimmed_mean: the interquartile mean
/// (4 of the 16 saturation slices, 32 of the 128 rollouts each side).
inline constexpr double kTrim = 0.25;
/// Due windows replayed through the kernels in the traced run.
inline constexpr std::size_t kReplayWindows = 256;

detect::DetectorConfig detector_config();
kernels::EngineConfig engine_config(std::uint32_t batch_threads);

/// Weights the rollouts alternate with: the committed model's shape,
/// fixed seed, so every rollout rebuilds the same amount of state.
nn::LstmParams alternate_params(const nn::LstmConfig& config);

inline std::uint64_t call_key(std::uint32_t pid, std::uint64_t call_index) {
  return (static_cast<std::uint64_t>(pid) << 32) | call_index;
}

/// Every due window of the run, in call order.
struct DueIndex {
  explicit DueIndex(const Inputs& inputs);

  std::size_t size() const { return pid.size(); }

  std::unordered_map<std::uint64_t, std::uint32_t> ids;
  std::vector<std::uint32_t> pid;
  std::vector<std::uint32_t> call_index;
  std::vector<char> open_loop;  ///< the window came due in an open-loop segment
};

/// Compares the served probability of every `stride`-th due window with
/// FixedDatapath::infer_reference on the same 100 tokens, bit for bit.
/// `served[id]` is NaN for windows that got no verdict (skipped). Records
/// the reference timings (µs) into `reference_us`.
void check_reference_sample(const Inputs& inputs, const DueIndex& due,
                            const std::vector<double>& served,
                            const nn::ModelSnapshot& model, Result& result,
                            std::vector<double>& reference_us);

/// Simulated device time stays the paper's: 2.153 µs per item (Fig. 3,
/// fixed-point total) within 0.1%.
void check_device_time(const kernels::CsdLstmEngine& engine, Result& result);

/// Deterministic sample of due windows used by the traced replays.
std::vector<nn::Sequence> replay_windows(const Inputs& inputs, const DueIndex& due,
                                         std::size_t count);

/// Traced-run probes of single layers: the fused datapath per window, the
/// engine's infer_batch at batch 1/8/32 on the run's own windows, and the
/// registry snapshot. Adds the per-layer metrics to `result`.
void probe_layers(Tracer& tracer, const nn::ModelSnapshot& model,
                  kernels::CsdLstmEngine& engine,
                  const std::vector<nn::Sequence>& windows, Result& result);

/// Lowers this thread's timer slack while the open-loop generator sleeps
/// to its schedule, and restores it after (threads the program starts
/// earlier are unaffected).
class PreciseSleep {
 public:
  PreciseSleep();
  ~PreciseSleep();
  PreciseSleep(const PreciseSleep&) = delete;
  PreciseSleep& operator=(const PreciseSleep&) = delete;

 private:
  long previous_{0};
};

}  // namespace perfbench
