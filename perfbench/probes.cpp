#include "probes.hpp"

#include <sys/prctl.h>

#include <cmath>
#include <sstream>

#include "common/rng.hpp"
#include "kernels/functional.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

using namespace csdml;

namespace {

/// Fig. 3 of the paper: fixed-point total per item, µs.
constexpr double kPaperUsPerItem = 2.153;
/// Served probabilities compared with the reference per run.
constexpr std::size_t kReferenceSample = 96;

}  // namespace

detect::DetectorConfig detector_config() {
  return detect::DetectorConfig{.window_length = kWindow,
                                .hop = kHop,
                                .threshold = kThreshold,
                                .consecutive_alerts = kConsecutive};
}

kernels::EngineConfig engine_config(std::uint32_t batch_threads) {
  kernels::EngineConfig config;
  config.level = kernels::OptimizationLevel::FixedPoint;
  config.batch_threads = batch_threads;
  return config;
}

nn::LstmParams alternate_params(const nn::LstmConfig& config) {
  Rng rng(0x7011007u);
  return nn::LstmParams::glorot(config, rng);
}

DueIndex::DueIndex(const Inputs& inputs) {
  for (const Segment& segment : inputs.segments) {
    for (std::size_t i = segment.begin; i < segment.end; ++i) {
      const Call& call = inputs.calls[i];
      if (!call.due) continue;
      ids.emplace(call_key(call.pid, call.call_index), static_cast<std::uint32_t>(pid.size()));
      pid.push_back(call.pid);
      call_index.push_back(call.call_index);
      open_loop.push_back(segment.open_loop);
    }
  }
}

void check_reference_sample(const Inputs& inputs, const DueIndex& due,
                            const std::vector<double>& served,
                            const nn::ModelSnapshot& model, Result& result,
                            std::vector<double>& reference_us) {
  const kernels::FixedDatapath reference(model.config, model.params);
  const std::size_t stride = std::max<std::size_t>(1, due.size() / kReferenceSample);
  std::size_t mismatches = 0;
  for (std::size_t id = 0; id < due.size(); id += stride) {
    if (std::isnan(served[id])) continue;
    const auto start = Clock::now();
    const double expected =
        reference.infer_reference(inputs.window(due.pid[id], due.call_index[id]));
    reference_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - start).count());
    if (expected != served[id]) ++mismatches;
  }
  if (mismatches != 0) {
    result.fail(std::to_string(mismatches) +
                " served probabilities differ from infer_reference");
  }
}

void check_device_time(const kernels::CsdLstmEngine& engine, Result& result) {
  const double per_item = engine.per_item_timings().total().as_microseconds();
  if (std::abs(per_item - kPaperUsPerItem) > kPaperUsPerItem * 1e-3) {
    std::ostringstream why;
    why << "simulated device time " << per_item << " us/item drifted from "
        << kPaperUsPerItem;
    result.fail(why.str());
  }
}

std::vector<nn::Sequence> replay_windows(const Inputs& inputs, const DueIndex& due,
                                         std::size_t count) {
  std::vector<nn::Sequence> windows;
  const std::size_t stride = std::max<std::size_t>(1, due.size() / count);
  for (std::size_t id = 0; id < due.size() && windows.size() < count; id += stride) {
    const nn::TokenSpan window = inputs.window(due.pid[id], due.call_index[id]);
    windows.emplace_back(window.begin(), window.end());
  }
  return windows;
}

void probe_layers(Tracer& tracer, const nn::ModelSnapshot& model,
                  kernels::CsdLstmEngine& engine,
                  const std::vector<nn::Sequence>& windows, Result& result) {
  // Fused datapath, one window at a time, allocation-free scratch.
  {
    const kernels::FixedDatapath datapath(model.config, model.params);
    kernels::FixedScratch scratch;
    datapath.infer(windows.front(), scratch);  // sizes the scratch
    const std::uint32_t span = tracer.id("kernels.window");
    for (const nn::Sequence& window : windows) {
      const std::int64_t start = now_ns();
      datapath.infer(window, scratch);
      tracer.record(span, start, now_ns());
    }
    result.per_layer["kernels.window_us"] = {
        median(tracer.durations("kernels.window")) * 1e-3, "us"};
  }

  // The live engine's batch path at three batch sizes, same windows.
  double device_us_per_window = 0.0;
  for (const std::size_t batch : {std::size_t{1}, std::size_t{8}, std::size_t{32}}) {
    const std::string name = "kernels.infer_batch.b" + std::to_string(batch);
    const std::uint32_t span = tracer.id(name);
    std::vector<double> per_window_ns;
    for (std::size_t first = 0; first + batch <= windows.size(); first += batch) {
      const std::vector<nn::Sequence> slice(
          windows.begin() + static_cast<std::ptrdiff_t>(first),
          windows.begin() + static_cast<std::ptrdiff_t>(first + batch));
      const std::int64_t start = now_ns();
      const auto out = engine.infer_batch(slice);
      const std::int64_t end = now_ns();
      tracer.record(span, start, end);
      per_window_ns.push_back(static_cast<double>(end - start) / static_cast<double>(batch));
      if (batch == 1) device_us_per_window = out.device_time.as_microseconds();
    }
    result.per_layer["kernels.batch_us_per_window.b" + std::to_string(batch)] = {
        median(per_window_ns) * 1e-3, "us"};
  }
  result.detail["csd.device_us_per_window"] = {device_us_per_window, "us(sim)"};
  result.detail["csd.device_us_per_item"] = {
      engine.per_item_timings().total().as_microseconds(), "us(sim)"};

  // Registry snapshot: what every fleet health sweep and collector tick pays.
  const std::uint32_t span = tracer.id("obs.snapshot");
  for (int i = 0; i < 32; ++i) {
    const std::int64_t start = now_ns();
    const obs::MetricsSnapshot snapshot = obs::registry().snapshot();
    tracer.record(span, start, now_ns());
  }
  result.per_layer["obs.snapshot_us"] = {
      median(tracer.durations("obs.snapshot")) * 1e-3, "us"};
}

PreciseSleep::PreciseSleep() {
  previous_ = prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
}

PreciseSleep::~PreciseSleep() {
  if (previous_ > 0) {
    prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(previous_), 0, 0, 0);
  }
}

}  // namespace perfbench
