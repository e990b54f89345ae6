// guarded-writes: synchronous detection on the drive's write path.
// CsdGuard drives StreamingDetector inline; every write-type API call is
// a 4 KiB block write through GuardedSsd, which keeps pre-images of the
// blocks an unresolved process overwrites and rolls them back when the
// process is quarantined.
#include <cmath>
#include <cstring>
#include <iostream>
#include <memory>
#include <thread>

#include "common/thread_pool.hpp"
#include "csd/smartssd.hpp"
#include "detect/guarded_ssd.hpp"
#include "detect/mitigation.hpp"
#include "kernels/functional.hpp"
#include "obs/metrics.hpp"
#include "probes.hpp"
#include "workloads.hpp"
#include "xrt/runtime.hpp"

namespace perfbench {

using namespace csdml;

namespace {

/// Calls/s that size the closed-loop phase, and the open-loop offered rate.
constexpr double kNominalRate = 15'000.0;
constexpr double kOfferedRate = 6'000.0;
/// Share of --seconds each phase takes at those rates. The inline verdict
/// and host figures come from both phases, the sustained rate from the
/// closed loop alone, so it gets as much time as the open loop.
constexpr double kSaturationShare = 0.4;
constexpr double kOpenLoopShare = 0.4;

const detect::MitigationPolicy kPolicy{.quarantine_threshold = 0.90,
                                       .alert_threshold = 0.50};

struct Deployment {
  nn::ModelSnapshot model;
  std::unique_ptr<csd::SmartSsd> board;
  std::unique_ptr<xrt::Device> device;
  std::unique_ptr<kernels::CsdLstmEngine> engine;
  std::unique_ptr<detect::CsdGuard> guard;
  std::unique_ptr<detect::GuardedSsd> guarded;
};

std::unique_ptr<Deployment> deploy(const Options& options, Tracer& tracer) {
  auto target = std::make_unique<Deployment>();
  {
    const Scope span(tracer, tracer.id("nn.load_weights"));
    target->model = nn::load_weights_file(options.weights);
  }
  {
    const Scope span(tracer, tracer.id("csd.board_open"));
    target->board = std::make_unique<csd::SmartSsd>(csd::SmartSsdConfig{});
    target->device = std::make_unique<xrt::Device>(*target->board);
  }
  {
    const Scope span(tracer, tracer.id("kernels.engine_build"));
    target->engine = std::make_unique<kernels::CsdLstmEngine>(
        *target->device, target->model.config, target->model.params, engine_config(1));
  }
  {
    const Scope span(tracer, tracer.id("detect.guard_build"));
    target->guard = std::make_unique<detect::CsdGuard>(*target->engine, detector_config(),
                                                       kPolicy);
    target->guarded = std::make_unique<detect::GuardedSsd>(*target->board, *target->guard);
  }
  return target;
}

/// The expected outcome of every due window, recomputed from the inputs
/// and the committed weights apart from the serving path.
struct Expected {
  std::vector<double> probability;                 ///< per due id
  std::vector<detect::MitigationAction> action;    ///< per due id
  std::vector<std::int64_t> quarantine_call;       ///< per process, -1 = never
};

Expected expected_outcomes(const Inputs& inputs, const DueIndex& due,
                           const nn::ModelSnapshot& model) {
  Expected expected;
  expected.probability.resize(due.size());
  // Every window through a separately built fused datapath, in parallel;
  // a sample is also held against infer_reference below.
  const kernels::FixedDatapath datapath(model.config, model.params);
  ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));
  std::vector<kernels::FixedScratch> scratch(pool.thread_count());
  pool.parallel_for(due.size(), [&](std::size_t executor, std::size_t id) {
    expected.probability[id] = datapath.infer(
        inputs.window(due.pid[id], due.call_index[id]), scratch[executor]);
  });

  expected.action.assign(due.size(), detect::MitigationAction::None);
  expected.quarantine_call.assign(inputs.processes.size(), -1);
  std::vector<std::size_t> streak(inputs.processes.size(), 0);
  for (std::size_t id = 0; id < due.size(); ++id) {
    const std::size_t p = due.pid[id] - 1;
    const double probability = expected.probability[id];
    streak[p] = probability >= kThreshold ? streak[p] + 1 : 0;
    if (streak[p] < kConsecutive) continue;
    if (probability >= kPolicy.quarantine_threshold) {
      expected.action[id] = detect::MitigationAction::QuarantineProcess;
      if (expected.quarantine_call[p] < 0) expected.quarantine_call[p] = due.call_index[id];
    } else {
      expected.action[id] = detect::MitigationAction::AlertOnly;
    }
  }
  return expected;
}

}  // namespace

Result run_guarded_writes(const Options& options) {
  Result result;
  Tracer tracer(options.trace);
  const std::uint32_t span_call = tracer.id("detect.on_api_call");
  const std::uint32_t span_classify = tracer.id("detect.classify");
  const std::uint32_t span_quarantine = tracer.id("detect.quarantine_call");
  const std::uint32_t span_write = tracer.id("detect.write");
  const std::uint32_t span_exit = tracer.id("detect.exit");

  Mix mix;
  mix.benign_finite = 12;
  mix.ransomware_finite = 4;
  mix.finite_min = 300;
  mix.finite_max = 1500;
  mix.disguise_min = 100;
  mix.disguise_max = 250;
  mix.writes = true;
  const auto saturation_calls =
      static_cast<std::size_t>(kSaturationShare * options.seconds * kNominalRate);
  const auto open_loop_calls =
      static_cast<std::size_t>(kOpenLoopShare * options.seconds * kOfferedRate);
  const Inputs inputs =
      make_inputs(options.seed, mix, saturation_calls, open_loop_calls, kOfferedRate, kRounds);
  const DueIndex due(inputs);
  std::vector<detect::MitigationAction> observed(due.size(), detect::MitigationAction::None);
  std::vector<std::int64_t> observed_quarantine(inputs.processes.size(), -1);
  std::vector<double> classify_ns;
  classify_ns.reserve(due.size());
  std::vector<double> call_ns;  // host time of every non-classifying call
  call_ns.reserve(saturation_calls + open_loop_calls);
  std::vector<double> write_ns;
  std::vector<double> quarantine_ns;
  std::vector<double> lag_ns;
  lag_ns.reserve(open_loop_calls);
  std::vector<std::uint8_t> block(kBlockBytes);
  std::size_t stray_actions = 0;
  tracer.reserve(2 * (saturation_calls + open_loop_calls) + 4096);
  const double rss_inputs = rss_mib();

  // --- set-up: the live deployment, then more spread over the rounds ----
  std::vector<double> setup_s;
  const auto deploy_timed = [&] {
    const Scope span(tracer, tracer.id("bench.setup"));
    const auto start = Clock::now();
    std::unique_ptr<Deployment> deployed = deploy(options, tracer);
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - start).count());
    return deployed;
  };
  obs::registry().reset();
  const std::unique_ptr<Deployment> target = deploy_timed();
  detect::GuardedSsd& guarded = *target->guarded;
  detect::CsdGuard& guard = *target->guard;
  csd::SsdController& ssd = target->board->ssd();

  // The user data on the drive before any process runs: every process's
  // blocks hold their original contents.
  TimePoint cursor{};
  {
    const Scope span(tracer, tracer.id("bench.populate"));
    for (const Process& process : inputs.processes) {
      if (process.tokens.empty()) continue;
      for (std::uint32_t b = 0; b < kBlocksPerProcess; ++b) {
        fill_block(original_key(process.lba_base + b), block.data());
        cursor = ssd.write(process.lba_base + b, block, cursor);
      }
    }
  }

  std::size_t due_id = 0;
  // One API call (and its block write, and the process's exit); returns
  // the host time outside inline classification, in ns.
  const auto serve_call = [&](const Call& call, std::int64_t a) -> double {
    const detect::MitigationAction action = guarded.on_api_call(call.pid, call.token, cursor);
    std::int64_t b = now_ns();
    double host = 0.0;
    if (call.due) {
      const bool quarantined =
          action == detect::MitigationAction::QuarantineProcess &&
          observed_quarantine[call.pid - 1] < 0;
      if (quarantined) {
        observed_quarantine[call.pid - 1] = call.call_index;
        quarantine_ns.push_back(static_cast<double>(b - a));
      }
      tracer.record(quarantined ? span_quarantine : span_classify, a, b);
      classify_ns.push_back(static_cast<double>(b - a));
      observed[due_id++] = action;
    } else {
      tracer.record(span_call, a, b);
      host += static_cast<double>(b - a);
      stray_actions += action != detect::MitigationAction::None;
    }
    if (call.write) {
      fill_block(write_key(call.pid, call.write_seq), block.data());
      a = now_ns();
      const detect::GuardedWriteResult written = guarded.write(call.pid, call.lba, block, cursor);
      b = now_ns();
      tracer.record(span_write, a, b);
      write_ns.push_back(static_cast<double>(b - a));
      host += static_cast<double>(b - a);
      if (written.accepted) cursor = written.done;
    }
    if (call.exits) {
      a = now_ns();
      if (guard.is_quarantined(call.pid)) {
        guard.release(call.pid);
      } else {
        guarded.resolve_benign(call.pid);
      }
      guard.detector().forget(call.pid);
      b = now_ns();
      tracer.record(span_exit, a, b);
      host += static_cast<double>(b - a);
    }
    return host;
  };

  // --- rounds: saturation slice, rollouts, open-loop slice -------------
  std::vector<double> saturation_rates;
  std::vector<double> rollout_us;
  const nn::LstmParams alternate = alternate_params(target->model.config);
  const std::uint32_t span_swap = tracer.id("kernels.swap");
  for (const Segment& segment : inputs.segments) {
    if (!segment.open_loop) {
      {
        const Scope span(tracer, tracer.id("bench.saturation"));
        const std::int64_t start = now_ns();
        for (std::size_t i = segment.begin; i < segment.end; ++i) {
          const Call& call = inputs.calls[i];
          const double host = serve_call(call, now_ns());
          if (!call.due) call_ns.push_back(host);
        }
        saturation_rates.push_back(static_cast<double>(segment.end - segment.begin) * 1e9 /
                                   static_cast<double>(now_ns() - start));
      }
      const Scope span(tracer, tracer.id("bench.rollouts"));
      for (std::size_t r = 0; r < kRolloutsPerRound; ++r) {
        const nn::LstmParams& params = r % 2 == 0 ? alternate : target->model.params;
        const std::int64_t a = now_ns();
        target->engine->update_weights(params);
        const std::int64_t b = now_ns();
        tracer.record(span_swap, a, b);
        rollout_us.push_back(static_cast<double>(b - a) / 1e3);
      }
      for (std::size_t d = 0; d < kSetupsPerRound; ++d) deploy_timed();
      continue;
    }
    const Scope span(tracer, tracer.id("bench.open_loop"));
    const PreciseSleep precise;
    const auto origin = Clock::now() + std::chrono::milliseconds(2);
    const std::int64_t origin_ns = ns_of(origin);
    for (std::size_t i = segment.begin; i < segment.end; ++i) {
      const Call& call = inputs.calls[i];
      const std::int64_t send_ns = origin_ns + inputs.send_ns[i];
      std::int64_t a = now_ns();
      if (a < send_ns) {
        std::this_thread::sleep_until(origin + std::chrono::nanoseconds(inputs.send_ns[i]));
        a = now_ns();
      }
      lag_ns.push_back(static_cast<double>(a - send_ns));
      const double host = serve_call(call, a);
      if (!call.due) call_ns.push_back(host);
    }
  }
  const double peak_rss = peak_rss_mib() - rss_inputs;

  if (tracer.enabled()) {
    probe_layers(tracer, target->model, *target->engine,
                 replay_windows(inputs, due, kReplayWindows), result);
  }

  // --- checks -------------------------------------------------------------------
  result.attempted = due.size();
  const detect::StreamingDetector& detector = guard.detector();
  result.failed = due.size() - std::min<std::size_t>(due.size(), detector.classifications_run());
  if (detector.classifications_run() != due.size() || detector.degraded_classifications() != 0) {
    result.fail("classifications run (" + std::to_string(detector.classifications_run()) +
                ") differ from the windows due (" + std::to_string(due.size()) + ")");
  }
  if (stray_actions != 0) {
    result.fail(std::to_string(stray_actions) + " mitigation actions on calls that complete no window");
  }
  Expected expected;
  {
    const Scope span(tracer, tracer.id("bench.check_expected"));
    expected = expected_outcomes(inputs, due, target->model);
  }
  std::size_t wrong_actions = 0;
  for (std::size_t id = 0; id < due.size(); ++id) wrong_actions += observed[id] != expected.action[id];
  if (wrong_actions != 0) {
    result.fail(std::to_string(wrong_actions) + " windows took another action than the policy predicts");
  }
  // The reference loop on a sample of windows, and on every window of each
  // ransomware process up to the call that quarantines it.
  std::vector<double> reference_us;
  {
    const Scope span(tracer, tracer.id("bench.check_reference"));
    check_reference_sample(inputs, due, expected.probability, target->model, result,
                           reference_us);
    const kernels::FixedDatapath reference(target->model.config, target->model.params);
    std::size_t mismatches = 0;
    for (std::size_t id = 0; id < due.size(); ++id) {
      const Process& process = inputs.processes[due.pid[id] - 1];
      const std::int64_t quarantine = expected.quarantine_call[process.pid - 1];
      if (!process.ransomware || (quarantine >= 0 && due.call_index[id] > quarantine)) continue;
      mismatches += reference.infer_reference(inputs.window(process.pid, due.call_index[id])) !=
                    expected.probability[id];
    }
    if (mismatches != 0) {
      result.fail(std::to_string(mismatches) + " fused probabilities differ from infer_reference");
    }
  }
  std::size_t wrong_quarantines = 0;
  std::size_t ransomware_quarantined = 0;
  std::size_t ransomware_processes = 0;
  for (const Process& process : inputs.processes) {
    if (process.tokens.empty()) continue;
    wrong_quarantines += observed_quarantine[process.pid - 1] != expected.quarantine_call[process.pid - 1];
    if (process.ransomware) {
      ++ransomware_processes;
      ransomware_quarantined += expected.quarantine_call[process.pid - 1] >= 0;
    }
  }
  if (wrong_quarantines != 0) {
    result.fail(std::to_string(wrong_quarantines) + " processes quarantined at another call than predicted");
  }

  // Block contents: a quarantined process's blocks read back their
  // original bytes; every other process's blocks hold its last write.
  std::uint64_t expected_preserved = 0;
  std::uint64_t expected_restored = 0;
  {
    const Scope span(tracer, tracer.id("bench.check_blocks"));
    std::vector<std::uint64_t> last_key;
    std::vector<std::vector<char>> touched(inputs.processes.size());
    last_key.resize(inputs.processes.size() * kBlocksPerProcess, 0);
    {
      for (const Call& call : inputs.calls) {
        if (!call.write) continue;
        const std::int64_t quarantine = expected.quarantine_call[call.pid - 1];
        if (quarantine >= 0 && call.call_index >= quarantine) continue;  // rejected
        last_key[call.lba] = write_key(call.pid, call.write_seq);
        auto& blocks = touched[call.pid - 1];
        blocks.resize(kBlocksPerProcess, 0);
        blocks[call.lba - inputs.processes[call.pid - 1].lba_base] = 1;
      }
    }
    std::size_t wrong_blocks = 0;
    std::vector<std::uint8_t> want(kBlockBytes);
    for (const Process& process : inputs.processes) {
      if (process.tokens.empty()) continue;
      const bool quarantined = expected.quarantine_call[process.pid - 1] >= 0;
      std::uint64_t distinct = 0;
      for (const char t : touched[process.pid - 1]) distinct += static_cast<std::uint64_t>(t);
      expected_preserved += distinct;
      if (quarantined) expected_restored += distinct;
      for (std::uint32_t b = 0; b < kBlocksPerProcess; ++b) {
        const std::uint32_t lba = process.lba_base + b;
        const std::uint64_t key =
            quarantined || last_key[lba] == 0 ? original_key(lba) : last_key[lba];
        fill_block(key, want.data());
        const csd::IoResult read = ssd.read(lba, 1, cursor);
        wrong_blocks += read.data.size() < kBlockBytes ||
                        std::memcmp(read.data.data(), want.data(), kBlockBytes) != 0;
      }
    }
    if (wrong_blocks != 0) {
      result.fail(std::to_string(wrong_blocks) + " blocks hold other bytes than expected");
    }
  }
  const detect::SnapshotStats& snapshots = guarded.stats();
  if (snapshots.blocks_preserved != expected_preserved ||
      snapshots.blocks_restored != expected_restored) {
    result.fail("pre-image accounting: preserved " + std::to_string(snapshots.blocks_preserved) +
                "/" + std::to_string(expected_preserved) + ", restored " +
                std::to_string(snapshots.blocks_restored) + "/" +
                std::to_string(expected_restored));
  }
  check_device_time(*target->engine, result);

  // --- metrics -------------------------------------------------------------------
  // Inline classifications of both phases, in call order: the call blocks
  // for its window either way, and the whole run's host states are sampled.
  std::vector<double> verdict_ms;
  verdict_ms.reserve(classify_ns.size());
  for (const double ns : classify_ns) verdict_ms.push_back(ns / 1e6);
  auto& e2e = result.end_to_end;
  e2e["verdict_p50_ms"] = {trimmed_mean(slice_quantiles(verdict_ms, kLatencySlices, 0.50), kTrim), "ms"};
  e2e["sustained_calls_per_s"] = {trimmed_mean(saturation_rates, kTrim), "calls/s"};
  e2e["host_ns_per_call"] = {trimmed_mean(chunk_means(call_ns, kCallsPerChunk), kTrim), "ns"};
  e2e["rollout_ms"] = {trimmed_mean(rollout_us, kTrim) / 1e3, "ms"};
  e2e["setup_s"] = {median(setup_s), "s"};
  e2e["peak_rss_mb"] = {peak_rss, "MiB"};

  auto& detail = result.detail;
  detail["verdict_p95_ms"] = {
      trimmed_mean(slice_quantiles(verdict_ms, kLatencySlices, 0.95), kTrim), "ms"};
  detail["bench.generator_lag_ms.p50"] = {quantile(lag_ns, 0.5) / 1e6, "ms"};
  detail["bench.generator_lag_ms.p99"] = {quantile(lag_ns, 0.99) / 1e6, "ms"};
  detail["bench.verdict_samples"] = {static_cast<double>(verdict_ms.size()), "count"};
  detail["bench.offered_calls_per_s"] = {kOfferedRate, "calls/s"};
  detail["detect.on_api_call_ns.p50"] = {median(call_ns), "ns"};
  detail["detect.classify_ms.p50"] = {median(classify_ns) / 1e6, "ms"};
  detail["detect.write_us.p50"] = {median(write_ns) / 1e3, "us"};
  detail["detect.preimage_mib"] = {
      static_cast<double>(snapshots.shadow_bytes.count) / (1024.0 * 1024.0), "MiB"};
  // The quarantining call classifies and then rolls back: its excess over
  // a plain classifying call is the restore.
  detail["detect.restore_ms"] = {
      (median(quarantine_ns) - median(classify_ns)) / 1e6, "ms"};
  detail["detect.ransomware_quarantined"] = {static_cast<double>(ransomware_quarantined), "count"};
  detail["detect.ransomware_processes"] = {static_cast<double>(ransomware_processes), "count"};

  auto& layer = result.per_layer;
  if (tracer.enabled()) {
    layer["nn.load_weights_ms"] = {median(tracer.durations("nn.load_weights")) * 1e-6, "ms"};
    layer["kernels.engine_build_ms"] = {
        median(tracer.durations("kernels.engine_build")) * 1e-6, "ms"};
    layer["kernels.reference_window_us"] = {median(reference_us), "us"};
    layer["kernels.swap_ms"] = {median(rollout_us) / 1e3, "ms"};
    layer["bench.generator_lag_ms.p99"] = {quantile(lag_ns, 0.99) / 1e6, "ms"};
    layer["bench.generator_lag_ms.max"] = {quantile(lag_ns, 1.0) / 1e6, "ms"};
    std::size_t alerts = 0;
    std::size_t quarantines = 0;
    for (const std::int64_t q : observed_quarantine) quarantines += q >= 0;
    for (const auto action : observed) alerts += action != detect::MitigationAction::None;
    std::size_t exits = 0;
    for (const Call& call : inputs.calls) exits += call.exits;
    layer["count.verdicts"] = {static_cast<double>(detector.classifications_run()), "count"};
    layer["count.batches"] = {0.0, "count"};
    layer["count.alerts"] = {static_cast<double>(alerts), "count"};
    layer["count.processes_forgotten"] = {static_cast<double>(exits), "count"};
    layer["count.quarantines"] = {static_cast<double>(quarantines), "count"};
    layer["count.blocks_preserved"] = {static_cast<double>(snapshots.blocks_preserved), "count"};
    layer["count.blocks_restored"] = {static_cast<double>(snapshots.blocks_restored), "count"};
    tracer.print_self_times(std::cout);
    if (!options.trace_out.empty() && !tracer.write_chrome(options.trace_out)) {
      std::cerr << "cannot write " << options.trace_out << "\n";
    }
  }
  return result;
}

}  // namespace perfbench
