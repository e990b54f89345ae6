// csd-stream and fleet-churn: API calls fed to the asynchronous serving
// layer (one ServingPipeline, or a two-board BoardFleet), verdicts
// collected by the sink on the coalescer threads.
#include <atomic>
#include <cmath>
#include <iostream>
#include <limits>
#include <memory>
#include <thread>

#include "csd/smartssd.hpp"
#include "obs/metrics.hpp"
#include "probes.hpp"
#include "serve/fleet.hpp"
#include "serve/serving.hpp"
#include "workloads.hpp"
#include "xrt/runtime.hpp"

namespace perfbench {

using namespace csdml;

namespace {

/// Due windows the saturation generator keeps in flight: enough to fill
/// full coalesced batches, far below one shard ring (256), so nothing is
/// shed or deferred.
constexpr std::size_t kInFlight = 64;

/// Written by the coalescer threads, read by the generator after flush.
class VerdictLog {
 public:
  struct Record {
    std::uint64_t key{0};
    double probability{0.0};
    bool alert{false};
    std::int64_t t_ns{0};
  };

  explicit VerdictLog(std::size_t capacity) : records_(capacity) {}

  void record(const serve::Verdict& verdict) {
    const std::int64_t t = now_ns();
    const std::size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
    if (slot < records_.size()) {
      records_[slot] = {call_key(verdict.process, verdict.call_index),
                        verdict.probability, verdict.alert, t};
    }
    received_.fetch_add(1, std::memory_order_release);
  }

  std::size_t received() const { return received_.load(std::memory_order_acquire); }
  std::size_t size() const { return std::min(received(), records_.size()); }
  bool overflowed() const { return received() > records_.size(); }
  const Record& operator[](std::size_t i) const { return records_[i]; }

 private:
  std::vector<Record> records_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> received_{0};
};

serve::ServeConfig serve_config() {
  serve::ServeConfig config;
  config.detector = detector_config();
  return config;
}

struct RolloutTiming {
  double total_us{0.0};
  std::vector<double> swap_us;  ///< per board flip
  double canary_us{0.0};
  bool ok{true};
};

/// csd-stream: one SmartSSD behind one ServingPipeline.
struct StreamTarget {
  nn::ModelSnapshot model;
  std::unique_ptr<csd::SmartSsd> board;
  std::unique_ptr<xrt::Device> device;
  std::unique_ptr<kernels::CsdLstmEngine> engine;
  std::unique_ptr<serve::ServingPipeline> pipeline;

  static std::unique_ptr<StreamTarget> deploy(const Options& options, VerdictLog& log,
                                              Tracer& tracer) {
    auto target = std::make_unique<StreamTarget>();
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
          *target->device, target->model.config, target->model.params, engine_config(2));
    }
    {
      const Scope span(tracer, tracer.id("serve.pipeline_start"));
      target->pipeline = std::make_unique<serve::ServingPipeline>(
          *target->engine, serve_config(),
          [&log](const serve::Verdict& verdict) { log.record(verdict); });
    }
    return target;
  }

  bool next_ingest_sweeps() const { return false; }
  void ingest(detect::ProcessId pid, nn::TokenId token) { pipeline->ingest(pid, token); }
  void forget(detect::ProcessId pid) { pipeline->forget(pid); }
  void flush() { pipeline->flush(); }
  void stop() { pipeline->stop(); }
  serve::ServingPipeline::Stats stats() const { return pipeline->stats(); }
  kernels::CsdLstmEngine& replay_engine() { return *engine; }

  RolloutTiming rollout(const nn::LstmParams& params) {
    RolloutTiming timing;
    const auto start = Clock::now();
    engine->update_weights(params);
    timing.total_us = std::chrono::duration<double, std::micro>(Clock::now() - start).count();
    timing.swap_us.push_back(timing.total_us);
    return timing;
  }
};

/// fleet-churn: a two-board BoardFleet with its default health sweeps and
/// telemetry collector.
struct FleetTarget {
  nn::ModelSnapshot model;
  std::unique_ptr<serve::BoardFleet> fleet;
  std::uint64_t ingests{0};

  static std::unique_ptr<FleetTarget> deploy(const Options& options, VerdictLog& log,
                                             Tracer& tracer) {
    auto target = std::make_unique<FleetTarget>();
    {
      const Scope span(tracer, tracer.id("nn.load_weights"));
      target->model = nn::load_weights_file(options.weights);
    }
    serve::FleetConfig config;
    config.boards = 2;
    config.engine = engine_config(1);
    config.serve = serve_config();
    // Pinned like bench_fleet, the CLI and the scenario runner: SLO burn is
    // graded over cumulative histograms, which would drain healthy boards.
    config.slo.latency_slo_us = 10'000'000.0;
    {
      const Scope span(tracer, tracer.id("serve.fleet_build"));
      target->fleet = std::make_unique<serve::BoardFleet>(
          target->model.config, target->model.params, config,
          [&log](const serve::Verdict& verdict) { log.record(verdict); });
    }
    return target;
  }

  bool next_ingest_sweeps() const {
    const std::uint64_t interval = fleet->config().health_check_interval;
    return interval != 0 && (ingests + 1) % interval == 0;
  }
  void ingest(detect::ProcessId pid, nn::TokenId token) {
    ++ingests;
    fleet->ingest(pid, token);
  }
  void forget(detect::ProcessId pid) { fleet->forget(pid); }
  void flush() { fleet->flush(); }
  void stop() { fleet->stop(); }
  serve::ServingPipeline::Stats stats() const { return fleet->stats().totals; }
  kernels::CsdLstmEngine& replay_engine() { return fleet->engine(0); }

  RolloutTiming rollout(const nn::LstmParams& params) {
    RolloutTiming timing;
    const auto start = Clock::now();
    const serve::RolloutReport report = fleet->update_weights(params);
    timing.total_us = std::chrono::duration<double, std::micro>(Clock::now() - start).count();
    // per_board_us[0] is the canary: its flip plus the golden-batch check.
    timing.swap_us.assign(report.per_board_us.begin() + 1, report.per_board_us.end());
    timing.canary_us = report.canary_us;
    timing.ok = report.ok && report.canary_ok;
    return timing;
  }
};

/// The engine on its own, as the fleet builds one per board: timed in the
/// traced run only, since BoardFleet builds its engines internally.
void time_engine_build(const nn::ModelSnapshot& model, Tracer& tracer) {
  csd::SmartSsd board(csd::SmartSsdConfig{});
  xrt::Device device(board);
  const Scope span(tracer, tracer.id("kernels.engine_build"));
  const kernels::CsdLstmEngine engine(device, model.config, model.params, engine_config(1));
}

struct Plan {
  Mix mix;
  double nominal_rate{0.0};  ///< calls/s that sizes the saturation phase
  double offered_rate{0.0};  ///< open-loop calls/s
};

/// Share of --seconds each phase takes at the plan's rates. The open loop
/// gets the most: its verdict latencies are the fewest samples per second.
constexpr double kSaturationShare = 0.25;
constexpr double kOpenLoopShare = 0.6;

template <class Target>
Result run_serving(const Options& options, const Plan& plan) {
  Result result;
  Tracer tracer(options.trace);
  const std::uint32_t span_ingest = tracer.id("serve.ingest");
  const std::uint32_t span_sweep = tracer.id("serve.sweep_ingest");
  const std::uint32_t span_forget = tracer.id("serve.forget");

  const auto saturation_calls =
      static_cast<std::size_t>(kSaturationShare * options.seconds * plan.nominal_rate);
  const auto open_loop_calls =
      static_cast<std::size_t>(kOpenLoopShare * options.seconds * plan.offered_rate);
  const Inputs inputs = make_inputs(options.seed, plan.mix, saturation_calls,
                                    open_loop_calls, plan.offered_rate, kRounds);
  const DueIndex due(inputs);
  VerdictLog log(due.size() + 1024);
  std::vector<double> host_ns;  // per open-loop ingest/forget
  host_ns.reserve(open_loop_calls + open_loop_calls / 8);
  std::vector<double> sweep_ns;
  std::vector<double> forget_ns;
  std::vector<double> lag_ns;
  lag_ns.reserve(open_loop_calls);
  std::vector<std::int64_t> scheduled_ns(due.size(), 0);
  tracer.reserve(saturation_calls + open_loop_calls + 4096);
  const double rss_inputs = rss_mib();

  // --- set-up: the live deployment, then more deployments spread over the
  // rounds (each torn down at once), so setup_s samples the whole run.
  std::vector<double> setup_s;
  const auto deploy_timed = [&] {
    const Scope span(tracer, tracer.id("bench.setup"));
    const auto start = Clock::now();
    std::unique_ptr<Target> deployed = Target::deploy(options, log, tracer);
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - start).count());
    if constexpr (std::is_same_v<Target, FleetTarget>) {
      if (tracer.enabled()) time_engine_build(deployed->model, tracer);
    }
    return deployed;
  };
  obs::registry().reset();
  const std::unique_ptr<Target> target = deploy_timed();

  // --- rounds: saturation slice, rollouts, open-loop slice -------------
  std::vector<double> saturation_rates;  // calls/s of each saturation slice
  std::vector<double> rollout_us;
  std::vector<double> swap_us;
  std::vector<double> canary_us;
  std::uint64_t open_loop_verdicts = 0;
  std::uint64_t open_loop_batches = 0;
  const nn::LstmParams alternate = alternate_params(target->model.config);
  const std::uint32_t span_rollout = tracer.id("serve.rollout");
  std::size_t due_id = 0;
  for (const Segment& segment : inputs.segments) {
    if (!segment.open_loop) {
      {
        const Scope span(tracer, tracer.id("bench.saturation"));
        std::size_t due_sent = 0;
        const std::size_t received_before = log.received();
        const std::int64_t start = now_ns();
        for (std::size_t i = segment.begin; i < segment.end; ++i) {
          const Call& call = inputs.calls[i];
          if (call.due) {
            while (due_sent - (log.received() - received_before) >= kInFlight) {
              std::this_thread::sleep_for(std::chrono::microseconds(20));
            }
          }
          if (tracer.enabled()) {
            const std::uint32_t name = target->next_ingest_sweeps() ? span_sweep : span_ingest;
            const std::int64_t a = now_ns();
            target->ingest(call.pid, call.token);
            tracer.record(name, a, now_ns());
          } else {
            target->ingest(call.pid, call.token);
          }
          due_sent += call.due;
          due_id += call.due;
          if (call.exits) {
            const std::int64_t a = tracer.enabled() ? now_ns() : 0;
            target->forget(call.pid);
            tracer.record(span_forget, a, tracer.enabled() ? now_ns() : 0);
          }
        }
        target->flush();
        saturation_rates.push_back(static_cast<double>(segment.end - segment.begin) * 1e9 /
                                   static_cast<double>(now_ns() - start));
      }
      // Rollouts: every process live, nothing in flight.
      const Scope span(tracer, tracer.id("bench.rollouts"));
      for (std::size_t r = 0; r < kRolloutsPerRound; ++r) {
        const nn::LstmParams& params = r % 2 == 0 ? alternate : target->model.params;
        const std::int64_t a = now_ns();
        const RolloutTiming timing = target->rollout(params);
        tracer.record(span_rollout, a, now_ns());
        rollout_us.push_back(timing.total_us);
        swap_us.insert(swap_us.end(), timing.swap_us.begin(), timing.swap_us.end());
        canary_us.push_back(timing.canary_us);
        if (!timing.ok) result.fail("weight rollout rejected by its canary");
      }
      for (std::size_t d = 0; d < kSetupsPerRound; ++d) deploy_timed();
      continue;
    }
    const Scope span(tracer, tracer.id("bench.open_loop"));
    const serve::ServingPipeline::Stats before = target->stats();
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
      if (call.due) scheduled_ns[due_id++] = send_ns;
      const bool sweeps = target->next_ingest_sweeps();
      target->ingest(call.pid, call.token);
      std::int64_t b = now_ns();
      tracer.record(sweeps ? span_sweep : span_ingest, a, b);
      host_ns.push_back(static_cast<double>(b - a));
      if (sweeps) sweep_ns.push_back(static_cast<double>(b - a));
      if (call.exits) {
        a = b;
        target->forget(call.pid);
        b = now_ns();
        tracer.record(span_forget, a, b);
        host_ns.back() += static_cast<double>(b - a);
        forget_ns.push_back(static_cast<double>(b - a));
      }
    }
    target->flush();
    const serve::ServingPipeline::Stats after = target->stats();
    open_loop_verdicts += after.verdicts - before.verdicts;
    open_loop_batches += after.batches - before.batches;
  }
  const double peak_rss = peak_rss_mib() - rss_inputs;
  const serve::ServingPipeline::Stats stats = target->stats();

  if (tracer.enabled()) {
    probe_layers(tracer, target->model, target->replay_engine(),
                 replay_windows(inputs, due, kReplayWindows), result);
  }

  // Every live process exits at the end of the run.
  std::size_t exits = 0;
  {
    const Scope span(tracer, tracer.id("bench.teardown"));
    std::vector<char> exited(inputs.processes.size(), 0);
    for (const Call& call : inputs.calls) {
      exited[call.pid - 1] = call.exits;
      exits += call.exits;
    }
    for (const Process& process : inputs.processes) {
      if (process.tokens.empty() || exited[process.pid - 1]) continue;
      const std::int64_t a = now_ns();
      target->forget(process.pid);
      tracer.record(span_forget, a, now_ns());
    }
    target->stop();
  }

  // --- checks -----------------------------------------------------------
  std::vector<double> served(due.size(), std::numeric_limits<double>::quiet_NaN());
  std::vector<char> alert(due.size(), 0);
  std::vector<std::int64_t> delivered_ns(due.size(), 0);
  std::size_t unexpected = 0;
  std::size_t duplicates = 0;
  for (std::size_t i = 0; i < log.size(); ++i) {
    const VerdictLog::Record& record = log[i];
    const auto it = due.ids.find(record.key);
    if (it == due.ids.end()) {
      ++unexpected;
      continue;
    }
    if (!std::isnan(served[it->second])) {
      ++duplicates;
      continue;
    }
    served[it->second] = record.probability;
    alert[it->second] = record.alert;
    delivered_ns[it->second] = record.t_ns;
  }
  std::size_t missing = 0;
  for (const double p : served) missing += std::isnan(p);
  result.attempted = due.size();
  result.failed = missing;
  if (log.overflowed() || unexpected != 0 || duplicates != 0) {
    result.fail(std::to_string(unexpected) + " verdicts at calls that complete no window, " +
                std::to_string(duplicates) + " duplicate verdicts");
  }
  if (stats.enqueued != stats.verdicts + stats.deferred) {
    result.fail("conservation violated: enqueued != verdicts + deferred");
  }
  if (stats.shed != 0 || stats.deferred != 0) {
    result.fail("windows shed or deferred on a workload sized to need neither");
  }
  // Debounce recomputed from each process's verdict stream (ids are in
  // call order, so per process in call_index order).
  {
    std::unordered_map<std::uint32_t, std::size_t> streak;
    std::size_t wrong = 0;
    for (std::size_t id = 0; id < due.size(); ++id) {
      if (std::isnan(served[id])) continue;
      std::size_t& s = streak[due.pid[id]];
      s = served[id] >= kThreshold ? s + 1 : 0;
      wrong += (s >= kConsecutive) != static_cast<bool>(alert[id]);
    }
    if (wrong != 0) result.fail(std::to_string(wrong) + " alert flags break the debounce rule");
  }
  std::vector<double> reference_us;
  {
    const Scope span(tracer, tracer.id("bench.check_reference"));
    check_reference_sample(inputs, due, served, target->model, result, reference_us);
  }
  check_device_time(target->replay_engine(), result);

  // --- metrics ------------------------------------------------------------
  std::vector<double> latency_ms;
  for (std::size_t id = 0; id < due.size(); ++id) {
    if (due.open_loop[id] && !std::isnan(served[id])) {
      latency_ms.push_back(static_cast<double>(delivered_ns[id] - scheduled_ns[id]) / 1e6);
    }
  }
  auto& e2e = result.end_to_end;
  // Per time slice of the open-loop sample, then the interquartile mean
  // over the slices: a slice hit by a host stall is dropped instead of
  // setting the figure.
  e2e["verdict_p50_ms"] = {trimmed_mean(slice_quantiles(latency_ms, kLatencySlices, 0.50), kTrim), "ms"};
  e2e["sustained_calls_per_s"] = {trimmed_mean(saturation_rates, kTrim), "calls/s"};
  e2e["host_ns_per_call"] = {trimmed_mean(chunk_means(host_ns, kCallsPerChunk), kTrim), "ns"};
  e2e["rollout_ms"] = {trimmed_mean(rollout_us, kTrim) / 1e3, "ms"};
  e2e["setup_s"] = {median(setup_s), "s"};
  e2e["peak_rss_mb"] = {peak_rss, "MiB"};

  auto& detail = result.detail;
  // The open-loop tail: reported, not bounded (see README, Steadiness).
  detail["verdict_p95_ms"] = {
      trimmed_mean(slice_quantiles(latency_ms, kLatencySlices, 0.95), kTrim), "ms"};
  detail["bench.generator_lag_ms.p50"] = {quantile(lag_ns, 0.5) / 1e6, "ms"};
  detail["bench.generator_lag_ms.p99"] = {quantile(lag_ns, 0.99) / 1e6, "ms"};
  detail["bench.verdict_samples"] = {static_cast<double>(latency_ms.size()), "count"};
  detail["bench.offered_calls_per_s"] = {plan.offered_rate, "calls/s"};
  detail["serve.ingest_ns.p50"] = {median(host_ns), "ns"};
  detail["serve.ingest_ns.mean"] = {mean(host_ns), "ns"};
  detail["serve.forget_ns.mean"] = {mean(forget_ns), "ns"};
  detail["serve.sweep_ingest_us.mean"] = {mean(sweep_ns) / 1e3, "us"};
  detail["serve.batch_windows"] = {
      open_loop_batches > 0 ? static_cast<double>(open_loop_verdicts) /
                                  static_cast<double>(open_loop_batches)
                            : 0.0,
      "windows"};
  detail["serve.canary_ms"] = {median(canary_us) / 1e3, "ms"};

  auto& layer = result.per_layer;
  if (tracer.enabled()) {
    layer["nn.load_weights_ms"] = {median(tracer.durations("nn.load_weights")) * 1e-6, "ms"};
    layer["kernels.engine_build_ms"] = {
        median(tracer.durations("kernels.engine_build")) * 1e-6, "ms"};
    layer["kernels.reference_window_us"] = {median(reference_us), "us"};
    layer["kernels.swap_ms"] = {median(swap_us) / 1e3, "ms"};
    layer["bench.generator_lag_ms.p99"] = {quantile(lag_ns, 0.99) / 1e6, "ms"};
    layer["bench.generator_lag_ms.max"] = {quantile(lag_ns, 1.0) / 1e6, "ms"};
    // Verdict latency minus the window's own inference: time queued.
    detail["serve.queue_ms.p50"] = {
        quantile(latency_ms, 0.5) - layer["kernels.window_us"].first / 1e3, "ms"};
    std::size_t alerts = 0;
    for (const char a : alert) alerts += static_cast<std::size_t>(a);
    layer["count.verdicts"] = {static_cast<double>(stats.verdicts), "count"};
    layer["count.batches"] = {static_cast<double>(stats.batches), "count"};
    layer["count.alerts"] = {static_cast<double>(alerts), "count"};
    layer["count.processes_forgotten"] = {static_cast<double>(exits), "count"};
    layer["count.quarantines"] = {0.0, "count"};
    layer["count.blocks_preserved"] = {0.0, "count"};
    layer["count.blocks_restored"] = {0.0, "count"};
    tracer.print_self_times(std::cout);
    if (!options.trace_out.empty() && !tracer.write_chrome(options.trace_out)) {
      std::cerr << "cannot write " << options.trace_out << "\n";
    }
  }
  return result;
}

}  // namespace

Result run_csd_stream(const Options& options) {
  Plan plan;
  plan.mix.benign_long = 48;
  plan.mix.ransomware_long = 16;
  plan.nominal_rate = 19'000.0;
  plan.offered_rate = 1'500.0;
  return run_serving<StreamTarget>(options, plan);
}

Result run_fleet_churn(const Options& options) {
  Plan plan;
  plan.mix.benign_long = 12;
  plan.mix.ransomware_long = 4;
  plan.mix.benign_short = 64;
  plan.mix.short_min = 8;
  plan.mix.short_max = 96;
  plan.nominal_rate = 90'000.0;
  plan.offered_rate = 15'000.0;
  return run_serving<FleetTarget>(options, plan);
}

}  // namespace perfbench
