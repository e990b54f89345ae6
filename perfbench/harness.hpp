// Measurement plumbing shared by the benchmark's workloads: wall clock,
// order statistics, the resident-set probe, the benchmark's own span
// tracer, and the result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t ns_of(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}
inline std::int64_t now_ns() { return ns_of(Clock::now()); }

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// Mean of a sample without its lowest and highest `trim` shares. The host
/// runs at one of two speeds that alternate every second or so; a median
/// over a run jumps between them as their mix shifts, a mean moves in
/// proportion, and the trim drops samples a preempted vCPU spoiled.
double trimmed_mean(std::vector<double> values, double trim);

/// Means of consecutive `chunk`-sized runs of a time-ordered sample.
std::vector<double> chunk_means(const std::vector<double>& values, std::size_t chunk);

/// q-quantile of each of `slices` consecutive equal parts of a
/// time-ordered sample.
std::vector<double> slice_quantiles(const std::vector<double>& values, std::size_t slices,
                                    double q);

/// Resident-set figures of this process, in MiB (VmRSS / VmHWM).
double rss_mib();
double peak_rss_mib();

/// Spans recorded by the benchmark around its own calls into the program.
/// Disabled, every call is a branch and nothing is stored; enabled, spans
/// stay in memory until the run ends. Single-threaded: only the generator
/// thread records.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  void reserve(std::size_t spans) {
    if (enabled_) spans_.reserve(spans);
  }

  /// Interns a span name once, outside hot loops.
  std::uint32_t id(const std::string& name);

  /// Opens a span nested in the innermost open one; returns its index.
  std::int32_t begin(std::uint32_t name);
  void end(std::int32_t span);
  /// A finished leaf span under the innermost open span.
  void record(std::uint32_t name, std::int64_t start_ns, std::int64_t end_ns) {
    if (!enabled_) return;
    spans_.push_back({name, open_.empty() ? -1 : open_.back(), start_ns, end_ns});
  }

  /// Durations (ns) of every span with this name.
  std::vector<double> durations(const std::string& name) const;
  /// Per-name count, total and self time (duration minus time covered by
  /// child spans), printed as a table.
  void print_self_times(std::ostream& out) const;
  /// Chrome trace-event JSON of every span.
  bool write_chrome(const std::string& path) const;

 private:
  struct Span {
    std::uint32_t name;
    std::int32_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  bool enabled_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span for coarse phases (setup, rollouts, checks).
class Scope {
 public:
  Scope(Tracer& tracer, std::uint32_t name)
      : tracer_(tracer), span_(tracer.begin(name)) {}
  ~Scope() { tracer_.end(span_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t span_;
};

/// Metric name -> (value, unit).
using Metrics = std::map<std::string, std::pair<double, std::string>>;

/// The result line: every metric with its unit, plus operation counts.
struct Result {
  bool correct{true};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  Metrics end_to_end;
  Metrics per_layer;
  /// Printed with the tables and on their own line, not in the result
  /// line: figures without a bound (the open-loop latency tail), layer
  /// figures that only some workloads have, simulated (deterministic) times.
  Metrics detail;
  std::vector<std::string> problems;

  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
  /// Human-readable table of both metric sets.
  void print_table(std::ostream& out) const;
  /// One JSON object: the operation counts and `metrics`.
  std::string json(const Metrics& metrics) const;
};

}  // namespace perfbench
