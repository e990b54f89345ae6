#include "harness.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <numeric>
#include <ostream>
#include <sstream>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double trimmed_mean(std::vector<double> values, double trim) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto drop = static_cast<std::size_t>(trim * static_cast<double>(values.size()));
  return mean(std::vector<double>(values.begin() + static_cast<std::ptrdiff_t>(drop),
                                  values.end() - static_cast<std::ptrdiff_t>(drop)));
}

std::vector<double> chunk_means(const std::vector<double>& values, std::size_t chunk) {
  std::vector<double> means;
  for (std::size_t begin = 0; begin < values.size(); begin += chunk) {
    const std::size_t end = std::min(values.size(), begin + chunk);
    means.push_back(mean(std::vector<double>(
        values.begin() + static_cast<std::ptrdiff_t>(begin),
        values.begin() + static_cast<std::ptrdiff_t>(end))));
  }
  return means;
}

std::vector<double> slice_quantiles(const std::vector<double>& values, std::size_t slices,
                                    double q) {
  std::vector<double> out;
  for (std::size_t s = 0; s < slices; ++s) {
    out.push_back(quantile(
        std::vector<double>(values.begin() + static_cast<std::ptrdiff_t>(values.size() * s / slices),
                            values.begin() + static_cast<std::ptrdiff_t>(values.size() * (s + 1) / slices)),
        q));
  }
  return out;
}

namespace {

double status_field_mib(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::stod(line.substr(prefix.size())) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::string number(double value) {
  std::ostringstream out;
  out << std::setprecision(17) << value;
  return out.str();
}

}  // namespace

double rss_mib() { return status_field_mib("VmRSS"); }
double peak_rss_mib() { return status_field_mib("VmHWM"); }

std::uint32_t Tracer::id(const std::string& name) {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) return static_cast<std::uint32_t>(it - names_.begin());
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::int32_t Tracer::begin(std::uint32_t name) {
  if (!enabled_) return -1;
  const std::int64_t start = now_ns();
  spans_.push_back({name, open_.empty() ? -1 : open_.back(), start, start});
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::end(std::int32_t span) {
  if (!enabled_ || span < 0) return;
  spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it == names_.end()) return out;
  const auto id = static_cast<std::uint32_t>(it - names_.begin());
  for (const Span& span : spans_) {
    if (span.name == id) out.push_back(static_cast<double>(span.end_ns - span.start_ns));
  }
  return out;
}

void Tracer::print_self_times(std::ostream& out) const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  struct Row {
    std::uint64_t count{0};
    double total_ns{0.0};
    double self_ns{0.0};
  };
  std::vector<Row> rows(names_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double duration = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    Row& row = rows[spans_[i].name];
    ++row.count;
    row.total_ns += duration;
    row.self_ns += duration - child_ns[i];
  }
  out << "span                                 count     total_ms      self_ms   mean_us\n";
  for (std::size_t n = 0; n < names_.size(); ++n) {
    if (rows[n].count == 0) continue;
    char line[160];
    std::snprintf(line, sizeof line, "%-34s %8llu %12.3f %12.3f %9.3f\n",
                  names_[n].c_str(), static_cast<unsigned long long>(rows[n].count),
                  rows[n].total_ns / 1e6, rows[n].self_ns / 1e6,
                  rows[n].total_ns / 1e3 / static_cast<double>(rows[n].count));
    out << line;
  }
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << names_[span.name]
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << number(static_cast<double>(span.start_ns - origin) / 1e3)
        << ",\"dur\":" << number(static_cast<double>(span.end_ns - span.start_ns) / 1e3)
        << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void Result::print_table(std::ostream& out) const {
  const auto print = [&out](const char* title, const auto& metrics) {
    out << title << "\n";
    for (const auto& [name, value] : metrics) {
      char line[160];
      std::snprintf(line, sizeof line, "  %-36s %16.6f %s\n", name.c_str(),
                    value.first, value.second.c_str());
      out << line;
    }
  };
  print("end-to-end", end_to_end);
  if (!per_layer.empty()) print("per-layer", per_layer);
  if (!detail.empty()) print("detail", detail);
}

std::string Result::json(const Metrics& metrics) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
        << number(value.first) << ", \"unit\": \"" << value.second << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
