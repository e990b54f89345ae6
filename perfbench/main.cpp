// Benchmark program for the CSD ransomware detector.
//
//   perfbench --workload csd-stream|fleet-churn|guarded-writes --seed N
//             --seconds S --trace 0|1 --weights FILE [--trace-out FILE]
//
// Prints a table of the run, then, as its last line, one JSON object:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload csd-stream|fleet-churn|guarded-writes "
               "--seed N --seconds S --trace 0|1 --weights FILE [--trace-out FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--weights") {
      options.weights = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || options.weights.empty() || !(options.seconds > 0.0)) return usage();

  try {
    perfbench::Result result;
    if (options.workload == "csd-stream") {
      result = perfbench::run_csd_stream(options);
    } else if (options.workload == "fleet-churn") {
      result = perfbench::run_fleet_churn(options);
    } else if (options.workload == "guarded-writes") {
      result = perfbench::run_guarded_writes(options);
    } else {
      return usage();
    }
    std::cout << "workload " << options.workload << " seed " << options.seed
              << " seconds " << options.seconds << " trace " << options.trace << "\n";
    result.print_table(std::cout);
    for (const std::string& problem : result.problems) {
      std::cout << "CHECK FAILED: " << problem << "\n";
    }
    std::cout << "detail " << result.json(result.detail) << "\n";
    if (options.trace) {
      // The traced run's own end-to-end figures, for the overhead report.
      std::cout << "traced-end-to-end " << result.json(result.end_to_end) << "\n";
    }
    std::cout << result.json(options.trace ? result.per_layer : result.end_to_end)
              << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
