// Seeded inputs for the three workloads. Everything the program receives
// (which process calls, which API token, when, which block a write hits)
// is fixed here from --seed before any measurement starts.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/dataset.hpp"

namespace perfbench {

namespace nn = csdml::nn;

/// Detector semantics shared by every workload (the deployed operating
/// point: window 100, hop 25, two consecutive over-threshold windows).
inline constexpr std::size_t kWindow = 100;
inline constexpr std::size_t kHop = 25;
inline constexpr double kThreshold = 0.5;
inline constexpr std::size_t kConsecutive = 2;

/// True when the `calls_seen`-th call of a process completes a window:
/// the call that first fills it, then every hop calls.
inline bool window_due(std::uint64_t calls_seen) {
  return calls_seen >= kWindow && (calls_seen - kWindow) % kHop == 0;
}

/// Blocks each guarded-writes process owns (its files) and the block size.
inline constexpr std::uint32_t kBlocksPerProcess = 16;
inline constexpr std::size_t kBlockBytes = 4096;

struct Call {
  std::uint32_t pid{0};
  nn::TokenId token{0};
  std::uint32_t call_index{0};  ///< 1-based calls_seen of this process
  bool due{false};              ///< completes a window
  bool exits{false};            ///< the process exits after this call
  bool write{false};            ///< write-type call: a block write follows
  std::uint32_t lba{0};         ///< block the write hits
  std::uint32_t write_seq{0};   ///< 1-based write number of this process
};

struct Process {
  std::uint32_t pid{0};
  bool ransomware{false};
  std::vector<nn::TokenId> tokens;  ///< tokens in call order
  std::uint32_t lba_base{0};        ///< first owned block (guarded-writes)
};

/// A run of consecutive calls fed in one mode.
struct Segment {
  std::size_t begin{0};
  std::size_t end{0};
  bool open_loop{false};
};

struct Inputs {
  std::vector<Process> processes;  ///< index = pid - 1
  std::vector<Call> calls;         ///< every call of the run, in order
  /// Alternating closed-loop saturation and open-loop Poisson segments,
  /// `rounds` of each, so every figure samples the whole run.
  std::vector<Segment> segments;
  /// Open-loop send offset of each call from its segment's start (0 for
  /// saturation calls).
  std::vector<std::int64_t> send_ns;
  /// Tokens of the window completed by `call_index` of `pid`.
  nn::TokenSpan window(std::uint32_t pid, std::uint32_t call_index) const;
};

/// How a workload's live processes are made up. Every slot always holds
/// one live process; a process that exits is replaced at once, so the
/// number of live processes is constant.
struct Mix {
  std::size_t benign_long{0};     ///< live for the whole run
  std::size_t ransomware_long{0};
  std::size_t benign_short{0};    ///< exit after short_min..short_max calls
  std::size_t short_min{0};
  std::size_t short_max{0};
  std::size_t benign_finite{0};   ///< exit after finite_min..finite_max calls
  std::size_t ransomware_finite{0};
  std::size_t finite_min{0};
  std::size_t finite_max{0};
  /// Calls of benign activity a finite ransomware process makes before it
  /// detonates (a dropper inside a benign app), drawn in this range.
  std::size_t disguise_min{0};
  std::size_t disguise_max{0};
  bool writes{false};             ///< map write-type calls to block writes
};

Inputs make_inputs(std::uint64_t seed, const Mix& mix, std::size_t saturation_calls,
                   std::size_t open_loop_calls, double offered_rate, std::size_t rounds);

/// Deterministic 4 KiB block contents: `key` names the version of the
/// block (original data or one process's write).
void fill_block(std::uint64_t key, std::uint8_t* out);
inline std::uint64_t original_key(std::uint32_t lba) {
  return (1ULL << 63) | lba;
}
inline std::uint64_t write_key(std::uint32_t pid, std::uint32_t write_seq) {
  return (static_cast<std::uint64_t>(pid) << 32) | write_seq;
}

}  // namespace perfbench
