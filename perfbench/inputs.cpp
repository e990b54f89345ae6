#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "ransomware/api_vocab.hpp"
#include "ransomware/families.hpp"
#include "ransomware/sandbox.hpp"

namespace perfbench {

using namespace csdml;

namespace {

enum class Kind { BenignLong, RansomwareLong, BenignShort, BenignFinite, RansomwareFinite };

bool is_ransomware(Kind kind) {
  return kind == Kind::RansomwareLong || kind == Kind::RansomwareFinite;
}

struct Live {
  std::size_t process{0};
  std::size_t length{0};  ///< calls before exit; 0 = never exits
  std::uint32_t calls{0};
};

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

nn::TokenSpan Inputs::window(std::uint32_t pid, std::uint32_t call_index) const {
  const Process& process = processes.at(pid - 1);
  CSDML_REQUIRE(call_index >= kWindow && call_index <= process.tokens.size(),
                "window outside the process's trace");
  return nn::TokenSpan(process.tokens.data() + (call_index - kWindow), kWindow);
}

void fill_block(std::uint64_t key, std::uint8_t* out) {
  std::uint64_t state = key;
  for (std::size_t i = 0; i < kBlockBytes; i += 8) {
    const std::uint64_t word = splitmix(state);
    std::memcpy(out + i, &word, 8);
  }
}

Inputs make_inputs(std::uint64_t seed, const Mix& mix, std::size_t saturation_calls,
                   std::size_t open_loop_calls, double offered_rate, std::size_t rounds) {
  Rng rng = Rng(seed).fork("perfbench.inputs");
  const auto& families = ransomware::ransomware_families();
  const auto& benign = ransomware::benign_profiles();
  ransomware::SandboxConfig sandbox_config;
  sandbox_config.seed = seed;
  sandbox_config.min_trace_length = 1;
  const ransomware::SandboxTraceGenerator sandbox(sandbox_config);
  const auto& vocab = ransomware::ApiVocabulary::instance();
  const nn::TokenId write_tokens[] = {vocab.require("WriteFile"),
                                      vocab.require("WriteFileEx"),
                                      vocab.require("NtWriteFile")};

  Inputs inputs;
  std::vector<Kind> slot_kinds;
  const auto add_slots = [&slot_kinds](Kind kind, std::size_t count) {
    slot_kinds.insert(slot_kinds.end(), count, kind);
  };
  add_slots(Kind::BenignLong, mix.benign_long);
  add_slots(Kind::RansomwareLong, mix.ransomware_long);
  add_slots(Kind::BenignShort, mix.benign_short);
  add_slots(Kind::BenignFinite, mix.benign_finite);
  add_slots(Kind::RansomwareFinite, mix.ransomware_finite);
  CSDML_REQUIRE(!slot_kinds.empty(), "workload has no processes");

  // Short-lived processes take slices of a pool of benign traces; every
  // other process gets its own sandbox trace once its length is known.
  std::vector<std::vector<nn::TokenId>> short_pool;
  if (mix.benign_short > 0) {
    for (std::size_t i = 0; i < 32; ++i) {
      short_pool.push_back(sandbox.benign_trace(
          benign[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(benign.size()) - 1))],
          static_cast<std::uint32_t>(rng.next() & 0xffff), 1024));
    }
  }
  std::vector<Kind> process_kind;
  std::vector<std::size_t> short_source;  // pool index, offset (per process)
  std::vector<std::size_t> short_offset;

  const auto spawn = [&](Kind kind) {
    Live live;
    live.process = inputs.processes.size();
    Process process;
    process.pid = static_cast<std::uint32_t>(inputs.processes.size() + 1);
    process.ransomware = is_ransomware(kind);
    process.lba_base = static_cast<std::uint32_t>(inputs.processes.size()) * kBlocksPerProcess;
    std::size_t source = 0;
    std::size_t offset = 0;
    if (kind == Kind::BenignShort) {
      live.length = static_cast<std::size_t>(rng.uniform_int(
          static_cast<std::int64_t>(mix.short_min), static_cast<std::int64_t>(mix.short_max)));
      source = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(short_pool.size()) - 1));
      offset = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(short_pool[source].size() - live.length)));
    } else if (kind == Kind::BenignFinite || kind == Kind::RansomwareFinite) {
      live.length = static_cast<std::size_t>(rng.uniform_int(
          static_cast<std::int64_t>(mix.finite_min), static_cast<std::int64_t>(mix.finite_max)));
    }
    inputs.processes.push_back(std::move(process));
    process_kind.push_back(kind);
    short_source.push_back(source);
    short_offset.push_back(offset);
    return live;
  };

  std::vector<Live> slots;
  for (const Kind kind : slot_kinds) slots.push_back(spawn(kind));

  // Pass 1: who calls when. Each call goes to a uniformly drawn slot.
  const std::size_t total = saturation_calls + open_loop_calls;
  std::vector<Call>& calls = inputs.calls;
  calls.resize(total);
  for (std::size_t i = 0; i < total; ++i) {
    const auto s = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(slots.size()) - 1));
    Live& live = slots[s];
    Call& call = calls[i];
    call.pid = static_cast<std::uint32_t>(live.process + 1);
    call.call_index = ++live.calls;
    call.due = window_due(call.call_index);
    if (live.length != 0 && live.calls == live.length) {
      call.exits = true;
      live = spawn(slot_kinds[s]);
    }
  }

  // Pass 2: tokens, now that every process's call count is known.
  std::vector<std::uint32_t> counts(inputs.processes.size(), 0);
  for (const Call& call : calls) counts[call.pid - 1] = call.call_index;
  for (std::size_t p = 0; p < inputs.processes.size(); ++p) {
    Process& process = inputs.processes[p];
    const std::size_t length = counts[p];
    if (length == 0) continue;
    const Kind kind = process_kind[p];
    if (kind == Kind::BenignShort) {
      const auto& source = short_pool[short_source[p]];
      process.tokens.assign(source.begin() + static_cast<std::ptrdiff_t>(short_offset[p]),
                            source.begin() + static_cast<std::ptrdiff_t>(short_offset[p] + length));
      continue;
    }
    if (process.ransomware) {
      const auto& family = families[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(families.size()) - 1))];
      const auto variant = static_cast<std::uint32_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(family.variants) - 1));
      if (kind == Kind::RansomwareFinite && mix.disguise_max > 0) {
        const auto disguise = static_cast<std::size_t>(rng.uniform_int(
            static_cast<std::int64_t>(mix.disguise_min), static_cast<std::int64_t>(mix.disguise_max)));
        const auto& cover = benign[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(benign.size()) - 1))];
        process.tokens = sandbox.benign_trace(
            cover, static_cast<std::uint32_t>(rng.next() & 0xffff), disguise);
        process.tokens.resize(std::min(disguise, length));
      }
      const std::vector<nn::TokenId> attack =
          sandbox.ransomware_trace(family, variant, length - process.tokens.size());
      process.tokens.insert(process.tokens.end(), attack.begin(), attack.end());
    } else {
      const auto& profile = benign[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(benign.size()) - 1))];
      process.tokens = sandbox.benign_trace(
          profile, static_cast<std::uint32_t>(rng.next() & 0xffff), length);
    }
    process.tokens.resize(length);
  }

  // Pass 3: tokens and block writes onto the calls. Ransomware overwrites
  // its victim blocks in order; benign processes update random blocks of
  // their own.
  std::vector<std::uint32_t> writes(inputs.processes.size(), 0);
  for (Call& call : calls) {
    const Process& process = inputs.processes[call.pid - 1];
    call.token = process.tokens[call.call_index - 1];
    if (!mix.writes) continue;
    if (std::find(std::begin(write_tokens), std::end(write_tokens), call.token) ==
        std::end(write_tokens)) {
      continue;
    }
    const std::uint32_t seq = ++writes[call.pid - 1];
    const std::uint32_t block =
        process.ransomware ? (seq - 1) % kBlocksPerProcess
                           : static_cast<std::uint32_t>(rng.uniform_int(0, kBlocksPerProcess - 1));
    call.write = true;
    call.write_seq = seq;
    call.lba = process.lba_base + block;
  }

  // Segments: saturation slice r, then open-loop slice r, per round; each
  // open-loop slice is a Poisson schedule at the offered rate.
  inputs.send_ns.assign(total, 0);
  std::size_t next = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::size_t sat = saturation_calls * (r + 1) / rounds - saturation_calls * r / rounds;
    const std::size_t open = open_loop_calls * (r + 1) / rounds - open_loop_calls * r / rounds;
    inputs.segments.push_back({next, next + sat, false});
    next += sat;
    inputs.segments.push_back({next, next + open, true});
    double t = 0.0;
    for (std::size_t i = next; i < next + open; ++i) {
      t += -std::log(1.0 - rng.uniform()) / offered_rate;
      inputs.send_ns[i] = static_cast<std::int64_t>(t * 1e9);
    }
    next += open;
  }
  return inputs;
}

}  // namespace perfbench
