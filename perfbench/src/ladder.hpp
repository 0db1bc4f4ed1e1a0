// The layer ladder: a seeded sample of a workload's own inputs replayed
// single-threaded through each layer's public function, outside the timed
// window. Each call gets a span in the traced run; each layer reports the
// median cost of one call.
#pragma once

#include <chrono>
#include <vector>

#include "crypto/hash.hpp"
#include "evm/state.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

using tinyevm::Hash256;
namespace evm = tinyevm::evm;

/// Times one call of `fn`, records it as a span, and returns microseconds.
template <class Fn>
double timed_us(Tracer& tracer, const char* name, Fn&& fn) {
  const std::int64_t start = now_ns();
  fn();
  const std::int64_t end = now_ns();
  tracer.add(name, "ladder", start, end);
  return static_cast<double>(end - start) / 1e3;
}

/// Ladder rungs every workload has inputs for: u256 (mulmod mod the group
/// order, divmod), crypto (sign, recover over `digests`) and evm (a cold
/// translation of each of `codes` on a private cache). Sets the
/// u256.*, crypto.sign_us, crypto.recover_us and evm.translate_us metrics;
/// a recovered address that is not the signer's fails the run.
void run_core_ladder(const std::vector<Hash256>& digests,
                     const std::vector<evm::Bytes>& codes, Tracer& tracer,
                     RunResult& result);

}  // namespace perfbench
