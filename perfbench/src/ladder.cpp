#include "ladder.hpp"

#include <memory>

#include "crypto/secp256k1.hpp"
#include "evm/code_cache.hpp"
#include "evm/decoded.hpp"
#include "evm/engine.hpp"
#include "evm/vm.hpp"
#include "stats.hpp"
#include "u256/u256.hpp"

namespace perfbench {

namespace {

using tinyevm::U256;
namespace secp256k1 = tinyevm::secp256k1;

// Arithmetic calls are far below the clock's resolution one at a time, so
// each timed sample is a loop of this many calls.
constexpr int kArithmeticLoop = 200;

// Keeps the arithmetic loops observable to the optimizer.
volatile std::uint64_t g_sink = 0;

}  // namespace

void run_core_ladder(const std::vector<Hash256>& digests,
                     const std::vector<evm::Bytes>& codes, Tracer& tracer,
                     RunResult& result) {
  const auto key = secp256k1::PrivateKey::from_seed("perfbench-ladder");
  const auto signer = key.address();
  std::vector<double> sign_us, recover_us, mulmod_ns, divmod_ns;
  std::vector<secp256k1::Signature> sigs;
  for (const Hash256& digest : digests) {
    secp256k1::Signature sig;
    sign_us.push_back(timed_us(tracer, "crypto.sign",
                               [&] { sig = secp256k1::sign(digest, key); }));
    std::optional<secp256k1::Address> who;
    recover_us.push_back(timed_us(tracer, "crypto.recover", [&] {
      who = secp256k1::recover_address(digest, sig);
    }));
    if (!who || *who != signer) result.fail("ladder: recover_address mismatch");
    sigs.push_back(sig);
  }

  const U256 n = secp256k1::group_order();
  U256 sink;
  for (std::size_t i = 0; i < sigs.size(); ++i) {
    const U256 a = sigs[i].r;
    const U256 b = sigs[i].s;
    const U256 word = U256::from_word(digests[i]);
    mulmod_ns.push_back(1e3 / kArithmeticLoop *
                        timed_us(tracer, "u256.mulmod_n", [&] {
                          U256 x = a;
                          for (int k = 0; k < kArithmeticLoop; ++k) {
                            x = U256::mulmod(x, b, n);
                          }
                          sink = sink ^ x;
                        }));
    divmod_ns.push_back(1e3 / kArithmeticLoop *
                        timed_us(tracer, "u256.divmod", [&] {
                          U256 x;
                          for (int k = 0; k < kArithmeticLoop; ++k) {
                            x = U256::divmod(x ^ word, a | U256{1}).second;
                          }
                          sink = sink ^ x;
                        }));
  }
  g_sink = g_sink + sink.as_u64();

  const auto profile =
      evm::EngineProfile::from_config(evm::VmConfig::tiny()).translation();
  std::vector<double> translate_us;
  for (const evm::Bytes& code : codes) {
    evm::CodeCache cache;
    std::shared_ptr<const evm::DecodedProgram> program;
    translate_us.push_back(timed_us(tracer, "evm.get_or_translate", [&] {
      program = cache.get_or_translate(code, profile);
    }));
    if (!code.empty() && program == nullptr) {
      result.fail("ladder: translation returned nothing");
    }
  }

  result.set("u256.mulmod_n_ns", median(mulmod_ns), "ns", mulmod_ns.size());
  result.set("u256.divmod_ns", median(divmod_ns), "ns", divmod_ns.size());
  result.set("crypto.sign_us", median(sign_us), "us", sign_us.size());
  result.set("crypto.recover_us", median(recover_us), "us", recover_us.size());
  result.set("evm.translate_us", median(translate_us), "us",
             translate_us.size());
}

}  // namespace perfbench
