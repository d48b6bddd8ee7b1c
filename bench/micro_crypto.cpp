// Micro-benchmarks for the crypto substrate: SHA-256 and the simulated PKI.
#include <benchmark/benchmark.h>

#include "crypto/pki.h"
#include "micro_json.h"

namespace {

using namespace orderless;

void BM_Sha256(benchmark::State& state) {
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::Hash(BytesView(data)));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_SignVerify(benchmark::State& state) {
  crypto::Pki pki;
  const crypto::PrivateKey key = pki.Generate("bench");
  const Bytes message(256, 0x42);
  for (auto _ : state) {
    const crypto::Signature sig = key.Sign("ctx", BytesView(message));
    benchmark::DoNotOptimize(
        pki.Verify(key.id(), "ctx", BytesView(message), sig));
  }
}
BENCHMARK(BM_SignVerify);

// --- Endorsement-shaped verification: q signatures over distinct messages
// in one VerifyBatch call. ---

void BM_VerifyBatch(benchmark::State& state) {
  crypto::Pki pki;
  const crypto::PrivateKey key = pki.Generate("org");
  const std::size_t q = static_cast<std::size_t>(state.range(0));
  std::vector<Bytes> messages;
  for (std::size_t i = 0; i < q; ++i) {
    messages.push_back(ToBytes("endorsement " + std::to_string(i)));
  }
  std::vector<crypto::Pki::BatchItem> items;
  for (std::size_t i = 0; i < q; ++i) {
    items.push_back({key.id(), "endorse", BytesView(messages[i]),
                     key.Sign("endorse", BytesView(messages[i]))});
  }
  std::vector<std::uint8_t> valid(q, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pki.VerifyBatch(
        items.data(), q, reinterpret_cast<bool*>(valid.data())));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(q));
}
BENCHMARK(BM_VerifyBatch)->Arg(4)->Arg(8);

}  // namespace

int main(int argc, char** argv) {
  // "crypto" (not "micro_crypto") so the artifact lands as BENCH_crypto.json
  // next to BENCH_hotpath.json in the CI bench-regress upload.
  return orderless::bench::RunMicrobenchWithJson(argc, argv, "crypto");
}
