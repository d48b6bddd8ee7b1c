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

// --- Batched-vs-scalar hashing: the same workload (batch of 256-byte
// endorsement-sized inputs) through each kernel this CPU supports, so the
// BENCH_crypto.json datapoints show the multi-buffer win per width. Arg(0)
// selects the kernel, Arg(1) the batch size. ---

crypto::batch::Kernel KernelFromArg(std::int64_t arg) {
  switch (arg) {
    case 1: return crypto::batch::Kernel::kShaNi;
    case 2: return crypto::batch::Kernel::kWide4;
    case 3: return crypto::batch::Kernel::kWide8;
    default: return crypto::batch::Kernel::kScalar;
  }
}

void BM_Sha256Batch(benchmark::State& state) {
  const crypto::batch::Kernel kernel = KernelFromArg(state.range(0));
  crypto::batch::ScopedKernel forced(kernel);
  if (!forced.ok()) {
    state.SkipWithError("kernel unsupported on this CPU");
    return;
  }
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  constexpr std::size_t kInputLen = 256;
  std::vector<Bytes> inputs(n, Bytes(kInputLen, 0xcd));
  for (std::size_t i = 0; i < n; ++i) inputs[i][0] = static_cast<uint8_t>(i);
  std::vector<BytesView> views(inputs.begin(), inputs.end());
  std::vector<crypto::Digest> out(n);
  for (auto _ : state) {
    crypto::Sha256::HashBatch(views.data(), out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * kInputLen));
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Sha256Batch)
    ->ArgNames({"kernel", "batch"})
    ->Args({0, 1})
    ->Args({0, 4})
    ->Args({0, 8})
    ->Args({1, 1})
    ->Args({1, 4})
    ->Args({1, 8})
    ->Args({2, 4})
    ->Args({2, 8})
    ->Args({3, 8})
    ->Args({3, 16});

// --- Endorsement-shaped verification: q signatures over distinct messages,
// scalar loop vs one VerifyBatch pass. ---

void BM_VerifyScalarLoop(benchmark::State& state) {
  crypto::Pki pki;
  const crypto::PrivateKey key = pki.Generate("org");
  const std::size_t q = static_cast<std::size_t>(state.range(0));
  std::vector<Bytes> messages;
  std::vector<crypto::Signature> sigs;
  for (std::size_t i = 0; i < q; ++i) {
    messages.push_back(ToBytes("endorsement " + std::to_string(i)));
    sigs.push_back(key.Sign("endorse", BytesView(messages.back())));
  }
  for (auto _ : state) {
    bool all = true;
    for (std::size_t i = 0; i < q; ++i) {
      all &= pki.Verify(key.id(), "endorse", BytesView(messages[i]), sigs[i]);
    }
    benchmark::DoNotOptimize(all);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(q));
}
BENCHMARK(BM_VerifyScalarLoop)->Arg(4)->Arg(8);

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
