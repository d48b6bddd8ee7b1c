// Micro-benchmarks (google-benchmark) for the CRDT engine: Algorithm 1
// apply throughput, read materialization, merge, and serialization.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "crdt/object.h"
#include "micro_json.h"

namespace {

using namespace orderless;

std::vector<crdt::Operation> MakeCounterOps(std::size_t n) {
  std::vector<crdt::Operation> ops;
  ops.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    crdt::Operation op;
    op.object_id = "bench";
    op.object_type = crdt::CrdtType::kGCounter;
    op.kind = crdt::OpKind::kAddValue;
    op.value_type = crdt::CrdtType::kGCounter;
    op.value = crdt::Value(std::int64_t{1});
    op.clock = clk::OpClock{1 + i % 16, 1 + i / 16};
    ops.push_back(std::move(op));
  }
  return ops;
}

std::vector<crdt::Operation> MakeMapOps(std::size_t n) {
  std::vector<crdt::Operation> ops;
  ops.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    crdt::Operation op;
    op.object_id = "bench";
    op.object_type = crdt::CrdtType::kMap;
    op.kind = crdt::OpKind::kAssignValue;
    op.value_type = crdt::CrdtType::kMVRegister;
    op.path = {"key" + std::to_string(i % 64)};
    op.value = crdt::Value(static_cast<std::int64_t>(i));
    op.clock = clk::OpClock{1 + i % 16, 1 + i / 16};
    ops.push_back(std::move(op));
  }
  return ops;
}

void BM_GCounterApply(benchmark::State& state) {
  const auto ops = MakeCounterOps(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    crdt::CrdtObject obj("bench", crdt::CrdtType::kGCounter);
    obj.ApplyOperations(ops);
    benchmark::DoNotOptimize(obj.Read().counter);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GCounterApply)->Arg(100)->Arg(1000)->Arg(10000);

void BM_MapApplyAndRead(benchmark::State& state) {
  const auto ops = MakeMapOps(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    crdt::CrdtObject obj("bench", crdt::CrdtType::kMap);
    obj.ApplyOperations(ops);
    benchmark::DoNotOptimize(obj.Read().keys.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MapApplyAndRead)->Arg(100)->Arg(1000)->Arg(10000);

void BM_MapIncrementalReadEveryOp(benchmark::State& state) {
  const auto ops = MakeMapOps(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    crdt::CrdtObject obj("bench", crdt::CrdtType::kMap);
    for (const auto& op : ops) {
      obj.ApplyOperation(op);
      benchmark::DoNotOptimize(obj.Read({op.path[0]}).values.size());
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MapIncrementalReadEveryOp)->Arg(100)->Arg(1000);

// One assign and one read per iteration on a register that N concurrent
// clients keep N values wide, so the per-op cost shows as N grows.
void BM_MVRegisterWide(benchmark::State& state) {
  const auto width = static_cast<std::uint64_t>(state.range(0));
  const auto reg = crdt::NewNode(crdt::CrdtType::kMVRegister);
  crdt::Operation op;
  op.kind = crdt::OpKind::kAssignValue;
  op.value_type = crdt::CrdtType::kMVRegister;
  for (std::uint64_t client = 1; client <= width; ++client) {
    op.clock = clk::OpClock{client, 1};
    op.value = crdt::Value(static_cast<std::int64_t>(client));
    reg->Apply(op, 0);
  }
  std::uint64_t counter = 1;
  std::uint64_t i = 0;
  for (auto _ : state) {
    // Each assignment replaces its client's entry, so the width stays N.
    const std::uint64_t client = 1 + i % width;
    if (client == 1) ++counter;
    op.clock = clk::OpClock{client, counter};
    op.value = crdt::Value(static_cast<std::int64_t>(i++));
    benchmark::DoNotOptimize(reg->Apply(op, 0));
    benchmark::DoNotOptimize(reg->ReadAt({}, 0).values.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MVRegisterWide)->Arg(10)->Arg(100)->Arg(1000);

void BM_StateMerge(benchmark::State& state) {
  const auto ops = MakeMapOps(static_cast<std::size_t>(state.range(0)));
  crdt::CrdtObject a("bench", crdt::CrdtType::kMap);
  crdt::CrdtObject b("bench", crdt::CrdtType::kMap);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    (i % 2 == 0 ? a : b).ApplyOperation(ops[i]);
  }
  for (auto _ : state) {
    crdt::CrdtObject merged = a.CloneObject();
    merged.MergeState(b);
    benchmark::DoNotOptimize(merged.root().OpCount());
  }
}
BENCHMARK(BM_StateMerge)->Arg(1000)->Arg(10000);

void BM_StateSerialize(benchmark::State& state) {
  const auto ops = MakeMapOps(static_cast<std::size_t>(state.range(0)));
  crdt::CrdtObject obj("bench", crdt::CrdtType::kMap);
  obj.ApplyOperations(ops);
  for (auto _ : state) {
    const Bytes encoded = obj.EncodeState();
    benchmark::DoNotOptimize(encoded.size());
  }
}
BENCHMARK(BM_StateSerialize)->Arg(1000)->Arg(10000);

}  // namespace

int main(int argc, char** argv) {
  return orderless::bench::RunMicrobenchWithJson(argc, argv, "micro_crdt");
}
