#include <gtest/gtest.h>

#include "sim/network.h"
#include "sim/processor.h"
#include "sim/simulation.h"

namespace orderless::sim {
namespace {

struct TestMsg final : Message {
  explicit TestMsg(std::size_t size = 100) : size_(size) {}
  std::size_t WireSize() const override { return size_; }
  std::size_t size_;
};

TEST(Simulation, EventsRunInTimeOrder) {
  Simulation simulation;
  std::vector<int> order;
  simulation.Schedule(Ms(30), [&order] { order.push_back(3); });
  simulation.Schedule(Ms(10), [&order] { order.push_back(1); });
  simulation.Schedule(Ms(20), [&order] { order.push_back(2); });
  simulation.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(simulation.now(), Ms(30));
}

TEST(Simulation, TiesBreakByInsertionOrder) {
  Simulation simulation;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    simulation.Schedule(Ms(5), [&order, i] { order.push_back(i); });
  }
  simulation.RunUntilIdle();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulation, RunUntilStopsAndAdvancesClock) {
  Simulation simulation;
  int fired = 0;
  simulation.Schedule(Ms(10), [&fired] { ++fired; });
  simulation.Schedule(Ms(50), [&fired] { ++fired; });
  simulation.RunUntil(Ms(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(simulation.now(), Ms(20));
  simulation.RunUntil(Ms(100));
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, NestedSchedulingFromEvents) {
  Simulation simulation;
  int depth = 0;
  std::function<void()> recur = [&] {
    if (++depth < 5) simulation.Schedule(Ms(1), recur);
  };
  simulation.Schedule(Ms(1), recur);
  simulation.RunUntilIdle();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(simulation.now(), Ms(5));
}

TEST(Network, DeliversWithLatency) {
  Simulation simulation;
  NetworkConfig config;
  config.one_way_latency = Ms(50);
  config.jitter_stddev_ms = 0;
  Network network(simulation, config, Rng(1));

  SimTime arrival = 0;
  network.Register(2, [&](const Delivery& d) {
    arrival = simulation.now();
    EXPECT_EQ(d.from, 1u);
    EXPECT_FALSE(d.corrupted);
  });
  network.Send(1, 2, std::make_shared<TestMsg>());
  simulation.RunUntilIdle();
  EXPECT_GE(arrival, Ms(50));
  EXPECT_LT(arrival, Ms(52));
}

TEST(Network, JitterVariesArrival) {
  Simulation simulation;
  NetworkConfig config;
  config.one_way_latency = Ms(50);
  config.jitter_stddev_ms = 2.0;
  Network network(simulation, config, Rng(7));

  std::vector<SimTime> arrivals;
  network.Register(2, [&](const Delivery&) {
    arrivals.push_back(simulation.now());
  });
  for (int i = 0; i < 50; ++i) network.Send(1, 2, std::make_shared<TestMsg>());
  simulation.RunUntilIdle();
  ASSERT_EQ(arrivals.size(), 50u);
  SimTime min = arrivals[0];
  SimTime max = arrivals[0];
  for (SimTime t : arrivals) {
    min = std::min(min, t);
    max = std::max(max, t);
  }
  EXPECT_GT(max - min, Us(100));  // jitter spreads arrivals
}

TEST(Network, BandwidthSerializesLargeMessages) {
  Simulation simulation;
  NetworkConfig config;
  config.one_way_latency = 0;
  config.jitter_stddev_ms = 0;
  config.bandwidth_bps = 8e6;  // 1 MB/s
  Network network(simulation, config, Rng(1));

  std::vector<SimTime> arrivals;
  network.Register(2, [&](const Delivery&) {
    arrivals.push_back(simulation.now());
  });
  // Two 1 MB messages: second must wait for the first's serialization.
  network.Send(1, 2, std::make_shared<TestMsg>(1000000));
  network.Send(1, 2, std::make_shared<TestMsg>(1000000));
  simulation.RunUntilIdle();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_NEAR(static_cast<double>(arrivals[0]), 1e6, 1e4);  // ~1 s
  EXPECT_NEAR(static_cast<double>(arrivals[1]), 2e6, 1e4);  // ~2 s
}

TEST(Network, DropProbabilityDropsRoughlyThatShare) {
  Simulation simulation;
  NetworkConfig config;
  config.drop_probability = 0.5;
  config.jitter_stddev_ms = 0;
  Network network(simulation, config, Rng(3));
  int received = 0;
  network.Register(2, [&received](const Delivery&) { ++received; });
  for (int i = 0; i < 1000; ++i) network.Send(1, 2, std::make_shared<TestMsg>());
  simulation.RunUntilIdle();
  EXPECT_GT(received, 400);
  EXPECT_LT(received, 600);
  EXPECT_EQ(network.messages_dropped() + received, 1000u);
}

TEST(Network, DuplicationDeliversTwice) {
  Simulation simulation;
  NetworkConfig config;
  config.duplicate_probability = 1.0;
  config.jitter_stddev_ms = 0;
  Network network(simulation, config, Rng(3));
  int received = 0;
  network.Register(2, [&received](const Delivery&) { ++received; });
  network.Send(1, 2, std::make_shared<TestMsg>());
  simulation.RunUntilIdle();
  EXPECT_EQ(received, 2);
}

TEST(Network, CorruptionFlagsDelivery) {
  Simulation simulation;
  NetworkConfig config;
  config.corrupt_probability = 1.0;
  config.jitter_stddev_ms = 0;
  Network network(simulation, config, Rng(3));
  bool corrupted = false;
  network.Register(2, [&corrupted](const Delivery& d) {
    corrupted = d.corrupted;
  });
  network.Send(1, 2, std::make_shared<TestMsg>());
  simulation.RunUntilIdle();
  EXPECT_TRUE(corrupted);
}

TEST(Network, PartitionBlocksAndHealRestores) {
  Simulation simulation;
  Network network(simulation, NetworkConfig{}, Rng(5));
  int received = 0;
  network.Register(2, [&received](const Delivery&) { ++received; });

  network.SetPartition(1, 0);
  network.SetPartition(2, 1);
  network.Send(1, 2, std::make_shared<TestMsg>());
  simulation.RunUntilIdle();
  EXPECT_EQ(received, 0);

  network.HealPartitions();
  network.Send(1, 2, std::make_shared<TestMsg>());
  simulation.RunUntilIdle();
  EXPECT_EQ(received, 1);
}

TEST(Network, LocalDeliveryIsImmediate) {
  Simulation simulation;
  Network network(simulation, NetworkConfig{}, Rng(5));
  bool received = false;
  network.Register(1, [&received](const Delivery&) { received = true; });
  network.Send(1, 1, std::make_shared<TestMsg>());
  EXPECT_TRUE(received);  // synchronous, no event needed
}

TEST(Processor, SingleCoreQueues) {
  Simulation simulation;
  Processor cpu(simulation, 1);
  std::vector<SimTime> completions;
  for (int i = 0; i < 3; ++i) {
    cpu.Submit(Ms(10), [&] { completions.push_back(simulation.now()); });
  }
  simulation.RunUntilIdle();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_EQ(completions[0], Ms(10));
  EXPECT_EQ(completions[1], Ms(20));
  EXPECT_EQ(completions[2], Ms(30));
}

TEST(Processor, MultiCoreRunsInParallel) {
  Simulation simulation;
  Processor cpu(simulation, 4);
  std::vector<SimTime> completions;
  for (int i = 0; i < 4; ++i) {
    cpu.Submit(Ms(10), [&] { completions.push_back(simulation.now()); });
  }
  simulation.RunUntilIdle();
  for (SimTime t : completions) EXPECT_EQ(t, Ms(10));
  EXPECT_EQ(cpu.busy_time(), Ms(40));
}

TEST(Simulation, ReserveEventsForAccumulatesInSequentialMode) {
  Simulation simulation;
  const ActorId a = simulation.RegisterActor(1);
  const ActorId b = simulation.RegisterActor(2);
  // Both reservations land on the one global heap; the second must add to
  // the first, not overwrite it (the regression this test pins down).
  simulation.ReserveEventsFor(a, 100);
  simulation.ReserveEventsFor(b, 100);
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    simulation.ScheduleAtFor(a, Ms(10), [&order, i] { order.push_back(2 * i); });
    simulation.ScheduleAtFor(b, Ms(10),
                             [&order, i] { order.push_back(2 * i + 1); });
  }
  simulation.RunUntilIdle();
  ASSERT_EQ(order.size(), 200u);
  // Canonical order (time, dst, src, seq): at equal times every event bound
  // for lane a precedes every event bound for lane b, each in schedule
  // order.
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], 2 * i);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[100 + i], 2 * i + 1);
}

namespace {

// Self-rescheduling tick on one lane that also pings a peer lane at
// cross-lane distance >= the lookahead. Appends happen only from events on
// the owning lane, so parallel epochs never race on the vectors.
struct Ticker {
  Simulation& simulation;
  ActorId peer = 0;
  std::vector<SimTime>* ticks = nullptr;
  std::vector<SimTime>* peer_inbox = nullptr;
  int remaining = 0;

  void Tick() {
    ticks->push_back(simulation.now());
    simulation.ScheduleFor(peer, Ms(10),
                           [inbox = peer_inbox, sim = &simulation] {
                             inbox->push_back(sim->now());
                           });
    if (--remaining > 0) {
      simulation.Schedule(Ms(3), [this] { Tick(); });
    }
  }
};

struct ParallelRunResult {
  std::vector<SimTime> ticks_a, ticks_b, inbox_a, inbox_b;
  std::size_t processed_mid = 0, processed_end = 0;
  SimTime now_mid = 0, now_end = 0;
};

ParallelRunResult RunTickers(unsigned threads) {
  Simulation simulation;
  simulation.SetThreads(threads);
  const ActorId a = simulation.RegisterActor(1);
  const ActorId b = simulation.RegisterActor(2);
  simulation.ProposeLookahead(Ms(10));
  ParallelRunResult r;
  Ticker ta{simulation, b, &r.ticks_a, &r.inbox_b, 30};
  Ticker tb{simulation, a, &r.ticks_b, &r.inbox_a, 30};
  simulation.ReserveEventsFor(a, 32);
  simulation.ReserveEventsFor(b, 32);
  simulation.ScheduleAtFor(a, Ms(1), [&ta] { ta.Tick(); });
  simulation.ScheduleAtFor(b, Ms(2), [&tb] { tb.Tick(); });
  // Stop mid-run at a time that is not an epoch boundary: RunUntil must
  // process exactly the events with time <= until and leave now() == until,
  // then resume seamlessly.
  simulation.RunUntil(Ms(37));
  r.processed_mid = simulation.events_processed();
  r.now_mid = simulation.now();
  simulation.RunUntilIdle();
  r.processed_end = simulation.events_processed();
  r.now_end = simulation.now();
  return r;
}

}  // namespace

TEST(Simulation, ParallelRunMatchesSequentialAcrossEpochBoundaries) {
  const ParallelRunResult seq = RunTickers(1);
  EXPECT_EQ(seq.now_mid, Ms(37));
  EXPECT_EQ(seq.ticks_a.size(), 30u);
  EXPECT_EQ(seq.inbox_a.size(), 30u);
  for (unsigned threads : {2u, 4u}) {
    const ParallelRunResult par = RunTickers(threads);
    EXPECT_EQ(par.ticks_a, seq.ticks_a) << "threads=" << threads;
    EXPECT_EQ(par.ticks_b, seq.ticks_b) << "threads=" << threads;
    EXPECT_EQ(par.inbox_a, seq.inbox_a) << "threads=" << threads;
    EXPECT_EQ(par.inbox_b, seq.inbox_b) << "threads=" << threads;
    EXPECT_EQ(par.processed_mid, seq.processed_mid) << "threads=" << threads;
    EXPECT_EQ(par.processed_end, seq.processed_end) << "threads=" << threads;
    EXPECT_EQ(par.now_mid, seq.now_mid) << "threads=" << threads;
    EXPECT_EQ(par.now_end, seq.now_end) << "threads=" << threads;
  }
}

TEST(Processor, BacklogReflectsQueue) {
  Simulation simulation;
  Processor cpu(simulation, 1);
  cpu.Submit(Ms(10), [] {});
  cpu.Submit(Ms(10), [] {});
  EXPECT_EQ(cpu.Backlog(), Ms(20));
  simulation.RunUntilIdle();
  EXPECT_EQ(cpu.Backlog(), 0u);
}

}  // namespace
}  // namespace orderless::sim
