#include <gtest/gtest.h>

#include "clock/logical_clock.h"

namespace orderless::clk {
namespace {

TEST(OpClock, SameClientOrdering) {
  const OpClock early{1, 5};
  const OpClock late{1, 9};
  EXPECT_EQ(Compare(early, late), Order::kBefore);
  EXPECT_EQ(Compare(late, early), Order::kAfter);
  EXPECT_TRUE(HappenedBefore(early, late));
  EXPECT_FALSE(HappenedBefore(late, early));
}

TEST(OpClock, DifferentClientsAreConcurrent) {
  const OpClock a{1, 5};
  const OpClock b{2, 9};
  EXPECT_EQ(Compare(a, b), Order::kConcurrent);
  EXPECT_EQ(Compare(b, a), Order::kConcurrent);
  EXPECT_FALSE(HappenedBefore(a, b));
  EXPECT_FALSE(HappenedBefore(b, a));
}

TEST(OpClock, EqualClocks) {
  const OpClock a{1, 5};
  const OpClock b{1, 5};
  EXPECT_EQ(Compare(a, b), Order::kEqual);
  EXPECT_FALSE(HappenedBefore(a, b));
}

TEST(OpClock, ImplicitHappenedBeforeEverything) {
  const OpClock implicit{};
  const OpClock real{3, 1};
  EXPECT_TRUE(implicit.IsImplicit());
  EXPECT_EQ(Compare(implicit, real), Order::kBefore);
  EXPECT_EQ(Compare(real, implicit), Order::kAfter);
}

TEST(OpClock, EncodeDecode) {
  const OpClock a{77, 123456789};
  codec::Writer w;
  a.Encode(w);
  codec::Reader r{BytesView(w.data())};
  EXPECT_EQ(OpClock::Decode(r), a);
}

TEST(LamportClock, TickIncrements) {
  LamportClock clock(42);
  const OpClock first = clock.Tick();
  const OpClock second = clock.Tick();
  EXPECT_EQ(first.client, 42u);
  EXPECT_EQ(first.counter + 1, second.counter);
  EXPECT_TRUE(HappenedBefore(first, second));
}

TEST(LamportClock, ObserveAdvances) {
  LamportClock clock(1);
  clock.Tick();
  clock.Observe(100);
  EXPECT_EQ(clock.Tick().counter, 101u);
  clock.Observe(50);  // lower values don't rewind
  EXPECT_EQ(clock.Tick().counter, 102u);
}

}  // namespace
}  // namespace orderless::clk
