// Unit tests for the base substrate: RNG, virtual clock, event queue,
// kern_return names, cost model, cycle conversions.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <memory>
#include <vector>

#include "src/base/kern_return.h"
#include "src/base/rng.h"
#include "src/base/vclock.h"
#include "src/machine/cost_model.h"
#include "src/machine/cycle_model.h"

namespace mkc {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(RngTest, RangeIsInclusive) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    std::uint64_t v = rng.Range(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Chance(0));
    EXPECT_TRUE(rng.Chance(1000));
  }
}

TEST(VirtualClockTest, AdvanceAndAdvanceTo) {
  VirtualClock clock;
  EXPECT_EQ(clock.Now(), 0u);
  clock.Advance(100);
  EXPECT_EQ(clock.Now(), 100u);
  clock.AdvanceTo(50);  // Never backwards.
  EXPECT_EQ(clock.Now(), 100u);
  clock.AdvanceTo(500);
  EXPECT_EQ(clock.Now(), 500u);
}

TEST(EventQueueTest, RunsInDeadlineOrder) {
  VirtualClock clock;
  EventQueue events;
  std::vector<int> order;
  events.Post(300, [&] { order.push_back(3); });
  events.Post(100, [&] { order.push_back(1); });
  events.Post(200, [&] { order.push_back(2); });
  while (!events.Empty()) {
    events.RunNext(clock);
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(clock.Now(), 300u);
}

TEST(EventQueueTest, SameDeadlineRunsInPostOrder) {
  VirtualClock clock;
  EventQueue events;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    events.Post(42, [&order, i] { order.push_back(i); });
  }
  while (!events.Empty()) {
    events.RunNext(clock);
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, EventsMayPostEvents) {
  VirtualClock clock;
  EventQueue events;
  int fired = 0;
  events.Post(10, [&] {
    ++fired;
    events.Post(20, [&] { ++fired; });
  });
  events.RunNext(clock);
  ASSERT_FALSE(events.Empty());
  events.RunNext(clock);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(clock.Now(), 20u);
}

TEST(EventQueueTest, AcceptsMoveOnlyCaptures) {
  VirtualClock clock;
  EventQueue events;
  int seen = 0;
  auto value = std::make_unique<int>(7);
  events.Post(5, [value = std::move(value), &seen] { seen = *value; });
  events.RunNext(clock);
  EXPECT_EQ(seen, 7);
}

// Counts destructions of live (not moved-from) instances.
struct DestroyCounter {
  explicit DestroyCounter(int* count) : count(count) {}
  DestroyCounter(DestroyCounter&& other) noexcept : count(other.count), live(other.live) {
    other.live = false;
  }
  ~DestroyCounter() {
    if (live) {
      ++*count;
    }
  }
  int* count;
  bool live = true;
};

TEST(EventQueueTest, DestroysEachCaptureExactlyOnce) {
  VirtualClock clock;
  int destroyed = 0;
  int ran = 0;
  {
    EventQueue events;
    // Enough events that the slab reallocates (and relocates pending
    // actions) several times.
    for (int i = 0; i < 100; ++i) {
      events.Post(static_cast<Ticks>(i), [c = DestroyCounter(&destroyed), &ran] { ++ran; });
    }
    EXPECT_EQ(destroyed, 0);
    for (int i = 0; i < 40; ++i) {
      events.RunNext(clock);
    }
    EXPECT_EQ(ran, 40);
    EXPECT_EQ(destroyed, 40);  // A run action dies as soon as it returns.
  }
  EXPECT_EQ(ran, 40);
  EXPECT_EQ(destroyed, 100);  // The 60 still pending die with the queue.
}

TEST(EventQueueTest, ActionsPostingIntoTheirQueueKeepOrderAndReuseSlots) {
  VirtualClock clock;
  EventQueue events;
  std::vector<char> order;
  events.Post(30, [&] { order.push_back('x'); });
  events.Post(10, [&] {
    order.push_back('a');
    // Posted while running: ordered by deadline, then by post order, with
    // the already-pending 'x' — and the first reuses 'a's freed slot.
    events.Post(20, [&] { order.push_back('b'); });
    events.Post(20, [&] { order.push_back('c'); });
    events.Post(15, [&] { order.push_back('d'); });
    events.Post(30, [&] { order.push_back('y'); });
  });
  while (!events.Empty()) {
    events.RunNext(clock);
  }
  EXPECT_EQ(order, (std::vector<char>{'a', 'd', 'b', 'c', 'x', 'y'}));
  EXPECT_EQ(events.SlabSlots(), 5u);  // Six events, at most five pending.

  // A self-rearming timer never holds more than its own slot.
  EventQueue timer;
  int fires = 0;
  struct Rearm {
    EventQueue* q;
    int* fires;
    void operator()() const {
      if (++*fires < 100) {
        q->Post(static_cast<Ticks>(*fires) * 10, Rearm{q, fires});
      }
    }
  };
  timer.Post(0, Rearm{&timer, &fires});
  while (!timer.Empty()) {
    timer.RunNext(clock);
  }
  EXPECT_EQ(fires, 100);
  EXPECT_EQ(timer.SlabSlots(), 1u);
}

TEST(EventQueueTest, FullCaptureBudgetFits) {
  VirtualClock clock;
  EventQueue events;
  // The packet-delivery event's shape: two pointers, a link index and the
  // wire buffer it owns.
  int sink = 0;
  std::vector<std::byte> data(16, std::byte{3});
  auto deliver = [q = &events, s = &sink, link = 1, data = std::move(data)]() mutable {
    *s = link + static_cast<int>(data.size()) + static_cast<int>(q->Size());
  };
  static_assert(sizeof(deliver) == EventQueue::kActionBytes);
  events.Post(1, std::move(deliver));
  static int wide_sum = 0;
  std::array<std::uint64_t, EventQueue::kActionBytes / sizeof(std::uint64_t)> words{};
  words.back() = 5;
  auto wide = [words] { wide_sum = static_cast<int>(words.back()); };
  static_assert(sizeof(wide) == EventQueue::kActionBytes);
  events.Post(2, wide);
  while (!events.Empty()) {
    events.RunNext(clock);
  }
  EXPECT_EQ(sink, 1 + 16 + 1);  // Link, buffer bytes, one event still pending.
  EXPECT_EQ(wide_sum, 5);
}

TEST(KernReturnTest, NamesAreDistinctAndStable) {
  EXPECT_STREQ(KernReturnName(KernReturn::kSuccess), "KERN_SUCCESS");
  EXPECT_STREQ(KernReturnName(KernReturn::kRcvTimedOut), "MACH_RCV_TIMED_OUT");
  EXPECT_STREQ(KernReturnName(KernReturn::kSendInvalidDest), "MACH_SEND_INVALID_DEST");
  EXPECT_TRUE(IsSuccess(KernReturn::kSuccess));
  EXPECT_FALSE(IsSuccess(KernReturn::kFailure));
}

TEST(CostModelTest, AccumulatesPerOp) {
  CostModel model;
  model.Account(CostOp::kStackHandoff, 3, 4);
  model.Account(CostOp::kStackHandoff, 3, 4);
  model.Account(CostOp::kContextSwitch, 30, 30);
  EXPECT_EQ(model.Get(CostOp::kStackHandoff).calls, 2u);
  EXPECT_EQ(model.Get(CostOp::kStackHandoff).word_loads, 6u);
  EXPECT_EQ(model.Get(CostOp::kContextSwitch).word_stores, 30u);
  model.Reset();
  EXPECT_EQ(model.Get(CostOp::kStackHandoff).calls, 0u);
}

TEST(CostModelTest, OpNamesExist) {
  for (int i = 0; i < static_cast<int>(CostOp::kCount); ++i) {
    EXPECT_STRNE(CostOpName(static_cast<CostOp>(i)), "unknown");
  }
}

TEST(CycleModelTest, ConversionMatchesSimulatedClock) {
  // 16.67 cycles take one microsecond on the simulated DS3100.
  EXPECT_NEAR(CyclesToMicros(1667), 100.0, 0.1);
  // Table 4's primitives keep their relative order.
  EXPECT_LT(kCycStackHandoff, kCycContextSwitchNoSave);
  EXPECT_LT(kCycContextSwitchNoSave, kCycContextSwitch);
  EXPECT_LT(kCycSyscallExitMk32, kCycSyscallExitMk40);
}

}  // namespace
}  // namespace mkc
