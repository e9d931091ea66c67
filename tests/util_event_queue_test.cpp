#include "util/event_queue.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace autolearn::util {
namespace {

TEST(EventQueue, StartsAtZeroAndEmpty) {
  EventQueue q;
  EXPECT_EQ(q.now(), 0.0);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, RunsEventsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(2.0, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 3.0);
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, ScheduleInIsRelative) {
  EventQueue q;
  double fired_at = -1;
  q.schedule_at(2.0, [&] {
    q.schedule_in(0.5, [&] { fired_at = q.now(); });
  });
  q.run();
  EXPECT_DOUBLE_EQ(fired_at, 2.5);
}

TEST(EventQueue, SchedulingInThePastThrows) {
  EventQueue q;
  q.schedule_at(5.0, [] {});
  q.run();
  EXPECT_THROW(q.schedule_at(4.0, [] {}), std::invalid_argument);
}

TEST(EventQueue, RunUntilStopsAtBoundaryInclusive) {
  EventQueue q;
  std::vector<double> fired;
  q.schedule_at(1.0, [&] { fired.push_back(1.0); });
  q.schedule_at(2.0, [&] { fired.push_back(2.0); });
  q.schedule_at(3.0, [&] { fired.push_back(3.0); });
  const auto n = q.run_until(2.0);
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(q.now(), 2.0);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, RunUntilAdvancesClockWithoutEvents) {
  EventQueue q;
  q.run_until(7.5);
  EXPECT_EQ(q.now(), 7.5);
}

TEST(EventQueue, StepRunsExactlyOne) {
  EventQueue q;
  int count = 0;
  q.schedule_at(1.0, [&] { ++count; });
  q.schedule_at(2.0, [&] { ++count; });
  EXPECT_TRUE(q.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(q.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(q.step());
}

TEST(EventQueue, EventsScheduledDuringRunExecute) {
  EventQueue q;
  int depth = 0;
  q.schedule_at(1.0, [&] {
    ++depth;
    q.schedule_in(1.0, [&] {
      ++depth;
      q.schedule_in(1.0, [&] { ++depth; });
    });
  });
  q.run();
  EXPECT_EQ(depth, 3);
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, RunWithLimit) {
  EventQueue q;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(static_cast<double>(i + 1), [&] { ++count; });
  }
  EXPECT_EQ(q.run(4), 4u);
  EXPECT_EQ(count, 4);
  EXPECT_EQ(q.pending(), 6u);
}

TEST(EventQueue, NextTimeReportsEarliest) {
  EventQueue q;
  q.schedule_at(5.0, [] {});
  q.schedule_at(2.5, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 2.5);
}

TEST(EventQueue, NextTimeOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.next_time(), std::logic_error);
}

// A callback that counts how often it is copied; moves are free.
struct CopyCounter {
  int* copies;
  int* calls;
  CopyCounter(int* c, int* n) : copies(c), calls(n) {}
  CopyCounter(const CopyCounter& o) : copies(o.copies), calls(o.calls) {
    ++*copies;
  }
  CopyCounter(CopyCounter&&) noexcept = default;
  void operator()() const { ++*calls; }
};

TEST(EventQueue, StepMovesTheCallbackOutWithoutCopying) {
  EventQueue q;
  int copies = 0, calls = 0;
  // Several pending events, so pops also reshuffle the heap.
  for (int i = 0; i < 9; ++i) {
    q.schedule_at(static_cast<double>((i * 5) % 9),
                  CopyCounter(&copies, &calls));
  }
  copies = 0;
  while (q.step()) {
    EXPECT_EQ(copies, 0) << "after " << calls << " steps";
  }
  EXPECT_EQ(calls, 9);
  EXPECT_EQ(copies, 0);
}

// Property: any random schedule executes in nondecreasing time order.
class EventQueueOrderTest : public ::testing::TestWithParam<int> {};

TEST_P(EventQueueOrderTest, MonotoneExecution) {
  EventQueue q;
  std::vector<double> fired;
  // Deterministic pseudo-random times from the seed parameter.
  unsigned state = static_cast<unsigned>(GetParam());
  auto next = [&state] {
    state = state * 1664525u + 1013904223u;
    return static_cast<double>(state % 1000) / 10.0;
  };
  for (int i = 0; i < 200; ++i) {
    const double t = next();
    q.schedule_at(t, [&fired, &q] { fired.push_back(q.now()); });
  }
  q.run();
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LE(fired[i - 1], fired[i]);
  }
  EXPECT_EQ(fired.size(), 200u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueOrderTest,
                         ::testing::Values(1, 7, 42, 123, 999));

}  // namespace
}  // namespace autolearn::util
