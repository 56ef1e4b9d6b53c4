// sim::Scheduler: deterministic per-ASID run queues, round-robin dispatch,
// preemption quanta, context-switch accounting and fairness.
#include "src/sim/scheduler.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace memsentry::sim {
namespace {

// Equal work, simultaneous arrivals: round-robin must hand every tenant the
// same busy time and complete everyone.
TEST(SchedulerFairnessTest, EqualWorkGetsEqualCycles) {
  SchedulerConfig config;
  config.quantum = 1'000;
  config.context_switch_cycles = 100;
  const int kTenants = 8;
  const int kRequests = 5;
  Scheduler scheduler(config, kTenants);
  for (int t = 0; t < kTenants; ++t) {
    for (int r = 0; r < kRequests; ++r) {
      scheduler.Submit(static_cast<uint16_t>(t), static_cast<uint64_t>(r), 0);
    }
  }
  auto completed = scheduler.Run([](uint16_t, uint64_t, int phase, bool* done) -> Cycles {
    if (phase == 2) {
      *done = true;
    }
    return 400;  // 3 phases x 400 = 1200 cycles per request
  });
  ASSERT_EQ(completed.size(), static_cast<size_t>(kTenants * kRequests));
  for (int t = 0; t < kTenants; ++t) {
    EXPECT_EQ(scheduler.tenant_busy_cycles(static_cast<uint16_t>(t)), 3 * 400.0 * kRequests);
    EXPECT_EQ(scheduler.tenant_completed(static_cast<uint16_t>(t)),
              static_cast<uint64_t>(kRequests));
  }
  EXPECT_EQ(scheduler.stats().busy_cycles, 3 * 400.0 * kTenants * kRequests);
}

// A quantum smaller than a tenant's backlog forces preemption, and the
// preempted tenant goes to the back of the ready list: no tenant may finish
// its whole backlog before the others have started (no starvation).
TEST(SchedulerFairnessTest, PreemptionPreventsStarvation) {
  SchedulerConfig config;
  config.quantum = 1'000;
  config.context_switch_cycles = 50;
  const int kTenants = 4;
  const int kRequests = 10;
  Scheduler scheduler(config, kTenants);
  for (int t = 0; t < kTenants; ++t) {
    for (int r = 0; r < kRequests; ++r) {
      scheduler.Submit(static_cast<uint16_t>(t), static_cast<uint64_t>(r), 0);
    }
  }
  auto completed = scheduler.Run([](uint16_t, uint64_t, int, bool* done) -> Cycles {
    *done = true;  // single-phase requests, 600 cycles each
    return 600;
  });
  ASSERT_EQ(completed.size(), static_cast<size_t>(kTenants * kRequests));
  EXPECT_GT(scheduler.stats().preemptions, 0u);
  // With a 1000-cycle quantum a slice fits one 600-cycle request; by the
  // time any tenant completes its 3rd request, every tenant must have
  // completed at least one (round-robin interleaving).
  std::vector<int> seen(kTenants, 0);
  for (const CompletedRequest& request : completed) {
    ++seen[request.tenant];
    if (seen[request.tenant] == 3) {
      for (int t = 0; t < kTenants; ++t) {
        EXPECT_GE(seen[t], 1) << "tenant " << t << " starved";
      }
      break;
    }
  }
}

TEST(SchedulerTest, ContextSwitchAccounting) {
  SchedulerConfig config;
  config.quantum = 10'000;
  config.context_switch_cycles = 250;
  Scheduler scheduler(config, 2);
  scheduler.Submit(0, 0, 0);
  scheduler.Submit(1, 0, 0);
  std::vector<uint16_t> switches;
  scheduler.SetSwitchHook([&](uint16_t tenant) { switches.push_back(tenant); });
  auto completed = scheduler.Run([](uint16_t, uint64_t, int, bool* done) -> Cycles {
    *done = true;
    return 100;
  });
  ASSERT_EQ(completed.size(), 2u);
  // Idle -> tenant 0, tenant 0 -> tenant 1: two switches, both hooked.
  EXPECT_EQ(scheduler.stats().context_switches, 2u);
  EXPECT_EQ(scheduler.stats().switch_cycles, 2 * 250.0);
  ASSERT_EQ(switches.size(), 2u);
  EXPECT_EQ(switches[0], 0);
  EXPECT_EQ(switches[1], 1);
  // Total clock = 2 switches + 2 requests.
  EXPECT_EQ(scheduler.clock(), 2 * 250.0 + 2 * 100.0);
}

// Consecutive slices of the same tenant must not pay the switch cost.
TEST(SchedulerTest, NoSwitchCostWithinOneTenant) {
  SchedulerConfig config;
  config.quantum = 100;  // every request overruns the quantum
  config.context_switch_cycles = 1'000;
  Scheduler scheduler(config, 1);
  for (int r = 0; r < 5; ++r) {
    scheduler.Submit(0, static_cast<uint64_t>(r), 0);
  }
  auto completed = scheduler.Run([](uint16_t, uint64_t, int, bool* done) -> Cycles {
    *done = true;
    return 500;
  });
  ASSERT_EQ(completed.size(), 5u);
  EXPECT_EQ(scheduler.stats().context_switches, 1u);  // only idle -> tenant 0
  EXPECT_GT(scheduler.stats().preemptions, 0u);
  EXPECT_EQ(scheduler.clock(), 1'000.0 + 5 * 500.0);
}

TEST(SchedulerTest, IdleJumpsToNextArrival) {
  SchedulerConfig config;
  config.context_switch_cycles = 0;
  Scheduler scheduler(config, 1);
  scheduler.Submit(0, 0, 0);
  scheduler.Submit(0, 1, 1'000'000);  // long idle gap
  auto completed = scheduler.Run([](uint16_t, uint64_t, int, bool* done) -> Cycles {
    *done = true;
    return 10;
  });
  ASSERT_EQ(completed.size(), 2u);
  EXPECT_GE(scheduler.stats().idle_jumps, 1u);
  EXPECT_EQ(completed[1].arrival, 1'000'000.0);
  EXPECT_EQ(completed[1].completion, 1'000'010.0);  // ran immediately on arrival
}

// Latency includes queueing: simultaneous arrivals to one tenant complete in
// FIFO order with strictly increasing completion times.
TEST(SchedulerTest, FifoWithinTenant) {
  SchedulerConfig config;
  config.context_switch_cycles = 0;
  Scheduler scheduler(config, 1);
  for (int r = 0; r < 4; ++r) {
    scheduler.Submit(0, static_cast<uint64_t>(r), 0);
  }
  auto completed = scheduler.Run([](uint16_t, uint64_t, int, bool* done) -> Cycles {
    *done = true;
    return 100;
  });
  ASSERT_EQ(completed.size(), 4u);
  for (size_t i = 0; i < completed.size(); ++i) {
    EXPECT_EQ(completed[i].seq, i);
    EXPECT_EQ(completed[i].completion, 100.0 * static_cast<double>(i + 1));
  }
}

// Bit-for-bit repeatability: two identical schedules produce identical
// completion sequences and stats.
TEST(SchedulerTest, DeterministicAcrossRuns) {
  auto run = [] {
    SchedulerConfig config;
    config.quantum = 700;
    config.context_switch_cycles = 90;
    Scheduler scheduler(config, 5);
    for (int t = 0; t < 5; ++t) {
      for (int r = 0; r < 7; ++r) {
        scheduler.Submit(static_cast<uint16_t>(t), static_cast<uint64_t>(r),
                         static_cast<Cycles>(r * 331 + t * 17));
      }
    }
    return scheduler.Run([](uint16_t tenant, uint64_t seq, int phase, bool* done) -> Cycles {
      if (phase == 1) {
        *done = true;
      }
      return static_cast<Cycles>(50 + 13 * tenant + 7 * (seq % 3));
    });
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tenant, b[i].tenant);
    EXPECT_EQ(a[i].seq, b[i].seq);
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].completion, b[i].completion);
  }
}

// Golden completion order, recorded with the per-tenant deque run queues the
// flat queues replaced. The schedule mixes staggered arrivals, equal
// arrival times across tenants, arrivals that land mid-slice, a tenant
// whose submissions are out of arrival order, multi-phase requests of
// uneven cost and an idle gap.
std::string GoldenScheduleTrace() {
  SchedulerConfig config;
  config.quantum = 900;
  config.context_switch_cycles = 120;
  Scheduler scheduler(config, 4);
  const struct {
    uint16_t tenant;
    uint64_t seq;
    Cycles arrival;
  } submissions[] = {
      {0, 0, 0},    {0, 1, 0},    {0, 2, 0},     {0, 3, 5'000},  {1, 0, 0},
      {1, 1, 250},  {1, 2, 2'600}, {2, 0, 400},  {2, 1, 400},    {2, 2, 9'000},
      {3, 0, 3'000}, {3, 1, 1'200}, {3, 2, 1'200}, {3, 3, 60'000},
  };
  for (const auto& s : submissions) {
    scheduler.Submit(s.tenant, s.seq, s.arrival);
  }
  std::string trace;
  scheduler.SetSwitchHook(
      [&trace](uint16_t tenant) { trace += "s" + std::to_string(tenant) + " "; });
  const auto completed =
      scheduler.Run([](uint16_t tenant, uint64_t seq, int phase, bool* done) -> Cycles {
        *done = phase + 1 == 1 + static_cast<int>((tenant + seq) % 3);
        return static_cast<Cycles>(150 + 37 * tenant + 11 * seq + 60 * phase);
      });
  for (const CompletedRequest& request : completed) {
    trace += std::to_string(request.tenant) + "." + std::to_string(request.seq) + "@" +
             std::to_string(static_cast<uint64_t>(request.completion)) + " ";
  }
  const SchedulerStats& stats = scheduler.stats();
  trace += "| switches=" + std::to_string(stats.context_switches) +
           " preemptions=" + std::to_string(stats.preemptions) +
           " idle=" + std::to_string(stats.idle_jumps) +
           " busy=" + std::to_string(static_cast<uint64_t>(stats.busy_cycles)) +
           " clock=" + std::to_string(static_cast<uint64_t>(scheduler.clock()));
  for (uint16_t t = 0; t < 4; ++t) {
    trace += " t" + std::to_string(t) + "=" +
             std::to_string(static_cast<uint64_t>(scheduler.tenant_busy_cycles(t))) + "/" +
             std::to_string(scheduler.tenant_completed(t));
  }
  return trace;
}

TEST(SchedulerTest, GoldenCompletionOrder) {
  EXPECT_EQ(GoldenScheduleTrace(),
            "s0 s1 s2 s0 s3 s1 s0 s3 s2 s3 "
            "0.0@270 0.1@652 1.0@1610 1.1@2384 2.0@3356 2.1@3591 0.2@4003 3.1@4727 "
            "1.2@5682 0.3@5985 3.2@6508 3.0@6769 2.2@9672 3.3@60414 "
            "| switches=10 preemptions=2 idle=2 busy=6655 clock=60414 "
            "t0=1411/4 t1=1417/3 t2=1639/3 t3=2188/4");
}

}  // namespace
}  // namespace memsentry::sim
