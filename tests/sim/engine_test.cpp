// Unit tests for the discrete-event engine: ordering, tie-breaking,
// cancellation, run_until semantics, reserved tickets and determinism.
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

namespace nistream::sim {
namespace {

/// An event capture member that cancels `victim` when it is destroyed.
struct CancelOnDestroy {
  EventHandle* victim;
  explicit CancelOnDestroy(EventHandle* v) : victim{v} {}
  CancelOnDestroy(CancelOnDestroy&& o) noexcept
      : victim{std::exchange(o.victim, nullptr)} {}
  CancelOnDestroy(const CancelOnDestroy&) = delete;
  CancelOnDestroy& operator=(const CancelOnDestroy&) = delete;
  CancelOnDestroy& operator=(CancelOnDestroy&&) = delete;
  ~CancelOnDestroy() {
    if (victim != nullptr) victim->cancel();
  }
};

TEST(Time, Constructors) {
  EXPECT_EQ(Time::us(1).raw_ns(), 1000);
  EXPECT_EQ(Time::ms(1).raw_ns(), 1000000);
  EXPECT_EQ(Time::sec(1).raw_ns(), 1000000000);
  EXPECT_EQ(Time::ns(7).raw_ns(), 7);
  EXPECT_EQ(Time::zero().raw_ns(), 0);
}

TEST(Time, CycleConversionRoundsToNearest) {
  // 1 cycle at 66 MHz = 15.1515... ns -> 15 ns.
  EXPECT_EQ(Time::cycles(1, 66e6).raw_ns(), 15);
  // 66e6 cycles at 66 MHz = exactly 1 s.
  EXPECT_EQ(Time::cycles(66'000'000, 66e6).raw_ns(), 1'000'000'000);
  // 2 cycles at 66 MHz = 30.30 ns -> 30 ns.
  EXPECT_EQ(Time::cycles(2, 66e6).raw_ns(), 30);
}

TEST(Time, Arithmetic) {
  const Time a = Time::us(10), b = Time::us(4);
  EXPECT_EQ((a + b).to_us(), 14.0);
  EXPECT_EQ((a - b).to_us(), 6.0);
  EXPECT_EQ((a * 3).to_us(), 30.0);
  EXPECT_DOUBLE_EQ(a / b, 2.5);
  EXPECT_LT(b, a);
  EXPECT_EQ(a, Time::us(10));
}

TEST(Engine, ExecutesInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(Time::us(30), [&] { order.push_back(3); });
  eng.schedule_at(Time::us(10), [&] { order.push_back(1); });
  eng.schedule_at(Time::us(20), [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), Time::us(30));
}

TEST(Engine, SameInstantIsFifo) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    eng.schedule_at(Time::us(5), [&order, i] { order.push_back(i); });
  }
  eng.run();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, ScheduleInIsRelative) {
  Engine eng;
  Time fired = Time::never();
  eng.schedule_at(Time::us(10), [&] {
    eng.schedule_in(Time::us(5), [&] { fired = eng.now(); });
  });
  eng.run();
  EXPECT_EQ(fired, Time::us(15));
}

TEST(Engine, SchedulingInThePastThrows) {
  Engine eng;
  eng.schedule_at(Time::us(10), [] {});
  eng.run();
  EXPECT_THROW(eng.schedule_at(Time::us(5), [] {}), std::logic_error);
}

TEST(Engine, CancelPreventsExecution) {
  Engine eng;
  bool fired = false;
  auto h = eng.schedule_at(Time::us(10), [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  eng.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelFreesTheSlotAtOnce) {
  Engine eng;
  bool fired = false;
  EventHandle h = eng.schedule_at(Time::us(10), [&] { fired = true; });
  eng.schedule_at(Time::us(20), [] {});
  eng.schedule_at(Time::us(30), [] {});
  EXPECT_EQ(eng.pending_events(), 3u);
  h.cancel();
  EXPECT_EQ(eng.pending_events(), 2u);  // gone now, not at its deadline
  h.cancel();                           // a second cancel is a no-op
  EXPECT_EQ(eng.pending_events(), 2u);
  eng.schedule_at(Time::us(40), [] {});
  EXPECT_EQ(eng.slab_size(), 3u);  // the new event took the freed slot
  eng.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(eng.events_executed(), 3u);
  EXPECT_EQ(eng.now(), Time::us(40));
}

TEST(Engine, CancelFromACapturesDestructorFreesBothSlots) {
  // a's capture cancels b, and a itself, as it is destroyed.
  Engine eng;
  std::vector<int> order;
  EventHandle a;
  EventHandle b = eng.schedule_at(Time::us(20), [&] { order.push_back(2); });
  eng.schedule_at(Time::us(30), [&] { order.push_back(3); });
  a = eng.schedule_at(Time::us(10),
                      [&order, cb = CancelOnDestroy{&b},
                       ca = CancelOnDestroy{&a}] { order.push_back(1); });
  ASSERT_EQ(eng.pending_events(), 3u);
  a.cancel();
  EXPECT_EQ(eng.pending_events(), 1u);
  EXPECT_FALSE(a.pending());
  EXPECT_FALSE(b.pending());
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{3}));
}

TEST(Engine, FiredEventsCaptureMayCancelAnother) {
  // The capture outlives the call and dies after it, cancelling b.
  Engine eng;
  std::vector<int> order;
  EventHandle b = eng.schedule_at(Time::us(20), [&] { order.push_back(2); });
  eng.schedule_at(Time::us(30), [&] { order.push_back(3); });
  eng.schedule_at(Time::us(10), [&order, cb = CancelOnDestroy{&b}] {
    order.push_back(1);
  });
  EXPECT_TRUE(eng.step());
  EXPECT_EQ(eng.pending_events(), 1u);
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(Engine, DestroyedWithCancellingCapturesStaysSafe) {
  // Each capture cancels the next event as ~Engine destroys it; those
  // cancels find nothing to do. Under ASan nothing touches freed memory.
  std::vector<EventHandle> handles(4);
  {
    Engine eng;
    for (std::size_t i = 0; i < handles.size(); ++i) {
      handles[i] = eng.schedule_at(
          Time::us(static_cast<double>(i + 1)),
          [next = CancelOnDestroy{&handles[(i + 1) % handles.size()]}] {});
    }
    EXPECT_EQ(eng.pending_events(), handles.size());
  }
}

TEST(Engine, CancelAfterFireIsNoop) {
  Engine eng;
  int count = 0;
  auto h = eng.schedule_at(Time::us(1), [&] { ++count; });
  eng.run();
  h.cancel();
  EXPECT_EQ(count, 1);
  EXPECT_FALSE(h.pending());
}

TEST(Engine, RunUntilStopsAtDeadlineInclusive) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(Time::us(10), [&] { order.push_back(1); });
  eng.schedule_at(Time::us(20), [&] { order.push_back(2); });
  eng.schedule_at(Time::us(30), [&] { order.push_back(3); });
  eng.run_until(Time::us(20));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(eng.now(), Time::us(20));
  eng.run();
  EXPECT_EQ(order.size(), 3u);
}

TEST(Engine, RunUntilAdvancesClockPastEmptyQueue) {
  Engine eng;
  eng.run_until(Time::ms(5));
  EXPECT_EQ(eng.now(), Time::ms(5));
}

TEST(Engine, EventsScheduledDuringRunExecute) {
  Engine eng;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) eng.schedule_in(Time::us(1), chain);
  };
  eng.schedule_at(Time::zero(), chain);
  eng.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(eng.now(), Time::us(99));
  EXPECT_EQ(eng.events_executed(), 100u);
}

TEST(Engine, StepExecutesExactlyOne) {
  Engine eng;
  int count = 0;
  eng.schedule_at(Time::us(1), [&] { ++count; });
  eng.schedule_at(Time::us(2), [&] { ++count; });
  EXPECT_TRUE(eng.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(eng.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(eng.step());
}

TEST(Engine, TicketHandedOverMidRunKeepsItsSameInstantPlace) {
  // The ticket is taken before the direct event at 10 us is scheduled, so
  // the ticketed event runs first at 10 us even though it reaches the engine
  // later, from inside the event at 5 us.
  Engine eng;
  std::vector<int> order;
  const Ticket ticket = eng.reserve_ticket();
  eng.schedule_at(Time::us(10), [&] { order.push_back(2); });
  eng.schedule_at(Time::us(5), [&] {
    eng.schedule_at(Time::us(10), ticket, [&] { order.push_back(1); });
  });
  EXPECT_EQ(eng.pending_events(), 2u);  // a held ticket is not queued yet
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(eng.events_executed(), 3u);
}

TEST(Engine, TicketedEventInThePastThrows) {
  Engine eng;
  const Ticket ticket = eng.reserve_ticket();
  eng.schedule_at(Time::us(10), [] {});
  eng.run();
  EXPECT_THROW(eng.schedule_at(Time::us(5), ticket, [] {}), std::logic_error);
}

// Property: events scheduled through reserve_ticket() and handed over later
// (here all at once, in reverse order) run in exactly the order direct
// scheduling at reservation time gives, dense same-instant ties included.
TEST(EngineProperty, TicketsMatchDirectScheduling) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    std::uint64_t lcg = seed * 2654435761u;
    const auto rnd = [&lcg](std::uint64_t n) {
      lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      return (lcg >> 33) % n;
    };
    constexpr std::size_t kEvents = 400;
    std::vector<Time> at;
    std::vector<bool> held;
    for (std::size_t i = 0; i < kEvents; ++i) {
      at.push_back(Time::us(static_cast<double>(rnd(10))));  // dense ties
      held.push_back(rnd(2) == 0);
    }
    const auto run = [&](bool use_tickets) {
      struct Held {
        Time at;
        Ticket ticket;
        std::size_t i;
      };
      Engine eng;
      std::vector<std::size_t> fired;
      std::vector<Held> later;
      for (std::size_t i = 0; i < kEvents; ++i) {
        if (use_tickets && held[i]) {
          later.push_back(Held{at[i], eng.reserve_ticket(), i});
        } else {
          eng.schedule_at(at[i], [&fired, i] { fired.push_back(i); });
        }
      }
      for (auto it = later.rbegin(); it != later.rend(); ++it) {
        eng.schedule_at(it->at, it->ticket,
                        [&fired, i = it->i] { fired.push_back(i); });
      }
      eng.run();
      return fired;
    };
    const auto direct = run(false);
    ASSERT_EQ(direct.size(), kEvents);
    EXPECT_EQ(run(true), direct) << "seed " << seed;
  }
}

// Property: against a brute-force reference model, random schedule/cancel
// sequences execute exactly the non-cancelled events in (time, insertion)
// order. Events are cancelled both before the run and by other events while
// it runs, so cancelled entries leave the heap from every position.
TEST(EngineProperty, MatchesReferenceModel) {
  struct Ref {
    std::int64_t at_us;
    std::uint64_t seq;
    bool cancelled = false;
    std::size_t victim = 0;  // the event this one cancels when it fires
    bool cancels = false;
  };
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Engine eng;
    std::vector<Ref> ref;
    std::vector<EventHandle> handles;
    std::vector<std::uint64_t> fired;
    std::uint64_t lcg = seed * 2654435761u;
    const auto rnd = [&lcg](std::uint64_t n) {
      lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      return (lcg >> 33) % n;
    };
    constexpr std::uint64_t kEvents = 500;
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      const auto at = static_cast<std::int64_t>(rnd(1000));
      Ref r{at, i};
      r.cancels = rnd(3) == 0;
      r.victim = rnd(kEvents);  // may be itself, or an event already fired
      ref.push_back(r);
      handles.push_back(eng.schedule_at(
          Time::us(static_cast<double>(at)),
          [&fired, &handles, i, victim = r.victim, cancels = r.cancels] {
            fired.push_back(i);
            if (cancels) handles[victim].cancel();
          }));
      if (rnd(5) == 0) {
        const auto victim = rnd(handles.size());
        handles[victim].cancel();
        ref[victim].cancelled = true;
      }
    }
    eng.run();
    std::vector<std::size_t> order(ref.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&ref](std::size_t a, std::size_t b) {
                       if (ref[a].at_us != ref[b].at_us) {
                         return ref[a].at_us < ref[b].at_us;
                       }
                       return ref[a].seq < ref[b].seq;
                     });
    std::vector<std::uint64_t> expect;
    for (const std::size_t i : order) {
      if (ref[i].cancelled) continue;
      expect.push_back(ref[i].seq);
      if (ref[i].cancels) ref[ref[i].victim].cancelled = true;
    }
    ASSERT_EQ(fired, expect) << "seed " << seed;
    EXPECT_EQ(eng.pending_events(), 0u);
  }
}

}  // namespace
}  // namespace nistream::sim
