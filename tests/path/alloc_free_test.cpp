// Steady-state allocation audit for the frame datapath. After warm-up (pool
// free lists seeded, engine slab and scheduler vectors at peak capacity), a
// full producer-path traversal — disk read, segmentation, PCI DMA, scheduler
// enqueue, dispatch, network delivery — must hit the global heap ZERO times
// per frame. This binary replaces ::operator new with a counting shim to
// prove it end to end.
//
// Under ASan/TSan the sanitizer owns the allocator, so the shim is compiled
// out and the test falls back to the coroutine pool's own counters (the
// dominant per-frame allocation source the tentpole removed).
#include <gtest/gtest.h>

#include <cstdint>

#include "apps/client.hpp"
#include "apps/media_server.hpp"
#include "apps/producer.hpp"
#include "counting_new.hpp"
#include "path/paths.hpp"
#include "sim/coro.hpp"


namespace nistream::path {
namespace {

using sim::Time;

// Pump `total` frames through a full producer-path-B server; return the
// number of global heap allocations made after the first `warmup` frames
// (0 when the counting shim is compiled out). Also asserts the coroutine
// pool served the steady-state window without any fresh blocks.
std::uint64_t steady_state_heap_allocs(std::uint64_t warmup,
                                       std::uint64_t total) {
  sim::Engine eng;
  hw::PciBus bus{eng};
  hw::EthernetSwitch ether{eng};
  apps::NiSchedulerServer server{eng, bus, ether};
  apps::MpegClient client{eng, ether};
  const auto sid = server.service().create_stream(
      {.tolerance = {1, 4}, .period = Time::ms(5), .lossy = true},
      client.port());
  rtos::Task& task = server.kernel().spawn("tProd", 120);

  auto p = producer_path_b(eng, server.board().disk(0), task, bus,
                           server.service());
  PathStats stats;
  apps::detail::pump_owned(
      std::move(p),
      fixed_frame_source(total, mpeg::kPaperFrameBytes,
                         [](std::uint64_t seq) {
                           return seq * mpeg::kPaperFrameBytes;
                         },
                         sid, Provenance::kNiDisk),
      {}, stats)
      .detach();

  // Warm-up: run until every per-frame code path has executed and every
  // growable structure (engine slab, heap vector, scheduler rings, pool
  // free lists) has reached steady-state capacity.
  while (stats.frames_produced < warmup) {
    EXPECT_LT(eng.now(), Time::sec(30)) << "warm-up stalled";
    eng.run_until(eng.now() + Time::ms(20));
  }

  const auto coro_before = sim::coro_pool_stats();
  const std::uint64_t heap_before = test::heap_allocs();
  test::trace_next_allocs(8);

  while (!stats.finished) {
    EXPECT_LT(eng.now(), Time::sec(120)) << "drain stalled";
    eng.run_until(eng.now() + Time::ms(20));
  }
  eng.run_until(eng.now() + Time::sec(1));  // deliver the tail

  const auto coro_after = sim::coro_pool_stats();
  EXPECT_EQ(stats.frames_produced, total);

  // The coroutine pool served every steady-state frame without new blocks.
  EXPECT_GT(coro_after.frames, coro_before.frames);
  EXPECT_EQ(coro_after.fresh_blocks, coro_before.fresh_blocks);
  EXPECT_EQ(coro_after.oversize_blocks, coro_before.oversize_blocks);
  EXPECT_GT(client.frames_received(sid), warmup);
  return test::heap_allocs() - heap_before;
}

TEST(AllocFree, SteadyStateFrameMachineryNeverAllocates) {
  // The per-frame machinery — coroutine frames, engine event slots, packet
  // boxes, dispatch batches, scheduler rings — must be allocation-free in
  // steady state, and so must the measurement state: the stream service
  // stores nothing per frame, and the meters hold a fixed ring of byte sums
  // or one busy sum per sample. What remains is geometric capacity growth of
  // the client's bandwidth series (one point per 500 ms sample) and of the
  // CPU meter's busy sums. These runs measure 3 and 5; the second may make
  // 2 more doublings for twice the steady window.
  const std::uint64_t short_run = steady_state_heap_allocs(60, 260);
  const std::uint64_t long_run = steady_state_heap_allocs(60, 460);

#if NISTREAM_COUNTING_NEW
  EXPECT_LE(short_run, 12u) << "per-frame heap traffic has crept back in";
  EXPECT_LE(long_run, short_run + 2)
      << "heap allocations scale with frames pumped: " << short_run
      << " for 200 steady frames vs " << long_run << " for 400";
#else
  (void)short_run;
  (void)long_run;
#endif
}

}  // namespace
}  // namespace nistream::path
