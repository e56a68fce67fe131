// Admission edge cases of the cluster control plane's placement: a plane
// with no boards, a full cluster, capacity that scales with the boards,
// admitted streams fed by producers the caller spawns, and the least-loaded
// helper the plane places through.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "apps/client.hpp"
#include "cluster/control_plane.hpp"
#include "cluster/placement.hpp"

namespace nistream::cluster {
namespace {

using sim::Time;

constexpr dwcs::StreamParams kParams{
    .tolerance = {1, 4}, .period = Time::ms(33), .lossy = true};
// A 30 fps media stream.
constexpr dwcs::StreamParams kMedia{
    .tolerance = {2, 8}, .period = Time::ms(33.333), .lossy = true};

/// A plane of `boards` boards with its own engine, host and switch.
struct Rig {
  sim::Engine eng;
  hostos::HostMachine host{eng, 1};
  hw::EthernetSwitch ether{eng};
  ClusterControlPlane plane;

  explicit Rig(int boards) : plane{host, ether, {.boards = boards}} {}
};

TEST(ClusterAdmission, PickLeastLoadedBreaksTiesToTheLowestIndex) {
  const std::vector<double> loads{0.5, 0.2, 0.2, 0.7};
  const auto load = [&](int i) { return loads[static_cast<std::size_t>(i)]; };
  EXPECT_EQ(pick_least_loaded(4, load, [](int) { return true; }), 1);
  // Admissibility filters before load comparison.
  EXPECT_EQ(pick_least_loaded(4, load, [](int i) { return i != 1; }), 2);
  EXPECT_EQ(pick_least_loaded(4, load, [](int) { return false; }), -1);
  EXPECT_EQ(pick_least_loaded(0, load, [](int) { return true; }), -1);
}

TEST(ClusterAdmission, PlaneWithNoBoardsRefusesEveryStream) {
  Rig rig{0};
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(rig.plane.open_stream(kParams, 1000, /*client_port=*/0));
  }
  EXPECT_EQ(rig.plane.metrics().rejected_admission, 4u);
  EXPECT_EQ(rig.plane.streams_opened(), 0u);
}

TEST(ClusterAdmission, FullClusterSpillsInLoadOrderThenRejects) {
  // At a 33 ms period a stream costs 130us/33ms ~ 0.004 of a board's CPU;
  // at 1 ms it costs 0.13, so the CPU binds and 6 fit under the 0.90
  // headroom.
  dwcs::StreamParams tight = kParams;
  tight.period = Time::ms(1);
  Rig rig{2};

  std::vector<int> placement;
  for (int i = 0; i < 14; ++i) {
    const auto g = rig.plane.open_stream(tight, 1000, 0);
    if (!g) break;
    placement.push_back(rig.plane.registry().record(*g).where.board);
  }
  // 12 fit (6 per board), alternating least-loaded with ties going low;
  // the 13th request found every board full and was rejected.
  ASSERT_EQ(placement.size(), 12u);
  for (std::size_t i = 0; i < placement.size(); ++i) {
    EXPECT_EQ(placement[i], static_cast<int>(i % 2)) << "stream " << i;
  }
  EXPECT_EQ(rig.plane.metrics().rejected_admission, 1u);
  EXPECT_EQ(rig.plane.streams_opened(), 12u);
}

TEST(ClusterAdmission, CapacityScalesLinearlyWithBoards) {
  const auto capacity = [](int boards) {
    Rig rig{boards};
    std::uint64_t placed = 0;
    // Least-loaded placement: the first refusal means every board is full.
    while (rig.plane.open_stream(kMedia, 1000, 0)) ++placed;
    return placed;
  };
  const std::uint64_t one = capacity(1);
  EXPECT_EQ(one, 230u);  // the CPU binds: 130 us per frame at 30 fps
  EXPECT_EQ(capacity(2), 2 * one);
  EXPECT_EQ(capacity(4), 4 * one);
}

TEST(ClusterAdmission, CallerSpawnedProducersDeliverEveryFrame) {
  Rig rig{2};
  std::vector<std::unique_ptr<apps::MpegClient>> clients;
  std::vector<dwcs::StreamId> locals;
  std::deque<apps::ProducerStats> producers;
  for (int i = 0; i < 20; ++i) {
    clients.push_back(std::make_unique<apps::MpegClient>(rig.eng, rig.ether));
    const auto g = rig.plane.open_stream(kMedia, 1000, clients.back()->port());
    ASSERT_TRUE(g.has_value());
    const auto where = rig.plane.registry().record(*g).where;
    apps::NiSchedulerServer& ni = rig.plane.ni(where.board);
    apps::spawn_synthetic_producer(
        ni, ni.kernel().spawn("tProd", 120), where.local,
        {.mean_frame_bytes = 1000,
         .n_frames = 30,
         .period = kMedia.period,
         .seed = static_cast<std::uint64_t>(500 + i)},
        producers.emplace_back());
    locals.push_back(where.local);
  }
  EXPECT_EQ(rig.plane.admission(0).admitted(), 10u);
  EXPECT_EQ(rig.plane.admission(1).admitted(), 10u);
  rig.eng.run_until(Time::sec(3));
  for (std::size_t i = 0; i < clients.size(); ++i) {
    EXPECT_EQ(clients[i]->frames_received(locals[i]), 30u) << "stream " << i;
  }
}

}  // namespace
}  // namespace nistream::cluster
