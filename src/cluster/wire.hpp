// Checkpoint-shipping wire format: how a stream moves between boards.
//
// When a board dies, the control plane evacuates its streams to sibling NIs
// by shipping each one's dvcm::StreamCheckpoint over the NI-to-NI
// interconnect as a DVCM instruction (kAdoptStream). Shipping rides the
// *reliable* remote path (dvcm::ReliableRemoteVcmClient -> TcpLite ->
// dvcm::ReliableRemoteVcmPort), so an adoption arrives exactly once and in
// order even on a degraded segment — a lost checkpoint would strand a
// stream forever, which a lost media frame never does.
//
// Wire layout (modeled, not byte-serialized — the simulation charges the
// interconnect for kWireBytes and hands the struct across as the payload):
//
//   RemoteVcmPort header            24 B   (instruction id, w0, w1)
//   global stream id                 4 B
//   failover epoch                   8 B
//   source (incarnation, local id)   8+4 B
//   StreamParams {x, y, period}      8+8+8 B
//   lossy flag + pad                 4 B
//   client port                      4 B
//   frames_sent                      8 B
//   reuse_local (fail-back)          4 B
//   ------------------------------------
//   kWireBytes                      56 B body (+ 24 B header on the wire)
//
// The NI-side half is ClusterExtension: a DVCM extension whose kAdoptStream
// handler runs on the *adopting board's* CPU (the registry dispatch path
// charges handler cycles to the board), admits the stream into the local
// StreamService, and reports the assigned local id back to the control
// plane's shadow registry.
#pragma once

#include <cstdint>
#include <functional>

#include "dvcm/instruction.hpp"
#include "dvcm/runtime.hpp"
#include "dvcm/stream_service.hpp"

namespace nistream::cluster {

/// Cluster-wide stream identity, owned by the control plane's registry.
using GlobalStreamId = std::uint32_t;

/// Adoption instruction (extension range, above the heartbeat block).
inline constexpr dvcm::InstructionId kAdoptStream =
    dvcm::kExtensionBase + 0x500;

/// One stream's state in flight between boards.
struct ShippedCheckpoint {
  static constexpr std::uint32_t kWireBytes = 56;

  GlobalStreamId global = 0;
  /// Failover epoch the shipment belongs to; the control plane ignores
  /// arrivals from a superseded epoch (e.g. the adopting board itself died
  /// while the checkpoint was on the wire and the stream was re-routed).
  std::uint64_t epoch = 0;
  /// Incarnation of the residence being evacuated — the registry key half
  /// that distinguishes a rebooted board's streams from its previous life's.
  std::uint64_t source_incarnation = 0;
  dvcm::StreamCheckpoint body{};
  /// Fail-back: the home board's service still knows the stream under this
  /// local id (the entry survived in the scheduler); reuse it instead of
  /// minting a new one. kInvalidStream for first-time adoption.
  dwcs::StreamId reuse_local = dwcs::kInvalidStream;
};

/// NI-side half of checkpoint shipping. The control plane installs one per
/// board and points on_adopt at its registry-update path; the handler's
/// service work (create_stream and its heap operations) is charged to the
/// adopting board through the normal dispatch-task accounting.
class ClusterExtension final : public dvcm::ExtensionModule {
 public:
  /// (arriving checkpoint) -> adopted. Fired on the adopting board at the
  /// instant the instruction is dispatched there.
  using AdoptHandler = std::function<void(const ShippedCheckpoint&)>;

  explicit ClusterExtension(dvcm::StreamService& service)
      : service_{service} {}

  [[nodiscard]] const char* name() const override { return "cluster"; }

  void install(dvcm::VcmRuntime& runtime) override {
    runtime_ = &runtime;
    runtime.registry().add(kAdoptStream, [this](const hw::I2oMessage& m) {
      const auto sc = std::static_pointer_cast<ShippedCheckpoint>(m.payload);
      if (!sc) return;
      if (runtime_->board().health() != nullptr &&
          !runtime_->board().health()->alive()) {
        // Dead on arrival: the board cannot admit anything. The control
        // plane's trip handler re-routes in-flight streams; dropping here
        // (rather than adopting into a corpse) keeps the registry honest.
        return;
      }
      ++adopted_;
      if (on_adopt_) on_adopt_(*sc);
    });
  }

  void set_on_adopt(AdoptHandler h) { on_adopt_ = std::move(h); }

  [[nodiscard]] dvcm::StreamService& service() { return service_; }
  [[nodiscard]] std::uint64_t adopted() const { return adopted_; }

 private:
  dvcm::StreamService& service_;
  dvcm::VcmRuntime* runtime_ = nullptr;
  AdoptHandler on_adopt_;
  std::uint64_t adopted_ = 0;
};

}  // namespace nistream::cluster
