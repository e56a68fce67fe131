// TcpLite: board-resident reliable transport.
//
// The paper (§1): "host-to-host communications are supported by I2O
// board-resident protocols (like TCP and UDP)". UDP is udp.hpp; this is the
// reliable sibling — a compact go-back-N transport with cumulative ACKs and
// a retransmission timer, enough to move control traffic and loss-intolerant
// streams over a lossy segment (a fault::LinkFaultInjector on the switch,
// see hw::EthernetSwitch::set_fault) with exactly-once, in-order delivery.
// A frame that lands with a bad CRC (EthFrame::corrupted) is dropped before
// the stack, as UDP drops it, so a corrupted segment or ACK is recovered
// from as a lost one is.
//
// Scope deliberately matches what an embedded NI stack of the era shipped:
// fixed window, cumulative ACK per received segment, go-back-N retransmit on
// timeout. No congestion control, no SACK. The retransmission timer is the
// BSD one those stacks derived from, as RFC 6298 specifies it: an RTO
// estimated from round-trip samples (Karn's rule: never from a segment that
// was sent twice), 1 s before the first sample, doubled on every timeout up
// to 60 s. A fixed timer shorter than the queueing delay of a busy port fires
// for segments that are only waiting, and every resend deepens the queue;
// docs/session_plane.md shows what that did to a 100k-client SETUP storm.
// What the RTSP session plane forced onto that base:
//
//  * Per-peer sequence spaces. The original receiver kept ONE next-expected
//    counter for every sender that addressed it, so a second client talking
//    to the same control port aliased the first one's sequence numbers and
//    both stalled (each saw the other's segments as "out of order"). A
//    receiver now demuxes on the sending port — one in-order space per peer,
//    which is what a per-connection transport means.
//  * FIN teardown. A sender's close() queues a FIN that consumes a sequence
//    number and is retransmitted like data; the receiver delivers it in
//    order, marks the peer closed, and re-ACKs retransmitted FINs without
//    re-firing the close callback. Because each direction is a separate
//    sender/receiver pair, one side can close while the other keeps
//    flowing — the half-open states the session reaper exists for.
//  * Owner-safe teardown. The front door destroys a connection's response
//    sender when the client FINs. An endpoint's destructor cancels its timer
//    and detaches its switch port, and every event it left pending checks
//    that port before touching the endpoint, so nothing runs on freed memory.
//  * Recycled ports. The switch hands a detached port to the next device, so
//    a receiver keys its peers by port index and remembers which occupant
//    (port address) each sequence space belongs to. A segment from a newer
//    occupant starts a fresh sequence space. Its old occupant's segments all
//    landed first, because a downlink delivers in send order. The peer table
//    is bounded by ports, not by connections ever made.
//  * Borrowed ports. An endpoint either attaches a port of its own or binds
//    one that its owner attached and keeps (hw::EthernetSwitch::rebind). A
//    borrowing endpoint parks the port on a no-op receiver when it dies, so
//    the address outlives it. Its pending events check only that the port
//    is attached, so the owner may destroy it early only once none is
//    pending: a receiver is idle() when no segment waits out its stack
//    cost, and a sender says when its close is complete.
//  * The close listener. close() takes a one-word listener, told once, as
//    the sender's last act, when the FIN is acknowledged and every
//    transmission the sender scheduled has had its ACK processed. Each
//    transmission is counted when transmit() schedules it, first send or
//    go-back-N resend, not when it reaches the wire, and the peer ACKs each
//    segment it processes exactly once. So a resent FIN keeps the sender
//    until its duplicate ACK lands, and nothing of the sender is pending
//    when it is told: the listener may destroy it. A storm client frees
//    its endpoints so (session/client.hpp).
//
// Peer storage follows the two shapes a receiver takes. Most receivers hear
// one peer (a client's response receiver hears the front door's sender for
// its connection), so the first peer to speak gets a slot inside the
// receiver. A service port hears many: every later peer gets the entry of
// its port index in a vector, grown in one step to the switch's port table
// whenever an index past its end speaks. Neither allocates per peer, and
// nothing iterates the peers, so the layout cannot move an output. That
// vector and the peer-close callback live in a side block that a receiver
// allocates only when it needs one of them, so a client's receiver is 104
// bytes and a storm's 100k of them carry no service-port state.
//
// A sender is 160 bytes: the RTT estimator marks "no sample yet" with a
// negative variance instead of a flag of its own, the retransmission count
// is 32 bits, and the window, the give-up bound and the timeout rounds are
// 16, 8 and 8 bits beside the flags.
//
// Nothing allocates per segment: an ACK carries its number in EthFrame::tag
// and points at one shared immutable ACK segment, and a data or FIN segment
// is a packet box from net::detail::PacketBoxPool, recycled once it is
// acknowledged and its last transmission has landed.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "hw/ethernet.hpp"
#include "net/udp.hpp"
#include "sim/engine.hpp"
#include "sim/fifo.hpp"

namespace nistream::net {

/// Wire format shared by both ends. A sender builds one segment per sequence
/// number and every (re)transmission of it carries that same immutable body.
/// An ACK's number (the next sequence expected) rides in EthFrame::tag, so
/// every ACK shares one body.
struct TcpLiteSegment {
  bool is_ack = false;
  bool is_fin = false;        // connection close; consumes a sequence number
  std::uint64_t seq = 0;      // data/fin: segment sequence
  Packet payload{};           // data segments only
};

namespace detail {

/// The body of every ACK. It has no owner (an aliasing shared_ptr with no
/// control block), so copying it neither allocates nor counts references.
inline const std::shared_ptr<const void>& ack_body() {
  static const TcpLiteSegment kAck{.is_ack = true};
  static const std::shared_ptr<const void> body{std::shared_ptr<const void>{},
                                                &kAck};
  return body;
}

}  // namespace detail

class TcpLiteReceiver {
 public:
  using Deliver = std::function<void(const Packet&, sim::Time at)>;
  /// Peer-aware delivery: `peer_port` is the sending TcpLiteSender's port
  /// address — the connection identity a multi-client service (the RTSP
  /// front door) keys its per-connection state on.
  using DeliverFrom =
      std::function<void(const Packet&, int peer_port, sim::Time at)>;
  using PeerClose = std::function<void(int peer_port, sim::Time at)>;

  TcpLiteReceiver(sim::Engine& engine, hw::EthernetSwitch& ether,
                  sim::Time stack_cost, Deliver deliver)
      : TcpLiteReceiver{engine, ether, stack_cost,
                        deliver ? DeliverFrom{[d = std::move(deliver)](
                                                  const Packet& p, int,
                                                  sim::Time at) { d(p, at); }}
                                : DeliverFrom{}} {}

  /// On a port of its own. `engine` must be the switch's own; the receiver
  /// reaches it through the switch.
  TcpLiteReceiver([[maybe_unused]] sim::Engine& engine,
                  hw::EthernetSwitch& ether, sim::Time stack_cost,
                  DeliverFrom deliver)
      : ether_{ether}, stack_cost_{stack_cost}, deliver_{std::move(deliver)},
        owns_port_{true} {
    assert(&engine == &ether.engine());
    port_ = ether.add_port([this](const hw::EthFrame& f) { on_frame(f); });
  }

  /// On `port`, which the caller attached and keeps: the receiver binds it
  /// and parks it again when it dies (see the header comment).
  TcpLiteReceiver(hw::EthernetSwitch& ether, int port, sim::Time stack_cost,
                  DeliverFrom deliver)
      : ether_{ether}, stack_cost_{stack_cost}, deliver_{std::move(deliver)},
        port_{port}, owns_port_{false} {
    ether.rebind(port, [this](const hw::EthFrame& f) { on_frame(f); });
  }

  TcpLiteReceiver(const TcpLiteReceiver&) = delete;
  TcpLiteReceiver& operator=(const TcpLiteReceiver&) = delete;
  ~TcpLiteReceiver() {
    if (owns_port_) {
      ether_.detach(port_);
    } else {
      ether_.rebind(port_, &hw::EthernetSwitch::parked);
    }
  }

  /// Fires once per peer, when its FIN is delivered in order.
  void set_on_peer_close(PeerClose cb) {
    side().on_peer_close = std::move(cb);
  }

  [[nodiscard]] int port() const { return port_; }
  [[nodiscard]] hw::EthernetSwitch& ether() const { return ether_; }
  /// Total in-order data deliveries across all peers (FINs not counted).
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t discarded_out_of_order() const {
    return discarded_;
  }
  /// Port indices that have had a sequence space here: one per index,
  /// whichever occupant of the port spoke last.
  [[nodiscard]] std::size_t peer_count() const { return peer_count_; }
  [[nodiscard]] std::uint64_t peers_closed() const { return peers_closed_; }
  /// True while no segment that landed waits out its stack cost: the owner
  /// of a borrowed port may then destroy the receiver and keep the port.
  [[nodiscard]] bool idle() const { return landed_ == 0; }
  [[nodiscard]] bool peer_closed(int peer_port) const {
    const Peer* peer = find(hw::EthernetSwitch::index_of(peer_port));
    return peer != nullptr && peer->port == peer_port && peer->closed;
  }

 private:
  static constexpr std::uint32_t kAckBytes = 40;

  struct Peer {
    std::uint64_t next_expected = 0;
    int port = -1;  // the occupant this sequence space belongs to; -1: none
    bool closed = false;
  };

  /// What only a service port needs: every peer after the first, by port
  /// index, and the peer-close callback.
  struct Side {
    std::vector<Peer> peers;
    PeerClose on_peer_close;
  };

  Side& side() {
    if (!side_) side_ = std::make_unique<Side>();
    return *side_;
  }

  /// The sequence space of port index `i`, or nullptr if it never spoke.
  [[nodiscard]] const Peer* find(std::uint32_t i) const {
    if (first_.port >= 0 && hw::EthernetSwitch::index_of(first_.port) == i) {
      return &first_;
    }
    if (!side_ || i >= side_->peers.size()) return nullptr;
    const Peer& peer = side_->peers[i];
    return peer.port >= 0 ? &peer : nullptr;
  }

  /// The sequence space of the occupant at `port`, made on first use: the
  /// inline slot for the first index to speak, the index's vector entry for
  /// any other. A newer occupant of a port starts a fresh space.
  Peer& peer_for(int port) {
    const std::uint32_t i = hw::EthernetSwitch::index_of(port);
    Peer* peer = &first_;
    if (first_.port >= 0 && hw::EthernetSwitch::index_of(first_.port) != i) {
      std::vector<Peer>& peers = side().peers;
      if (i >= peers.size()) peers.resize(ether_.port_table_size());
      peer = &peers[i];
    }
    if (peer->port != port) {
      if (peer->port < 0) ++peer_count_;
      *peer = Peer{.port = port};
    }
    return *peer;
  }

 public:
  /// A frame that landed on the port: the port's receiver. Public for an
  /// owner that builds the receiver when the first frame lands and hands it
  /// that frame from inside its delivery (session/client.hpp).
  void on_frame(const hw::EthFrame& f) {
    if (f.corrupted) return;  // bad CRC: never ACKed, so the sender resends
    auto seg = std::static_pointer_cast<const TcpLiteSegment>(f.payload);
    if (!seg || seg->is_ack) return;
    const int reply_to = f.src_port;
    ++landed_;
    detail::schedule_while_attached(ether_.engine(), ether_, port_,
                                    stack_cost_, [this, seg, reply_to] {
      --landed_;
      Peer& peer = peer_for(reply_to);
      if (seg->seq == peer.next_expected && !peer.closed) {
        ++peer.next_expected;
        const sim::Time now = ether_.engine().now();
        if (seg->is_fin) {
          peer.closed = true;
          ++peers_closed_;
          if (side_ && side_->on_peer_close) {
            side_->on_peer_close(reply_to, now);
          }
        } else {
          ++delivered_;
          if (deliver_) deliver_(seg->payload, reply_to, now);
        }
      } else if (seg->seq >= peer.next_expected) {
        // Go-back-N: out-of-order segments are not buffered. This covers the
        // FIN-before-data race too — a FIN arriving ahead of missing data is
        // discarded, NOT acted on, and the close happens only when the
        // retransmitted prefix delivers it in order.
        ++discarded_;
      }  // duplicates below next_expected (incl. a retransmitted FIN after
         // close) are silently re-ACKed
      ether_.send(port_, reply_to,
                  hw::EthFrame{.bytes = kAckBytes,
                               .tag = peer.next_expected,
                               .payload = detail::ack_body()});
    });
  }

 private:
  hw::EthernetSwitch& ether_;
  sim::Time stack_cost_;
  DeliverFrom deliver_;
  int port_ = -1;
  std::uint32_t peer_count_ = 0;
  Peer first_;                  // the first port index to speak
  std::unique_ptr<Side> side_;  // made on first need
  std::uint64_t delivered_ = 0;
  std::uint32_t discarded_ = 0;
  std::uint32_t peers_closed_ = 0;
  std::uint32_t landed_ = 0;  // segments waiting out their stack cost
  bool owns_port_;
};

/// RFC 6298 §2 round-trip estimator in integer ns: alpha = 1/8, beta = 1/4,
/// K = 4. Before the first sample the RTO is §2.1's 1 s. The floor is 20 ms
/// rather than §2.4's 1 s: a round trip on the switched LAN takes about a
/// millisecond, so a segment lost on an idle link should cost tens of
/// milliseconds, not a second.
class RttEstimator {
 public:
  static constexpr sim::Time kInitialRto = sim::Time::sec(1);
  static constexpr sim::Time kMinRto = sim::Time::ms(20);
  /// §2.5's ceiling, which also caps the exponential backoff.
  static constexpr sim::Time kMaxRto = sim::Time::sec(60);

  /// Fold in one round-trip measurement R (§2.2, §2.3).
  void sample(sim::Time r) {
    const std::int64_t rn = r.raw_ns();
    if (!has_sample()) {
      srtt_ns_ = rn;
      rttvar_ns_ = rn / 2;
      return;
    }
    rttvar_ns_ = (3 * rttvar_ns_ + std::abs(srtt_ns_ - rn)) / 4;
    srtt_ns_ = (7 * srtt_ns_ + rn) / 8;
  }

  /// The timeout before any backoff: SRTT + 4 RTTVAR, within the bounds.
  [[nodiscard]] sim::Time rto() const {
    if (!has_sample()) return kInitialRto;
    return std::clamp(sim::Time::ns(srtt_ns_ + 4 * rttvar_ns_), kMinRto,
                      kMaxRto);
  }
  /// A round trip is never negative, so neither is RTTVAR after a sample.
  [[nodiscard]] bool has_sample() const { return rttvar_ns_ >= 0; }
  [[nodiscard]] sim::Time srtt() const { return sim::Time::ns(srtt_ns_); }
  [[nodiscard]] sim::Time rttvar() const {
    return sim::Time::ns(std::max<std::int64_t>(rttvar_ns_, 0));
  }

 private:
  std::int64_t srtt_ns_ = 0;
  std::int64_t rttvar_ns_ = -1;  // negative until the first sample
};

struct TcpLiteSenderParams {
  std::uint32_t window = 8;  // segments in flight, 1 to 65,535
  /// Consecutive timeout rounds without ACK progress before the sender
  /// gives up (drops its queue and stops its timer). 0 = retry forever,
  /// the historical behavior; services talking to clients that may vanish
  /// mid-connection set a bound so a dead peer cannot pin a timer forever.
  /// With the backoff from the 1 s initial RTO, a bound of 8 resends at 1, 3,
  /// 7, ..., 183 s and gives up at the ninth timeout, 243 s. At most 254.
  unsigned max_retx_rounds = 0;
};

class TcpLiteSender {
 public:
  using Params = TcpLiteSenderParams;

  /// What close() tells, once, when the sender has nothing left to do (see
  /// close()). The sender keeps a pointer to it: one word.
  class CloseListener {
   public:
    virtual void on_closed() = 0;

   protected:
    ~CloseListener() = default;
  };

  /// On a port of its own. `engine` must be the switch's own; the sender
  /// reaches it through the switch.
  TcpLiteSender([[maybe_unused]] sim::Engine& engine,
                hw::EthernetSwitch& ether, sim::Time stack_cost, int dst_port,
                Params params = Params{})
      : TcpLiteSender{ether, stack_cost, dst_port, params, true} {
    assert(&engine == &ether.engine());
    port_ = ether.add_port([this](const hw::EthFrame& f) { on_frame(f); });
  }

  /// On `port`, which the caller attached and keeps: the sender binds it
  /// and parks it again when it dies (see the header comment).
  TcpLiteSender(hw::EthernetSwitch& ether, int port, sim::Time stack_cost,
                int dst_port, Params params = Params{})
      : TcpLiteSender{ether, stack_cost, dst_port, params, false} {
    port_ = port;
    ether.rebind(port, [this](const hw::EthFrame& f) { on_frame(f); });
  }

  TcpLiteSender(const TcpLiteSender&) = delete;
  TcpLiteSender& operator=(const TcpLiteSender&) = delete;
  ~TcpLiteSender() {
    timer_.cancel();
    if (owns_port_) {
      ether_.detach(port_);
    } else {
      ether_.rebind(port_, &hw::EthernetSwitch::parked);
    }
  }

  [[nodiscard]] int port() const { return port_; }

  /// Queue a packet for reliable delivery. Returns its assigned sequence.
  /// Not legal after close() — the FIN already holds the last sequence.
  std::uint64_t send(Packet p) {
    assert(!closing_ && "TcpLiteSender::send after close()");
    const std::uint64_t seq = next_seq_++;
    queue_.push_back(
        make_segment(TcpLiteSegment{.seq = seq, .payload = std::move(p)}));
    pump();
    return seq;
  }

  /// Queue the FIN. Idempotent; returns false if already closing.
  /// `listener`, if given, is told once that the close is complete: the FIN
  /// is acknowledged, and every transmission the sender scheduled, first
  /// send or go-back-N resend, has had its ACK processed. No event of the
  /// sender is pending then, and telling is the sender's last act, so the
  /// listener may destroy it. A close that aborts, or a transmission whose
  /// ACK never comes back, never tells.
  bool close(CloseListener* listener = nullptr) {
    if (closing_) return false;
    closing_ = true;
    listener_ = listener;
    queue_.push_back(
        make_segment(TcpLiteSegment{.is_fin = true, .seq = next_seq_++}));
    pump();
    return true;
  }

  [[nodiscard]] std::uint64_t acked() const { return base_; }
  [[nodiscard]] std::uint64_t retransmissions() const { return retransmissions_; }
  [[nodiscard]] bool idle() const { return queue_.empty(); }
  [[nodiscard]] bool closing() const { return closing_; }
  /// True once the peer acknowledged the FIN (clean close complete).
  [[nodiscard]] bool fin_acked() const {
    return closing_ && !aborted_ && queue_.empty();
  }
  /// True once max_retx_rounds expired and the sender abandoned the
  /// connection (queued segments dropped, timer stopped).
  [[nodiscard]] bool aborted() const { return aborted_; }
  /// The timeout the next armed timer gets: the estimator's RTO, doubled
  /// for every timeout since the last ACK progress (capped).
  [[nodiscard]] sim::Time rto() const { return rto_; }
  [[nodiscard]] const RttEstimator& rtt() const { return rtt_; }

 private:
  using Segment = std::shared_ptr<const TcpLiteSegment>;

  static constexpr std::uint32_t kFinBytes = 40;

  /// Everything but the port.
  TcpLiteSender(hw::EthernetSwitch& ether, sim::Time stack_cost, int dst_port,
                Params params, bool owns_port)
      : ether_{ether}, stack_cost_{stack_cost}, dst_port_{dst_port},
        window_{static_cast<std::uint16_t>(params.window)},
        max_retx_rounds_{static_cast<std::uint8_t>(params.max_retx_rounds)},
        owns_port_{owns_port} {
    assert(params.window >= 1 && params.window <= UINT16_MAX);
    assert(params.max_retx_rounds < UINT8_MAX);  // retx_rounds_ reaches it + 1
  }

  /// A segment and its control block, in one pooled packet box.
  static Segment make_segment(TcpLiteSegment seg) {
    return std::allocate_shared<TcpLiteSegment>(
        detail::PacketBoxAllocator<TcpLiteSegment>{}, std::move(seg));
  }

  void pump() {
    if (aborted_) return;
    // Transmit every queued segment inside the window.
    for (const Segment& seg : queue_) {
      if (seg->seq >= base_ + window_) break;
      if (seg->seq < inflight_hi_) continue;  // already on the wire
      if (!timing_) {  // time one first transmission at a time
        timing_ = true;
        timed_seq_ = seg->seq;
        timed_at_ = ether_.engine().now();
      }
      transmit(seg);
      inflight_hi_ = seg->seq + 1;
    }
    arm_timer();
  }

  /// Schedule one transmission of `seg`. It is counted now, not when it
  /// reaches the wire, so a close cannot complete while it waits.
  void transmit(const Segment& seg) {
    ++unanswered_;
    detail::schedule_while_attached(ether_.engine(), ether_, port_,
                                    stack_cost_, [this, seg] {
      const std::uint32_t bytes =
          seg->is_fin ? kFinBytes
                      : seg->payload.bytes + UdpEndpoint::kUdpIpHeaderBytes + 12;
      ether_.send(port_, dst_port_,
                  hw::EthFrame{.bytes = bytes, .tag = seg->seq,
                               .payload = seg});
    });
  }

  void on_frame(const hw::EthFrame& f) {
    if (f.corrupted) return;  // bad CRC: a later ACK covers it, or a resend
    const auto* seg = static_cast<const TcpLiteSegment*>(f.payload.get());
    if (seg == nullptr || !seg->is_ack) return;
    detail::schedule_while_attached(ether_.engine(), ether_, port_,
                                    stack_cost_, [this, ack = f.tag] {
      // The peer ACKs each segment it processes once, so this answers one
      // transmission (a hand-made test peer may ACK more: never below 0).
      if (unanswered_ > 0) --unanswered_;
      if (!aborted_ && ack > base_) on_progress(ack);  // else stale
      if (listener_ != nullptr && fin_acked() && unanswered_ == 0) {
        std::exchange(listener_, nullptr)->on_closed();  // may destroy *this
      }
    });
  }

  /// An ACK that moved base_ to `ack`.
  void on_progress(std::uint64_t ack) {
    while (!queue_.empty() && queue_.front()->seq < ack) queue_.pop_front();
    if (queue_.empty() && (closing_ || queue_.capacity() <= 1)) {
      // A channel that queues one segment at a time (an RTSP request,
      // then its answer) sits drained most of its life, so it frees its
      // buffer; a sender that queued a burst keeps its buffer for the
      // next one, until it closes and can queue nothing more.
      queue_.release();
    }
    base_ = ack;
    retx_rounds_ = 0;  // progress resets the give-up counter
    if (timing_ && ack > timed_seq_) {
      rtt_.sample(ether_.engine().now() - timed_at_);
      timing_ = false;
    }
    // Progress also ends the backoff, sample or not. Keeping it until a
    // fresh sample (strict Karn) stalls go-back-N under heavy loss: every
    // window after a timeout is a retransmission, so no sample comes.
    rto_ = rtt_.rto();
    timer_.cancel();
    pump();
  }

  void arm_timer() {
    if (queue_.empty() || timer_.pending()) return;
    timer_ = ether_.engine().schedule_in(rto_, [this] { on_timeout(); });
  }

  void on_timeout() {
    if (max_retx_rounds_ != 0 && ++retx_rounds_ > max_retx_rounds_) {
      aborted_ = true;
      queue_.release();
      return;
    }
    // Go-back-N: retransmit the whole window from base_, sharing each
    // segment's body with its earlier transmissions. The timed segment is
    // in that window, so its ACK can no longer give a sample (Karn).
    timing_ = false;
    rto_ = std::min(rto_ * 2, RttEstimator::kMaxRto);
    for (const Segment& seg : queue_) {
      if (seg->seq >= base_ + window_) break;
      transmit(seg);
      ++retransmissions_;
    }
    arm_timer();
  }

  hw::EthernetSwitch& ether_;
  sim::Time stack_cost_;
  int dst_port_;
  int port_ = -1;
  std::uint16_t window_;           // Params::window
  std::uint8_t max_retx_rounds_;   // Params::max_retx_rounds
  std::uint8_t retx_rounds_ = 0;   // consecutive timeouts since last progress
  bool closing_ = false;
  bool aborted_ = false;
  bool timing_ = false;            // timed_seq_ awaits its RTT sample
  bool owns_port_;
  sim::Fifo<Segment> queue_;       // unacked + unsent, seq-ordered
  std::uint64_t next_seq_ = 0;
  std::uint64_t base_ = 0;         // lowest unacked seq
  std::uint64_t inflight_hi_ = 0;  // first never-transmitted seq
  std::uint32_t retransmissions_ = 0;
  std::uint32_t unanswered_ = 0;   // transmissions whose ACK is unprocessed
  std::uint64_t timed_seq_ = 0;
  sim::Time timed_at_;             // when pump() first sent timed_seq_
  RttEstimator rtt_;
  sim::Time rto_ = RttEstimator::kInitialRto;
  sim::EventHandle timer_;
  CloseListener* listener_ = nullptr;  // close()'s, until it is told
};

}  // namespace nistream::net
