// Per-session state for the RTSP front door.
//
// One Session ties together the three planes a client touches: the RTSP
// control state machine (READY/PLAYING per RFC 2326 §A.1, collapsed to the
// server-relevant states), the DWCS reservation made at SETUP (released
// exactly once, at teardown), and the data-plane identity (scheduler stream
// id + the client's RTP/RTCP ports). Ids are incarnation-prefixed via
// rtsp.hpp's make_session_id so a reborn server never honors a dead
// incarnation's sessions.
#pragma once

#include <cstdint>

#include "dwcs/admission.hpp"
#include "dwcs/types.hpp"
#include "session/rtsp.hpp"
#include "sim/handle_table.hpp"
#include "sim/time.hpp"

namespace nistream::session {

/// Server-side control state. kReady covers both freshly-SET-UP and paused
/// sessions (RTSP's Ready state); kPlaying means a pump is live. There is no
/// kClosed — closed sessions are erased, and their ids answer 454.
enum class SessionState { kReady, kPlaying };

struct Session {
  std::uint64_t id = 0;
  int ctl_peer = -1;  // TcpLite peer port of the owning control connection
  SessionState state = SessionState::kReady;
  bool paused = false;       // kReady via PAUSE (resumable pump parked)
  bool ever_played = false;  // distinguishes PAUSE-before-PLAY (455)
  dwcs::StreamId stream = dwcs::kInvalidStream;
  std::uint32_t tenant = 0;  // ingress tenant scope (0 = default tenant)
  dwcs::AdmissionController::Request adm{};  // reservation to release
  int rtp_port = -1;
  int rtcp_port = -1;
  std::uint32_t frame_bytes = 0;  // media bytes per frame, pre-RTP
  sim::Time period = sim::Time::zero();
  std::uint64_t frames = 0;  // media length
  sim::Time last_activity = sim::Time::zero();  // reaper clock
  sim::Handle pump_id{};  // the front door's live pump; none when null
};

}  // namespace nistream::session
