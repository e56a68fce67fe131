// RTSP message layer for the session control plane.
//
// A deliberately small slice of RFC 2326: the four methods a streaming
// session lives through (SETUP, PLAY, PAUSE, TEARDOWN), CSeq/Session
// headers, and the status codes the front door actually emits — 200, 400,
// 453 Not Enough Bandwidth (the DWCS admission rejection), 454 Session Not
// Found (stale/unknown ids, incl. pre-reboot incarnations), 455 Method Not
// Valid in This State. Messages travel as text over net::TcpLite exactly as
// RTSP rides TCP, terminated by the blank line; MessageBuffer reassembles
// them from arbitrary segment boundaries, which is what makes slow-start
// clients (headers dribbling in over many segments) a workload rather than
// a parse error.
//
// Non-standard headers, all artifacts of the simulation substrate:
//  * Reply-Port — TcpLite is unidirectional (one sender/receiver pair per
//    direction), so the client names the port its response-receiver listens
//    on; a real TCP connection would carry responses on the same socket.
//  * X-Window / X-Period-Us / X-Frame-Bytes / X-Frames — the DWCS admission
//    parameters ((x,y) tolerance, frame period, mean frame size) and the
//    media length. Real deployments derive these from the SDP the DESCRIBE
//    exchange returns; the simulation passes them explicitly.
//  * X-Stream in responses — the scheduler stream id, so tests and the
//    churn client can find their data-plane stream without a registry.
//
// The default stream URI. An RtspRequest whose uri is empty, as a
// default-constructed one is, names kDefaultUri, and format_request writes
// that text for it. kDefaultUri is 16 characters, one more than libstdc++'s
// std::string holds inline, so a copy of it would be a heap block: this
// keeps a request, and a churn client config that keeps the default, free
// of one (a storm builds 100k configs). parse_request leaves uri empty for
// a text that names kDefaultUri, so a parsed default request holds none
// either (a storm parses ~100k), and keeps any other URI as written.
//
// Numeric headers are decimal and must fit the field they fill: a value
// its type cannot hold is malformed (400), never wrapped or narrowed.
#pragma once

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "dwcs/types.hpp"
#include "sim/time.hpp"

namespace nistream::session {

enum class Method { kSetup, kPlay, kPause, kTeardown, kUnknown };

/// The URI an empty RtspRequest::uri names (see the header comment).
inline constexpr std::string_view kDefaultUri = "rtsp://ni/stream";

[[nodiscard]] inline const char* method_name(Method m) {
  switch (m) {
    case Method::kSetup: return "SETUP";
    case Method::kPlay: return "PLAY";
    case Method::kPause: return "PAUSE";
    case Method::kTeardown: return "TEARDOWN";
    case Method::kUnknown: break;
  }
  return "UNKNOWN";
}

/// Session ids carry the server incarnation in the top 32 bits, so a session
/// minted before an NI reboot can never be confused with a live one — the
/// same recovery-epoch discipline the cluster failover plane uses.
[[nodiscard]] inline std::uint64_t make_session_id(std::uint32_t incarnation,
                                                   std::uint32_t n) {
  return (static_cast<std::uint64_t>(incarnation) << 32) | n;
}

[[nodiscard]] inline std::uint32_t incarnation_of(std::uint64_t session_id) {
  return static_cast<std::uint32_t>(session_id >> 32);
}

[[nodiscard]] inline std::string format_session_id(std::uint64_t id) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(id));
  return std::string{buf};
}

[[nodiscard]] inline std::optional<std::uint64_t> parse_session_id(
    std::string_view s) {
  if (s.empty() || s.size() > 16) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : s) {
    const int d = c >= '0' && c <= '9'   ? c - '0'
                  : c >= 'a' && c <= 'f' ? c - 'a' + 10
                  : c >= 'A' && c <= 'F' ? c - 'A' + 10
                                         : -1;
    if (d < 0) return std::nullopt;
    v = (v << 4) | static_cast<std::uint64_t>(d);
  }
  return v;
}

struct RtspRequest {
  Method method = Method::kUnknown;
  std::string uri;  // empty: kDefaultUri
  std::uint64_t cseq = 0;
  std::uint64_t session_id = 0;  // 0 = no Session header
  int reply_port = -1;           // client's response-receiver port
  int rtp_port = -1;             // Transport: client_port RTP half
  int rtcp_port = -1;            // Transport: client_port RTCP half
  dwcs::WindowConstraint tolerance{1, 4};
  sim::Time period = sim::Time::ms(33);
  std::uint32_t frame_bytes = 1000;
  std::uint64_t frames = 0;  // media length in frames (SETUP)
};

struct RtspResponse {
  int status = 200;
  std::uint64_t cseq = 0;
  std::uint64_t session_id = 0;  // 0 = no Session header
  dwcs::StreamId stream = 0;
  bool has_stream = false;
};

[[nodiscard]] inline const char* status_reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 453: return "Not Enough Bandwidth";
    case 454: return "Session Not Found";
    case 455: return "Method Not Valid in This State";
    default: return "Unknown";
  }
}

[[nodiscard]] inline std::string format_request(const RtspRequest& r) {
  std::string out;
  out.reserve(256);
  out += method_name(r.method);
  out += ' ';
  out += r.uri.empty() ? kDefaultUri : std::string_view{r.uri};
  out += " RTSP/1.0\r\nCSeq: " + std::to_string(r.cseq) + "\r\n";
  if (r.session_id != 0) {
    out += "Session: " + format_session_id(r.session_id) + "\r\n";
  }
  if (r.reply_port >= 0) {
    out += "Reply-Port: " + std::to_string(r.reply_port) + "\r\n";
  }
  if (r.method == Method::kSetup) {
    out += "Transport: RTP/AVP;unicast;client_port=" +
           std::to_string(r.rtp_port) + "-" + std::to_string(r.rtcp_port) +
           "\r\n";
    out += "X-Window: " + std::to_string(r.tolerance.x) + "/" +
           std::to_string(r.tolerance.y) + "\r\n";
    out += "X-Period-Us: " +
           std::to_string(static_cast<std::int64_t>(r.period.to_us())) +
           "\r\n";
    out += "X-Frame-Bytes: " + std::to_string(r.frame_bytes) + "\r\n";
    out += "X-Frames: " + std::to_string(r.frames) + "\r\n";
  }
  out += "\r\n";
  // The text rides a TcpLite segment for as long as it is in flight: hand
  // back what the reserve overshot.
  out.shrink_to_fit();
  return out;
}

[[nodiscard]] inline std::string format_response(const RtspResponse& r) {
  std::string out;
  out.reserve(128);
  out += "RTSP/1.0 " + std::to_string(r.status) + " " +
         status_reason(r.status) + "\r\nCSeq: " + std::to_string(r.cseq) +
         "\r\n";
  if (r.session_id != 0) {
    out += "Session: " + format_session_id(r.session_id) + "\r\n";
  }
  if (r.has_stream) {
    out += "X-Stream: " + std::to_string(r.stream) + "\r\n";
  }
  out += "\r\n";
  out.shrink_to_fit();  // as in format_request
  return out;
}

namespace detail {

/// Iterate `\r\n`-separated lines of a message (terminator excluded).
template <typename Fn>
void for_each_line(std::string_view text, Fn&& fn) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find("\r\n", pos);
    const std::size_t end = eol == std::string_view::npos ? text.size() : eol;
    if (end > pos) fn(text.substr(pos, end - pos));
    if (eol == std::string_view::npos) break;
    pos = eol + 2;
  }
}

[[nodiscard]] inline std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

/// The value of decimal digits `s`, if it is at most `max`: nullopt on an
/// empty string, a non-digit or a larger value, which is caught digit by
/// digit, so nothing wraps.
[[nodiscard]] inline std::optional<std::uint64_t> to_u64(
    std::string_view s,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  if (s.empty()) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto d = static_cast<std::uint64_t>(c - '0');
    if (v > (max - d) / 10) return std::nullopt;
    v = v * 10 + d;
  }
  return v;
}

/// to_u64 of a field that a `T` holds: nullopt on a value past T's range.
template <typename T>
[[nodiscard]] std::optional<T> to_uint(std::string_view s) {
  const auto v = to_u64(s, static_cast<std::uint64_t>(
                               std::numeric_limits<T>::max()));
  if (!v) return std::nullopt;
  return static_cast<T>(*v);
}

/// Split "Header: value" → (name, value); nullopt when no colon.
[[nodiscard]] inline std::optional<std::pair<std::string_view,
                                             std::string_view>>
split_header(std::string_view line) {
  const std::size_t colon = line.find(':');
  if (colon == std::string_view::npos) return std::nullopt;
  return std::pair{trim(line.substr(0, colon)), trim(line.substr(colon + 1))};
}

}  // namespace detail

/// Parse one complete request message. nullopt on anything malformed — the
/// front door answers those with 400, so a garbled slow-start client is an
/// error response, not undefined behavior.
[[nodiscard]] inline std::optional<RtspRequest> parse_request(
    std::string_view text) {
  RtspRequest req;
  bool first = true;
  bool bad = false;
  bool have_cseq = false;
  detail::for_each_line(text, [&](std::string_view line) {
    if (bad) return;
    if (first) {
      first = false;
      const std::size_t sp1 = line.find(' ');
      const std::size_t sp2 =
          sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
      if (sp2 == std::string_view::npos ||
          line.substr(sp2 + 1) != "RTSP/1.0") {
        bad = true;
        return;
      }
      const std::string_view m = line.substr(0, sp1);
      req.method = m == "SETUP"      ? Method::kSetup
                   : m == "PLAY"     ? Method::kPlay
                   : m == "PAUSE"    ? Method::kPause
                   : m == "TEARDOWN" ? Method::kTeardown
                                     : Method::kUnknown;
      if (req.method == Method::kUnknown) {
        bad = true;
        return;
      }
      const std::string_view uri = line.substr(sp1 + 1, sp2 - sp1 - 1);
      if (uri != kDefaultUri) req.uri = std::string{uri};
      return;
    }
    const auto header = detail::split_header(line);
    if (!header) {
      bad = true;
      return;
    }
    const auto [name, value] = *header;
    if (name == "CSeq") {
      const auto v = detail::to_u64(value);
      if (!v) { bad = true; return; }
      req.cseq = *v;
      have_cseq = true;
    } else if (name == "Session") {
      const auto v = parse_session_id(value);
      if (!v) { bad = true; return; }
      req.session_id = *v;
    } else if (name == "Reply-Port") {
      const auto v = detail::to_uint<int>(value);
      if (!v) { bad = true; return; }
      req.reply_port = *v;
    } else if (name == "Transport") {
      const std::size_t eq = value.rfind("client_port=");
      if (eq == std::string_view::npos) { bad = true; return; }
      const std::string_view ports = value.substr(eq + 12);
      const std::size_t dash = ports.find('-');
      if (dash == std::string_view::npos) { bad = true; return; }
      const auto rtp = detail::to_uint<int>(ports.substr(0, dash));
      const auto rtcp = detail::to_uint<int>(ports.substr(dash + 1));
      if (!rtp || !rtcp) { bad = true; return; }
      req.rtp_port = *rtp;
      req.rtcp_port = *rtcp;
    } else if (name == "X-Window") {
      const std::size_t slash = value.find('/');
      if (slash == std::string_view::npos) { bad = true; return; }
      const auto x = detail::to_uint<std::int64_t>(value.substr(0, slash));
      const auto y = detail::to_uint<std::int64_t>(value.substr(slash + 1));
      if (!x || !y || *x > *y || *y == 0) { bad = true; return; }
      req.tolerance = dwcs::WindowConstraint{*x, *y};
    } else if (name == "X-Period-Us") {
      // Its nanoseconds must fit a sim::Time.
      const auto v = detail::to_u64(
          value, std::numeric_limits<std::int64_t>::max() / 1000);
      if (!v || *v == 0) { bad = true; return; }
      req.period = sim::Time::ns(static_cast<std::int64_t>(*v) * 1000);
    } else if (name == "X-Frame-Bytes") {
      const auto v = detail::to_uint<std::uint32_t>(value);
      if (!v || *v == 0) { bad = true; return; }
      req.frame_bytes = *v;
    } else if (name == "X-Frames") {
      const auto v = detail::to_u64(value);
      if (!v) { bad = true; return; }
      req.frames = *v;
    }
    // Unrecognized headers are ignored, as RTSP requires.
  });
  if (bad || first || !have_cseq) return std::nullopt;
  return req;
}

/// Parse one complete response message (the churn client's half).
[[nodiscard]] inline std::optional<RtspResponse> parse_response(
    std::string_view text) {
  RtspResponse resp;
  bool first = true;
  bool bad = false;
  bool have_cseq = false;
  detail::for_each_line(text, [&](std::string_view line) {
    if (bad) return;
    if (first) {
      first = false;
      if (!line.starts_with("RTSP/1.0 ")) { bad = true; return; }
      const std::string_view rest = line.substr(9);
      const std::size_t sp = rest.find(' ');
      const auto status = detail::to_uint<int>(
          sp == std::string_view::npos ? rest : rest.substr(0, sp));
      if (!status) { bad = true; return; }
      resp.status = *status;
      return;
    }
    const auto header = detail::split_header(line);
    if (!header) { bad = true; return; }
    const auto [name, value] = *header;
    if (name == "CSeq") {
      const auto v = detail::to_u64(value);
      if (!v) { bad = true; return; }
      resp.cseq = *v;
      have_cseq = true;
    } else if (name == "Session") {
      const auto v = parse_session_id(value);
      if (!v) { bad = true; return; }
      resp.session_id = *v;
    } else if (name == "X-Stream") {
      const auto v = detail::to_uint<dwcs::StreamId>(value);
      if (!v) { bad = true; return; }
      resp.stream = *v;
      resp.has_stream = true;
    }
  });
  if (bad || first || !have_cseq) return std::nullopt;
  return resp;
}

/// Best-effort Reply-Port extraction from possibly-malformed text: a 400
/// response still needs somewhere to go, and the one header that names the
/// destination must be readable even when the rest of the request is not.
[[nodiscard]] inline std::optional<int> find_reply_port(
    std::string_view text) {
  std::optional<int> port;
  detail::for_each_line(text, [&](std::string_view line) {
    const auto header = detail::split_header(line);
    if (!header || header->first != "Reply-Port") return;
    if (const auto v = detail::to_uint<int>(header->second)) port = *v;
  });
  return port;
}

/// Reassembles complete `\r\n\r\n`-terminated messages from a TCP-like byte
/// stream delivered in arbitrary chunks. Keeps at most one partial message
/// of buffered bytes; next() pops complete messages in arrival order.
///
/// A buffer that holds exactly one whole message, the usual case, hands its
/// own string over as that message and is left empty, without capacity: an
/// idle connection holds no text, and the message is not copied again.
class MessageBuffer {
 public:
  void append(std::string_view chunk) { buf_.append(chunk); }

  /// Next complete message (terminator included in the consumed bytes,
  /// excluded from the returned text), or nullopt when none is buffered.
  [[nodiscard]] std::optional<std::string> next() {
    const std::size_t end = buf_.find("\r\n\r\n");
    if (end == std::string::npos) return std::nullopt;
    if (end + 4 == buf_.size()) {
      buf_.resize(end + 2);  // keep last header's \r\n
      return std::exchange(buf_, std::string{});
    }
    std::string msg = buf_.substr(0, end + 2);
    buf_.erase(0, end + 4);
    return msg;
  }

  [[nodiscard]] std::size_t pending_bytes() const { return buf_.size(); }

 private:
  std::string buf_;
};

}  // namespace nistream::session
