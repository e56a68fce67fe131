// Tests for the RTSP message layer: format/parse round trips, malformed
// input rejection, session-id helpers, and MessageBuffer reassembly across
// arbitrary segment boundaries (what slow-start clients stress).
#include "session/rtsp.hpp"

#include <gtest/gtest.h>

#include <string>

namespace nistream::session {
namespace {

TEST(RtspMessage, SetupRequestRoundTrips) {
  RtspRequest req;
  req.method = Method::kSetup;
  req.cseq = 7;
  req.reply_port = 12;
  req.rtp_port = 34;
  req.rtcp_port = 35;
  req.tolerance = dwcs::WindowConstraint{2, 5};
  req.period = sim::Time::us(33'000);
  req.frame_bytes = 1234;
  req.frames = 99;
  const auto parsed = parse_request(format_request(req));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->method, Method::kSetup);
  EXPECT_EQ(parsed->cseq, 7u);
  EXPECT_EQ(parsed->reply_port, 12);
  EXPECT_EQ(parsed->rtp_port, 34);
  EXPECT_EQ(parsed->rtcp_port, 35);
  EXPECT_EQ(parsed->tolerance, (dwcs::WindowConstraint{2, 5}));
  EXPECT_EQ(parsed->period, sim::Time::us(33'000));
  EXPECT_EQ(parsed->frame_bytes, 1234u);
  EXPECT_EQ(parsed->frames, 99u);
  EXPECT_EQ(parsed->session_id, 0u);
}

TEST(RtspMessage, PlayCarriesSessionId) {
  RtspRequest req;
  req.method = Method::kPlay;
  req.cseq = 2;
  req.session_id = make_session_id(3, 41);
  const auto parsed = parse_request(format_request(req));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->method, Method::kPlay);
  EXPECT_EQ(parsed->session_id, make_session_id(3, 41));
}

TEST(RtspMessage, ResponseRoundTrips) {
  RtspResponse resp;
  resp.status = 453;
  resp.cseq = 11;
  resp.session_id = make_session_id(1, 5);
  const auto parsed = parse_response(format_response(resp));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->status, 453);
  EXPECT_EQ(parsed->cseq, 11u);
  EXPECT_EQ(parsed->session_id, make_session_id(1, 5));
  EXPECT_FALSE(parsed->has_stream);
}

TEST(RtspMessage, ResponseCarriesStreamId) {
  RtspResponse resp;
  resp.status = 200;
  resp.cseq = 1;
  resp.session_id = make_session_id(1, 1);
  resp.stream = 42;
  resp.has_stream = true;
  const auto parsed = parse_response(format_response(resp));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->has_stream);
  EXPECT_EQ(parsed->stream, 42u);
}

// A text lives as long as the TcpLite segment that carries it, so its
// buffer must fit it: no more slack than a malloc chunk's rounding.
TEST(RtspMessage, TextsAreSizedToTheirLength) {
  RtspRequest setup;
  setup.method = Method::kSetup;
  setup.cseq = 1;
  setup.reply_port = 123456;
  setup.rtp_port = 123457;
  setup.rtcp_port = 123458;
  setup.frames = 300;
  RtspRequest play;
  play.method = Method::kPlay;
  play.cseq = 2;
  play.reply_port = 123456;
  play.session_id = make_session_id(1, 77);
  const std::string texts[] = {
      format_request(setup), format_request(play),
      format_response({.status = 453, .cseq = 1})};
  for (const std::string& t : texts) {
    EXPECT_LT(t.capacity() - t.size(), 16u) << t;
  }
}

TEST(RtspMessage, MalformedRequestsRejected) {
  EXPECT_FALSE(parse_request("").has_value());
  EXPECT_FALSE(parse_request("GARBAGE\r\n").has_value());
  EXPECT_FALSE(parse_request("OPTIONS * RTSP/1.0\r\nCSeq: 1\r\n").has_value());
  EXPECT_FALSE(parse_request("PLAY rtsp://x RTSP/1.0\r\n").has_value());  // no CSeq
  EXPECT_FALSE(
      parse_request("PLAY rtsp://x RTSP/1.0\r\nCSeq: abc\r\n").has_value());
  EXPECT_FALSE(
      parse_request("PLAY rtsp://x HTTP/1.1\r\nCSeq: 1\r\n").has_value());
  EXPECT_FALSE(
      parse_request("PLAY rtsp://x RTSP/1.0\r\nno colon line\r\n").has_value());
  // Invalid window: x > y.
  EXPECT_FALSE(parse_request("SETUP rtsp://x RTSP/1.0\r\nCSeq: 1\r\n"
                             "X-Window: 5/2\r\n")
                   .has_value());
  // Zero period.
  EXPECT_FALSE(parse_request("SETUP rtsp://x RTSP/1.0\r\nCSeq: 1\r\n"
                             "X-Period-Us: 0\r\n")
                   .has_value());
}

TEST(RtspMessage, UnknownHeadersIgnored) {
  const auto parsed = parse_request(
      "PLAY rtsp://x RTSP/1.0\r\nCSeq: 9\r\nUser-Agent: test\r\n");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->cseq, 9u);
}

TEST(RtspSessionId, IncarnationPrefixed) {
  const std::uint64_t id = make_session_id(7, 123);
  EXPECT_EQ(incarnation_of(id), 7u);
  EXPECT_EQ(id & 0xffffffffu, 123u);
  const auto parsed = parse_session_id(format_session_id(id));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, id);
  EXPECT_FALSE(parse_session_id("").has_value());
  EXPECT_FALSE(parse_session_id("xyz").has_value());
  EXPECT_FALSE(parse_session_id("00000000000000001").has_value());  // 17 chars
}

TEST(RtspMessageBuffer, ReassemblesAcrossChunkBoundaries) {
  const std::string msg = format_request([] {
    RtspRequest r;
    r.method = Method::kSetup;
    r.cseq = 1;
    r.rtp_port = 5;
    r.rtcp_port = 6;
    return r;
  }());
  // Feed one byte at a time: exactly one message must pop out, at the end.
  MessageBuffer buf;
  int popped = 0;
  for (std::size_t i = 0; i < msg.size(); ++i) {
    buf.append(msg.substr(i, 1));
    while (auto m = buf.next()) {
      ++popped;
      EXPECT_TRUE(parse_request(*m).has_value());
    }
  }
  EXPECT_EQ(popped, 1);
  EXPECT_EQ(buf.pending_bytes(), 0u);
}

std::string play_request(std::uint64_t cseq) {
  RtspRequest r;
  r.method = Method::kPlay;
  r.cseq = cseq;
  r.session_id = 0x0000000100000002;
  return format_request(r);
}

/// A message as next() returns it: the final blank line's \r\n dropped.
std::string popped(const std::string& msg) {
  return msg.substr(0, msg.size() - 2);
}

TEST(RtspMessageBuffer, WholeMessageLeavesNothingPending) {
  const std::string one = play_request(1);
  MessageBuffer buf;
  buf.append(one);
  const auto m = buf.next();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(*m, popped(one));
  EXPECT_EQ(buf.pending_bytes(), 0u);
  EXPECT_FALSE(buf.next().has_value());
  // The emptied buffer takes the next message as before.
  buf.append(play_request(2));
  const auto m2 = buf.next();
  ASSERT_TRUE(m2.has_value());
  EXPECT_EQ(parse_request(*m2)->cseq, 2u);
}

TEST(RtspMessageBuffer, MessageAndAHalfKeepsTheHalf) {
  const std::string one = play_request(1);
  const std::string two = play_request(2);
  const std::string half = two.substr(0, two.size() / 2);
  MessageBuffer buf;
  buf.append(one + half);
  const auto m1 = buf.next();
  ASSERT_TRUE(m1.has_value());
  EXPECT_EQ(*m1, popped(one));
  EXPECT_EQ(buf.pending_bytes(), half.size());
  EXPECT_FALSE(buf.next().has_value());
  buf.append(two.substr(half.size()));
  const auto m2 = buf.next();
  ASSERT_TRUE(m2.has_value());
  EXPECT_EQ(*m2, popped(two));
  EXPECT_EQ(buf.pending_bytes(), 0u);
}

TEST(RtspMessageBuffer, MessageSplitAcrossChunksReassemblesExactly) {
  const std::string one = play_request(7);
  MessageBuffer buf;
  const std::size_t third = one.size() / 3;
  buf.append(one.substr(0, third));
  EXPECT_FALSE(buf.next().has_value());
  buf.append(one.substr(third, third));
  EXPECT_FALSE(buf.next().has_value());
  EXPECT_EQ(buf.pending_bytes(), 2 * third);
  buf.append(one.substr(2 * third));
  const auto m = buf.next();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(*m, popped(one));
  EXPECT_EQ(buf.pending_bytes(), 0u);
}

TEST(RtspMessageBuffer, SplitTerminatorAndBackToBackMessages) {
  RtspRequest r;
  r.method = Method::kPlay;
  r.cseq = 1;
  const std::string one = format_request(r);
  r.cseq = 2;
  const std::string two = format_request(r);
  MessageBuffer buf;
  // Split inside the \r\n\r\n terminator of message one, with message two's
  // head glued onto the same chunk.
  const std::string glued = one + two;
  buf.append(glued.substr(0, one.size() - 2));
  EXPECT_FALSE(buf.next().has_value());
  buf.append(glued.substr(one.size() - 2));
  const auto m1 = buf.next();
  const auto m2 = buf.next();
  ASSERT_TRUE(m1.has_value());
  ASSERT_TRUE(m2.has_value());
  EXPECT_EQ(parse_request(*m1)->cseq, 1u);
  EXPECT_EQ(parse_request(*m2)->cseq, 2u);
  EXPECT_FALSE(buf.next().has_value());
}

}  // namespace
}  // namespace nistream::session
