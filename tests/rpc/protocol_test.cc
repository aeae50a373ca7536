// Wire-protocol codec tests: roundtrips, strict decoding, and the
// corruption corpus — no byte flip anywhere in a frame may ever be
// misparsed into a well-formed message.
#include "rpc/protocol.h"

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace tokenmagic::rpc {
namespace {

Request MakeRequest() {
  Request request;
  request.op = Op::kSelect;
  request.request_id = 0x1122334455667788ull;
  request.target = 42;
  request.requirement = {2.5, 3};
  request.deadline_millis = 250;
  request.iteration_budget = 100000;
  return request;
}

Response MakeResponse() {
  Response response;
  response.request_id = 0x8877665544332211ull;
  response.status = common::Status::OK();
  response.members = {3, 7, 42, 99};
  response.satisfied = {2.0, 2};
  response.degraded = true;
  response.stage = "TM_P";
  response.server_micros = 1234;
  return response;
}

/// Mimics the receiver side of ReadFrame over an in-memory buffer:
/// header decode, length check, checksum verification, exact size.
common::Status ParseFrameBuffer(const std::string& frame,
                                std::string* payload) {
  if (frame.size() < kFrameHeaderBytes) {
    return common::Status::IoError("short frame header");
  }
  auto header = DecodeFrameHeader(frame.data());
  if (!header.ok()) return header.status();
  if (frame.size() - kFrameHeaderBytes < header->length) {
    return common::Status::IoError("short frame body");
  }
  *payload = frame.substr(kFrameHeaderBytes, header->length);
  if (FrameChecksum(*payload) != header->checksum) {
    return common::Status::InvalidArgument("frame checksum mismatch");
  }
  return common::Status::OK();
}

TEST(ProtocolTest, RequestRoundtrip) {
  Request request = MakeRequest();
  Request decoded;
  ASSERT_TRUE(DecodeRequest(EncodeRequest(request), &decoded).ok());
  EXPECT_EQ(decoded.op, request.op);
  EXPECT_EQ(decoded.request_id, request.request_id);
  EXPECT_EQ(decoded.target, request.target);
  EXPECT_DOUBLE_EQ(decoded.requirement.c, request.requirement.c);
  EXPECT_EQ(decoded.requirement.ell, request.requirement.ell);
  EXPECT_EQ(decoded.deadline_millis, request.deadline_millis);
  EXPECT_EQ(decoded.iteration_budget, request.iteration_budget);
}

TEST(ProtocolTest, ResponseRoundtrip) {
  Response response = MakeResponse();
  response.status = common::Status::Timeout("budget spent");
  response.members.clear();
  Response decoded;
  ASSERT_TRUE(DecodeResponse(EncodeResponse(response), &decoded).ok());
  EXPECT_EQ(decoded.request_id, response.request_id);
  EXPECT_TRUE(decoded.status.IsTimeout());
  EXPECT_EQ(decoded.status.message(), "budget spent");
  EXPECT_TRUE(decoded.members.empty());
  EXPECT_EQ(decoded.degraded, response.degraded);
  EXPECT_EQ(decoded.stage, response.stage);
  EXPECT_EQ(decoded.server_micros, response.server_micros);
}

TEST(ProtocolTest, OkResponseKeepsMessage) {
  // Ping/Stats carry their payload in the OK status message.
  Response response;
  response.request_id = 1;
  response.status = common::Status(common::StatusCode::kOk, "1234");
  Response decoded;
  ASSERT_TRUE(DecodeResponse(EncodeResponse(response), &decoded).ok());
  EXPECT_TRUE(decoded.status.ok());
  EXPECT_EQ(decoded.status.message(), "1234");
}

TEST(ProtocolTest, ResponseMembersRoundtrip) {
  Response response = MakeResponse();
  Response decoded;
  ASSERT_TRUE(DecodeResponse(EncodeResponse(response), &decoded).ok());
  EXPECT_EQ(decoded.members, response.members);
  EXPECT_DOUBLE_EQ(decoded.satisfied.c, response.satisfied.c);
  EXPECT_EQ(decoded.satisfied.ell, response.satisfied.ell);
}

TEST(ProtocolTest, WireStatusCodesAreStable) {
  // The wire mapping is a compatibility contract: values are pinned.
  EXPECT_EQ(StatusCodeToWire(common::StatusCode::kOk), 0);
  EXPECT_EQ(StatusCodeToWire(common::StatusCode::kResourceExhausted), 6);
  EXPECT_EQ(StatusCodeToWire(common::StatusCode::kTimeout), 10);
  EXPECT_EQ(StatusCodeToWire(common::StatusCode::kCancelled), 11);
  for (int code = 0; code <= 11; ++code) {
    EXPECT_EQ(
        static_cast<int>(StatusCodeToWire(WireToStatusCode(
            static_cast<uint8_t>(code)))),
        code);
  }
  EXPECT_EQ(WireToStatusCode(200), common::StatusCode::kInternal);
}

TEST(ProtocolTest, DecodeRequestRejectsTrailingBytes) {
  std::string payload = EncodeRequest(MakeRequest()) + "x";
  Request decoded;
  EXPECT_TRUE(DecodeRequest(payload, &decoded).IsInvalidArgument());
}

TEST(ProtocolTest, DecodeRequestRejectsTruncation) {
  std::string payload = EncodeRequest(MakeRequest());
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    Request decoded;
    EXPECT_TRUE(DecodeRequest(payload.substr(0, cut), &decoded)
                    .IsInvalidArgument())
        << "cut at " << cut;
  }
}

TEST(ProtocolTest, DecodeRequestRejectsUnknownOpAndBadRequirement) {
  Request request = MakeRequest();
  std::string payload = EncodeRequest(request);
  payload[0] = 99;  // op byte
  Request decoded;
  EXPECT_TRUE(DecodeRequest(payload, &decoded).IsInvalidArgument());

  request.requirement.c = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(
      DecodeRequest(EncodeRequest(request), &decoded).IsInvalidArgument());

  request.requirement.c = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(
      DecodeRequest(EncodeRequest(request), &decoded).IsInvalidArgument());

  request.requirement.c = 2.0;
  request.requirement.ell = -1;
  EXPECT_TRUE(
      DecodeRequest(EncodeRequest(request), &decoded).IsInvalidArgument());
}

TEST(ProtocolTest, FrameHeaderRejectsZeroAndOversizedLength) {
  std::string zero(kFrameHeaderBytes, '\0');
  EXPECT_TRUE(DecodeFrameHeader(zero.data()).status().IsInvalidArgument());

  std::string frame = EncodeFrame("hi");
  frame[3] = '\x7f';  // length high byte -> way past kMaxFrameBytes
  EXPECT_TRUE(DecodeFrameHeader(frame.data()).status().IsInvalidArgument());
}

TEST(ProtocolTest, FrameRoundtrip) {
  std::string payload = EncodeResponse(MakeResponse());
  std::string frame = EncodeFrame(payload);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + payload.size());
  std::string parsed;
  ASSERT_TRUE(ParseFrameBuffer(frame, &parsed).ok());
  EXPECT_EQ(parsed, payload);
}

TEST(ProtocolTest, CorruptionCorpusEveryByteFlipIsDetected) {
  // The fail-loud contract: flip any single byte anywhere in a frame
  // (header, checksum, payload) and the receiver must reject it typed —
  // never deliver a misparsed message. This is what the checksum buys:
  // without it a flipped member-id byte would decode "successfully".
  std::string payload = EncodeResponse(MakeResponse());
  std::string frame = EncodeFrame(payload);
  for (size_t pos = 0; pos < frame.size(); ++pos) {
    for (uint8_t mask : {0x01, 0x80, 0x5A}) {
      std::string corrupted = frame;
      corrupted[pos] = static_cast<char>(corrupted[pos] ^ mask);
      std::string parsed;
      common::Status status = ParseFrameBuffer(corrupted, &parsed);
      EXPECT_FALSE(status.ok())
          << "flip mask 0x" << std::hex << static_cast<int>(mask)
          << " at byte " << std::dec << pos << " was not detected";
    }
  }
}

TEST(ProtocolTest, TruncationCorpusEveryPrefixIsDetected) {
  std::string frame = EncodeFrame(EncodeResponse(MakeResponse()));
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    std::string parsed;
    EXPECT_FALSE(ParseFrameBuffer(frame.substr(0, cut), &parsed).ok())
        << "prefix of " << cut << " bytes was not detected";
  }
}

TEST(ProtocolTest, DecodeResponseRejectsAbsurdMemberCount) {
  Response response = MakeResponse();
  std::string payload = EncodeResponse(response);
  // The member-count field sits after request_id (8), status code (1),
  // and status message (4 + len). Claim 2^31 members.
  size_t count_offset = 8 + 1 + 4 + response.status.message().size();
  payload[count_offset + 3] = '\x80';
  Response decoded;
  EXPECT_TRUE(DecodeResponse(payload, &decoded).IsInvalidArgument());
}

}  // namespace
}  // namespace tokenmagic::rpc
