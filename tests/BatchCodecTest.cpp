//===- tests/BatchCodecTest.cpp - Bulk Batch codec vs per-field oracle ----===//
//
// Differential tests for the bulk fixed-width Batch codec in
// server/Protocol.cpp against the per-field reference formulation in
// tests/ReferenceBatchCodec.h, on seeded random batches: 0, 1 and 4096
// events and the largest count a frame can carry; every verb; negative
// cycles and instances; every truncation of a payload; trailing bytes; and
// an unknown verb at the first and at the last index. Both codecs must
// produce identical bytes, or the identical error.
//
//===----------------------------------------------------------------------===//

#include "ReferenceBatchCodec.h"

#include "server/Protocol.h"

#include "gtest/gtest.h"

#include <cstdint>
#include <random>

using namespace rmd;
using namespace rmd::wire;

namespace {

/// Header (8) + session id + count, then one record per event.
constexpr size_t kRequestFixedBytes = 16;
/// The largest event count whose request payload fits in one frame.
constexpr size_t kMaxRequestEvents =
    (kMaxFrameBytes - kRequestFixedBytes) / kBatchEventBytes;
/// The largest result count whose reply payload fits in one frame.
constexpr size_t kMaxReplyResults = kMaxFrameBytes - kBatchResultsOffset;

BatchRequest randomRequest(size_t N, uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  BatchRequest R;
  R.SessionId = static_cast<uint32_t>(Rng());
  R.Events.resize(N);
  for (size_t I = 0; I < N; ++I) {
    BatchEvent &E = R.Events[I];
    // Every verb in turn, so even a 1-event batch is not always Check.
    E.TheVerb = static_cast<Verb>((I + Seed) % 6);
    E.Op = static_cast<uint32_t>(Rng());
    // Full 32-bit range: about half the cycles and instances are negative.
    E.Cycle = static_cast<int32_t>(static_cast<uint32_t>(Rng()));
    E.Instance = static_cast<int32_t>(static_cast<uint32_t>(Rng()));
  }
  return R;
}

BatchReply randomReply(size_t N, uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  BatchReply R;
  R.Results.resize(N);
  for (uint8_t &B : R.Results)
    B = static_cast<uint8_t>(Rng());
  return R;
}

bool sameEvents(const std::vector<BatchEvent> &A,
                const std::vector<BatchEvent> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (A[I].TheVerb != B[I].TheVerb || A[I].Op != B[I].Op ||
        A[I].Cycle != B[I].Cycle || A[I].Instance != B[I].Instance)
      return false;
  return true;
}

/// Decodes a request payload's body with both codecs (after the shared
/// header decoder) and checks that they agree: the same events, or the
/// same error. Returns the bulk codec's outcome.
Expected<BatchRequest> decodeBothRequest(const std::vector<uint8_t> &Payload,
                                         const std::string &What) {
  WireReader In(Payload), RefIn(Payload);
  Expected<FrameHeader> H = decodeHeader(In, /*ExpectResponse=*/false);
  Expected<FrameHeader> RefH = decodeHeader(RefIn, /*ExpectResponse=*/false);
  EXPECT_EQ(bool(H), bool(RefH)) << What;
  if (!H)
    return H.status();
  Expected<BatchRequest> Bulk = decodeBatchRequest(In);
  Expected<BatchRequest> Ref = reference::decodeBatchRequest(RefIn);
  EXPECT_EQ(bool(Bulk), bool(Ref)) << What;
  if (Bulk && Ref) {
    EXPECT_EQ(Bulk.value().SessionId, Ref.value().SessionId) << What;
    EXPECT_TRUE(sameEvents(Bulk.value().Events, Ref.value().Events)) << What;
  } else {
    EXPECT_EQ(Bulk.status().code(), Ref.status().code()) << What;
    EXPECT_EQ(Bulk.status().message(), Ref.status().message()) << What;
  }

  // The in-place view the server executes from gives the same answer.
  WireReader ViewIn(Payload);
  (void)decodeHeader(ViewIn, false);
  Expected<BatchRecords> View = decodeBatchRecords(ViewIn);
  EXPECT_EQ(bool(View), bool(Bulk)) << What;
  if (View && Bulk) {
    EXPECT_EQ(View.value().sessionId(), Bulk.value().SessionId) << What;
    std::vector<BatchEvent> Viewed;
    for (size_t I = 0; I < View.value().size(); ++I)
      Viewed.push_back(View.value()[I]);
    EXPECT_TRUE(sameEvents(Viewed, Bulk.value().Events)) << What;
  } else if (!View && !Bulk) {
    EXPECT_EQ(View.status().message(), Bulk.status().message()) << What;
  }
  return Bulk;
}

/// The reply-side counterpart of decodeBothRequest.
Expected<BatchReply> decodeBothReply(const std::vector<uint8_t> &Payload,
                                     const std::string &What) {
  WireReader In(Payload), RefIn(Payload);
  Expected<FrameHeader> H = decodeHeader(In, /*ExpectResponse=*/true);
  Expected<FrameHeader> RefH = decodeHeader(RefIn, /*ExpectResponse=*/true);
  EXPECT_EQ(bool(H), bool(RefH)) << What;
  if (!H)
    return H.status();
  Status ServerStatus, RefServerStatus;
  Status Prefix = decodeReplyStatus(In, ServerStatus);
  Status RefPrefix = decodeReplyStatus(RefIn, RefServerStatus);
  EXPECT_EQ(bool(Prefix), bool(RefPrefix)) << What;
  if (!Prefix)
    return Prefix;
  Expected<BatchReply> Bulk = decodeBatchReply(In);
  Expected<BatchReply> Ref = reference::decodeBatchReply(RefIn);
  EXPECT_EQ(bool(Bulk), bool(Ref)) << What;
  if (Bulk && Ref) {
    EXPECT_EQ(Bulk.value().Results, Ref.value().Results) << What;
  } else {
    EXPECT_EQ(Bulk.status().code(), Ref.status().code()) << What;
    EXPECT_EQ(Bulk.status().message(), Ref.status().message()) << What;
  }
  return Bulk;
}

TEST(BatchCodec, RequestBytesMatchReference) {
  for (size_t N : {size_t(0), size_t(1), size_t(4096), kMaxRequestEvents}) {
    std::string What = std::to_string(N) + " events";
    BatchRequest R = randomRequest(N, 0xba7c0000 + N);
    std::vector<uint8_t> Bulk = encodeRequest(77, R);
    ASSERT_EQ(Bulk, reference::encodeBatchRequest(77, R)) << What;
    ASSERT_EQ(Bulk.size(), kRequestFixedBytes + kBatchEventBytes * N) << What;
    ASSERT_LE(Bulk.size(), kMaxFrameBytes) << What;

    Expected<BatchRequest> D = decodeBothRequest(Bulk, What);
    ASSERT_TRUE(bool(D)) << What << ": " << D.status().render();
    EXPECT_EQ(encodeRequest(77, D.value()), Bulk) << What;
  }
  // kMaxRequestEvents is the largest count: one more event overflows.
  EXPECT_GT(kRequestFixedBytes + kBatchEventBytes * (kMaxRequestEvents + 1),
            kMaxFrameBytes);
}

TEST(BatchCodec, ReplyBytesMatchReference) {
  for (size_t N : {size_t(0), size_t(1), size_t(4096), kMaxReplyResults}) {
    std::string What = std::to_string(N) + " results";
    BatchReply R = randomReply(N, 0x5e5c0000 + N);
    std::vector<uint8_t> Bulk = encodeReply(78, R);
    ASSERT_EQ(Bulk, reference::encodeBatchReply(78, R)) << What;
    ASSERT_LE(Bulk.size(), kMaxFrameBytes) << What;

    // The in-place form the server fills is the same frame.
    std::vector<uint8_t> InPlace =
        encodeBatchReply(78, static_cast<uint32_t>(N));
    ASSERT_EQ(InPlace.size(), Bulk.size()) << What;
    std::copy(R.Results.begin(), R.Results.end(),
              InPlace.begin() + kBatchResultsOffset);
    EXPECT_EQ(InPlace, Bulk) << What;

    Expected<BatchReply> D = decodeBothReply(Bulk, What);
    ASSERT_TRUE(bool(D)) << What << ": " << D.status().render();
    EXPECT_EQ(encodeReply(78, D.value()), Bulk) << What;
  }
}

TEST(BatchCodec, EveryVerbAndSignRoundTrips) {
  BatchRequest R;
  R.SessionId = 0xFFFFFFFF;
  for (uint8_t V = 0; V <= static_cast<uint8_t>(Verb::Reset); ++V)
    for (int32_t Cycle : {INT32_MIN, -1, 0, 1, INT32_MAX})
      R.Events.push_back({static_cast<Verb>(V), 0xFFFFFFFFu - V, Cycle,
                          ~Cycle});
  std::vector<uint8_t> Bulk = encodeRequest(1, R);
  ASSERT_EQ(Bulk, reference::encodeBatchRequest(1, R));
  Expected<BatchRequest> D = decodeBothRequest(Bulk, "every verb");
  ASSERT_TRUE(bool(D)) << D.status().render();
  EXPECT_TRUE(sameEvents(D.value().Events, R.Events));
}

TEST(BatchCodec, EveryTruncationGivesTheSameError) {
  std::vector<uint8_t> Request = encodeRequest(5, randomRequest(37, 99));
  for (size_t Len = 0; Len < Request.size(); ++Len) {
    std::vector<uint8_t> Cut(Request.begin(), Request.begin() + Len);
    Expected<BatchRequest> D =
        decodeBothRequest(Cut, "request prefix " + std::to_string(Len));
    EXPECT_FALSE(bool(D)) << "request prefix of length " << Len << " decoded";
  }
  std::vector<uint8_t> Reply = encodeReply(5, randomReply(37, 99));
  for (size_t Len = 0; Len < Reply.size(); ++Len) {
    std::vector<uint8_t> Cut(Reply.begin(), Reply.begin() + Len);
    Expected<BatchReply> D =
        decodeBothReply(Cut, "reply prefix " + std::to_string(Len));
    EXPECT_FALSE(bool(D)) << "reply prefix of length " << Len << " decoded";
  }
}

TEST(BatchCodec, TrailingBytesGiveTheSameError) {
  for (size_t Extra = 1; Extra <= kBatchEventBytes + 1; ++Extra) {
    std::vector<uint8_t> Request = encodeRequest(6, randomRequest(9, 7));
    Request.insert(Request.end(), Extra, 0);
    EXPECT_FALSE(bool(decodeBothRequest(
        Request, "request + " + std::to_string(Extra) + " bytes")));

    std::vector<uint8_t> Reply = encodeReply(6, randomReply(9, 7));
    Reply.insert(Reply.end(), Extra, 0);
    EXPECT_FALSE(bool(
        decodeBothReply(Reply, "reply + " + std::to_string(Extra) + " bytes")));
  }
}

TEST(BatchCodec, UnknownVerbAtFirstAndLastIndex) {
  for (size_t N : {size_t(1), size_t(5), size_t(4096)}) {
    std::vector<uint8_t> Good = encodeRequest(8, randomRequest(N, N));
    for (size_t Index : {size_t(0), N - 1})
      for (uint8_t Bad : {uint8_t(6), uint8_t(0x77), uint8_t(0xFF)}) {
        std::vector<uint8_t> Bytes = Good;
        Bytes[kRequestFixedBytes + kBatchEventBytes * Index] = Bad;
        std::string What = std::to_string(N) + " events, verb " +
                           std::to_string(Bad) + " at " +
                           std::to_string(Index);
        Expected<BatchRequest> D = decodeBothRequest(Bytes, What);
        ASSERT_FALSE(bool(D)) << What;
        EXPECT_EQ(D.status().message(),
                  "unknown verb " + std::to_string(Bad) + " in event " +
                      std::to_string(Index))
            << What;
      }
    // Bad verbs at both ends: the first one is reported.
    std::vector<uint8_t> Bytes = Good;
    Bytes[kRequestFixedBytes] = 9;
    Bytes[kRequestFixedBytes + kBatchEventBytes * (N - 1)] = 9;
    Expected<BatchRequest> D = decodeBothRequest(Bytes, "both ends");
    ASSERT_FALSE(bool(D));
    EXPECT_EQ(D.status().message(), "unknown verb 9 in event 0");
  }
}

} // namespace
