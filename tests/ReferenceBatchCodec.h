//===- tests/ReferenceBatchCodec.h - Oracle Batch codec ---------*- C++ -*-===//
//
// A plain, per-field formulation of the rmd-wire-v1 Batch request and
// reply codec, kept as a differential oracle for the bulk fixed-width
// codec in server/Protocol.cpp:
//   - the encoders append one field at a time through WireWriter's
//     u8/u32/i32, into a writer that is never sized up front;
//   - the decoders read one bounds-checked field at a time through
//     WireReader's u8/u32/i32 into a vector grown by push_back.
// Same layout, same checks in the same order and the same error texts, so
// bytes and errors must match exactly.
//
//===----------------------------------------------------------------------===//

#ifndef RMD_TESTS_REFERENCEBATCHCODEC_H
#define RMD_TESTS_REFERENCEBATCHCODEC_H

#include "server/Protocol.h"

#include <string>
#include <vector>

namespace rmd::reference {

inline void putHeader(wire::WireWriter &Out, bool Response,
                      uint32_t RequestId) {
  Out.u8(wire::kWireVersion);
  Out.u8(static_cast<uint8_t>(wire::MessageType::Batch) |
         (Response ? wire::kResponseBit : 0));
  Out.u16(0);
  Out.u32(RequestId);
}

inline std::vector<uint8_t> encodeBatchRequest(uint32_t RequestId,
                                               const wire::BatchRequest &R) {
  wire::WireWriter Out;
  putHeader(Out, /*Response=*/false, RequestId);
  Out.u32(R.SessionId);
  Out.u32(static_cast<uint32_t>(R.Events.size()));
  for (const wire::BatchEvent &E : R.Events) {
    Out.u8(static_cast<uint8_t>(E.TheVerb));
    Out.u32(E.Op);
    Out.i32(E.Cycle);
    Out.i32(E.Instance);
  }
  return Out.take();
}

inline std::vector<uint8_t> encodeBatchReply(uint32_t RequestId,
                                             const wire::BatchReply &R) {
  wire::WireWriter Out;
  putHeader(Out, /*Response=*/true, RequestId);
  Out.u16(0); // ErrorCode::Ok
  Out.u32(static_cast<uint32_t>(R.Results.size()));
  for (uint8_t B : R.Results)
    Out.u8(B);
  return Out.take();
}

inline Status protocolError(const std::string &What) {
  return Status(ErrorCode::ProtocolError, What);
}

/// Decodes a Batch request body (header already consumed).
inline Expected<wire::BatchRequest> decodeBatchRequest(wire::WireReader &In) {
  wire::BatchRequest R;
  uint32_t Count;
  if (!In.u32(R.SessionId) || !In.u32(Count))
    return protocolError("truncated message body");
  if (static_cast<uint64_t>(Count) * 13 != In.remaining())
    return protocolError("event count does not match body size");
  for (uint32_t I = 0; I < Count; ++I) {
    wire::BatchEvent E;
    uint8_t V;
    if (!In.u8(V) || !In.u32(E.Op) || !In.i32(E.Cycle) || !In.i32(E.Instance))
      return protocolError("truncated message body");
    if (V > static_cast<uint8_t>(wire::Verb::Reset))
      return protocolError("unknown verb " + std::to_string(V) +
                           " in event " + std::to_string(I));
    E.TheVerb = static_cast<wire::Verb>(V);
    R.Events.push_back(E);
  }
  if (!In.atEnd())
    return protocolError("trailing bytes after message body");
  return R;
}

/// Decodes an ok Batch reply body (header and status already consumed).
inline Expected<wire::BatchReply> decodeBatchReply(wire::WireReader &In) {
  wire::BatchReply R;
  uint32_t Count;
  if (!In.u32(Count))
    return protocolError("truncated message body");
  if (Count != In.remaining())
    return protocolError("result count does not match body size");
  for (uint32_t I = 0; I < Count; ++I) {
    uint8_t B;
    if (!In.u8(B))
      return protocolError("truncated message body");
    R.Results.push_back(B);
  }
  if (!In.atEnd())
    return protocolError("trailing bytes after message body");
  return R;
}

} // namespace rmd::reference

#endif // RMD_TESTS_REFERENCEBATCHCODEC_H
