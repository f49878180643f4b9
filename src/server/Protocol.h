//===- server/Protocol.h - rmd-wire-v1 message framing ---------*- C++ -*-===//
///
/// \file
/// The length-prefixed binary protocol the contention-query server speaks
/// over local stream sockets ("rmd-wire-v1"; docs/server.md is the prose
/// spec). A *frame* is a little-endian u32 payload length followed by the
/// payload; every payload begins with a fixed header:
///
///   u8  Version   (kWireVersion; mismatches are rejected, never guessed)
///   u8  Type      (MessageType; responses set kResponseBit)
///   u16 Reserved  (must be zero)
///   u32 RequestId (echoed verbatim in the response)
///
/// Response payloads continue with a u16 ErrorCode (support/Status.h's
/// enum value; 0 = ok) and, when nonzero, a string message — so every
/// failure a client sees is *structured*: a code it can branch on plus
/// text it can log, never a closed socket with no explanation. Success
/// responses continue with the per-type body.
///
/// All integers are little-endian and packed (no padding is read from or
/// written to the wire); strings are a u32 length plus raw bytes. Decoders
/// are total: any truncated, oversized, garbage, or wrong-version input
/// yields an Expected error, and a decoded value re-encodes to the
/// identical bytes (tests/ServerProtocolTest round-trips every type).
///
/// Batch, the hot message, has a bulk fixed-width codec: its request body
/// is u32 SessionId, u32 Count and Count packed kBatchEventBytes records
/// (u8 verb, u32 op, i32 cycle, i32 instance); its reply body is u32 Count
/// and one result byte per event. The encoders size the payload once and
/// store records directly; decodeBatchRecords checks the count against
/// the body size and every verb byte once, then hands out the records in
/// place (BatchRecords), which is how the server executes a batch without
/// copying it. writeFrame sends a frame with one sendmsg.
///
//===----------------------------------------------------------------------===//

#ifndef RMD_SERVER_PROTOCOL_H
#define RMD_SERVER_PROTOCOL_H

#include "query/QueryModule.h"
#include "support/Status.h"

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace rmd {
namespace wire {

inline constexpr uint8_t kWireVersion = 1;
inline constexpr uint8_t kResponseBit = 0x80;

/// Frames larger than this are rejected before any allocation: a garbage
/// length prefix must not make the server (or a client) try to buffer 4 GiB.
inline constexpr uint32_t kMaxFrameBytes = 1u << 20;

enum class MessageType : uint8_t {
  Ping = 1,
  LoadMachine = 2,
  OpenSession = 3,
  Batch = 4,
  ScheduleLoop = 5,
  Stats = 6,
  CloseSession = 7,
  Shutdown = 8,
};

/// Batch event verbs. CheckAssign only assigns when the check succeeds, so
/// it is always safe to issue; plain Assign/Free follow the query-module
/// contract (the caller must know the placement is legal / live). Reset
/// clears the session and ignores the event's Op, Cycle and Instance: the
/// server neither range-checks nor reads them.
enum class Verb : uint8_t {
  Check = 0,
  Assign = 1,
  Free = 2,
  CheckAssign = 3,
  AssignFree = 4,
  Reset = 5,
};

/// Wire bytes of one packed Batch event record: u8 verb, u32 op, i32
/// cycle, i32 instance.
inline constexpr size_t kBatchEventBytes = 13;

/// Per-event result bytes in a Batch response.
inline constexpr uint8_t kResultDone = 0xFF; ///< Assign/Free/Reset applied
// Check/CheckAssign answer 0 (contention) or 1 (free / assigned);
// AssignFree answers the evicted count, clamped to 0xFE.

/// The fixed payload header of every message.
struct FrameHeader {
  uint8_t Version = kWireVersion;
  uint8_t Type = 0;
  uint32_t RequestId = 0;
};

//===----------------------------------------------------------------------===//
// Request bodies
//===----------------------------------------------------------------------===//

struct PingRequest {};

struct LoadMachineRequest {
  std::string Name; ///< a built-in corpus machine ("cydra5", ...)
};

struct OpenSessionRequest {
  uint32_t MachineId = 0;
  uint8_t Modulo = 0;       ///< 0 = linear window, 1 = modulo (MRT)
  uint8_t UnionAlt = 0;     ///< QueryConfig::UnionAlternativeCheck
  int32_t ModuloII = 0;     ///< required when Modulo
  int32_t MinCycle = 0;     ///< linear mode window floor
  std::string Tenant;       ///< per-tenant accounting key (may be empty)
};

struct BatchEvent {
  Verb TheVerb = Verb::Check;
  uint32_t Op = 0;
  int32_t Cycle = 0;
  int32_t Instance = 0;
};

struct BatchRequest {
  uint32_t SessionId = 0;
  std::vector<BatchEvent> Events;
};

struct ScheduleLoopRequest {
  uint32_t MachineId = 0;
  int32_t BudgetRatio = 6;
  int32_t MaxII = 0;      ///< 0 = MII + 128
  int32_t DeadlineMs = 0; ///< 0 = no deadline
  std::string GraphText;  ///< loop-graph text (sched/GraphIO.h)
};

struct StatsRequest {
  uint32_t SessionId = 0; ///< 0 = server-wide stats
};

struct CloseSessionRequest {
  uint32_t SessionId = 0;
};

struct ShutdownRequest {};

//===----------------------------------------------------------------------===//
// Response bodies (the ok-path payload after the error-code prefix)
//===----------------------------------------------------------------------===//

struct PingReply {};

struct LoadMachineReply {
  uint32_t MachineId = 0;
  uint8_t Degraded = 0;  ///< reduction fell back to the original machine
  uint8_t Bitvector = 0; ///< sessions use the bitvector representation
  uint32_t NumOperations = 0;
  uint32_t OriginalResources = 0;
  uint32_t ReducedResources = 0;
};

struct OpenSessionReply {
  uint32_t SessionId = 0;
};

struct BatchReply {
  std::vector<uint8_t> Results; ///< one byte per event, in order
};

struct ScheduleLoopReply {
  uint8_t Success = 0;
  uint8_t Outcome = 0; ///< ScheduleOutcome enum value
  int32_t II = 0;
  std::vector<int32_t> Time;        ///< per node; empty when unscheduled
  std::vector<int32_t> Alternative; ///< per node; -1 = unplaced
  std::string Message;              ///< human-readable outcome detail
};

struct SessionStats {
  WorkCounters Counters; ///< live counters of the session's module
  uint64_t LiveInstances = 0;
};

struct ServerStats {
  uint64_t ActiveSessions = 0;
  uint64_t MachinesLoaded = 0;
  uint64_t RequestsServed = 0;
  uint64_t OverloadRejections = 0;
  uint64_t ProtocolErrors = 0;
};

struct StatsReply {
  uint8_t ServerWide = 0;
  SessionStats Session; ///< valid when !ServerWide
  ServerStats Server;   ///< valid when ServerWide
};

struct CloseSessionReply {};
struct ShutdownReply {};

//===----------------------------------------------------------------------===//
// Encoding / decoding
//===----------------------------------------------------------------------===//

/// Append-only little-endian payload writer.
class WireWriter {
public:
  void reserve(size_t N) { Bytes.reserve(N); }
  void u8(uint8_t V) { Bytes.push_back(V); }
  void u16(uint16_t V);
  void u32(uint32_t V);
  void u64(uint64_t V);
  void i32(int32_t V) { u32(static_cast<uint32_t>(V)); }
  void str(const std::string &S);
  /// Appends \p N zero bytes and returns where they start, for a caller
  /// that stores fixed-width records directly.
  uint8_t *extend(size_t N);

  std::vector<uint8_t> take() { return std::move(Bytes); }
  const std::vector<uint8_t> &bytes() const { return Bytes; }

private:
  std::vector<uint8_t> Bytes;
};

/// Bounds-checked little-endian payload reader. Every accessor returns
/// false (leaving the output untouched) instead of reading past the end.
class WireReader {
public:
  WireReader(const uint8_t *Data, size_t Size) : Data(Data), Size(Size) {}
  explicit WireReader(const std::vector<uint8_t> &Payload)
      : Data(Payload.data()), Size(Payload.size()) {}

  bool u8(uint8_t &V);
  bool u16(uint16_t &V);
  bool u32(uint32_t &V);
  bool u64(uint64_t &V);
  bool i32(int32_t &V);
  bool str(std::string &S);
  /// Hands out the next \p N bytes in place, without copying, and moves
  /// past them; false (leaving \p Out untouched) when fewer remain.
  bool bytes(size_t N, std::span<const uint8_t> &Out);

  size_t remaining() const { return Size - Pos; }
  bool atEnd() const { return Pos == Size; }

private:
  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
};

/// A Batch request body read in place: the session id and a view of the
/// packed event records inside the payload. Only decodeBatchRecords makes
/// one, after the count/size check and a scan of every verb byte, so
/// operator[] reads a record with no further checks. The view borrows the
/// payload and must not outlive it.
class BatchRecords {
public:
  uint32_t sessionId() const { return SessionId; }
  size_t size() const { return Count; }
  BatchEvent operator[](size_t I) const {
    const uint8_t *P = Data + I * kBatchEventBytes;
    return {static_cast<Verb>(P[0]), load32(P + 1),
            static_cast<int32_t>(load32(P + 5)),
            static_cast<int32_t>(load32(P + 9))};
  }

private:
  friend Expected<BatchRecords> decodeBatchRecords(WireReader &In);
  static uint32_t load32(const uint8_t *P) {
    return static_cast<uint32_t>(P[0]) | static_cast<uint32_t>(P[1]) << 8 |
           static_cast<uint32_t>(P[2]) << 16 |
           static_cast<uint32_t>(P[3]) << 24;
  }

  const uint8_t *Data = nullptr;
  size_t Count = 0;
  uint32_t SessionId = 0;
};

/// Encodes the payload of a request message: header + body.
std::vector<uint8_t> encodeRequest(uint32_t RequestId, const PingRequest &R);
std::vector<uint8_t> encodeRequest(uint32_t RequestId,
                                   const LoadMachineRequest &R);
std::vector<uint8_t> encodeRequest(uint32_t RequestId,
                                   const OpenSessionRequest &R);
std::vector<uint8_t> encodeRequest(uint32_t RequestId, const BatchRequest &R);
std::vector<uint8_t> encodeRequest(uint32_t RequestId,
                                   const ScheduleLoopRequest &R);
std::vector<uint8_t> encodeRequest(uint32_t RequestId, const StatsRequest &R);
std::vector<uint8_t> encodeRequest(uint32_t RequestId,
                                   const CloseSessionRequest &R);
std::vector<uint8_t> encodeRequest(uint32_t RequestId,
                                   const ShutdownRequest &R);

/// Encodes an ok response payload: header + ErrorCode::Ok + body.
std::vector<uint8_t> encodeReply(uint32_t RequestId, const PingReply &R);
std::vector<uint8_t> encodeReply(uint32_t RequestId,
                                 const LoadMachineReply &R);
std::vector<uint8_t> encodeReply(uint32_t RequestId, const OpenSessionReply &R);
std::vector<uint8_t> encodeReply(uint32_t RequestId, const BatchReply &R);
std::vector<uint8_t> encodeReply(uint32_t RequestId,
                                 const ScheduleLoopReply &R);
std::vector<uint8_t> encodeReply(uint32_t RequestId, const StatsReply &R);
std::vector<uint8_t> encodeReply(uint32_t RequestId,
                                 const CloseSessionReply &R);
std::vector<uint8_t> encodeReply(uint32_t RequestId, const ShutdownReply &R);

/// Offset of the first result byte in an ok Batch reply payload: header,
/// u16 status, u32 count.
inline constexpr size_t kBatchResultsOffset = 8 + 2 + 4;

/// An ok Batch reply payload for \p Count events whose result bytes, from
/// kBatchResultsOffset on, are zero for the caller to fill in place.
std::vector<uint8_t> encodeBatchReply(uint32_t RequestId, uint32_t Count);

/// Encodes an error response payload for message type \p Type (the request
/// bit; the response bit is added here): header + code + message.
std::vector<uint8_t> encodeErrorReply(uint32_t RequestId, MessageType Type,
                                      const Status &Error);

/// Decodes and validates the payload header (version, reserved word).
/// \p ExpectResponse selects which direction's type namespace is legal.
Expected<FrameHeader> decodeHeader(WireReader &In, bool ExpectResponse);

/// Per-type body decoders; the header must already be consumed. Each
/// rejects trailing bytes, so a decoded message accounts for every byte of
/// its payload.
Expected<PingRequest> decodePingRequest(WireReader &In);
Expected<LoadMachineRequest> decodeLoadMachineRequest(WireReader &In);
Expected<OpenSessionRequest> decodeOpenSessionRequest(WireReader &In);
Expected<BatchRequest> decodeBatchRequest(WireReader &In);
/// The Batch body without the copy: decodeBatchRequest is this plus one
/// pass that materializes the events. Errors (truncated body, count that
/// does not match the body size, unknown verb with its event index) are
/// the same for both.
Expected<BatchRecords> decodeBatchRecords(WireReader &In);
Expected<ScheduleLoopRequest> decodeScheduleLoopRequest(WireReader &In);
Expected<StatsRequest> decodeStatsRequest(WireReader &In);
Expected<CloseSessionRequest> decodeCloseSessionRequest(WireReader &In);
Expected<ShutdownRequest> decodeShutdownRequest(WireReader &In);

/// Decodes a response payload's error-code prefix after the header into
/// \p ServerStatus (ok when the wire code is 0, the reconstructed failure
/// otherwise — including the rest of the payload, which an error response
/// owns entirely). Returns ProtocolError when the prefix itself is
/// malformed, leaving \p ServerStatus untouched.
Status decodeReplyStatus(WireReader &In, Status &ServerStatus);

/// Ok-path reply body decoders (after header + ok status).
Expected<PingReply> decodePingReply(WireReader &In);
Expected<LoadMachineReply> decodeLoadMachineReply(WireReader &In);
Expected<OpenSessionReply> decodeOpenSessionReply(WireReader &In);
Expected<BatchReply> decodeBatchReply(WireReader &In);
Expected<ScheduleLoopReply> decodeScheduleLoopReply(WireReader &In);
Expected<StatsReply> decodeStatsReply(WireReader &In);
Expected<CloseSessionReply> decodeCloseSessionReply(WireReader &In);
Expected<ShutdownReply> decodeShutdownReply(WireReader &In);

/// Writes \p Size payload bytes to the stream socket \p Fd as one frame:
/// the u32 length prefix and the payload go out in a single sendmsg (two
/// iovecs), and a short write is finished by further calls. MSG_NOSIGNAL
/// turns a vanished peer into EPIPE instead of SIGPIPE. Returns 0, or the
/// errno of the call that failed.
int writeFrame(int Fd, const uint8_t *Payload, size_t Size);

} // namespace wire
} // namespace rmd

#endif // RMD_SERVER_PROTOCOL_H
