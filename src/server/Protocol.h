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
/// identical bytes (tests/ServerProtocolTest round-trips every type and
/// pins the bytes of every non-Batch message). Each non-Batch body is
/// described once, by its fields() schema below.
///
/// Batch, the hot message, has a bulk fixed-width codec: its request body
/// is u32 SessionId, u32 Count and Count packed kBatchEventBytes records
/// (u8 verb, u32 op, i32 cycle, i32 instance); its reply body is u32 Count
/// and one result byte per event. The encoders size the payload once and
/// store records directly; decodeBatchRecords checks the count against
/// the body size and every verb byte once, then hands out the records in
/// place (BatchRecords), which is how the server executes a batch without
/// copying it. writeFrame sends a frame with one sendmsg; readFrame reads
/// one and checks its length prefix.
///
//===----------------------------------------------------------------------===//

#ifndef RMD_SERVER_PROTOCOL_H
#define RMD_SERVER_PROTOCOL_H

#include "query/QueryModule.h"
#include "support/Status.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
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

/// Whether \p Bare (a type byte without kResponseBit) names a MessageType.
constexpr bool isMessageType(uint8_t Bare) {
  return Bare >= static_cast<uint8_t>(MessageType::Ping) &&
         Bare <= static_cast<uint8_t>(MessageType::Shutdown);
}

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
// Message binding
//===----------------------------------------------------------------------===//

/// Binds a message type to its request and reply bodies.
template <MessageType M, class Req, class Rep> struct Message {
  static constexpr MessageType Type = M;
  using Request = Req;
  using Reply = Rep;
};

/// Every message of rmd-wire-v1: the one place a MessageType is bound to
/// its request and reply structs.
using Messages = std::tuple<
    Message<MessageType::Ping, PingRequest, PingReply>,
    Message<MessageType::LoadMachine, LoadMachineRequest, LoadMachineReply>,
    Message<MessageType::OpenSession, OpenSessionRequest, OpenSessionReply>,
    Message<MessageType::Batch, BatchRequest, BatchReply>,
    Message<MessageType::ScheduleLoop, ScheduleLoopRequest, ScheduleLoopReply>,
    Message<MessageType::Stats, StatsRequest, StatsReply>,
    Message<MessageType::CloseSession, CloseSessionRequest, CloseSessionReply>,
    Message<MessageType::Shutdown, ShutdownRequest, ShutdownReply>>;

namespace detail {
/// Index in Messages of the binding whose request or reply is \p T.
template <class T, class... Ms>
constexpr size_t messageIndex(std::tuple<Ms...> *) {
  constexpr bool Is[] = {(std::is_same_v<T, typename Ms::Request> ||
                          std::is_same_v<T, typename Ms::Reply>)...};
  return std::find(std::begin(Is), std::end(Is), true) - std::begin(Is);
}

/// The little-endian u32 at \p P.
inline uint32_t load32(const uint8_t *P) {
  return static_cast<uint32_t>(P[0]) | static_cast<uint32_t>(P[1]) << 8 |
         static_cast<uint32_t>(P[2]) << 16 | static_cast<uint32_t>(P[3]) << 24;
}
} // namespace detail

/// The Message binding of request or reply struct \p T.
template <class T>
using MessageOf = std::tuple_element_t<
    detail::messageIndex<T>(static_cast<Messages *>(nullptr)), Messages>;

/// Calls \p F with the Message binding of \p Type.
template <class Fn> void withMessage(MessageType Type, Fn &&F) {
  std::apply(
      [&](auto... Ms) {
        ((decltype(Ms)::Type == Type ? F(Ms) : void()), ...);
      },
      Messages{});
}

//===----------------------------------------------------------------------===//
// Body schemas
//===----------------------------------------------------------------------===//
//
// fields(F, Body) lists a non-Batch body's fields in wire order; it is the
// one place that layout lives. The encoders run it with a WireWriter (on a
// const body), the decoders with a FieldReader. Field kinds: u8, flag (a u8
// that must be 0 or 1), u32, i32, u64, str, and i32s (a u32 count, then
// that many i32). Bodies with no fields share the empty schema.

/// \p B is \p T or const \p T.
template <class B, class T>
concept Body = std::is_same_v<std::remove_const_t<B>, T>;

template <class V, class B>
  requires std::is_empty_v<B>
void fields(V &, B &) {}

template <class V> void fields(V &F, Body<LoadMachineRequest> auto &R) {
  F.str(R.Name);
}

template <class V> void fields(V &F, Body<OpenSessionRequest> auto &R) {
  F.u32(R.MachineId);
  F.flag(R.Modulo);
  F.flag(R.UnionAlt);
  F.i32(R.ModuloII);
  F.i32(R.MinCycle);
  F.str(R.Tenant);
}

template <class V> void fields(V &F, Body<ScheduleLoopRequest> auto &R) {
  F.u32(R.MachineId);
  F.i32(R.BudgetRatio);
  F.i32(R.MaxII);
  F.i32(R.DeadlineMs);
  F.str(R.GraphText);
}

template <class V> void fields(V &F, Body<StatsRequest> auto &R) {
  F.u32(R.SessionId);
}

template <class V> void fields(V &F, Body<CloseSessionRequest> auto &R) {
  F.u32(R.SessionId);
}

template <class V> void fields(V &F, Body<LoadMachineReply> auto &R) {
  F.u32(R.MachineId);
  F.u8(R.Degraded);
  F.u8(R.Bitvector);
  F.u32(R.NumOperations);
  F.u32(R.OriginalResources);
  F.u32(R.ReducedResources);
}

template <class V> void fields(V &F, Body<OpenSessionReply> auto &R) {
  F.u32(R.SessionId);
}

template <class V> void fields(V &F, Body<ScheduleLoopReply> auto &R) {
  F.u8(R.Success);
  F.u8(R.Outcome);
  F.i32(R.II);
  F.i32s(R.Time);
  F.i32s(R.Alternative);
  F.str(R.Message);
}

template <class V> void fields(V &F, Body<StatsReply> auto &R) {
  // The flag selects the shape, so a bad one is reported before the body
  // it would select is read.
  if (!F.flag(R.ServerWide))
    return;
  if (R.ServerWide) {
    F.u64(R.Server.ActiveSessions);
    F.u64(R.Server.MachinesLoaded);
    F.u64(R.Server.RequestsServed);
    F.u64(R.Server.OverloadRejections);
    F.u64(R.Server.ProtocolErrors);
    return;
  }
  auto &C = R.Session.Counters;
  F.u64(C.CheckCalls);
  F.u64(C.CheckUnits);
  F.u64(C.AssignCalls);
  F.u64(C.AssignUnits);
  F.u64(C.FreeCalls);
  F.u64(C.FreeUnits);
  F.u64(C.AssignFreeCalls);
  F.u64(C.AssignFreeUnits);
  F.u64(C.TransitionUnits);
  F.u64(R.Session.LiveInstances);
}

//===----------------------------------------------------------------------===//
// Encoding / decoding
//===----------------------------------------------------------------------===//

/// Append-only little-endian payload writer; also the schema writer.
class WireWriter {
public:
  void reserve(size_t N) { Bytes.reserve(N); }
  void u8(uint8_t V) { put(V); }
  void u16(uint16_t V) { put(V); }
  void u32(uint32_t V) { put(V); }
  void u64(uint64_t V) { put(V); }
  void i32(int32_t V) { put(static_cast<uint32_t>(V)); }
  void str(const std::string &S);
  bool flag(uint8_t V) {
    u8(V);
    return true;
  }
  void i32s(const std::vector<int32_t> &V);
  /// Appends \p N zero bytes and returns where they start, for a caller
  /// that stores fixed-width records directly.
  uint8_t *extend(size_t N);

  std::vector<uint8_t> take() { return std::move(Bytes); }

private:
  template <class T> void put(T V) {
    for (size_t I = 0; I < sizeof(T); ++I)
      Bytes.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }

  std::vector<uint8_t> Bytes;
};

/// Bounds-checked little-endian payload reader. Every accessor returns
/// false (leaving the output untouched) instead of reading past the end.
class WireReader {
public:
  WireReader(const uint8_t *Data, size_t Size) : Data(Data), Size(Size) {}
  explicit WireReader(const std::vector<uint8_t> &Payload)
      : Data(Payload.data()), Size(Payload.size()) {}

  bool u8(uint8_t &V) { return get(V); }
  bool u16(uint16_t &V) { return get(V); }
  bool u32(uint32_t &V) { return get(V); }
  bool u64(uint64_t &V) { return get(V); }
  bool i32(int32_t &V) { return get(V); }
  bool str(std::string &S);
  /// Hands out the next \p N bytes in place, without copying, and moves
  /// past them; false (leaving \p Out untouched) when fewer remain.
  bool bytes(size_t N, std::span<const uint8_t> &Out);

  size_t remaining() const { return Size - Pos; }
  bool atEnd() const { return Pos == Size; }

private:
  template <class T> bool get(T &V) {
    if (remaining() < sizeof(T))
      return false;
    std::make_unsigned_t<T> Got = 0;
    for (size_t I = 0; I < sizeof(T); ++I)
      Got |= static_cast<decltype(Got)>(Data[Pos++]) << (8 * I);
    V = static_cast<T>(Got);
    return true;
  }

  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
};

/// The schema reader. The first failure sticks: later fields read nothing
/// and finish() reports it, so the earliest problem in wire order wins,
/// with one exception: a flag byte other than 0 or 1 is reported only
/// when the whole body read cleanly (a truncation anywhere wins over it).
class FieldReader {
public:
  explicit FieldReader(WireReader &In) : In(In) {}

  void u8(uint8_t &V) { need(!Error && In.u8(V)); }
  void u32(uint32_t &V) { need(!Error && In.u32(V)); }
  void u64(uint64_t &V) { need(!Error && In.u64(V)); }
  void i32(int32_t &V) { need(!Error && In.i32(V)); }
  void str(std::string &S) { need(!Error && In.str(S)); }
  /// Reads a flag; false once the body is truncated or this or an earlier
  /// flag is not 0 or 1, for a schema that branches on the flag.
  bool flag(uint8_t &V);
  /// Rejects a count the rest of the body cannot hold before sizing \p V.
  void i32s(std::vector<int32_t> &V);

  /// The body's error, in the order described above, then trailing bytes.
  Status finish() const;

private:
  void need(bool Read) {
    if (!Read && !Error)
      Error = "truncated message body";
  }

  WireReader &In;
  const char *Error = nullptr;
  bool BadFlag = false;
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
    return {static_cast<Verb>(P[0]), detail::load32(P + 1),
            static_cast<int32_t>(detail::load32(P + 5)),
            static_cast<int32_t>(detail::load32(P + 9))};
  }

private:
  friend Expected<BatchRecords> decodeBatchRecords(WireReader &In);

  const uint8_t *Data = nullptr;
  size_t Count = 0;
  uint32_t SessionId = 0;
};

/// A writer holding the payload header of a \p Type request, or response
/// when \p Response, with room reserved for \p Size payload bytes.
WireWriter startPayload(MessageType Type, bool Response, uint32_t RequestId,
                        size_t Size = 0);

/// Encodes the payload of a request message: header + body.
template <class T>
std::vector<uint8_t> encodeRequest(uint32_t RequestId, const T &R) {
  static_assert(std::is_same_v<T, typename MessageOf<T>::Request>);
  WireWriter Out = startPayload(MessageOf<T>::Type, false, RequestId);
  fields(Out, R);
  return Out.take();
}
std::vector<uint8_t> encodeRequest(uint32_t RequestId, const BatchRequest &R);

/// Encodes an ok response payload: header + ErrorCode::Ok + body.
template <class T>
std::vector<uint8_t> encodeReply(uint32_t RequestId, const T &R) {
  static_assert(std::is_same_v<T, typename MessageOf<T>::Reply>);
  WireWriter Out = startPayload(MessageOf<T>::Type, true, RequestId);
  Out.u16(0); // ErrorCode::Ok
  fields(Out, R);
  return Out.take();
}
std::vector<uint8_t> encodeReply(uint32_t RequestId, const BatchReply &R);

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

/// The Batch bodies; the header must already be consumed. Each rejects
/// trailing bytes, as decodeBody does.
Expected<BatchRequest> decodeBatchRequest(WireReader &In);
Expected<BatchReply> decodeBatchReply(WireReader &In);
/// The Batch request body without the copy: decodeBatchRequest is this
/// plus one pass that materializes the events. Errors (truncated body,
/// count that does not match the body size, unknown verb with its event
/// index) are the same for both.
Expected<BatchRecords> decodeBatchRecords(WireReader &In);

/// Decodes the body of request or ok reply \p T; the header, and for a
/// reply the status prefix, must already be consumed. Rejects trailing
/// bytes, so a decoded message accounts for every byte of its payload.
/// Batch bodies go to their bulk decoders.
template <class T> Expected<T> decodeBody(WireReader &In) {
  if constexpr (std::is_same_v<T, BatchRequest>) {
    return decodeBatchRequest(In);
  } else if constexpr (std::is_same_v<T, BatchReply>) {
    return decodeBatchReply(In);
  } else {
    T Value;
    FieldReader F(In);
    fields(F, Value);
    if (Status S = F.finish(); !S)
      return S;
    return Value;
  }
}

/// Decodes a response payload's error-code prefix after the header into
/// \p ServerStatus (ok when the wire code is 0, the reconstructed failure
/// otherwise — including the rest of the payload, which an error response
/// owns entirely). Returns ProtocolError when the prefix itself is
/// malformed, leaving \p ServerStatus untouched.
Status decodeReplyStatus(WireReader &In, Status &ServerStatus);

//===----------------------------------------------------------------------===//
// Sockets and framing
//===----------------------------------------------------------------------===//

/// Opens a stream socket on the local address \p Path and connects it,
/// or binds it and listens when \p Listen. A leading '@' selects the Linux
/// abstract namespace: the name is not on the filesystem, so tests and
/// benches never create socket files. Returns the descriptor, or the
/// error of the step that failed (the descriptor is then closed).
Expected<int> openLocalSocket(const std::string &Path, bool Listen);

/// Writes \p Size payload bytes to the stream socket \p Fd as one frame:
/// the u32 length prefix and the payload go out in a single sendmsg (two
/// iovecs), and a short write is finished by further calls. MSG_NOSIGNAL
/// turns a vanished peer into EPIPE instead of SIGPIPE. Returns 0, or the
/// errno of the call that failed.
int writeFrame(int Fd, const uint8_t *Payload, size_t Size);

/// readFrame results besides 0 and an errno.
inline constexpr int kPeerClosed = -1;    ///< the stream ended first
inline constexpr int kBadFrameLength = -2; ///< prefix outside (0, max]

/// Reads one frame from the stream socket \p Fd into \p Payload: the u32
/// length prefix, stored in \p Length and checked against (0,
/// kMaxFrameBytes] before anything is sized from it, then exactly that
/// many bytes, retrying EINTR. Returns 0, kPeerClosed, kBadFrameLength (no
/// payload byte read), or the errno of the recv that failed.
int readFrame(int Fd, std::vector<uint8_t> &Payload, uint32_t &Length);

} // namespace wire
} // namespace rmd

#endif // RMD_SERVER_PROTOCOL_H
