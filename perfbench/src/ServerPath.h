//===- perfbench/src/ServerPath.h - Closed-loop server batches --*- C++ -*-===//
///
/// \file
/// The serve path: an in-process RmdServer (2 workers) and two client
/// connections, one linear-mode session on cydra5 and one on mips-r3000.
/// The server's threads and the clients share one CPU: on a virtual
/// machine, waking a thread on another, idle virtual CPU waits on the
/// host's scheduler, and that wait swamped the figures being measured.
/// Each client is a scheduler waiting on its reply (closed loop) and
/// replays a cycle of 4096-event batches generated, with their expected
/// answers, at set-up from the seed. The first batch of the cycle starts
/// with a Reset, so the cycle replays with the same answers forever.
///
//===----------------------------------------------------------------------===//

#ifndef RMDBENCH_SERVERPATH_H
#define RMDBENCH_SERVERPATH_H

#include "Measure.h"
#include "SchedulePath.h"

#include "server/Client.h"
#include "server/MachineRegistry.h"
#include "server/Server.h"

#include <memory>
#include <sched.h>
#include <string>
#include <vector>

namespace rmdbench {

/// Pins the calling thread to one CPU for its lifetime, then restores its
/// previous affinity. Threads it creates meanwhile inherit the pin.
class PinToCpu {
public:
  explicit PinToCpu(int Cpu);
  ~PinToCpu();
  PinToCpu(const PinToCpu &) = delete;
  PinToCpu &operator=(const PinToCpu &) = delete;

private:
  cpu_set_t Saved;
  bool Pinned = false;
};

/// One client's pre-generated traffic.
struct ClientStream {
  std::string Machine;
  std::vector<rmd::wire::BatchRequest> Batches;
  std::vector<std::vector<uint8_t>> Expected;
  std::unique_ptr<rmd::server::LoadedMachine> Local; ///< the server's mirror
  std::unique_ptr<rmd::server::RmdClient> Client;
  size_t Next = 0; ///< cursor into the cycle
};

struct ServerRound {
  double WallMs = 0;
  uint64_t Events = 0;
  std::vector<double> LatencyUs;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::string Error; ///< first wrong answer or failed request
};

class ServerPath {
public:
  static constexpr size_t kBatchEvents = 4096;
  static constexpr size_t kCycleBatches = 64;

  /// Generates the traffic from \p Seed, starts the server, connects the
  /// clients, loads the machines and opens the sessions. Empty on failure
  /// (\p Why says what failed).
  static std::unique_ptr<ServerPath> setUp(uint64_t Seed, unsigned Instance,
                                           int Cpu, std::string &Why);
  ~ServerPath();
  ServerPath(const ServerPath &) = delete;
  ServerPath &operator=(const ServerPath &) = delete;

  /// Digest of every generated batch and expected answer.
  uint64_t inputDigest() const;
  /// The same digest for the traffic \p Seed would generate, without
  /// starting a server (the held-out determinism check).
  uint64_t inputDigestFor(uint64_t Seed) const;

  double loadMachineMs() const { return LoadMachineMs; }
  double openSessionUs() const { return OpenSessionUs; }

  /// Every client sends \p BatchesPerClient batches back to back, all
  /// clients at once; each reply is checked against its expected answer.
  ServerRound runRound(size_t BatchesPerClient);

  /// Median empty round trip over \p N pings. Each call into the client
  /// or the codec below gets a span when \p Log is non-null.
  double pingUs(int N, SpanLog *Log);
  /// Median per batch of request encode + decode and reply encode +
  /// decode over the cycles of both clients. False when a decoded message
  /// differs from what was encoded.
  bool codecUs(double &Us, std::string &Why, SpanLog *Log);
  /// Median per batch of executing the cycles on local modules built as
  /// the server builds them. False on a wrong answer.
  bool executeUs(double &Us, std::string &Why, SpanLog *Log);
  /// Replays the cydra5 cycle through TimedQueryModule around a fresh
  /// module of representation \p R over the same reduced description.
  void replayTimed(Rep R, QueryTally &Tally);

  rmd::Expected<rmd::wire::StatsReply> serverStats();

private:
  ServerPath() = default;

  std::unique_ptr<rmd::server::RmdServer> Server;
  std::vector<ClientStream> Streams;
  double LoadMachineMs = 0;
  double OpenSessionUs = 0;
  int Cpu = 0; ///< where the server's threads and the clients run
};

} // namespace rmdbench

#endif // RMDBENCH_SERVERPATH_H
