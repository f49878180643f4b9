//===- server/MachineRegistry.h - Load-once machine registry ---*- C++ -*-===//
///
/// \file
/// The server's immutable machine store. Each named machine is loaded at
/// most once: the model is expanded, reduced through the existing pipeline
/// (reduceMachineOrFallback — a failed reduction degrades to the original
/// description, Theorem 1 guarantees identical constraints), and frozen.
/// Everything a session needs afterwards is read-only: the reduced
/// description, the alternative grouping, and per-configuration bitvector
/// pattern arenas built on first use and shared by every session over the
/// same (machine, addressing config). The arenas live in the machine's
/// BitvectorArenaCache (query/PatternArena.h), the same cache the IMS module
/// factory uses.
///
//===----------------------------------------------------------------------===//

#ifndef RMD_SERVER_MACHINEREGISTRY_H
#define RMD_SERVER_MACHINEREGISTRY_H

#include "machines/MachineModel.h"
#include "mdesc/MachineDescription.h"
#include "query/PatternArena.h"
#include "query/QueryModule.h"
#include "support/Status.h"

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace rmd {
namespace server {

/// One loaded machine; immutable after load (the arena cache behind
/// arenaFor() is internally synchronized and append-only). Not movable: the
/// cache refers to Reduced.
class LoadedMachine {
public:
  LoadedMachine(std::string Name, MachineModel Model);

  uint32_t id() const { return Id; }
  const std::string &name() const { return Name; }
  const MachineModel &model() const { return Model; }
  const MachineDescription &reduced() const { return Reduced; }
  const std::vector<std::vector<OpId>> &groups() const { return EM.Groups; }

  /// True when the reduction fell back to the original description.
  bool degraded() const { return Degraded; }
  const Status &degradedWhy() const { return Why; }

  /// True when sessions use the bitvector representation (the reduced
  /// description fits a 64-bit word); otherwise they run discrete.
  bool usesBitvector() const { return UseBitvector; }

  /// The shared pattern arena for \p Config (bitvector machines only);
  /// built on first request, then reused by every later session with the
  /// same addressing parameters. Counts server.arena.builds / .hits.
  std::shared_ptr<const BitvectorPatternArena>
  arenaFor(const QueryConfig &Config) const;

  /// A fresh query module over the reduced description — bitvector with
  /// the shared arena when the machine fits a word, discrete otherwise.
  std::unique_ptr<ContentionQueryModule>
  makeModule(const QueryConfig &Config) const;

private:
  friend class MachineRegistry; // assigns Id at registration
  uint32_t Id = 0;
  std::string Name;
  MachineModel Model;
  ExpandedMachine EM;
  MachineDescription Reduced;
  bool Degraded = false;
  Status Why;
  bool UseBitvector = false;

  BitvectorArenaCache Arenas{Reduced};
};

/// Name-keyed store of LoadedMachines. load() is idempotent per name and
/// thread-safe; lookups return pointers that stay valid for the registry's
/// lifetime (machines are never evicted — the corpus is small and a server
/// restart is the reload path).
class MachineRegistry {
public:
  /// Loads \p Name (or returns the already-loaded instance). The names are
  /// the machine catalog's (machineNames()). Fails with ProtocolError on an
  /// unknown name; reduction failures never surface
  /// here — they degrade to the original description with degraded() set.
  Expected<const LoadedMachine *> load(const std::string &Name);

  /// The machine with \p Id, or null.
  const LoadedMachine *byId(uint32_t Id) const;

  size_t size() const;

private:
  mutable std::mutex Mutex;
  std::map<std::string, uint32_t> IdByName;
  std::vector<std::unique_ptr<LoadedMachine>> Machines; // index = id - 1
};

} // namespace server
} // namespace rmd

#endif // RMD_SERVER_MACHINEREGISTRY_H
