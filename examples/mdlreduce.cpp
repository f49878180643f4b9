//===- examples/mdlreduce.cpp - Machine description reducer tool ----------===//
//
// The command-line face of the library: reads a machine description in the
// MDL text format, reduces it for the requested representation, verifies
// exact forbidden-latency equivalence, and writes the reduced description
// back as MDL. This is the paper's intended workflow: keep the description
// close to the hardware, generate the compiler's internal description
// automatically and error-free.
//
// Usage:
//   mdlreduce [--objective=res-uses | --objective=word:<k>]
//             [--classes] [--stats] [--threads=<n>] [--cache=<dir>]
//             [--emit=mdl | --emit=c++] [--namespace=<ident>]
//             [--faults=<spec>]
//             <input.mdl | ->
//
// With no file (or "-"), reads the paper's Figure 1 machine from the
// built-in catalog (machines/fig1.mdl) so the tool is runnable out of the
// box. --emit=c++
// writes the reduced description as a header of constexpr tables, the
// form a production scheduler would compile in. --cache memoizes
// reductions on disk keyed by machine content + objective (the
// RMD_REDUCTION_CACHE environment variable enables the same cache when
// the flag is absent); --threads=0 uses all hardware threads.
//
// Failures degrade instead of aborting: when reduction (or its
// re-verification) fails, the tool warns on stderr and emits the
// *original* description, which by Theorem 1 imposes identical scheduling
// constraints. --faults arms the deterministic fault-injection registry
// (same spec grammar as RMD_FAULTS; see support/FaultInjection.h) so the
// degradation paths can be exercised on demand; --stats reports any
// degradations taken.
//
//===----------------------------------------------------------------------===//

#include "flm/OperationClasses.h"
#include "machines/MachineCatalog.h"
#include "mdesc/Lint.h"
#include "mdl/CppGen.h"
#include "reduce/Explain.h"
#include "mdl/Parser.h"
#include "mdl/Writer.h"
#include "reduce/Metrics.h"
#include "reduce/Reduction.h"
#include "reduce/ReductionCache.h"
#include "support/Degradation.h"
#include "support/FaultInjection.h"
#include "support/Stats.h"

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

using namespace rmd;

static void usage() {
  std::cerr << "usage: mdlreduce [--objective=res-uses|word:<k>] "
               "[--classes] [--stats] [--explain] [--lint] "
               "[--threads=<n>] [--cache=<dir>] "
               "[--emit=mdl|c++] "
               "[--namespace=<ident>] [--faults=<spec>] "
               "[--stats-json=<file>] [input.mdl]\n";
}

int main(int Argc, char **Argv) {
  // Consumes --stats-json=<path> (or RMD_STATS_JSON) and writes the
  // observability snapshot on exit; see docs/observability.md.
  StatsJsonGuard StatsJson(Argc, Argv, "mdlreduce");
  SelectionObjective Objective = SelectionObjective::resUses();
  bool UseClasses = false;
  bool PrintStats = false;
  bool Explain = false;
  bool Lint = false;
  bool EmitCpp = false;
  std::string CppNamespace = "machine_tables";
  std::string InputPath;
  std::string CacheDir;
  unsigned Threads = 1;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--objective=res-uses") {
      Objective = SelectionObjective::resUses();
    } else if (Arg.rfind("--objective=word:", 0) == 0) {
      int K = std::atoi(Arg.c_str() + sizeof("--objective=word:") - 1);
      if (K < 1) {
        std::cerr << "mdlreduce: error: bad word size in '" << Arg << "'\n";
        return 1;
      }
      Objective = SelectionObjective::wordUses(static_cast<unsigned>(K));
    } else if (Arg == "--emit=mdl") {
      EmitCpp = false;
    } else if (Arg == "--emit=c++") {
      EmitCpp = true;
    } else if (Arg.rfind("--namespace=", 0) == 0) {
      CppNamespace = Arg.substr(sizeof("--namespace=") - 1);
      if (CppNamespace.empty()) {
        std::cerr << "mdlreduce: error: empty namespace\n";
        return 1;
      }
    } else if (Arg.rfind("--cache=", 0) == 0) {
      CacheDir = Arg.substr(sizeof("--cache=") - 1);
      if (CacheDir.empty()) {
        std::cerr << "mdlreduce: error: empty cache directory\n";
        return 1;
      }
    } else if (Arg.rfind("--threads=", 0) == 0) {
      Threads = static_cast<unsigned>(
          std::atoi(Arg.c_str() + sizeof("--threads=") - 1));
    } else if (Arg.rfind("--faults=", 0) == 0) {
      Status S = FaultInjection::instance().configure(
          Arg.substr(sizeof("--faults=") - 1));
      if (!S) {
        std::cerr << "mdlreduce: error: " << S.render() << "\n";
        return 1;
      }
    } else if (Arg == "--classes") {
      UseClasses = true;
    } else if (Arg == "--stats") {
      PrintStats = true;
    } else if (Arg == "--explain") {
      Explain = true;
    } else if (Arg == "--lint") {
      Lint = true;
    } else if (Arg == "--help" || Arg == "-h") {
      usage();
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-' && Arg != "-") {
      std::cerr << "mdlreduce: error: unknown option '" << Arg << "'\n";
      usage();
      return 1;
    } else {
      InputPath = Arg;
    }
  }

  // Read the input.
  std::string Text;
  std::string InputName = "<builtin fig1>";
  if (InputPath.empty() || InputPath == "-") {
    for (const MachineCatalogEntry &E : machineCatalog())
      if (E.Name == "fig1")
        Text = E.Mdl;
  } else {
    std::ifstream In(InputPath);
    if (!In) {
      std::cerr << "mdlreduce: error: cannot open '" << InputPath << "'\n";
      return 1;
    }
    std::ostringstream SS;
    SS << In.rdbuf();
    Text = SS.str();
    InputName = InputPath;
  }

  DiagnosticEngine Diags;
  std::optional<MachineDescription> MD = parseMdl(Text, Diags);
  if (!MD) {
    Diags.print(std::cerr, InputName);
    return 1;
  }

  if (Lint) {
    DiagnosticEngine LintDiags;
    unsigned Warnings = lintMachine(*MD, LintDiags);
    LintDiags.print(std::cerr, InputName);
    std::cerr << "lint: " << Warnings << " warning(s)\n";
  }

  // Remove alternatives, optionally quotient by operation classes.
  MachineDescription Flat = expandAlternatives(*MD).Flat;
  if (UseClasses) {
    ForbiddenLatencyMatrix FLM = ForbiddenLatencyMatrix::compute(Flat);
    Flat = buildClassMachine(Flat, partitionOperationClasses(FLM));
  }

  ReductionOptions Options;
  Options.Objective = Objective;
  Options.Threads = Threads;

  std::optional<ReductionCache> Cache =
      CacheDir.empty() ? ReductionCache::fromEnvironment()
                       : std::make_optional(ReductionCache(CacheDir));
  bool CacheHit = false;
  SafeReduction Safe = reduceMachineOrFallback(
      Flat, Options, Cache ? &*Cache : nullptr, &CacheHit);
  if (Safe.Degraded)
    std::cerr << "mdlreduce: warning: " << Safe.Why.render()
              << "; emitting the original description (identical "
                 "constraints, more per-query work)\n";
  ReductionResult &Result = Safe.Result;

  if (PrintStats) {
    if (Cache)
      std::cerr << "cache:  " << (CacheHit ? "hit" : "miss") << " ("
                << Cache->directory() << ")\n";
    std::cerr << "input:  " << Flat.numResources() << " resources, "
              << Flat.numOperations() << " operations, "
              << Flat.totalUsages() << " usages\n";
    std::cerr << "output: " << Result.Reduced.numResources()
              << " resources, " << Result.Reduced.totalUsages()
              << " usages (generating set " << Result.GeneratingSetSize
              << ", pruned " << Result.PrunedSetSize << ", "
              << Result.CoveredLatencies << " forbidden latencies)\n";
    std::cerr << "avg res usages/op: "
              << averageResUsesPerOperation(Flat) << " -> "
              << averageResUsesPerOperation(Result.Reduced) << "\n";
    std::cerr << "degradations: " << globalDegradation().snapshot() << "\n";
  }

  if (Explain)
    printReductionReport(std::cerr,
                         explainReduction(Flat, Result.Reduced),
                         Result.Reduced);

  if (EmitCpp)
    std::cout << writeCppTables(Result.Reduced, CppNamespace);
  else
    std::cout << writeMdl(Result.Reduced);
  return 0;
}
