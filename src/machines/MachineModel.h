//===- machines/MachineModel.h - Machines + scheduling metadata -*- C++ -*-===//
///
/// \file
/// A MachineModel bundles a machine description with the scheduling
/// metadata the paper's experiments need beyond structural hazards: per
/// operation, the producer latency (cycles until a dependent consumer may
/// issue) and a coarse role used to bind machine-agnostic workload kernels
/// to concrete operations.
///
/// The built-in machines below are defined by the `machines/*.mdl` files,
/// which are embedded at build time (machines/MachineCatalog.h); each
/// accessor parses its file. The three evaluation machines (Cydra 5, DEC
/// Alpha 21064, MIPS R3000/R3010) are reconstructions: the original
/// descriptions are unpublished, so each model reproduces the published
/// machine structure and the resource-usage idioms the paper highlights
/// (deep pipelines, partially pipelined stages, non-pipelined dividers,
/// shared buses, alternative ports). Each file's leading comment gives its
/// rationale; see DESIGN.md for the substitution argument.
///
//===----------------------------------------------------------------------===//

#ifndef RMD_MACHINES_MACHINEMODEL_H
#define RMD_MACHINES_MACHINEMODEL_H

#include "mdesc/MachineDescription.h"

#include <vector>

namespace rmd {

/// Coarse operation roles used by the workload generator.
enum class OpRole {
  IntAlu,
  AddrCalc,
  Load,
  Store,
  FloatAdd,
  FloatMul,
  FloatDiv,
  Convert,
  Compare,
  Move,
  Branch,
};

/// A machine description plus scheduling metadata, indexed by the
/// *original* (pre-expansion) operation ids of MD.
struct MachineModel {
  MachineDescription MD;

  /// Latency[op]: cycles from issue of op until a data-dependent consumer
  /// may issue.
  std::vector<int> Latency;

  /// Role[op]: coarse role for workload binding.
  std::vector<OpRole> Role;

  /// Operations that play \p R, in id order (empty if the machine has no
  /// such operation).
  std::vector<OpId> operationsWithRole(OpRole R) const {
    std::vector<OpId> Ops;
    for (OpId Op = 0; Op < Role.size(); ++Op)
      if (Role[Op] == R)
        Ops.push_back(Op);
    return Ops;
  }
};

/// The paper's Figure 1 example machine: operations A (fully pipelined) and
/// B (partially pipelined) over 5 resources.
MachineDescription makeFig1Machine();

/// Reconstruction of the Cydra 5 (Beck/Yen/Anderson '93): 7 functional
/// units (2 memory ports, 2 address/integer units, FP adder, FP multiplier,
/// branch), shared result buses and register write ports, iterative
/// divide/sqrt on the multiplier. Rich in alternatives.
MachineModel makeCydra5();

/// Reconstruction of the DEC Alpha 21064: dual issue (one integer/memory/
/// branch pipe + one floating pipe), non-pipelined integer multiplier,
/// non-pipelined FP divider (the source of ~58-cycle forbidden latencies).
MachineModel makeAlpha21064();

/// Reconstruction of the MIPS R3000 with R3010 FPA: single issue, FP
/// add/mul/div sharing unpack/pack stages, partially pipelined multiplier,
/// long non-pipelined divider (source of ~34-cycle forbidden latencies).
MachineModel makeMipsR3000();

/// A small 3-issue VLIW used by tests: enough structure to exercise
/// alternatives, shared buses, and multi-cycle stages while staying easy to
/// reason about by hand.
MachineModel makeToyVliw();

/// An HPL PlayDoh-style EPIC research machine (Kathail/Schlansker/Rau,
/// HPL-93-80): 2 integer + 2 memory + 2 FP units + branch, shared
/// register-file write ports, four-way alternatives on most operations.
/// Stresses the alternative-operation machinery.
MachineModel makePlayDoh();

/// Reconstruction of the Motorola 88100 (the target of Mueller's
/// automaton scheduling paper, MICRO-26): single issue, concurrent
/// integer/data/FP units, partially pipelined FP multiply, non-pipelined
/// iterative divide, shared writeback arbitration.
MachineModel makeM88100();

/// A parameterizable VLIW family for scaling studies: \p Units clusters
/// (U-way ALU alternatives), one memory pipeline per two clusters, one
/// shared non-pipelined divider busy \p DivBusy cycles. See
/// bench/scaling_study.cpp.
MachineModel makeScaledVliw(unsigned Units, unsigned DivBusy);

} // namespace rmd

#endif // RMD_MACHINES_MACHINEMODEL_H
