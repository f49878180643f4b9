//===- machines/MachineCatalog.cpp ----------------------------------------===//

#include "machines/MachineCatalog.h"

#include "EmbeddedMachines.h"
#include "machines/MdlModel.h"

using namespace rmd;

namespace {

constexpr MachineCatalogEntry Catalog[] = {
    {"fig1", embedded::fig1},
    {"cydra5", embedded::cydra5},
    {"alpha21064", embedded::alpha21064},
    {"mips-r3000", embedded::mips_r3000_r3010},
    {"toy-vliw", embedded::toyvliw},
    {"playdoh", embedded::playdoh},
    {"m88100", embedded::m88100},
};

/// The catalog text is checked by MachineCatalogTest, so a lookup by a
/// built-in name cannot fail.
MachineModel builtin(std::string_view Name) {
  return machineByName(Name).take();
}

} // namespace

std::span<const MachineCatalogEntry> rmd::machineCatalog() { return Catalog; }

const std::vector<std::string> &rmd::machineNames() {
  static const std::vector<std::string> Names = [] {
    std::vector<std::string> Out;
    for (const MachineCatalogEntry &E : Catalog)
      Out.emplace_back(E.Name);
    return Out;
  }();
  return Names;
}

Expected<MachineModel> rmd::machineByName(std::string_view Name) {
  for (const MachineCatalogEntry &E : Catalog) {
    if (E.Name != Name)
      continue;
    DiagnosticEngine Diags;
    std::optional<MachineModel> Model = parseMdlModel(E.Mdl, Diags);
    if (!Model)
      return Status(ErrorCode::ParseError,
                    "built-in machine '" + std::string(Name) +
                        "' does not parse");
    return std::move(*Model);
  }
  std::string Known;
  for (const std::string &N : machineNames())
    Known += (Known.empty() ? "" : ", ") + N;
  return Status(ErrorCode::ProtocolError, "unknown machine '" +
                                              std::string(Name) +
                                              "' (known: " + Known + ")");
}

MachineDescription rmd::makeFig1Machine() { return builtin("fig1").MD; }
MachineModel rmd::makeCydra5() { return builtin("cydra5"); }
MachineModel rmd::makeAlpha21064() { return builtin("alpha21064"); }
MachineModel rmd::makeMipsR3000() { return builtin("mips-r3000"); }
MachineModel rmd::makeToyVliw() { return builtin("toy-vliw"); }
MachineModel rmd::makePlayDoh() { return builtin("playdoh"); }
MachineModel rmd::makeM88100() { return builtin("m88100"); }
