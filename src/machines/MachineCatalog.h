//===- machines/MachineCatalog.h - The built-in machines -------*- C++ -*-===//
///
/// \file
/// The catalog of built-in machine models. Each entry is the text of one
/// `machines/*.mdl` file, embedded at build time, under the name clients
/// use to ask for it (the server protocol, the bench tools, `imsched
/// --machine=`). Lookups parse the text on every call; there is no cache.
///
//===----------------------------------------------------------------------===//

#ifndef RMD_MACHINES_MACHINECATALOG_H
#define RMD_MACHINES_MACHINECATALOG_H

#include "machines/MachineModel.h"
#include "support/Status.h"

#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace rmd {

struct MachineCatalogEntry {
  /// Lookup name ("fig1", "cydra5", ..., "mips-r3000", "toy-vliw").
  std::string_view Name;
  /// The annotated MDL text of the machine's `machines/*.mdl` file.
  std::string_view Mdl;
};

/// Every built-in machine, in catalog order.
std::span<const MachineCatalogEntry> machineCatalog();

/// The lookup names, in catalog order.
const std::vector<std::string> &machineNames();

/// Parses the catalog machine called \p Name. An unknown name is a
/// ProtocolError listing the known names.
Expected<MachineModel> machineByName(std::string_view Name);

} // namespace rmd

#endif // RMD_MACHINES_MACHINECATALOG_H
