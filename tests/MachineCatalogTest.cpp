//===- tests/MachineCatalogTest.cpp - The built-in machine catalog --------===//
//
// The machines/*.mdl files are the only definition of the built-in
// machines: the catalog embeds them at build time. These tests tie the
// embedded text to the files on disk, pin the lookup names the server and
// the tools accept, and pin the reduced description of every catalog
// machine against tests/golden/reduced/<name>.mdl byte for byte.
//
//===----------------------------------------------------------------------===//

#include "machines/MachineCatalog.h"
#include "machines/MdlModel.h"
#include "mdl/Writer.h"
#include "reduce/Reduction.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

using namespace rmd;
namespace fs = std::filesystem;

#ifndef RMD_SOURCE_DIR
#define RMD_SOURCE_DIR "."
#endif

namespace {

std::string readFile(const fs::path &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

const fs::path MachineDir = fs::path(RMD_SOURCE_DIR) / "machines";

} // namespace

TEST(MachineCatalog, EmbeddedTextMatchesFiles) {
  // Entry E is the file machines/<machine name>.mdl, and every file there
  // is an entry.
  std::set<std::string> OnDisk;
  for (const fs::directory_entry &F : fs::directory_iterator(MachineDir))
    if (F.path().extension() == ".mdl")
      OnDisk.insert(F.path().stem().string());

  std::set<std::string> InCatalog;
  for (const MachineCatalogEntry &E : machineCatalog()) {
    DiagnosticEngine Diags;
    std::optional<MachineModel> Model = parseMdlModel(E.Mdl, Diags);
    ASSERT_TRUE(Model.has_value()) << E.Name;
    fs::path Path = MachineDir / (Model->MD.name() + ".mdl");
    ASSERT_TRUE(fs::exists(Path)) << E.Name << ": no file " << Path;
    EXPECT_EQ(readFile(Path), E.Mdl) << Path;
    InCatalog.insert(Model->MD.name());
  }
  EXPECT_EQ(InCatalog, OnDisk);
}

TEST(MachineCatalog, EveryEntryParsesWithoutDiagnostics) {
  for (const MachineCatalogEntry &E : machineCatalog()) {
    DiagnosticEngine Diags;
    std::optional<MachineModel> Model = parseMdlModel(E.Mdl, Diags);
    ASSERT_TRUE(Model.has_value()) << E.Name;
    EXPECT_TRUE(Diags.diagnostics().empty()) << E.Name;
  }
}

TEST(MachineCatalog, NamesAndOrderUnchanged) {
  // The spellings the server protocol, the bench tools and imsched accept.
  EXPECT_EQ(machineNames(),
            (std::vector<std::string>{"fig1", "cydra5", "alpha21064",
                                      "mips-r3000", "toy-vliw", "playdoh",
                                      "m88100"}));
}

TEST(MachineCatalog, UnknownNameIsAProtocolError) {
  Expected<MachineModel> Model = machineByName("mips");
  ASSERT_FALSE(Model);
  EXPECT_EQ(Model.status().code(), ErrorCode::ProtocolError);
  EXPECT_EQ(Model.status().message(),
            "unknown machine 'mips' (known: fig1, cydra5, alpha21064, "
            "mips-r3000, toy-vliw, playdoh, m88100)");
}

TEST(MachineCatalog, ReducedMdlMatchesGolden) {
  // writeMdl of the checked res-uses reduction of each expanded machine.
  for (const std::string &Name : machineNames()) {
    Expected<MachineModel> Model = machineByName(Name);
    ASSERT_TRUE(Model) << Name;
    Expected<ReductionResult> Result =
        reduceMachineChecked(expandAlternatives(Model.value().MD).Flat);
    ASSERT_TRUE(Result) << Name << ": " << Result.status().render();
    fs::path Golden = fs::path(RMD_SOURCE_DIR) / "tests" / "golden" /
                      "reduced" / (Name + ".mdl");
    ASSERT_TRUE(fs::exists(Golden)) << Golden;
    EXPECT_EQ(writeMdl(Result.value().Reduced), readFile(Golden)) << Name;
  }
}
