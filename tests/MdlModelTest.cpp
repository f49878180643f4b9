//===- tests/MdlModelTest.cpp - Annotated MDL model tests -----------------===//

#include "machines/MdlModel.h"

#include <gtest/gtest.h>

using namespace rmd;

TEST(MdlModel, RoleNamesRoundTrip) {
  for (OpRole Role :
       {OpRole::IntAlu, OpRole::AddrCalc, OpRole::Load, OpRole::Store,
        OpRole::FloatAdd, OpRole::FloatMul, OpRole::FloatDiv,
        OpRole::Convert, OpRole::Compare, OpRole::Move, OpRole::Branch}) {
    std::optional<OpRole> Back = roleFromName(roleName(Role));
    ASSERT_TRUE(Back.has_value());
    EXPECT_EQ(*Back, Role);
  }
  EXPECT_FALSE(roleFromName("warp-drive").has_value());
}

TEST(MdlModel, BuiltinModelsRoundTrip) {
  for (const MachineModel &M :
       {makeCydra5(), makeAlpha21064(), makeMipsR3000(), makeToyVliw(),
        makePlayDoh(), makeM88100()}) {
    std::string Text = writeMdlModel(M);
    DiagnosticEngine Diags;
    std::optional<MachineModel> Back = parseMdlModel(Text, Diags);
    ASSERT_TRUE(Back.has_value()) << M.MD.name();
    EXPECT_FALSE(Diags.hasErrors());
    EXPECT_EQ(Back->MD, M.MD) << M.MD.name();
    EXPECT_EQ(Back->Latency, M.Latency) << M.MD.name();
    EXPECT_EQ(Back->Role, M.Role) << M.MD.name();
  }
}

TEST(MdlModel, AnnotationsParsed) {
  DiagnosticEngine Diags;
  std::optional<MachineModel> Model = parseMdlModel(R"(
    machine m {
      resources r;
      operation ld latency 3 role load { r at 0; }
      operation st role store latency 1 { r at 0; }
    }
  )",
                                                    Diags);
  ASSERT_TRUE(Model.has_value());
  EXPECT_EQ(Model->Latency, (std::vector<int>{3, 1}));
  EXPECT_EQ(Model->Role, (std::vector<OpRole>{OpRole::Load, OpRole::Store}));
  EXPECT_TRUE(Diags.diagnostics().empty());
}

TEST(MdlModel, DefaultsWarn) {
  DiagnosticEngine Diags;
  std::optional<MachineModel> Model = parseMdlModel(
      "machine m { resources r; operation x { r at 0; r at 4; } }", Diags);
  ASSERT_TRUE(Model.has_value());
  // Default latency = table length; default role = int-alu; two warnings.
  EXPECT_EQ(Model->Latency, (std::vector<int>{5}));
  EXPECT_EQ(Model->Role, (std::vector<OpRole>{OpRole::IntAlu}));
  EXPECT_EQ(Diags.diagnostics().size(), 2u);
  EXPECT_FALSE(Diags.hasErrors());
}

TEST(MdlModel, UnknownRoleIsAnError) {
  DiagnosticEngine Diags;
  EXPECT_FALSE(parseMdlModel("machine m { resources r; operation x role "
                             "quux { r at 0; } }",
                             Diags)
                   .has_value());
  EXPECT_TRUE(Diags.hasErrors());
}
