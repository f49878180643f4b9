# Writes OUTPUT, a header holding the text of every MACHINE_DIR/*.mdl file
# verbatim as `rmd::embedded::<stem>` (a std::string_view; the stem is made
# a C identifier, so mips-r3000-r3010.mdl becomes mips_r3000_r3010).
# Run as: cmake -DMACHINE_DIR=<dir> -DOUTPUT=<header> -P EmbedMachines.cmake

if(NOT MACHINE_DIR OR NOT OUTPUT)
  message(FATAL_ERROR "pass -DMACHINE_DIR=<dir> -DOUTPUT=<header>")
endif()

file(GLOB FILES "${MACHINE_DIR}/*.mdl")
set(TEXT "// Generated from machines/*.mdl by src/machines/EmbedMachines.cmake.\n")
string(APPEND TEXT "#include <string_view>\n\nnamespace rmd::embedded {\n")
foreach(FILE IN LISTS FILES)
  get_filename_component(STEM "${FILE}" NAME_WE)
  string(MAKE_C_IDENTIFIER "${STEM}" ID)
  file(READ "${FILE}" BODY)
  if(BODY MATCHES "\\)mdl\"")
    message(FATAL_ERROR "${FILE} contains the raw-string terminator )mdl\"")
  endif()
  string(APPEND TEXT
         "\ninline constexpr std::string_view ${ID} = R\"mdl(${BODY})mdl\";\n")
endforeach()
string(APPEND TEXT "\n} // namespace rmd::embedded\n")
file(WRITE "${OUTPUT}" "${TEXT}")
