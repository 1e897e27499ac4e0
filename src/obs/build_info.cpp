#include "src/obs/build_info.hpp"

#include <thread>

#include "src/obs/json.hpp"

// Stamped by src/obs/CMakeLists.txt at configure time; the fallbacks keep
// non-CMake builds (tooling, IDE single-file checks) compiling.
#ifndef HIPO_GIT_DESCRIBE
#define HIPO_GIT_DESCRIBE "unknown"
#endif
#ifndef HIPO_BUILD_TYPE
#define HIPO_BUILD_TYPE "unknown"
#endif
#ifndef HIPO_CXX_FLAGS
#define HIPO_CXX_FLAGS ""
#endif

namespace hipo::obs {

namespace {

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

const BuildInfo& build_info() {
  static const BuildInfo info = [] {
    BuildInfo b;
    b.git_describe = HIPO_GIT_DESCRIBE;
    b.compiler = compiler_id();
    b.build_type = HIPO_BUILD_TYPE;
    b.cxx_flags = HIPO_CXX_FLAGS;
    b.cplusplus = __cplusplus;
    b.hardware_threads = std::thread::hardware_concurrency();
    return b;
  }();
  return info;
}

std::string build_info_json() {
  const BuildInfo& b = build_info();
  std::string out = "{\"git\":\"" + json_escape(b.git_describe) +
                    "\",\"compiler\":\"" + json_escape(b.compiler) +
                    "\",\"build_type\":\"" + json_escape(b.build_type) +
                    "\",\"cxx_flags\":\"" + json_escape(b.cxx_flags) +
                    "\",\"cplusplus\":" + std::to_string(b.cplusplus) +
                    ",\"schema_version\":" + std::to_string(b.schema_version) +
                    ",\"hardware_threads\":" +
                    std::to_string(b.hardware_threads) + "}";
  return out;
}

}  // namespace hipo::obs
