#include "src/obs/build_info.hpp"

#include <thread>

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

Json build_info_object() {
  const BuildInfo& b = build_info();
  Json out = Json::object();
  out.set("git", Json::string(b.git_describe))
      .set("compiler", Json::string(b.compiler))
      .set("build_type", Json::string(b.build_type))
      .set("cxx_flags", Json::string(b.cxx_flags))
      .set("cplusplus", Json::number(static_cast<double>(b.cplusplus)))
      .set("schema_version", Json::number(b.schema_version))
      .set("hardware_threads", Json::number(b.hardware_threads));
  return out;
}

std::string build_info_json() { return build_info_object().dump(); }

}  // namespace hipo::obs
