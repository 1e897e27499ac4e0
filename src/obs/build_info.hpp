// Build / provenance stamp: which code, compiler, and flags produced an
// artifact. Embedded in every metrics / trace / bench JSON (and printed by
// `hipo_solve --version`) so BENCH_*.json entries and traces are
// attributable to a commit and build configuration.
#pragma once

#include <string>

#include "src/obs/wire.hpp"

namespace hipo::obs {

/// Version of the trace / metrics / bench JSON schemas this build emits
/// (documented in docs/FORMATS.md). Bump on breaking schema changes.
/// v2: cxx_flags records the *effective* flags (CMAKE_CXX_FLAGS plus the
/// per-config CMAKE_CXX_FLAGS_<CONFIG> — previously only the former, which
/// is empty in a plain -DCMAKE_BUILD_TYPE=Release configure), and a `simd`
/// field named the widest compiled gain-kernel ISA.
/// v3: the `simd` field is gone (the gain kernels are plain scalar code).
inline constexpr int kSchemaVersion = 3;

struct BuildInfo {
  std::string git_describe;   ///< `git describe --always --dirty` (configure time)
  std::string compiler;       ///< compiler id + version
  std::string build_type;     ///< CMAKE_BUILD_TYPE
  std::string cxx_flags;      ///< effective flags (base + per-config)
  long cplusplus = 0;         ///< __cplusplus of the build
  int schema_version = kSchemaVersion;
  unsigned hardware_threads = 0;  ///< std::thread::hardware_concurrency()
};

const BuildInfo& build_info();

/// The stamp as a JSON object:
/// {"build_type":...,"compiler":...,"cplusplus":...,"cxx_flags":...,
///  "git":...,"hardware_threads":...,"schema_version":...}
Json build_info_object();

/// build_info_object() dumped as one line.
std::string build_info_json();

}  // namespace hipo::obs
