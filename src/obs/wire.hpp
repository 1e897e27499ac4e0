// The repo's one JSON reader and writer: a minimal JSON document model with
// a strict parser and canonical emitter, plus the length-prefixed frame
// codec that the serve socket protocol and the shard runner's worker pipes
// share (docs/FORMATS.md, "Serve wire protocol").
//
// Every document src/ and tools/ write — wire responses, log records,
// metrics, build info, trace events, the hipo_shard summary — is a Json
// emitted by `dump`, so escaping, number formatting and key order live
// here only. The parser exists because its inputs come from another
// process or a file: every reader — serve requests, shard worker frames,
// delta-script lines (opt::parse_delta_script) — must reject malformed
// bytes with a useful error instead of corrupting state or crashing. It is
// strict JSON (RFC 8259) minus floating exotica: numbers follow the RFC
// grammar (util::read_json_number) and must be finite, and nesting is
// bounded by kMaxJsonDepth, so no input can run the recursive descent off
// the stack. It lives in hipo_obs, next to the text primitives in json.hpp,
// so that every layer down to hipo_opt can link it; serve/wire.hpp
// re-exports it under the hipo::serve names.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/error.hpp"

namespace hipo::obs {

/// A JSON value, parsed or under construction. Objects keep insertion order
/// out of the picture by using a sorted map — requests are keyed lookups,
/// never ordered scans, and equal documents dump to equal bytes.
class Json {
 public:
  enum class Type : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject
  };

  Json() = default;
  static Json null() { return Json(); }
  static Json boolean(bool b);
  static Json number(double v);
  static Json string(std::string s);
  static Json array();
  static Json object();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_bool() const { return type_ == Type::kBool; }

  /// Typed accessors; ConfigError on type mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<Json>& as_array() const;
  const std::map<std::string, Json>& as_object() const;

  /// Object member or nullptr.
  const Json* find(std::string_view key) const;

  // --- builders ---------------------------------------------------------
  Json& set(std::string key, Json value);  // object only; last write wins
  Json& push(Json value);                  // array only

  /// Canonical single-line emission (object keys sorted, doubles via
  /// obs::json_double semantics: 17 significant digits, non-finite -> null).
  std::string dump() const;

 private:
  void dump_to(std::string& out) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Json> arr_;
  std::map<std::string, Json> obj_;
};

/// Deepest array/object nesting parse_json accepts. Every document the
/// code exchanges (requests, responses with their metrics tree, shard row
/// frames) nests a handful of levels; the bound only has to keep the
/// recursive descent's stack use small and fixed.
constexpr std::size_t kMaxJsonDepth = 64;

/// Strict parse of a complete JSON document. ConfigError (with byte offset)
/// on malformed input, trailing garbage, duplicate object keys, non-finite
/// numbers, or nesting deeper than kMaxJsonDepth.
Json parse_json(std::string_view text);

// --- framing -------------------------------------------------------------

/// Frame header: a 4-byte big-endian payload length. Kept tiny and explicit
/// so any client (python's struct.pack(">I"), netcat + xxd) can speak it.
constexpr std::size_t kFrameHeaderBytes = 4;

/// Encode a payload length into the 4-byte header.
void encode_frame_header(std::size_t payload_bytes, unsigned char out[4]);

/// Decode the header; ConfigError when the length exceeds `max_bytes`
/// (over-long frames are an attack/bug, not a request to buffer).
std::size_t decode_frame_header(const unsigned char in[4],
                                std::size_t max_bytes);

/// Write one length-prefixed frame to a file descriptor. Works on any
/// byte-stream fd — the daemon's sockets and the shard runner's worker
/// pipes share this one implementation. Retries EINTR; ConfigError on
/// write failure, including a socket peer that has gone (never SIGPIPE on
/// a socket).
void write_frame_fd(int fd, std::string_view payload);

/// Read one frame from a file descriptor into `out`; false on clean EOF at
/// a frame boundary (before any header byte), ConfigError on mid-frame EOF,
/// an over-`max_bytes` header, or a read error.
bool read_frame_fd(int fd, std::size_t max_bytes, std::string& out);

}  // namespace hipo::obs
