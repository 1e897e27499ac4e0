#include "src/obs/wire.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "src/obs/json.hpp"
#include "src/util/json_number.hpp"

namespace hipo::obs {

Json Json::boolean(bool b) {
  Json j;
  j.type_ = Type::kBool;
  j.bool_ = b;
  return j;
}

Json Json::number(double v) {
  Json j;
  j.type_ = Type::kNumber;
  j.num_ = v;
  return j;
}

Json Json::string(std::string s) {
  Json j;
  j.type_ = Type::kString;
  j.str_ = std::move(s);
  return j;
}

Json Json::array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

namespace {

[[noreturn]] void type_fail(const char* want, Json::Type got) {
  static constexpr const char* kNames[] = {"null",   "bool",  "number",
                                           "string", "array", "object"};
  throw ConfigError(std::string("JSON value is ") +
                    kNames[static_cast<std::size_t>(got)] + ", expected " +
                    want);
}

}  // namespace

bool Json::as_bool() const {
  if (type_ != Type::kBool) type_fail("bool", type_);
  return bool_;
}

double Json::as_number() const {
  if (type_ != Type::kNumber) type_fail("number", type_);
  return num_;
}

const std::string& Json::as_string() const {
  if (type_ != Type::kString) type_fail("string", type_);
  return str_;
}

const std::vector<Json>& Json::as_array() const {
  if (type_ != Type::kArray) type_fail("array", type_);
  return arr_;
}

const std::map<std::string, Json>& Json::as_object() const {
  if (type_ != Type::kObject) type_fail("object", type_);
  return obj_;
}

const Json* Json::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  const auto it = obj_.find(std::string(key));
  return it == obj_.end() ? nullptr : &it->second;
}

Json& Json::set(std::string key, Json value) {
  if (type_ != Type::kObject) type_fail("object", type_);
  obj_.insert_or_assign(std::move(key), std::move(value));
  return *this;
}

Json& Json::push(Json value) {
  if (type_ != Type::kArray) type_fail("array", type_);
  arr_.push_back(std::move(value));
  return *this;
}

void Json::dump_to(std::string& out) const {
  switch (type_) {
    case Type::kNull: out += "null"; return;
    case Type::kBool: out += bool_ ? "true" : "false"; return;
    case Type::kNumber: out += obs::json_double(num_); return;
    case Type::kString:
      out += '"';
      out += obs::json_escape(str_);
      out += '"';
      return;
    case Type::kArray: {
      out += '[';
      bool first = true;
      for (const Json& v : arr_) {
        if (!first) out += ',';
        first = false;
        v.dump_to(out);
      }
      out += ']';
      return;
    }
    case Type::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [k, v] : obj_) {
        if (!first) out += ',';
        first = false;
        out += '"';
        out += obs::json_escape(k);
        out += "\":";
        v.dump_to(out);
      }
      out += '}';
      return;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after the document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw ConfigError("JSON parse error at byte " + std::to_string(pos_) +
                      ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  void expect(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'");
  }

  void expect_word(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      fail("invalid literal");
    }
    pos_ += word.size();
  }

  Json parse_value() {
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        // The one recursion point: bound it so no input can run the
        // descent off the stack. Failures unwind by exception, so only a
        // successful return steps back out.
        if (++depth_ > kMaxJsonDepth) {
          fail("nesting deeper than " + std::to_string(kMaxJsonDepth) +
               " levels");
        }
        Json v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': return Json::string(parse_string());
      case 't': expect_word("true"); return Json::boolean(true);
      case 'f': expect_word("false"); return Json::boolean(false);
      case 'n': expect_word("null"); return Json::null();
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    if (consume('}')) return obj;
    do {
      skip_ws();
      std::string key = parse_string();
      if (obj.find(key) != nullptr) fail("duplicate key \"" + key + "\"");
      expect(':');
      obj.set(std::move(key), parse_value());
    } while (consume(','));
    expect('}');
    return obj;
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    if (consume(']')) return arr;
    do {
      arr.push(parse_value());
    } while (consume(','));
    expect(']');
    return arr;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("invalid \\u escape digit");
            }
          }
          // Encode as UTF-8. Surrogate pairs are rejected: the emitter only
          // writes \u00xx control escapes, and scenario text is ASCII.
          if (code >= 0xd800 && code <= 0xdfff) {
            fail("surrogate \\u escapes are not supported");
          }
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          } else {
            out.push_back(static_cast<char>(0xe0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          }
          break;
        }
        default: fail("unsupported escape sequence");
      }
    }
  }

  Json parse_number() {
    skip_ws();
    const char c = text_[pos_];
    if (c != '-' && (c < '0' || c > '9')) fail("expected a value");
    const util::JsonNumber n = util::read_json_number(text_, pos_);
    if (n.status == util::JsonNumber::Status::kMalformed) {
      fail("malformed number");
    }
    if (n.status == util::JsonNumber::Status::kNonFinite) {
      fail("numbers must be finite");
    }
    pos_ = n.end;
    return Json::number(n.value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

Json parse_json(std::string_view text) { return Parser(text).parse_document(); }

void encode_frame_header(std::size_t payload_bytes, unsigned char out[4]) {
  const auto n = static_cast<std::uint32_t>(payload_bytes);
  HIPO_REQUIRE(static_cast<std::size_t>(n) == payload_bytes,
               "serve: frame payload exceeds the u32 length prefix");
  out[0] = static_cast<unsigned char>(n >> 24);
  out[1] = static_cast<unsigned char>(n >> 16);
  out[2] = static_cast<unsigned char>(n >> 8);
  out[3] = static_cast<unsigned char>(n);
}

std::size_t decode_frame_header(const unsigned char in[4],
                                std::size_t max_bytes) {
  const std::uint32_t n = (static_cast<std::uint32_t>(in[0]) << 24) |
                          (static_cast<std::uint32_t>(in[1]) << 16) |
                          (static_cast<std::uint32_t>(in[2]) << 8) |
                          static_cast<std::uint32_t>(in[3]);
  HIPO_REQUIRE(n <= max_bytes,
               "serve: frame of " + std::to_string(n) +
                   " bytes exceeds the " + std::to_string(max_bytes) +
                   "-byte limit");
  return n;
}

namespace {

/// Read exactly `n` bytes; false on clean EOF at a frame boundary, throws
/// on a mid-frame EOF or read error.
bool read_exact_fd(int fd, void* buf, std::size_t n, bool at_boundary) {
  auto* p = static_cast<unsigned char*>(buf);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, p + got, n - got);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0) {
      if (got == 0 && at_boundary) return false;
      throw ConfigError("connection closed mid-frame");
    }
    if (errno == EINTR) continue;
    throw ConfigError(std::string("read: ") + std::strerror(errno));
  }
  return true;
}

}  // namespace

void write_frame_fd(int fd, std::string_view payload) {
  unsigned char header[kFrameHeaderBytes];
  encode_frame_header(payload.size(), header);
  // Header and payload in two writes: pipes and loopback sockets coalesce,
  // and a single-copy staging buffer would double the payload's footprint.
  // Sockets are written with MSG_NOSIGNAL, so a peer that resets before
  // its reply costs an EPIPE/ECONNRESET error here instead of a
  // process-killing SIGPIPE; pipes answer send() with ENOTSOCK and are
  // written with write().
  bool is_socket = true;
  const auto write_all = [fd, &is_socket](const void* buf, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(buf);
    std::size_t put = 0;
    while (put < n) {
      const ssize_t w = is_socket ? ::send(fd, p + put, n - put, MSG_NOSIGNAL)
                                  : ::write(fd, p + put, n - put);
      if (w > 0) {
        put += static_cast<std::size_t>(w);
        continue;
      }
      if (w < 0 && errno == EINTR) continue;
      if (w < 0 && is_socket && errno == ENOTSOCK) {
        is_socket = false;
        continue;
      }
      throw ConfigError(std::string("write: ") + std::strerror(errno));
    }
  };
  write_all(header, sizeof(header));
  write_all(payload.data(), payload.size());
}

bool read_frame_fd(int fd, std::size_t max_bytes, std::string& out) {
  unsigned char header[kFrameHeaderBytes];
  if (!read_exact_fd(fd, header, sizeof(header), /*at_boundary=*/true)) {
    return false;
  }
  const std::size_t payload = decode_frame_header(header, max_bytes);
  out.resize(payload);
  if (payload > 0) {
    read_exact_fd(fd, out.data(), payload, /*at_boundary=*/false);
  }
  return true;
}

}  // namespace hipo::obs
