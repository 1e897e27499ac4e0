// The RFC 8259 number grammar of the repo's JSON reader (obs::parse_json,
// which also reads delta-script lines):
//
//   number = [ "-" ] int [ frac ] [ exp ]
//   int    = "0" / ( %x31-39 *DIGIT )
//   frac   = "." 1*DIGIT
//   exp    = ( "e" / "E" ) [ "-" / "+" ] 1*DIGIT
//
// So `+1`, `.5`, `1.`, `01`, `0x10` and hex floats are all rejected. The
// reader takes the maximal run of number-like bytes (alphanumerics, '+',
// '-', '.') as the token, so `0x10` is one malformed token rather than a
// `0` followed by junk. It is bounded by the view's length, never by a NUL.
//
// The conversion step, decimal_from_chars, is shared with the scenario
// reader (src/model/io.cpp), whose stream-style grammar is wider.
#pragma once

#include <charconv>
#include <cstddef>
#include <string_view>
#include <system_error>

namespace hipo::util {

struct JsonNumber {
  enum class Status { kOk, kMalformed, kNonFinite };
  Status status = Status::kMalformed;
  double value = 0.0;
  /// One past the token's last byte (also on failure).
  std::size_t end = 0;
};

/// std::from_chars over `tok`, which the caller has already matched against
/// its decimal grammar (no leading '+'). Rounds as strtod does: an
/// underflow gives a signed zero, an overflow kNonFinite. from_chars
/// reports both alike; `lead`, the decimal exponent of the token's leading
/// nonzero digit plus its (saturated) exponent field, tells them apart:
/// below zero the value is < 1, so it underflowed.
inline JsonNumber::Status decimal_from_chars(std::string_view tok,
                                             bool negative, long long lead,
                                             double& value) {
  const auto [ptr, ec] =
      std::from_chars(tok.data(), tok.data() + tok.size(), value);
  if (ec == std::errc::result_out_of_range) {
    if (lead >= 0) return JsonNumber::Status::kNonFinite;
    value = negative ? -0.0 : 0.0;
    return JsonNumber::Status::kOk;
  }
  if (ec != std::errc() || ptr != tok.data() + tok.size()) {
    return JsonNumber::Status::kMalformed;
  }
  return JsonNumber::Status::kOk;
}

/// Read the number token starting at text[pos]. kOk values are the
/// correctly rounded double, as strtod gives: an underflow rounds to a
/// signed zero, an overflow is kNonFinite.
inline JsonNumber read_json_number(std::string_view text, std::size_t pos) {
  const auto token_char = [](char c) {
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
           (c >= 'A' && c <= 'Z') || c == '+' || c == '-' || c == '.';
  };
  JsonNumber out;
  out.end = pos;
  while (out.end < text.size() && token_char(text[out.end])) ++out.end;
  const std::string_view tok = text.substr(pos, out.end - pos);

  std::size_t i = 0;
  const auto digits = [&] {
    const std::size_t from = i;
    while (i < tok.size() && tok[i] >= '0' && tok[i] <= '9') ++i;
    return i - from;
  };
  const bool negative = i < tok.size() && tok[i] == '-';
  if (negative) ++i;
  const bool int_zero = i < tok.size() && tok[i] == '0';
  std::size_t int_digits = 1;
  if (int_zero) {
    ++i;
  } else if ((int_digits = digits()) == 0) {
    return out;
  }
  std::size_t frac_zeros = 0;  // fraction zeros before its first nonzero
  if (i < tok.size() && tok[i] == '.') {
    ++i;
    const std::size_t from = i;
    if (digits() == 0) return out;
    while (from + frac_zeros < i && tok[from + frac_zeros] == '0') {
      ++frac_zeros;
    }
  }
  long long exp = 0;  // saturates: only its sign and rough size matter
  if (i < tok.size() && (tok[i] == 'e' || tok[i] == 'E')) {
    ++i;
    const bool exp_negative = i < tok.size() && tok[i] == '-';
    if (i < tok.size() && (tok[i] == '-' || tok[i] == '+')) ++i;
    const std::size_t from = i;
    if (digits() == 0) return out;
    for (std::size_t k = from; k < i && exp < 100000; ++k) {
      exp = exp * 10 + (tok[k] - '0');
    }
    if (exp_negative) exp = -exp;
  }
  if (i != tok.size()) return out;

  const long long lead = int_zero ? -static_cast<long long>(frac_zeros) - 1
                                  : static_cast<long long>(int_digits) - 1;
  out.status = decimal_from_chars(tok, negative, lead + exp, out.value);
  return out;
}

}  // namespace hipo::util
