// Minimal JSON value, writer and parser for the trace exporter.
//
// The container ships no third-party JSON dependency, so this is a small
// self-contained implementation with two properties the trace schema needs
// and general-purpose libraries do not guarantee:
//   - unsigned 64-bit integers round-trip EXACTLY (message ids pack a
//     20-bit sender and 40-bit sequence; doubles would corrupt them);
//   - objects preserve insertion order and the writer is deterministic, so
//     export -> import -> export is byte-identical (the round-trip guarantee
//     docs/TRACING.md promises).
//
// The one tokenizer is JsonScanner and the one serializer is the appending
// writer (json_quote / json_uint / json_double): Json::parse and Json::dump
// are built on them, and so are the trace codec's typed readers and writers
// (obs/trace_io.cpp), which skip the Json tree on the hot artifact path.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "util/check.h"

namespace discs::obs {

class Json;
using JsonArray = std::vector<Json>;
/// Insertion-ordered object: field order is part of the wire format.
using JsonObject = std::vector<std::pair<std::string, Json>>;

class Json {
 public:
  Json() : v_(nullptr) {}
  Json(std::nullptr_t) : v_(nullptr) {}
  Json(bool b) : v_(b) {}
  Json(std::uint64_t n) : v_(n) {}
  Json(int n) : v_(static_cast<std::uint64_t>(n)) {}
  Json(double d) : v_(d) {}
  Json(std::string s) : v_(std::move(s)) {}
  Json(const char* s) : v_(std::string(s)) {}
  Json(JsonArray a) : v_(std::move(a)) {}
  Json(JsonObject o) : v_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_uint() const { return std::holds_alternative<std::uint64_t>(v_); }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_array() const { return std::holds_alternative<JsonArray>(v_); }
  bool is_object() const { return std::holds_alternative<JsonObject>(v_); }

  /// Typed accessors; throw CheckFailure on kind mismatch.
  bool as_bool() const;
  std::uint64_t as_uint() const;
  double as_double() const;  ///< also accepts an integer value
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  const JsonObject& as_object() const;

  /// Object field lookup; throws CheckFailure when absent (`get`) or
  /// returns nullptr (`find`).
  const Json& get(std::string_view key) const;
  const Json* find(std::string_view key) const;

  /// Compact deterministic serialization (no whitespace).
  std::string dump() const;

  /// Strict parser for one JSON document.  Throws CheckFailure with a byte
  /// offset on malformed input.
  static Json parse(std::string_view text);

  friend bool operator==(const Json&, const Json&) = default;

 private:
  std::variant<std::nullptr_t, bool, std::uint64_t, double, std::string,
               JsonArray, JsonObject>
      v_;
};

/// Appends `s` as a JSON string literal (with quotes).
void json_quote(std::string& out, std::string_view s);
/// Appends an unsigned integer (exact, all 64 bits).
void json_uint(std::string& out, std::uint64_t n);
/// Appends the shortest representation that round-trips `d`; throws
/// CheckFailure for a non-finite value.
void json_double(std::string& out, double d);

/// Thrown by JsonScanner when the text is not JSON, as opposed to JSON of
/// the wrong shape (a missing field, a string where a number belongs),
/// which throws a plain CheckFailure.  The message ends in
/// "json: <what> at offset <byte>".
class JsonSyntaxError : public CheckFailure {
 public:
  using CheckFailure::CheckFailure;
};

/// Objects and arrays nest at most this deep.  Every reader built on
/// JsonScanner (Json::parse, the trace codec, fault plans, chaos repros,
/// metrics timelines) recurses once per level, so deeper text is a syntax
/// error ("json: nesting deeper than 512 at offset <byte>") rather than a
/// stack overflow.
inline constexpr std::size_t kJsonMaxDepth = 512;

/// A pull scanner over one JSON text that builds nothing: callers read the
/// values they expect where they expect them.  Strings come back as views
/// into the text (or into one reused buffer when they hold escapes), so a
/// document of known shape is read without allocating.
///
/// Typed reads (uint, boolean, string, open_object, open_array) reject a
/// value of another kind with the same message as the matching Json
/// accessor, after skipping it, so malformed text inside it still reports
/// as a syntax error.
class JsonScanner {
 public:
  explicit JsonScanner(std::string_view text) : text_(text) {}

  /// The unread text from the next value on (whitespace skipped).
  std::string_view rest();
  /// The scan position: a byte offset into the whole text.
  std::size_t offset() const { return pos_; }
  /// Objects and arrays open around the scan position.
  std::size_t depth() const { return depth_; }
  /// Steps over the first `n` bytes of rest(), which the caller has matched
  /// byte for byte against one complete value it read before at no lesser
  /// depth() — so reading them again could only repeat that read.
  void advance(std::size_t n) { pos_ += n; }

  /// Skips whitespace and returns the first character of the next value.
  char peek();

  /// Enters an object; then `while (next_key(key))` visits its members in
  /// text order.  The caller reads or skip()s each member's value before
  /// asking for the next key; `key` is valid until the next string read.
  void open_object();
  bool next_key(std::string_view& key);

  /// Enters an array; then `while (next_element())` visits its elements,
  /// each read or skip()ped by the caller.
  void open_array();
  bool next_element();

  /// A string value; the view is valid until the next string read.
  std::string_view string();
  std::uint64_t uint();
  bool boolean();
  /// Reads any value; returns it when it is an unsigned integer.
  std::optional<std::uint64_t> maybe_uint();
  /// Reads any value without building it.
  void skip();
  /// Fails unless only whitespace remains.
  void finish();

  /// A non-string scalar: null, true/false or a number.
  struct Scalar {
    enum class Kind { kNull, kBool, kUint, kDouble } kind = Kind::kNull;
    bool b = false;
    std::uint64_t u = 0;
    double d = 0;
  };
  /// Reads null, true, false or a number.
  Scalar scalar();

 private:
  [[noreturn]] void fail(std::string_view what) const;
  [[noreturn]] void mismatch(const char* what);
  void skip_ws();
  bool consume(char c);
  void expect(char c);
  bool consume_word(std::string_view w);
  void open(char c, const char* mismatched);
  std::string_view raw_string();
  Scalar number();

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
  /// Set by open_object/open_array until the first next_key/next_element.
  bool opened_ = false;
  std::string scratch_;  ///< decoded form of the last escaped string
};

}  // namespace discs::obs
