#include "obs/json.h"

#include <charconv>
#include <cmath>

#include "util/check.h"
#include "util/fmt.h"

namespace discs::obs {

bool Json::as_bool() const {
  DISCS_CHECK_MSG(is_bool(), "json: not a bool");
  return std::get<bool>(v_);
}

std::uint64_t Json::as_uint() const {
  DISCS_CHECK_MSG(is_uint(), "json: not an unsigned integer");
  return std::get<std::uint64_t>(v_);
}

double Json::as_double() const {
  if (is_uint()) return static_cast<double>(std::get<std::uint64_t>(v_));
  DISCS_CHECK_MSG(is_double(), "json: not a number");
  return std::get<double>(v_);
}

const std::string& Json::as_string() const {
  DISCS_CHECK_MSG(is_string(), "json: not a string");
  return std::get<std::string>(v_);
}

const JsonArray& Json::as_array() const {
  DISCS_CHECK_MSG(is_array(), "json: not an array");
  return std::get<JsonArray>(v_);
}

const JsonObject& Json::as_object() const {
  DISCS_CHECK_MSG(is_object(), "json: not an object");
  return std::get<JsonObject>(v_);
}

const Json* Json::find(std::string_view key) const {
  for (const auto& [k, v] : as_object())
    if (k == key) return &v;
  return nullptr;
}

const Json& Json::get(std::string_view key) const {
  const Json* j = find(key);
  DISCS_CHECK_MSG(j != nullptr, "json: missing field '" << key << "'");
  return *j;
}

void json_quote(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out.push_back('"');
  std::size_t run = 0;  // start of the pending run of plain bytes
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        out += "\\u00";
        out.push_back(kHex[c >> 4]);
        out.push_back(kHex[c & 0xF]);
    }
  }
  out.append(s.data() + run, s.size() - run);
  out.push_back('"');
}

void json_uint(std::string& out, std::uint64_t n) {
  char buf[20];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, n);
  out.append(buf, end);
}

void json_double(std::string& out, double d) {
  DISCS_CHECK_MSG(std::isfinite(d), "json: non-finite number");
  // Shortest representation that round-trips a double.
  char buf[32];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, d);
  DISCS_CHECK(ec == std::errc());
  out.append(buf, end);
}

namespace {

void dump_into(const Json& j, std::string& out) {
  if (j.is_null()) {
    out += "null";
  } else if (j.is_bool()) {
    out += j.as_bool() ? "true" : "false";
  } else if (j.is_uint()) {
    json_uint(out, j.as_uint());
  } else if (j.is_double()) {
    json_double(out, j.as_double());
  } else if (j.is_string()) {
    json_quote(out, j.as_string());
  } else if (j.is_array()) {
    out.push_back('[');
    bool first = true;
    for (const auto& e : j.as_array()) {
      if (!first) out.push_back(',');
      first = false;
      dump_into(e, out);
    }
    out.push_back(']');
  } else {
    out.push_back('{');
    bool first = true;
    for (const auto& [k, v] : j.as_object()) {
      if (!first) out.push_back(',');
      first = false;
      json_quote(out, k);
      out.push_back(':');
      dump_into(v, out);
    }
    out.push_back('}');
  }
}

Json build(JsonScanner& s) {
  switch (s.peek()) {
    case '{': {
      JsonObject obj;
      s.open_object();
      std::string_view k;
      while (s.next_key(k)) {
        std::string key(k);
        obj.emplace_back(std::move(key), build(s));
      }
      return Json(std::move(obj));
    }
    case '[': {
      JsonArray arr;
      s.open_array();
      while (s.next_element()) arr.push_back(build(s));
      return Json(std::move(arr));
    }
    case '"':
      return Json(std::string(s.string()));
    default: {
      const JsonScanner::Scalar v = s.scalar();
      switch (v.kind) {
        case JsonScanner::Scalar::Kind::kNull: return Json(nullptr);
        case JsonScanner::Scalar::Kind::kBool: return Json(v.b);
        case JsonScanner::Scalar::Kind::kUint: return Json(v.u);
        case JsonScanner::Scalar::Kind::kDouble: return Json(v.d);
      }
      return Json();
    }
  }
}

}  // namespace

std::string Json::dump() const {
  std::string out;
  dump_into(*this, out);
  return out;
}

Json Json::parse(std::string_view text) {
  JsonScanner s(text);
  Json j = build(s);
  s.finish();
  return j;
}

// --- JsonScanner -------------------------------------------------------------

void JsonScanner::fail(std::string_view what) const {
  check_failed<JsonSyntaxError>("false", __FILE__, __LINE__,
                                cat("json: ", what, " at offset ", pos_));
}

void JsonScanner::mismatch(const char* what) {
  skip();
  DISCS_CHECK_MSG(false, what);
}

void JsonScanner::skip_ws() {
  while (pos_ < text_.size() &&
         (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
          text_[pos_] == '\r'))
    ++pos_;
}

bool JsonScanner::consume(char c) {
  if (pos_ < text_.size() && text_[pos_] == c) {
    ++pos_;
    return true;
  }
  return false;
}

void JsonScanner::expect(char c) {
  if (!consume(c)) fail(cat("expected '", c, "'"));
}

bool JsonScanner::consume_word(std::string_view w) {
  if (text_.substr(pos_, w.size()) == w) {
    pos_ += w.size();
    return true;
  }
  return false;
}

char JsonScanner::peek() {
  skip_ws();
  if (pos_ >= text_.size()) fail("unexpected end of input");
  return text_[pos_];
}

void JsonScanner::finish() {
  skip_ws();
  if (pos_ != text_.size()) fail("trailing characters");
}

std::string_view JsonScanner::rest() {
  skip_ws();
  return text_.substr(pos_);
}

void JsonScanner::open(char c, const char* mismatched) {
  if (peek() != c) mismatch(mismatched);
  if (depth_ == kJsonMaxDepth)
    fail(cat("nesting deeper than ", kJsonMaxDepth));
  ++depth_;
  ++pos_;
  opened_ = true;
}

void JsonScanner::open_object() { open('{', "json: not an object"); }

bool JsonScanner::next_key(std::string_view& key) {
  skip_ws();
  if (opened_) {
    opened_ = false;
    if (consume('}')) {
      --depth_;
      return false;
    }
  } else if (!consume(',')) {
    expect('}');
    --depth_;
    return false;
  }
  skip_ws();
  key = raw_string();
  skip_ws();
  expect(':');
  return true;
}

void JsonScanner::open_array() { open('[', "json: not an array"); }

bool JsonScanner::next_element() {
  skip_ws();
  if (opened_) {
    opened_ = false;
    if (!consume(']')) return true;
  } else if (consume(',')) {
    return true;
  } else {
    expect(']');
  }
  --depth_;
  return false;
}

std::string_view JsonScanner::string() {
  if (peek() != '"') mismatch("json: not a string");
  return raw_string();
}

std::uint64_t JsonScanner::uint() {
  const std::optional<std::uint64_t> u = maybe_uint();
  DISCS_CHECK_MSG(u.has_value(), "json: not an unsigned integer");
  return *u;
}

bool JsonScanner::boolean() {
  const char c = peek();
  if (c == 't' && consume_word("true")) return true;
  if (c == 'f' && consume_word("false")) return false;
  mismatch("json: not a bool");
}

std::optional<std::uint64_t> JsonScanner::maybe_uint() {
  const char c = peek();
  if (c == '-' || (c >= '0' && c <= '9')) {
    const Scalar n = number();
    if (n.kind == Scalar::Kind::kUint) return n.u;
    return std::nullopt;
  }
  skip();
  return std::nullopt;
}

void JsonScanner::skip() {
  std::string_view key;
  switch (peek()) {
    case '{':
      open_object();
      while (next_key(key)) skip();
      return;
    case '[':
      open_array();
      while (next_element()) skip();
      return;
    case '"':
      raw_string();
      return;
    default:
      scalar();
  }
}

JsonScanner::Scalar JsonScanner::scalar() {
  const char c = peek();
  if (c == '-' || (c >= '0' && c <= '9')) return number();
  Scalar v;
  if (consume_word("true")) {
    v.kind = Scalar::Kind::kBool;
    v.b = true;
  } else if (consume_word("false")) {
    v.kind = Scalar::Kind::kBool;
  } else if (!consume_word("null")) {
    fail("unexpected character");
  }
  return v;
}

JsonScanner::Scalar JsonScanner::number() {
  const std::size_t start = pos_;
  const bool neg = consume('-');
  bool fractional = false;
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c >= '0' && c <= '9') {
      ++pos_;
    } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
      fractional = true;
      ++pos_;
    } else {
      break;
    }
  }
  const char* first = text_.data() + start;
  const char* last = text_.data() + pos_;
  Scalar v;
  if (!neg && !fractional) {
    auto [p, ec] = std::from_chars(first, last, v.u);
    if (ec == std::errc() && p == last) {
      v.kind = Scalar::Kind::kUint;
      return v;
    }
  }
  auto [p, ec] = std::from_chars(first, last, v.d);
  if (ec != std::errc() || p != last) fail("bad number");
  v.kind = Scalar::Kind::kDouble;
  return v;
}

std::string_view JsonScanner::raw_string() {
  expect('"');
  // Fast path: no escape before the closing quote, so the value is a view
  // of the text itself.
  const std::size_t start = pos_;
  while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\')
    ++pos_;
  if (pos_ >= text_.size()) fail("unterminated string");
  if (text_[pos_] == '"') return text_.substr(start, pos_++ - start);

  scratch_.assign(text_.substr(start, pos_ - start));
  while (true) {
    if (pos_ >= text_.size()) fail("unterminated string");
    const char c = text_[pos_++];
    if (c == '"') return scratch_;
    if (c != '\\') {
      scratch_.push_back(c);
      continue;
    }
    if (pos_ >= text_.size()) fail("unterminated escape");
    const char e = text_[pos_++];
    switch (e) {
      case '"': scratch_.push_back('"'); break;
      case '\\': scratch_.push_back('\\'); break;
      case '/': scratch_.push_back('/'); break;
      case 'b': scratch_.push_back('\b'); break;
      case 'f': scratch_.push_back('\f'); break;
      case 'n': scratch_.push_back('\n'); break;
      case 'r': scratch_.push_back('\r'); break;
      case 't': scratch_.push_back('\t'); break;
      case 'u': {
        if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = text_[pos_++];
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
          else fail("bad \\u escape");
        }
        // The writer only emits \u00xx for control bytes; decode the
        // low byte and reject the surrogate/multibyte range we never emit.
        if (code > 0xFF) fail("unsupported \\u escape > 0xFF");
        scratch_.push_back(static_cast<char>(code));
        break;
      }
      default: fail("bad escape");
    }
  }
}

}  // namespace discs::obs
