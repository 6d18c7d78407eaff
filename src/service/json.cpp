#include "src/service/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/common/check.hpp"

namespace sca::service {

using common::Error;
using common::require;

bool Json::as_bool() const {
  require(kind_ == Kind::kBool, "json: expected a boolean");
  return bool_;
}

std::int64_t Json::as_int() const {
  if (kind_ == Kind::kInt) return int_;
  if (kind_ == Kind::kDouble) {
    const auto v = static_cast<std::int64_t>(double_);
    require(static_cast<double>(v) == double_, "json: expected an integer");
    return v;
  }
  throw Error("json: expected a number");
}

std::uint64_t Json::as_uint() const {
  const std::int64_t v = as_int();
  require(v >= 0, "json: expected a non-negative integer");
  return static_cast<std::uint64_t>(v);
}

double Json::as_double() const {
  if (kind_ == Kind::kInt) return static_cast<double>(int_);
  require(kind_ == Kind::kDouble, "json: expected a number");
  return double_;
}

const std::string& Json::as_string() const {
  require(kind_ == Kind::kString, "json: expected a string");
  return string_;
}

const std::vector<Json>& Json::items() const {
  require(kind_ == Kind::kArray, "json: expected an array");
  return items_;
}

std::vector<Json>& Json::items() {
  require(kind_ == Kind::kArray, "json: expected an array");
  return items_;
}

const Json* Json::get(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : fields_)
    if (k == key) return &v;
  return nullptr;
}

const Json& Json::at(const std::string& key) const {
  const Json* v = get(key);
  require(v != nullptr, "json: missing field '" + key + "'");
  return *v;
}

std::int64_t Json::get_int(const std::string& key,
                           std::int64_t fallback) const {
  const Json* v = get(key);
  return v ? v->as_int() : fallback;
}

std::uint64_t Json::get_uint(const std::string& key,
                             std::uint64_t fallback) const {
  const Json* v = get(key);
  return v ? v->as_uint() : fallback;
}

double Json::get_double(const std::string& key, double fallback) const {
  const Json* v = get(key);
  return v ? v->as_double() : fallback;
}

std::string Json::get_string(const std::string& key,
                             const std::string& fallback) const {
  const Json* v = get(key);
  return v ? v->as_string() : fallback;
}

bool Json::get_bool(const std::string& key, bool fallback) const {
  const Json* v = get(key);
  return v ? v->as_bool() : fallback;
}

Json& Json::set(const std::string& key, Json value) {
  require(kind_ == Kind::kObject, "json: set() needs an object");
  for (auto& [k, v] : fields_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  fields_.emplace_back(key, std::move(value));
  return *this;
}

Json& Json::push_back(Json value) {
  require(kind_ == Kind::kArray, "json: push_back() needs an array");
  items_.push_back(std::move(value));
  return *this;
}

const std::vector<std::pair<std::string, Json>>& Json::fields() const {
  require(kind_ == Kind::kObject, "json: expected an object");
  return fields_;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string Json::dump() const {
  switch (kind_) {
    case Kind::kNull: return "null";
    case Kind::kBool: return bool_ ? "true" : "false";
    case Kind::kInt: return std::to_string(int_);
    case Kind::kDouble: {
      if (!std::isfinite(double_))  // JSON has no inf/nan; null is the
        return "null";              // conventional lossy stand-in
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", double_);
      return buf;
    }
    case Kind::kString: {
      // Appended, not `"\"" + json_escape(...)`: inserting at the front of
      // a temporary trips gcc 12's -O3 -Wrestrict false positive.
      std::string out = "\"";
      out += json_escape(string_);
      out += '"';
      return out;
    }
    case Kind::kArray: {
      std::string out = "[";
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i) out += ",";
        out += items_[i].dump();
      }
      return out + "]";
    }
    case Kind::kObject: {
      std::string out = "{";
      for (std::size_t i = 0; i < fields_.size(); ++i) {
        if (i) out += ",";
        out += '"';
        out += json_escape(fields_[i].first);
        out += "\":";
        out += fields_[i].second.dump();
      }
      return out + "}";
    }
  }
  return "null";
}

namespace {

// Recursive-descent parser over a byte range. Every error carries the byte
// offset so protocol logs point at the offending frame position.
class Parser {
 public:
  Parser(const std::string& text, std::size_t max_depth)
      : text_(text), max_depth_(max_depth) {}

  Json run() {
    skip_ws();
    Json v = value(0);
    skip_ws();
    require(pos_ == text_.size(),
            "json: trailing garbage at offset " + std::to_string(pos_));
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw Error("json: " + what + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() const {
    if (pos_ >= text_.size())
      throw Error("json: unexpected end of input at offset " +
                  std::to_string(pos_));
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_keyword(const char* kw) {
    const std::size_t n = std::strlen(kw);
    if (text_.compare(pos_, n, kw) != 0) return false;
    pos_ += n;
    return true;
  }

  Json value(std::size_t depth) {
    if (depth > max_depth_) fail("nesting too deep");
    switch (peek()) {
      case '{': return object(depth);
      case '[': return array(depth);
      case '"': return Json(string());
      case 't':
        if (consume_keyword("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (consume_keyword("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (consume_keyword("null")) return Json(nullptr);
        fail("invalid literal");
      default: return number();
    }
  }

  Json object(std::size_t depth) {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      skip_ws();
      obj.set(key, value(depth + 1));
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return obj;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  Json array(std::size_t depth) {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      skip_ws();
      arr.push_back(value(depth + 1));
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return arr;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  std::uint32_t hex4() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = peek();
      ++pos_;
      v <<= 4;
      if (c >= '0' && c <= '9')
        v |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f')
        v |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        v |= static_cast<std::uint32_t>(c - 'A' + 10);
      else
        fail("invalid \\u escape");
    }
    return v;
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("unescaped control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      const char e = peek();
      ++pos_;
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          std::uint32_t cp = hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate must follow.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u')
              fail("unpaired surrogate");
            pos_ += 2;
            const std::uint32_t lo = hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: fail("invalid escape");
      }
    }
  }

  Json number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    bool integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string tok = text_.substr(start, pos_ - start);
    require(!tok.empty() && tok != "-",
            "json: invalid number at offset " + std::to_string(start));
    // RFC 8259: no leading zeros ("01"), and the integer part must not be
    // empty ("-.5" / ".5" never reach here, but "-e1" would).
    const std::size_t ip = tok[0] == '-' ? 1 : 0;
    require(ip < tok.size() && tok[ip] >= '0' && tok[ip] <= '9',
            "json: invalid number at offset " + std::to_string(start));
    require(tok[ip] != '0' || ip + 1 == tok.size() ||
                !(tok[ip + 1] >= '0' && tok[ip + 1] <= '9'),
            "json: invalid number at offset " + std::to_string(start));
    errno = 0;
    char* end = nullptr;
    if (integral) {
      const long long v = std::strtoll(tok.c_str(), &end, 10);
      if (errno == 0 && end == tok.c_str() + tok.size())
        return Json(static_cast<std::int64_t>(v));
      // Out of int64 range: fall through to the double representation.
      errno = 0;
    }
    const double d = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size() || errno == ERANGE)
      throw Error("json: invalid number at offset " + std::to_string(start));
    return Json(d);
  }

  const std::string& text_;
  std::size_t max_depth_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(const std::string& text, std::size_t max_depth) {
  return Parser(text, max_depth).run();
}

}  // namespace sca::service
