#include "json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace paralagg::suite {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  Json document() {
    Json v = value(0);
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error("json: " + std::string(what) + " at byte " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\r' || s_[pos_] == '\t')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Json value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    Json v;
    const char c = peek();
    if (c == '{') {
      v.type = Json::Type::kObject;
      ++pos_;
      if (peek() == '}') {
        ++pos_;
        return v;
      }
      for (;;) {
        if (peek() != '"') fail("expected a key");
        std::string key = string();
        expect(':');
        v.object.emplace_back(std::move(key), value(depth + 1));
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        return v;
      }
    }
    if (c == '[') {
      v.type = Json::Type::kArray;
      ++pos_;
      if (peek() == ']') {
        ++pos_;
        return v;
      }
      for (;;) {
        v.array.push_back(value(depth + 1));
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect(']');
        return v;
      }
    }
    if (c == '"') {
      v.type = Json::Type::kString;
      v.string = string();
      return v;
    }
    if (literal("true")) {
      v.type = Json::Type::kBool;
      v.boolean = true;
      return v;
    }
    if (literal("false")) {
      v.type = Json::Type::kBool;
      return v;
    }
    if (literal("null")) return v;
    v.type = Json::Type::kNumber;
    v.number = number();
    return v;
  }

  std::string string() {
    ++pos_;  // opening quote
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (static_cast<unsigned char>(c) < 0x20) fail("control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      c = s_[pos_++];
      switch (c) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          // The suite only writes ASCII; keep \u escapes below 0x80 and
          // replace the rest, which no input of ours contains.
          if (pos_ + 4 > s_.size()) fail("short \\u escape");
          const unsigned long cp = std::strtoul(std::string(s_.substr(pos_, 4)).c_str(), nullptr, 16);
          pos_ += 4;
          out.push_back(cp < 0x80 ? static_cast<char>(cp) : '?');
          break;
        }
        default: fail("bad escape");
      }
    }
    if (pos_ >= s_.size()) fail("unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  double number() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() && std::string_view("+-0123456789.eE").find(s_[pos_]) !=
                                   std::string_view::npos) {
      ++pos_;
    }
    if (pos_ == start) fail("unexpected character");
    const std::string text(s_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size()) fail("bad number");
    return v;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

const Json* Json::find(std::string_view key) const {
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

Json parse_json(std::string_view text) { return Parser(text).document(); }

std::string json_quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace paralagg::suite
