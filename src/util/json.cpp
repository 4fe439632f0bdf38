#include "util/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace splitlock::util {

const JsonValue* JsonValue::Get(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

double JsonValue::GetNumber(const std::string& key, double def) const {
  const JsonValue* v = Get(key);
  return v && v->IsNumber() ? v->number : def;
}

bool JsonValue::GetBool(const std::string& key, bool def) const {
  const JsonValue* v = Get(key);
  return v && v->IsBool() ? v->boolean : def;
}

std::string JsonValue::GetString(const std::string& key,
                                 std::string def) const {
  const JsonValue* v = Get(key);
  return v && v->IsString() ? v->string : std::move(def);
}

std::optional<uint64_t> JsonValue::GetUint(const std::string& key,
                                           uint64_t def) const {
  const JsonValue* v = Get(key);
  if (!v) return def;
  constexpr double kMaxExact = 9007199254740992.0;  // 2^53
  if (!v->IsNumber() || !(v->number >= 0.0) || v->number > kMaxExact ||
      std::floor(v->number) != v->number) {
    return std::nullopt;
  }
  return static_cast<uint64_t>(v->number);
}

namespace {

// Recursive-descent parser over a cursor; every production returns false on
// malformed input and the top level converts that to nullopt.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool ParseDocument(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out, /*depth=*/0)) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  static constexpr int kMaxDepth = 64;

  void SkipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Peek(char* c) const {
    if (pos_ >= text_.size()) return false;
    *c = text_[pos_];
    return true;
  }

  bool Consume(char expected) {
    if (pos_ >= text_.size() || text_[pos_] != expected) return false;
    ++pos_;
    return true;
  }

  bool ConsumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  bool ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return false;
    char c;
    if (!Peek(&c)) return false;
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->type = JsonValue::Type::kString;
        return ParseString(&out->string);
      case 't':
        out->type = JsonValue::Type::kBool;
        out->boolean = true;
        return ConsumeLiteral("true");
      case 'f':
        out->type = JsonValue::Type::kBool;
        out->boolean = false;
        return ConsumeLiteral("false");
      case 'n':
        out->type = JsonValue::Type::kNull;
        return ConsumeLiteral("null");
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out, int depth) {
    out->type = JsonValue::Type::kObject;
    if (!Consume('{')) return false;
    SkipWs();
    char c;
    if (Peek(&c) && c == '}') return Consume('}');
    while (true) {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWs();
      if (!Consume(':')) return false;
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value, depth + 1)) return false;
      out->object[std::move(key)] = std::move(value);
      SkipWs();
      if (Consume('}')) return true;
      if (!Consume(',')) return false;
    }
  }

  bool ParseArray(JsonValue* out, int depth) {
    out->type = JsonValue::Type::kArray;
    if (!Consume('[')) return false;
    SkipWs();
    char c;
    if (Peek(&c) && c == ']') return Consume(']');
    while (true) {
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value, depth + 1)) return false;
      out->array.push_back(std::move(value));
      SkipWs();
      if (Consume(']')) return true;
      if (!Consume(',')) return false;
    }
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return false;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return false;
          uint32_t cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<uint32_t>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<uint32_t>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<uint32_t>(h - 'A' + 10);
            else return false;
          }
          // The writers only emit \u00XX for control bytes; encode the
          // general case as UTF-8 anyway so foreign records round-trip.
          if (cp < 0x80) {
            out->push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out->push_back(static_cast<char>(0xc0 | (cp >> 6)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
          } else {
            out->push_back(static_cast<char>(0xe0 | (cp >> 12)));
            out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
          }
          break;
        }
        default:
          return false;
      }
    }
    return false;  // unterminated
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return false;
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return false;
    out->type = JsonValue::Type::kNumber;
    out->number = value;
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

std::optional<JsonValue> ParseJson(std::string_view text) {
  JsonValue value;
  if (!Parser(text).ParseDocument(&value)) return std::nullopt;
  return value;
}

std::string HexU64(uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::optional<uint64_t> ParseHexU64(std::string_view hex) {
  if (hex.empty() || hex.size() > 16) return std::nullopt;
  uint64_t value = 0;
  for (const char c : hex) {
    value <<= 4;
    if (c >= '0' && c <= '9') value |= static_cast<uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') value |= static_cast<uint64_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') value |= static_cast<uint64_t>(c - 'A' + 10);
    else return std::nullopt;
  }
  return value;
}

}  // namespace splitlock::util
