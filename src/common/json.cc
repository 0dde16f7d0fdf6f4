#include "common/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace genbase::json {

const Value* Value::Find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  const Value* found = nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) found = &v;
  }
  return found;
}

double Value::NumberOr(const std::string& key, double fallback) const {
  const Value* v = Find(key);
  return v != nullptr && v->is_number() ? v->number : fallback;
}

std::string Value::StringOr(const std::string& key,
                            const std::string& fallback) const {
  const Value* v = Find(key);
  return v != nullptr && v->is_string() ? v->string : fallback;
}

namespace {

/// Recursive-descent parser over the raw byte buffer. Depth is bounded so a
/// corrupt artifact cannot blow the stack.
class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  genbase::Result<Value> Run() {
    Value v;
    GENBASE_RETURN_NOT_OK(ParseValue(&v, 0));
    SkipWs();
    if (pos_ != s_.size()) return Error("trailing characters");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  genbase::Status Error(const std::string& what) const {
    return genbase::Status::InvalidArgument(
        "json: " + what + " at offset " + std::to_string(pos_));
  }

  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  genbase::Status Expect(char c) {
    if (!Consume(c)) {
      return Error(std::string("expected '") + c + "'");
    }
    return genbase::Status::OK();
  }

  genbase::Status ParseValue(Value* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWs();
    if (pos_ >= s_.size()) return Error("unexpected end of input");
    switch (s_[pos_]) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->type = Value::Type::kString;
        return ParseString(&out->string);
      case 't':
        out->type = Value::Type::kBool;
        out->boolean = true;
        return ConsumeWord("true");
      case 'f':
        out->type = Value::Type::kBool;
        out->boolean = false;
        return ConsumeWord("false");
      case 'n':
        out->type = Value::Type::kNull;
        return ConsumeWord("null");
      default:
        return ParseNumber(out);
    }
  }

  genbase::Status ConsumeWord(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) {
      if (!Consume(*p)) return Error(std::string("expected '") + word + "'");
    }
    return genbase::Status::OK();
  }

  genbase::Status ParseObject(Value* out, int depth) {
    out->type = Value::Type::kObject;
    GENBASE_RETURN_NOT_OK(Expect('{'));
    SkipWs();
    if (Consume('}')) return genbase::Status::OK();
    for (;;) {
      SkipWs();
      std::string key;
      GENBASE_RETURN_NOT_OK(ParseString(&key));
      SkipWs();
      GENBASE_RETURN_NOT_OK(Expect(':'));
      Value v;
      GENBASE_RETURN_NOT_OK(ParseValue(&v, depth + 1));
      out->object.emplace_back(std::move(key), std::move(v));
      SkipWs();
      if (Consume(',')) continue;
      return Expect('}');
    }
  }

  genbase::Status ParseArray(Value* out, int depth) {
    out->type = Value::Type::kArray;
    GENBASE_RETURN_NOT_OK(Expect('['));
    SkipWs();
    if (Consume(']')) return genbase::Status::OK();
    for (;;) {
      Value v;
      GENBASE_RETURN_NOT_OK(ParseValue(&v, depth + 1));
      out->array.push_back(std::move(v));
      SkipWs();
      if (Consume(',')) continue;
      return Expect(']');
    }
  }

  genbase::Status ParseString(std::string* out) {
    GENBASE_RETURN_NOT_OK(Expect('"'));
    out->clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return genbase::Status::OK();
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) break;
      const char esc = s_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out->push_back(esc);
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("bad \\u escape");
            }
          }
          // This repo's emitters only escape control characters; decode the
          // ASCII range and pass anything else through as UTF-8.
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("bad escape character");
      }
    }
    return Error("unterminated string");
  }

  genbase::Status ParseNumber(Value* out) {
    const size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a value");
    char* end = nullptr;
    const std::string token = s_.substr(start, pos_ - start);
    const double v = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0') return Error("bad number");
    // strtod maps out-of-range literals like 1e999 to +/-inf; downstream
    // arithmetic assumes finite config values, so reject them here.
    if (!std::isfinite(v)) return Error("number out of range");
    out->type = Value::Type::kNumber;
    out->number = v;
    return genbase::Status::OK();
  }

  const std::string& s_;
  size_t pos_ = 0;
};

}  // namespace

genbase::Result<Value> Parse(const std::string& text) {
  return Parser(text).Run();
}

void AppendEscaped(std::string* out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
}

}  // namespace genbase::json
