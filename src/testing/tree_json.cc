#include "testing/tree_json.h"

#include <cmath>
#include <cstdint>
#include <cstdlib>

namespace lightor::testing {

const TreeJson* TreeJson::Find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

/// Recursive-descent parser over a string_view with a byte cursor.
class TreeJsonParser {
 public:
  explicit TreeJsonParser(std::string_view text) : text_(text) {}

  common::Result<TreeJson> Run() {
    SkipSpace();
    auto value = ParseValue(0);
    if (!value.ok()) return value.status();
    SkipSpace();
    if (pos_ != text_.size()) {
      return Error("trailing bytes after JSON value");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  static TreeJson Make(TreeJson::Type type) {
    TreeJson j;
    j.type_ = type;
    return j;
  }

  static TreeJson Bool(bool v) {
    TreeJson j = Make(TreeJson::Type::kBool);
    j.bool_ = v;
    return j;
  }

  common::Status Error(const std::string& what) const {
    return common::Status::InvalidArgument(
        "json: " + what + " at byte " + std::to_string(pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Peek(char c) const { return pos_ < text_.size() && text_[pos_] == c; }

  bool Consume(char c) {
    if (!Peek(c)) return false;
    ++pos_;
    return true;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  common::Result<TreeJson> ParseValue(int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return ParseObject(depth);
      case '[':
        return ParseArray(depth);
      case '"': {
        auto s = ParseString();
        if (!s.ok()) return s.status();
        TreeJson str = Make(TreeJson::Type::kString);
        str.string_ = std::move(s).value();
        return str;
      }
      case 't':
        if (ConsumeWord("true")) return Bool(true);
        return Error("bad literal");
      case 'f':
        if (ConsumeWord("false")) return Bool(false);
        return Error("bad literal");
      case 'n':
        if (ConsumeWord("null")) return TreeJson();
        return Error("bad literal");
      default:
        return ParseNumber();
    }
  }

  common::Result<TreeJson> ParseObject(int depth) {
    ++pos_;  // '{'
    TreeJson obj = Make(TreeJson::Type::kObject);
    SkipSpace();
    if (Consume('}')) return obj;
    while (true) {
      SkipSpace();
      if (!Peek('"')) return Error("expected object key");
      auto key = ParseString();
      if (!key.ok()) return key.status();
      if (obj.Find(key.value()) != nullptr) {
        return Error("duplicate object key \"" + key.value() + "\"");
      }
      SkipSpace();
      if (!Consume(':')) return Error("expected ':'");
      SkipSpace();
      auto value = ParseValue(depth + 1);
      if (!value.ok()) return value.status();
      obj.object_.emplace_back(std::move(key).value(),
                               std::move(value).value());
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume('}')) return obj;
      return Error("expected ',' or '}'");
    }
  }

  common::Result<TreeJson> ParseArray(int depth) {
    ++pos_;  // '['
    TreeJson arr = Make(TreeJson::Type::kArray);
    SkipSpace();
    if (Consume(']')) return arr;
    while (true) {
      SkipSpace();
      auto value = ParseValue(depth + 1);
      if (!value.ok()) return value.status();
      arr.array_.push_back(std::move(value).value());
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume(']')) return arr;
      return Error("expected ',' or ']'");
    }
  }

  common::Result<std::string> ParseString() {
    ++pos_;  // '"'
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Error("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'u': {
          auto cp = ParseHex4();
          if (!cp.ok()) return cp.status();
          uint32_t code = cp.value();
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: require the paired \uXXXX low surrogate.
            if (!ConsumeWord("\\u")) return Error("lone high surrogate");
            auto lo = ParseHex4();
            if (!lo.ok()) return lo.status();
            if (lo.value() < 0xDC00 || lo.value() > 0xDFFF) {
              return Error("bad low surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (lo.value() - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return Error("lone low surrogate");
          }
          AppendUtf8(code, out);
          break;
        }
        default:
          return Error("bad escape character");
      }
    }
  }

  common::Result<uint32_t> ParseHex4() {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    uint32_t code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("bad hex digit in \\u escape");
      }
    }
    return code;
  }

  static void AppendUtf8(uint32_t code, std::string& out) {
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  common::Result<TreeJson> ParseNumber() {
    const size_t start = pos_;
    if (Peek('-')) ++pos_;
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      pos_ = start;
      return Error("bad number");
    }
    // JSON forbids leading zeros ("01").
    if (text_[pos_] == '0' && pos_ + 1 < text_.size() &&
        text_[pos_ + 1] >= '0' && text_[pos_ + 1] <= '9') {
      return Error("leading zero in number");
    }
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    if (Consume('.')) {
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return Error("bad fraction");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' &&
             text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (Peek('e') || Peek('E')) {
      ++pos_;
      if (Peek('+') || Peek('-')) ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return Error("bad exponent");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' &&
             text_[pos_] <= '9') {
        ++pos_;
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    const double v = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(v)) return Error("number out of range");
    TreeJson number = Make(TreeJson::Type::kNumber);
    number.number_ = v;
    return number;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

common::Result<TreeJson> TreeJson::Parse(std::string_view text) {
  return TreeJsonParser(text).Run();
}

}  // namespace lightor::testing
