#include "net/json_arena.h"

#include <cmath>
#include <cstdlib>
#include <unordered_set>

namespace lightor::net {

JsonDoc::Type JsonDoc::Ref::type() const { return doc_->nodes_[index_].type; }

bool JsonDoc::Ref::AsBool() const { return doc_->nodes_[index_].boolean; }

double JsonDoc::Ref::AsNumber() const { return doc_->nodes_[index_].number; }

std::string_view JsonDoc::Ref::AsString() const {
  return doc_->ViewOf(doc_->nodes_[index_].str);
}

size_t JsonDoc::Ref::size() const { return doc_->nodes_[index_].child_count; }

JsonDoc::Ref JsonDoc::Ref::Find(std::string_view key) const {
  if (!is_object()) return Ref();
  for (uint32_t c = doc_->nodes_[index_].first_child; c != kNone;
       c = doc_->nodes_[c].next_sibling) {
    if (doc_->ViewOf(doc_->nodes_[c].key) == key) return Ref(doc_, c);
  }
  return Ref();
}

JsonDoc::Ref JsonDoc::Ref::first_child() const {
  const uint32_t c = doc_->nodes_[index_].first_child;
  return c == kNone ? Ref() : Ref(doc_, c);
}

JsonDoc::Ref JsonDoc::Ref::next_sibling() const {
  const uint32_t c = doc_->nodes_[index_].next_sibling;
  return c == kNone ? Ref() : Ref(doc_, c);
}

std::string_view JsonDoc::Ref::key() const {
  return doc_->ViewOf(doc_->nodes_[index_].key);
}

/// Same grammar, limits, and error strings as the frozen tree parser in
/// src/testing — the only difference is what gets built.
class ArenaJsonParser {
 public:
  explicit ArenaJsonParser(std::string_view text) : text_(text) {
    doc_.input_ = text;
  }

  common::Result<JsonDoc> Run() {
    SkipSpace();
    auto root = ParseValue(0);
    if (!root.ok()) return root.status();
    SkipSpace();
    if (pos_ != text_.size()) {
      return Error("trailing bytes after JSON value");
    }
    return std::move(doc_);
  }

 private:
  static constexpr int kMaxDepth = 64;
  static constexpr uint32_t kNone = JsonDoc::kNone;
  /// Objects up to this many members check duplicate keys with a linear
  /// scan (wire objects have a handful); past it the keys move into a
  /// hash set, so a huge flat object costs O(members), not O(members^2).
  static constexpr uint32_t kLinearKeyScanMax = 16;

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

  uint32_t NewNode(JsonDoc::Type type) {
    doc_.nodes_.emplace_back();
    doc_.nodes_.back().type = type;
    return static_cast<uint32_t>(doc_.nodes_.size() - 1);
  }

  void LinkChild(uint32_t parent, uint32_t child) {
    JsonDoc::Node& p = doc_.nodes_[parent];
    if (p.first_child == kNone) {
      p.first_child = child;
    } else {
      doc_.nodes_[p.last_child].next_sibling = child;
    }
    p.last_child = child;
    ++p.child_count;
  }

  /// Parses one value and appends its node (index returned). Children of
  /// containers follow their parent in the node vector.
  common::Result<uint32_t> ParseValue(int depth) {
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
        const uint32_t node = NewNode(JsonDoc::Type::kString);
        doc_.nodes_[node].str = s.value();
        return node;
      }
      case 't':
        if (ConsumeWord("true")) {
          const uint32_t node = NewNode(JsonDoc::Type::kBool);
          doc_.nodes_[node].boolean = true;
          return node;
        }
        return Error("bad literal");
      case 'f':
        if (ConsumeWord("false")) return NewNode(JsonDoc::Type::kBool);
        return Error("bad literal");
      case 'n':
        if (ConsumeWord("null")) return NewNode(JsonDoc::Type::kNull);
        return Error("bad literal");
      default:
        return ParseNumber();
    }
  }

  common::Result<uint32_t> ParseObject(int depth) {
    ++pos_;  // '{'
    const uint32_t node = NewNode(JsonDoc::Type::kObject);
    SkipSpace();
    if (Consume('}')) return node;
    while (true) {
      SkipSpace();
      if (!Peek('"')) return Error("expected object key");
      auto key = ParseString();
      if (!key.ok()) return key.status();
      const std::string_view key_view = doc_.ViewOf(key.value());
      if (IsDuplicateKey(node, key_view)) {
        return Error("duplicate object key \"" + std::string(key_view) +
                     "\"");
      }
      SkipSpace();
      if (!Consume(':')) return Error("expected ':'");
      SkipSpace();
      auto value = ParseValue(depth + 1);
      if (!value.ok()) return value.status();
      doc_.nodes_[value.value()].key = key.value();
      LinkChild(node, value.value());
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume('}')) return node;
      return Error("expected ',' or '}'");
    }
  }

  /// Whether `key` repeats a member already linked under `object`.
  bool IsDuplicateKey(uint32_t object, std::string_view key) {
    const JsonDoc::Node& obj = doc_.nodes_[object];
    if (obj.child_count < kLinearKeyScanMax) {
      for (uint32_t c = obj.first_child; c != kNone;
           c = doc_.nodes_[c].next_sibling) {
        if (doc_.ViewOf(doc_.nodes_[c].key) == key) return true;
      }
      return false;
    }
    if (obj.child_count == kLinearKeyScanMax) {  // outgrew the scan
      for (uint32_t c = obj.first_child; c != kNone;
           c = doc_.nodes_[c].next_sibling) {
        large_object_keys_.insert(
            ObjectKey(object, doc_.ViewOf(doc_.nodes_[c].key)));
      }
    }
    return !large_object_keys_.insert(ObjectKey(object, key)).second;
  }

  /// `key` tagged with its object's node index, so one set serves every
  /// large object of the document.
  static std::string ObjectKey(uint32_t object, std::string_view key) {
    std::string tagged(reinterpret_cast<const char*>(&object),
                       sizeof(object));
    tagged.append(key);
    return tagged;
  }

  common::Result<uint32_t> ParseArray(int depth) {
    ++pos_;  // '['
    const uint32_t node = NewNode(JsonDoc::Type::kArray);
    SkipSpace();
    if (Consume(']')) return node;
    while (true) {
      SkipSpace();
      auto value = ParseValue(depth + 1);
      if (!value.ok()) return value.status();
      LinkChild(node, value.value());
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume(']')) return node;
      return Error("expected ',' or ']'");
    }
  }

  /// Decoded string as a span. Escape-free strings (the overwhelmingly
  /// common case on this wire) are returned as input ranges without
  /// touching a single byte; strings with escapes decode once into the
  /// doc arena.
  common::Result<JsonDoc::Span> ParseString() {
    ++pos_;  // '"'
    const size_t start = pos_;
    // Fast path: scan for the closing quote; bail to the slow path at the
    // first escape, and fail on control characters exactly as before.
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        JsonDoc::Span span{static_cast<uint32_t>(start),
                           static_cast<uint32_t>(pos_ - start), false};
        ++pos_;
        return span;
      }
      if (c == '\\') break;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) return Error("unterminated string");
    // Slow path: copy the clean prefix into the arena, then decode
    // escapes with the tree parser's exact validation.
    const uint32_t arena_start = static_cast<uint32_t>(doc_.arena_.size());
    doc_.arena_.append(text_.data() + start, pos_ - start);
    while (true) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') {
        return JsonDoc::Span{
            arena_start,
            static_cast<uint32_t>(doc_.arena_.size() - arena_start), true};
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        doc_.arena_.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Error("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          doc_.arena_.push_back('"');
          break;
        case '\\':
          doc_.arena_.push_back('\\');
          break;
        case '/':
          doc_.arena_.push_back('/');
          break;
        case 'n':
          doc_.arena_.push_back('\n');
          break;
        case 'r':
          doc_.arena_.push_back('\r');
          break;
        case 't':
          doc_.arena_.push_back('\t');
          break;
        case 'b':
          doc_.arena_.push_back('\b');
          break;
        case 'f':
          doc_.arena_.push_back('\f');
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
          AppendUtf8(code, doc_.arena_);
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

  common::Result<uint32_t> ParseNumber() {
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
    // strtod needs NUL termination; the token is short, so a stack copy
    // beats allocating the std::string the tree parser builds.
    char buf[64];
    const size_t len = pos_ - start;
    double v = 0.0;
    if (len < sizeof(buf)) {
      text_.copy(buf, len, start);
      buf[len] = '\0';
      v = std::strtod(buf, nullptr);
    } else {
      const std::string token(text_.substr(start, len));
      v = std::strtod(token.c_str(), nullptr);
    }
    if (!std::isfinite(v)) return Error("number out of range");
    const uint32_t node = NewNode(JsonDoc::Type::kNumber);
    doc_.nodes_[node].number = v;
    return node;
  }

  std::string_view text_;
  size_t pos_ = 0;
  JsonDoc doc_;
  /// Keys of the objects that outgrew the linear duplicate scan, as
  /// owned copies (escaped keys live in the arena, which may reallocate).
  std::unordered_set<std::string> large_object_keys_;
};

common::Result<JsonDoc> JsonDoc::Parse(std::string_view text) {
  return ArenaJsonParser(text).Run();
}

}  // namespace lightor::net
