#ifndef LIGHTOR_NET_JSON_ARENA_H_
#define LIGHTOR_NET_JSON_ARENA_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace lightor::net {

/// Arena-parsed JSON document: the one JSON parser of the service — the
/// wire codec, the router's routing key, membership and the fleet
/// metrics scrape all decode through it. Where a tree parser builds heap
/// nodes (a vector of pair<std::string, value> per object, a std::string
/// per string), a JsonDoc is one flat node vector plus one byte arena:
///
///   * Strings and keys without escapes are string_views into the input
///     (the connection's parse buffer) — zero bytes copied.
///   * Escaped strings are decoded once into the doc-owned arena.
///   * Structure is first_child/next_sibling index links, so an object
///     with k members costs k contiguous nodes, not k string + value pairs.
///
/// Strict: whole-input parse, duplicate object keys rejected (in time
/// linear in the member count), nesting capped, numbers finite, and
/// "json: <what> at byte <pos>" error strings — identical to the frozen
/// tree parser in src/testing that the tests hold it against.
///
/// Lifetime: the input buffer must outlive the doc (request bodies live
/// in the RequestParser buffer, which the server keeps stable while a
/// handler runs). Refs borrow from the doc and must not outlive it.
class JsonDoc {
 public:
  enum class Type : uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Lightweight cursor over one node. A default-constructed or failed
  /// lookup Ref is invalid (`ok() == false`); accessors require validity.
  class Ref {
   public:
    Ref() = default;

    bool ok() const { return doc_ != nullptr; }
    explicit operator bool() const { return ok(); }

    Type type() const;
    bool is_null() const { return type() == Type::kNull; }
    bool is_bool() const { return type() == Type::kBool; }
    bool is_number() const { return type() == Type::kNumber; }
    bool is_string() const { return type() == Type::kString; }
    bool is_array() const { return type() == Type::kArray; }
    bool is_object() const { return type() == Type::kObject; }

    bool AsBool() const;
    double AsNumber() const;
    std::string_view AsString() const;

    /// Child count of an array/object; 0 otherwise.
    size_t size() const;
    /// Object member lookup; invalid Ref when absent or not an object.
    Ref Find(std::string_view key) const;
    /// First child of an array/object (invalid when empty), then walk
    /// with next_sibling(); members iterate in insertion order.
    Ref first_child() const;
    Ref next_sibling() const;
    /// The object key this node is stored under (empty for array items
    /// and the root).
    std::string_view key() const;

   private:
    friend class JsonDoc;
    Ref(const JsonDoc* doc, uint32_t index) : doc_(doc), index_(index) {}
    const JsonDoc* doc_ = nullptr;
    uint32_t index_ = 0;
  };

  JsonDoc() = default;
  JsonDoc(JsonDoc&&) = default;
  JsonDoc& operator=(JsonDoc&&) = default;
  JsonDoc(const JsonDoc&) = delete;
  JsonDoc& operator=(const JsonDoc&) = delete;

  /// Strict whole-input parse; `text` must outlive the returned doc.
  static common::Result<JsonDoc> Parse(std::string_view text);

  Ref root() const { return Ref(this, 0); }

  /// Bytes held by the node vector and escape arena (capacity metrics).
  size_t arena_bytes() const {
    return nodes_.capacity() * sizeof(Node) + arena_.capacity();
  }

 private:
  friend class ArenaJsonParser;

  static constexpr uint32_t kNone = 0xFFFFFFFF;

  /// Byte range in either the input or the escape arena.
  struct Span {
    uint32_t off = 0;
    uint32_t len = 0;
    bool in_arena = false;
  };

  struct Node {
    Type type = Type::kNull;
    bool boolean = false;
    double number = 0.0;
    Span str;   ///< payload of kString nodes
    Span key;   ///< object key (len 0 and off 0 for array items/root)
    uint32_t first_child = kNone;
    uint32_t last_child = kNone;
    uint32_t next_sibling = kNone;
    uint32_t child_count = 0;
  };

  std::string_view ViewOf(Span s) const {
    return s.in_arena ? std::string_view(arena_.data() + s.off, s.len)
                      : input_.substr(s.off, s.len);
  }

  std::string_view input_;
  std::vector<Node> nodes_;
  std::string arena_;  ///< decoded bytes of escaped strings only
};

}  // namespace lightor::net

#endif  // LIGHTOR_NET_JSON_ARENA_H_
