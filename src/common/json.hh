/**
 * @file
 * Minimal JSON document model: parse, navigate, compose, dump.
 *
 * The one JSON reader and writer of the library: serve requests and
 * responses, oracle-store payloads, Session::exportJson, lint
 * reports, the metrics snapshot and trace events are all Values, and
 * dump() is the only code that escapes strings and formats numbers.
 * Scope is deliberately narrow:
 *
 *  - strict RFC-8259 subset (no comments, no trailing commas),
 *  - nesting deeper than Value::kMaxDepth is a parse error, so no
 *    input can exhaust the parser's stack,
 *  - objects preserve insertion order, so dump() is deterministic
 *    for a deterministically composed document; an object past a few
 *    members hashes its keys, so composing or parsing a k-member
 *    object is O(k) expected,
 *  - numbers keep their source lexeme: a 64-bit integer round-trips
 *    exactly (doubles cannot hold every seed), and re-dumping a
 *    parsed document reproduces the original number text,
 *  - parse errors carry line/column, like circuit::QasmError,
 *  - accessor type mismatches throw TypeError, one more qsa::Error,
 *    so a field of the wrong type is rejected like any other input.
 */

#ifndef QSA_COMMON_JSON_HH
#define QSA_COMMON_JSON_HH

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/errors.hh"

namespace qsa::json
{

/** Thrown by typed accessors when the value has another type. */
class TypeError : public Error
{
  public:
    using Error::Error;
};

/** One JSON value (see file comment for the dialect contract). */
class Value
{
  public:
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    /** Null value. */
    Value() = default;

    Value(const Value &other);
    Value &operator=(const Value &other);
    Value(Value &&) noexcept = default;
    Value &operator=(Value &&) noexcept = default;
    ~Value() = default;

    /** @{ @name Composition */

    static Value boolean(bool b);

    /** Number from a double (shortest round-trip lexeme; non-finite
     *  values dump as null, JSON has no representation for them). */
    static Value number(double v);

    /** Number from any integer type, signed or unsigned (exact
     *  decimal lexeme). */
    template <typename Int,
              typename = std::enable_if_t<std::is_integral_v<Int>>>
    static Value integer(Int v)
    {
        if constexpr (std::is_signed_v<Int>)
            return fromInteger(static_cast<std::int64_t>(v));
        else
            return fromInteger(static_cast<std::uint64_t>(v));
    }

    static Value string(std::string s);
    static Value array();
    static Value object();

    /** Append to an array (TypeError otherwise). */
    Value &push(Value v);

    /** Insert or replace an object member; returns *this so
     *  document-building chains. A replaced member keeps its first
     *  position. */
    Value &set(const std::string &key, Value v);

    /** @} */
    /** @{ @name Inspection */

    Type type() const { return kind; }
    bool isNull() const { return kind == Type::Null; }
    bool isBool() const { return kind == Type::Bool; }
    bool isNumber() const { return kind == Type::Number; }
    bool isString() const { return kind == Type::String; }
    bool isArray() const { return kind == Type::Array; }
    bool isObject() const { return kind == Type::Object; }

    bool asBool() const;

    /** The number as a double (TypeError for non-numbers). */
    double asDouble() const;

    /**
     * The number as an exact unsigned 64-bit integer, parsed from the
     * source lexeme; TypeError when the value is not a number or the
     * lexeme is not a non-negative integer in range.
     */
    std::uint64_t asUint64() const;

    const std::string &asString() const;

    /** Array/object element count (0 for scalars). */
    std::size_t size() const;

    /** Array element (TypeError / out-of-range checked). */
    const Value &at(std::size_t index) const;

    /** Object member lookup; nullptr when absent (or not an object). */
    const Value *find(const std::string &key) const;

    /** Object members in insertion order. */
    const std::vector<std::pair<std::string, Value>> &members() const;

    /** @} */
    /** @{ @name Serialisation */

    /** Compact one-line rendering (deterministic, see file comment). */
    std::string dump() const;

    /** Arrays and objects nested deeper than this do not parse. */
    static constexpr std::size_t kMaxDepth = 64;

    /**
     * Parse one JSON document. Returns false on malformed input with
     * `*error` set to "line L, column C: <what>" (1-based positions);
     * trailing non-whitespace after the document is an error.
     */
    static bool parse(const std::string &text, Value *out,
                      std::string *error = nullptr);

    /** @} */

  private:
    static Value fromInteger(std::int64_t v);
    static Value fromInteger(std::uint64_t v);

    void dumpTo(std::string &out) const;

    /** Position of member `key`, or fields.size() when absent. */
    std::size_t memberIndex(const std::string &key) const;

    /** Enter the last member into `slots` once the object has more
     *  than kScannedMembers, growing the index as needed. */
    void indexLastMember();

    /** Objects up to this many members are scanned, not hashed. */
    static constexpr std::size_t kScannedMembers = 16;

    Type kind = Type::Null;
    bool boolValue = false;

    /** Number lexeme (numbers) or string payload (strings). */
    std::string text;

    std::vector<Value> elements;
    std::vector<std::pair<std::string, Value>> fields;

    /** Open-addressing hash index over the keys of `fields`, null up
     *  to kScannedMembers members: each slot holds a member position
     *  plus one, 0 when empty, and its size is the smallest power of
     *  two at least twice the member count. Behind a pointer, so a
     *  Value stays the size it would be without it. */
    std::unique_ptr<std::vector<std::uint32_t>> slots;

    friend class Parser;
};

} // namespace qsa::json

#endif // QSA_COMMON_JSON_HH
