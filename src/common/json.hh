/**
 * @file
 * Minimal JSON document model: parse, navigate, compose, dump.
 *
 * The repo's machine-readable *writers* (common/benchjson, the
 * session exporter) compose JSON as text; the serving layer
 * (qsa::serve) and the oracle store also need to *read* JSON — wire
 * requests and persisted oracle payloads — so this module adds the
 * missing half as one small value type. Scope is deliberately narrow:
 *
 *  - strict RFC-8259 subset (no comments, no trailing commas),
 *  - objects preserve insertion order, so dump() is deterministic
 *    for a deterministically composed document,
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

    /** @{ @name Composition */

    static Value boolean(bool b);

    /** Number from a double (shortest round-trip lexeme; non-finite
     *  values dump as null, JSON has no representation for them). */
    static Value number(double v);

    /** Number from an unsigned integer (exact decimal lexeme). */
    static Value integer(std::uint64_t v);

    static Value string(std::string s);
    static Value array();
    static Value object();

    /** Append to an array (TypeError otherwise). */
    Value &push(Value v);

    /** Insert or replace an object member; returns *this so
     *  document-building chains. */
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

    /**
     * Parse one JSON document. Returns false on malformed input with
     * `*error` set to "line L, column C: <what>" (1-based positions);
     * trailing non-whitespace after the document is an error.
     */
    static bool parse(const std::string &text, Value *out,
                      std::string *error = nullptr);

    /** Parse or throw qsa::Error with the positioned message (trusted
     *  input: repo-generated documents, test fixtures). */
    static Value parseOrDie(const std::string &text);

    /** @} */

  private:
    void dumpTo(std::string &out) const;

    Type kind = Type::Null;
    bool boolValue = false;
    double numValue = 0.0;

    /** Number lexeme (numbers) or string payload (strings). */
    std::string text;

    std::vector<Value> elements;
    std::vector<std::pair<std::string, Value>> fields;

    friend class Parser;
};

} // namespace qsa::json

#endif // QSA_COMMON_JSON_HH
