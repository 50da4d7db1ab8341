#include "json.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <sstream>

namespace qsa::json
{

namespace
{

const char *typeName(Value::Type t)
{
    switch (t)
    {
    case Value::Type::Null:
        return "null";
    case Value::Type::Bool:
        return "bool";
    case Value::Type::Number:
        return "number";
    case Value::Type::String:
        return "string";
    case Value::Type::Array:
        return "array";
    case Value::Type::Object:
        return "object";
    }
    return "?";
}

[[noreturn]] void typeFail(const char *want, Value::Type got)
{
    std::ostringstream os;
    os << "JSON type mismatch: wanted " << want << ", value is "
       << typeName(got);
    throw TypeError(os.str());
}

/**
 * Append the shortest decimal that strtod maps back to the same bits
 * (%.17g always does; shorter forms first, so 0.25 stays "0.25"). The
 * oracle store's bit-exact round trip depends on it.
 */
void appendNumber(std::string &out, double v)
{
    char buf[32];
    for (int precision : {15, 16, 17})
    {
        std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    out += buf;
}

/** Append `s` as a JSON string literal. */
void appendString(std::string &out, const std::string &s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    out += '"';
    for (const char ch : s)
    {
        const auto c = static_cast<unsigned char>(ch);
        switch (c)
        {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (c < 0x20)
            {
                out += "\\u00";
                out += kHex[c >> 4];
                out += kHex[c & 0xF];
            }
            else
            {
                out += ch;
            }
        }
    }
    out += '"';
}

} // namespace

Value::Value(const Value &other)
    : kind(other.kind), boolValue(other.boolValue), text(other.text),
      elements(other.elements), fields(other.fields),
      slots(other.slots
                ? std::make_unique<std::vector<std::uint32_t>>(*other.slots)
                : nullptr)
{
}

Value &Value::operator=(const Value &other)
{
    if (this != &other)
        *this = Value(other);
    return *this;
}

Value Value::boolean(bool b)
{
    Value v;
    v.kind = Type::Bool;
    v.boolValue = b;
    return v;
}

Value Value::number(double d)
{
    Value v;
    if (!std::isfinite(d))
        return v;
    v.kind = Type::Number;
    appendNumber(v.text, d);
    return v;
}

Value Value::fromInteger(std::int64_t i)
{
    Value v;
    v.kind = Type::Number;
    v.text = std::to_string(i);
    return v;
}

Value Value::fromInteger(std::uint64_t u)
{
    Value v;
    v.kind = Type::Number;
    v.text = std::to_string(u);
    return v;
}

Value Value::string(std::string s)
{
    Value v;
    v.kind = Type::String;
    v.text = std::move(s);
    return v;
}

Value Value::array()
{
    Value v;
    v.kind = Type::Array;
    return v;
}

Value Value::object()
{
    Value v;
    v.kind = Type::Object;
    return v;
}

Value &Value::push(Value v)
{
    if (kind != Type::Array)
        typeFail("array", kind);
    elements.push_back(std::move(v));
    return *this;
}

Value &Value::set(const std::string &key, Value v)
{
    if (kind != Type::Object)
        typeFail("object", kind);
    const std::size_t at = memberIndex(key);
    if (at < fields.size())
    {
        fields[at].second = std::move(v);
        return *this;
    }
    fields.emplace_back(key, std::move(v));
    indexLastMember();
    return *this;
}

std::size_t Value::memberIndex(const std::string &key) const
{
    if (!slots)
    {
        for (std::size_t at = 0; at < fields.size(); ++at)
            if (fields[at].first == key)
                return at;
        return fields.size();
    }
    const std::vector<std::uint32_t> &table = *slots;
    const std::size_t mask = table.size() - 1;
    for (std::size_t s = std::hash<std::string>()(key) & mask;;
         s = (s + 1) & mask)
    {
        if (table[s] == 0)
            return fields.size();
        const std::size_t at = table[s] - 1;
        if (fields[at].first == key)
            return at;
    }
}

void Value::indexLastMember()
{
    if (fields.size() <= kScannedMembers)
        return;
    if (!slots)
        slots = std::make_unique<std::vector<std::uint32_t>>();
    std::vector<std::uint32_t> &table = *slots;
    const auto place = [&](std::size_t at) {
        const std::size_t mask = table.size() - 1;
        std::size_t s = std::hash<std::string>()(fields[at].first) & mask;
        while (table[s] != 0)
            s = (s + 1) & mask;
        table[s] = static_cast<std::uint32_t>(at + 1);
    };
    if (2 * fields.size() <= table.size())
    {
        place(fields.size() - 1);
        return;
    }
    // Past half full: rehash every member into the smallest power of
    // two at least twice the member count.
    std::size_t size = 1;
    while (size < 2 * fields.size())
        size *= 2;
    table.assign(size, 0);
    for (std::size_t at = 0; at < fields.size(); ++at)
        place(at);
}

bool Value::asBool() const
{
    if (kind != Type::Bool)
        typeFail("bool", kind);
    return boolValue;
}

double Value::asDouble() const
{
    if (kind != Type::Number)
        typeFail("number", kind);
    // The lexeme is the number: a composed double's round-trips.
    return std::strtod(text.c_str(), nullptr);
}

std::uint64_t Value::asUint64() const
{
    if (kind != Type::Number)
        typeFail("number", kind);
    for (char c : text)
        if (!std::isdigit(static_cast<unsigned char>(c)))
            throw TypeError("JSON number '" + text +
                            "' is not a non-negative integer");
    errno = 0;
    char *end = nullptr;
    const std::uint64_t u = std::strtoull(text.c_str(), &end, 10);
    if (errno == ERANGE || end != text.c_str() + text.size() ||
        text.empty())
        throw TypeError("JSON number '" + text +
                        "' does not fit in 64 bits");
    return u;
}

const std::string &Value::asString() const
{
    if (kind != Type::String)
        typeFail("string", kind);
    return text;
}

std::size_t Value::size() const
{
    if (kind == Type::Array)
        return elements.size();
    if (kind == Type::Object)
        return fields.size();
    return 0;
}

const Value &Value::at(std::size_t index) const
{
    if (kind != Type::Array)
        typeFail("array", kind);
    if (index >= elements.size())
        throw TypeError("JSON array index out of range");
    return elements[index];
}

const Value *Value::find(const std::string &key) const
{
    if (kind != Type::Object)
        return nullptr;
    const std::size_t at = memberIndex(key);
    return at < fields.size() ? &fields[at].second : nullptr;
}

const std::vector<std::pair<std::string, Value>> &Value::members() const
{
    if (kind != Type::Object)
        typeFail("object", kind);
    return fields;
}

void Value::dumpTo(std::string &out) const
{
    switch (kind)
    {
    case Type::Null:
        out += "null";
        return;
    case Type::Bool:
        out += boolValue ? "true" : "false";
        return;
    case Type::Number:
        // Re-emit the preserved lexeme.
        out += text;
        return;
    case Type::String:
        appendString(out, text);
        return;
    case Type::Array:
        out += '[';
        for (std::size_t i = 0; i < elements.size(); ++i)
        {
            if (i)
                out += ',';
            elements[i].dumpTo(out);
        }
        out += ']';
        return;
    case Type::Object:
        out += '{';
        for (std::size_t i = 0; i < fields.size(); ++i)
        {
            if (i)
                out += ',';
            appendString(out, fields[i].first);
            out += ':';
            fields[i].second.dumpTo(out);
        }
        out += '}';
        return;
    }
}

std::string Value::dump() const
{
    std::string out;
    dumpTo(out);
    return out;
}

/** Recursive-descent parser with 1-based line/column tracking. */
class Parser
{
  public:
    Parser(const std::string &source, std::string *err)
        : src(source), error(err)
    {
    }

    bool run(Value *out)
    {
        skipSpace();
        if (!parseValue(out))
            return false;
        skipSpace();
        if (pos != src.size())
            return fail("trailing characters after JSON document");
        return true;
    }

  private:
    const std::string &src;
    std::string *error;
    std::size_t pos = 0;
    std::size_t line = 1;
    std::size_t col = 1;

    /** Arrays and objects open around the current position. */
    std::size_t depth = 0;

    bool fail(const std::string &message)
    {
        if (error)
        {
            std::ostringstream os;
            os << "line " << line << ", column " << col << ": "
               << message;
            *error = os.str();
        }
        return false;
    }

    bool atEnd() const { return pos >= src.size(); }
    char peek() const { return src[pos]; }

    char take()
    {
        const char c = src[pos++];
        if (c == '\n')
        {
            ++line;
            col = 1;
        }
        else
        {
            ++col;
        }
        return c;
    }

    void skipSpace()
    {
        while (!atEnd())
        {
            const char c = peek();
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            take();
        }
    }

    bool literal(const char *word, Value *out, Value v)
    {
        for (const char *p = word; *p; ++p)
        {
            if (atEnd() || peek() != *p)
                return fail(std::string("expected '") + word + "'");
            take();
        }
        *out = std::move(v);
        return true;
    }

    bool parseValue(Value *out)
    {
        if (atEnd())
            return fail("unexpected end of input");
        switch (peek())
        {
        case '{':
        case '[':
        {
            // Bound the recursion, so no input can exhaust the stack.
            if (depth == Value::kMaxDepth)
                return fail("nesting deeper than " +
                            std::to_string(Value::kMaxDepth) + " levels");
            ++depth;
            const bool ok =
                peek() == '{' ? parseObject(out) : parseArray(out);
            --depth;
            return ok;
        }
        case '"':
        {
            std::string s;
            if (!parseString(&s))
                return false;
            *out = Value::string(std::move(s));
            return true;
        }
        case 't':
            return literal("true", out, Value::boolean(true));
        case 'f':
            return literal("false", out, Value::boolean(false));
        case 'n':
            return literal("null", out, Value());
        default:
            return parseNumber(out);
        }
    }

    bool parseObject(Value *out)
    {
        take(); // '{'
        Value obj = Value::object();
        skipSpace();
        if (!atEnd() && peek() == '}')
        {
            take();
            *out = std::move(obj);
            return true;
        }
        while (true)
        {
            skipSpace();
            if (atEnd() || peek() != '"')
                return fail("expected object key string");
            std::string key;
            if (!parseString(&key))
                return false;
            skipSpace();
            if (atEnd() || peek() != ':')
                return fail("expected ':' after object key");
            take();
            skipSpace();
            Value member;
            if (!parseValue(&member))
                return false;
            obj.set(key, std::move(member));
            skipSpace();
            if (atEnd())
                return fail("unterminated object");
            const char c = take();
            if (c == '}')
                break;
            if (c != ',')
                return fail("expected ',' or '}' in object");
        }
        *out = std::move(obj);
        return true;
    }

    bool parseArray(Value *out)
    {
        take(); // '['
        Value arr = Value::array();
        skipSpace();
        if (!atEnd() && peek() == ']')
        {
            take();
            *out = std::move(arr);
            return true;
        }
        while (true)
        {
            skipSpace();
            Value element;
            if (!parseValue(&element))
                return false;
            arr.push(std::move(element));
            skipSpace();
            if (atEnd())
                return fail("unterminated array");
            const char c = take();
            if (c == ']')
                break;
            if (c != ',')
                return fail("expected ',' or ']' in array");
        }
        *out = std::move(arr);
        return true;
    }

    bool hexDigit(char c, unsigned *out)
    {
        if (c >= '0' && c <= '9')
            *out = static_cast<unsigned>(c - '0');
        else if (c >= 'a' && c <= 'f')
            *out = static_cast<unsigned>(c - 'a' + 10);
        else if (c >= 'A' && c <= 'F')
            *out = static_cast<unsigned>(c - 'A' + 10);
        else
            return false;
        return true;
    }

    void appendUtf8(unsigned cp, std::string *s)
    {
        if (cp < 0x80)
        {
            *s += static_cast<char>(cp);
        }
        else if (cp < 0x800)
        {
            *s += static_cast<char>(0xC0 | (cp >> 6));
            *s += static_cast<char>(0x80 | (cp & 0x3F));
        }
        else
        {
            *s += static_cast<char>(0xE0 | (cp >> 12));
            *s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            *s += static_cast<char>(0x80 | (cp & 0x3F));
        }
    }

    bool parseString(std::string *out)
    {
        take(); // '"'
        std::string s;
        while (true)
        {
            if (atEnd())
                return fail("unterminated string");
            const char c = take();
            if (c == '"')
                break;
            if (c == '\\')
            {
                if (atEnd())
                    return fail("unterminated escape");
                const char e = take();
                switch (e)
                {
                case '"':
                    s += '"';
                    break;
                case '\\':
                    s += '\\';
                    break;
                case '/':
                    s += '/';
                    break;
                case 'b':
                    s += '\b';
                    break;
                case 'f':
                    s += '\f';
                    break;
                case 'n':
                    s += '\n';
                    break;
                case 'r':
                    s += '\r';
                    break;
                case 't':
                    s += '\t';
                    break;
                case 'u':
                {
                    unsigned cp = 0;
                    for (int i = 0; i < 4; ++i)
                    {
                        unsigned digit = 0;
                        if (atEnd() || !hexDigit(take(), &digit))
                            return fail("bad \\u escape");
                        cp = (cp << 4) | digit;
                    }
                    // Surrogate pairs are out of dialect scope; keep
                    // the code unit as-is (BMP-only \u escapes).
                    appendUtf8(cp, &s);
                    break;
                }
                default:
                    return fail(std::string("bad escape '\\") + e +
                                "'");
                }
                continue;
            }
            s += c;
        }
        *out = std::move(s);
        return true;
    }

    bool parseNumber(Value *out)
    {
        const std::size_t start = pos;
        if (!atEnd() && peek() == '-')
            take();
        bool digits = false;
        while (!atEnd() &&
               std::isdigit(static_cast<unsigned char>(peek())))
        {
            take();
            digits = true;
        }
        if (!atEnd() && peek() == '.')
        {
            take();
            while (!atEnd() &&
                   std::isdigit(static_cast<unsigned char>(peek())))
            {
                take();
                digits = true;
            }
        }
        if (!atEnd() && (peek() == 'e' || peek() == 'E'))
        {
            take();
            if (!atEnd() && (peek() == '+' || peek() == '-'))
                take();
            bool exp_digits = false;
            while (!atEnd() &&
                   std::isdigit(static_cast<unsigned char>(peek())))
            {
                take();
                exp_digits = true;
            }
            if (!exp_digits)
                return fail("malformed number exponent");
        }
        if (!digits)
            return fail("unexpected character");
        Value v;
        v.kind = Value::Type::Number;
        v.text = src.substr(start, pos - start);
        *out = std::move(v);
        return true;
    }
};

bool Value::parse(const std::string &text, Value *out,
                  std::string *error)
{
    Parser p(text, error);
    return p.run(out);
}

} // namespace qsa::json
