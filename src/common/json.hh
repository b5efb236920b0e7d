/**
 * @file
 * Strict JSON reader and the one JSON writer for every artifact.
 *
 * Every JSON document this repo emits (alr_sim --json / --profile /
 * --timeline, the stat tree and snapshots, the metrics snapshots,
 * alr_serve --json, BENCH_*.json) is written through json::Writer, and
 * every tool that reads one back (alr_diff, the in-process A/B
 * harness, perfbench) uses parse().  One escape routine and one number
 * routine therefore serve both sides:
 *
 * - **Strict reader**: rejects everything RFC 8259 rejects -- trailing
 *   content, bad escapes, lone surrogates, raw control characters,
 *   leading zeros, bare fractions ("1." / ".5"), empty exponents,
 *   non-finite results -- plus duplicate object keys, which the RFC
 *   merely frowns at but which always indicate a corrupt artifact
 *   here.  Errors carry the byte offset.
 * - **Strict writer**: strings escape '"', '\\' and every control
 *   character; doubles print %.17g (exact round trip) and non-finite
 *   doubles print null, so every emitted document parses.
 * - **Round-trippable**: parse(dump(x)) == x for every finite value.
 *   Objects preserve insertion order; integers that fit int64 stay
 *   integers; other numbers are doubles.
 */

#ifndef ALR_COMMON_JSON_HH
#define ALR_COMMON_JSON_HH

#include <charconv>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace alr::json {

class Value;

enum class Kind : uint8_t
{
    Null,
    Bool,
    Int,    ///< integer literal that fits int64
    Double, ///< any other number
    String,
    Array,
    Object,
};

/** Stable lowercase label ("null", "object", ...). */
const char *toString(Kind k);

/**
 * A parsed JSON value.  Plain tagged value type: copyable, movable,
 * equality-comparable (numeric equality across Int/Double so a double
 * that prints integral still compares equal after a round trip).
 */
class Value
{
  public:
    Value() = default;
    explicit Value(bool b) : _kind(Kind::Bool), _bool(b) {}
    explicit Value(int64_t i) : _kind(Kind::Int), _int(i) {}
    explicit Value(double d) : _kind(Kind::Double), _double(d) {}
    explicit Value(std::string s)
        : _kind(Kind::String), _string(std::move(s))
    {
    }
    /** A string literal is a string: without this overload the
     *  pointer-to-bool conversion would pick Value(bool). */
    explicit Value(const char *s) : Value(std::string(s)) {}

    static Value array() { Value v; v._kind = Kind::Array; return v; }
    static Value object() { Value v; v._kind = Kind::Object; return v; }

    Kind kind() const { return _kind; }
    bool isNull() const { return _kind == Kind::Null; }
    bool isBool() const { return _kind == Kind::Bool; }
    bool isNumber() const
    {
        return _kind == Kind::Int || _kind == Kind::Double;
    }
    bool isInt() const { return _kind == Kind::Int; }
    bool isString() const { return _kind == Kind::String; }
    bool isArray() const { return _kind == Kind::Array; }
    bool isObject() const { return _kind == Kind::Object; }

    /** Typed accessors; the caller checks the kind first (ALR code
     *  style: these assert in debug, return zero values in release). */
    bool asBool() const { return _kind == Kind::Bool && _bool; }
    int64_t asInt() const;
    double asDouble() const;
    const std::string &asString() const { return _string; }

    const std::vector<Value> &elements() const { return _elements; }
    std::vector<Value> &elements() { return _elements; }
    void append(Value v) { _elements.push_back(std::move(v)); }

    /** Object members in insertion order. */
    const std::vector<std::pair<std::string, Value>> &members() const
    {
        return _objMembers;
    }

    /** Object lookup; nullptr when absent (or not an object). */
    const Value *find(std::string_view key) const;

    /** Append a member (no duplicate check; the parser enforces). */
    void set(std::string key, Value v);

    /** Convenience typed lookups with defaults. */
    int64_t intAt(std::string_view key, int64_t def = 0) const;
    double numberAt(std::string_view key, double def = 0.0) const;
    std::string stringAt(std::string_view key,
                         const std::string &def = {}) const;

    bool operator==(const Value &o) const;
    bool operator!=(const Value &o) const { return !(*this == o); }

  private:
    Kind _kind = Kind::Null;
    bool _bool = false;
    int64_t _int = 0;
    double _double = 0.0;
    std::string _string;
    std::vector<Value> _elements;
    std::vector<std::pair<std::string, Value>> _objMembers;
};

/** Result of a parse: ok + value, or error text + byte offset. */
struct Parsed
{
    bool ok = false;
    Value value;
    std::string error;
    size_t offset = 0;

    explicit operator bool() const { return ok; }
};

/** Parse one complete JSON document (strict; see file comment). */
Parsed parse(std::string_view text);

/** Read and parse a file; on failure returns ok=false with the path
 *  prefixed to the error. */
Parsed parseFile(const std::string &path);

/**
 * Streaming JSON emitter.  It owns the separator and indentation
 * state: a block container puts each member on its own line, indented
 * two spaces per level; a one-line container (and everything nested
 * in it) keeps its members on one line, separated by ", ".  Nothing is
 * buffered, so documents of any size (the Chrome trace) stream
 * straight to the output.
 *
 * Calls chain: w.beginObject().key("n").value(3).endObject().
 * Inside an object every value is preceded by key(); the writer
 * asserts on misuse (a value where a key is due, unbalanced end*()).
 * No trailing newline is written; the caller ends the document.
 */
class Writer
{
  public:
    /** @p indent: column of the document's outer level. */
    explicit Writer(std::ostream &os, int indent = 0)
        : _os(os), _indent(indent)
    {
    }

    Writer &beginObject(bool oneLine = false);
    Writer &endObject();
    Writer &beginArray(bool oneLine = false);
    Writer &endArray();
    Writer &key(std::string_view k);

    Writer &value(std::string_view s);
    Writer &value(const char *s) { return value(std::string_view(s)); }
    Writer &value(bool b);
    /** %.17g, suffixed ".0" when the text would read back as an
     *  integer; NaN and +-Inf print null. */
    Writer &value(double d);
    /** Any integer type, printed exactly. */
    template <typename T>
        requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
    Writer &value(T v)
    {
        char buf[24];
        auto r = std::to_chars(buf, buf + sizeof(buf), v);
        return raw(std::string_view(buf, size_t(r.ptr - buf)));
    }
    Writer &null();

    /** A count kept in a double: integral values below 2^53 in
     *  magnitude print as JSON integers, anything else as value(d). */
    Writer &number(double d);

  private:
    struct Frame
    {
        bool object;
        bool oneLine;
        bool empty = true;
    };

    /** Separator and indentation before a value or a key. */
    void separate();
    /** Indentation of the current nesting level. */
    void newlinePad();
    /** A scalar's text, after its separator. */
    Writer &raw(std::string_view text);
    Writer &begin(char open, bool object, bool oneLine);
    Writer &end(char close);
    void string(std::string_view s);

    std::ostream &_os;
    int _indent;
    std::vector<Frame> _stack;
    bool _afterKey = false;
    std::string _pad; ///< spaces, grown to the deepest indentation
};

/** Serialize @p v through Writer: block layout, 2-space indentation
 *  starting at column @p indent. */
void dump(std::ostream &os, const Value &v, int indent = 0);
std::string dump(const Value &v);

} // namespace alr::json

#endif // ALR_COMMON_JSON_HH
