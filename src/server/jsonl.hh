/**
 * @file
 * A small self-contained JSON value type plus newline-delimited
 * framing, for the campaign daemon's wire protocol. One request or
 * response is exactly one line of compact JSON (strings escape
 * embedded newlines, so multi-line verdict documents travel as string
 * fields without breaking the framing).
 *
 * Deliberately minimal — no external dependency, objects keep
 * insertion order so serialization is deterministic, and integers are
 * kept as 64-bit integers (not doubles) so job ids and 64-bit seeds
 * round-trip exactly.
 */

#ifndef SCAL_SERVER_JSONL_HH
#define SCAL_SERVER_JSONL_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace scal::server::jsonl
{

/** Parse failure, carrying the byte offset of the offending input. */
struct ParseError : std::runtime_error
{
    ParseError(const std::string &msg, std::size_t at)
        : std::runtime_error(msg + " at byte " + std::to_string(at)),
          offset(at)
    {
    }
    std::size_t offset;
};

class Value;
using Array = std::vector<Value>;
using Member = std::pair<std::string, Value>;
using Object = std::vector<Member>;

class Value
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Int,    ///< signed 64-bit (covers unsigned values <= INT64_MAX)
        Uint,   ///< unsigned values above INT64_MAX
        Double, ///< anything with a fraction or exponent
        String,
        Array,
        Object,
    };

    Value() : kind_(Kind::Null) {}
    Value(std::nullptr_t) : kind_(Kind::Null) {}
    Value(bool b) : kind_(Kind::Bool), bool_(b) {}
    Value(int n) : kind_(Kind::Int), int_(n) {}
    Value(long n) : kind_(Kind::Int), int_(n) {}
    Value(long long n) : kind_(Kind::Int), int_(n) {}
    Value(unsigned long long n)
        : kind_(n <= 0x7fffffffffffffffull ? Kind::Int : Kind::Uint)
    {
        if (kind_ == Kind::Int)
            int_ = static_cast<std::int64_t>(n);
        else
            uint_ = n;
    }
    Value(unsigned long n) : Value(static_cast<unsigned long long>(n)) {}
    Value(unsigned n) : Value(static_cast<unsigned long long>(n)) {}
    Value(double d) : kind_(Kind::Double), double_(d) {}
    Value(const char *s) : kind_(Kind::String), string_(s) {}
    Value(std::string s) : kind_(Kind::String), string_(std::move(s)) {}
    Value(jsonl::Array a) : kind_(Kind::Array), array_(std::move(a)) {}
    Value(jsonl::Object o) : kind_(Kind::Object), object_(std::move(o)) {}

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isObject() const { return kind_ == Kind::Object; }
    bool isString() const { return kind_ == Kind::String; }

    bool asBool() const;
    std::int64_t asInt64() const;  ///< Int/Uint(in range)/integral Double
    std::uint64_t asUint64() const;
    double asDouble() const;
    const std::string &asString() const;
    const jsonl::Array &asArray() const;
    const jsonl::Object &asObject() const;

    /** Object member lookup; nullptr when absent (or not an object). */
    const Value *find(const std::string &key) const;
    /** Append or replace an object member (null value stays a member). */
    void set(const std::string &key, Value v);

    /** Compact single-line serialization (newlines escaped). */
    std::string dump() const;

  private:
    void dumpTo(std::string &out) const;

    Kind kind_;
    bool bool_ = false;
    std::int64_t int_ = 0;
    std::uint64_t uint_ = 0;
    double double_ = 0;
    std::string string_;
    jsonl::Array array_;
    jsonl::Object object_;
};

/**
 * Deepest array/object nesting parse() accepts. The parser recurses
 * once per level, so the bound keeps a hostile line of brackets from
 * exhausting the stack; real requests nest three levels at most.
 */
inline constexpr int kMaxNestingDepth = 128;

/**
 * Parse exactly one JSON document (trailing whitespace allowed).
 * Throws ParseError on malformed input, including nesting deeper than
 * kMaxNestingDepth (located at the bracket that crosses the limit).
 */
Value parse(const std::string &text);

/** Escape a string for embedding inside a JSON document. */
std::string escape(const std::string &s);

/**
 * Longest request line the daemon accepts, terminator excluded: room
 * for an inline circuit of well over 100k gates, and a bound on what
 * one connection can make the daemon buffer.
 */
inline constexpr std::size_t kMaxLineBytes = std::size_t{16} << 20;

/**
 * Incremental newline framing over a byte stream: feed() raw reads,
 * pop() complete lines (without the terminator) as they arrive. Each
 * byte is searched once and moved at most once more, so framing a
 * burst of lines is linear in its bytes. A line longer than the cap
 * latches overflowed(): pop() yields nothing from then on, and the
 * caller should answer and drop the stream.
 */
class LineBuffer
{
  public:
    /** No cap at all, for a peer the reader trusts (a client reading
     *  its own daemon's responses). */
    static constexpr std::size_t kUnbounded = ~std::size_t{0};

    explicit LineBuffer(std::size_t max_line = kMaxLineBytes)
        : max_(max_line)
    {
    }

    void
    feed(const char *data, std::size_t n)
    {
        if (overflowed_)
            return;
        // Drop consumed bytes once they outweigh the live ones: each
        // byte is moved at most once, amortized O(1).
        if (head_ > 0 && head_ >= buf_.size() - head_) {
            buf_.erase(0, head_);
            scanned_ -= head_;
            head_ = 0;
        }
        buf_.append(data, n);
    }

    bool
    pop(std::string *line)
    {
        if (overflowed_)
            return false;
        const std::size_t nl = buf_.find('\n', scanned_);
        if (nl == std::string::npos) {
            scanned_ = buf_.size();
            overflowed_ = max_ != kUnbounded && buf_.size() - head_ > max_;
            return false;
        }
        std::size_t len = nl - head_;
        if (len > 0 && buf_[nl - 1] == '\r')
            --len;
        if (max_ != kUnbounded && len > max_) {
            overflowed_ = true;
            return false;
        }
        line->assign(buf_, head_, len);
        head_ = scanned_ = nl + 1;
        return true;
    }

    /** A line outgrew the cap; nothing more will be framed. */
    bool overflowed() const { return overflowed_; }
    std::size_t maxLine() const { return max_; }

  private:
    std::string buf_;
    std::size_t head_ = 0;    ///< first byte of the unpopped data
    std::size_t scanned_ = 0; ///< bytes before this hold no newline
    std::size_t max_;
    bool overflowed_ = false;
};

} // namespace scal::server::jsonl

#endif // SCAL_SERVER_JSONL_HH
