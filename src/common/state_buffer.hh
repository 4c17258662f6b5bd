/**
 * @file
 * Flat binary state serialisation: simulator snapshots, .hsr result
 * records and HSRP frames.
 *
 * One body per record. Each record names its fields once, in wire
 * order, in a single member template
 *
 *     template <class IO> void X::serialize(IO &io);
 *
 * instantiated in X's .cc for exactly StateWriter and StateReader (no
 * virtual dispatch, no run-time direction flag). The two classes share
 * one verb set: with a writer each verb appends a field, with a reader
 * it reads the field back in place. The few steps only one direction
 * takes (rebinding pointers, consistency checks, dropping state the
 * restoring configuration does not use) sit in
 * `if constexpr (IO::kReading)` blocks. A writer never changes the
 * record it is given, so record() may hand a const record to a body.
 *
 * The verbs:
 *  - tag(t, what): a section marker; a reader fatal()s on another tag,
 *    so a layout mismatch fails at the section, not downstream.
 *  - value(v): one trivially copyable value as raw bytes (a bool is
 *    one byte, 0 or 1).
 *  - enumerated(e, last, what): an enum as one byte; a reader
 *    fatal()s on a value past @p last.
 *  - bytes(p, n): @p n raw bytes.
 *  - vec(v), string(s): a uint64 length, then the raw elements.
 *  - table(v, what): vec() of a vector whose length both sides already
 *    share (a geometry); a reader fatal()s on another length and reads
 *    in place.
 *  - count(n, min_bytes_each): a uint64 element count; a reader
 *    fatal()s ("truncated") unless @p n elements of at least
 *    @p min_bytes_each bytes fit in the bytes left.
 *  - length(v, min_bytes_each): count() of v.size(); a reader resizes
 *    v to the count. The elements follow, each through its own verbs.
 *  - echo(v, what): a configuration value both sides must share; a
 *    writer writes it, a reader reads it and fatal()s ("incompatible")
 *    when it differs from its own.
 *  - record(x): x's own serialize() body.
 *
 * Guarantees. Every length a reader takes from its input is checked
 * against the bytes left before anything is allocated, without
 * overflow, so no count from outside can drive an allocation past the
 * input's size. A value copied as raw bytes carries no implicit
 * padding: a type written that way declares its padding as explicit
 * zero-initialised members and static_asserts its size, so equal state
 * always encodes to equal bytes.
 *
 * Buffers may cross processes and machines only between builds that
 * agree on the explicit format-version constants the higher layers
 * exchange first (the .hsr header, the HSRP handshake); within one
 * process no versioning is needed at all.
 */

#ifndef HS_COMMON_STATE_BUFFER_HH
#define HS_COMMON_STATE_BUFFER_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/log.hh"

namespace hs {

/** Build a four-byte section tag from a string literal like "PIPE". */
constexpr uint32_t
stateTag(const char (&s)[5])
{
    return static_cast<uint32_t>(static_cast<unsigned char>(s[0])) |
           static_cast<uint32_t>(static_cast<unsigned char>(s[1])) << 8 |
           static_cast<uint32_t>(static_cast<unsigned char>(s[2])) << 16 |
           static_cast<uint32_t>(static_cast<unsigned char>(s[3])) << 24;
}

namespace state_detail {

template <class T> struct IsVector : std::false_type {};
template <class T> struct IsVector<std::vector<T>> : std::true_type {};

/** A value that may be copied as raw bytes. */
template <class T>
constexpr bool kRaw = std::is_trivially_copyable_v<T> && !std::is_enum_v<T>;

} // namespace state_detail

/** Appends records to a caller-owned byte buffer. */
class StateWriter
{
  public:
    static constexpr bool kReading = false;

    explicit StateWriter(std::vector<uint8_t> &out) : out_(out) {}

    void tag(uint32_t t, const char *) { value(t); }

    template <class T>
    void
    value(const T &v)
    {
        static_assert(state_detail::kRaw<T>,
                      "value() needs a trivially copyable non-enum type");
        bytes(&v, sizeof(T));
    }

    template <class E>
    void
    enumerated(E e, E, const char *)
    {
        static_assert(std::is_enum_v<E>);
        value(static_cast<uint8_t>(e));
    }

    void
    bytes(const void *p, size_t n)
    {
        const uint8_t *b = static_cast<const uint8_t *>(p);
        if (n)
            out_.insert(out_.end(), b, b + n);
    }

    template <class T>
    void
    vec(const std::vector<T> &v)
    {
        static_assert(state_detail::kRaw<T>,
                      "vec() needs trivially copyable elements");
        value<uint64_t>(v.size());
        bytes(v.data(), v.size() * sizeof(T));
    }

    void
    string(const std::string &s)
    {
        value<uint64_t>(s.size());
        bytes(s.data(), s.size());
    }

    template <class T>
    void table(const std::vector<T> &v, const char *) { vec(v); }

    void count(uint64_t n, size_t) { value(n); }

    template <class T>
    void
    length(const std::vector<T> &v, size_t)
    {
        value<uint64_t>(v.size());
    }

    template <class T>
    void
    echo(const T &mine, const char *)
    {
        if constexpr (state_detail::IsVector<T>::value)
            vec(mine);
        else
            value(mine);
    }

    /** A writer only reads the record, so its body may take it
     *  non-const. */
    template <class T>
    void
    record(const T &rec)
    {
        const_cast<T &>(rec).serialize(*this);
    }

  private:
    std::vector<uint8_t> &out_;
};

/** Reads records written by StateWriter back in place. */
class StateReader
{
  public:
    static constexpr bool kReading = true;

    StateReader(const uint8_t *data, size_t size)
        : p_(data), end_(data + size)
    {
    }

    explicit StateReader(const std::vector<uint8_t> &buf)
        : StateReader(buf.data(), buf.size())
    {
    }

    void
    tag(uint32_t t, const char *what)
    {
        uint32_t got = 0;
        value(got);
        if (got != t)
            fatal("StateReader: bad section tag for %s (layout "
                  "mismatch: got 0x%08x, want 0x%08x)",
                  what, got, t);
    }

    template <class T>
    void
    value(T &v)
    {
        static_assert(state_detail::kRaw<T>,
                      "value() needs a trivially copyable non-enum type");
        if constexpr (std::is_same_v<T, bool>) {
            uint8_t b = 0;
            bytes(&b, 1);
            v = b != 0;
        } else {
            bytes(&v, sizeof(T));
        }
    }

    template <class E>
    void
    enumerated(E &e, E last, const char *what)
    {
        uint8_t v = 0;
        value(v);
        checkEnum(static_cast<E>(v), last, what);
        e = static_cast<E>(v);
    }

    /** fatal() when @p e (read raw, e.g. inside a vec() element) is
     *  past @p last. */
    template <class E>
    static void
    checkEnum(E e, E last, const char *what)
    {
        static_assert(std::is_enum_v<E>);
        if (static_cast<unsigned>(e) > static_cast<unsigned>(last))
            fatal("StateReader: %s %u out of range (at most %u)", what,
                  static_cast<unsigned>(e), static_cast<unsigned>(last));
    }

    void
    bytes(void *p, size_t n)
    {
        if (remaining() < n)
            fatal("StateReader: truncated input (need %zu bytes, %zu "
                  "left)",
                  n, remaining());
        if (n)
            std::memcpy(p, p_, n);
        p_ += n;
    }

    template <class T>
    void
    vec(std::vector<T> &v)
    {
        static_assert(state_detail::kRaw<T>,
                      "vec() needs trivially copyable elements");
        uint64_t n = 0;
        count(n, sizeof(T));
        v.resize(static_cast<size_t>(n));
        bytes(v.data(), v.size() * sizeof(T));
    }

    void
    string(std::string &s)
    {
        uint64_t n = 0;
        count(n, 1);
        s.assign(reinterpret_cast<const char *>(p_),
                 static_cast<size_t>(n));
        p_ += n;
    }

    template <class T>
    void
    table(std::vector<T> &v, const char *what)
    {
        static_assert(state_detail::kRaw<T>,
                      "table() needs trivially copyable elements");
        echo(static_cast<uint64_t>(v.size()), what);
        bytes(v.data(), v.size() * sizeof(T));
    }

    void
    count(uint64_t &n, size_t min_bytes_each)
    {
        value(n);
        if (n > remaining() / min_bytes_each)
            fatal("StateReader: truncated input (%llu elements of at "
                  "least %zu bytes claimed, %zu bytes left)",
                  static_cast<unsigned long long>(n), min_bytes_each,
                  remaining());
    }

    template <class T>
    void
    length(std::vector<T> &v, size_t min_bytes_each)
    {
        uint64_t n = 0;
        count(n, min_bytes_each);
        v.resize(static_cast<size_t>(n));
    }

    template <class T>
    void
    echo(const T &mine, const char *what)
    {
        T theirs{};
        if constexpr (state_detail::IsVector<T>::value)
            vec(theirs);
        else
            value(theirs);
        if (!(theirs == mine))
            fatal("StateReader: incompatible %s (the input has %s, this "
                  "side %s)",
                  what, describe(theirs).c_str(), describe(mine).c_str());
    }

    template <class T>
    void
    record(T &rec)
    {
        rec.serialize(*this);
    }

    /** fatal() unless every byte has been read. */
    void
    expectEnd(const char *what) const
    {
        if (remaining())
            fatal("%s: %zu trailing bytes (layout mismatch)", what,
                  remaining());
    }

    size_t remaining() const { return static_cast<size_t>(end_ - p_); }

  private:
    template <class T>
    static std::string
    describe(const T &v)
    {
        if constexpr (state_detail::IsVector<T>::value)
            return strprintf("%zu values", v.size());
        else if constexpr (std::is_floating_point_v<T>)
            return strprintf("%.17g", static_cast<double>(v));
        else if constexpr (std::is_signed_v<T>)
            return strprintf("%lld", static_cast<long long>(v));
        else
            return strprintf("%llu", static_cast<unsigned long long>(v));
    }

    const uint8_t *p_;
    const uint8_t *end_;
};

} // namespace hs

#endif // HS_COMMON_STATE_BUFFER_HH
