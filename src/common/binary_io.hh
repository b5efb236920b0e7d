/**
 * @file
 * Tiny binary (de)serialization helpers for the program-image format:
 * little-endian PODs and length-prefixed vectors.  All readers throw
 * std::runtime_error on truncated or corrupt input so callers can
 * surface fatal() with context.
 */

#ifndef ALR_COMMON_BINARY_IO_HH
#define ALR_COMMON_BINARY_IO_HH

#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace alr::bio {

template <typename T>
void
writePod(std::ostream &out, const T &v)
{
    static_assert(std::is_trivially_copyable_v<T>);
    out.write(reinterpret_cast<const char *>(&v), sizeof(T));
}

template <typename T>
T
readPod(std::istream &in)
{
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    in.read(reinterpret_cast<char *>(&v), sizeof(T));
    if (!in)
        throw std::runtime_error("binary stream truncated");
    return v;
}

template <typename T, typename Alloc>
void
writeVec(std::ostream &out, const std::vector<T, Alloc> &v)
{
    static_assert(std::is_trivially_copyable_v<T>);
    writePod<uint64_t>(out, v.size());
    if (!v.empty()) {
        out.write(reinterpret_cast<const char *>(v.data()),
                  std::streamsize(v.size() * sizeof(T)));
    }
}

/**
 * Gathers small PODs in a local buffer and hands them to the stream in
 * few large writes.  A per-record loop of writePod calls otherwise pays
 * the ostream sentry and a virtual call per field.  The bytes are those
 * of the same writePod calls; they reach the stream on flush() or at
 * scope exit, so keep other writes to the stream outside the scope.
 */
class BufferedWriter
{
  public:
    explicit BufferedWriter(std::ostream &out) : _out(out) {}
    BufferedWriter(const BufferedWriter &) = delete;
    BufferedWriter &operator=(const BufferedWriter &) = delete;
    ~BufferedWriter() { flush(); }

    template <typename T>
    void pod(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        if (_used + sizeof(T) > sizeof(_buf))
            flush();
        std::memcpy(_buf + _used, &v, sizeof(T));
        _used += sizeof(T);
    }

    void flush()
    {
        _out.write(_buf, std::streamsize(_used));
        _used = 0;
    }

  private:
    std::ostream &_out;
    char _buf[4096] = {};
    size_t _used = 0;
};

/**
 * Read a length-prefixed vector into @p v (any allocator -- the
 * aligned payload vectors deserialize without a bounce copy).
 */
template <typename T, typename Alloc>
void
readVecInto(std::istream &in, std::vector<T, Alloc> &v,
            uint64_t max_elems = uint64_t(1) << 32)
{
    static_assert(std::is_trivially_copyable_v<T>);
    uint64_t n = readPod<uint64_t>(in);
    if (n > max_elems)
        throw std::runtime_error("binary vector implausibly large");
    v.resize(static_cast<size_t>(n));
    if (n) {
        in.read(reinterpret_cast<char *>(v.data()),
                std::streamsize(n * sizeof(T)));
        if (!in)
            throw std::runtime_error("binary stream truncated");
    }
}

template <typename T>
std::vector<T>
readVec(std::istream &in, uint64_t max_elems = uint64_t(1) << 32)
{
    uint64_t n = readPod<uint64_t>(in);
    if (n > max_elems)
        throw std::runtime_error("binary vector implausibly large");
    auto v = std::vector<T>(static_cast<size_t>(n));
    if (n) {
        in.read(reinterpret_cast<char *>(v.data()),
                std::streamsize(n * sizeof(T)));
        if (!in)
            throw std::runtime_error("binary stream truncated");
    }
    return v;
}

} // namespace alr::bio

#endif // ALR_COMMON_BINARY_IO_HH
