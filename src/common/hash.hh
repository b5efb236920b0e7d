/**
 * @file
 * Content hashing for cache keys that must survive process restarts.
 *
 * The in-process schedule cache keys on monotonic generation counters,
 * which are meaningless across runs; the persisted cache keys on a
 * 64-bit digest of each object's canonical serialized bytes instead.
 * The serializers are already byte-for-byte deterministic (the
 * parallel-encode tests depend on it), so hashing the serialized
 * stream gives a stable content identity without a second traversal.
 *
 * Two hashes live here.  fnv1a() folds one byte at a time and suits
 * the few small keys built field by field.  The word hash behind
 * HashingStreambuf and words() digests bulk content -- matrices,
 * tables, whole schedule-cache bodies -- at memory speed.
 */

#ifndef ALR_COMMON_HASH_HH
#define ALR_COMMON_HASH_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <streambuf>

namespace alr::hash {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x00000100000001b3ULL;

/** Fold @p len bytes into an FNV-1a state. */
inline uint64_t
fnv1a(const void *data, size_t len, uint64_t state = kFnvOffset)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < len; ++i) {
        state ^= p[i];
        state *= kFnvPrime;
    }
    return state;
}

/** Fold one trivially-copyable value into an FNV-1a state. */
template <typename T>
uint64_t
fnv1aPod(const T &v, uint64_t state = kFnvOffset)
{
    return fnv1a(&v, sizeof(T), state);
}

/**
 * A streambuf that hashes everything written to it and stores nothing:
 * point an std::ostream at one and any existing serialize(ostream&)
 * doubles as a content-hash function at zero allocation cost.
 *
 * The hash reads the bytes as host-order 8-byte words in 32-byte
 * stripes, one word per lane over 4 independent lanes (the xxHash64
 * round and constants).  Writes land in a 32-byte carry buffer (the put
 * area) until a stripe is whole, so the digest depends only on the
 * byte sequence, never on how the writer split it.  Every step is
 * injective both in the state it updates and in the input it takes
 * in, so changing any one word of the input -- in particular any
 * single byte -- always changes the digest.
 */
class HashingStreambuf : public std::streambuf
{
  public:
    HashingStreambuf() { setp(_carry, _carry + kStripe); }
    // The put area points into this object's own carry buffer.
    HashingStreambuf(const HashingStreambuf &) = delete;
    HashingStreambuf &operator=(const HashingStreambuf &) = delete;

    /** Digest of every byte written so far (the writer may go on). */
    uint64_t digest() const
    {
        const auto *tail = reinterpret_cast<const unsigned char *>(pbase());
        size_t left = size_t(pptr() - pbase());
        uint64_t h = kP5 + _stripes * kStripe + left;
        for (uint64_t lane : _lanes)
            h = (h ^ round(0, lane)) * kP1 + kP4;
        for (; left >= 8; tail += 8, left -= 8)
            h = rotl(h ^ round(0, load<uint64_t>(tail)), 27) * kP1 + kP4;
        if (left >= 4) {
            h = rotl(h ^ (load<uint32_t>(tail) * kP1), 23) * kP2 + kP3;
            tail += 4;
            left -= 4;
        }
        for (; left > 0; ++tail, --left)
            h = rotl(h ^ (*tail * kP5), 11) * kP1;
        h ^= h >> 33;
        h *= kP2;
        h ^= h >> 29;
        h *= kP3;
        h ^= h >> 32;
        return h;
    }

  protected:
    int_type overflow(int_type ch) override
    {
        if (pptr() == epptr())
            foldCarry();
        if (ch != traits_type::eof()) {
            *pptr() = traits_type::to_char_type(ch);
            pbump(1);
        }
        return traits_type::not_eof(ch);
    }

    std::streamsize xsputn(const char *s, std::streamsize n) override
    {
        size_t left = size_t(n);
        if (pptr() != pbase()) {
            size_t take = std::min(left, size_t(epptr() - pptr()));
            std::memcpy(pptr(), s, take);
            pbump(int(take));
            s += take;
            left -= take;
            if (pptr() != epptr())
                return n;
            foldCarry();
        }
        // Whole stripes hash straight from the caller's buffer.
        for (; left >= kStripe; s += kStripe, left -= kStripe)
            fold(s);
        std::memcpy(pptr(), s, left);
        pbump(int(left));
        return n;
    }

  private:
    static constexpr size_t kStripe = 32;
    static constexpr uint64_t kP1 = 0x9E3779B185EBCA87ULL;
    static constexpr uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
    static constexpr uint64_t kP3 = 0x165667B19E3779F9ULL;
    static constexpr uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
    static constexpr uint64_t kP5 = 0x27D4EB2F165667C5ULL;

    static uint64_t rotl(uint64_t x, int r)
    {
        return (x << r) | (x >> (64 - r));
    }
    static uint64_t round(uint64_t acc, uint64_t word)
    {
        return rotl(acc + word * kP2, 31) * kP1;
    }
    template <typename T>
    static T load(const void *p)
    {
        T v;
        std::memcpy(&v, p, sizeof(T));
        return v;
    }

    void fold(const char *stripe)
    {
        for (int i = 0; i < 4; ++i)
            _lanes[i] = round(_lanes[i], load<uint64_t>(stripe + 8 * i));
        ++_stripes;
    }
    void foldCarry()
    {
        fold(_carry);
        setp(_carry, _carry + kStripe);
    }

    uint64_t _lanes[4] = {kP1 + kP2, kP2, 0, 0 - kP1};
    uint64_t _stripes = 0;
    char _carry[kStripe] = {};
};

/** Word hash of @p len bytes: the digest a HashingStreambuf gives for
 *  the same bytes, however they were written. */
inline uint64_t
words(const void *data, size_t len)
{
    HashingStreambuf buf;
    buf.sputn(static_cast<const char *>(data), std::streamsize(len));
    return buf.digest();
}

/** Hash whatever @p serialize_fn writes to the provided stream. */
template <typename Fn>
uint64_t
ofSerialized(Fn &&serialize_fn)
{
    HashingStreambuf buf;
    std::ostream os(&buf);
    serialize_fn(os);
    return buf.digest();
}

} // namespace alr::hash

#endif // ALR_COMMON_HASH_HH
