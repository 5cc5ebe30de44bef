/**
 * @file
 * The one field codec for saved accelerator state (DESIGN.md §5).
 *
 * StateWriter appends fixed-size fields and length-prefixed spans;
 * StateReader takes them back in the same order. The blob may have
 * sat in guest memory, so reading trusts nothing: each read is one
 * bounds check, and the first short read or failed check() fails the
 * reader for good, making every later read a no-op that leaves its
 * target untouched. Callers check() the values they use as indices.
 */

#ifndef OPTIMUS_SIM_STATE_CODEC_HH
#define OPTIMUS_SIM_STATE_CODEC_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

namespace optimus::sim {

/** Serializes fields, in order, into a saved-state blob. */
class StateWriter
{
  public:
    /** Append one field: a scalar, an enum, or an array of them. */
    template <typename T>
    StateWriter &
    put(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        const auto *p = reinterpret_cast<const std::uint8_t *>(&v);
        _bytes.insert(_bytes.end(), p, p + sizeof(T));
        return *this;
    }

    /** Append the elements of @p v behind their 64-bit count. */
    template <typename T>
    StateWriter &
    putSpan(const std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        put(std::uint64_t{v.size()});
        const auto *p = reinterpret_cast<const std::uint8_t *>(v.data());
        _bytes.insert(_bytes.end(), p, p + v.size() * sizeof(T));
        return *this;
    }

    /** The blob written so far; leaves the writer empty. */
    std::vector<std::uint8_t> take() { return std::move(_bytes); }

  private:
    std::vector<std::uint8_t> _bytes;
};

/** Deserializes a StateWriter blob, failing closed. */
class StateReader
{
  public:
    explicit StateReader(const std::vector<std::uint8_t> &blob)
        : _data(blob.data()), _size(blob.size())
    {
    }

    /** Read one put() field. A bool takes only the bytes 0 and 1;
     *  any other type must be valid for every bit pattern. */
    template <typename T>
    StateReader &
    get(T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        if (const std::uint8_t *p = take(sizeof(T))) {
            if constexpr (std::is_same_v<T, bool>) {
                if (check(*p <= 1))
                    v = *p == 1;
            } else {
                std::memcpy(&v, p, sizeof(T));
            }
        }
        return *this;
    }

    /** Read a putSpan() span into @p out, which is left empty if the
     *  span holds more than @p max elements or overruns the blob. */
    template <typename T>
    StateReader &
    getSpan(std::vector<T> &out, std::size_t max)
    {
        std::uint64_t n = 0;
        get(n);
        out.clear();
        // Bound the count before it is multiplied by the element size.
        if (check(n <= max && n <= (_size - _pos) / sizeof(T)) && n > 0) {
            out.resize(n);
            std::memcpy(out.data(), take(n * sizeof(T)), n * sizeof(T));
        }
        return *this;
    }

    /** Fail the reader unless @p cond holds; returns ok(). */
    bool
    check(bool cond)
    {
        _ok = _ok && cond;
        return _ok;
    }

    bool ok() const { return _ok; }

  private:
    /** The next @p n bytes, or null once the reader has failed. */
    const std::uint8_t *
    take(std::size_t n)
    {
        if (!check(n <= _size - _pos))
            return nullptr;
        const std::uint8_t *p = _data + _pos;
        _pos += n;
        return p;
    }

    const std::uint8_t *_data;
    std::size_t _size;
    std::size_t _pos = 0;
    bool _ok = true;
};

} // namespace optimus::sim

#endif // OPTIMUS_SIM_STATE_CODEC_HH
