/**
 * @file
 * Fixed-size arrays that start as zero pages.
 */

#ifndef DESC_COMMON_ZEROARRAY_HH
#define DESC_COMMON_ZEROARRAY_HH

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <type_traits>

#include "common/contract.hh"

namespace desc {

/**
 * A fixed-size array of trivially copyable elements whose every byte
 * starts at zero, taken from calloc: a large allocation that gets
 * fresh memory arrives as pages the kernel zero-fills on first touch,
 * so elements that are never written cost neither a memset nor a page
 * fault (calloc clears recycled memory itself). The element type's
 * all-zero bytes must be its empty value.
 */
template <typename T>
class ZeroArray
{
    static_assert(std::is_trivially_copyable_v<T>
                      && std::is_trivially_destructible_v<T>,
                  "zero-page storage holds trivially copyable types only");

  public:
    ZeroArray() = default;

    explicit ZeroArray(std::size_t n)
        : _data(static_cast<T *>(std::calloc(n ? n : 1, sizeof(T))))
    {
        DESC_ASSERT(_data, "out of memory for ", n, " elements");
    }

    T &operator[](std::size_t i) { return _data.get()[i]; }
    const T &operator[](std::size_t i) const { return _data.get()[i]; }

  private:
    struct Free
    {
        void operator()(T *p) const { std::free(p); }
    };
    std::unique_ptr<T, Free> _data;
};

} // namespace desc

#endif // DESC_COMMON_ZEROARRAY_HH
