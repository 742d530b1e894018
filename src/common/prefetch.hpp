// Software prefetch hooks for the row-reading loops (the batch ranker's
// true-distance kernel and the LocalStore probe). Both walk rows that
// sit at unrelated heap or buffer positions, so each row is a dependent
// cache miss unless its lines are requested ahead of use. A prefetch is
// only a hint: it never faults, never changes a value, and a wrong guess
// costs bandwidth, not correctness.
//
// The helpers are always inlined. A function whose only effect is a
// prefetch counts as `const` to GCC's interprocedural analysis, which
// then deletes every call to it; inlined, the prefetches sit in the
// caller's loop and stay.
#pragma once

#include <cstddef>
#include <memory>
#include <ranges>

namespace lmk {

/// The line size the prefetch loops step by (x86-64 and most AArch64).
inline constexpr std::size_t kCacheLineBytes = 64;

/// Request every cache line of [p, p + bytes) for reading.
[[gnu::always_inline]] inline void prefetch_bytes(const void* p,
                                                  std::size_t bytes) {
  if (bytes == 0) return;
  const char* c = static_cast<const char*>(p);
  // Stepping one line at a time from `c` lands in each successive line;
  // the last byte covers the final line when `c` is not line-aligned.
  for (std::size_t off = 0; off < bytes; off += kCacheLineBytes) {
    __builtin_prefetch(c + off);
  }
  __builtin_prefetch(c + bytes - 1);
}

/// Request the object itself (for a container: its header, which holds
/// the pointer to its elements).
template <typename T>
[[gnu::always_inline]] inline void prefetch_object(const T& x) {
  __builtin_prefetch(std::addressof(x));
}

/// Request a point's payload: every line of a contiguous range's
/// elements (DenseVector, std::string, PointSet, a span of coordinates),
/// or the object alone for any other point type. Reads the range's
/// header, so call it once that header is likely cached.
template <typename T>
[[gnu::always_inline]] inline void prefetch_row(const T& x) {
  if constexpr (std::ranges::contiguous_range<const T&> &&
                std::ranges::sized_range<const T&>) {
    prefetch_bytes(std::ranges::data(x),
                   std::ranges::size(x) *
                       sizeof(std::ranges::range_value_t<const T&>));
  } else {
    prefetch_object(x);
  }
}

}  // namespace lmk
