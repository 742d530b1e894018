#include "store/local_store.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/prefetch.hpp"

namespace lmk {

void LocalStore::build(const EntryStore& entries) {
  const std::size_t dims = entries.dims();
  order_.assign(dims, {});
  const auto n = static_cast<std::uint32_t>(entries.size());
  for (std::size_t d = 0; d < dims; ++d) order_[d].reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::span<const double> p = entries.point(i);
    for (std::size_t d = 0; d < dims; ++d) {
      order_[d].emplace_back(p[d], i);
    }
  }
  for (std::size_t d = 0; d < dims; ++d) {
    std::sort(order_[d].begin(), order_[d].end());
  }
}

// lmk-hot-path: range runs once per subquery per index node — the
// per-event cost of the whole query storm. The alloc-guard build's
// flagship gate (scripts/bench_diff.py, allocations per arrival)
// catches a per-entry allocation here.
std::size_t LocalStore::range(const EntryStore& entries, const Region& region,
                              std::vector<std::uint32_t>& out) const {
  // An empty store indexes zero dimensions; nothing can match.
  if (order_.empty()) return 0;
  const std::size_t dims = order_.size();
  std::size_t best_d = 0;
  std::size_t best_lo = 0;
  std::size_t best_hi = 0;
  std::size_t best_count = entries.size() + 1;
  for (std::size_t d = 0; d < dims; ++d) {
    const auto& ord = order_[d];
    const Interval& r = region.ranges[d];
    auto lo = std::lower_bound(
        ord.begin(), ord.end(), r.lo,
        [](const std::pair<double, std::uint32_t>& p, double v) {
          return p.first < v;
        });
    auto hi = std::upper_bound(
        lo, ord.end(), r.hi,
        [](double v, const std::pair<double, std::uint32_t>& p) {
          return v < p.first;
        });
    auto count = static_cast<std::size_t>(hi - lo);
    if (count < best_count) {
      best_count = count;
      best_d = d;
      best_lo = static_cast<std::size_t>(lo - ord.begin());
      best_hi = static_cast<std::size_t>(hi - ord.begin());
    }
  }
  const auto& ord = order_[best_d];
  for (std::size_t k = best_lo; k < best_hi; ++k) {
    if (k + kProbePrefetchAhead < best_hi) {
      prefetch_row(entries.point(ord[k + kProbePrefetchAhead].second));
    }
    const std::uint32_t ei = ord[k].second;
    std::span<const double> pt = entries.point(ei);
    bool inside = true;
    for (std::size_t d = 0; d < pt.size(); ++d) {
      if (d == best_d) continue;  // the slice already satisfies best_d
      const Interval& r = region.ranges[d];
      if (pt[d] < r.lo || pt[d] > r.hi) {
        inside = false;
        break;
      }
    }
    if (!inside) continue;
    // Caller-owned hit buffer; capacity survives across probes.
    // lmk-lint: allow(hot-alloc) pooled-buffer capacity warmup
    out.push_back(ei);
  }
  return best_count;
}
// lmk-hot-path-end

std::size_t LocalStore::memory_bytes() const {
  std::size_t bytes = order_.capacity() * sizeof(order_[0]);
  for (const auto& ord : order_) {
    bytes += ord.capacity() * sizeof(std::pair<double, std::uint32_t>);
  }
  return bytes;
}

// lmk-hot-path: insert and erase run on every single-entry write to a
// built store, interleaved with query traffic, so they must not grow
// new allocations beyond the bounded capacity step below.
void LocalStore::insert(const EntryStore& entries, std::uint32_t i) {
  LMK_CHECK(static_cast<std::size_t>(i) + 1 == entries.size());
  // A store built empty may not have known its dimensionality yet.
  if (order_.size() != entries.dims()) {
    LMK_CHECK(i == 0);
    order_.resize(entries.dims());
  }
  std::span<const double> p = entries.point(i);
  for (std::size_t d = 0; d < order_.size(); ++d) {
    auto& ord = order_[d];
    if (ord.size() == ord.capacity()) {
      // memory_bytes() counts capacity, so grow by a small fraction
      // rather than the vector's doubling.
      // lmk-lint: allow(hot-alloc) bounded capacity growth, size/16 + 8
      ord.reserve(ord.size() + ord.size() / 16 + 8);
    }
    const std::pair<double, std::uint32_t> e{p[d], i};
    ord.insert(std::lower_bound(ord.begin(), ord.end(), e), e);
  }
}

void LocalStore::erase(std::span<const double> pt, std::uint32_t i) {
  LMK_CHECK(pt.size() == order_.size());
  for (std::size_t d = 0; d < order_.size(); ++d) {
    auto& ord = order_[d];
    const std::pair<double, std::uint32_t> e{pt[d], i};
    auto it = std::lower_bound(ord.begin(), ord.end(), e);
    LMK_CHECK(it != ord.end() && *it == e);
    ord.erase(it);
    // Mirror EntryStore::erase_at's shift of the later rows. Branchless:
    // which indices exceed i is unpredictable.
    for (auto& [value, index] : ord) {
      index -= static_cast<std::uint32_t>(index > i);
    }
  }
}
// lmk-hot-path-end

std::unique_ptr<LocalStore> make_local_store(
    const LocalStoreOptions& /*opts*/) {
  return std::make_unique<LocalStore>();
}

}  // namespace lmk
