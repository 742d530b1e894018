#include "serve/result_cache.hpp"

#include <cstring>

#include "common/check.hpp"

namespace lmk {

ResultCache::ResultCache(std::size_t slots, std::size_t max_entries)
    : budget_(slots), max_entries_(max_entries) {
  slots_.reserve(budget_);
  digests_.reserve(budget_);
}

std::uint64_t ResultCache::region_digest(const Region& region) {
  // FNV-1a over the raw interval bytes. The platform always probes with
  // the clamped (canonical) region it solved, so bit-identical doubles
  // are the equality contract; the digest only short-circuits the exact
  // compare below.
  std::uint64_t h = 1469598103934665603ULL;
  for (const Interval& r : region.ranges) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(r.lo));
    std::memcpy(&bits, &r.lo, sizeof(bits));
    h = (h ^ bits) * 1099511628211ULL;
    std::memcpy(&bits, &r.hi, sizeof(bits));
    h = (h ^ bits) * 1099511628211ULL;
  }
  return h;
}

bool ResultCache::region_equal(const Region& a, const Region& b) {
  if (a.ranges.size() != b.ranges.size()) return false;
  for (std::size_t d = 0; d < a.ranges.size(); ++d) {
    if (a.ranges[d].lo != b.ranges[d].lo || a.ranges[d].hi != b.ranges[d].hi) {
      return false;
    }
  }
  return true;
}

// lmk-hot-path: probe and invalidate run once per subquery / per
// mutated point on every index node — they must not allocate in steady
// state (serve_test's steady-state case asserts zero in the
// alloc-guard build).
bool ResultCache::probe(const Region& region,
                        std::span<const std::uint64_t>* objects,
                        std::span<const double>* coords, std::size_t* dims) {
  if (budget_ == 0) return false;
  stats_.probes += 1;
  const std::uint64_t digest = region_digest(region);
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& s = slots_[i];
    if (!s.valid || digests_[i] != digest) continue;
    if (!region_equal(s.region, region)) continue;
    s.last_used = ++tick_;
    stats_.hits += 1;
    *objects = std::span<const std::uint64_t>(s.objects);
    *coords = std::span<const double>(s.coords);
    *dims = s.dims;
    return true;
  }
  stats_.misses += 1;
  return false;
}

void ResultCache::invalidate_point(std::span<const double> point) {
  for (Slot& s : slots_) {
    if (!s.valid) continue;
    if (linf_box_distance(point, s.region) == 0.0) {
      s.valid = false;
      stats_.point_invalidations += 1;
    }
  }
}
// lmk-hot-path-end

void ResultCache::invalidate_all() {
  for (Slot& s : slots_) s.valid = false;
  stats_.wipes += 1;
}

void ResultCache::insert(const Region& region,
                         std::span<const std::uint64_t> objects,
                         std::span<const double> coords, std::size_t dims) {
  if (budget_ == 0) return;
  if (max_entries_ > 0 && objects.size() > max_entries_) {
    stats_.oversize_skips += 1;
    return;
  }
  LMK_CHECK(coords.size() == objects.size() * dims);
  const std::uint64_t digest = region_digest(region);
  // Reuse in priority order: same region, then any invalid slot, then
  // (budget permitting) a fresh slot, else evict the LRU valid slot.
  Slot* target = nullptr;
  std::size_t target_i = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].valid && digests_[i] == digest &&
        region_equal(slots_[i].region, region)) {
      target = &slots_[i];
      target_i = i;
      break;
    }
  }
  if (target == nullptr) {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (!slots_[i].valid) {
        target = &slots_[i];
        target_i = i;
        break;
      }
    }
  }
  if (target == nullptr && slots_.size() < budget_) {
    slots_.emplace_back();
    digests_.push_back(0);
    target = &slots_.back();
    target_i = slots_.size() - 1;
  }
  if (target == nullptr) {
    std::uint64_t oldest = slots_[0].last_used;
    target_i = 0;
    for (std::size_t i = 1; i < slots_.size(); ++i) {
      if (slots_[i].last_used < oldest) {
        oldest = slots_[i].last_used;
        target_i = i;
      }
    }
    target = &slots_[target_i];
    stats_.evictions += 1;
  }
  Slot& s = *target;
  s.region = region;
  s.objects.assign(objects.begin(), objects.end());
  s.coords.assign(coords.begin(), coords.end());
  s.dims = dims;
  s.last_used = ++tick_;
  s.valid = true;
  digests_[target_i] = digest;
  stats_.insertions += 1;
}

std::size_t ResultCache::live_slots() const {
  std::size_t n = 0;
  for (const Slot& s : slots_) {
    if (s.valid) ++n;
  }
  return n;
}

}  // namespace lmk
