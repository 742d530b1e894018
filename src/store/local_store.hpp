// Per-node local index. Each (node, scheme) pair owns an EntryStore (the
// SoA rows) plus a LocalStore: per-dimension sorted order indices over
// those rows. A range probe binary-searches every dimension and walks
// only the most selective slice, so it answers the solver's box probes
// exactly without a full scan.
//
// Determinism contract: given the same EntryStore contents, `build`
// produces the same structure and `range` emits the same indices in the
// same order, independent of LMK_THREADS, node identity, and insertion
// history.
//
// Mutation protocol: a built LocalStore follows single-entry writes in
// place — `insert` after an EntryStore::push_back, `erase` before an
// EntryStore::erase_at — and stays element-for-element the structure
// `build` would produce from the mutated rows. Bulk writers (loads,
// migrations, repair) instead mark the store stale; the platform then
// calls `build` again before the next probe. A stale structure must not
// be probed or updated in place.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/entry_store.hpp"
#include "lph/lph.hpp"

namespace lmk {

/// Configuration shim with no fields; the local store has no options.
struct LocalStoreOptions {};

/// Cumulative (re)build accounting, aggregated platform-wide: how many
/// times any per-(node, scheme) structure was built and how many entries
/// those builds indexed. Migration and rotation churn shows up here.
struct LocalStoreBuildStats {
  std::uint64_t rebuilds = 0;
  std::uint64_t rebuilt_entries = 0;
};

/// How many slice positions ahead of the entry being checked `range`
/// prefetches a point: entry indices along a slice are unrelated, so
/// each point read is a cache miss unless requested early. Chosen by
/// measurement (DESIGN.md "Local stores").
inline constexpr std::size_t kProbePrefetchAhead = 16;

/// Sorted order indices over one EntryStore. `range` reports `scanned` —
/// the number of stored entries whose coordinates were examined.
class LocalStore {
 public:
  /// (Re)index the store's current rows. Reads coordinates through
  /// EntryStore spans only; leaves the structure probe-ready even for
  /// an empty store.
  void build(const EntryStore& entries);

  /// Index entry `i`, which the caller has just appended to `entries`
  /// (so `i == entries.size() - 1`). The structure must have been
  /// current before the append.
  void insert(const EntryStore& entries, std::uint32_t i);

  /// Drop entry `i` with point `pt`, which the caller is about to erase
  /// with EntryStore::erase_at(i): later indices shift down by one, as
  /// the rows do. The structure must be current before the erase.
  void erase(std::span<const double> pt, std::uint32_t i);

  /// Append the indices of entries whose point lies in the closed region
  /// to `out` (not cleared), in ascending order of the most selective
  /// dimension. Returns the number of entries scanned.
  std::size_t range(const EntryStore& entries, const Region& region,
                    std::vector<std::uint32_t>& out) const;

  /// Resident heap bytes of the index structure (excluding the EntryStore).
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  // order_[d] holds (coordinate d, entry index) sorted ascending; the
  // pair order breaks value ties by entry index, so the scan order — and
  // therefore the whole simulation — is independent of the sort
  // algorithm's handling of equal values. Because that order is total,
  // an in-place insert or erase lands every pair exactly where a fresh
  // build would put it.
  std::vector<std::vector<std::pair<double, std::uint32_t>>> order_;
};

/// Shim for callers that still construct stores through a factory.
[[nodiscard]] std::unique_ptr<LocalStore> make_local_store(
    const LocalStoreOptions& opts);

}  // namespace lmk
