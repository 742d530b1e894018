// Per-node top-k selection for kTopK replies (the paper's "each queried
// index node returns the 10-nearest local results", §4.1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace lmk {

/// Select the k best candidates by (score, id) from parallel `ids` and
/// `scores`, deduplicating by id and keeping each id's lowest score (an
/// entry on a split plane is collected by both sibling subqueries).
/// `out` receives the kept candidates in ascending (score, id) order;
/// its capacity is reused across calls.
///
/// Equivalent to sorting by (id, score), dropping repeated ids, and
/// keeping the k smallest by (score, id), but runs a bounded max-heap:
/// O(n log k) time and O(k) space instead of a full O(n log n) sort.
void select_top_k(std::span<const std::uint64_t> ids,
                  std::span<const double> scores, std::size_t k,
                  std::vector<std::pair<double, std::uint64_t>>& out);

}  // namespace lmk
