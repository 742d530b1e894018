#include "core/top_k.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace lmk {

void select_top_k(std::span<const std::uint64_t> ids,
                  std::span<const double> scores, std::size_t k,
                  std::vector<std::pair<double, std::uint64_t>>& out) {
  LMK_CHECK(ids.size() == scores.size());
  out.clear();
  if (k == 0) return;
  // Max-heap on (score, id): out.front() is the worst candidate kept.
  // Invariant: out holds the min(k, distinct ids) best (lowest score
  // per id, then id) among the candidates seen so far.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::pair<double, std::uint64_t> c{scores[i], ids[i]};
    // Most candidates lose to the current k-th best in O(1); only the
    // ones that would enter pay the O(k) duplicate scan.
    if (out.size() == k && !(c < out.front())) continue;
    auto dup = std::find_if(out.begin(), out.end(), [&](const auto& e) {
      return e.second == c.second;
    });
    if (dup != out.end()) {
      if (c.first < dup->first) {
        dup->first = c.first;
        std::make_heap(out.begin(), out.end());
      }
      continue;
    }
    if (out.size() == k) {
      std::pop_heap(out.begin(), out.end());
      out.back() = c;
    } else {
      out.push_back(c);
    }
    std::push_heap(out.begin(), out.end());
  }
  std::sort_heap(out.begin(), out.end());
}

}  // namespace lmk
