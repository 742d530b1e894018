#include "serve/serve.hpp"

namespace lmk {

ServeState::NodeServe& ServeState::node(HostId host) {
  if (host >= nodes_.size()) {
    nodes_.resize(static_cast<std::size_t>(host) + 1);
  }
  return nodes_[host];
}

ResultCache& ServeState::cache(HostId host, std::uint32_t scheme) {
  NodeServe& ns = node(host);
  while (ns.per_scheme.size() <= scheme) {
    ns.per_scheme.emplace_back(opts_.cache_on() ? opts_.cache_slots : 0,
                               opts_.cache_max_entries);
  }
  return ns.per_scheme[scheme];
}

void ServeState::invalidate_point(HostId host, std::uint32_t scheme,
                                  std::span<const double> point) {
  if (host >= nodes_.size()) return;  // node never cached anything
  NodeServe& ns = nodes_[host];
  if (scheme >= ns.per_scheme.size()) return;
  ns.per_scheme[scheme].invalidate_point(point);
}

void ServeState::invalidate_scheme(HostId host, std::uint32_t scheme) {
  if (host >= nodes_.size()) return;
  NodeServe& ns = nodes_[host];
  if (scheme >= ns.per_scheme.size()) return;
  ns.per_scheme[scheme].invalidate_all();
}

CacheStats ServeState::aggregate_cache_stats() const {
  CacheStats total;
  for (const NodeServe& ns : nodes_) {
    for (const ResultCache& c : ns.per_scheme) {
      total.add(c.stats());
    }
  }
  return total;
}

}  // namespace lmk
