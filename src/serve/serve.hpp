// Serving-layer configuration and per-node serving state (ROADMAP
// item 4): hot-result caches, the router's cross-query coalescing
// window, and load-aware admission control. IndexPlatform owns one
// ServeState once IndexPlatform::set_serve_options enables any option;
// everything is off by default so the fig2/fig3 pipelines stay
// byte-identical. The tier is configured in code only: no environment
// variable switches it on.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/latency_model.hpp"
#include "serve/result_cache.hpp"

namespace lmk {

struct ServeOptions {
  bool cache_enabled = false;
  std::size_t cache_slots = 64;
  std::size_t cache_max_entries = 256;
  SimTime coalesce_window = 0; ///< 0 = per-episode flush (unchanged)
  std::uint32_t queue_limit = 0;  ///< solve-queue depth; 0 = admission off
  SimTime service_time = 0;    ///< modeled per-subquery solve occupancy
  /// Sheds a subquery absorbs before the still-saturated node drops it
  /// (load shedding proper: the query completes without that node's
  /// hits, recorded in QueryOutcome::lost_subqueries).
  int max_retries = 8;
  bool verify_hits = false;    ///< cross-check cache hits vs. a re-solve

  [[nodiscard]] bool cache_on() const {
    return cache_enabled && cache_slots > 0;
  }
  [[nodiscard]] bool admission_on() const { return queue_limit > 0; }
  [[nodiscard]] bool any_enabled() const {
    return cache_on() || admission_on() || coalesce_window > 0 ||
           service_time > 0;
  }
};

/// Serving-tier counters aggregated across nodes (cache stats live in
/// the per-node caches and are summed on demand).
struct ServeStats {
  std::uint64_t shed = 0;           ///< subqueries bounced to the origin
  std::uint64_t retries = 0;        ///< retry dispatches scheduled
  std::uint64_t retry_drops = 0;    ///< retries abandoned (origin died)
  std::uint64_t dropped = 0;        ///< retry ceiling reached, dropped
  std::uint64_t forced_admits = 0;  ///< naive routing: cannot shed
  std::uint64_t enqueued = 0;       ///< subqueries through the queue
  std::uint64_t verified_hits = 0;  ///< cache hits oracle-checked
};

/// Per-node serving state: result caches (one per scheme) plus the
/// admission queue gauge. Indexed by HostId; only events tagged with
/// that host touch a node's slot, so the state needs no locking and
/// stays deterministic at any LMK_THREADS.
class ServeState {
 public:
  struct NodeServe {
    std::vector<ResultCache> per_scheme;
    std::uint32_t queue = 0;     ///< admitted but unfinished solves
    SimTime busy_until = 0;      ///< end of the last scheduled solve
    std::uint32_t peak_queue = 0;
  };

  explicit ServeState(ServeOptions opts) : opts_(opts) {}

  [[nodiscard]] const ServeOptions& options() const { return opts_; }

  /// The node's serving slot, growing the table on first touch.
  [[nodiscard]] NodeServe& node(HostId host);

  /// The node's cache for one scheme (growing both tables on demand).
  [[nodiscard]] ResultCache& cache(HostId host, std::uint32_t scheme);

  /// Coverage invalidation fan-in for one mutated point.
  void invalidate_point(HostId host, std::uint32_t scheme,
                        std::span<const double> point);

  /// Conservative wipe of one (node, scheme) cache — bulk moves.
  void invalidate_scheme(HostId host, std::uint32_t scheme);

  [[nodiscard]] ServeStats& stats() { return stats_; }
  [[nodiscard]] const ServeStats& stats() const { return stats_; }

  /// Sum of every per-(node, scheme) cache's counters.
  [[nodiscard]] CacheStats aggregate_cache_stats() const;

 private:
  ServeOptions opts_;
  std::vector<NodeServe> nodes_;  // indexed by HostId
  ServeStats stats_;
};

}  // namespace lmk
