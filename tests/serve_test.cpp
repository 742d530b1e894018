// Serving-layer semantics (src/serve/): hot-result cache unit behavior
// (LRU, TTL, coverage-precision invalidation, allocation-free steady
// state), end-to-end cache correctness against a brute-force oracle
// under randomized mutation traces, admission-control shed/retry
// termination and determinism, and cross-query batching byte savings.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "common/alloc_guard.hpp"
#include "common/rng.hpp"
#include "core/index_platform.hpp"
#include "serve/result_cache.hpp"

namespace lmk {
namespace {

Region box2(double lo, double hi) {
  return Region{{Interval{lo, hi}, Interval{lo, hi}}};
}

TEST(LinfBoxDistance, ZeroInsidePositiveOutside) {
  Region r = box2(0.2, 0.4);
  const double inside[] = {0.3, 0.3};
  const double edge[] = {0.4, 0.2};
  const double outside[] = {0.5, 0.3};
  EXPECT_EQ(linf_box_distance(inside, r), 0.0);
  EXPECT_EQ(linf_box_distance(edge, r), 0.0);  // closed intervals
  EXPECT_DOUBLE_EQ(linf_box_distance(outside, r), 0.1);
  const double corner[] = {0.5, 0.55};
  EXPECT_DOUBLE_EQ(linf_box_distance(corner, r), 0.15);
}

TEST(ResultCache, HitMissAndLruEviction) {
  ResultCache cache(/*slots=*/2, /*max_entries=*/0);
  const std::uint64_t objs_a[] = {1, 2};
  const double coords_a[] = {0.25, 0.25, 0.3, 0.3};
  const std::uint64_t objs_b[] = {7};
  const double coords_b[] = {0.6, 0.6};
  cache.insert(box2(0.2, 0.4), objs_a, coords_a, 2);
  cache.insert(box2(0.5, 0.7), objs_b, coords_b, 2);

  std::span<const std::uint64_t> o;
  std::span<const double> c;
  std::size_t dims = 0;
  ASSERT_TRUE(cache.probe(box2(0.2, 0.4), &o, &c, &dims));
  EXPECT_EQ(dims, 2u);
  ASSERT_EQ(o.size(), 2u);
  EXPECT_EQ(o[0], 1u);
  EXPECT_EQ(c[2], 0.3);
  // Probe bumped A's recency; inserting a third region evicts B.
  const std::uint64_t objs_c[] = {9};
  const double coords_c[] = {0.1, 0.1};
  cache.insert(box2(0.0, 0.15), objs_c, coords_c, 2);
  EXPECT_TRUE(cache.probe(box2(0.2, 0.4), &o, &c, &dims));
  EXPECT_FALSE(cache.probe(box2(0.5, 0.7), &o, &c, &dims));
  EXPECT_TRUE(cache.probe(box2(0.0, 0.15), &o, &c, &dims));
  EXPECT_EQ(cache.stats().evictions, 1u);
  // A near-identical region (different hi) is a different key.
  EXPECT_FALSE(cache.probe(box2(0.2, 0.40001), &o, &c, &dims));
}

TEST(ResultCache, CoverageInvalidationIsPrecise) {
  ResultCache cache(4, 0);
  const std::uint64_t objs[] = {1};
  const double coords[] = {0.3, 0.3};
  cache.insert(box2(0.2, 0.4), objs, coords, 2);
  cache.insert(box2(0.6, 0.8), objs, coords, 2);

  // A point outside both regions invalidates neither.
  const double miss[] = {0.5, 0.5};
  cache.invalidate_point(miss);
  EXPECT_EQ(cache.live_slots(), 2u);
  // A point covering only the first region drops exactly that slot;
  // the closed-interval edge counts as covered.
  const double edge[] = {0.4, 0.4};
  cache.invalidate_point(edge);
  EXPECT_EQ(cache.live_slots(), 1u);
  std::span<const std::uint64_t> o;
  std::span<const double> c;
  std::size_t dims = 0;
  EXPECT_FALSE(cache.probe(box2(0.2, 0.4), &o, &c, &dims));
  EXPECT_TRUE(cache.probe(box2(0.6, 0.8), &o, &c, &dims));
  EXPECT_EQ(cache.stats().point_invalidations, 1u);
  cache.invalidate_all();
  EXPECT_EQ(cache.live_slots(), 0u);
}

TEST(ResultCache, OversizeSkips) {
  ResultCache cache(2, /*max_entries=*/1);
  std::span<const std::uint64_t> o;
  std::span<const double> c;
  std::size_t dims = 0;
  // A hit-list at the limit is cached.
  const std::uint64_t one[] = {1};
  const double coords[] = {0.3, 0.3};
  cache.insert(box2(0.2, 0.4), one, coords, 2);
  EXPECT_TRUE(cache.probe(box2(0.2, 0.4), &o, &c, &dims));
  // Oversized hit-lists are skipped, not truncated.
  const std::uint64_t two[] = {1, 2};
  const double coords2[] = {0.3, 0.3, 0.35, 0.35};
  cache.insert(box2(0.5, 0.6), two, coords2, 2);
  EXPECT_FALSE(cache.probe(box2(0.5, 0.6), &o, &c, &dims));
  EXPECT_EQ(cache.stats().oversize_skips, 1u);
}

// Once filled, the cache's probe and non-covering invalidation loops
// run on every subquery and every mutated point of an index node, so
// they must not allocate. Regions and probe points are prebuilt
// (Region construction allocates); the counters move only in an
// LMK_ALLOC_GUARD build, which is where the zero is asserted.
TEST(ResultCache, SteadyStateProbeAndInvalidationAreAllocationFree) {
  constexpr std::size_t kSlots = 256;
  constexpr std::size_t kEntries = 64;
  constexpr std::size_t kDims = 8;
  constexpr std::uint64_t kProbes = 20000;
  ResultCache cache(kSlots, /*max_entries=*/0);
  auto box_at = [&](double lo) {
    Region r;
    for (std::size_t d = 0; d < kDims; ++d) {
      r.ranges.push_back(Interval{lo, lo + 0.5});
    }
    return r;
  };
  std::vector<Region> fill_regions, miss_regions;
  for (std::size_t i = 0; i < kSlots; ++i) {
    fill_regions.push_back(box_at(static_cast<double>(i)));
    miss_regions.push_back(box_at(static_cast<double>(i) + 0.25));
  }
  std::vector<std::uint64_t> objs(kEntries);
  std::vector<double> coords(kEntries * kDims);
  Rng rng(33);
  for (std::size_t e = 0; e < kEntries; ++e) {
    objs[e] = e;
    for (std::size_t d = 0; d < kDims; ++d) {
      coords[e * kDims + d] = rng.uniform();
    }
  }
  for (const Region& r : fill_regions) cache.insert(r, objs, coords, kDims);
  const std::vector<double> outside(kDims, -10.0);  // covers no slot

  std::span<const std::uint64_t> o;
  std::span<const double> c;
  std::size_t dims = 0;
  std::uint64_t hits = 0, misses = 0;
  AllocCounters steady;
  {
    AllocPhaseScope phase("serve-steady-state");
    for (std::uint64_t p = 0; p < kProbes; ++p) {
      if (cache.probe(fill_regions[p % kSlots], &o, &c, &dims)) ++hits;
    }
    for (std::uint64_t p = 0; p < kProbes; ++p) {
      if (!cache.probe(miss_regions[p % kSlots], &o, &c, &dims)) ++misses;
    }
    for (std::uint64_t p = 0; p < kProbes / 8; ++p) {
      cache.invalidate_point(outside);
    }
    steady = phase.delta();
  }
  EXPECT_EQ(hits, kProbes);
  EXPECT_EQ(misses, kProbes);
  EXPECT_EQ(cache.live_slots(), kSlots);
  if (alloc_guard_enabled()) {
    EXPECT_EQ(steady.allocs, 0u);
    EXPECT_EQ(steady.frees, 0u);
  }
}

struct Stack {
  Stack(std::size_t hosts, std::uint64_t seed,
        IndexPlatform::Options popts = {})
      : topo(hosts, 12 * kMillisecond), net(sim, topo) {
    Ring::Options ropts;
    ropts.seed = seed;
    ring = std::make_unique<Ring>(net, ropts);
    for (HostId h = 0; h < hosts; ++h) ring->create_node(h);
    ring->bootstrap();
    platform = std::make_unique<IndexPlatform>(*ring, popts);
  }

  std::optional<IndexPlatform::QueryOutcome> query_all(std::uint32_t scheme,
                                                       Region region) {
    std::optional<IndexPlatform::QueryOutcome> outcome;
    platform->region_query(*ring->alive_nodes()[0], scheme, region,
                           IndexPoint(region.dims(), 0.5),
                           ReplyMode::kAllMatches,
                           [&](const auto& o) { outcome = o; });
    sim.run();
    return outcome;
  }

  Simulator sim;
  ConstantLatencyModel topo;
  Network net;
  std::unique_ptr<Ring> ring;
  std::unique_ptr<IndexPlatform> platform;
};

ServeOptions cache_only_options() {
  ServeOptions so;
  so.cache_enabled = true;
  so.cache_slots = 32;
  so.cache_max_entries = 512;
  so.verify_hits = true;  // every hit oracle-checked in-line
  return so;
}

/// Randomized insert/extract/migration trace with interleaved queries
/// against a rotated scheme: every query's result set must equal the
/// brute-force oracle id-for-id — a stale cache hit either diverges
/// here or trips the in-line verify_hits re-solve. With the cache
/// off every probe reads the local stores that single-entry writes
/// maintain in place; with replication each write updates every copy.
void run_mutation_trace(std::size_t replication, bool cache) {
  IndexPlatform::Options popts;
  popts.replication = replication;
  Stack s(24, 7, popts);
  if (cache) s.platform->set_serve_options(cache_only_options());
  // rotate=true: cache keys live in index space while placement is
  // rotated — the invalidation plumbing must respect both.
  auto scheme =
      s.platform->register_scheme("trace", uniform_boundary(2, 0, 1), true);

  Rng rng(99);
  std::map<std::uint64_t, IndexPoint> shadow;
  std::uint64_t next_id = 0;
  auto random_point = [&]() { return IndexPoint{rng.uniform(), rng.uniform()}; };
  auto random_region = [&]() {
    const double cx = rng.uniform();
    const double cy = rng.uniform();
    const double r = 0.05 + 0.25 * rng.uniform();
    Region reg{{Interval{std::max(0.0, cx - r), std::min(1.0, cx + r)},
                Interval{std::max(0.0, cy - r), std::min(1.0, cy + r)}}};
    return reg;
  };
  auto check_query = [&](const Region& reg) {
    auto outcome = s.query_all(scheme, reg);
    ASSERT_TRUE(outcome.has_value());
    ASSERT_TRUE(outcome->complete);
    std::set<std::uint64_t> got(outcome->results.begin(),
                                outcome->results.end());
    std::set<std::uint64_t> want;
    for (const auto& [id, pt] : shadow) {
      bool inside = true;
      for (std::size_t d = 0; d < 2; ++d) {
        if (pt[d] < reg.ranges[d].lo || pt[d] > reg.ranges[d].hi) {
          inside = false;
          break;
        }
      }
      if (inside) want.insert(id);
    }
    ASSERT_EQ(got, want);
  };

  for (int i = 0; i < 60; ++i) {
    shadow.emplace(next_id, random_point());
    s.platform->insert(scheme, next_id, shadow.at(next_id));
    ++next_id;
  }
  // A few fixed hot regions so later rounds actually hit the cache.
  std::vector<Region> hot;
  for (int i = 0; i < 4; ++i) hot.push_back(random_region());

  for (int round = 0; round < 12; ++round) {
    // Mutate: inserts, removes, and occasionally a bulk move.
    for (int i = 0; i < 5; ++i) {
      shadow.emplace(next_id, random_point());
      s.platform->insert(scheme, next_id, shadow.at(next_id));
      ++next_id;
    }
    if (!shadow.empty() && round % 2 == 0) {
      auto victim = shadow.begin();
      std::advance(victim, static_cast<long>(rng.below(shadow.size())));
      ASSERT_TRUE(s.platform->remove(scheme, victim->first, victim->second));
      shadow.erase(victim);
    }
    if (round % 4 == 3) {
      // Migration-shaped bulk move: drain a node onto a peer, then pull
      // the owned entries straight back — placement ends correct, both
      // stores mutated through the bulk (extract/append) path.
      auto nodes = s.ring->alive_nodes();
      ChordNode* a = nodes[rng.below(nodes.size())];
      ChordNode* b = nodes[rng.below(nodes.size())];
      if (a != b) {
        s.platform->drain_all(*a, *b);
        s.platform->transfer_owned(*b, *a);
        // a's replica copies stayed on b; restore replicated placement.
        if (replication > 1) s.platform->repair_replication();
        s.platform->check_placement_invariant();
      }
    }
    if (round == 7) {
      s.platform->repair_replication();  // global rebuild (wipe path)
    }
    // Query: hot regions (cache hits) plus a fresh random one.
    for (const Region& reg : hot) check_query(reg);
    check_query(random_region());
  }
  if (!cache) return;
  const ServeState* serve = s.platform->serve_state();
  ASSERT_NE(serve, nullptr);
  const CacheStats cs = serve->aggregate_cache_stats();
  EXPECT_GT(cs.hits, 0u) << "trace never exercised the hit path";
  EXPECT_GT(cs.point_invalidations + cs.wipes, 0u);
  EXPECT_EQ(serve->stats().verified_hits, cs.hits);
}

TEST(ServeCacheCorrectness, RandomizedMutationTraceMatchesOracle) {
  for (const std::size_t replication : {std::size_t{1}, std::size_t{3}}) {
    for (const bool cache : {true, false}) {
      SCOPED_TRACE(testing::Message() << "replication " << replication
                                      << ", cache " << cache);
      run_mutation_trace(replication, cache);
    }
  }
}

TEST(ServeCacheCorrectness, RepeatedQueryHitsAndClearInvalidates) {
  Stack s(8, 3);
  s.platform->set_serve_options(cache_only_options());
  auto scheme =
      s.platform->register_scheme("hot", uniform_boundary(2, 0, 1), false);
  Rng rng(11);
  for (std::uint64_t i = 0; i < 80; ++i) {
    s.platform->insert(scheme, i, IndexPoint{rng.uniform(), rng.uniform()});
  }
  Region reg = box2(0.3, 0.6);
  auto first = s.query_all(scheme, reg);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->cache_hits, 0u);
  auto second = s.query_all(scheme, reg);
  ASSERT_TRUE(second.has_value());
  EXPECT_GT(second->cache_hits, 0u);
  EXPECT_EQ(second->results.size(), first->results.size());
  // The cached solve skips the store: strictly less scanning.
  EXPECT_LT(second->scanned, first->scanned);
  // clear_scheme wipes every node's cache: next query misses and sees
  // the emptied store.
  s.platform->clear_scheme(scheme);
  auto third = s.query_all(scheme, reg);
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->cache_hits, 0u);
  EXPECT_TRUE(third->results.empty());
}

ServeOptions overload_options() {
  ServeOptions so;
  so.queue_limit = 2;
  so.service_time = 2 * kMillisecond;
  so.max_retries = 3;  // low ceiling so ceiling drops happen too
  return so;
}

/// Shed queries still terminate: a burst far over the queue limit
/// completes every query, through retries or (at the retry ceiling)
/// dropped subqueries accounted through the fanout tracker.
TEST(ServeAdmission, ShedQueriesTerminate) {
  Stack s(8, 5);
  s.platform->set_serve_options(overload_options());
  auto scheme =
      s.platform->register_scheme("load", uniform_boundary(2, 0, 1), false);
  Rng rng(21);
  for (std::uint64_t i = 0; i < 60; ++i) {
    s.platform->insert(scheme, i, IndexPoint{rng.uniform(), rng.uniform()});
  }
  const int kQueries = 40;
  int completed = 0;
  std::uint64_t shed_total = 0;
  std::uint64_t lost_total = 0;
  for (int i = 0; i < kQueries; ++i) {
    // Same hot region from every origin: all subqueries pile onto the
    // same few index nodes, overrunning queue_limit immediately.
    s.platform->region_query(
        *s.ring->alive_nodes()[static_cast<std::size_t>(i) %
                               s.ring->alive_nodes().size()],
        scheme, box2(0.2, 0.7), IndexPoint{0.45, 0.45},
        ReplyMode::kAllMatches, [&](const IndexPlatform::QueryOutcome& o) {
          EXPECT_TRUE(o.complete);
          completed += 1;
          shed_total += o.shed;
          lost_total += static_cast<std::uint64_t>(o.lost_subqueries);
        });
  }
  s.sim.run();
  EXPECT_EQ(completed, kQueries);
  EXPECT_EQ(s.platform->active_queries(), 0u);
  EXPECT_GT(shed_total, 0u) << "burst never tripped admission control";
  const ServeState* serve = s.platform->serve_state();
  ASSERT_NE(serve, nullptr);
  EXPECT_EQ(serve->stats().shed, shed_total);
  EXPECT_EQ(serve->stats().retries, serve->stats().shed);
  EXPECT_EQ(serve->stats().retry_drops, 0u);
  // Ceiling drops (if the burst pushed any subquery past max_retries)
  // are exactly the losses the outcomes report — nothing vanishes.
  EXPECT_EQ(serve->stats().dropped, lost_total);
  EXPECT_EQ(serve->stats().forced_admits, 0u);  // tree routing never forces
}

/// The serving tier is deterministic: an identical stack and workload
/// reproduces outcomes field-for-field (in-process; cross-thread-count
/// identity is enforced by scripts/check.sh --serve-smoke at bench
/// scale).
TEST(ServeAdmission, ShedScheduleIsDeterministic) {
  auto run = [](std::vector<std::tuple<SimTime, std::uint64_t, std::uint64_t>>*
                    out) {
    Stack s(8, 5);
    ServeOptions so = overload_options();
    so.cache_enabled = true;  // caches + admission together
    s.platform->set_serve_options(so);
    auto scheme =
        s.platform->register_scheme("det", uniform_boundary(2, 0, 1), false);
    Rng rng(33);
    for (std::uint64_t i = 0; i < 50; ++i) {
      s.platform->insert(scheme, i, IndexPoint{rng.uniform(), rng.uniform()});
    }
    for (int i = 0; i < 24; ++i) {
      s.platform->region_query(
          *s.ring->alive_nodes()[0], scheme, box2(0.25, 0.65),
          IndexPoint{0.45, 0.45}, ReplyMode::kAllMatches,
          [out](const IndexPlatform::QueryOutcome& o) {
            out->emplace_back(o.max_latency, o.shed,
                              static_cast<std::uint64_t>(o.results.size()));
          });
    }
    s.sim.run();
  };
  std::vector<std::tuple<SimTime, std::uint64_t, std::uint64_t>> a;
  std::vector<std::tuple<SimTime, std::uint64_t, std::uint64_t>> b;
  run(&a);
  run(&b);
  ASSERT_EQ(a.size(), 24u);
  EXPECT_EQ(a, b);
}

/// Cross-query batching: concurrent queries sharing next hops coalesce
/// into fewer, larger messages — same results, fewer bytes on the wire.
TEST(ServeBatching, CoalescingWindowSavesBytesSameResults) {
  auto run = [](SimTime window, std::set<std::uint64_t>* ids,
                std::uint64_t* bytes, std::uint64_t* msgs,
                std::uint64_t* merged) {
    Stack s(16, 9);
    if (window > 0) {
      ServeOptions so;
      so.coalesce_window = window;
      s.platform->set_serve_options(so);
    }
    auto scheme =
        s.platform->register_scheme("batch", uniform_boundary(2, 0, 1), false);
    Rng rng(17);
    for (std::uint64_t i = 0; i < 120; ++i) {
      s.platform->insert(scheme, i, IndexPoint{rng.uniform(), rng.uniform()});
    }
    std::uint64_t total_bytes = 0;
    int completed = 0;
    for (int i = 0; i < 12; ++i) {
      s.platform->region_query(
          *s.ring->alive_nodes()[0], scheme, box2(0.3, 0.62),
          IndexPoint{0.46, 0.46}, ReplyMode::kAllMatches,
          [&](const IndexPlatform::QueryOutcome& o) {
            EXPECT_TRUE(o.complete);
            completed += 1;
            total_bytes += o.query_bytes;
            for (std::uint64_t id : o.results) ids->insert(id);
          });
    }
    s.sim.run();
    EXPECT_EQ(completed, 12);
    // Per-outcome query_messages charges every rider of a shared wire
    // message, so the physical count comes from the traffic counter.
    EXPECT_EQ(total_bytes, s.platform->query_traffic().bytes);
    *bytes = total_bytes;
    *msgs = s.platform->query_traffic().messages;
    *merged = s.platform->coalesced_messages();
  };
  std::set<std::uint64_t> ids_off;
  std::set<std::uint64_t> ids_on;
  std::uint64_t bytes_off = 0;
  std::uint64_t bytes_on = 0;
  std::uint64_t msgs_off = 0;
  std::uint64_t msgs_on = 0;
  std::uint64_t merged_off = 0;
  std::uint64_t merged_on = 0;
  run(0, &ids_off, &bytes_off, &msgs_off, &merged_off);
  run(3 * kMillisecond, &ids_on, &bytes_on, &msgs_on, &merged_on);
  EXPECT_EQ(ids_on, ids_off);
  EXPECT_EQ(merged_off, 0u);
  EXPECT_GT(merged_on, 0u) << "window never merged concurrent episodes";
  // Merging only ever removes per-message headers.
  EXPECT_LT(bytes_on, bytes_off);
  EXPECT_LT(msgs_on, msgs_off);
}

}  // namespace
}  // namespace lmk
