// LocalStore: range containment, completeness, determinism and memory
// accounting, exactness as a property over random mutation traces (in
// place for single-entry writes, rebuilt after the migration extract_if
// path), and the platform's in-place / lazy-rebuild accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/index_platform.hpp"
#include "store/local_store.hpp"

namespace lmk {
namespace {

EntryStore random_store(Rng& rng, std::size_t n, std::size_t dims) {
  EntryStore s;
  for (std::size_t i = 0; i < n; ++i) {
    IndexPoint pt(dims);
    for (double& c : pt) c = rng.uniform();
    s.push_back(static_cast<Id>(rng.next()), i, pt);
  }
  return s;
}

Region random_region(Rng& rng, std::size_t dims, double width) {
  Region r;
  for (std::size_t d = 0; d < dims; ++d) {
    const double lo = rng.uniform() * (1.0 - width);
    r.ranges.push_back(Interval{lo, lo + width});
  }
  return r;
}

bool inside(std::span<const double> pt, const Region& r) {
  for (std::size_t d = 0; d < pt.size(); ++d) {
    if (pt[d] < r.ranges[d].lo || pt[d] > r.ranges[d].hi) return false;
  }
  return true;
}

std::vector<std::uint32_t> brute_range(const EntryStore& s, const Region& r) {
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (inside(s.point(i), r)) out.push_back(static_cast<std::uint32_t>(i));
  }
  return out;
}

// ---------------------------------------------------------------------
// Conformance: range is exact, deterministic and accounted.

TEST(LocalStoreConformance, RangeReturnsOnlyContainedEntriesNoDuplicates) {
  Rng rng(11);
  EntryStore store = random_store(rng, 500, 4);
  LocalStore ls;
  ls.build(store);
  for (int t = 0; t < 20; ++t) {
    const Region r = random_region(rng, 4, 0.3);
    std::vector<std::uint32_t> out;
    ls.range(store, r, out);
    std::set<std::uint32_t> seen;
    for (std::uint32_t i : out) {
      EXPECT_TRUE(inside(store.point(i), r));
      EXPECT_TRUE(seen.insert(i).second) << "entry " << i << " twice";
    }
    const auto truth = brute_range(store, r);
    EXPECT_EQ(seen, std::set<std::uint32_t>(truth.begin(), truth.end()));
  }
}

TEST(LocalStoreConformance, RepeatedProbesAndRebuildsAreDeterministic) {
  Rng rng(12);
  EntryStore store = random_store(rng, 300, 3);
  const Region r = random_region(rng, 3, 0.4);
  LocalStore ls;
  ls.build(store);
  std::vector<std::uint32_t> range1, range2;
  ls.range(store, r, range1);
  ls.range(store, r, range2);
  EXPECT_EQ(range1, range2);
  // A second build from the same rows reproduces the same structure.
  ls.build(store);
  std::vector<std::uint32_t> range3;
  ls.range(store, r, range3);
  EXPECT_EQ(range1, range3);
  // A fresh instance agrees too.
  LocalStore other;
  other.build(store);
  std::vector<std::uint32_t> range4;
  other.range(store, r, range4);
  EXPECT_EQ(range1, range4);
}

TEST(LocalStoreConformance, EmptyAndTinyStores) {
  EntryStore empty;
  EntryStore one;
  one.push_back(7, 42, IndexPoint{0.5, 0.5});
  const Region all{{Interval{0, 1}, Interval{0, 1}}};
  LocalStore ls;
  std::vector<std::uint32_t> out;
  // Never built: probe-safe and empty.
  EXPECT_EQ(ls.range(empty, all, out), 0u);
  EXPECT_EQ(ls.memory_bytes(), 0u);
  ls.build(empty);
  EXPECT_EQ(ls.range(empty, all, out), 0u);
  EXPECT_TRUE(out.empty());

  ls.build(one);
  ls.range(one, all, out);
  EXPECT_EQ(out, std::vector<std::uint32_t>{0});
}

TEST(LocalStoreConformance, MemoryBytesReflectsBuiltStructure) {
  Rng rng(13);
  EntryStore store = random_store(rng, 400, 5);
  LocalStore ls;
  ls.build(store);
  // Five order arrays of 400 (coordinate, index) pairs, at least.
  EXPECT_GE(ls.memory_bytes(),
            5 * 400 * sizeof(std::pair<double, std::uint32_t>));
}

// ---------------------------------------------------------------------
// Probe order around the prefetch distance: `range` emits exactly the
// filtered most-selective slice, in slice order, whether the slice is
// shorter than kProbePrefetchAhead or runs to the end of its array.

// The probe's contract spelled out: the first dimension with the fewest
// in-interval entries, walked in (coordinate, index) order.
std::vector<std::uint32_t> reference_range(const EntryStore& s,
                                           const Region& r,
                                           std::size_t* scanned) {
  std::vector<std::pair<double, std::uint32_t>> best;
  bool have = false;
  for (std::size_t d = 0; d < s.dims(); ++d) {
    std::vector<std::pair<double, std::uint32_t>> slice;
    for (std::size_t i = 0; i < s.size(); ++i) {
      const double v = s.point(i)[d];
      if (v >= r.ranges[d].lo && v <= r.ranges[d].hi) {
        slice.emplace_back(v, static_cast<std::uint32_t>(i));
      }
    }
    if (!have || slice.size() < best.size()) {
      best = std::move(slice);
      have = true;
    }
  }
  std::sort(best.begin(), best.end());
  *scanned = best.size();
  std::vector<std::uint32_t> out;
  for (const auto& [v, i] : best) {
    if (inside(s.point(i), r)) out.push_back(i);
  }
  return out;
}

void expect_reference_order(const EntryStore& store, const Region& r,
                            const char* what) {
  LocalStore ls;
  ls.build(store);
  std::vector<std::uint32_t> out;
  std::size_t want_scanned = 0;
  const std::vector<std::uint32_t> want =
      reference_range(store, r, &want_scanned);
  EXPECT_EQ(ls.range(store, r, out), want_scanned) << what;
  EXPECT_EQ(out, want) << what;
}

TEST(LocalStoreProbeOrder, SliceShorterThanPrefetchDistance) {
  constexpr std::size_t R = kProbePrefetchAhead;
  Rng rng(41);
  // Stores of sizes around R: whole-array slices (which also end at
  // their array's end) and filtered slices within them.
  for (std::size_t n : {std::size_t{1}, R - 1, R, R + 1, 2 * R + 3}) {
    const EntryStore store = random_store(rng, n, 3);
    expect_reference_order(store, Region{{Interval{0, 1}, Interval{0, 1},
                                          Interval{0, 1}}},
                           "whole-array slice");
    expect_reference_order(store, Region{{Interval{0, 1}, Interval{0.3, 1},
                                          Interval{0.2, 0.9}}},
                           "filtered short slice");
  }
  // Narrow slices inside a larger store.
  const EntryStore store = random_store(rng, 600, 4);
  for (int t = 0; t < 30; ++t) {
    expect_reference_order(store, random_region(rng, 4, 0.02),
                           "narrow slice");
  }
}

TEST(LocalStoreProbeOrder, SliceEndingAtTheArraysEnd) {
  Rng rng(42);
  const EntryStore store = random_store(rng, 600, 4);
  // Dimension 1's interval reaches past every coordinate, and it is the
  // most selective one, so the walked slice is its array's tail.
  for (double lo : {0.999, 0.99, 0.97, 0.9}) {
    expect_reference_order(store,
                           Region{{Interval{0.1, 1}, Interval{lo, 2},
                                   Interval{0, 0.95}, Interval{0.05, 1}}},
                           "tail slice");
  }
  for (int t = 0; t < 30; ++t) {
    Region r = random_region(rng, 4, 0.6);
    r.ranges[2] = Interval{rng.uniform(0.8, 1.0), 1.5};
    expect_reference_order(store, r, "random tail slice");
  }
}

// ---------------------------------------------------------------------
// Exactness as a property over random mutation traces: single-entry
// writes maintain the structure in place, the extract_if migration path
// the platform uses rebuilds it.

TEST(LocalStoreProperty, ExactUnderRandomMutationTraces) {
  Rng rng(21);
  EntryStore store;
  EntryStore migrated;  // extract_if destination (the "new owner")
  LocalStore ls;
  ls.build(store);  // built empty, before the store knows its dims
  std::uint64_t next_object = 0;
  // Half the coordinates sit on a 1/8 grid, so value ties are common
  // and the (value, index) tie-break and the erase shift both matter.
  auto coord = [&rng]() {
    return rng.uniform() < 0.5 ? static_cast<double>(rng.below(8)) / 8.0
                               : rng.uniform();
  };
  auto erase_at = [&](std::size_t i) {
    ls.erase(store.point(i), static_cast<std::uint32_t>(i));
    store.erase_at(i);
  };
  for (int step = 0; step < 60; ++step) {
    if (step % 20 == 10) {
      // Erase down to empty; the bursts below refill the store.
      while (!store.empty()) erase_at(rng.below(store.size()));
      std::vector<std::uint32_t> none;
      EXPECT_EQ(ls.range(store, random_region(rng, 3, 1.0), none), 0u);
      EXPECT_TRUE(none.empty());
    }
    // A burst of mutations, shaped like platform traffic: mostly
    // inserts, occasional deletes, periodic key-predicate migrations.
    const int burst = 1 + static_cast<int>(rng.below(30));
    for (int b = 0; b < burst; ++b) {
      const double op = rng.uniform();
      if (op < 0.70 || store.empty()) {
        IndexPoint pt{coord(), coord(), coord()};
        store.push_back(static_cast<Id>(rng.next()), next_object++, pt);
        ls.insert(store, static_cast<std::uint32_t>(store.size() - 1));
      } else if (op < 0.85) {
        erase_at(rng.below(store.size()));
      } else {
        const std::size_t i = rng.below(store.size());
        ASSERT_EQ(store.find(store.object(i), store.key(i)), i);
        ls.erase(store.point(i), static_cast<std::uint32_t>(i));
        EXPECT_TRUE(store.erase_first(store.object(i), store.key(i)));
      }
    }
    if (step % 7 == 3 && !store.empty()) {
      // Migration: peel off a key range, exactly like ownership
      // transfer, and occasionally merge it back. Bulk writes rebuild.
      const Id split = static_cast<Id>(rng.next());
      store.extract_if([split](Id k) { return k < split; }, migrated);
      if (rng.uniform() < 0.5) store.append_moved(migrated);
      ls.build(store);
    }
    // The maintained structure probes exactly like a fresh build (same
    // scan count, same emission order) and matches brute force.
    LocalStore fresh;
    fresh.build(store);
    for (int q = 0; q < 5; ++q) {
      Region r = random_region(rng, 3, 0.25 + 0.5 * rng.uniform());
      if (q % 2 == 1) {
        // Grid-aligned bounds land on tied values (closed intervals).
        for (Interval& iv : r.ranges) {
          iv.lo = static_cast<double>(rng.below(5)) / 8.0;
          iv.hi = iv.lo + static_cast<double>(1 + rng.below(3)) / 8.0;
        }
      }
      std::vector<std::uint32_t> got;
      std::vector<std::uint32_t> want;
      EXPECT_EQ(ls.range(store, r, got), fresh.range(store, r, want))
          << "step " << step;
      EXPECT_EQ(got, want) << "step " << step;
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, brute_range(store, r)) << "step " << step;
    }
  }
}

// ---------------------------------------------------------------------
// Platform accounting: single-entry writes update built stores in
// place; bulk writers rebuild lazily.

struct Stack {
  Stack(std::size_t hosts, std::uint64_t seed)
      : topo(hosts, 12 * kMillisecond), net(sim, topo) {
    Ring::Options ropts;
    ropts.seed = seed;
    ring = std::make_unique<Ring>(net, ropts);
    for (HostId h = 0; h < hosts; ++h) ring->create_node(h);
    ring->bootstrap();
    platform = std::make_unique<IndexPlatform>(*ring);
  }

  std::set<std::uint64_t> query_all(std::uint32_t scheme, Region region) {
    std::set<std::uint64_t> ids;
    platform->region_query(*ring->alive_nodes()[0], scheme, region,
                           IndexPoint(region.dims(), 0.5),
                           ReplyMode::kAllMatches, [&](const auto& o) {
                             ids.insert(o.results.begin(), o.results.end());
                           });
    sim.run();
    return ids;
  }

  Simulator sim;
  ConstantLatencyModel topo;
  Network net;
  std::unique_ptr<Ring> ring;
  std::unique_ptr<IndexPlatform> platform;
};

TEST(LocalStorePlatform, RebuildsLazilyOncePerMutatedStore) {
  Stack s(8, 5);
  auto scheme =
      s.platform->register_scheme("acct", uniform_boundary(2, 0, 1), false);
  Rng rng(6);
  std::vector<IndexPoint> points;
  for (int i = 0; i < 64; ++i) {
    points.push_back(IndexPoint{rng.uniform(), rng.uniform()});
    s.platform->insert(scheme, static_cast<std::uint64_t>(i), points.back());
  }
  EXPECT_EQ(s.platform->local_store_stats().rebuilds, 0u);  // lazy
  const Region all{{Interval{0, 1}, Interval{0, 1}}};
  EXPECT_EQ(s.query_all(scheme, all).size(), 64u);
  const auto after_first = s.platform->local_store_stats();
  EXPECT_GT(after_first.rebuilds, 0u);
  EXPECT_EQ(after_first.rebuilt_entries, 64u);
  // Probing again without mutations must not rebuild anything.
  s.query_all(scheme, all);
  EXPECT_EQ(s.platform->local_store_stats().rebuilds, after_first.rebuilds);

  // One insert and one remove update the built stores in place: no
  // rebuild, and the next probe already sees both.
  s.platform->insert(scheme, 1000, IndexPoint{0.5, 0.5});
  ASSERT_TRUE(s.platform->remove(scheme, 3, points[3]));
  const auto ids = s.query_all(scheme, all);
  const auto after_writes = s.platform->local_store_stats();
  EXPECT_EQ(after_writes.rebuilds, after_first.rebuilds);
  EXPECT_EQ(after_writes.rebuilt_entries, after_first.rebuilt_entries);
  EXPECT_EQ(ids.size(), 64u);
  EXPECT_EQ(ids.count(1000), 1u);
  EXPECT_EQ(ids.count(3), 0u);

  // A bulk writer still marks its store stale: exactly one lazy rebuild
  // of that store on the next probe.
  ChordNode* holder = nullptr;
  for (ChordNode* n : s.ring->alive_nodes()) {
    if (!s.platform->store(*n, scheme).empty()) {
      holder = n;
      break;
    }
  }
  ASSERT_NE(holder, nullptr);
  const std::size_t held = s.platform->store(*holder, scheme).size();
  (void)s.platform->mutable_store(*holder, scheme);
  EXPECT_EQ(s.query_all(scheme, all), ids);
  const auto after_bulk = s.platform->local_store_stats();
  EXPECT_EQ(after_bulk.rebuilds, after_writes.rebuilds + 1);
  EXPECT_EQ(after_bulk.rebuilt_entries, after_writes.rebuilt_entries + held);
  EXPECT_GT(s.platform->store_bytes(), 0u);
}

}  // namespace
}  // namespace lmk
