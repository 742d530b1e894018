// LocalStore: range containment, completeness, determinism and memory
// accounting, exactness as a property over random mutation traces
// (including the migration extract_if path), and the platform's
// rebuild-on-mutation accounting.
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
// Exactness as a property over random mutation traces, including the
// extract_if migration path the platform uses.

TEST(LocalStoreProperty, ExactUnderRandomMutationTraces) {
  Rng rng(21);
  EntryStore store;
  EntryStore migrated;  // extract_if destination (the "new owner")
  LocalStore ls;
  std::uint64_t next_object = 0;
  for (int step = 0; step < 40; ++step) {
    // A burst of mutations, shaped like platform traffic: mostly
    // inserts, occasional deletes, periodic key-predicate migrations.
    const int burst = 1 + static_cast<int>(rng.below(30));
    for (int b = 0; b < burst; ++b) {
      const double op = rng.uniform();
      if (op < 0.70 || store.empty()) {
        IndexPoint pt{rng.uniform(), rng.uniform(), rng.uniform()};
        store.push_back(static_cast<Id>(rng.next()), next_object++, pt);
      } else if (op < 0.85) {
        store.erase_at(rng.below(store.size()));
      } else {
        const std::size_t i = rng.below(store.size());
        EXPECT_TRUE(store.erase_first(store.object(i), store.key(i)));
      }
    }
    if (step % 7 == 3 && !store.empty()) {
      // Migration: peel off a key range, exactly like ownership
      // transfer, and occasionally merge it back.
      const Id split = static_cast<Id>(rng.next());
      store.extract_if([split](Id k) { return k < split; }, migrated);
      if (rng.uniform() < 0.5) store.append_moved(migrated);
    }
    // Rebuild-on-mutation, then exactness against brute force.
    ls.build(store);
    for (int q = 0; q < 5; ++q) {
      const Region r = random_region(rng, 3, 0.25 + 0.5 * rng.uniform());
      std::vector<std::uint32_t> got;
      ls.range(store, r, got);
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, brute_range(store, r)) << "step " << step;
    }
  }
}

// ---------------------------------------------------------------------
// Platform accounting: lazy rebuild-on-mutation.

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

  void query_all(std::uint32_t scheme, Region region) {
    platform->region_query(*ring->alive_nodes()[0], scheme, region,
                           IndexPoint(region.dims(), 0.5),
                           ReplyMode::kAllMatches, [](const auto&) {});
    sim.run();
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
  for (int i = 0; i < 64; ++i) {
    s.platform->insert(scheme, static_cast<std::uint64_t>(i),
                       IndexPoint{rng.uniform(), rng.uniform()});
  }
  EXPECT_EQ(s.platform->local_store_stats().rebuilds, 0u);  // lazy
  const Region all{{Interval{0, 1}, Interval{0, 1}}};
  s.query_all(scheme, all);
  const auto after_first = s.platform->local_store_stats();
  EXPECT_GT(after_first.rebuilds, 0u);
  EXPECT_EQ(after_first.rebuilt_entries, 64u);
  // Probing again without mutations must not rebuild anything.
  s.query_all(scheme, all);
  EXPECT_EQ(s.platform->local_store_stats().rebuilds, after_first.rebuilds);
  // One more insert dirties exactly the owner's store.
  s.platform->insert(scheme, 1000, IndexPoint{0.5, 0.5});
  s.query_all(scheme, all);
  const auto after_insert = s.platform->local_store_stats();
  EXPECT_GT(after_insert.rebuilds, after_first.rebuilds);
  EXPECT_GT(after_insert.rebuilt_entries, after_first.rebuilt_entries);
  EXPECT_GT(s.platform->store_bytes(), 0u);
}

}  // namespace
}  // namespace lmk
