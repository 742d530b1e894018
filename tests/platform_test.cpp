// Platform-level semantics: dynamic updates (insert/remove), scheme
// lifecycle (clear, boundary update), reply batching, the flush-time
// batch ranking contract and the per-node top-k select, and the message
// byte model under batching.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "core/index_platform.hpp"
#include "core/top_k.hpp"

namespace lmk {
namespace {

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

TEST(PlatformUpdates, RemoveDeletesExactlyOneEntry) {
  Stack s(16, 1);
  auto scheme = s.platform->register_scheme("rm", uniform_boundary(2, 0, 1),
                                            false);
  s.platform->insert(scheme, 1, IndexPoint{0.3, 0.3});
  s.platform->insert(scheme, 2, IndexPoint{0.3, 0.3});
  s.platform->insert(scheme, 3, IndexPoint{0.8, 0.8});
  EXPECT_EQ(s.platform->scheme_entries(scheme), 3u);
  EXPECT_TRUE(s.platform->remove(scheme, 2, IndexPoint{0.3, 0.3}));
  EXPECT_EQ(s.platform->scheme_entries(scheme), 2u);
  // Removing again (or with a wrong point) fails without side effects.
  EXPECT_FALSE(s.platform->remove(scheme, 2, IndexPoint{0.3, 0.3}));
  EXPECT_FALSE(s.platform->remove(scheme, 1, IndexPoint{0.9, 0.9}));
  EXPECT_EQ(s.platform->scheme_entries(scheme), 2u);
  // The removed object no longer appears in query results.
  auto outcome = s.query_all(scheme, Region{{Interval{0, 1}, Interval{0, 1}}});
  ASSERT_TRUE(outcome.has_value());
  std::set<std::uint64_t> got(outcome->results.begin(),
                              outcome->results.end());
  EXPECT_EQ(got, (std::set<std::uint64_t>{1, 3}));
}

TEST(PlatformUpdates, RemoveViaNetworkRoutesToOwner) {
  Stack s(32, 2);
  auto scheme = s.platform->register_scheme("rm-net",
                                            uniform_boundary(1, 0, 1), false);
  Rng rng(3);
  std::vector<IndexPoint> pts;
  for (int i = 0; i < 40; ++i) {
    pts.push_back(IndexPoint{rng.uniform()});
    s.platform->insert(scheme, static_cast<std::uint64_t>(i), pts.back());
  }
  int removed_count = 0;
  auto nodes = s.ring->alive_nodes();
  for (int i = 0; i < 40; i += 2) {
    s.platform->remove_via_network(
        *nodes[rng.below(nodes.size())], scheme,
        static_cast<std::uint64_t>(i), pts[static_cast<std::size_t>(i)],
        [&](bool removed, int hops) {
          EXPECT_TRUE(removed);
          EXPECT_GE(hops, 0);
          ++removed_count;
        });
  }
  s.sim.run();
  EXPECT_EQ(removed_count, 20);
  EXPECT_EQ(s.platform->scheme_entries(scheme), 20u);
  s.platform->check_placement_invariant();
}

TEST(PlatformUpdates, InterleavedInsertRemoveQueryStaysExact) {
  Stack s(16, 4);
  auto scheme = s.platform->register_scheme("mix", uniform_boundary(2, 0, 1),
                                            false);
  Rng rng(5);
  std::vector<IndexPoint> pts;
  std::set<std::uint64_t> live;
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 50; ++i) {
      auto id = static_cast<std::uint64_t>(pts.size());
      pts.push_back(IndexPoint{rng.uniform(), rng.uniform()});
      s.platform->insert(scheme, id, pts.back());
      live.insert(id);
    }
    // Remove a third of the live set.
    std::vector<std::uint64_t> victims(live.begin(), live.end());
    for (std::size_t i = 0; i < victims.size(); i += 3) {
      ASSERT_TRUE(s.platform->remove(
          scheme, victims[i], pts[static_cast<std::size_t>(victims[i])]));
      live.erase(victims[i]);
    }
    auto outcome =
        s.query_all(scheme, Region{{Interval{0, 1}, Interval{0, 1}}});
    ASSERT_TRUE(outcome.has_value());
    std::set<std::uint64_t> got(outcome->results.begin(),
                                outcome->results.end());
    EXPECT_EQ(got, live) << "round " << round;
  }
}

TEST(PlatformScheme, ClearSchemeLeavesOthersIntact) {
  Stack s(8, 6);
  auto a = s.platform->register_scheme("a", uniform_boundary(1, 0, 1), false);
  auto b = s.platform->register_scheme("b", uniform_boundary(1, 0, 1), true);
  for (int i = 0; i < 30; ++i) {
    s.platform->insert(a, static_cast<std::uint64_t>(i),
                       IndexPoint{0.1 + i * 0.01});
    s.platform->insert(b, static_cast<std::uint64_t>(i),
                       IndexPoint{0.1 + i * 0.01});
  }
  s.platform->clear_scheme(a);
  EXPECT_EQ(s.platform->scheme_entries(a), 0u);
  EXPECT_EQ(s.platform->scheme_entries(b), 30u);
  EXPECT_EQ(s.platform->total_entries(), 30u);
}

TEST(PlatformScheme, BoundaryUpdateRequiresEmptyStoreAndSameDims) {
  Stack s(8, 7);
  auto scheme = s.platform->register_scheme("bnd", uniform_boundary(2, 0, 1),
                                            false);
  s.platform->update_scheme_boundary(scheme, uniform_boundary(2, 0, 5));
  EXPECT_DOUBLE_EQ(s.platform->scheme(scheme).boundary[0].hi, 5.0);
  // Entries hashed under the new boundary; queries work.
  s.platform->insert(scheme, 1, IndexPoint{4.0, 4.0});
  auto outcome = s.query_all(scheme, Region{{Interval{3, 5}, Interval{3, 5}}});
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->results.size(), 1u);
  EXPECT_DEATH(
      s.platform->update_scheme_boundary(scheme, uniform_boundary(2, 0, 9)),
      "scheme_entries");
}

TEST(PlatformReplies, OneResultMessagePerNodePerStep) {
  // Constant latency means every subquery bound for a node arrives in
  // lockstep waves; each wave produces exactly one reply per node.
  Stack s(4, 8);
  auto scheme = s.platform->register_scheme("batch",
                                            uniform_boundary(2, 0, 1), false);
  Rng rng(9);
  for (int i = 0; i < 400; ++i) {
    s.platform->insert(scheme, static_cast<std::uint64_t>(i),
                       IndexPoint{rng.uniform(), rng.uniform()});
  }
  auto outcome = s.query_all(scheme, Region{{Interval{0, 1}, Interval{0, 1}}});
  ASSERT_TRUE(outcome.has_value());
  // Many subqueries were solved, but replies are batched per node/step:
  // far fewer result messages than local solves.
  EXPECT_GT(outcome->subqueries, outcome->result_messages * 2);
  EXPECT_GE(outcome->result_messages,
            static_cast<std::uint64_t>(outcome->index_nodes));
  // Byte model: every result message is 20 + 6*entries; entries total
  // equals the distinct results (whole-space query, kAllMatches).
  EXPECT_EQ(outcome->result_bytes,
            outcome->result_messages * 20 + 6 * outcome->results.size());
}

TEST(PlatformReplies, QueryMessageBytesDecomposePerBatchModel) {
  Stack s(32, 10);
  auto scheme = s.platform->register_scheme("bytes",
                                            uniform_boundary(3, 0, 1), false);
  Rng rng(11);
  for (int i = 0; i < 300; ++i) {
    s.platform->insert(
        scheme, static_cast<std::uint64_t>(i),
        IndexPoint{rng.uniform(), rng.uniform(), rng.uniform()});
  }
  auto outcome = s.query_all(
      scheme,
      Region{{Interval{0.1, 0.8}, Interval{0.2, 0.9}, Interval{0.0, 0.7}}});
  ASSERT_TRUE(outcome.has_value());
  // Each message: 24 + n * (2*2*3 + 8 + 1) = 24 + 21n bytes.
  ASSERT_GT(outcome->query_messages, 0u);
  std::uint64_t payload =
      outcome->query_bytes - outcome->query_messages * 24;
  EXPECT_EQ(payload % 21, 0u);
  EXPECT_GE(payload / 21, outcome->query_messages);
}

TEST(PlatformRanking, BatchRankSelectsPerNodeTopK) {
  // The platform honours whatever ranking it is given: per-node top-k
  // selects by the RankFn's scores, not by index-space proximity.
  Stack s(1, 12);
  IndexPlatform::Options popts;
  popts.top_k = 2;
  auto platform = std::make_unique<IndexPlatform>(*s.ring, popts);
  auto scheme =
      platform->register_scheme("rank", uniform_boundary(1, 0, 1), false);
  platform->insert(scheme, 0, IndexPoint{0.30});
  platform->insert(scheme, 1, IndexPoint{0.31});
  platform->insert(scheme, 2, IndexPoint{0.32});
  platform->insert(scheme, 3, IndexPoint{0.33});
  // Inverted ranking: object id 3 is "nearest".
  auto rank = [](std::span<const std::uint64_t> ids, std::span<double> out) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      out[i] = 10.0 - static_cast<double>(ids[i]);
    }
  };
  std::optional<IndexPlatform::QueryOutcome> outcome;
  platform->range_query(*s.ring->alive_nodes()[0], scheme, IndexPoint{0.315},
                        0.05, ReplyMode::kTopK,
                        [&](const auto& o) { outcome = o; }, rank);
  s.sim.run();
  ASSERT_TRUE(outcome.has_value());
  std::set<std::uint64_t> got(outcome->results.begin(),
                              outcome->results.end());
  EXPECT_EQ(got, (std::set<std::uint64_t>{2, 3}));
}

/// Rank-call bookkeeping shared by the RankFn contract tests.
struct RankProbe {
  std::size_t calls = 0;
  std::size_t ranked = 0;  ///< ids handed to the RankFn, summed
  IndexPlatform::RankFn fn() {
    return [this](std::span<const std::uint64_t> ids, std::span<double> out) {
      EXPECT_EQ(ids.size(), out.size());
      ++calls;
      ranked += ids.size();
      for (std::size_t i = 0; i < ids.size(); ++i) {
        out[i] = static_cast<double>(ids[i] % 7);
      }
    };
  }
};

/// A 16-node ring with `n` random 2-d entries and the given top_k.
struct RankStack : Stack {
  RankStack(std::size_t top_k, int n) : Stack(16, 21) {
    IndexPlatform::Options popts;
    popts.top_k = top_k;
    platform = std::make_unique<IndexPlatform>(*ring, popts);
    scheme = platform->register_scheme("rank", uniform_boundary(2, 0, 1),
                                       false);
    Rng rng(22);
    for (int i = 0; i < n; ++i) {
      platform->insert(scheme, static_cast<std::uint64_t>(i),
                       IndexPoint{rng.uniform(), rng.uniform()});
    }
  }

  IndexPlatform::QueryOutcome query(ReplyMode mode, RankProbe& probe) {
    std::optional<IndexPlatform::QueryOutcome> outcome;
    platform->region_query(
        *ring->alive_nodes()[3], scheme,
        Region{{Interval{0.1, 0.9}, Interval{0.1, 0.9}}},
        IndexPoint{0.5, 0.5}, mode, [&](const auto& o) { outcome = o; },
        probe.fn());
    sim.run();
    EXPECT_TRUE(outcome.has_value() && outcome->complete);
    return outcome.value_or(IndexPlatform::QueryOutcome{});
  }

  std::uint32_t scheme = 0;
};

TEST(PlatformRanking, RankRunsAtMostOncePerReply) {
  RankStack s(3, 600);
  RankProbe probe;
  auto outcome = s.query(ReplyMode::kTopK, probe);
  // Several nodes answer, each with more than top_k candidates: every
  // reply ranks exactly once, over exactly the candidates it collected.
  ASSERT_GT(outcome.result_messages, 1u);
  EXPECT_GT(probe.calls, 0u);
  EXPECT_LE(probe.calls, outcome.result_messages);
  EXPECT_LE(probe.ranked, outcome.candidates);
  EXPECT_LE(outcome.results.size(), 3 * outcome.result_messages);
}

TEST(PlatformRanking, OverCutRepliesRankOnceOverAllTheirCandidates) {
  // One node holding 200 entries, top_k = 4: every reply it sends
  // exceeds the cut, so each ranks exactly once, and together the rank
  // calls cover every collected candidate exactly once.
  Stack s(1, 23);
  IndexPlatform::Options popts;
  popts.top_k = 4;
  s.platform = std::make_unique<IndexPlatform>(*s.ring, popts);
  auto scheme =
      s.platform->register_scheme("one", uniform_boundary(2, 0, 1), false);
  Rng rng(24);
  for (int i = 0; i < 200; ++i) {
    s.platform->insert(scheme, static_cast<std::uint64_t>(i),
                       IndexPoint{rng.uniform(), rng.uniform()});
  }
  RankProbe probe;
  std::optional<IndexPlatform::QueryOutcome> outcome;
  s.platform->region_query(*s.ring->alive_nodes()[0], scheme,
                           Region{{Interval{0, 1}, Interval{0, 1}}},
                           IndexPoint{0.5, 0.5}, ReplyMode::kTopK,
                           [&](const auto& o) { outcome = o; }, probe.fn());
  s.sim.run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_GE(outcome->result_messages, 1u);
  EXPECT_EQ(probe.calls, outcome->result_messages);
  EXPECT_EQ(probe.ranked, outcome->candidates);
  EXPECT_GE(outcome->results.size(), 4u);
  EXPECT_LE(outcome->results.size(), 4 * outcome->result_messages);
}

TEST(PlatformRanking, AllMatchesNeverRanks) {
  RankStack s(3, 600);
  RankProbe probe;
  auto outcome = s.query(ReplyMode::kAllMatches, probe);
  EXPECT_EQ(probe.calls, 0u);
  EXPECT_GT(outcome.results.size(), 3 * outcome.result_messages);
}

TEST(PlatformRanking, ReplyWithinTopKShipsUnranked) {
  // top_k above any node's candidate count: every reply ships whole and
  // nothing is ranked; the result is the exact region match set.
  RankStack s(1000, 300);
  RankProbe probe;
  auto topk = s.query(ReplyMode::kTopK, probe);
  EXPECT_EQ(probe.calls, 0u);
  RankProbe probe_all;
  auto all = s.query(ReplyMode::kAllMatches, probe_all);
  std::set<std::uint64_t> a(topk.results.begin(), topk.results.end());
  std::set<std::uint64_t> b(all.results.begin(), all.results.end());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), topk.results.size());  // no duplicate ids
}

/// Today's reference semantics of the per-node cut: sort by (id, score),
/// keep each id's first (lowest-score) entry, keep the k smallest by
/// (score, id); returned in ascending (score, id) order.
std::vector<std::pair<double, std::uint64_t>> reference_top_k(
    const std::vector<std::uint64_t>& ids, const std::vector<double>& scores,
    std::size_t k) {
  std::vector<std::pair<double, std::uint64_t>> v;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    v.emplace_back(scores[i], ids[i]);
  }
  std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second < b.second : a.first < b.first;
  });
  v.erase(std::unique(v.begin(), v.end(),
                      [](const auto& a, const auto& b) {
                        return a.second == b.second;
                      }),
          v.end());
  if (v.size() > k) {
    auto cut = v.begin() + static_cast<std::ptrdiff_t>(k);
    std::nth_element(v.begin(), cut, v.end());
    v.resize(k);
  }
  std::sort(v.begin(), v.end());
  return v;
}

TEST(TopKSelect, MatchesSortUniqueNthElementReference) {
  Rng rng(31);
  std::vector<std::pair<double, std::uint64_t>> got;
  for (int trial = 0; trial < 3000; ++trial) {
    const std::size_t k = 1 + rng.below(12);
    // Sizes below, at and above k.
    const std::size_t n = rng.below(3 * k + 2);
    // Few distinct ids (duplicates) and few distinct scores (ties);
    // odd trials give a repeated id the same score (a RankFn), even
    // trials may give it different ones (per-entry bounds).
    const std::uint64_t id_range = 1 + rng.below(n + 1);
    const std::uint64_t score_range = 1 + rng.below(5);
    std::vector<std::uint64_t> ids(n);
    std::vector<double> scores(n);
    for (std::size_t i = 0; i < n; ++i) {
      ids[i] = rng.below(id_range);
      scores[i] = trial % 2 == 1
                      ? static_cast<double>(ids[i] * 7 % score_range)
                      : static_cast<double>(rng.below(score_range));
    }
    select_top_k(ids, scores, k, got);
    ASSERT_EQ(got, reference_top_k(ids, scores, k))
        << "trial " << trial << " n " << n << " k " << k;
  }
}

TEST(TopKSelect, ZeroKAndEmptyInputSelectNothing) {
  std::vector<std::pair<double, std::uint64_t>> got{{1.0, 1}};
  const std::vector<std::uint64_t> ids{3, 1, 2};
  const std::vector<double> scores{0.5, 0.25, 0.75};
  select_top_k(ids, scores, 0, got);
  EXPECT_TRUE(got.empty());
  select_top_k({}, {}, 4, got);
  EXPECT_TRUE(got.empty());
}

TEST(PlatformTraffic, CountersSeparateQueryAndResultAndMaintenance) {
  Stack s(16, 13);
  auto scheme = s.platform->register_scheme("traffic",
                                            uniform_boundary(1, 0, 1), false);
  Rng rng(14);
  for (int i = 0; i < 100; ++i) {
    s.platform->insert(scheme, static_cast<std::uint64_t>(i),
                       IndexPoint{rng.uniform()});
  }
  auto q0 = s.platform->query_traffic().bytes;
  auto r0 = s.platform->result_traffic().bytes;
  auto m0 = s.ring->maintenance_traffic().bytes;
  auto outcome = s.query_all(scheme, Region{{Interval{0.2, 0.7}}});
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(s.platform->query_traffic().bytes - q0, outcome->query_bytes);
  EXPECT_EQ(s.platform->result_traffic().bytes - r0, outcome->result_bytes);
  EXPECT_EQ(s.ring->maintenance_traffic().bytes, m0);  // no lookups used
  // Network total covers everything.
  EXPECT_GE(s.net.total_traffic().bytes,
            outcome->query_bytes + outcome->result_bytes);
}

TEST(PlatformQueries, ActiveQueriesDrainToZero) {
  Stack s(16, 15);
  auto scheme = s.platform->register_scheme("drain",
                                            uniform_boundary(2, 0, 1), false);
  Rng rng(16);
  for (int i = 0; i < 200; ++i) {
    s.platform->insert(scheme, static_cast<std::uint64_t>(i),
                       IndexPoint{rng.uniform(), rng.uniform()});
  }
  int completed = 0;
  auto nodes = s.ring->alive_nodes();
  for (int i = 0; i < 10; ++i) {
    s.platform->region_query(
        *nodes[rng.below(nodes.size())], scheme,
        Region{{Interval{0.1, 0.9}, Interval{0.1, 0.9}}}, IndexPoint{0.5, 0.5},
        ReplyMode::kTopK, [&](const auto&) { ++completed; });
  }
  EXPECT_EQ(s.platform->active_queries(), 10u);
  s.sim.run();
  EXPECT_EQ(completed, 10);
  EXPECT_EQ(s.platform->active_queries(), 0u);
}

TEST(PlatformLoad, MedianKeyHandlesRingWrap) {
  // A node whose ownership range wraps the zero point must still split
  // its entries correctly in ring order.
  Stack s(2, 17);
  auto scheme = s.platform->register_scheme("wrap",
                                            uniform_boundary(1, 0, 1), false);
  Rng rng(18);
  for (int i = 0; i < 300; ++i) {
    s.platform->insert(scheme, static_cast<std::uint64_t>(i),
                       IndexPoint{rng.uniform()});
  }
  for (ChordNode* n : s.ring->alive_nodes()) {
    std::size_t load = s.platform->entries_on(*n);
    if (load < 10) continue;
    Id split = s.platform->median_key(*n);
    ASSERT_TRUE(in_open(split, n->predecessor().id, n->id()));
    std::size_t below = 0;
    for (EntryView e : s.platform->store(*n, scheme)) {
      if (in_open_closed(e.key, n->predecessor().id, split)) ++below;
    }
    EXPECT_NEAR(static_cast<double>(below), static_cast<double>(load) / 2,
                static_cast<double>(load) * 0.1 + 1);
  }
}

}  // namespace
}  // namespace lmk
