// Tests for the typed facade: the prefetching true-distance kernel and the
// refinement paths built on it, k-NN by radius expansion, landmark
// re-indexing (the paper's dynamic-dataset future work), landmark quality
// scoring, and Rocchio query expansion.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/typed_index.hpp"
#include "eval/ground_truth.hpp"
#include "ir/expansion.hpp"
#include "landmark/quality.hpp"
#include "landmark/selection.hpp"
#include "metric/edit_distance.hpp"
#include "metric/sparse_vector.hpp"
#include "workload/corpus.hpp"
#include "workload/synthetic.hpp"

namespace lmk {
namespace {

struct TypedStack {
  TypedStack(std::size_t hosts, std::uint64_t seed)
      : topo(hosts, 10 * kMillisecond), net(sim, topo) {
    Ring::Options ropts;
    ropts.seed = seed;
    ring = std::make_unique<Ring>(net, ropts);
    for (HostId h = 0; h < hosts; ++h) ring->create_node(h);
    ring->bootstrap();
    platform = std::make_unique<IndexPlatform>(*ring);
  }

  Simulator sim;
  ConstantLatencyModel topo;
  Network net;
  std::unique_ptr<Ring> ring;
  std::unique_ptr<IndexPlatform> platform;
};

struct DenseFixture {
  DenseFixture() : stack(32, 21) {
    Rng rng(22);
    for (int i = 0; i < 3000; ++i) {
      points.push_back({rng.uniform(0, 100), rng.uniform(0, 100),
                        rng.uniform(0, 100)});
    }
    auto landmarks = greedy_selection(
        space, std::span<const DenseVector>(points), 4, rng);
    index = std::make_unique<LandmarkIndex<L2Space>>(
        *stack.platform, space,
        LandmarkMapper<L2Space>(space, std::move(landmarks),
                                uniform_boundary(4, 0, 175)),
        "knn-fixture");
    index->bind_objects(
        [this](std::uint64_t id) -> const DenseVector& { return points[id]; });
    for (std::size_t i = 0; i < points.size(); ++i) {
      index->insert(i, points[i]);
    }
  }

  std::vector<std::uint64_t> brute_knn(const DenseVector& q, std::size_t k) {
    return knn_bruteforce(
        points.size(),
        [&](std::size_t j) { return space.distance(q, points[j]); }, k);
  }

  TypedStack stack;
  L2Space space;
  std::vector<DenseVector> points;
  std::unique_ptr<LandmarkIndex<L2Space>> index;
};

// ---------------------------------------------------------------------
// measure_batch: every score equals a per-candidate space.distance
// exactly (==, no tolerance) around the prefetch distance's edges, with
// repeated ids, for each shipped point layout.

template <typename S>
void expect_batch_bit_identical(const S& space,
                                const std::vector<typename S::Point>& objects,
                                const typename S::Point& q, Rng& rng) {
  using Point = typename S::Point;
  constexpr std::size_t P = kRankPrefetchAhead;
  const auto object = [&](std::uint64_t id) -> const Point& {
    return objects[id];
  };
  std::vector<const Point*> scratch;  // reused across batches, as pooled
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, P - 1, P, P + 1,
                        3 * P + 1}) {
    std::vector<std::uint64_t> ids(n);
    for (std::uint64_t& id : ids) id = rng.below(objects.size());
    if (n >= 2) ids[n - 1] = ids[0];  // a repeated id at the far end
    if (n >= P + 1) ids[P] = ids[1];  // and one a prefetch distance on
    std::vector<double> out(n, -1.0);
    measure_batch(space, q, ids, object, scratch, out);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i], space.distance(q, objects[ids[i]]))
          << "batch of " << n << ", position " << i;
    }
  }
}

std::vector<DenseVector> random_rows(Rng& rng, std::size_t n,
                                     std::size_t dims) {
  std::vector<DenseVector> rows(n, DenseVector(dims));
  for (DenseVector& r : rows) {
    for (double& c : r) c = rng.uniform(-1, 1);
  }
  return rows;
}

TEST(MeasureBatch, DenseScoresAreBitIdentical) {
  Rng rng(31);
  // 100 dims: a row spans 13 cache lines.
  const std::vector<DenseVector> rows = random_rows(rng, 40, 100);
  const DenseVector q = random_rows(rng, 1, 100)[0];
  expect_batch_bit_identical(L2Space{}, rows, q, rng);
  expect_batch_bit_identical(L1Space{}, rows, q, rng);
}

TEST(MeasureBatch, EditDistanceScoresAreBitIdentical) {
  Rng rng(32);
  std::vector<std::string> words;
  for (int len : {0, 3, 15, 16, 63, 64, 65, 200}) {
    std::string w;
    for (int i = 0; i < len; ++i) {
      w.push_back("ACGT"[rng.below(4)]);
    }
    words.push_back(w);
  }
  expect_batch_bit_identical(EditDistanceSpace{}, words,
                             std::string("GATTACAGATTACA"), rng);
}

TEST(MeasureBatch, SparseScoresAreBitIdentical) {
  Rng rng(33);
  auto random_doc = [&rng] {
    std::vector<SparseEntry> e;
    const std::size_t terms = 1 + rng.below(30);
    for (std::size_t i = 0; i < terms; ++i) {
      e.push_back({static_cast<std::uint32_t>(rng.below(200)),
                   rng.uniform(0.1, 2.0)});
    }
    return SparseVector(std::move(e));
  };
  std::vector<SparseVector> docs;
  for (int i = 0; i < 30; ++i) docs.push_back(random_doc());
  expect_batch_bit_identical(AngularSpace{}, docs, random_doc(), rng);
}

TEST(MeasureBatch, RefinementMatchesPerCandidateReference) {
  // refine_range and refine_knn run on measure_batch; their answers stay
  // the per-candidate loops' answers id for id, repeated ids included.
  DenseFixture f;
  Rng rng(34);
  const LandmarkIndex<L2Space>::ObjectFn object =
      [&f](std::uint64_t id) -> const DenseVector& { return f.points[id]; };
  for (int t = 0; t < 20; ++t) {
    const DenseVector& q = f.points[rng.below(f.points.size())];
    std::vector<std::uint64_t> cands(1 + rng.below(300));
    for (std::uint64_t& id : cands) id = rng.below(f.points.size());
    cands.push_back(cands.front());
    const double r = rng.uniform(5, 60);
    std::vector<std::uint64_t> in_range;
    std::vector<std::pair<double, std::uint64_t>> scored;
    for (std::uint64_t id : cands) {
      const double d = f.space.distance(q, f.points[id]);
      if (d <= r) in_range.push_back(id);
      scored.emplace_back(d, id);
    }
    std::sort(scored.begin(), scored.end());
    scored.erase(std::unique(scored.begin(), scored.end()), scored.end());
    const std::size_t k = 1 + rng.below(12);
    std::vector<std::uint64_t> nearest;
    for (std::size_t i = 0; i < std::min(k, scored.size()); ++i) {
      nearest.push_back(scored[i].second);
    }
    EXPECT_EQ(f.index->refine_range(q, r, cands, object), in_range);
    EXPECT_EQ(f.index->refine_knn(q, cands, object, k), nearest);
  }
}

TEST(KnnQuery, RadiusExpansionFindsExactNeighbors) {
  DenseFixture f;
  Rng rng(23);
  for (int t = 0; t < 10; ++t) {
    DenseVector q{rng.uniform(0, 100), rng.uniform(0, 100),
                  rng.uniform(0, 100)};
    auto truth = f.brute_knn(q, 10);
    std::optional<LandmarkIndex<L2Space>::KnnOutcome> got;
    f.index->knn_query(*f.stack.ring->alive_nodes()[0], q, 10,
                       /*r0=*/2.0, /*growth=*/2.0, /*r_max=*/200.0,
                       [&](const auto& o) { got = o; });
    f.stack.sim.run();
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(got->exact);
    EXPECT_EQ(got->neighbors, truth) << "query " << t;
    EXPECT_GE(got->rounds, 1);
  }
}

TEST(KnnQuery, StartsSmallAndExpands) {
  DenseFixture f;
  DenseVector q{50, 50, 50};
  std::optional<LandmarkIndex<L2Space>::KnnOutcome> got;
  f.index->knn_query(*f.stack.ring->alive_nodes()[0], q, 10, 0.5, 2.0, 200.0,
                     [&](const auto& o) { got = o; });
  f.stack.sim.run();
  ASSERT_TRUE(got.has_value());
  // r0 = 0.5 cannot possibly hold 10 of 3000 uniform points; multiple
  // rounds were needed.
  EXPECT_GT(got->rounds, 2);
  EXPECT_TRUE(got->exact);
  EXPECT_EQ(got->neighbors, f.brute_knn(q, 10));
  // Totals accumulate across rounds.
  EXPECT_GT(got->totals.query_messages, 0u);
}

TEST(KnnQuery, RMaxCapsSearchAndFlagsInexact) {
  DenseFixture f;
  DenseVector q{50, 50, 50};
  std::optional<LandmarkIndex<L2Space>::KnnOutcome> got;
  // r_max far too small to prove 10 neighbours.
  f.index->knn_query(*f.stack.ring->alive_nodes()[0], q, 10, 0.5, 2.0, 1.0,
                     [&](const auto& o) { got = o; });
  f.stack.sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_FALSE(got->exact);
  EXPECT_LE(got->neighbors.size(), 10u);
}

TEST(KnnQuery, KOneIsNearestNeighbor) {
  DenseFixture f;
  Rng rng(24);
  for (int t = 0; t < 5; ++t) {
    DenseVector q{rng.uniform(0, 100), rng.uniform(0, 100),
                  rng.uniform(0, 100)};
    std::optional<LandmarkIndex<L2Space>::KnnOutcome> got;
    f.index->knn_query(*f.stack.ring->alive_nodes()[0], q, 1, 1.0, 2.0,
                       200.0, [&](const auto& o) { got = o; });
    f.stack.sim.run();
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(got->neighbors.size(), 1u);
    EXPECT_EQ(got->neighbors[0], f.brute_knn(q, 1)[0]);
  }
}

TEST(Rebuild, NewLandmarksReindexEverything) {
  DenseFixture f;
  // Re-select landmarks with a different seed and rebuild.
  Rng rng(25);
  auto fresh = kmeans_dense(std::span<const DenseVector>(f.points), 4, rng);
  LandmarkMapper<L2Space> new_mapper(
      f.space, std::move(fresh),
      uniform_boundary(4, 0, 175));
  std::size_t rebuilt = f.index->rebuild(std::move(new_mapper), f.points);
  EXPECT_EQ(rebuilt, f.points.size());
  EXPECT_EQ(f.stack.platform->scheme_entries(f.index->scheme_id()),
            f.points.size());
  f.stack.platform->check_placement_invariant();
  // Queries remain exact under the new mapping.
  DenseVector q{30, 60, 20};
  auto truth = f.brute_knn(q, 10);
  std::optional<LandmarkIndex<L2Space>::KnnOutcome> got;
  f.index->knn_query(*f.stack.ring->alive_nodes()[0], q, 10, 2.0, 2.0, 200.0,
                     [&](const auto& o) { got = o; });
  f.stack.sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->neighbors, truth);
}

TEST(Rebuild, BoundaryFollowsNewMapper) {
  DenseFixture f;
  Rng rng(26);
  auto fresh = greedy_selection(f.space,
                                std::span<const DenseVector>(f.points), 4,
                                rng);
  Boundary tight = boundary_from_sample(
      f.space, std::span<const DenseVector>(fresh),
      std::span<const DenseVector>(f.points).subspan(0, 200));
  LandmarkMapper<L2Space> new_mapper(f.space, std::move(fresh),
                                     std::move(tight));
  Boundary expected = new_mapper.boundary();
  f.index->rebuild(std::move(new_mapper), f.points);
  const Boundary& got =
      f.stack.platform->scheme(f.index->scheme_id()).boundary;
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t d = 0; d < got.size(); ++d) {
    EXPECT_DOUBLE_EQ(got[d].lo, expected[d].lo);
    EXPECT_DOUBLE_EQ(got[d].hi, expected[d].hi);
  }
}

TEST(RemoveTyped, RemovedObjectLeavesKnnResults) {
  DenseFixture f;
  DenseVector q{10, 10, 10};
  auto truth = f.brute_knn(q, 1);
  EXPECT_TRUE(f.index->remove(truth[0], f.points[truth[0]]));
  std::optional<LandmarkIndex<L2Space>::KnnOutcome> got;
  f.index->knn_query(*f.stack.ring->alive_nodes()[0], q, 1, 2.0, 2.0, 200.0,
                     [&](const auto& o) { got = o; });
  f.stack.sim.run();
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->neighbors.size(), 1u);
  EXPECT_NE(got->neighbors[0], truth[0]);
}

// ----- landmark quality (refresh decision rule) -----

TEST(LandmarkQuality, AdoptionDecisionFollowsSelectivityOrdering) {
  // Which selection scheme filters better is data-dependent; the
  // decision rule must simply agree with the measured selectivities and
  // respect the threshold margin.
  Rng rng(27);
  SyntheticConfig cfg;
  cfg.objects = 2000;
  cfg.dims = 30;
  cfg.clusters = 6;
  cfg.deviation = 5;
  auto data = generate_clustered(cfg, rng);
  auto queries = generate_queries(cfg, data, 20, rng);
  L2Space space;
  double max_dist = max_theoretical_distance(cfg);
  auto greedy = greedy_selection(
      space, std::span<const DenseVector>(data.points), 6, rng);
  auto kmeans =
      kmeans_dense(std::span<const DenseVector>(data.points), 6, rng);
  LandmarkMapper<L2Space> g(space, greedy, uniform_boundary(6, 0, max_dist));
  LandmarkMapper<L2Space> m(space, kmeans, uniform_boundary(6, 0, max_dist));
  double radius = 0.05 * max_dist;
  auto sample = std::span<const DenseVector>(data.points);
  auto probes = std::span<const DenseVector>(queries);
  double sg = filter_selectivity(g, sample, probes, radius);
  double sm = filter_selectivity(m, sample, probes, radius);
  EXPECT_GT(sg, 0.0);
  EXPECT_GT(sm, 0.0);
  const LandmarkMapper<L2Space>& better = sm < sg ? m : g;
  const LandmarkMapper<L2Space>& worse = sm < sg ? g : m;
  double ratio = std::min(sm, sg) / std::max(sm, sg);
  if (ratio < 0.95) {  // a clear winner exists
    EXPECT_TRUE(
        should_adopt_landmarks(worse, better, sample, probes, radius, 0.05));
    EXPECT_FALSE(
        should_adopt_landmarks(better, worse, sample, probes, radius, 0.05));
  }
  // A huge threshold always rejects the switch.
  EXPECT_FALSE(
      should_adopt_landmarks(worse, better, sample, probes, radius, 0.999));
}

TEST(LandmarkQuality, DegenerateLandmarksFilterWorst) {
  // k copies of one landmark give a rank-1 index space: every dimension
  // is identical, so the filter is as weak as a single landmark and
  // must be no better than a dispersed greedy set.
  Rng rng(30);
  L2Space space;
  std::vector<DenseVector> sample;
  for (int i = 0; i < 500; ++i) {
    sample.push_back({rng.uniform(0, 10), rng.uniform(0, 10),
                      rng.uniform(0, 10)});
  }
  std::vector<DenseVector> probes(sample.begin(), sample.begin() + 10);
  auto greedy = greedy_selection(
      space, std::span<const DenseVector>(sample), 4, rng);
  std::vector<DenseVector> degenerate(4, sample[0]);
  LandmarkMapper<L2Space> good(space, greedy, uniform_boundary(4, 0, 20));
  LandmarkMapper<L2Space> bad(space, degenerate, uniform_boundary(4, 0, 20));
  double sg = filter_selectivity(good, std::span<const DenseVector>(sample),
                                 std::span<const DenseVector>(probes), 1.0);
  double sb = filter_selectivity(bad, std::span<const DenseVector>(sample),
                                 std::span<const DenseVector>(probes), 1.0);
  EXPECT_LE(sg, sb);
}

TEST(LandmarkQuality, SelectivityBoundsAndMonotonicity) {
  Rng rng(28);
  L2Space space;
  std::vector<DenseVector> sample;
  for (int i = 0; i < 300; ++i) {
    sample.push_back({rng.uniform(0, 10), rng.uniform(0, 10)});
  }
  auto lm = greedy_selection(space, std::span<const DenseVector>(sample), 3,
                             rng);
  LandmarkMapper<L2Space> mapper(space, lm, uniform_boundary(3, 0, 15));
  std::vector<DenseVector> probes(sample.begin(), sample.begin() + 10);
  double s_small = filter_selectivity(
      mapper, std::span<const DenseVector>(sample),
      std::span<const DenseVector>(probes), 0.5);
  double s_large = filter_selectivity(
      mapper, std::span<const DenseVector>(sample),
      std::span<const DenseVector>(probes), 5.0);
  EXPECT_GE(s_small, 0.0);
  EXPECT_LE(s_large, 1.0);
  EXPECT_LE(s_small, s_large);  // larger radius filters less
}

// ----- Rocchio query expansion -----

TEST(Rocchio, NoFeedbackReturnsOriginal) {
  SparseVector q({{1, 2.0}, {5, 1.0}});
  auto out = rocchio_expand(q, {});
  EXPECT_EQ(out.entries().size(), q.entries().size());
}

TEST(Rocchio, AddsStrongFeedbackTerms) {
  SparseVector q({{1, 2.0}});
  std::vector<SparseVector> feedback{
      SparseVector({{1, 1.0}, {7, 3.0}, {9, 0.1}}),
      SparseVector({{7, 2.5}, {8, 0.2}}),
  };
  RocchioOptions opts;
  opts.expansion_terms = 1;  // only the strongest new term survives
  auto out = rocchio_expand(q, feedback, opts);
  bool has7 = false, has8 = false, has9 = false;
  for (const auto& e : out.entries()) {
    if (e.term == 7) has7 = true;
    if (e.term == 8) has8 = true;
    if (e.term == 9) has9 = true;
  }
  EXPECT_TRUE(has7);   // dominant shared feedback term
  EXPECT_FALSE(has8);  // truncated
  EXPECT_FALSE(has9);
  // Original term keeps (alpha + beta*centroid) weight >= alpha*orig.
  EXPECT_GE(out.entries()[0].weight, 2.0);
}

TEST(Rocchio, ExpansionPullsQueryTowardTopic) {
  // Build a corpus; expansion with same-story documents must move the
  // query closer (in angle) to other documents of that story.
  Rng rng(29);
  CorpusConfig cfg;
  cfg.documents = 1500;
  cfg.vocabulary = 20000;
  cfg.topics = 15;
  cfg.stories_per_topic = 10;
  Corpus corpus(cfg, rng);
  AngularSpace ang;
  const auto& docs = corpus.documents();
  auto queries = corpus.make_queries(10, 3.5, rng);
  int improved = 0;
  for (const auto& q : queries) {
    // True top-5 as (idealized) feedback.
    auto truth = knn_bruteforce(
        docs.size(), [&](std::size_t j) { return ang.distance(q, docs[j]); },
        5);
    std::vector<SparseVector> feedback;
    for (auto id : truth) feedback.push_back(docs[id]);
    auto expanded = rocchio_expand(q, feedback);
    // Mean distance to the NEXT 20 true neighbours should shrink.
    auto wider = knn_bruteforce(
        docs.size(), [&](std::size_t j) { return ang.distance(q, docs[j]); },
        25);
    double before = 0, after = 0;
    for (std::size_t i = 5; i < wider.size(); ++i) {
      before += ang.distance(q, docs[wider[i]]);
      after += ang.distance(expanded, docs[wider[i]]);
    }
    if (after < before) ++improved;
  }
  EXPECT_GE(improved, 8);  // expansion helps nearly always
}

}  // namespace
}  // namespace lmk
