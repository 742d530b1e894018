// Shared scaffolding for the figure/table benches.
//
// Every bench regenerates one of the paper's tables or figure series.
// Absolute numbers depend on the substituted substrates (synthetic
// topology instead of King, generated corpus instead of TREC), so each
// bench prints the series and EXPERIMENTS.md records the shape checks.
//
// Scale: the paper runs 1740 nodes / 10^5 objects / 2000 queries. The
// default bench scale is reduced so the whole suite finishes in minutes;
// set LMK_FULL=1 for paper scale, or override individual knobs:
//   LMK_NODES, LMK_OBJECTS, LMK_QUERIES, LMK_SAMPLE, LMK_DOCS, LMK_SEED.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>

#include "common/check.hpp"
#include "eval/experiment.hpp"
#include "eval/sweep.hpp"
#include "landmark/selection.hpp"
#include "workload/corpus.hpp"
#include "workload/synthetic.hpp"

namespace lmk::bench {

// Environment knobs. Unset or empty yields the fallback; any other
// value must parse in full or the bench stops with a message, so a typo
// such as LMK_NODES=1k never runs silently at a different scale.
inline std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long n = std::strtoull(v, &end, 10);
  LMK_CHECK_MSG(*v != '-' && end != v && *end == '\0',
                "%s must be a non-negative integer, got \"%s\"", name, v);
  return static_cast<std::size_t>(n);
}

inline double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const double x = std::strtod(v, &end);
  LMK_CHECK_MSG(end != v && *end == '\0', "%s must be a number, got \"%s\"",
                name, v);
  return x;
}

/// Unset, empty or 0 is off; any other integer is on.
inline bool env_flag(const char* name) { return env_size(name, 0) != 0; }

/// Wrap a vector in the shared-immutable handle the sweep cells hold:
/// one corpus / query set / truth table for N concurrent cells.
template <typename T>
[[nodiscard]] std::shared_ptr<const std::vector<T>> share(
    std::vector<T> v) {
  return std::make_shared<const std::vector<T>>(std::move(v));
}

/// Non-owning handle to a vector some longer-lived owner holds (e.g.
/// the corpus documents inside a workload on the bench's stack, which
/// outlives the sweep). Avoids copying the corpus per cell.
template <typename T>
[[nodiscard]] std::shared_ptr<const std::vector<T>> share_ref(
    const std::vector<T>& v) {
  return std::shared_ptr<const std::vector<T>>(std::shared_ptr<void>(), &v);
}

inline bool full_scale() { return env_flag("LMK_FULL"); }

/// Common experiment scale knobs resolved from the environment.
struct Scale {
  std::size_t nodes;
  std::size_t objects;
  std::size_t queries;
  std::size_t sample;   ///< landmark-selection sample size
  std::size_t docs;     ///< corpus documents
  std::uint64_t seed;

  static Scale resolve() {
    bool full = full_scale();
    Scale s;
    s.nodes = env_size("LMK_NODES", full ? 1740 : 256);
    s.objects = env_size("LMK_OBJECTS", full ? 100000 : 10000);
    s.queries = env_size("LMK_QUERIES", full ? 2000 : 150);
    s.sample = env_size("LMK_SAMPLE", full ? 2000 : 800);
    s.docs = env_size("LMK_DOCS", full ? 157021 : 12000);
    s.seed = env_size("LMK_SEED", 42);
    return s;
  }

  void print(const char* bench) const {
    std::printf("# %s  (nodes=%zu objects=%zu queries=%zu sample=%zu "
                "docs=%zu seed=%llu%s)\n",
                bench, nodes, objects, queries, sample, docs,
                static_cast<unsigned long long>(seed),
                full_scale() ? ", FULL PAPER SCALE" : "");
  }
};

/// The paper's query-range-factor sweep: 0.1% .. 20% of the maximum
/// theoretical distance.
inline const double kRangeFactors[] = {0.001, 0.005, 0.01, 0.02,
                                       0.05,  0.10,  0.20};

/// Landmark selection scheme axes of Figures 2/3/5.
enum class Selection { kGreedy, kKMeans };

inline const char* selection_name(Selection s) {
  return s == Selection::kGreedy ? "Greedy" : "Kmean";
}

/// Build the Table 1 synthetic workload at bench scale.
struct SyntheticWorkload {
  SyntheticConfig cfg;
  SyntheticDataset data;
  std::vector<DenseVector> queries;
  double max_dist = 0;
  L2Space space;

  explicit SyntheticWorkload(const Scale& s) {
    cfg.objects = s.objects;
    cfg.dims = 100;          // Table 1
    cfg.range_lo = 0;
    cfg.range_hi = 100;
    cfg.clusters = 10;
    cfg.deviation = 20;
    Rng rng(s.seed);
    data = generate_clustered(cfg, rng);
    queries = generate_queries(cfg, data, s.queries, rng);
    max_dist = max_theoretical_distance(cfg);
  }

  /// Landmark mapper for one (selection, k) scheme, boundary from the
  /// original metric space (each dim [0, max_dist]) as in §4.2.
  LandmarkMapper<L2Space> make_mapper(Selection sel, std::size_t k,
                                      std::size_t sample_size,
                                      std::uint64_t seed) const {
    Rng rng(seed);
    auto idx = rng.sample_indices(data.points.size(),
                                  std::min(sample_size, data.points.size()));
    std::vector<DenseVector> sample;
    sample.reserve(idx.size());
    for (auto i : idx) sample.push_back(data.points[i]);
    std::vector<DenseVector> landmarks =
        sel == Selection::kKMeans
            ? kmeans_dense(std::span<const DenseVector>(sample), k, rng)
            : greedy_selection(space, std::span<const DenseVector>(sample), k,
                               rng);
    return LandmarkMapper<L2Space>(space, std::move(landmarks),
                                   uniform_boundary(k, 0, max_dist));
  }
};

/// Build the TREC-like corpus workload at bench scale (§4.3).
struct CorpusWorkload {
  CorpusConfig cfg;
  std::unique_ptr<Corpus> corpus;
  std::vector<SparseVector> queries;
  AngularSpace space;

  explicit CorpusWorkload(const Scale& s) {
    cfg.documents = s.docs;
    if (!full_scale()) {
      // Keep vocabulary / topics proportionate at reduced scale so the
      // sparsity geometry matches the full corpus.
      cfg.vocabulary = std::max<std::size_t>(20000, s.docs * 3 / 2);
      cfg.topics = 60;
      cfg.stories_per_topic = 25;
    }
    Rng rng(s.seed + 1);
    corpus = std::make_unique<Corpus>(cfg, rng);
    // 50 topics repeated, as the paper repeats TREC-3 topics 151-200.
    auto topics = corpus->make_queries(50, 3.5, rng);
    queries.reserve(s.queries);
    for (std::size_t i = 0; i < s.queries; ++i) {
      queries.push_back(topics[i % topics.size()]);
    }
  }

  LandmarkMapper<AngularSpace> make_mapper(Selection sel, std::size_t k,
                                           std::size_t sample_size,
                                           std::uint64_t seed) const {
    Rng rng(seed);
    const auto& docs = corpus->documents();
    auto idx = rng.sample_indices(docs.size(),
                                  std::min(sample_size, docs.size()));
    std::vector<SparseVector> sample;
    sample.reserve(idx.size());
    for (auto i : idx) sample.push_back(docs[i]);
    std::vector<SparseVector> landmarks =
        sel == Selection::kKMeans
            ? kmeans_spherical(std::span<const SparseVector>(sample), k, rng)
            : greedy_selection(space, std::span<const SparseVector>(sample),
                               k, rng);
    // Boundary from the landmark selection procedure, as in §4.3.
    Boundary boundary = boundary_from_sample(
        space, std::span<const SparseVector>(landmarks),
        std::span<const SparseVector>(sample));
    return LandmarkMapper<AngularSpace>(space, std::move(landmarks),
                                        std::move(boundary));
  }
};

}  // namespace lmk::bench
