// Command-line experiment runner: a configurable version of the figure
// benches for custom sweeps, e.g.
//
//   run_experiment --nodes 512 --objects 20000 --queries 300
//                  --selection kmeans --landmarks 10 --balance
//                  --factors 0.01,0.05,0.1 [--naive] [--rotate] [--csv]
//
// Prints the §4.1 metrics per range factor (or CSV with --csv).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "eval/experiment.hpp"
#include "landmark/selection.hpp"
#include "workload/synthetic.hpp"

using namespace lmk;

namespace {

struct Args {
  std::size_t nodes = 256;
  std::size_t objects = 10000;
  std::size_t queries = 150;
  std::size_t sample = 800;
  std::size_t landmarks = 10;
  std::uint64_t seed = 42;
  bool kmeans = true;
  bool balance = false;
  bool rotate = false;
  bool naive = false;
  bool csv = false;
  std::vector<double> factors{0.01, 0.05, 0.10};
};

std::vector<double> parse_factors(const char* s) {
  std::vector<double> out;
  std::string cur;
  for (const char* p = s;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!cur.empty()) out.push_back(std::stod(cur));
      cur.clear();
      if (*p == '\0') break;
    } else {
      cur.push_back(*p);
    }
  }
  return out;
}

bool parse(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--nodes")) {
      const char* v = next("--nodes");
      if (!v) return false;
      a->nodes = std::stoul(v);
    } else if (!std::strcmp(argv[i], "--objects")) {
      const char* v = next("--objects");
      if (!v) return false;
      a->objects = std::stoul(v);
    } else if (!std::strcmp(argv[i], "--queries")) {
      const char* v = next("--queries");
      if (!v) return false;
      a->queries = std::stoul(v);
    } else if (!std::strcmp(argv[i], "--sample")) {
      const char* v = next("--sample");
      if (!v) return false;
      a->sample = std::stoul(v);
    } else if (!std::strcmp(argv[i], "--landmarks")) {
      const char* v = next("--landmarks");
      if (!v) return false;
      a->landmarks = std::stoul(v);
    } else if (!std::strcmp(argv[i], "--seed")) {
      const char* v = next("--seed");
      if (!v) return false;
      a->seed = std::stoull(v);
    } else if (!std::strcmp(argv[i], "--selection")) {
      const char* v = next("--selection");
      if (!v) return false;
      a->kmeans = !std::strcmp(v, "kmeans");
    } else if (!std::strcmp(argv[i], "--factors")) {
      const char* v = next("--factors");
      if (!v) return false;
      a->factors = parse_factors(v);
    } else if (!std::strcmp(argv[i], "--balance")) {
      a->balance = true;
    } else if (!std::strcmp(argv[i], "--rotate")) {
      a->rotate = true;
    } else if (!std::strcmp(argv[i], "--naive")) {
      a->naive = true;
    } else if (!std::strcmp(argv[i], "--csv")) {
      a->csv = true;
    } else if (!std::strcmp(argv[i], "--help")) {
      return false;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, &args)) {
    std::fprintf(
        stderr,
        "usage: run_experiment [--nodes N] [--objects N] [--queries N]\n"
        "    [--sample N] [--landmarks K] [--seed S]\n"
        "    [--selection greedy|kmeans] [--factors f1,f2,...]\n"
        "    [--balance] [--rotate] [--naive] [--csv]\n");
    return 1;
  }

  SyntheticConfig cfg;  // Table 1 shape at the requested size
  cfg.objects = args.objects;
  Rng rng(args.seed);
  SyntheticDataset data = generate_clustered(cfg, rng);
  auto queries = generate_queries(cfg, data, args.queries, rng);
  double max_dist = max_theoretical_distance(cfg);
  L2Space space;

  Rng lm_rng(args.seed + 1);
  auto idx = lm_rng.sample_indices(
      data.points.size(), std::min(args.sample, data.points.size()));
  std::vector<DenseVector> sample;
  for (auto i : idx) sample.push_back(data.points[i]);
  std::vector<DenseVector> landmarks =
      args.kmeans ? kmeans_dense(std::span<const DenseVector>(sample),
                                 args.landmarks, lm_rng)
                  : greedy_selection(space,
                                     std::span<const DenseVector>(sample),
                                     args.landmarks, lm_rng);

  ExperimentConfig ecfg;
  ecfg.nodes = args.nodes;
  ecfg.seed = args.seed;
  ecfg.load_balance = args.balance;
  ecfg.rotate = args.rotate;
  ecfg.routing = args.naive ? RoutingMode::kNaive : RoutingMode::kTree;
  SimilarityExperiment<L2Space> exp(
      ecfg, space, data.points,
      LandmarkMapper<L2Space>(space, std::move(landmarks),
                              uniform_boundary(args.landmarks, 0, max_dist)),
      "cli");
  exp.set_queries(queries);
  if (args.balance) {
    std::fprintf(stderr, "# balancing performed %d migrations\n",
                 exp.migrations());
  }

  TablePrinter table(QueryStats::header());
  for (double f : args.factors) {
    QueryStats stats = exp.run_batch(f * max_dist);
    table.add_row(stats.row(std::string("@").append(fmt(f * 100, 2)).append("%")));
  }
  if (args.csv) {
    std::fputs(table.csv().c_str(), stdout);
  } else {
    table.print();
  }
  return 0;
}
