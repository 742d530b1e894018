// Ablation: landmark count k (§3.1 "Number of landmarks").
//
// Few landmarks filter poorly (large candidate supersets, wasted
// bandwidth); many landmarks push the index space into high
// dimensionality where range queries touch ever more cuboids (routing
// cost). The sweep shows the tradeoff the paper describes; each k is
// one sweep cell over the shared dataset / queries / truth / topology.
#include "bench_common.hpp"
#include "common/table.hpp"

int main() {
  using namespace lmk;
  using namespace lmk::bench;
  Scale scale = Scale::resolve();
  scale.print("Ablation: number of landmarks k");
  SyntheticWorkload w(scale);
  auto dataset = share(w.data.points);
  auto queries = share(w.queries);
  auto truth = share(SimilarityExperiment<L2Space>::compute_truth(
      w.space, *dataset, *queries, 10));

  ExperimentConfig proto;
  proto.nodes = scale.nodes;
  proto.seed = scale.seed;
  auto topology = SimilarityExperiment<L2Space>::make_topology(proto);

  TablePrinter table(QueryStats::header());
  SweepDriver sweep;
  for (std::size_t k : {2ul, 3ul, 5ul, 10ul, 15ul, 20ul}) {
    sweep.add_cell([&w, &scale, dataset, queries, truth, topology, proto,
                    k]() {
      SimilarityExperiment<L2Space> exp(
          proto, w.space, dataset,
          w.make_mapper(Selection::kKMeans, k, scale.sample, scale.seed + k),
          std::string("k").append(std::to_string(k)), topology);
      exp.set_queries(queries, truth);
      QueryStats stats = exp.run_batch(0.05 * w.max_dist);
      CellOutput out;
      out.rows.push_back(stats.row("k=" + std::to_string(k) + " @5%"));
      return out;
    });
  }
  sweep.run_into(table);
  table.print();
  std::printf(
      "\nexpected: candidate count (cand) shrinks as k grows (better "
      "filtering); routing cost grows with index dimensionality.\n");
  return 0;
}
