// Table 1: parameters for synthetic dataset generation — prints the
// configured parameters and verifies the generated dataset's moments
// actually match them (clamping at the range boundary shrinks the
// per-dimension deviation slightly; both raw and clamped are shown).
// The verification scan runs as a sweep cell; its lines are emitted
// after the parameter table, as in the serial layout.
#include <cmath>
#include <string>

#include "bench_common.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

int main() {
  using namespace lmk;
  using namespace lmk::bench;
  Scale scale = Scale::resolve();
  scale.print("Table 1: parameters for dataset generation");

  SyntheticWorkload w(scale);
  TablePrinter params({"parameter", "paper", "this run"});
  params.add_row({"Dimension", "100", std::to_string(w.cfg.dims)});
  params.add_row({"Range of each dimension", "[0..100]",
                  std::string("[")
                      .append(fmt(w.cfg.range_lo, 0))
                      .append("..")
                      .append(fmt(w.cfg.range_hi, 0))
                      .append("]")});
  params.add_row({"Number of clusters", "10", std::to_string(w.cfg.clusters)});
  params.add_row(
      {"Deviation of each cluster", "20", fmt(w.cfg.deviation, 0)});
  params.add_row({"Objects", "100000", std::to_string(w.cfg.objects)});
  params.print();

  // Verification: measured per-dimension deviation around the assigned
  // cluster centre, and cluster occupancy balance.
  SweepDriver sweep;
  sweep.add_cell([&w]() {
    Accumulator dev;
    std::vector<std::size_t> occupancy(w.cfg.clusters, 0);
    for (std::size_t i = 0; i < w.data.points.size(); ++i) {
      std::uint32_t c = w.data.assignments[i];
      ++occupancy[c];
      for (std::size_t d = 0; d < w.cfg.dims; ++d) {
        dev.add(w.data.points[i][d] - w.data.centers[c][d]);
      }
    }
    std::size_t min_occ = occupancy[0], max_occ = occupancy[0];
    for (std::size_t o : occupancy) {
      min_occ = std::min(min_occ, o);
      max_occ = std::max(max_occ, o);
    }
    CellOutput out;
    char buf[160];
    out.lines.emplace_back("");
    out.lines.emplace_back("verification:");
    std::snprintf(buf, sizeof buf,
                  "  measured per-dim deviation (after range clamping): %.2f",
                  dev.stddev());
    out.lines.emplace_back(buf);
    std::snprintf(buf, sizeof buf,
                  "  cluster occupancy: min %zu, max %zu (expected ~%zu each)",
                  min_occ, max_occ, w.cfg.objects / w.cfg.clusters);
    out.lines.emplace_back(buf);
    std::snprintf(buf, sizeof buf,
                  "  max theoretical distance: %.1f (paper: 1000)",
                  w.max_dist);
    out.lines.emplace_back(buf);
    return out;
  });
  for (const CellOutput& out : sweep.run()) {
    for (const std::string& line : out.lines) {
      std::printf("%s\n", line.c_str());
    }
  }
  return 0;
}
