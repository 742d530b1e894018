// The repository benchmark: drives the public API of the landmark index
// (LandmarkIndex with bind_objects over a pre-materialised corpus,
// IndexPlatform, Simulator::run) on one of three fixed workloads and
// prints every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1) by name and unit. README.md explains the workloads and
// what each metric should move.
//
// Structure of one run:
//   1. harness (untimed): materialise the corpus, the churn workload's
//      fresh objects and the query catalogue (fixed, from kSystemSeed)
//      and the traffic: arrival times, topic order, origins, removal
//      victims (from --seed);
//   2. set-up, repeated `setups` times, the median reported as setup_s:
//      k-means landmarks, overlay build + bootstrap, stream_load, and a
//      warm-up query that pays every node's lazy LocalStore build;
//   3. timed phase: the open-loop schedule runs in virtual time in
//      windows of `window_queries` arrivals, and each window's sim.run
//      wall time is measured. Passes repeat until --seconds have elapsed
//      (read-only workloads replay the same schedule, the churn workload
//      continues one stream); throughput_ops_s is completed ops per wall
//      second (see Runner::throughput). Virtual-time metrics come from
//      pass 0 only, so they repeat exactly for a seed;
//   4. harness (untimed): the brute-force oracle checks pass 0's
//      queries (a sample on the top-k workloads); any failed check makes
//      the run fail.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//        [--tiny] [--threads W] [--plant-fault] [--spans FILE]
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "chord/ring.hpp"
#include "common/arena.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/typed_index.hpp"
#include "eval/ground_truth.hpp"
#include "landmark/selection.hpp"
#include "lph/lph.hpp"
#include "metric/dense.hpp"
#include "net/latency_model.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "store/local_store.hpp"
#include "workload/open_loop.hpp"
#include "workload/synthetic.hpp"

namespace lmk::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------
// Workloads

struct Config {
  std::string name;
  std::size_t nodes = 1740;       // the paper's King size
  std::size_t objects = 100000;   // Table 1
  std::size_t dims = 16;
  std::size_t clusters = 10;
  double deviation = 20;
  std::size_t landmarks = 10;
  std::size_t sample = 2000;      // landmark-selection sample
  double rate = 20;               // Poisson arrivals per second
  double zipf_s = 0.9;
  double range_factor = 0.10;     // radius / max theoretical distance
  bool topk = true;               // kTopK with true-distance rank
  bool churn = false;             // remove + insert per query, caches on
  std::size_t qpool = 4;          // churn: repeat foci per topic
  std::size_t pass_queries = 1000;   // queries per pass (p99 needs 1000)
  std::size_t window_queries = 100;  // arrivals per throughput window
  std::size_t recall_sample = 200;   // pass-0 queries the oracle checks
  std::size_t setups = 5;
  std::size_t max_passes = 1000;
};

bool config_for(const std::string& name, bool tiny, Config* out) {
  Config c;
  c.name = name;
  if (name == "flagship_topk") {
    c.dims = 16;
    c.range_factor = 0.10;
  } else if (name == "table1_topk100") {
    c.dims = 100;
    c.range_factor = 0.05;
  } else if (name == "churn_cached") {
    c.dims = 16;
    c.range_factor = 0.05;
    c.topk = false;
    c.churn = true;
  } else {
    return false;
  }
  if (tiny) {
    c.nodes = 128;
    c.objects = 5000;
    c.sample = 400;
    c.recall_sample = 50;
    c.setups = 1;
  }
  if (c.churn) {
    // Every pass removes pass_queries initial objects; keep at least
    // half of the corpus live.
    c.max_passes = std::min<std::size_t>(48, c.objects / (2 * c.pass_queries));
    // Recall differs several-fold between the 40 foci: score them all.
    c.recall_sample = c.pass_queries;
  }
  *out = c;
  return true;
}

// ---------------------------------------------------------------------
// Inputs (harness: generated, never timed)

// The system is fixed like the paper's one Table-1 dataset: corpus,
// landmark sample and overlay come from this seed, and --seed draws only
// the traffic. A per-seed corpus moves the landmark geometry, and with
// it the entry placement and the cost of every query, by far more than
// any bound a regression check could use.
constexpr std::uint64_t kSystemSeed = 42;

enum class OpKind : std::uint8_t { kQuery, kRemove, kInsert };

struct Op {
  SimTime at = 0;            // virtual time relative to the stream start
  OpKind kind = OpKind::kQuery;
  std::uint32_t origin = 0;  // index into the ring's alive nodes
  std::uint64_t arg = 0;     // query index, or the object id mutated
};

struct Inputs {
  /// Objects 0..objects-1 are the initial corpus; the churn workload's
  /// fresh objects follow.
  std::vector<DenseVector> points;
  std::vector<DenseVector> sample;
  std::vector<DenseVector> queries;
  /// Time-ordered. Read-only workloads: one pass, replayed. Churn: the
  /// whole stream, each query followed by one remove and one insert.
  std::vector<Op> ops;
  std::vector<std::size_t> sampled;  // pass-0 query indices, ascending
  double max_dist = 0;
  double radius = 0;
};

Inputs make_inputs(const Config& c, std::uint64_t seed) {
  Inputs in;
  const std::size_t stream_queries =
      c.pass_queries * (c.churn ? c.max_passes : 1);
  const std::size_t fresh = c.churn ? stream_queries : 0;

  SyntheticConfig sc;
  sc.objects = c.objects + fresh;
  sc.dims = c.dims;
  sc.range_lo = 0;
  sc.range_hi = 100;
  sc.clusters = c.clusters;
  sc.deviation = c.deviation;
  SyntheticStream stream(sc, kSystemSeed);
  in.max_dist = max_theoretical_distance(sc);
  in.radius = c.range_factor * in.max_dist;

  in.points.resize(c.objects + fresh);
  parallel_for(in.points.size(),
               [&](std::size_t i) { in.points[i] = stream.point(i); });

  Rng sel(kSystemSeed + 7);
  for (std::size_t i :
       sel.sample_indices(c.objects, std::min(c.sample, c.objects))) {
    in.sample.push_back(in.points[i]);
  }

  OpenLoopConfig oc;
  oc.arrivals_per_sec = c.rate;
  oc.topics = c.clusters;
  oc.zipf_s = c.zipf_s;
  oc.count = stream_queries;
  Rng traffic(mix64(seed ^ 0x74726166666963ULL));
  oc.seed = traffic.next();
  std::vector<Arrival> arrivals = open_loop_schedule(oc);
  // Each pass holds exactly its Zipf share of every topic (largest-
  // remainder rounding) in a seeded order. Topics differ several-fold in
  // cost, so the multinomial spread of i.i.d. topic counts would move the
  // cost of a pass from seed to seed.
  std::vector<double> share(c.clusters);
  double norm = 0;
  for (std::size_t t = 0; t < c.clusters; ++t) {
    share[t] = std::pow(static_cast<double>(t + 1), -c.zipf_s);
    norm += share[t];
  }
  std::vector<std::size_t> count(c.clusters);
  std::vector<std::pair<double, std::size_t>> remainder;
  std::size_t assigned = 0;
  for (std::size_t t = 0; t < c.clusters; ++t) {
    const double exact = static_cast<double>(c.pass_queries) * share[t] / norm;
    count[t] = static_cast<std::size_t>(exact);
    assigned += count[t];
    remainder.emplace_back(-(exact - static_cast<double>(count[t])), t);
  }
  std::sort(remainder.begin(), remainder.end());
  for (std::size_t k = 0; assigned < c.pass_queries; ++k, ++assigned) {
    ++count[remainder[k].second];
  }
  std::vector<std::uint32_t> topics;
  for (std::size_t t = 0; t < c.clusters; ++t) {
    topics.insert(topics.end(), count[t], static_cast<std::uint32_t>(t));
  }
  for (std::size_t p = 0; p < arrivals.size(); p += c.pass_queries) {
    traffic.shuffle(topics);
    for (std::size_t j = 0; j < c.pass_queries; ++j) {
      arrivals[p + j].topic = topics[j];
    }
  }

  // The query points are a fixed catalogue too; the seed orders and
  // times them. The j-th arrival of topic t in a pass asks the topic's
  // j-th query. Churn: one of qpool foci per topic, the repeated-query
  // shape result caches exist for. Drawing the points per seed moved
  // bytes_per_query, and throughput with it, by 5% (and by a third with
  // 40 churn foci) between seeds.
  in.queries.resize(arrivals.size());
  std::vector<std::uint64_t> occurrence(c.clusters, 0);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const std::uint32_t t = arrivals[i].topic;
    const std::uint64_t j = occurrence[t]++;
    const std::uint64_t salt = c.churn ? t * c.qpool + j % c.qpool : j;
    in.queries[i] = stream.query_near(t, salt);
  }

  Rng origins = traffic.fork();
  Rng victims = traffic.fork();
  std::vector<std::size_t> removal_order;
  if (c.churn) removal_order = victims.sample_indices(c.objects, fresh);
  const SimTime mean_gap = static_cast<SimTime>(kSecond / c.rate);
  auto at_of = [&](std::size_t i) {
    return static_cast<SimTime>(arrivals[i].at_sec *
                                static_cast<double>(kSecond));
  };
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const SimTime at = at_of(i);
    auto origin = [&] {
      return static_cast<std::uint32_t>(origins.below(c.nodes));
    };
    in.ops.push_back({at, OpKind::kQuery, origin(), i});
    if (!c.churn) continue;
    // The paired mutations split the gap to the next arrival in thirds,
    // so the stream interleaves query, remove, insert.
    const SimTime gap =
        i + 1 < arrivals.size() ? at_of(i + 1) - at : mean_gap;
    in.ops.push_back({at + gap / 3, OpKind::kRemove, origin(),
                      removal_order[i]});
    in.ops.push_back(
        {at + 2 * gap / 3, OpKind::kInsert, origin(), c.objects + i});
  }
  for (std::size_t k = 1; k < in.ops.size(); ++k) {
    LMK_CHECK(in.ops[k - 1].at <= in.ops[k].at);
  }
  in.sampled = sample_query_indices(
      c.pass_queries, std::min(c.recall_sample, c.pass_queries),
      traffic.next());
  return in;
}

// ---------------------------------------------------------------------
// The system under test (set-up is timed)

struct SetupTimes {
  double select = 0, topology = 0, bootstrap = 0, load = 0, warmup = 0;
  [[nodiscard]] double total() const {
    return select + topology + bootstrap + load + warmup;
  }
};

struct Stack {
  L2Space space;
  Simulator sim;
  std::unique_ptr<DelaySpaceModel> model;
  std::unique_ptr<Network> net;
  std::unique_ptr<Ring> ring;
  std::unique_ptr<IndexPlatform> platform;
  std::unique_ptr<LandmarkIndex<L2Space>> index;
  std::vector<ChordNode*> alive;
  SetupTimes times;
  std::uint64_t warmup_rebuilds = 0;
};

std::unique_ptr<Stack> build_stack(const Config& c, const Inputs& in) {
  auto s = std::make_unique<Stack>();
  Clock::time_point t = Clock::now();

  Rng krng(kSystemSeed + 8);
  std::vector<DenseVector> landmarks = kmeans_dense(
      std::span<const DenseVector>(in.sample), c.landmarks, krng);
  // Read-only pair: the metric's own bound (bench_flagship's boundary).
  // Churn: the sample-derived boundary (§3.1 option 2). The metric
  // boundary puts most entries on one node, and every mutation there
  // would rebuild that node's whole store.
  Boundary boundary =
      c.churn ? boundary_from_sample(
                    s->space, std::span<const DenseVector>(landmarks),
                    std::span<const DenseVector>(in.sample))
              : uniform_boundary(c.landmarks, 0, in.max_dist);
  LandmarkMapper<L2Space> mapper(s->space, std::move(landmarks),
                                 std::move(boundary));
  s->times.select = seconds_since(t);

  t = Clock::now();
  Rng rng(kSystemSeed);
  DelaySpaceModel::Options topo;
  topo.hosts = c.nodes;
  topo.seed = rng.fork().next();
  s->model = std::make_unique<DelaySpaceModel>(topo);
  s->net = std::make_unique<Network>(s->sim, *s->model);
  Ring::Options ropts;
  ropts.seed = rng.fork().next();
  s->ring = std::make_unique<Ring>(*s->net, ropts);
  for (std::size_t h = 0; h < c.nodes; ++h) {
    s->ring->create_node(static_cast<HostId>(h));
  }
  s->times.topology = seconds_since(t);

  t = Clock::now();
  s->ring->bootstrap();
  s->alive = s->ring->alive_nodes();
  s->times.bootstrap = seconds_since(t);

  t = Clock::now();
  s->platform = std::make_unique<IndexPlatform>(*s->ring);
  // Pin the configuration: no LMK_* environment knob may change it.
  s->platform->set_serve_options(ServeOptions{});
  s->index = std::make_unique<LandmarkIndex<L2Space>>(
      *s->platform, s->space, std::move(mapper), c.name, /*rotate=*/false,
      LocalStoreOptions{});
  Arena scratch;
  s->index->stream_load(
      c.objects,
      [&](std::uint64_t i, DenseVector& out) { out = in.points[i]; },
      scratch);
  LMK_CHECK(s->platform->scheme_entries(s->index->scheme_id()) == c.objects);
  s->times.load = seconds_since(t);

  // Warm-up: one query over the whole index space reaches every node,
  // so every lazy LocalStore build is paid here and not by the timed
  // queries.
  t = Clock::now();
  const std::uint64_t r0 = s->platform->local_store_stats().rebuilds;
  Region all{s->index->mapper().boundary()};
  IndexPoint focus(c.landmarks, 0.0);
  bool warm = false;
  s->platform->region_query(
      *s->alive.front(), s->index->scheme_id(), all, focus, ReplyMode::kTopK,
      [&](const IndexPlatform::QueryOutcome& o) { warm = o.complete; });
  s->sim.run();
  LMK_CHECK(warm);
  s->warmup_rebuilds = s->platform->local_store_stats().rebuilds - r0;
  s->times.warmup = seconds_since(t);
  return s;
}

// ---------------------------------------------------------------------
// Tracing (the --trace 1 run): spans kept in memory, written at exit.

enum SpanName : std::uint32_t {
  kSpanSimRun,      // one window's sim.run/run_until
  kSpanInject,      // LandmarkIndex::range_query call at an arrival
  kSpanRankFetch,   // sampled ObjectFn call (rank memo miss)
  kSpanDone,        // QueryCallback
  kSpanMutation,    // remove/insert_via_network call
  kSpanAck,         // mutation ack callback
  kSpanReplay,      // one per-layer replay after the timed phase
};
constexpr const char* kSpanNames[] = {"sim.run", "inject",   "rank.fetch",
                                      "done",    "mutation", "ack",
                                      "replay"};

struct Span {
  std::uint32_t name = 0;
  std::uint32_t parent = 0;  // index of the enclosing sim.run span + 1
  std::uint64_t id = 0;      // op id: an op's spans share it
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  const char* what = "";     // replays: which one
};

// ObjectFn calls are counted every time but timed 1 in this many: two
// clock reads per rank call would double the query phase.
constexpr std::uint64_t kFetchSample = 128;

// ---------------------------------------------------------------------
// Metrics helpers

struct Quantile {
  double value = 0;
  std::size_t n = 0;
  std::size_t beyond = 0;  // samples strictly above the rank
};

/// Nearest-rank percentile over every sample (exact: the value is one
/// of the samples).
Quantile nearest_rank(std::vector<double> v, double p) {
  LMK_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  // p * n is exact for the integer percentiles used here.
  auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size()) / 100.0));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return {v[rank - 1], v.size(), v.size() - rank};
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// ---------------------------------------------------------------------
// The timed phase

constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

class Runner {
 public:
  Runner(const Config& c, const Inputs& in, Stack& s, bool trace)
      : c_(c), in_(in), s_(s), trace_(trace) {
    ins_ack_.assign(in.points.size(), kNever);
    rem_ack_.assign(in.points.size(), kNever);
    for (std::size_t i = 0; i < c.objects; ++i) ins_ack_[i] = -1;
    rec_.resize(c.pass_queries);
    digest_.assign(c.pass_queries, 0);
    sampled_flag_.assign(c.pass_queries, false);
    for (std::size_t i : in.sampled) sampled_flag_[i] = true;
    if (c.topk) bind_objects();
    std::vector<double> pairs(1000);
    for (double& d : pairs) {
      Clock::time_point a = Clock::now();
      Clock::time_point b = Clock::now();
      d = static_cast<double>(ns(b) - ns(a));
    }
    clock_pair_ns_ = median(pairs);
    if (c.churn) {
      ServeOptions so;
      so.cache_enabled = true;
      so.cache_max_entries = 4096;
      s.platform->set_serve_options(so);
    }
  }

  /// Per-window wall time and, in traced windows, the benchmark-owned
  /// time spent inside that window's sim.run.
  struct Window {
    bool traced = false;
    std::uint64_t ops = 0;   // ops completed during the window
    double wall = 0;         // sim.run/run_until wall seconds
    double inject_ns = 0;    // range_query calls at arrivals
    double mutation_ns = 0;  // remove/insert_via_network calls
    double callback_ns = 0;  // QueryCallbacks and mutation acks
    std::uint64_t fetches = 0;
    std::uint64_t fetch_samples = 0;
    double fetch_sample_ns = 0;
    [[nodiscard]] double fetch_s() const {
      return fetch_samples == 0
                 ? 0.0
                 : fetch_sample_ns / static_cast<double>(fetch_samples) *
                       static_cast<double>(fetches) * 1e-9;
    }
    /// Benchmark-owned time inside sim.run: callbacks and ObjectFn.
    [[nodiscard]] double owned_s() const {
      return callback_ns * 1e-9 + fetch_s();
    }
  };

  void run(double seconds) {
    const std::size_t per_pass = c_.pass_queries / c_.window_queries;
    const std::size_t ops_per_query = c_.churn ? 3 : 1;
    // Pass 0 (the virtual-time metrics) always completes; one more
    // window gives the traced run an untraced window to compare with.
    const std::size_t min_windows = per_pass + 1;
    const std::size_t max_windows = c_.max_passes * per_pass;
    SimTime base = s_.sim.now() + kSecond;
    Clock::time_point start = Clock::now();
    for (std::size_t w = 0; w < max_windows; ++w) {
      const std::size_t pass = w / per_pass;
      const std::size_t in_pass = w % per_pass;
      if (w == 0) snapshot();
      // Traced runs alternate traced and untraced windows; the parity
      // flips every pass so a replayed pass traces the other half.
      windows_.push_back({});
      Window& win = windows_.back();
      win.traced = trace_ && (in_pass + pass) % 2 == 0;
      tracing_ = win.traced;
      // Read-only workloads replay the one-pass template; churn runs the
      // stream on.
      const std::size_t q0 = (c_.churn ? w : in_pass) * c_.window_queries;
      const std::size_t op0 = q0 * ops_per_query;
      const std::size_t op1 = op0 + c_.window_queries * ops_per_query;
      if (!c_.churn && in_pass == 0 && pass > 0) {
        base = s_.sim.now() + kSecond;
      }
      for (std::size_t k = op0; k < op1; ++k) {
        const std::uint64_t id = next_op_id_++;
        s_.sim.schedule_at(base + in_.ops[k].at, [this, k, id, pass] {
          arrive(in_.ops[k], id, pass);
        });
      }
      const bool pass_end = in_pass + 1 == per_pass;
      const bool last =
          w + 1 == max_windows ||
          (w + 1 >= min_windows && seconds_since(start) >= seconds);
      const std::uint64_t done0 = completed_;
      const std::uint32_t span = open_span();
      Clock::time_point t0 = Clock::now();
      if (last || (pass_end && !c_.churn)) {
        s_.sim.run();
      } else {
        s_.sim.run_until(base + in_.ops[op1].at - 1);
      }
      win.wall = seconds_since(t0);
      win.ops = completed_ - done0;
      close_span(span);
      if (pass == 0 && pass_end) end_pass0();
      if (last) break;
    }
    tracing_ = false;
    LMK_CHECK(s_.sim.pending() == 0);
    elapsed_ = seconds_since(start);
  }

  // ----- results -----

  struct QueryRecord {
    bool done = false;
    double lat_ms = 0;
    double resp_ms = 0;
    SimTime t0 = 0, t1 = 0;
    std::vector<std::uint64_t> results;  // sampled queries only
  };
  /// Pass-0 counters: deterministic for a seed.
  struct Pass0 {
    std::uint64_t queries = 0, mutations = 0, acked = 0;
    std::uint64_t query_bytes = 0, result_bytes = 0;
    std::uint64_t query_messages = 0, result_messages = 0;
    std::uint64_t subqueries = 0, index_nodes = 0, hops = 0, scanned = 0;
    std::uint64_t candidates = 0, max_node_candidates = 0;
    std::uint64_t mutation_hops = 0;
    std::uint64_t fetches = 0;
    std::uint64_t events = 0, rebuilds = 0, rebuilt_entries = 0;
    std::uint64_t pool_hits = 0, coalesced = 0;
    CacheStats cache;
    std::size_t pending_max = 0, active_max = 0;
    std::uint64_t store_bytes = 0;
  };

  [[nodiscard]] const std::vector<Window>& windows() const { return windows_; }
  [[nodiscard]] std::vector<QueryRecord>& records() { return rec_; }
  [[nodiscard]] const Pass0& pass0() const { return p0_; }
  [[nodiscard]] const std::vector<SimTime>& ins_ack() const {
    return ins_ack_;
  }
  [[nodiscard]] const std::vector<SimTime>& rem_ack() const {
    return rem_ack_;
  }
  [[nodiscard]] std::uint64_t attempted() const { return next_op_id_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  [[nodiscard]] double elapsed() const { return elapsed_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  void add_failures(std::uint64_t n) { failed_ += n; }

  /// Mark every op that never completed as failed (unacked mutation,
  /// query whose callback never fired).
  void count_unfinished() { failed_ += next_op_id_ - completed_; }

  /// Completed ops per wall second over the (un)traced windows: a ratio
  /// of totals, since windows differ in their query mix and a median of
  /// their rates would move with the mix. Replayed windows (read-only
  /// workloads) count once, with the median ops and wall time of their
  /// replays, so a slow spell of the machine during one replay drops out.
  [[nodiscard]] double throughput(bool traced) const {
    const std::size_t per_pass = c_.pass_queries / c_.window_queries;
    std::vector<std::vector<double>> ops(c_.churn ? windows_.size() : per_pass);
    std::vector<std::vector<double>> wall(ops.size());
    for (std::size_t i = 0; i < windows_.size(); ++i) {
      const Window& w = windows_[i];
      if (w.traced != traced) continue;
      const std::size_t k = c_.churn ? i : i % per_pass;
      ops[k].push_back(static_cast<double>(w.ops));
      wall[k].push_back(w.wall);
    }
    double total_ops = 0, total_wall = 0;
    for (std::size_t k = 0; k < ops.size(); ++k) {
      total_ops += median(ops[k]);
      total_wall += median(wall[k]);
    }
    return ratio(total_ops, total_wall);
  }

  /// Traced over untraced throughput. Read-only workloads compare only
  /// replayed windows that ran both ways; churn windows all differ, so
  /// alternate windows stand in for each other.
  [[nodiscard]] double trace_overhead() const {
    const std::size_t per_pass = c_.pass_queries / c_.window_queries;
    std::vector<bool> both(per_pass, c_.churn);
    if (!c_.churn) {
      std::vector<int> seen(per_pass, 0);
      for (std::size_t i = 0; i < windows_.size(); ++i) {
        seen[i % per_pass] |= windows_[i].traced ? 1 : 2;
      }
      for (std::size_t k = 0; k < per_pass; ++k) both[k] = seen[k] == 3;
    }
    double ops[2] = {0, 0}, wall[2] = {0, 0};
    for (std::size_t i = 0; i < windows_.size(); ++i) {
      const Window& w = windows_[i];
      if (!both[i % per_pass]) continue;
      ops[w.traced] += static_cast<double>(w.ops);
      wall[w.traced] += w.wall;
    }
    return ratio(ratio(ops[1], wall[1]), ratio(ops[0], wall[0]));
  }

  /// Median over traced windows of `f(window)`, scaled to one pass.
  template <typename F>
  [[nodiscard]] double per_pass(F f) const {
    std::vector<double> v;
    for (const Window& w : windows_) {
      if (w.traced) v.push_back(f(w));
    }
    return median(v) * static_cast<double>(c_.pass_queries) /
           static_cast<double>(c_.window_queries);
  }

  void add_span(std::uint32_t name, std::uint64_t id, Clock::time_point a,
                Clock::time_point b, const char* what = "") {
    spans_.push_back({name, cur_span_, id, ns(a), ns(b), what});
  }

 private:
  static std::int64_t ns(Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
  }

  void bind_objects() {
    const std::vector<DenseVector>& pts = in_.points;
    if (!trace_) {
      s_.index->bind_objects(
          [&pts](std::uint64_t id) -> const DenseVector& { return pts[id]; });
      return;
    }
    // Traced run: every call is counted, one in kFetchSample is timed
    // (in traced windows only).
    s_.index->bind_objects([this](std::uint64_t id) -> const DenseVector& {
      ++fetches_;
      if (!tracing_) return in_.points[id];
      Window& w = windows_.back();
      if (++w.fetches % kFetchSample != 0) return in_.points[id];
      Clock::time_point a = Clock::now();
      const DenseVector& p = in_.points[id];
      Clock::time_point b = Clock::now();
      // The fetch itself is a few ns: net out the clock reads' own cost.
      w.fetch_sample_ns +=
          std::max(0.0, static_cast<double>(ns(b) - ns(a)) - clock_pair_ns_);
      ++w.fetch_samples;
      add_span(kSpanRankFetch, 0, a, b);
      return p;
    });
  }

  void snapshot() {
    const IndexPlatform& pl = *s_.platform;
    snap_events_ = s_.sim.events_executed();
    snap_rebuilds_ = pl.local_store_stats();
    snap_pool_hits_ = pl.reply_pool_stats().hits;
    snap_coalesced_ = pl.coalesced_messages();
    if (pl.serve_state() != nullptr) {
      snap_cache_ = pl.serve_state()->aggregate_cache_stats();
    }
  }

  void end_pass0() {
    const IndexPlatform& pl = *s_.platform;
    p0_.events = s_.sim.events_executed() - snap_events_;
    p0_.rebuilds = pl.local_store_stats().rebuilds - snap_rebuilds_.rebuilds;
    p0_.rebuilt_entries = pl.local_store_stats().rebuilt_entries -
                          snap_rebuilds_.rebuilt_entries;
    p0_.pool_hits = pl.reply_pool_stats().hits - snap_pool_hits_;
    p0_.coalesced = pl.coalesced_messages() - snap_coalesced_;
    if (pl.serve_state() != nullptr) {
      CacheStats now = pl.serve_state()->aggregate_cache_stats();
      p0_.cache.probes = now.probes - snap_cache_.probes;
      p0_.cache.hits = now.hits - snap_cache_.hits;
      p0_.cache.evictions = now.evictions - snap_cache_.evictions;
      p0_.cache.point_invalidations =
          now.point_invalidations - snap_cache_.point_invalidations;
      p0_.cache.wipes = now.wipes - snap_cache_.wipes;
    }
    p0_.store_bytes = pl.store_bytes();
    p0_.fetches = fetches_;
  }

  std::uint32_t open_span() {
    if (!tracing_) return 0;
    spans_.push_back({kSpanSimRun, 0, 0, ns(Clock::now()), 0, ""});
    cur_span_ = static_cast<std::uint32_t>(spans_.size());
    return cur_span_;
  }
  void close_span(std::uint32_t span) {
    if (span != 0) spans_[span - 1].end_ns = ns(Clock::now());
    cur_span_ = 0;
  }

  void arrive(const Op& op, std::uint64_t id, std::size_t pass) {
    if (pass == 0) {
      p0_.pending_max = std::max(p0_.pending_max, s_.sim.pending());
      p0_.active_max = std::max(p0_.active_max, s_.platform->active_queries());
    }
    ChordNode& origin = *s_.alive[op.origin];
    const bool traced = tracing_;
    Clock::time_point a;
    if (traced) a = Clock::now();
    switch (op.kind) {
      case OpKind::kQuery:
        query(origin, op.arg, id, pass);
        break;
      case OpKind::kRemove:
        remove(origin, op.arg, id, pass);
        break;
      case OpKind::kInsert:
        insert(origin, op.arg, id, pass);
        break;
    }
    if (!traced) return;
    Clock::time_point b = Clock::now();
    const double d = static_cast<double>(ns(b) - ns(a));
    if (op.kind == OpKind::kQuery) {
      windows_.back().inject_ns += d;
      add_span(kSpanInject, id, a, b);
    } else {
      windows_.back().mutation_ns += d;
      add_span(kSpanMutation, id, a, b);
    }
  }

  /// Times a benchmark-owned callback when the current window is traced.
  template <typename F>
  void owned(std::uint32_t span, std::uint64_t id, F&& f) {
    if (!tracing_) {
      f();
      return;
    }
    Clock::time_point a = Clock::now();
    f();
    Clock::time_point b = Clock::now();
    windows_.back().callback_ns += static_cast<double>(ns(b) - ns(a));
    add_span(span, id, a, b);
  }

  void query(ChordNode& origin, std::uint64_t q, std::uint64_t id,
             std::size_t pass) {
    const SimTime t0 = s_.sim.now();
    s_.index->range_query(
        origin, in_.queries[q], in_.radius,
        c_.topk ? ReplyMode::kTopK : ReplyMode::kAllMatches,
        [this, q, id, pass, t0](const IndexPlatform::QueryOutcome& o) {
          owned(kSpanDone, id, [&] { on_query_done(o, q, pass, t0); });
        });
  }

  void on_query_done(const IndexPlatform::QueryOutcome& o, std::uint64_t q,
                     std::size_t pass, SimTime t0) {
    ++completed_;
    const SimTime now = s_.sim.now();
    bool ok = o.complete;
    // Every returned id must name an object that was indexed by now.
    for (std::uint64_t r : o.results) {
      if (r >= ins_ack_.size() || ins_ack_[r] > now) ok = false;
    }
    const std::size_t slot = c_.churn ? q : q % c_.pass_queries;
    if (!c_.churn) {
      // Replays of a read-only pass must reproduce pass 0 exactly.
      std::uint64_t d = 1469598103934665603ULL;
      auto mix = [&d](std::uint64_t x) { d = (d ^ x) * 1099511628211ULL; };
      for (std::uint64_t r : o.results) mix(r);
      mix(static_cast<std::uint64_t>(o.max_latency));
      mix(static_cast<std::uint64_t>(o.response_time));
      mix(o.query_bytes + o.result_bytes);
      if (pass == 0) {
        digest_[slot] = d;
      } else if (digest_[slot] != d) {
        ok = false;
      }
    }
    if (!ok) ++failed_;
    if (pass != 0) return;
    QueryRecord& r = rec_[slot];
    r.done = true;
    r.lat_ms = static_cast<double>(o.max_latency) /
               static_cast<double>(kMillisecond);
    r.resp_ms = static_cast<double>(o.response_time) /
                static_cast<double>(kMillisecond);
    r.t0 = t0;
    r.t1 = now;
    if (sampled_flag_[slot]) r.results = o.results;
    ++p0_.queries;
    p0_.query_bytes += o.query_bytes;
    p0_.result_bytes += o.result_bytes;
    p0_.query_messages += o.query_messages;
    p0_.result_messages += o.result_messages;
    p0_.subqueries += static_cast<std::uint64_t>(o.subqueries);
    p0_.index_nodes += static_cast<std::uint64_t>(o.index_nodes);
    p0_.hops += static_cast<std::uint64_t>(o.hops);
    p0_.scanned += o.scanned;
    p0_.candidates += o.candidates;
    p0_.max_node_candidates += o.max_node_candidates;
  }

  void remove(ChordNode& origin, std::uint64_t object, std::uint64_t id,
              std::size_t pass) {
    s_.platform->remove_via_network(
        origin, s_.index->scheme_id(), object,
        s_.index->mapper().map(in_.points[object]),
        [this, object, id, pass](bool removed, int hops) {
          owned(kSpanAck, id, [&] {
            rem_ack_[object] = s_.sim.now();
            on_ack(removed, hops, pass);
          });
        });
  }

  void insert(ChordNode& origin, std::uint64_t object, std::uint64_t id,
              std::size_t pass) {
    s_.index->insert_via_network(
        origin, object, in_.points[object],
        [this, object, id, pass](int hops) {
          owned(kSpanAck, id, [&] {
            ins_ack_[object] = s_.sim.now();
            on_ack(true, hops, pass);
          });
        });
  }

  void on_ack(bool ok, int hops, std::size_t pass) {
    ++completed_;
    if (!ok) ++failed_;
    if (pass != 0) return;
    ++p0_.mutations;
    ++p0_.acked;
    p0_.mutation_hops += static_cast<std::uint64_t>(hops);
  }

  const Config& c_;
  const Inputs& in_;
  Stack& s_;
  bool trace_;
  bool tracing_ = false;  // the current window is traced
  std::vector<SimTime> ins_ack_, rem_ack_;
  std::vector<QueryRecord> rec_;
  std::vector<std::uint64_t> digest_;
  std::vector<bool> sampled_flag_;
  std::vector<Window> windows_;
  std::vector<Span> spans_;
  std::uint32_t cur_span_ = 0;
  Pass0 p0_;
  std::uint64_t snap_events_ = 0, snap_pool_hits_ = 0, snap_coalesced_ = 0;
  LocalStoreBuildStats snap_rebuilds_;
  CacheStats snap_cache_;
  std::uint64_t fetches_ = 0;
  double clock_pair_ns_ = 0;  // cost of two back-to-back clock reads
  std::uint64_t next_op_id_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  double elapsed_ = 0;
};

// ---------------------------------------------------------------------
// Oracle (harness): checks pass 0's sampled queries against brute force.

/// The clamped index-space cube a query searches.
Region query_box(const LandmarkMapper<L2Space>& mapper, const DenseVector& q,
                 double radius) {
  Region box = query_region(mapper.map_unclamped(q), radius);
  clamp_region(box, mapper.boundary());
  return box;
}

bool in_box(const Region& box, const IndexPoint& p) {
  for (std::size_t d = 0; d < box.dims(); ++d) {
    if (p[d] < box.ranges[d].lo || p[d] > box.ranges[d].hi) return false;
  }
  return true;
}

struct OracleResult {
  std::uint64_t failed = 0;
  double recall = 0;
};

OracleResult check_sampled(const Config& c, const Inputs& in, Stack& s,
                           Runner& run, bool plant_fault) {
  const LandmarkMapper<L2Space>& mapper = s.index->mapper();
  // Stored index points of every object the run could have touched.
  std::vector<IndexPoint> mapped(in.points.size());
  parallel_for(mapped.size(),
               [&](std::size_t i) { mapped[i] = mapper.map(in.points[i]); });
  const std::vector<SimTime>& ins = run.ins_ack();
  const std::vector<SimTime>& rem = run.rem_ack();

  const std::size_t n = in.sampled.size();
  std::vector<std::uint8_t> bad(n, 0);
  std::vector<double> rec(n, 0.0);
  auto& records = run.records();
  if (plant_fault && n > 0) {
    // Self-test: one result that lies outside its query's box must be
    // caught by the checks below.
    const std::size_t qi = in.sampled.front();
    const Region box = query_box(mapper, in.queries[qi], in.radius);
    for (std::uint64_t id = 0; id < c.objects; ++id) {
      if (!in_box(box, mapped[id])) {
        records[qi].results.push_back(id);
        break;
      }
    }
  }
  parallel_for(
      n,
      [&](std::size_t k) {
        const std::size_t qi = in.sampled[k];
        const Runner::QueryRecord& r = records[qi];
        if (!r.done) {
          bad[k] = 1;
          return;
        }
        const DenseVector& q = in.queries[qi];
        const Region box = query_box(mapper, q, in.radius);
        auto surely_live = [&](std::uint64_t id) {
          return ins[id] < r.t0 && rem[id] > r.t1;
        };
        auto maybe_live = [&](std::uint64_t id) {
          return ins[id] <= r.t1 && rem[id] >= r.t0;
        };
        std::vector<std::uint64_t> got = r.results;
        std::sort(got.begin(), got.end());
        if (std::adjacent_find(got.begin(), got.end()) != got.end()) {
          bad[k] = 1;  // duplicate ids
        }
        for (std::uint64_t id : got) {
          if (id >= in.points.size() || !in_box(box, mapped[id]) ||
              !maybe_live(id)) {
            bad[k] = 1;
            return;
          }
        }
        // Brute force over the objects live for the whole query.
        using Scored = std::pair<double, std::uint64_t>;
        std::vector<Scored> truth;
        truth.reserve(in.points.size());
        for (std::uint64_t id = 0; id < in.points.size(); ++id) {
          if (!surely_live(id)) continue;
          if (!c.topk && in_box(box, mapped[id]) &&
              !std::binary_search(got.begin(), got.end(), id)) {
            bad[k] = 1;  // kAllMatches missed a live match
          }
          truth.emplace_back(std::sqrt(l2_squared(q, in.points[id])), id);
        }
        const std::size_t keep = std::min<std::size_t>(10, truth.size());
        std::partial_sort(truth.begin(),
                          truth.begin() + static_cast<std::ptrdiff_t>(keep),
                          truth.end());
        std::vector<std::uint64_t> top(keep);
        for (std::size_t j = 0; j < keep; ++j) top[j] = truth[j].second;
        if (c.topk) {
          // Every true top-10 object within the radius lies in the
          // query cube (the mapping is contractive), so its node ranks
          // it among its local top-10 and must return it.
          for (std::size_t j = 0; j < keep; ++j) {
            if (truth[j].first <= in.radius &&
                !std::binary_search(got.begin(), got.end(), top[j])) {
              bad[k] = 1;
            }
          }
        }
        // The paper's recall protocol: the querier ranks what it got by
        // true distance and keeps the 10 nearest.
        const std::vector<std::uint64_t> mine = s.index->refine_knn(
            q, r.results,
            [&](std::uint64_t id) -> const DenseVector& {
              return in.points[id];
            },
            10);
        rec[k] = recall(top, mine);
      },
      /*grain=*/1);
  OracleResult out;
  for (std::size_t k = 0; k < n; ++k) out.failed += bad[k];
  double sum = 0;
  for (double v : rec) sum += v;
  out.recall = n > 0 ? sum / static_cast<double>(n) : 0.0;
  return out;
}

// ---------------------------------------------------------------------
// Per-layer replays (traced run only, after the timed phase): time calls
// into single layers' public functions with pass 0's inputs, in batches.

struct Replays {
  std::uint64_t map_calls = 0;
  double map_s = 0;
  double prefix_ns = 0, prefix_len_mean = 0;
  double next_hop_ns = 0, lookup_hops_mean = 0;
  double store_build_s = 0, store_range_ns = 0;
  std::uint64_t bad_walks = 0;
};

Replays run_replays(const Config& c, const Inputs& in, Stack& s,
                    Runner& run) {
  Replays out;
  const LandmarkMapper<L2Space>& mapper = s.index->mapper();
  const Boundary& boundary = mapper.boundary();
  const std::size_t ops_per_query = c.churn ? 3 : 1;
  const std::size_t pass_ops = c.pass_queries * ops_per_query;

  // landmark: the benchmark's map/map_unclamped calls of pass 0 (one per
  // query inside range_query, one per mutation).
  std::vector<IndexPoint> centers(c.pass_queries);
  Clock::time_point a = Clock::now();
  for (std::size_t k = 0; k < pass_ops; ++k) {
    const Op& op = in.ops[k];
    if (op.kind == OpKind::kQuery) {
      centers[op.arg] = mapper.map_unclamped(in.queries[op.arg]);
    } else {
      IndexPoint p = mapper.map(in.points[op.arg]);
      LMK_CHECK(p.size() == c.landmarks);
    }
  }
  Clock::time_point b = Clock::now();
  out.map_calls = pass_ops;
  out.map_s = std::chrono::duration<double>(b - a).count();
  run.add_span(kSpanReplay, 0, a, b, "landmark.map");

  // lph: enclosing prefix of each query's clamped cube.
  std::vector<Region> regions(c.pass_queries);
  for (std::size_t q = 0; q < c.pass_queries; ++q) {
    regions[q] = query_region(centers[q], in.radius);
    clamp_region(regions[q], boundary);
  }
  std::vector<Prefix> prefixes(c.pass_queries);
  a = Clock::now();
  for (std::size_t q = 0; q < c.pass_queries; ++q) {
    prefixes[q] = enclosing_prefix(regions[q], boundary);
  }
  b = Clock::now();
  run.add_span(kSpanReplay, 0, a, b, "lph.enclosing_prefix");
  out.prefix_ns = std::chrono::duration<double, std::nano>(b - a).count() /
                  static_cast<double>(c.pass_queries);
  double len = 0;
  for (const Prefix& p : prefixes) len += p.length;
  out.prefix_len_mean = len / static_cast<double>(c.pass_queries);

  // chord: next_hop walk from each query's origin to the owner of its
  // prefix key, checked against the ring's oracle owner.
  const Id rotation = s.platform->scheme(s.index->scheme_id()).rotation;
  std::vector<ChordNode*> owners(c.pass_queries);
  std::uint64_t hops = 0;
  a = Clock::now();
  for (std::size_t k = 0; k < pass_ops; ++k) {
    const Op& op = in.ops[k];
    if (op.kind != OpKind::kQuery) continue;
    const Id key = prefixes[op.arg].key + rotation;
    ChordNode* n = s.alive[op.origin];
    for (int walk = 0; !n->owns(key); ++walk) {
      LMK_CHECK(walk < 512);
      NodeRef r = n->next_hop(key);
      n = r.node == n ? n->successor().node : r.node;
      ++hops;
    }
    owners[op.arg] = n;
  }
  b = Clock::now();
  run.add_span(kSpanReplay, 0, a, b, "chord.next_hop");
  for (std::size_t q = 0; q < c.pass_queries; ++q) {
    const Id key = prefixes[q].key + rotation;
    if (owners[q] != s.ring->oracle_successor(key)) ++out.bad_walks;
  }
  out.next_hop_ns = hops == 0 ? 0.0
                              : std::chrono::duration<double, std::nano>(
                                    b - a)
                                        .count() /
                                    static_cast<double>(hops);
  out.lookup_hops_mean =
      static_cast<double>(hops) / static_cast<double>(c.pass_queries);

  // store: rebuild every node's LocalStore from its EntryStore, then
  // probe each with the cubes of the oracle-sampled queries.
  const std::uint32_t scheme = s.index->scheme_id();
  const LocalStoreOptions& opts = s.platform->local_store_options(scheme);
  std::vector<std::unique_ptr<LocalStore>> stores(s.alive.size());
  a = Clock::now();
  for (std::size_t i = 0; i < s.alive.size(); ++i) {
    stores[i] = make_local_store(opts);
    stores[i]->build(s.platform->store(*s.alive[i], scheme));
  }
  b = Clock::now();
  run.add_span(kSpanReplay, 0, a, b, "store.build");
  out.store_build_s = std::chrono::duration<double>(b - a).count();
  std::vector<std::uint32_t> hits;
  std::uint64_t probes = 0;
  a = Clock::now();
  for (std::size_t q : in.sampled) {
    for (std::size_t i = 0; i < s.alive.size(); ++i) {
      hits.clear();
      stores[i]->range(s.platform->store(*s.alive[i], scheme), regions[q],
                       hits);
      ++probes;
    }
  }
  b = Clock::now();
  run.add_span(kSpanReplay, 0, a, b, "store.range");
  out.store_range_ns =
      probes == 0 ? 0.0
                  : std::chrono::duration<double, std::nano>(b - a).count() /
                        static_cast<double>(probes);
  return out;
}

// ---------------------------------------------------------------------
// Output

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted,
                  std::uint64_t failed, const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

bool write_spans(const char* path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  std::fprintf(f, "span\tparent\tname\tid\tstart_ns\tend_ns\n");
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& sp = spans[i];
    std::string name = kSpanNames[sp.name];
    if (*sp.what != '\0') name += std::string(":") + sp.what;
    std::fprintf(f, "%zu\t%u\t%s\t%" PRIu64 "\t%" PRId64 "\t%" PRId64 "\n",
                 i + 1, sp.parent, name.c_str(), sp.id, sp.start_ns - t0,
                 sp.end_ns - t0);
  }
  return std::fclose(f) == 0;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  bool plant_fault = false;
  std::size_t threads = 0;
  std::string spans;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (k == "--tiny") {
      a->tiny = true;
    } else if (k == "--plant-fault") {
      a->plant_fault = true;
    } else {
      const char* v = value();
      if (v == nullptr) return false;
      if (k == "--workload") {
        a->workload = v;
      } else if (k == "--seed") {
        a->seed = std::strtoull(v, nullptr, 10);
      } else if (k == "--seconds") {
        a->seconds = std::strtod(v, nullptr);
      } else if (k == "--trace") {
        a->trace = std::strcmp(v, "0") != 0;
      } else if (k == "--threads") {
        a->threads = std::strtoull(v, nullptr, 10);
      } else if (k == "--spans") {
        a->spans = v;
      } else {
        return false;
      }
    }
  }
  return !a->workload.empty();
}

// Fixed pool width (stream_load mapping and hashing, k-means, the
// oracle); the simulation itself is single-threaded. Clamped to the
// machine and recorded in the output.
constexpr std::size_t kPoolWidth = 2;

int run(int argc, char** argv) {
  Args args;
  Config c;
  if (!parse_args(argc, argv, &args) ||
      !config_for(args.workload, args.tiny, &c)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload flagship_topk|table1_topk100|"
                 "churn_cached --seed N --seconds S --trace 0|1 [--tiny] "
                 "[--threads W] [--plant-fault] [--spans FILE]\n");
    return 2;
  }
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t width =
      args.threads > 0 ? args.threads : std::min(kPoolWidth, hw);
  set_threads(width);
  std::printf("# perfbench workload=%s seed=%" PRIu64
              " nodes=%zu objects=%zu dims=%zu landmarks=%zu rate=%.0f/s "
              "zipf=%.1f range=%.2f mode=%s pass_queries=%zu pool_width=%zu "
              "trace=%d%s\n",
              c.name.c_str(), args.seed, c.nodes, c.objects, c.dims,
              c.landmarks, c.rate, c.zipf_s, c.range_factor,
              c.topk ? "topk" : "all_matches", c.pass_queries,
              thread_count(), args.trace ? 1 : 0, args.tiny ? " tiny" : "");

  Clock::time_point t = Clock::now();
  const Inputs in = make_inputs(c, args.seed);
  double harness_s = seconds_since(t);

  std::vector<double> setup_samples;
  std::unique_ptr<Stack> stack;
  std::vector<SetupTimes> parts;
  for (std::size_t k = 0; k < c.setups; ++k) {
    stack.reset();
    stack = build_stack(c, in);
    setup_samples.push_back(stack->times.total());
    parts.push_back(stack->times);
  }
  auto part_median = [&](double SetupTimes::*m) {
    std::vector<double> v;
    for (const SetupTimes& p : parts) v.push_back(p.*m);
    return median(v);
  };
  Stack& s = *stack;

  Runner run(c, in, s, args.trace);
  run.run(args.seconds);
  run.count_unfinished();

  t = Clock::now();
  const OracleResult oracle = check_sampled(c, in, s, run, args.plant_fault);
  harness_s += seconds_since(t);
  run.add_failures(oracle.failed);

  Replays rp;
  if (args.trace) rp = run_replays(c, in, s, run);
  if (rp.bad_walks > 0) {
    std::printf("FAIL: %" PRIu64 " next_hop walks ended off the owner\n",
                rp.bad_walks);
  }

  // ----- end-to-end metrics (pass 0 for the virtual-time ones) -----
  const Runner::Pass0& p0 = run.pass0();
  std::vector<double> lat, resp;
  for (const Runner::QueryRecord& r : run.records()) {
    if (!r.done) continue;
    lat.push_back(r.lat_ms);
    resp.push_back(r.resp_ms);
  }
  bool correct = run.failed() == 0 && rp.bad_walks == 0 &&
                 lat.size() == c.pass_queries;
  if (lat.empty()) lat.push_back(0), resp.push_back(0);
  const Quantile lp50 = nearest_rank(lat, 50);
  const Quantile lp99 = nearest_rank(lat, 99);
  const Quantile rp50 = nearest_rank(resp, 50);
  LMK_CHECK(lp99.beyond >= 10);  // pass_queries >= 1000 guarantees it
  const double queries0 =
      static_cast<double>(std::max<std::uint64_t>(1, p0.queries));
  const double attempted = static_cast<double>(run.attempted());
  const double failed_share = static_cast<double>(run.failed()) / attempted;
  const double tput = run.throughput(false);

  std::printf("harness_s %.3f s (inputs, oracle; outside every timed region)\n",
              harness_s);
  std::printf("setup_s %.4f s (median of %zu: select %.4f, topology %.4f, "
              "bootstrap %.4f, stream_load %.4f, warm-up %.4f, %" PRIu64
              " warm-up store builds)\n",
              median(setup_samples), setup_samples.size(),
              part_median(&SetupTimes::select),
              part_median(&SetupTimes::topology),
              part_median(&SetupTimes::bootstrap),
              part_median(&SetupTimes::load),
              part_median(&SetupTimes::warmup), s.warmup_rebuilds);
  std::size_t untraced_windows = 0;
  for (const auto& w : run.windows()) untraced_windows += w.traced ? 0 : 1;
  std::printf("throughput_ops_s %.2f ops/s (%zu untraced windows of %zu "
              "queries%s; %" PRIu64 " ops in %.2f s)\n",
              tput, untraced_windows, c.window_queries,
              c.churn ? " + 2 mutations each" : "", run.completed(),
              run.elapsed());
  std::printf("latency_p50_ms %.3f ms (n=%zu, %zu beyond)\n", lp50.value,
              lp50.n, lp50.beyond);
  std::printf("latency_p99_ms %.3f ms (n=%zu, %zu beyond)\n", lp99.value,
              lp99.n, lp99.beyond);
  std::printf("response_p50_ms %.3f ms (n=%zu, %zu beyond)\n", rp50.value,
              rp50.n, rp50.beyond);
  std::printf("recall_at_10 %.4f ratio (%zu sampled queries)\n",
              oracle.recall, in.sampled.size());
  std::printf("bytes_per_query %.1f B (n=%" PRIu64 ")\n",
              static_cast<double>(p0.query_bytes + p0.result_bytes) / queries0,
              p0.queries);
  std::printf("store_mb %.4f MB\n", static_cast<double>(p0.store_bytes) / 1e6);
  std::printf("failed_share %.6f ratio (%" PRIu64 " failed of %" PRIu64
              " attempted; %" PRIu64 " sampled queries failed the oracle)\n",
              failed_share, run.failed(), run.attempted(), oracle.failed);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", median(setup_samples), "s"},
        {"throughput_ops_s", tput, "ops/s"},
        {"latency_p50_ms", lp50.value, "ms"},
        {"latency_p99_ms", lp99.value, "ms"},
        {"response_p50_ms", rp50.value, "ms"},
        {"recall_at_10", oracle.recall, "ratio"},
        {"bytes_per_query",
         static_cast<double>(p0.query_bytes + p0.result_bytes) / queries0,
         "B"},
        {"store_mb", static_cast<double>(p0.store_bytes) / 1e6, "MB"},
        {"ok_share", 1.0 - failed_share, "ratio"},
    };
  } else {
    using W = Runner::Window;
    const double sim_s = run.per_pass([](const W& w) { return w.wall; });
    const double owned_s = run.per_pass([](const W& w) { return w.owned_s(); });
    const double traced_tput = run.throughput(true);
    const double sub =
        static_cast<double>(std::max<std::uint64_t>(1, p0.subqueries));
    const double muts = static_cast<double>(p0.mutations);
    metrics = {
        {"landmark.select_s", part_median(&SetupTimes::select), "s"},
        {"landmark.map_calls", static_cast<double>(rp.map_calls), "count"},
        {"landmark.map_s", rp.map_s, "s"},
        {"net.topology_s", part_median(&SetupTimes::topology), "s"},
        {"chord.bootstrap_s", part_median(&SetupTimes::bootstrap), "s"},
        {"chord.lookup_hops_mean", rp.lookup_hops_mean, "hops"},
        {"chord.next_hop_ns", rp.next_hop_ns, "ns"},
        {"lph.enclosing_prefix_ns", rp.prefix_ns, "ns"},
        {"lph.prefix_len_mean", rp.prefix_len_mean, "bits"},
        {"routing.subqueries_per_query",
         static_cast<double>(p0.subqueries) / queries0, "count"},
        {"routing.messages_per_query",
         static_cast<double>(p0.query_messages) / queries0, "count"},
        {"routing.index_nodes_per_query",
         static_cast<double>(p0.index_nodes) / queries0, "count"},
        {"routing.hops_mean", static_cast<double>(p0.hops) / queries0, "hops"},
        {"routing.coalesced_messages", static_cast<double>(p0.coalesced),
         "count"},
        {"sim.events", static_cast<double>(p0.events), "count"},
        {"sim.events_per_query", static_cast<double>(p0.events) / queries0,
         "count"},
        {"sim.run_s", sim_s, "s"},
        {"sim.pending_max", static_cast<double>(p0.pending_max), "count"},
        {"core.active_queries_max", static_cast<double>(p0.active_max),
         "count"},
        {"store.scanned_per_subquery", static_cast<double>(p0.scanned) / sub,
         "count"},
        {"store.rebuilds", static_cast<double>(p0.rebuilds), "count"},
        {"store.rebuilt_entries", static_cast<double>(p0.rebuilt_entries),
         "count"},
        {"store.rebuilds_per_mutation",
         muts > 0 ? static_cast<double>(p0.rebuilds) / muts : 0.0, "ratio"},
        {"store.entries_max_node", 0, "count"},
        {"store.build_s", rp.store_build_s, "s"},
        {"store.range_ns", rp.store_range_ns, "ns"},
        {"rank.object_fetches_per_query",
         static_cast<double>(p0.fetches) / queries0, "count"},
        {"rank.fetch_s", run.per_pass([](const W& w) { return w.fetch_s(); }),
         "s"},
        {"core.candidates_per_query",
         static_cast<double>(p0.candidates) / queries0, "count"},
        {"core.max_node_candidates",
         static_cast<double>(p0.max_node_candidates) / queries0, "count"},
        {"core.result_messages_per_query",
         static_cast<double>(p0.result_messages) / queries0, "count"},
        {"core.reply_pool_hits", static_cast<double>(p0.pool_hits), "count"},
        {"core.callback_s", owned_s, "s"},
        {"core.platform_s",
         run.per_pass([](const W& w) { return w.wall - w.owned_s(); }), "s"},
        {"core.inject_s",
         run.per_pass([](const W& w) { return w.inject_ns * 1e-9; }), "s"},
        {"core.mutation_calls", muts, "count"},
        {"core.mutation_s",
         run.per_pass([](const W& w) { return w.mutation_ns * 1e-9; }), "s"},
        {"core.mutation_hops_mean",
         muts > 0 ? static_cast<double>(p0.mutation_hops) / muts : 0.0,
         "hops"},
        {"core.mutations_acked", static_cast<double>(p0.acked), "count"},
        {"serve.cache_hit_rate",
         ratio(static_cast<double>(p0.cache.hits),
               static_cast<double>(p0.cache.probes)),
         "ratio"},
        {"serve.point_invalidations",
         static_cast<double>(p0.cache.point_invalidations), "count"},
        {"serve.wipes", static_cast<double>(p0.cache.wipes), "count"},
        {"serve.evictions", static_cast<double>(p0.cache.evictions), "count"},
        {"trace.overhead", run.trace_overhead(), "ratio"},
    };
    std::size_t entries_max = 0;
    for (ChordNode* n : s.alive) {
      entries_max = std::max(
          entries_max, s.platform->store(*n, s.index->scheme_id()).size());
    }
    for (Metric& m : metrics) {
      if (m.name == "store.entries_max_node") {
        m.value = static_cast<double>(entries_max);
      }
    }
    std::printf("trace: traced %.2f ops/s vs untraced %.2f ops/s; %zu spans\n",
                traced_tput, tput, run.spans().size());
    for (const Metric& m : metrics) {
      std::printf("%s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    if (!args.spans.empty() && !write_spans(args.spans.c_str(), run.spans())) {
      std::fprintf(stderr, "cannot write %s\n", args.spans.c_str());
      correct = false;
    }
  }
  print_result(correct, run.attempted(), run.failed(), metrics);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace lmk::perfbench

int main(int argc, char** argv) { return lmk::perfbench::run(argc, argv); }
