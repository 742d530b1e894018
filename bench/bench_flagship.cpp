// Flagship open-loop scenario: the memory-architecture stress test.
//
// Where the figure benches replay the paper's closed query batches at
// paper scale, this bench drives the index like a deployment: a 10k-node
// Chord overlay indexing a 1M-object synthetic corpus that is *streamed*
// into the index (the corpus is a seeded function, never materialized),
// then an open-loop Poisson arrival stream with Zipf-skewed topic
// popularity fires range queries on its own clock — arrivals do not wait
// for completions, so per-node queue depth and tail latency are
// observable instead of being hidden by back-pressure.
//
// Reported, split into two JSON sections:
//   - "deterministic": everything derived from virtual time and the
//     seeds — latency percentiles (p50/p99/p999 exact + P² streaming
//     estimates), per-node reply-queue depth, bytes on the wire,
//     sampled recall, arena/store/pool memory counters. Byte-identical
//     for any LMK_THREADS; CI compares this section across thread
//     counts (LMK_FLAGSHIP_DET_OUT writes it to its own file).
//   - "wallclock": build/oracle/drain wall times and rates for this
//     machine (regression-gated loosely by scripts/bench_diff.py).
//
// Scale: defaults are a smoke configuration that finishes in seconds;
// LMK_FULL=1 selects the flagship 10000-node / 1,000,000-object run.
// Individual knobs: LMK_FLAGSHIP_NODES, LMK_FLAGSHIP_OBJECTS,
// LMK_FLAGSHIP_DIMS, LMK_FLAGSHIP_ARRIVALS, LMK_FLAGSHIP_RATE,
// LMK_FLAGSHIP_RANGE, LMK_FLAGSHIP_RECALL, LMK_SAMPLE, LMK_SEED.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench_common.hpp"
#include "common/alloc_guard.hpp"
#include "common/arena.hpp"
#include "common/stats.hpp"
#include "workload/open_loop.hpp"

namespace lmk::bench {
namespace {

double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtod(v, nullptr);
}

template <typename Fn>
double time_s(Fn&& fn) {
  auto t0 = std::chrono::steady_clock::now();
  fn();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

struct FlagshipScale {
  std::size_t nodes;
  std::uint64_t objects;
  std::size_t dims;
  std::size_t landmarks;
  std::uint64_t arrivals;
  double rate;           ///< open-loop Poisson arrivals per second
  double zipf_s;         ///< topic popularity exponent
  double range_factor;   ///< query radius / max theoretical distance
  std::size_t sample;    ///< landmark-selection sample
  std::size_t recall_sample;  ///< arrivals scored against the oracle
  std::uint64_t seed;

  static FlagshipScale resolve() {
    bool full = full_scale();
    FlagshipScale s;
    s.nodes = env_size("LMK_FLAGSHIP_NODES", full ? 10000 : 256);
    s.objects = env_size("LMK_FLAGSHIP_OBJECTS", full ? 1000000 : 20000);
    s.dims = env_size("LMK_FLAGSHIP_DIMS", full ? 100 : 16);
    s.landmarks = env_size("LMK_FLAGSHIP_LANDMARKS", 10);
    s.arrivals = env_size("LMK_FLAGSHIP_ARRIVALS", full ? 2000 : 200);
    s.rate = env_double("LMK_FLAGSHIP_RATE", full ? 50.0 : 20.0);
    s.zipf_s = env_double("LMK_FLAGSHIP_ZIPF", 0.9);
    // 100-dim full geometry concentrates distances, so the paper's
    // 0.05 factor retrieves well; the 16-dim smoke geometry needs a
    // wider cube for comparable recall.
    s.range_factor = env_double("LMK_FLAGSHIP_RANGE", full ? 0.05 : 0.10);
    s.sample = env_size("LMK_SAMPLE", full ? 2000 : 400);
    s.recall_sample = env_size("LMK_FLAGSHIP_RECALL", full ? 50 : 25);
    s.seed = env_size("LMK_SEED", 42);
    return s;
  }
};

int run() {
  FlagshipScale s = FlagshipScale::resolve();
  std::printf("# bench_flagship  (nodes=%zu objects=%llu dims=%zu "
              "landmarks=%zu arrivals=%llu rate=%.1f/s range=%.3f "
              "seed=%llu%s)\n",
              s.nodes, static_cast<unsigned long long>(s.objects), s.dims,
              s.landmarks, static_cast<unsigned long long>(s.arrivals),
              s.rate, s.range_factor,
              static_cast<unsigned long long>(s.seed),
              full_scale() ? ", FULL FLAGSHIP SCALE" : "");
  std::printf("pool threads: %zu\n", thread_count());

  // The corpus is a function of (config, seed): streamed into the index
  // in batches and re-walked independently by the sampled oracle.
  SyntheticConfig cfg;
  cfg.objects = s.objects;
  cfg.dims = s.dims;
  cfg.range_lo = 0;
  cfg.range_hi = 100;
  cfg.clusters = 10;
  cfg.deviation = 20;
  SyntheticStream stream(cfg, s.seed);
  double max_dist = max_theoretical_distance(cfg);
  L2Space space;

  // Landmarks from a seeded sample of the stream (k-means, the paper's
  // recommended scheme).
  std::vector<DenseVector> sample_pts;
  double t_select = time_s([&] {
    Rng sel(s.seed + 7);
    auto idx = sel.sample_indices(
        static_cast<std::size_t>(s.objects),
        std::min<std::size_t>(s.sample,
                              static_cast<std::size_t>(s.objects)));
    sample_pts.reserve(idx.size());
    for (auto i : idx) sample_pts.push_back(stream.point(i));
  });
  std::vector<DenseVector> landmarks;
  t_select += time_s([&] {
    Rng rng(s.seed + 8);
    landmarks = kmeans_dense(std::span<const DenseVector>(sample_pts),
                             s.landmarks, rng);
  });
  LandmarkMapper<L2Space> mapper(
      space, std::move(landmarks),
      uniform_boundary(s.landmarks, 0, max_dist));

  // Full stack, same seed-derivation order as SimilarityExperiment.
  Simulator sim;
  Rng rng(s.seed);
  DelaySpaceModel::Options topo;
  topo.hosts = s.nodes;
  topo.seed = rng.fork().next();
  double t_topology = 0;
  std::unique_ptr<DelaySpaceModel> model;
  std::unique_ptr<Network> net;
  std::unique_ptr<Ring> ring;
  t_topology = time_s([&] {
    model = std::make_unique<DelaySpaceModel>(topo);
    net = std::make_unique<Network>(sim, *model);
    Ring::Options ropts;
    ropts.seed = rng.fork().next();
    ring = std::make_unique<Ring>(*net, ropts);
    for (std::size_t h = 0; h < s.nodes; ++h) {
      ring->create_node(static_cast<HostId>(h));
    }
    ring->bootstrap();
  });
  IndexPlatform platform(*ring);
  LandmarkIndex<L2Space> index(platform, space, std::move(mapper),
                               "flagship");

  // Streaming build: batches of the seeded corpus are landmark-mapped
  // into arena scratch and bulk-inserted; resident memory is one batch
  // plus the (SoA) stores, never the corpus.
  Arena scratch;
  AllocCounters build_alloc;
  double t_build = time_s([&] {
    AllocPhaseScope phase("stream-build");
    index.stream_load(
        s.objects,
        [&](std::uint64_t i, DenseVector& out) {
          out.resize(s.dims);
          stream.point_into(i, out);
        },
        scratch);
    build_alloc = phase.delta();
  });
  LMK_CHECK(platform.scheme_entries(index.scheme_id()) == s.objects);
  ArenaStats build_arena = scratch.stats();

  // Open-loop arrival stream: Poisson clock, Zipf topic per arrival,
  // query point near the topic's cluster centre.
  OpenLoopConfig ocfg;
  ocfg.arrivals_per_sec = s.rate;
  ocfg.topics = cfg.clusters;
  ocfg.zipf_s = s.zipf_s;
  ocfg.count = s.arrivals;
  ocfg.seed = s.seed + 21;
  std::vector<Arrival> schedule = open_loop_schedule(ocfg);
  std::vector<DenseVector> qpts(schedule.size());
  parallel_for(schedule.size(), [&](std::size_t i) {
    qpts[i] = stream.query_near(schedule[i].topic, i);
  });

  // Oracle-scored subset (recall on every arrival would make the oracle
  // O(arrivals · objects); the sample keeps it O(sample · objects)).
  std::vector<std::size_t> sampled = sample_query_indices(
      schedule.size(),
      std::min<std::size_t>(s.recall_sample, schedule.size()), s.seed + 13);
  std::unordered_set<std::size_t> sampled_set(sampled.begin(),
                                              sampled.end());
  std::unordered_map<std::size_t, std::vector<std::uint64_t>> retrieved;

  const double radius = s.range_factor * max_dist;
  std::vector<ChordNode*> alive = ring->alive_nodes();
  Rng origin_rng = rng.fork();

  // Deterministic per-query numbers (virtual-time latencies).
  std::vector<double> lat_ms, resp_ms;
  lat_ms.reserve(schedule.size());
  resp_ms.reserve(schedule.size());
  P2Quantile p99_stream(0.99), p999_stream(0.999);
  Accumulator hops, qbytes, rbytes, qmsgs, subqueries, index_nodes;
  Accumulator scanned;
  std::uint64_t incomplete = 0;

  // One scratch row for regenerating candidate objects during ranking
  // and refinement (the sim is single-threaded; rank calls are atomic).
  DenseVector rank_scratch(s.dims);
  auto dist_to = [&](const DenseVector& q, std::uint64_t id) {
    stream.point_into(id, rank_scratch);
    return std::sqrt(l2_squared(q, rank_scratch));
  };

  for (std::size_t i = 0; i < schedule.size(); ++i) {
    auto at = static_cast<SimTime>(schedule[i].at_sec *
                                   static_cast<double>(kSecond));
    ChordNode* origin = alive[origin_rng.below(alive.size())];
    sim.schedule_at(at, [&, i, origin] {
      const DenseVector& q = qpts[i];
      // `i` must ride by value: the closure outlives this scheduled
      // event (it is invoked per reply flush while the query is in
      // flight).
      IndexPlatform::RankFn rank = [&, i](std::span<const std::uint64_t> ids,
                                          std::span<double> out) {
        for (std::size_t j = 0; j < ids.size(); ++j) {
          out[j] = dist_to(qpts[i], ids[j]);
        }
      };
      platform.range_query(
          *origin, index.scheme_id(), index.mapper().map_unclamped(q),
          radius, ReplyMode::kTopK,
          [&, i](const IndexPlatform::QueryOutcome& o) {
            double ms = static_cast<double>(o.max_latency) /
                        static_cast<double>(kMillisecond);
            lat_ms.push_back(ms);
            resp_ms.push_back(static_cast<double>(o.response_time) /
                              static_cast<double>(kMillisecond));
            p99_stream.add(ms);
            p999_stream.add(ms);
            hops.add(o.hops);
            qbytes.add(static_cast<double>(o.query_bytes));
            rbytes.add(static_cast<double>(o.result_bytes));
            qmsgs.add(static_cast<double>(o.query_messages));
            subqueries.add(o.subqueries);
            scanned.add(static_cast<double>(o.scanned));
            index_nodes.add(o.index_nodes);
            if (!o.complete) ++incomplete;
            if (sampled_set.count(i) != 0) {
              // Querier-side refinement: true distances, top-10, ties
              // by id — the paper's recall protocol.
              std::vector<std::pair<double, std::uint64_t>> scored;
              scored.reserve(o.results.size());
              for (std::uint64_t id : o.results) {
                scored.emplace_back(dist_to(qpts[i], id), id);
              }
              std::sort(scored.begin(), scored.end());
              scored.erase(std::unique(scored.begin(), scored.end(),
                                       [](const auto& a, const auto& b) {
                                         return a.second == b.second;
                                       }),
                           scored.end());
              if (scored.size() > 10) scored.resize(10);
              auto& ids = retrieved[i];
              ids.reserve(scored.size());
              for (const auto& [d, id] : scored) ids.push_back(id);
            }
          },
          std::move(rank));
    });
  }

  // Queue-depth sampling on a virtual-time cadence while the open-loop
  // stream runs: per-node unflushed reply buffers (the gauge behind
  // pending_reply_depth) and platform-wide in-flight queries.
  Accumulator depth_mean;
  std::uint64_t depth_max = 0, depth_samples = 0;
  std::size_t max_active = 0;
  sim.set_audit(kSecond, [&](SimTime) {
    std::size_t dmax = 0;
    std::uint64_t dsum = 0;
    for (ChordNode* n : alive) {
      std::size_t d = platform.pending_reply_depth(*n);
      dmax = std::max(dmax, d);
      dsum += d;
    }
    depth_max = std::max<std::uint64_t>(depth_max, dmax);
    depth_mean.add(static_cast<double>(dsum) /
                   static_cast<double>(alive.size()));
    ++depth_samples;
    max_active = std::max(max_active, platform.active_queries());
  });

  std::uint64_t ev0 = sim.events_executed();
  AllocCounters query_alloc;
  double t_query = time_s([&] {
    AllocPhaseScope phase("open-loop-queries");
    sim.run();
    query_alloc = phase.delta();
  });
  std::uint64_t sim_events = sim.events_executed() - ev0;
  sim.set_audit(0, nullptr);
  LMK_CHECK(lat_ms.size() == schedule.size());

  // Sampled oracle: exact truth for the scored arrivals, streamed over
  // the regenerated corpus (O(sample · objects), bounded memory).
  std::vector<DenseVector> sampled_q;
  sampled_q.reserve(sampled.size());
  for (std::size_t si : sampled) sampled_q.push_back(qpts[si]);
  std::vector<std::vector<std::uint64_t>> truth;
  double t_oracle = time_s([&] {
    truth = knn_truth_streamed(
        space, s.objects,
        [&](std::uint64_t first, std::span<DenseVector> out) {
          parallel_for(out.size(), [&](std::size_t j) {
            out[j].resize(s.dims);
            stream.point_into(first + j, out[j]);
          });
        },
        std::span<const DenseVector>(sampled_q), /*k=*/10);
  });
  Accumulator recall_acc;
  for (std::size_t si = 0; si < sampled.size(); ++si) {
    recall_acc.add(recall(truth[si], retrieved[sampled[si]]));
  }

  // Exact percentiles: repeated nth_element on the same sample vector
  // (partial orderings do not affect later calls).
  double p50 = percentile_nth(lat_ms, 50);
  double p90 = percentile_nth(lat_ms, 90);
  double p99 = percentile_nth(lat_ms, 99);
  double p999 = percentile_nth(lat_ms, 99.9);
  double lat_max = *std::max_element(lat_ms.begin(), lat_ms.end());
  double rp50 = percentile_nth(resp_ms, 50);
  double rp99 = percentile_nth(resp_ms, 99);

  std::uint64_t store_bytes = platform.store_bytes();
  RecyclePoolStats pool = platform.reply_pool_stats();
  double wire_total = qbytes.sum() + rbytes.sum();

  // ---- serving-layer sweep (LMK_FLAGSHIP_SERVE=1) --------------------
  //
  // Two rungs over pooled Zipf workloads (the i-th arrival of topic t
  // reuses query salt i mod LMK_FLAGSHIP_QPOOL, so hot topics repeat a
  // small set of exact foci — the shape result caching exists for):
  //   A (efficiency, 1x rate, no service model): serve-off reference,
  //     then caches + coalescing window on. Result digests must match
  //     exactly; reports hit rate and wire bytes saved.
  //   B (overload ladder, {1,2,4}x rate with modeled solve occupancy):
  //     queue-limit shedding off vs on; reports p50/p99/p999 and the
  //     shed rate per rung.
  // The whole sweep is virtual-time-deterministic and lands in the
  // deterministic JSON section; with the sweep off the section is
  // byte-identical to pre-serve builds.
  char serve_det[3584];
  serve_det[0] = '\0';
  const char* serve_env = std::getenv("LMK_FLAGSHIP_SERVE");
  const bool serve_sweep =
      serve_env != nullptr && *serve_env != '\0' && *serve_env != '0';
  if (serve_sweep) {
    const std::size_t qpool = env_size("LMK_FLAGSHIP_QPOOL", 4);
    const std::uint64_t sweep_arrivals =
        env_size("LMK_FLAGSHIP_SERVE_ARRIVALS", s.arrivals);
    const SimTime service_us = static_cast<SimTime>(
        env_size("LMK_FLAGSHIP_SERVICE_US", 30000));
    const std::uint32_t queue_limit = static_cast<std::uint32_t>(
        env_size("LMK_FLAGSHIP_QUEUE_LIMIT", 8));
    const int max_retries = static_cast<int>(
        env_size("LMK_FLAGSHIP_MAX_RETRIES", 4));
    const SimTime window =
        static_cast<SimTime>(env_size("LMK_FLAGSHIP_SERVE_WINDOW_MS", 2)) *
        kMillisecond;
    const char* venv = std::getenv("LMK_SERVE_VERIFY");
    const bool verify = venv != nullptr && *venv != '\0' && *venv != '0';

    struct SweepWorkload {
      std::vector<Arrival> schedule;
      std::vector<DenseVector> pts;
      std::vector<ChordNode*> origins;
    };
    auto make_workload = [&](double mult, std::uint64_t wseed) {
      SweepWorkload w;
      OpenLoopConfig oc;
      oc.arrivals_per_sec = s.rate * mult;
      oc.topics = cfg.clusters;
      oc.zipf_s = s.zipf_s;
      oc.count = sweep_arrivals;
      oc.seed = wseed;
      w.schedule = open_loop_schedule(oc);
      w.pts.resize(w.schedule.size());
      std::vector<std::uint64_t> occurrence(cfg.clusters, 0);
      for (std::size_t i = 0; i < w.schedule.size(); ++i) {
        const std::uint32_t t = w.schedule[i].topic;
        const std::uint64_t salt = t * qpool + (occurrence[t]++ % qpool);
        w.pts[i] = stream.query_near(t, salt);
      }
      w.origins.resize(w.schedule.size());
      Rng org(wseed ^ 0x5e27e5e27e5e27eull);
      for (auto& o : w.origins) o = alive[org.below(alive.size())];
      return w;
    };

    struct RungNumbers {
      double p50 = 0, p99 = 0, p999 = 0;
      std::uint64_t qbytes = 0, qmsgs = 0;
      std::uint64_t hits = 0, probes = 0;
      std::uint64_t shed = 0, lost = 0, coalesced = 0;
      std::uint64_t digest = 1469598103934665603ULL;
    };
    auto run_rung = [&](const SweepWorkload& w, const ServeOptions& so) {
      platform.set_serve_options(so);
      const TrafficCounter q0 = platform.query_traffic();
      const std::uint64_t c0 = platform.coalesced_messages();
      RungNumbers r;
      std::vector<double> lat(w.schedule.size(), 0.0);
      std::vector<std::uint64_t> digests(w.schedule.size(), 0);
      std::size_t completed = 0;
      const SimTime t0 = sim.now();
      for (std::size_t i = 0; i < w.schedule.size(); ++i) {
        const auto at =
            t0 + static_cast<SimTime>(w.schedule[i].at_sec *
                                      static_cast<double>(kSecond));
        sim.schedule_at(at, [&, i] {
          platform.range_query(
              *w.origins[i], index.scheme_id(),
              index.mapper().map_unclamped(w.pts[i]), radius,
              ReplyMode::kAllMatches,
              [&, i](const IndexPlatform::QueryOutcome& o) {
                lat[i] = static_cast<double>(o.max_latency) /
                         static_cast<double>(kMillisecond);
                std::vector<std::uint64_t> ids(o.results);
                std::sort(ids.begin(), ids.end());
                std::uint64_t d = 1469598103934665603ULL;
                for (std::uint64_t id : ids) {
                  d = (d ^ id) * 1099511628211ULL;
                }
                digests[i] = d;
                r.shed += o.shed;
                r.lost += static_cast<std::uint64_t>(o.lost_subqueries);
                ++completed;
              });
        });
      }
      sim.run();
      LMK_CHECK(completed == w.schedule.size());
      if (const ServeState* st = platform.serve_state()) {
        const CacheStats cs = st->aggregate_cache_stats();
        r.hits = cs.hits;
        r.probes = cs.probes;
      }
      r.qbytes = platform.query_traffic().bytes - q0.bytes;
      r.qmsgs = platform.query_traffic().messages - q0.messages;
      r.coalesced = platform.coalesced_messages() - c0;
      for (std::uint64_t d : digests) {
        r.digest = (r.digest ^ d) * 1099511628211ULL;
      }
      r.p50 = percentile_nth(lat, 50);
      r.p99 = percentile_nth(lat, 99);
      r.p999 = percentile_nth(lat, 99.9);
      return r;
    };

    SweepWorkload eff = make_workload(1.0, s.seed + 31);
    RungNumbers a_off = run_rung(eff, ServeOptions{});
    ServeOptions eff_on;
    eff_on.cache_enabled = true;
    eff_on.cache_max_entries = 4096;
    eff_on.coalesce_window = window;
    eff_on.verify_hits = verify;
    RungNumbers a_on = run_rung(eff, eff_on);
    const bool digest_match = a_on.digest == a_off.digest;
    const double hit_rate =
        a_on.probes > 0 ? static_cast<double>(a_on.hits) /
                              static_cast<double>(a_on.probes)
                        : 0.0;
    const double wire_ratio =
        a_off.qbytes > 0 ? static_cast<double>(a_on.qbytes) /
                               static_cast<double>(a_off.qbytes)
                         : 1.0;
    LMK_CHECK_MSG(digest_match,
                  "serving tier changed query results (stale cache or "
                  "batching bug)");

    struct LadderRow {
      int mult;
      RungNumbers off, on;
    };
    LadderRow ladder[3] = {{1, {}, {}}, {2, {}, {}}, {4, {}, {}}};
    for (LadderRow& row : ladder) {
      SweepWorkload w = make_workload(row.mult,
                                      s.seed + 47 + static_cast<std::uint64_t>(
                                                        row.mult));
      ServeOptions base;
      base.service_time = service_us;
      row.off = run_rung(w, base);
      ServeOptions shed = base;
      shed.queue_limit = queue_limit;
      shed.backoff = 5 * kMillisecond;
      shed.max_retries = max_retries;
      row.on = run_rung(w, shed);
    }
    platform.set_serve_options(ServeOptions{});

    std::printf("serve efficiency: hit rate %.3f (%llu/%llu), wire %llu -> "
                "%llu bytes (ratio %.4f), msgs %llu -> %llu, coalesced "
                "%llu, digest %s\n",
                hit_rate, static_cast<unsigned long long>(a_on.hits),
                static_cast<unsigned long long>(a_on.probes),
                static_cast<unsigned long long>(a_off.qbytes),
                static_cast<unsigned long long>(a_on.qbytes), wire_ratio,
                static_cast<unsigned long long>(a_off.qmsgs),
                static_cast<unsigned long long>(a_on.qmsgs),
                static_cast<unsigned long long>(a_on.coalesced),
                digest_match ? "match" : "MISMATCH");
    for (const LadderRow& row : ladder) {
      std::printf("serve overload x%d: off p50/p99/p999 %.1f/%.1f/%.1f ms, "
                  "on %.1f/%.1f/%.1f ms, shed %llu, dropped %llu\n",
                  row.mult, row.off.p50, row.off.p99, row.off.p999,
                  row.on.p50, row.on.p99, row.on.p999,
                  static_cast<unsigned long long>(row.on.shed),
                  static_cast<unsigned long long>(row.on.lost));
    }

    int off = std::snprintf(
        serve_det, sizeof serve_det,
        ",\n    \"serve\": {\n"
        "      \"qpool\": %zu, \"arrivals\": %llu, \"service_us\": %lld, "
        "\"queue_limit\": %u, \"window_ms\": %lld, \"verify\": %s,\n"
        "      \"efficiency\": {\"digest_match\": %s, \"hit_rate\": %.6f, "
        "\"cache_hits\": %llu, \"cache_probes\": %llu, "
        "\"bytes_off\": %llu, \"bytes_on\": %llu, \"wire_ratio\": %.6f, "
        "\"messages_off\": %llu, \"messages_on\": %llu, "
        "\"coalesced\": %llu, \"p50_off\": %.6f, \"p50_on\": %.6f},\n"
        "      \"overload\": [",
        qpool, static_cast<unsigned long long>(sweep_arrivals),
        static_cast<long long>(service_us), queue_limit,
        static_cast<long long>(window / kMillisecond),
        verify ? "true" : "false", digest_match ? "true" : "false", hit_rate,
        static_cast<unsigned long long>(a_on.hits),
        static_cast<unsigned long long>(a_on.probes),
        static_cast<unsigned long long>(a_off.qbytes),
        static_cast<unsigned long long>(a_on.qbytes), wire_ratio,
        static_cast<unsigned long long>(a_off.qmsgs),
        static_cast<unsigned long long>(a_on.qmsgs),
        static_cast<unsigned long long>(a_on.coalesced), a_off.p50, a_on.p50);
    for (std::size_t i = 0; i < 3; ++i) {
      const LadderRow& row = ladder[i];
      off += std::snprintf(
          serve_det + off, sizeof serve_det - static_cast<std::size_t>(off),
          "%s\n        {\"mult\": %d, \"shed\": %llu, \"dropped\": %llu, "
          "\"p50_off\": %.6f, \"p99_off\": %.6f, \"p999_off\": %.6f, "
          "\"p50_on\": %.6f, \"p99_on\": %.6f, \"p999_on\": %.6f}",
          i == 0 ? "" : ",", row.mult,
          static_cast<unsigned long long>(row.on.shed),
          static_cast<unsigned long long>(row.on.lost), row.off.p50,
          row.off.p99, row.off.p999, row.on.p50, row.on.p99, row.on.p999);
    }
    off += std::snprintf(serve_det + off,
                         sizeof serve_det - static_cast<std::size_t>(off),
                         "\n      ]\n    }");
    LMK_CHECK(off > 0 &&
              static_cast<std::size_t>(off) < sizeof serve_det - 1);
  }

  std::printf("build: select %.3fs  topology %.3fs  stream-load %.3fs "
              "(%.0f objects/s, batches of 8192)\n",
              t_select, t_topology, t_build,
              t_build > 0 ? static_cast<double>(s.objects) / t_build : 0.0);
  std::printf("arena: high-water %llu bytes, reserved %llu bytes, "
              "%llu resets; store %llu bytes\n",
              static_cast<unsigned long long>(build_arena.high_water_bytes),
              static_cast<unsigned long long>(build_arena.reserved_bytes),
              static_cast<unsigned long long>(build_arena.resets),
              static_cast<unsigned long long>(store_bytes));
  std::printf("latency ms: p50 %.2f  p90 %.2f  p99 %.2f  p999 %.2f  "
              "max %.2f  (P2: p99 %.2f, p999 %.2f)\n",
              p50, p90, p99, p999, lat_max, p99_stream.value(),
              p999_stream.value());
  std::printf("first-reply ms: p50 %.2f  p99 %.2f\n", rp50, rp99);
  std::printf("queue: max depth %llu, mean depth %.3f over %llu samples, "
              "max active queries %zu\n",
              static_cast<unsigned long long>(depth_max), depth_mean.mean(),
              static_cast<unsigned long long>(depth_samples), max_active);
  std::printf("wire: %.0f query + %.0f result = %.0f bytes "
              "(%.1f per query); %.1f msgs, %.1f subqueries, "
              "%.1f index nodes per query\n",
              qbytes.sum(), rbytes.sum(), wire_total,
              wire_total / static_cast<double>(schedule.size()),
              qmsgs.mean(), subqueries.mean(), index_nodes.mean());
  std::printf("pool: %llu acquires, %llu hits, high water %llu\n",
              static_cast<unsigned long long>(pool.acquires),
              static_cast<unsigned long long>(pool.hits),
              static_cast<unsigned long long>(pool.high_water));
  std::printf("recall@10 (sampled, %zu queries): %.3f  (oracle %.3fs)\n",
              sampled.size(), recall_acc.mean(), t_oracle);
  std::printf("local store: %s, %.1f scanned per subquery\n",
              platform.local_store_name(index.scheme_id()),
              subqueries.sum() > 0 ? scanned.sum() / subqueries.sum() : 0.0);
  std::printf("query phase: %.3fs wall, %llu sim events, %llu incomplete\n",
              t_query, static_cast<unsigned long long>(sim_events),
              static_cast<unsigned long long>(incomplete));

  // The deterministic section is serialized once and embedded in both
  // output files, so the CI thread-count comparison diffs bytes.
  char det[8192];
  std::snprintf(
      det, sizeof det,
      "{\n"
      "    \"latency_ms\": {\"p50\": %.6f, \"p90\": %.6f, \"p99\": %.6f, "
      "\"p999\": %.6f, \"max\": %.6f, \"p99_p2\": %.6f, "
      "\"p999_p2\": %.6f},\n"
      "    \"first_reply_ms\": {\"p50\": %.6f, \"p99\": %.6f},\n"
      "    \"queue\": {\"max_depth\": %llu, \"mean_depth\": %.6f, "
      "\"samples\": %llu, \"max_active_queries\": %zu},\n"
      "    \"wire\": {\"query_bytes\": %.0f, \"result_bytes\": %.0f, "
      "\"total_bytes\": %.0f, \"bytes_per_query\": %.3f, "
      "\"messages_per_query\": %.3f},\n"
      "    \"memory\": {\"arena_high_water\": %llu, "
      "\"arena_reserved\": %llu, \"store_bytes\": %llu, "
      "\"pool_high_water\": %llu, \"pool_acquires\": %llu, "
      "\"pool_hits\": %llu},\n"
      "    \"recall\": {\"sampled\": %zu, \"mean\": %.6f},\n"
      "    \"subqueries_per_query\": %.6f,\n"
      "    \"local_store\": \"%s\",\n"
      "    \"scanned_per_subquery\": %.6f,\n"
      "    \"incomplete\": %llu,\n"
      "    \"sim_events\": %llu%s\n"
      "  }",
      p50, p90, p99, p999, lat_max, p99_stream.value(), p999_stream.value(),
      rp50, rp99, static_cast<unsigned long long>(depth_max),
      depth_mean.mean(), static_cast<unsigned long long>(depth_samples),
      max_active, qbytes.sum(), rbytes.sum(), wire_total,
      wire_total / static_cast<double>(schedule.size()), qmsgs.mean(),
      static_cast<unsigned long long>(build_arena.high_water_bytes),
      static_cast<unsigned long long>(build_arena.reserved_bytes),
      static_cast<unsigned long long>(store_bytes),
      static_cast<unsigned long long>(pool.high_water),
      static_cast<unsigned long long>(pool.acquires),
      static_cast<unsigned long long>(pool.hits), sampled.size(),
      recall_acc.mean(), subqueries.mean(),
      platform.local_store_name(index.scheme_id()),
      subqueries.sum() > 0 ? scanned.sum() / subqueries.sum() : 0.0,
      static_cast<unsigned long long>(incomplete),
      static_cast<unsigned long long>(sim_events), serve_det);

  const char* out_path = std::getenv("LMK_FLAGSHIP_OUT");
  if (out_path == nullptr || *out_path == '\0') {
    out_path = "BENCH_flagship.json";
  }
  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"scale\": {\"nodes\": %zu, \"objects\": %llu, \"dims\": %zu, "
      "\"landmarks\": %zu, \"arrivals\": %llu, \"rate\": %.3f, "
      "\"zipf_s\": %.3f, \"range_factor\": %.3f, \"sample\": %zu, "
      "\"recall_sample\": %zu, \"seed\": %llu},\n"
      "  \"deterministic\": %s,\n"
      // Allocation counters depend on the allocator and guard build, so
      // they live outside the deterministic section (which must stay
      // byte-identical across LMK_THREADS).
      "  \"alloc\": {\n"
      "    \"guard_enabled\": %s,\n"
      "    \"stream_build\": {\"allocs\": %llu, \"frees\": %llu, "
      "\"alloc_bytes\": %llu, \"free_bytes\": %llu},\n"
      "    \"open_loop_queries\": {\"allocs\": %llu, \"frees\": %llu, "
      "\"alloc_bytes\": %llu, \"free_bytes\": %llu}\n"
      "  },\n"
      "  \"wallclock\": {\n"
      "    \"select_seconds\": %.6f,\n"
      "    \"topology_seconds\": %.6f,\n"
      "    \"build_seconds\": %.6f,\n"
      "    \"objects_per_sec\": %.1f,\n"
      "    \"query_seconds\": %.6f,\n"
      "    \"sim_events_per_sec\": %.1f,\n"
      "    \"oracle_seconds\": %.6f,\n"
      "    \"threads\": %zu\n"
      "  }\n"
      "}\n",
      s.nodes, static_cast<unsigned long long>(s.objects), s.dims,
      s.landmarks, static_cast<unsigned long long>(s.arrivals), s.rate,
      s.zipf_s, s.range_factor, s.sample,
      std::min<std::size_t>(s.recall_sample, schedule.size()),
      static_cast<unsigned long long>(s.seed), det,
      alloc_guard_enabled() ? "true" : "false",
      static_cast<unsigned long long>(build_alloc.allocs),
      static_cast<unsigned long long>(build_alloc.frees),
      static_cast<unsigned long long>(build_alloc.alloc_bytes),
      static_cast<unsigned long long>(build_alloc.free_bytes),
      static_cast<unsigned long long>(query_alloc.allocs),
      static_cast<unsigned long long>(query_alloc.frees),
      static_cast<unsigned long long>(query_alloc.alloc_bytes),
      static_cast<unsigned long long>(query_alloc.free_bytes),
      t_select, t_topology,
      t_build, t_build > 0 ? static_cast<double>(s.objects) / t_build : 0.0,
      t_query,
      t_query > 0 ? static_cast<double>(sim_events) / t_query : 0.0,
      t_oracle, thread_count());
  std::fclose(f);
  std::printf("wrote %s\n", out_path);

  const char* det_path = std::getenv("LMK_FLAGSHIP_DET_OUT");
  if (det_path != nullptr && *det_path != '\0') {
    std::FILE* df = std::fopen(det_path, "w");
    if (df == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", det_path);
      return 1;
    }
    std::fprintf(df, "%s\n", det);
    std::fclose(df);
    std::printf("wrote %s\n", det_path);
  }
  return 0;
}

}  // namespace
}  // namespace lmk::bench

int main() { return lmk::bench::run(); }
