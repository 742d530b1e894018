#include "core/index_platform.hpp"

#include <algorithm>
#ifdef LMK_SCHED_MUTATION
#include <map>
#endif

#include "balance/rotation.hpp"
#include "common/check.hpp"
#include "common/parallel.hpp"
#include "core/top_k.hpp"

namespace lmk {

IndexPlatform::IndexPlatform(Ring& ring, Options opts)
    : ring_(ring),
      opts_(opts),
      router_(
          ring,
          [this](const RangeQuery& q, ChordNode& n) { on_solve(q, n); },
          [this](std::uint64_t qid, int d) { on_fanout(qid, d); },
          [this](std::uint64_t qid, std::uint64_t b) { on_sent(qid, b); }),
      naive_(
          ring,
          [this](const RangeQuery& q, ChordNode& n) { on_solve(q, n); },
          [this](std::uint64_t qid, int d) { on_fanout(qid, d); },
          opts.naive_split_depth,
          [this](std::uint64_t qid, std::uint64_t b) { on_sent(qid, b); }) {}

void IndexPlatform::set_serve_options(const ServeOptions& opts) {
  if (opts.any_enabled()) {
    serve_ = std::make_unique<ServeState>(opts);
  } else {
    serve_.reset();
  }
  router_.set_coalesce_window(opts.coalesce_window);
}


std::uint32_t IndexPlatform::register_scheme(const std::string& name,
                                             Boundary boundary, bool rotate) {
  LMK_CHECK(!boundary.empty());
  auto scheme = std::make_unique<SchemeRouting>();
  scheme->scheme_id = static_cast<std::uint32_t>(schemes_.size());
  scheme->boundary = std::move(boundary);
  scheme->rotation = rotate ? rotation_offset(name) : 0;
  scheme->query_message_bytes = query_message_size(scheme->boundary.size());
  schemes_.push_back(std::move(scheme));
  scheme_names_.push_back(name);
  // Existing stores grow a slot for the new scheme lazily via entries().
  return schemes_.back()->scheme_id;
}

const LocalStoreOptions& IndexPlatform::local_store_options(
    std::uint32_t id) const {
  LMK_CHECK(id < schemes_.size());
  static const LocalStoreOptions kNone;
  return kNone;
}

void IndexPlatform::update_scheme_boundary(std::uint32_t id,
                                           Boundary boundary) {
  LMK_CHECK(id < schemes_.size());
  LMK_CHECK(boundary.size() == schemes_[id]->boundary.size());
  LMK_CHECK(scheme_entries(id) == 0);
  schemes_[id]->boundary = std::move(boundary);
}

const SchemeRouting& IndexPlatform::scheme(std::uint32_t id) const {
  LMK_CHECK(id < schemes_.size());
  return *schemes_[id];
}

const std::string& IndexPlatform::scheme_name(std::uint32_t id) const {
  LMK_CHECK(id < scheme_names_.size());
  return scheme_names_[id];
}

IndexPlatform::NodeStore& IndexPlatform::store_of(const ChordNode& n) {
  NodeStore& s = stores_[&n];
  if (s.per_scheme.size() < schemes_.size()) {
    s.per_scheme.resize(schemes_.size());
  }
  return s;
}

IndexPlatform::SchemeStore& IndexPlatform::scheme_store(const ChordNode& n,
                                                        std::uint32_t scheme) {
  LMK_CHECK(scheme < schemes_.size());
  return store_of(n).per_scheme[scheme];
}

EntryStore& IndexPlatform::entries(const ChordNode& n, std::uint32_t scheme) {
  SchemeStore& ss = scheme_store(n, scheme);
  ++ss.version;  // the caller may mutate; order indices rebuild lazily
  return ss.entries;
}

void IndexPlatform::insert_entry(const ChordNode& n, std::uint32_t scheme,
                                 Id key, std::uint64_t object,
                                 std::span<const double> point) {
  SchemeStore& ss = scheme_store(n, scheme);
  ss.entries.push_back(key, object, point);
  if (ss.indexed_version == ss.version) {
    ss.local.insert(ss.entries,
                    static_cast<std::uint32_t>(ss.entries.size() - 1));
  }
}

bool IndexPlatform::erase_entry(const ChordNode& n, std::uint32_t scheme,
                                std::uint64_t object, Id key) {
  SchemeStore& ss = scheme_store(n, scheme);
  const std::size_t i = ss.entries.find(object, key);
  if (i == EntryStore::npos) return false;
  if (ss.indexed_version == ss.version) {
    ss.local.erase(ss.entries.point(i), static_cast<std::uint32_t>(i));
  }
  ss.entries.erase_at(i);
  return true;
}

void IndexPlatform::ensure_local_store(SchemeStore& ss) {
  if (ss.indexed_version == ss.version) return;
  ss.local.build(ss.entries);
  ss.indexed_version = ss.version;
  ++local_store_stats_.rebuilds;
  local_store_stats_.rebuilt_entries += ss.entries.size();
}

void IndexPlatform::insert(std::uint32_t scheme_id, std::uint64_t object,
                           const IndexPoint& point) {
  const SchemeRouting& sch = scheme(scheme_id);
  const Id key = lph_hash(point, sch.boundary) + sch.rotation;
  for_each_replica(key, [&](ChordNode& node) {
    insert_entry(node, scheme_id, key, object, point);
    serve_invalidate(node, scheme_id, point);
  });
}

template <typename RowFn>
void IndexPlatform::bulk_place(std::uint32_t scheme_id, std::size_t n,
                               std::uint64_t first_object, RowFn row) {
  const SchemeRouting& sch = scheme(scheme_id);
  // Phase 1 (parallel, read-only): hash every point to its placement
  // key. Phase 2 (sequential, index order): mutate the node stores —
  // identical entry order to a plain insert() loop.
  std::vector<Id> keys(n);
  parallel_for(n, [&](std::size_t i) {
    keys[i] = lph_hash(row(i), sch.boundary) + sch.rotation;
  });
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<const double> point = row(i);
    for_each_replica(keys[i], [&](ChordNode& node) {
      entries(node, scheme_id).push_back(keys[i], first_object + i, point);
      serve_invalidate(node, scheme_id, point);
    });
  }
}

void IndexPlatform::bulk_insert(std::uint32_t scheme_id,
                                std::span<const IndexPoint> points,
                                std::uint64_t first_object) {
  bulk_place(scheme_id, points.size(), first_object,
             [&](std::size_t i) { return std::span<const double>(points[i]); });
}

void IndexPlatform::bulk_insert_flat(std::uint32_t scheme_id,
                                     std::span<const double> coords,
                                     std::size_t dims,
                                     std::uint64_t first_object) {
  LMK_CHECK(dims > 0 && coords.size() % dims == 0);
  LMK_CHECK(dims == scheme(scheme_id).boundary.size());
  // The points live in one flat row-major buffer (the streaming-load
  // path hands in arena scratch) — no per-point IndexPoint
  // materialization anywhere.
  bulk_place(scheme_id, coords.size() / dims, first_object,
             [&](std::size_t i) { return coords.subspan(i * dims, dims); });
}

void IndexPlatform::insert_via_network(ChordNode& origin,
                                       std::uint32_t scheme_id,
                                       std::uint64_t object, IndexPoint point,
                                       std::function<void(int hops)> done) {
  const SchemeRouting& sch = scheme(scheme_id);
  Id key = lph_hash(point, sch.boundary) + sch.rotation;
  ring_.find_successor(
      origin, key,
      [this, scheme_id, object, key, point = std::move(point),
       done = std::move(done)](NodeRef owner, int hops) {
        insert_entry(*owner.node, scheme_id, key, object, point);
        serve_invalidate(*owner.node, scheme_id, point);
        // Replica propagation: the owner pushes copies down its
        // successor chain (modeled as oracle placement; the one-hop
        // store messages are not part of the paper's cost model).
        if (opts_.replication > 1) {
          for_each_replica(key, [&](ChordNode& replica) {
            if (&replica == owner.node) return;
            insert_entry(replica, scheme_id, key, object, point);
            serve_invalidate(replica, scheme_id, point);
          });
        }
        if (done) done(hops);
      });
}

bool IndexPlatform::remove(std::uint32_t scheme_id, std::uint64_t object,
                           const IndexPoint& point) {
  const SchemeRouting& sch = scheme(scheme_id);
  Id key = lph_hash(point, sch.boundary) + sch.rotation;
  bool removed = false;
  for_each_replica(key, [&](ChordNode& node) {
    if (erase_entry(node, scheme_id, object, key)) {
      removed = true;
      serve_invalidate(node, scheme_id, point);
    }
  });
  return removed;
}

void IndexPlatform::remove_via_network(
    ChordNode& origin, std::uint32_t scheme_id, std::uint64_t object,
    IndexPoint point, std::function<void(bool removed, int hops)> done) {
  const SchemeRouting& sch = scheme(scheme_id);
  Id key = lph_hash(point, sch.boundary) + sch.rotation;
  ring_.find_successor(
      origin, key,
      [this, scheme_id, object, key, point = std::move(point),
       done = std::move(done)](NodeRef owner, int hops) {
        (void)owner;  // for_each_replica(key) starts at the owner
        bool removed = false;
        for_each_replica(key, [&](ChordNode& replica) {
          if (erase_entry(replica, scheme_id, object, key)) {
            removed = true;
            serve_invalidate(replica, scheme_id, point);
          }
        });
        if (done) done(removed, hops);
      });
}

void IndexPlatform::clear_scheme(std::uint32_t scheme_id) {
  LMK_CHECK(scheme_id < schemes_.size());
  // Every store is cleared unconditionally; order cannot matter.
  // lmk-lint: iteration-order-independent
  for (auto& [node, store] : stores_) {
    if (scheme_id < store.per_scheme.size()) {
      SchemeStore& ss = store.per_scheme[scheme_id];
      ss.entries.clear();
      ++ss.version;
      serve_wipe(*node, scheme_id);
    }
  }
}

std::size_t IndexPlatform::scheme_entries(std::uint32_t scheme_id) const {
  std::size_t total = 0;
  // Integer sum over disjoint stores: commutative, order-free.
  // lmk-lint: iteration-order-independent
  for (const auto& [node, store] : stores_) {
    if (!node->alive()) continue;  // crashed copies are lost
    if (scheme_id < store.per_scheme.size()) {
      total += store.per_scheme[scheme_id].entries.size();
    }
  }
  return total;
}

std::size_t IndexPlatform::total_entries() const {
  std::size_t total = 0;
  // Integer sum over disjoint stores: commutative, order-free.
  // lmk-lint: iteration-order-independent
  for (const auto& [node, store] : stores_) {
    if (!node->alive()) continue;  // crashed copies are lost
    for (const auto& ss : store.per_scheme) total += ss.entries.size();
  }
  return total;
}

void IndexPlatform::range_query(ChordNode& origin, std::uint32_t scheme_id,
                                const IndexPoint& center, double radius,
                                ReplyMode mode, QueryCallback done,
                                RankFn rank) {
  region_query(origin, scheme_id, query_region(center, radius), center, mode,
               std::move(done), std::move(rank));
}

void IndexPlatform::region_query(ChordNode& origin, std::uint32_t scheme_id,
                                 Region region, IndexPoint focus,
                                 ReplyMode mode, QueryCallback done,
                                 RankFn rank) {
  LMK_CHECK(done != nullptr);
  const SchemeRouting& sch = scheme(scheme_id);
  std::uint64_t qid = next_qid_++;
  RangeQuery q;
  if (!make_query(sch, qid, origin.host(), std::move(region),
                  std::move(focus), &q)) {
    QueryOutcome empty;
    empty.complete = true;
    done(empty);
    return;
  }
  ActiveQuery aq;
  aq.scheme = scheme_id;
  aq.origin = origin.host();
  aq.origin_node = &origin;
  aq.origin_inc = origin.incarnation();
  aq.mode = mode;
  aq.t0 = ring_.sim().now();
  aq.outstanding = 1;
  aq.done = std::move(done);
  aq.rank = std::move(rank);
  active_.emplace(qid, std::move(aq));
  if (opts_.routing == RoutingMode::kTree) {
    router_.start(origin, std::move(q));
  } else {
    naive_.start(origin, std::move(q));
  }
}

void IndexPlatform::on_fanout(std::uint64_t qid, int delta) {
  auto it = active_.find(qid);
  LMK_CHECK(it != active_.end());
  it->second.outstanding += delta;
  if (delta < 0) it->second.outcome.lost_subqueries += -delta;
  LMK_CHECK(it->second.outstanding >= 0);
  maybe_complete(qid);
}

void IndexPlatform::on_sent(std::uint64_t qid, std::uint64_t bytes) {
  auto it = active_.find(qid);
  LMK_CHECK(it != active_.end());
  ++it->second.outcome.query_messages;
  it->second.outcome.query_bytes += bytes;
}

// lmk-hot-path: on_solve + solve_subquery + flush_reply run once per
// subquery per index node — the per-event cost of the whole query
// storm. The alloc-guard build's flagship gate (scripts/bench_diff.py,
// allocations per arrival) catches a per-candidate allocation here.
void IndexPlatform::on_solve(const RangeQuery& q, ChordNode& node) {
  if (serve_ == nullptr) {
    solve_subquery(q, node);
    return;
  }
  const ServeOptions& so = serve_->options();
  if (!so.admission_on() && so.service_time <= 0) {
    solve_subquery(q, node);
    return;
  }
  ServeState::NodeServe& ns = serve_->node(node.host());
  if (so.admission_on() && ns.queue >= so.queue_limit) {
    // Overloaded. Tree routing can re-inject a bounced subquery at the
    // origin (it re-routes to wherever the region now lives); the naive
    // client-side splitter cannot, so it always force-admits.
    if (opts_.routing == RoutingMode::kTree) {
      if (q.retries < so.max_retries) {
        shed_subquery(q, node);
        return;
      }
      // Retry budget exhausted and the node is still saturated: drop
      // the subquery — load shedding proper. The fanout tracker
      // completes the query with the loss recorded in lost_subqueries,
      // trading recall for a bounded tail under sustained overload (a
      // work-conserving forced admit could never lower the tail: the
      // queue wait it pays is exactly what shedding exists to avoid).
      serve_->stats().dropped += 1;
      on_fanout(q.qid, -1);
      return;
    }
    serve_->stats().forced_admits += 1;
  }
  if (so.service_time <= 0) {
    // Admission threshold without a service model: the queue gauge
    // never builds (solves are instantaneous), so just solve.
    solve_subquery(q, node);
    return;
  }
  // Modeled solve occupancy: the subquery waits for the node's
  // single-server queue, then solves when its service slot ends.
  ns.queue += 1;
  ns.peak_queue = std::max(ns.peak_queue, ns.queue);
  serve_->stats().enqueued += 1;
  const SimTime now = ring_.sim().now();
  const SimTime start = std::max(now, ns.busy_until);
  ns.busy_until = start + so.service_time;
  ChordNode* node_ptr = &node;
  const std::uint32_t inc = node.incarnation();
  ring_.sim().schedule_at(
      ns.busy_until,
      // lmk-lint: allow(hot-alloc) per-queued-subquery closure copy
      [this, copy = q, node_ptr, inc]() mutable {
        ServeState::NodeServe& slot = serve_->node(node_ptr->host());
        LMK_CHECK(slot.queue > 0);
        slot.queue -= 1;
        if (node_ptr->alive() && node_ptr->incarnation() == inc) {
          solve_subquery(copy, *node_ptr);
        } else {
          // The node died holding the queue: the subquery is lost, the
          // completion tracker still terminates the query.
          on_fanout(copy.qid, -1);
        }
      },
      node.host());
}

/// Retry-after base of a shed subquery (doubles per retry).
constexpr SimTime kShedBackoff = 5 * kMillisecond;

void IndexPlatform::shed_subquery(const RangeQuery& q, ChordNode& node) {
  auto it = active_.find(q.qid);
  LMK_CHECK(it != active_.end());
  ActiveQuery& aq = it->second;
  aq.outcome.shed += 1;
  ServeStats& stats = serve_->stats();
  stats.shed += 1;
  RangeQuery retry = q;
  retry.retries += 1;
  // Deterministic exponential backoff: base << (retries - 1), capped so
  // the shift cannot overflow.
  const SimTime delay = kShedBackoff << std::min(retry.retries - 1, 16);
  ChordNode* origin = aq.origin_node;
  const std::uint32_t origin_inc = aq.origin_inc;
  stats.retries += 1;
  (void)node;
  // The retry-after timer runs at the origin (the overloaded node just
  // answers "busy"); tagged with the origin host accordingly.
  ring_.sim().schedule_after(
      delay,
      // lmk-lint: allow(hot-alloc) per-shed retry closure
      [this, retry = std::move(retry), origin, origin_inc]() mutable {
        if (origin != nullptr && origin->alive() &&
            origin->incarnation() == origin_inc) {
          // The subquery is still registered with the outstanding
          // tracker (no fanout +1): routing simply starts over.
          router_.start(*origin, std::move(retry));
        } else {
          serve_->stats().retry_drops += 1;
          on_fanout(retry.qid, -1);
        }
      },
      aq.origin);
}

void IndexPlatform::solve_subquery(const RangeQuery& q, ChordNode& node) {
  auto it = active_.find(q.qid);
  LMK_CHECK(it != active_.end());
  ActiveQuery& aq = it->second;

  // Collect the local matches: ids of stored entries whose index point
  // lies in the (closed) query region. Ranking waits for the reply
  // flush, which makes one batch RankFn call over the whole reply — and
  // none at all for a reply within the top-k cut or in kAllMatches
  // mode. Only a kTopK query without a RankFn is scored here, by the
  // contractive L-inf lower bound (the entry point is at hand now and
  // gone at flush).
  //
  // The probe itself is delegated to the node's LocalStore (sorted order
  // indices, see src/store/). It surfaces hits in a deterministic order
  // that is a pure function of store contents, and the flush's dedup and
  // select are order-independent, so results stay byte-identical at any
  // thread count.
  PendingReply& reply = pending_replies_[q.qid][&node];
  if (!reply.pooled) {
    // Fresh (query, node) reply: back it with pooled buffers so
    // steady-state query traffic stops allocating.
    reply.buf = reply_pool_.acquire();
    reply.pooled = true;
  }
  const bool bound_scores = aq.mode == ReplyMode::kTopK && !aq.rank;
  std::uint64_t evaluated = 0;
  bool cache_hit = false;
  ResultCache* cache = nullptr;
  if (serve_ != nullptr && serve_->options().cache_on()) {
    cache = &serve_->cache(node.host(), aq.scheme);
    std::span<const std::uint64_t> cobjs;
    std::span<const double> ccoords;
    std::size_t cdims = 0;
    if (cache->probe(q.region, &cobjs, &ccoords, &cdims)) {
      // Hot-result hit: the cached hit-list is the region's exact match
      // set (coverage invalidation guarantees no mutation touched the
      // region since the fill). Cached ids are appended like store
      // hits; only a kTopK query without a RankFn scores them here, by
      // the L-inf bound against THIS query's focus — different queries
      // share a region without sharing a focus. The store is never
      // probed: scanned += 0.
      cache_hit = true;
      if (serve_->options().verify_hits) {
        // Oracle cross-check (verify_hits): re-solve and compare
        // id sets. Sound because the local store's range probe is exact.
        SchemeStore& ss = scheme_store(node, aq.scheme);
        ensure_local_store(ss);
        verify_hits_.clear();
        ss.local.range(ss.entries, q.region, verify_hits_);
        verify_objs_.clear();
        verify_objs_.reserve(verify_hits_.size());
        for (const std::uint32_t ei : verify_hits_) {
          verify_objs_.push_back(ss.entries.object(ei));
        }
        std::sort(verify_objs_.begin(), verify_objs_.end());
        cache_objs_.assign(cobjs.begin(), cobjs.end());
        std::sort(cache_objs_.begin(), cache_objs_.end());
        LMK_CHECK_MSG(cache_objs_ == verify_objs_,
                      "stale result cache hit: cached ids diverge from a "
                      "fresh solve (coverage invalidation bug)");
        serve_->stats().verified_hits += 1;
      }
      evaluated += cobjs.size();
      // lmk-lint: allow(hot-alloc) pooled-buffer capacity warmup
      reply.buf.ids.insert(reply.buf.ids.end(), cobjs.begin(), cobjs.end());
      if (bound_scores) {
        for (std::size_t i = 0; i < cobjs.size(); ++i) {
          // lmk-lint: allow(hot-alloc) pooled-buffer capacity warmup
          reply.buf.scores.push_back(
              index_lower_bound(ccoords.subspan(i * cdims, cdims), q.focus));
        }
      }
      aq.outcome.cache_hits += 1;
    }
  }
  if (!cache_hit) {
    SchemeStore& ss = scheme_store(node, aq.scheme);
    ensure_local_store(ss);
    solve_hits_.clear();
    aq.outcome.scanned += ss.local.range(ss.entries, q.region, solve_hits_);
    evaluated += solve_hits_.size();
    for (const std::uint32_t ei : solve_hits_) {
      // Pooled buffers (reply_pool_): capacity survives release/acquire,
      // so steady-state query traffic grows nothing.
      // lmk-lint: allow(hot-alloc) pooled-buffer capacity warmup
      reply.buf.ids.push_back(ss.entries.object(ei));
      if (bound_scores) {
        // lmk-lint: allow(hot-alloc) pooled-buffer capacity warmup
        reply.buf.scores.push_back(
            index_lower_bound(ss.entries.point(ei), q.focus));
      }
    }
    if (cache != nullptr) {
      // Fill-on-miss: gather the hit-list into flat scratch (copies —
      // extract_if compacts the SoA store, indices held across
      // mutations would dangle) and hand it to the cache.
      const std::size_t dims = q.scheme->dims();
      cache_objs_.clear();
      cache_objs_.reserve(solve_hits_.size());
      cache_coords_.clear();
      cache_coords_.reserve(solve_hits_.size() * dims);
      for (const std::uint32_t ei : solve_hits_) {
        cache_objs_.push_back(ss.entries.object(ei));
        std::span<const double> pt = ss.entries.point(ei);
        cache_coords_.insert(cache_coords_.end(), pt.begin(), pt.end());
      }
      cache->insert(q.region, cache_objs_, cache_coords_, dims);
    }
  }

  aq.outcome.subqueries += 1;
  aq.outcome.hops = std::max(aq.outcome.hops, q.hops);
  aq.outcome.candidates += evaluated;
  std::uint64_t& node_cand = aq.node_candidates[&node];
  node_cand += evaluated;
  aq.outcome.max_node_candidates =
      std::max(aq.outcome.max_node_candidates, node_cand);
  aq.outcome.index_nodes = static_cast<int>(aq.node_candidates.size());
  aq.outstanding -= 1;
  LMK_CHECK(aq.outstanding >= 0);

  if (!reply.flush_scheduled) {
    // One reply per (query, node) per processing step: keep it pending
    // until a zero-delay self event fires, so every subquery this node
    // solves in the same step lands in the same result message.
    reply.flush_scheduled = true;
    aq.replies_pending += 1;
    store_of(node).pending_replies += 1;
    std::uint64_t qid = q.qid;
    ChordNode* node_ptr = &node;
    // Tagged with the node's host so the event queue can account for
    // same-(timestamp, node) tie groups (audit race detector).
    ring_.sim().schedule_after(0, [this, qid, node_ptr]() {
      flush_reply(qid, *node_ptr);
    }, node.host());
  }
}

void IndexPlatform::flush_reply(std::uint64_t qid, ChordNode& node) {
  auto it = active_.find(qid);
  LMK_CHECK(it != active_.end());
  ActiveQuery& aq = it->second;
  auto qit = pending_replies_.find(qid);
  LMK_CHECK(qit != pending_replies_.end());
  auto nit = qit->second.find(&node);
  LMK_CHECK(nit != qit->second.end());
  PendingReply reply = std::move(nit->second);
  qit->second.erase(nit);
  if (qit->second.empty()) pending_replies_.erase(qit);
  NodeStore& ns = store_of(node);
  LMK_CHECK(ns.pending_replies > 0);
  ns.pending_replies -= 1;

  // An entry lying exactly on a split plane belongs to both sibling
  // subqueries (closed regions), so it can be collected twice; both
  // branches drop duplicates so they cannot crowd out distinct ids.
  ReplyBuffer& buf = reply.buf;
  std::vector<std::uint64_t> ids;
  if (aq.mode == ReplyMode::kTopK && buf.ids.size() > opts_.top_k) {
    // Per-node top-k cut (paper: "the 10-nearest local results"): one
    // batch rank call over the reply, then a bounded-heap select.
    if (aq.rank) {
      // lmk-lint: allow(hot-alloc) pooled-buffer capacity warmup
      buf.scores.resize(buf.ids.size());
      aq.rank(buf.ids, buf.scores);
    }
    select_top_k(buf.ids, buf.scores, opts_.top_k, top_k_scratch_);
    ids.reserve(top_k_scratch_.size());
    for (const auto& [score, object] : top_k_scratch_) ids.push_back(object);
  } else {
    // Every candidate ships: scores would go unused, so none are
    // computed.
    std::sort(buf.ids.begin(), buf.ids.end());
    buf.ids.erase(std::unique(buf.ids.begin(), buf.ids.end()),
                  buf.ids.end());
    ids.assign(buf.ids.begin(), buf.ids.end());
  }
  if (reply.pooled) reply_pool_.release(std::move(buf));

  const SchemeRouting& sch = scheme(aq.scheme);
  std::uint64_t bytes =
      sch.result_header_bytes + sch.result_entry_bytes * ids.size();
  aq.outcome.result_messages += 1;
  aq.outcome.result_bytes += bytes;

  // Ship the reply to the querying host.
  ring_.net().send(node.host(), aq.origin, bytes,
                   [this, qid, ids = std::move(ids)]() {
                     auto it2 = active_.find(qid);
                     if (it2 == active_.end()) return;
                     ActiveQuery& a = it2->second;
                     SimTime now = ring_.sim().now();
                     if (!a.got_first_reply) {
                       a.got_first_reply = true;
                       a.outcome.response_time = now - a.t0;
                     }
                     a.outcome.max_latency = now - a.t0;
                     for (std::uint64_t id : ids) {
                       if (a.seen.insert(id).second) {
                         // Per-query result accumulation, freed with
                         // the query — not engine steady state.
                         // lmk-lint: allow(hot-alloc) per-query result set
                         a.outcome.results.push_back(id);
                       }
                     }
                     a.replies_pending -= 1;
                     maybe_complete(qid);
                   },
                   &result_traffic_);
}
// lmk-hot-path-end

void IndexPlatform::maybe_complete(std::uint64_t qid) {
  auto it = active_.find(qid);
  if (it == active_.end()) return;
  ActiveQuery& aq = it->second;
  if (aq.outstanding != 0 || aq.replies_pending != 0) return;
  QueryOutcome outcome = std::move(aq.outcome);
  outcome.complete = true;
  QueryCallback done = std::move(aq.done);
  active_.erase(it);
  done(outcome);
}

std::size_t IndexPlatform::entries_on(const ChordNode& n) const {
  auto it = stores_.find(&n);
  if (it == stores_.end()) return 0;
  std::size_t total = 0;
  for (const auto& ss : it->second.per_scheme) total += ss.entries.size();
  return total;
}

std::vector<std::size_t> IndexPlatform::load_distribution() const {
  std::vector<std::size_t> out;
  for (const ChordNode* n : ring_.alive_nodes()) {
    out.push_back(entries_on(*n));
  }
  return out;
}

void IndexPlatform::drain_all(ChordNode& from, ChordNode& to) {
  NodeStore& src = store_of(from);
  NodeStore& dst = store_of(to);
  for (std::size_t s = 0; s < src.per_scheme.size(); ++s) {
    dst.per_scheme[s].entries.append_moved(src.per_scheme[s].entries);
    ++src.per_scheme[s].version;
    ++dst.per_scheme[s].version;
    // Bulk move: per-point cover tests would scan everything anyway,
    // so both ends' caches are wiped wholesale.
    serve_wipe(from, static_cast<std::uint32_t>(s));
    serve_wipe(to, static_cast<std::uint32_t>(s));
  }
}

void IndexPlatform::transfer_owned(ChordNode& from, ChordNode& to) {
  LMK_CHECK(to.predecessor().valid());
  Id lo = to.predecessor().id;
  Id hi = to.id();
  NodeStore& src = store_of(from);
  NodeStore& dst = store_of(to);
  for (std::size_t s = 0; s < src.per_scheme.size(); ++s) {
    ++src.per_scheme[s].version;
    ++dst.per_scheme[s].version;
    serve_wipe(from, static_cast<std::uint32_t>(s));
    serve_wipe(to, static_cast<std::uint32_t>(s));
    // Stable extraction: entries `to` now owns move over in store
    // order, survivors compact in place. (The old vector store used an
    // unstable std::partition here; store order never reaches query
    // results — replies are sorted and deduped downstream — so the
    // simpler stable order is observably identical.)
    src.per_scheme[s].entries.extract_if(
        [lo, hi](Id key) { return in_open_closed(key, lo, hi); },
        dst.per_scheme[s].entries);
  }
}

Id IndexPlatform::median_key(const ChordNode& n) const {
  LMK_CHECK(n.predecessor().valid());
  Id pred = n.predecessor().id;
  auto it = stores_.find(&n);
  if (it == stores_.end()) return pred;
  // Collect keys in ring order from the predecessor.
  std::vector<Id> offsets;
  for (const auto& ss : it->second.per_scheme) {
    for (std::size_t i = 0; i < ss.entries.size(); ++i) {
      offsets.push_back(clockwise_distance(pred, ss.entries.key(i)));
    }
  }
  if (offsets.empty()) return pred;
  std::sort(offsets.begin(), offsets.end());
  // The split key: the largest entry key in the first half. A node
  // rejoining at pred + offset takes every entry at or below it.
  std::size_t half = offsets.size() / 2;
  if (half == 0) return pred;
  Id split_offset = offsets[half - 1];
  // All entries on one key: the load cannot be divided (paper §4.3).
  if (split_offset == offsets.back() && offsets.front() == offsets.back()) {
    return pred;
  }
  // If the nominal split would take everything, back off to the largest
  // strictly smaller key so the heavy node keeps the top cluster.
  if (split_offset == offsets.back()) {
    auto lower = std::lower_bound(offsets.begin(), offsets.end(),
                                  split_offset);
    LMK_CHECK(lower != offsets.begin());
    split_offset = *(lower - 1);
  }
  return pred + split_offset;
}

LoadBalancer::Hooks IndexPlatform::balancer_hooks() {
  LoadBalancer::Hooks hooks;
  hooks.load = [this](const ChordNode& n) {
    return static_cast<double>(entries_on(n));
  };
  hooks.split_key = [this](const ChordNode& n) { return median_key(n); };
  hooks.drain_to = [this](ChordNode& from, ChordNode& to) {
    drain_all(from, to);
  };
  hooks.pull_owned = [this](ChordNode& from, ChordNode& to) {
    transfer_owned(from, to);
  };
  return hooks;
}

const TrafficCounter& IndexPlatform::query_traffic() const {
  return opts_.routing == RoutingMode::kTree ? router_.traffic()
                                             : naive_.traffic();
}

const EntryStore& IndexPlatform::store(const ChordNode& n,
                                       std::uint32_t scheme) const {
  static const EntryStore kEmpty;
  auto it = stores_.find(&n);
  if (it == stores_.end() || scheme >= it->second.per_scheme.size()) {
    return kEmpty;
  }
  return it->second.per_scheme[scheme].entries;
}

std::size_t IndexPlatform::pending_reply_depth(const ChordNode& n) const {
  auto it = stores_.find(&n);
  return it == stores_.end() ? 0 : it->second.pending_replies;
}

std::uint64_t IndexPlatform::store_bytes() const {
  std::uint64_t total = 0;
  // Integer sum over disjoint stores: commutative, order-free.
  // lmk-lint: iteration-order-independent
  for (const auto& [node, store] : stores_) {
    for (const auto& ss : store.per_scheme) {
      total += ss.entries.memory_bytes();
      total += ss.local.memory_bytes();
    }
  }
  return total;
}

void IndexPlatform::check_placement_invariant() const {
  // Pure assertion sweep: every entry is checked, nothing accumulated.
  // lmk-lint: iteration-order-independent
  for (const auto& [node, store] : stores_) {
    // Dead nodes are skipped: graceful leavers drained to empty, and a
    // crashed node's copies are simply lost (wiped by the next repair).
    if (!node->alive()) continue;
    for (const auto& ss : store.per_scheme) {
      for (std::size_t i = 0; i < ss.entries.size(); ++i) {
        Id key = ss.entries.key(i);
        if (opts_.replication <= 1) {
          LMK_CHECK(node->owns(key));
        } else {
          bool member = false;
          for_each_replica(key, [&](ChordNode& r) { member |= (&r == node); });
          LMK_CHECK(member);
        }
      }
    }
  }
}

void IndexPlatform::repair_replication() {
  // Gather the distinct logical entries per scheme, then rebuild every
  // store with oracle-correct replicated placement. O(total entries);
  // a deployment would repair incrementally, but the end state is the
  // same and this keeps the simulator honest after arbitrary churn.
  struct Logical {
    Id key;
    std::uint64_t object;
    IndexPoint point;
  };
  std::vector<std::vector<Logical>> per_scheme(schemes_.size());
  std::vector<std::unordered_map<std::uint64_t, std::unordered_set<Id>>>
      seen(schemes_.size());
#ifdef LMK_SCHED_MUTATION
  // Mutation-gate bookkeeping (see below): which live nodes held a copy
  // of each logical entry before the rebuild.
  std::vector<std::map<std::pair<std::uint64_t, Id>,
                       std::vector<const ChordNode*>>>
      holders(schemes_.size());
#endif
  // The sweep order decides which replica's copy survives dedup and in
  // what order the rebuilt stores are filled — iterating the
  // pointer-keyed hash map directly would tie both to allocation
  // addresses (ASLR), breaking run-to-run determinism. Sweep in node-id
  // order instead.
  std::vector<std::pair<const ChordNode*, NodeStore*>> sweep;
  sweep.reserve(stores_.size());
  // Collection into the sorted sweep list is order-free.
  // lmk-lint: iteration-order-independent
  for (auto& [node, store] : stores_) {
    sweep.emplace_back(node, &store);
  }
  std::sort(sweep.begin(), sweep.end(),
            [](const auto& a, const auto& b) {
              if (a.first->id() != b.first->id()) {
                return a.first->id() < b.first->id();
              }
              return a.first->host() < b.first->host();
            });
  for (auto& [node, store_ptr] : sweep) {
    NodeStore& store = *store_ptr;
    bool dead = !node->alive();
    for (std::size_t sc = 0; sc < store.per_scheme.size(); ++sc) {
      if (!dead) {
        const EntryStore& es = store.per_scheme[sc].entries;
        for (std::size_t i = 0; i < es.size(); ++i) {
#ifdef LMK_SCHED_MUTATION
          holders[sc][{es.object(i), es.key(i)}].push_back(node);
#endif
          if (seen[sc][es.object(i)].insert(es.key(i)).second) {
            IndexEntry e = es.entry(i);
            per_scheme[sc].push_back(
                Logical{e.key, e.object, std::move(e.point)});
          }
        }
      }
      // Dead stores are purged either way: their copies are lost, and a
      // node reviving later must not resurrect stale data.
      store.per_scheme[sc].entries.clear();
      ++store.per_scheme[sc].version;
      serve_wipe(*node, static_cast<std::uint32_t>(sc));
    }
  }
  for (std::size_t sc = 0; sc < per_scheme.size(); ++sc) {
    for (Logical& l : per_scheme[sc]) {
      for_each_replica(l.key, [&](ChordNode& node) {
#ifdef LMK_SCHED_MUTATION
        // Deliberately broken repair, compiled in only for the
        // lmk-sched mutation gate (scripts/check.sh --sched-smoke):
        // copies are refreshed solely on nodes that already held one,
        // never re-replicated onto a replacement successor. Invisible
        // on a fault-free run (every replica already holds its copy);
        // after a crash the entry silently stays under-replicated,
        // which the explorer must catch as a conservation violation
        // and shrink to a minimal fault plan.
        const auto& held = holders[sc][{l.object, l.key}];
        if (std::find(held.begin(), held.end(), &node) == held.end()) {
          return;
        }
#endif
        entries(node, static_cast<std::uint32_t>(sc))
            .push_back(l.key, l.object, l.point);
      });
    }
  }
}

}  // namespace lmk
