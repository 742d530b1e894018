#include "balance/migration.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/check.hpp"

namespace lmk {

LoadBalancer::LoadBalancer(Ring& ring, Options opts, Hooks hooks)
    : ring_(ring), opts_(opts), hooks_(std::move(hooks)) {
  LMK_CHECK_MSG(hooks_.load != nullptr, "load hook not supplied");
  LMK_CHECK_MSG(hooks_.split_key != nullptr, "split_key hook not supplied");
  LMK_CHECK_MSG(hooks_.drain_to != nullptr, "drain_to hook not supplied");
  LMK_CHECK_MSG(hooks_.pull_owned != nullptr, "pull_owned hook not supplied");
  LMK_CHECK_MSG(opts_.probe_level >= 1, "probe_level %d must be >= 1",
                opts_.probe_level);
}

std::vector<ChordNode*> LoadBalancer::probe_set(ChordNode& n) const {
  // Membership test only: the BFS order comes from `frontier`, never
  // from iterating `seen`.
  // lmk-lint: allow(pointer-key-unordered)
  std::unordered_set<ChordNode*> seen{&n};
  std::vector<ChordNode*> frontier{&n};
  std::vector<ChordNode*> out;
  // Once `out` is full nothing more can join it, so the size test comes
  // before the hash lookup and the BFS stops at the first full node.
  const auto full = [&] { return out.size() >= opts_.max_probe_set; };
  for (int level = 0; level < opts_.probe_level && !frontier.empty();
       ++level) {
    std::vector<ChordNode*> next;
    for (ChordNode* cur : frontier) {
      auto consider = [&](const NodeRef& r) {
        if (full() || !r.valid() || seen.count(r.node) != 0) return;
        seen.insert(r.node);
        out.push_back(r.node);
        next.push_back(r.node);
      };
      for (const NodeRef& s : cur->successor_list()) consider(s);
      for (const NodeRef& f : cur->finger_table()) consider(f);
      NodeRef p = cur->predecessor();
      consider(p);
      if (full()) return out;
    }
    frontier = std::move(next);
  }
  return out;
}

bool LoadBalancer::try_migrate(ChordNode& heavy) {
  std::vector<ChordNode*> probes = probe_set(heavy);
  if (probes.empty()) return false;
  double my_load = hooks_.load(heavy);
  double total = 0;
  ChordNode* lightest = nullptr;
  double lightest_load = 0;
  for (ChordNode* p : probes) {
    double l = hooks_.load(*p);
    total += l;
    if (lightest == nullptr || l < lightest_load) {
      lightest = p;
      lightest_load = l;
    }
  }
  double avg = total / static_cast<double>(probes.size());
  if (my_load <= avg * (1.0 + opts_.delta)) return false;
  // Migrating is only useful if the victim ends up with less than half
  // of the heavy node's load; otherwise we would just swap the hotspot.
  if (lightest_load >= my_load / 2.0) return false;
  LMK_CHECK_MSG(lightest != nullptr,
                "no migration victim among %zu probes of node %016llx "
                "at t=%lld",
                probes.size(),
                static_cast<unsigned long long>(heavy.id()),
                static_cast<long long>(ring_.sim().now()));
  if (lightest == &heavy) return false;
  // The victim must not be the heavy node's current predecessor with no
  // load to shed, and a split key equal to an existing id is nudged.
  Id split = hooks_.split_key(heavy);
  if (!in_open(split, heavy.predecessor().id, heavy.id())) {
    return false;  // degenerate range (e.g. all entries on one key)
  }
  // Collision probe stands in for the paper's out-of-band lookup
  // before the victim rejoins at the split point.
  // lmk-lint: allow(cross-node-touch) modeled out-of-band control plane
  ChordNode* occupied = ring_.oracle_successor(split);
  while (occupied->id() == split) {
    ++split;  // avoid identifier collisions with existing nodes
    if (!in_open(split, heavy.predecessor().id, heavy.id())) return false;
    // lmk-lint: allow(cross-node-touch) same collision probe, next id
    occupied = ring_.oracle_successor(split);
  }
  // Victim leaves: its entries drain to its successor.
  ChordNode* victim_succ = lightest->successor().node;
  if (victim_succ == nullptr || victim_succ == &heavy) {
    // Draining into the heavy node would defeat the purpose unless the
    // victim is empty; allow only the trivial case.
    if (hooks_.load(*lightest) > 0 && victim_succ == &heavy) return false;
  }
  hooks_.drain_to(*lightest, *victim_succ);
  ring_.leave(*lightest);
  // ...and rejoins as the heavy node's predecessor at the split point.
  ring_.rejoin(*lightest, split);
  hooks_.pull_owned(heavy, *lightest);
  ++migrations_;
  return true;
}

int LoadBalancer::run_round() {
  int migrated = 0;
  // Deterministic sweep; each migration immediately repairs the local
  // neighbourhood, so later nodes in the sweep see fresh state.
  // The round driver models the balancer's global probe schedule,
  // not a single node's handler.
  // lmk-lint: allow(cross-node-touch) round driver, not a handler
  for (ChordNode* n : ring_.alive_nodes()) {
    if (!n->alive()) continue;  // may have migrated earlier this round
    if (try_migrate(*n)) ++migrated;
  }
  // Let finger tables catch up with the membership changes (stand-in
  // for the background fix-finger rounds that would run between probes).
  // lmk-lint: allow(cross-node-touch) stand-in for fix-finger rounds
  if (migrated > 0) ring_.refresh_all_fingers();
  return migrated;
}

int LoadBalancer::run_until_stable(int max_rounds) {
  int total = 0;
  for (int r = 0; r < max_rounds; ++r) {
    int m = run_round();
    total += m;
    if (m == 0) break;
  }
  return total;
}

}  // namespace lmk
