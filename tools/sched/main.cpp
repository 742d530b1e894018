// lmk-sched — schedule & fault exploration gate (DESIGN.md "Schedule
// exploration & fault injection").
//
//   lmk-sched explore [--out FILE]   seed-swarm exploration of the
//                                    canonical churn scenario; exit 1
//                                    and write a minimized .sched
//                                    reproducer when a plan breaks an
//                                    invariant past recovery
//   lmk-sched replay FILE            re-run one .sched plan; exit 1
//                                    when it (still) fails the audit
//
// With the LMK_SCHED_REPLAY environment variable set and no arguments,
// behaves as `replay $LMK_SCHED_REPLAY` — the one-liner for driving a
// committed reproducer from a test harness or CI.
//
// Scenario / swarm knobs (all optional, integers):
//   LMK_SCHED_HOSTS      ring size               (default 24)
//   LMK_SCHED_ENTRIES    indexed objects         (default 240)
//   LMK_SCHED_PLANS      seed-swarm size         (default 16)
//   LMK_SCHED_SEED       first plan seed         (default 1)
//   LMK_SCHED_DIRECTIVES directives per plan     (default 8)
//   LMK_SCHED_SHRINK     shrink run budget       (default 64)
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "audit/explorer.hpp"
#include "common/check.hpp"

namespace {

using lmk::FaultPlan;
using lmk::audit::ExploreOptions;
using lmk::audit::ExploreResult;
using lmk::audit::RunResult;

// Strict, like the benches' env parser: a value that does not parse in
// full ("2k", "-1") stops the run instead of running a different swarm.
std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const unsigned long long n = std::strtoull(v, &end, 10);
  LMK_CHECK_MSG(*v != '-' && end != v && *end == '\0' && errno == 0,
                "%s must be a non-negative integer, got \"%s\"", name, v);
  return n;
}

ExploreOptions options_from_env() {
  ExploreOptions opts;
  opts.hosts = static_cast<std::size_t>(env_u64("LMK_SCHED_HOSTS", 24));
  opts.entries = static_cast<std::size_t>(env_u64("LMK_SCHED_ENTRIES", 240));
  opts.plans = static_cast<std::size_t>(env_u64("LMK_SCHED_PLANS", 16));
  opts.swarm_seed = env_u64("LMK_SCHED_SEED", 1);
  opts.directives =
      static_cast<std::size_t>(env_u64("LMK_SCHED_DIRECTIVES", 8));
  opts.shrink_budget = static_cast<std::size_t>(env_u64("LMK_SCHED_SHRINK", 64));
  return opts;
}

void print_report(const RunResult& run) {
  std::printf("faults: sends=%llu dropped=%llu duplicated=%llu delayed=%llu "
              "reordered=%llu crashes=%llu rejoins=%llu\n",
              static_cast<unsigned long long>(run.stats.sends),
              static_cast<unsigned long long>(run.stats.dropped),
              static_cast<unsigned long long>(run.stats.duplicated),
              static_cast<unsigned long long>(run.stats.delayed),
              static_cast<unsigned long long>(run.stats.reordered),
              static_cast<unsigned long long>(run.stats.crashes),
              static_cast<unsigned long long>(run.stats.rejoins));
  std::printf("%s\n", run.report.summary().c_str());
}

int cmd_explore(const std::string& out_path) {
  const ExploreOptions opts = options_from_env();
  const ExploreResult result = lmk::audit::explore(opts);
  std::printf("lmk-sched explore: %zu scenario runs, baseline sends=%llu\n",
              result.runs,
              static_cast<unsigned long long>(result.baseline_sends));
  if (result.baseline_failed) {
    std::printf("FAIL: fault-free baseline violates invariants: %s\n",
                result.violation.c_str());
    return 1;
  }
  if (!result.found_failure) {
    std::printf("OK: %zu fault plans survived recovery (swarm seeds %llu..%llu)\n",
                opts.plans,
                static_cast<unsigned long long>(opts.swarm_seed),
                static_cast<unsigned long long>(opts.swarm_seed + opts.plans - 1));
    return 0;
  }
  std::printf("FAIL: plan seed %llu breaks recovery: %s\n",
              static_cast<unsigned long long>(result.failing_seed),
              result.violation.c_str());
  std::printf("original plan (%zu directives), minimized to %zu:\n%s",
              result.failing_plan.directives.size(),
              result.minimized.directives.size(),
              result.minimized.to_text().c_str());
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "lmk-sched: cannot write %s\n", out_path.c_str());
    return 2;
  }
  out << result.minimized.to_text();
  std::printf("minimized reproducer written to %s (replay with "
              "`lmk-sched replay %s`)\n",
              out_path.c_str(), out_path.c_str());
  return 1;
}

int cmd_replay(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "lmk-sched: cannot read %s\n", path.c_str());
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();
  FaultPlan plan;
  std::string error;
  if (!FaultPlan::parse(text.str(), &plan, &error)) {
    std::fprintf(stderr, "lmk-sched: %s: %s\n", path.c_str(), error.c_str());
    return 2;
  }
  const RunResult run = lmk::audit::run_scenario(options_from_env(), plan);
  std::printf("lmk-sched replay %s: %s\n", path.c_str(),
              run.failed ? "FAIL (invariants violated past recovery)" : "OK");
  print_report(run);
  return run.failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    const char* replay = std::getenv("LMK_SCHED_REPLAY");
    if (replay != nullptr && *replay != '\0') return cmd_replay(replay);
    std::fprintf(stderr,
                 "usage: lmk-sched explore [--out FILE] | lmk-sched replay "
                 "FILE\n   or: LMK_SCHED_REPLAY=FILE lmk-sched\n");
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "explore") {
    std::string out_path = "minimized.sched";
    for (int i = 2; i + 1 < argc; ++i) {
      if (std::string(argv[i]) == "--out") out_path = argv[i + 1];
    }
    return cmd_explore(out_path);
  }
  if (cmd == "replay" && argc >= 3) return cmd_replay(argv[2]);
  std::fprintf(stderr, "lmk-sched: unknown command '%s'\n", cmd.c_str());
  return 2;
}
