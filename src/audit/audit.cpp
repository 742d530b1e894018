#include "audit/audit.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace lmk::audit {

std::string strformat(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::va_list copy;
  va_copy(copy, args);
  int len = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out;
  if (len > 0) {
    out.resize(static_cast<std::size_t>(len));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  }
  va_end(args);
  return out;
}

std::string Violation::to_string() const {
  std::string who =
      node_known
          ? strformat("node=%016llx", static_cast<unsigned long long>(node))
          : std::string("node=<network>");
  return strformat("[%s] %s t=%lld: %s", invariant.c_str(), who.c_str(),
                   static_cast<long long>(at), detail.c_str());
}

void AuditReport::merge(AuditReport other) {
  checks += other.checks;
  violations.insert(violations.end(),
                    std::make_move_iterator(other.violations.begin()),
                    std::make_move_iterator(other.violations.end()));
}

std::string AuditReport::summary() const {
  std::string out = strformat("audit: %zu violation(s), %llu check(s)",
                              violations.size(),
                              static_cast<unsigned long long>(checks));
  std::size_t shown = std::min<std::size_t>(violations.size(), 8);
  for (std::size_t i = 0; i < shown; ++i) {
    out += "\n  " + violations[i].to_string();
  }
  if (shown < violations.size()) {
    out += strformat("\n  ... and %zu more", violations.size() - shown);
  }
  return out;
}

std::vector<ChordNode*> alive_by_id(const Ring& ring) {
  std::vector<ChordNode*> nodes = ring.alive_nodes();
  std::sort(nodes.begin(), nodes.end(),
            [](const ChordNode* a, const ChordNode* b) {
              return a->id() < b->id();
            });
  return nodes;
}

bool audit_env_enabled() {
  // lmk-lint: allow(env-read) the auditor attaches to any run
  const char* v = std::getenv("LMK_AUDIT");
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

}  // namespace lmk::audit
