#include "util/failpoint.h"

#ifdef RDFC_FAILPOINTS

#include <cstdlib>

#include "util/bytes.h"

namespace rdfc {
namespace util {

namespace {

/// FNV-1a over the site name; XORed into the configure seed so every site
/// gets an independent, reproducible PRNG stream.
std::uint64_t SiteHash(const std::string& site) { return Fnv1a(site); }

}  // namespace

FailpointRegistry& FailpointRegistry::Instance() {
  static FailpointRegistry* registry = new FailpointRegistry();
  return *registry;
}

Status FailpointRegistry::Configure(const std::string& spec,
                                    std::uint64_t seed) {
  MutexLock lock(&mu_);
  sites_.clear();
  seed_ = seed;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("failpoint entry needs site=prob: " +
                                     entry);
    }
    const std::string site = entry.substr(0, eq);
    char* parse_end = nullptr;
    const double prob = std::strtod(entry.c_str() + eq + 1, &parse_end);
    if (parse_end == entry.c_str() + eq + 1 || *parse_end != '\0' ||
        prob < 0.0 || prob > 1.0) {
      return Status::InvalidArgument("failpoint probability must be in [0,1]: " +
                                     entry);
    }
    Site site_state;
    site_state.probability = prob;
    site_state.engine.seed(seed ^ SiteHash(site));
    sites_[site] = std::move(site_state);
  }
  return Status::OK();
}

void FailpointRegistry::Reset() {
  MutexLock lock(&mu_);
  sites_.clear();
}

bool FailpointRegistry::ShouldFail(const char* site) {
  MutexLock lock(&mu_);
  auto it = sites_.find(site);
  if (it == sites_.end()) {
    // Track evaluations of unconfigured sites too, so schedules can assert
    // a site was reached even when it never fires.
    Site fresh;
    fresh.engine.seed(seed_ ^ SiteHash(site));
    it = sites_.emplace(site, std::move(fresh)).first;
  }
  Site& s = it->second;
  ++s.evaluated;
  if (s.probability <= 0.0) return false;
  const bool fire =
      std::uniform_real_distribution<double>(0.0, 1.0)(s.engine) <
      s.probability;
  if (fire) ++s.fired;
  return fire;
}

std::uint64_t FailpointRegistry::FiredCount(const std::string& site) const {
  MutexLock lock(&mu_);
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.fired;
}

std::uint64_t FailpointRegistry::EvaluatedCount(
    const std::string& site) const {
  MutexLock lock(&mu_);
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.evaluated;
}

}  // namespace util
}  // namespace rdfc

#endif  // RDFC_FAILPOINTS
