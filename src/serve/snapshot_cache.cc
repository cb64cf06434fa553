#include "serve/snapshot_cache.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "config/diff.h"
#include "core/policy_spec.h"

namespace cpr::serve {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

void FnvMix(uint64_t* hash, std::string_view bytes) {
  for (char c : bytes) {
    *hash ^= static_cast<unsigned char>(c);
    *hash *= kFnvPrime;
  }
  // Length separator so {"ab","c"} and {"a","bc"} hash differently.
  *hash ^= bytes.size();
  *hash *= kFnvPrime;
}

// The policy file contributes only its topology-affecting lines to the key:
// waypoint-link annotations change the built Network, policy checks do not.
std::string AnnotationLines(const std::string& policy_text) {
  std::istringstream in(policy_text);
  std::string line;
  std::string annotations;
  while (std::getline(in, line)) {
    size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos) {
      continue;
    }
    if (line.compare(start, 13, "waypoint-link") == 0) {
      annotations += line.substr(start);
      annotations.push_back('\n');
    }
  }
  return annotations;
}

}  // namespace

SnapshotCache::SnapshotCache(size_t capacity, obs::Registry* registry)
    : capacity_(capacity == 0 ? 1 : capacity),
      registry_(registry != nullptr ? registry : &obs::Registry::Global()) {}

uint64_t SnapshotCache::SnapshotKey(const std::vector<std::string>& config_texts,
                                    const std::string& policy_text) {
  uint64_t hash = kFnvOffset;
  for (const std::string& text : config_texts) {
    FnvMix(&hash, text);
  }
  FnvMix(&hash, AnnotationLines(policy_text));
  return hash;
}

size_t SnapshotCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

void SnapshotCache::Touch(std::list<Entry>::iterator it) {
  lru_.splice(lru_.begin(), lru_, it);
}

Result<Snapshot> SnapshotCache::GetOrBuildSnapshot(
    const std::string& source, const std::vector<std::string>& config_texts,
    const std::string& policy_text) {
  const uint64_t key = SnapshotKey(config_texts, policy_text);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = by_key_.find(key);
    if (it != by_key_.end()) {
      registry_->counter("serve.cache.hits").Increment();
      Touch(it->second);
      last_key_by_source_[source] = key;
      return Snapshot{it->second->cpr, it->second->compression};
    }
    registry_->counter("serve.cache.misses").Increment();

    // Differ-driven invalidation: this source previously mapped to another
    // snapshot. If that snapshot is still cached, measure what changed and
    // evict it — it is superseded, not merely cold.
    auto last = last_key_by_source_.find(source);
    if (last != last_key_by_source_.end() && last->second != key) {
      auto stale = by_key_.find(last->second);
      if (stale != by_key_.end()) {
        const Entry& old = *stale->second;
        if (old.config_texts == config_texts) {
          // Same configs, different annotations/policy: the differ reports
          // zero changed lines, but topology inputs changed so the entry
          // cannot be reused. Count it separately — it signals clients
          // editing policies, not configs.
          registry_->counter("serve.cache.diff_reuse").Increment();
        } else {
          int64_t changed = 0;
          size_t devices = std::min(old.config_texts.size(), config_texts.size());
          for (size_t i = 0; i < devices; ++i) {
            changed += DiffConfigText(old.config_texts[i], config_texts[i]).total();
          }
          registry_->counter("serve.cache.diff_lines_changed").Add(changed);
        }
        registry_->counter("serve.cache.invalidations").Increment();
        std::list<Entry>::iterator victim = stale->second;
        by_key_.erase(stale);
        lru_.erase(victim);
      }
    }
  }

  // Build outside the lock: annotations first (they seed Network::Build),
  // then the full pipeline.
  Result<NetworkAnnotations> annotations = ParseSpecAnnotations(policy_text);
  if (!annotations.ok()) {
    return annotations.error();
  }
  Result<Cpr> built = Cpr::FromConfigTexts(config_texts, std::move(annotations).value());
  if (!built.ok()) {
    return built.error();
  }
  auto cpr = std::make_shared<const Cpr>(std::move(built).value());
  auto compression = std::make_shared<compress::CompressionCache>();

  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_key_.find(key);
  if (it != by_key_.end()) {
    // A racing request built the same snapshot first; adopt its entry.
    Touch(it->second);
    last_key_by_source_[source] = key;
    return Snapshot{it->second->cpr, it->second->compression};
  }
  while (lru_.size() >= capacity_) {
    registry_->counter("serve.cache.evictions").Increment();
    by_key_.erase(lru_.back().key);
    lru_.pop_back();
  }
  lru_.push_front(Entry{key, source, cpr, compression, config_texts});
  by_key_[key] = lru_.begin();
  last_key_by_source_[source] = key;
  return Snapshot{std::move(cpr), std::move(compression)};
}

}  // namespace cpr::serve
