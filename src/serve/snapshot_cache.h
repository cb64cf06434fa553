// Cross-request cache of built pipelines (parsed configs + HARC).
//
// Building a Cpr is the daemon's per-request fixed cost: parse every router
// configuration, build the Network, run Algorithm 1 to get the HARC. A
// monitoring loop that re-submits the same snapshot every few seconds pays
// it once here. Entries are keyed by a content hash of the configuration
// texts plus the policy file's waypoint annotations (annotations are inputs
// to topology construction, so two requests differing only in policy
// *checks* share an entry — the "diff reuse" counter tracks that win).
//
// Invalidation is driven by the config differ: when a source (config_dir)
// comes back with a different hash, the old entry is diffed against the new
// texts — the daemon learns how many lines actually changed — and evicted
// eagerly rather than waiting for LRU pressure, since a superseded snapshot
// will never be requested again.
//
// Thread safety: lookups and inserts take one mutex; building happens
// OUTSIDE the lock so a slow build never stalls other requests. Two racing
// builders of the same key both build and the loser adopts the winner's
// entry (wasted work, never a wrong result).

#ifndef CPR_SRC_SERVE_SNAPSHOT_CACHE_H_
#define CPR_SRC_SERVE_SNAPSHOT_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "compress/compress.h"
#include "core/cpr.h"
#include "netbase/result.h"
#include "obs/metrics.h"

namespace cpr::serve {

// A cached snapshot: the built pipeline plus its compression cache (base
// partition + per-pin-signature quotients, compress/compress.h). The
// compression cache shares the entry's lifetime, so differ-driven
// invalidation drops stale quotients together with the stale HARC.
struct Snapshot {
  std::shared_ptr<const Cpr> cpr;
  std::shared_ptr<compress::CompressionCache> compression;
};

class SnapshotCache {
 public:
  // `registry` receives the serve.cache.* counters (hits, misses,
  // evictions, invalidations, diff_reuse, diff_lines_changed). Defaults to
  // the process-global registry — cache behavior is a daemon-level signal,
  // not a per-request one.
  explicit SnapshotCache(size_t capacity, obs::Registry* registry = nullptr);

  // Returns the pipeline and compression cache for this snapshot, building
  // them on a miss. `source` identifies where the snapshot came from (the
  // request's config_dir) and anchors differ-driven invalidation.
  Result<Snapshot> GetOrBuildSnapshot(const std::string& source,
                                      const std::vector<std::string>& config_texts,
                                      const std::string& policy_text);

  size_t size() const;

  // Content hash: FNV-1a over the config texts and the policy file's
  // waypoint-link lines. Exposed for tests.
  static uint64_t SnapshotKey(const std::vector<std::string>& config_texts,
                              const std::string& policy_text);

 private:
  struct Entry {
    uint64_t key = 0;
    std::string source;
    std::shared_ptr<const Cpr> cpr;
    std::shared_ptr<compress::CompressionCache> compression;
    std::vector<std::string> config_texts;  // Kept for the invalidation diff.
  };

  void Touch(std::list<Entry>::iterator it);

  const size_t capacity_;
  obs::Registry* registry_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // Front = most recent.
  std::map<uint64_t, std::list<Entry>::iterator> by_key_;
  std::map<std::string, uint64_t> last_key_by_source_;
};

}  // namespace cpr::serve

#endif  // CPR_SRC_SERVE_SNAPSHOT_CACHE_H_
