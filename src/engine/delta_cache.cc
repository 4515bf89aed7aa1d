#include "src/engine/delta_cache.h"

namespace wukongs {

uint64_t DeltaCache::InvalidateAllLocked() {
  uint64_t retired = contributions_.size() + (prefix_valid_ ? 1 : 0);
  contributions_.clear();
  prefix_valid_ = false;
  prefix_ = ColumnarTable();
  return retired;
}

void DeltaCache::BeginTrigger(SnapshotNum stored_version, SnapshotNum snapshot,
                              BatchSeq lo, BatchSeq hi) {
  std::lock_guard lock(mu_);
  // Everything cached was built at a snapshot >= flushed_at_, and every
  // trigger since saw no read-predicate edge visible above flushed_at_: the
  // stored graph the tables joined against is the one at flushed_at_. A
  // version above it is an edge they may lack — including one injected
  // above Stable_SN, invisible when the tables were built and visible now.
  if (must_flush_ || stored_version > flushed_at_) {
    if (InvalidateAllLocked() > 0) {
      ++stats_.epoch_flushes;
    }
    flushed_at_ = snapshot;
    must_flush_ = false;
  }
  // Retire contributions the window slid past (and, defensively, anything
  // ahead of it — a regressing trigger time never serves future slices).
  for (auto it = contributions_.begin(); it != contributions_.end();) {
    if (it->first < lo || it->first > hi) {
      it = contributions_.erase(it);
      ++stats_.invalidations;
    } else {
      ++it;
    }
  }
}

void DeltaCache::MarkStoredGraphChanged() {
  std::lock_guard lock(mu_);
  must_flush_ = true;
}

void DeltaCache::SetPlanVersion(uint64_t version) {
  std::lock_guard lock(mu_);
  // The first call is always a plan change: entries cached so far were built
  // under the registration's implicit first plan, which never announces
  // itself here. The counter records the re-keying *event*, not retired
  // entries (invalidations counts those) — the cutover audit needs "was the
  // cache re-keyed at this version bump" to hold even when the cache happened
  // to be empty at that instant.
  if (!plan_version_set_ || version != plan_version_) {
    ++stats_.plan_flushes;
    InvalidateAllLocked();
  }
  plan_version_ = version;
  plan_version_set_ = true;
}

bool DeltaCache::GetPrefix(ColumnarTable* out) const {
  std::lock_guard lock(mu_);
  if (!prefix_valid_) {
    return false;
  }
  *out = prefix_;
  return true;
}

void DeltaCache::PutPrefix(const ColumnarTable& table) {
  std::lock_guard lock(mu_);
  prefix_ = table;
  prefix_valid_ = true;
}

bool DeltaCache::GetContribution(BatchSeq seq, ColumnarTable* out) {
  std::lock_guard lock(mu_);
  auto it = contributions_.find(seq);
  if (it == contributions_.end()) {
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  *out = it->second;
  return true;
}

void DeltaCache::PutContribution(BatchSeq seq, const ColumnarTable& table) {
  std::lock_guard lock(mu_);
  contributions_[seq] = table;
}

uint64_t DeltaCache::InvalidateBelow(BatchSeq min_live_seq) {
  std::lock_guard lock(mu_);
  uint64_t retired = 0;
  auto it = contributions_.begin();
  while (it != contributions_.end() && it->first < min_live_seq) {
    it = contributions_.erase(it);
    ++retired;
  }
  stats_.invalidations += retired;
  return retired;
}

uint64_t DeltaCache::InvalidateAll() {
  std::lock_guard lock(mu_);
  uint64_t retired = InvalidateAllLocked();
  stats_.invalidations += retired;
  return retired;
}

DeltaCache::Stats DeltaCache::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

size_t DeltaCache::EntryCount() const {
  std::lock_guard lock(mu_);
  return contributions_.size();
}

size_t DeltaCache::MemoryBytes() const {
  std::lock_guard lock(mu_);
  size_t bytes = prefix_valid_ ? prefix_.MemoryBytes() : 0;
  for (const auto& [seq, table] : contributions_) {
    (void)seq;
    bytes += sizeof(BatchSeq) + table.MemoryBytes();
  }
  return bytes;
}

}  // namespace wukongs
