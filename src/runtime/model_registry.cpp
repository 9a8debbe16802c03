#include "runtime/model_registry.hpp"

#include <utility>
#include <vector>

#include "runtime/artifact.hpp"
#include "util/fault_injection.hpp"

namespace problp::runtime {

std::shared_ptr<const CompiledModel> ModelRegistry::get(const std::string& path) {
  // Peeking reads only the header, so identity resolution never maps an
  // artifact that is already resident.
  const ArtifactInfo info = MappedArtifact::peek(path);
  const std::uint64_t key = info.content_hash;
  const std::uint64_t bytes = info.file_size;

  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (std::shared_ptr<const CompiledModel> live = it->second.model.lock()) {
      ++hits_;
      it->second.lru_tick = ++tick_;
      if (!it->second.pin) {
        // Re-pin an evicted-but-still-referenced model: it is hot again.
        it->second.pin = live;
        enforce_cap_locked(key);
      }
      return live;
    }
    entries_.erase(it);  // the last session died; the mapping is gone
  }

  ++misses_;
  // Fault site: the cold load fails mid-get (unreadable file, corrupt
  // artifact).  It throws before any entry is inserted, so the table — and
  // every resident model — is untouched; a later get() of the same path
  // simply retries the load.
  if (util::fault_point("registry.load")) {
    throw Error("model registry: injected load failure for " + path);
  }
  std::shared_ptr<const CompiledModel> model = CompiledModel::load(path, options_.model_options);
  Entry entry;
  entry.model = model;
  entry.pin = model;
  entry.bytes = bytes;
  entry.lru_tick = ++tick_;
  entries_[key] = std::move(entry);
  enforce_cap_locked(key);
  return model;
}

void ModelRegistry::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [key, entry] : entries_) {
    if (entry.pin) {
      entry.pin.reset();
      ++evictions_;
    }
  }
}

ModelRegistry::Stats ModelRegistry::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  for (const auto& [key, entry] : entries_) {
    if (entry.pin) s.resident_bytes += entry.bytes;
    if (!entry.model.expired()) ++s.live_models;
  }
  return s;
}

void ModelRegistry::enforce_cap_locked(std::uint64_t keep_hash) {
  if (options_.max_resident_bytes == 0) return;
  std::uint64_t resident = 0;
  for (const auto& [key, entry] : entries_) {
    if (entry.pin) resident += entry.bytes;
  }
  while (resident > options_.max_resident_bytes) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (!it->second.pin || it->first == keep_hash) continue;
      if (victim == entries_.end() || it->second.lru_tick < victim->second.lru_tick) victim = it;
    }
    if (victim == entries_.end()) break;  // only the protected model remains pinned
    resident -= victim->second.bytes;
    victim->second.pin.reset();  // sessions holding the model keep it alive
    ++evictions_;
  }
}

}  // namespace problp::runtime
