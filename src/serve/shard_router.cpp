#include "serve/shard_router.hpp"

#include <algorithm>
#include <stdexcept>

namespace autolearn::serve {

void ShardRouterConfig::check(ConfigIssues& out) const {
  if (shards == 0) {
    out.emplace_back("router.shards", "must be >= 1");
  }
  if (replicas == 0) {
    out.emplace_back("router.replicas", "must be >= 1");
  }
}

std::uint64_t hash_mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double expected_remap_fraction(std::size_t from, std::size_t to) {
  if (from == to || from == 0 || to == 0) return 0.0;
  const std::size_t hi = std::max(from, to);
  const std::size_t delta = hi - std::min(from, to);
  return static_cast<double>(delta) / static_cast<double>(hi);
}

std::vector<ShardRouter::Point> ShardRouter::points_for(
    const ShardRouterConfig& config, std::size_t shard) {
  std::vector<Point> points;
  points.reserve(config.replicas);
  const std::uint64_t shard_seed = hash_mix(config.salt ^ (shard + 1));
  for (std::size_t r = 0; r < config.replicas; ++r) {
    points.push_back({hash_mix(shard_seed ^ (r + 1)), shard});
  }
  return points;
}

ShardRouter::ShardRouter(ShardRouterConfig config) : config_(config) {
  require_valid(config_);
  ring_.reserve(config_.shards * config_.replicas);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    const std::vector<Point> points = points_for(config_, s);
    ring_.insert(ring_.end(), points.begin(), points.end());
  }
  std::sort(ring_.begin(), ring_.end(), [](const Point& a, const Point& b) {
    if (a.hash != b.hash) return a.hash < b.hash;
    return a.shard < b.shard;  // collision tie-break, still deterministic
  });
  alive_.assign(config_.shards, true);
  alive_count_ = config_.shards;
}

bool ShardRouter::alive(std::size_t shard) const {
  if (shard >= config_.shards) {
    throw std::out_of_range("ShardRouter::alive: bad shard index");
  }
  return alive_[shard];
}

void ShardRouter::set_alive(std::size_t shard, bool alive) {
  if (shard >= config_.shards) {
    throw std::out_of_range("ShardRouter::set_alive: bad shard index");
  }
  if (alive_[shard] == alive) return;
  alive_[shard] = alive;
  alive_count_ += alive ? 1 : std::size_t(-1);
}

void ShardRouter::resize(std::size_t shards) {
  if (shards == 0) {
    throw ConfigError("router.shards", "resize target must be >= 1");
  }
  if (shards == config_.shards) return;
  const auto less = [](const Point& a, const Point& b) {
    if (a.hash != b.hash) return a.hash < b.hash;
    return a.shard < b.shard;
  };
  if (shards > config_.shards) {
    // Grow: merge the new shards' points into the sorted ring. The
    // incumbents' points are untouched, so only keys whose first live
    // point is now one of the inserts change owner.
    for (std::size_t s = config_.shards; s < shards; ++s) {
      std::vector<Point> points = points_for(config_, s);
      std::sort(points.begin(), points.end(), less);
      std::vector<Point> merged;
      merged.reserve(ring_.size() + points.size());
      std::merge(ring_.begin(), ring_.end(), points.begin(), points.end(),
                 std::back_inserter(merged), less);
      ring_ = std::move(merged);
      alive_.push_back(true);
      ++alive_count_;
    }
  } else {
    // Shrink: retire the top indices wholesale. A retired shard's points
    // leave the ring whether it was alive or dead, so a dead shard can
    // never be "scaled back in" by a later grow — regrowth readmits the
    // index with the same points but a fresh (live) state.
    ring_.erase(std::remove_if(ring_.begin(), ring_.end(),
                               [shards](const Point& p) {
                                 return p.shard >= shards;
                               }),
                ring_.end());
    for (std::size_t s = shards; s < config_.shards; ++s) {
      if (alive_[s]) --alive_count_;
    }
    alive_.resize(shards);
  }
  config_.shards = shards;
}

std::size_t ShardRouter::shard_for(std::uint64_t key) const {
  if (alive_count_ == 0) {
    throw std::logic_error("ShardRouter::shard_for: no live shard");
  }
  const std::uint64_t h = hash_mix(key ^ config_.salt);
  // First ring point at or after h, then walk clockwise to a live shard.
  std::size_t idx =
      static_cast<std::size_t>(
          std::lower_bound(ring_.begin(), ring_.end(), h,
                           [](const Point& p, std::uint64_t v) {
                             return p.hash < v;
                           }) -
          ring_.begin());
  for (std::size_t step = 0; step < ring_.size(); ++step) {
    const Point& p = ring_[(idx + step) % ring_.size()];
    if (alive_[p.shard]) return p.shard;
  }
  throw std::logic_error("ShardRouter::shard_for: ring walk found no shard");
}

std::vector<std::size_t> ShardRouter::mapping(std::uint64_t n) const {
  std::vector<std::size_t> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t key = 0; key < n; ++key) {
    out.push_back(shard_for(key));
  }
  return out;
}

}  // namespace autolearn::serve
