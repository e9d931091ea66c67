#include "serve/health.hpp"

#include <stdexcept>
#include <utility>

namespace autolearn::serve {

void HealthOptions::check(ConfigIssues& out) const {
  if (check_interval_s <= 0.0) {
    out.emplace_back("health.check_interval_s", "must be > 0");
  }
  if (timeout_s <= 0.0) {
    out.emplace_back("health.timeout_s", "must be > 0");
  }
}

HealthMonitor::HealthMonitor(util::EventQueue& queue, HealthOptions options)
    : queue_(queue), options_(options) {
  require_valid(options_);
}

std::size_t HealthMonitor::add_shard(std::string site) {
  Entry e;
  e.site = std::move(site);
  e.last_ok = queue_.now();
  shards_.push_back(std::move(e));
  return shards_.size() - 1;
}

void HealthMonitor::retire(std::size_t shard) {
  if (shard >= shards_.size()) {
    throw std::out_of_range("HealthMonitor::retire: bad shard index");
  }
  shards_[shard].retired = true;
}

void HealthMonitor::readmit(std::size_t shard, bool alive_now) {
  if (shard >= shards_.size()) {
    throw std::out_of_range("HealthMonitor::readmit: bad shard index");
  }
  Entry& e = shards_[shard];
  e.retired = false;
  e.alive = alive_now;
  e.last_ok = queue_.now();
}

bool HealthMonitor::retired(std::size_t shard) const {
  if (shard >= shards_.size()) {
    throw std::out_of_range("HealthMonitor::retired: bad shard index");
  }
  return shards_[shard].retired;
}

void HealthMonitor::start(double horizon_s) {
  if (started_) throw std::logic_error("HealthMonitor::start: call once");
  started_ = true;
  horizon_s_ = horizon_s;
  const double now = queue_.now();
  for (Entry& e : shards_) e.last_ok = now;
  const double first = now + options_.check_interval_s;
  if (first <= horizon_s_) {
    queue_.schedule_at(first, [this] { sweep(); });
  }
}

bool HealthMonitor::alive(std::size_t shard) const {
  if (shard >= shards_.size()) {
    throw std::out_of_range("HealthMonitor::alive: bad shard index");
  }
  return shards_[shard].alive;
}

const std::string& HealthMonitor::site(std::size_t shard) const {
  if (shard >= shards_.size()) {
    throw std::out_of_range("HealthMonitor::site: bad shard index");
  }
  return shards_[shard].site;
}

void HealthMonitor::sweep() {
  const double now = queue_.now();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Entry& e = shards_[s];
    if (e.retired) continue;
    const bool reachable = probe_ ? probe_(e.site, now) : true;
    if (reachable) {
      e.last_ok = now;
      if (!e.alive) {
        e.alive = true;
        ++ups_;
        transition(s, /*up=*/true);
        if (on_up_) on_up_(s);
      }
    } else if (e.alive && now - e.last_ok >= options_.timeout_s) {
      e.alive = false;
      ++downs_;
      transition(s, /*up=*/false);
      if (on_down_) on_down_(s);
    }
  }
  const double next = now + options_.check_interval_s;
  if (next <= horizon_s_) {
    queue_.schedule_at(next, [this] { sweep(); });
  }
}

void HealthMonitor::transition(std::size_t shard, bool up) {
  if (metrics_) {
    metrics_->counter(up ? "serve.health.ups" : "serve.health.downs").inc();
  }
  if (tracer_) {
    util::Json args = util::Json::object();
    args.set("shard", util::Json(shard));
    args.set("site", util::Json(shards_[shard].site));
    tracer_->instant(up ? "serve.shard_up" : "serve.shard_down", "serve",
                     std::move(args));
  }
}

}  // namespace autolearn::serve
