#include "serve/batcher.hpp"

#include <limits>
#include <utility>

#include "serve/errors.hpp"

namespace autolearn::serve {

void BatcherConfig::check(ConfigIssues& out) const {
  if (max_batch == 0) {
    out.emplace_back("batcher.max_batch", "must be >= 1");
  }
  if (max_delay_s < 0.0) {
    out.emplace_back("batcher.max_delay_s", "must be >= 0");
  }
}

DynamicBatcher::DynamicBatcher(BatcherConfig config)
    : config_(config) {
  require_valid(config_);
}

void DynamicBatcher::push(ServeRequest request) {
  queue_.push_back(std::move(request));
}

double DynamicBatcher::deadline() const {
  if (queue_.empty()) return std::numeric_limits<double>::infinity();
  return queue_.front().t_arrive + config_.max_delay_s;
}

bool DynamicBatcher::ready(double now) const {
  if (queue_.empty()) return false;
  return full() || now >= deadline();
}

std::vector<ServeRequest> DynamicBatcher::take() {
  const std::size_t n = std::min(queue_.size(), config_.max_batch);
  std::vector<ServeRequest> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  return out;
}

std::vector<ServeRequest> DynamicBatcher::drain() {
  std::vector<ServeRequest> out;
  out.reserve(queue_.size());
  while (!queue_.empty()) {
    out.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  return out;
}

}  // namespace autolearn::serve
