#include "util/event_queue.hpp"

#include <algorithm>
#include <stdexcept>

namespace autolearn::util {

void EventQueue::schedule_at(SimTime t, Callback cb) {
  if (t < now_) {
    throw std::invalid_argument("EventQueue: cannot schedule in the past");
  }
  events_.push_back(Event{t, next_seq_++, std::move(cb)});
  std::push_heap(events_.begin(), events_.end(), Later{});
}

void EventQueue::schedule_in(SimTime delay, Callback cb) {
  schedule_at(now_ + delay, std::move(cb));
}

bool EventQueue::step() {
  if (events_.empty()) return false;
  std::pop_heap(events_.begin(), events_.end(), Later{});
  Event ev = std::move(events_.back());
  events_.pop_back();
  now_ = ev.time;
  ev.cb();
  return true;
}

std::size_t EventQueue::run(std::size_t limit) {
  std::size_t n = 0;
  while (n < limit && step()) ++n;
  return n;
}

std::size_t EventQueue::run_until(SimTime t) {
  std::size_t n = 0;
  while (!events_.empty() && events_.front().time <= t) {
    step();
    ++n;
  }
  if (t > now_) now_ = t;
  return n;
}

SimTime EventQueue::next_time() const {
  if (events_.empty()) throw std::logic_error("EventQueue: empty");
  return events_.front().time;
}

}  // namespace autolearn::util
