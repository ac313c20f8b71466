#include "net/task_pool.hpp"

#include <algorithm>
#include <utility>

namespace ns::net {

void TaskPool::start(int core_threads, int max_threads) {
  std::lock_guard lock(mu_);
  if (started_) return;
  started_ = true;
  stopping_ = false;
  core_threads = std::max(core_threads, 0);
  max_threads = std::max({max_threads, core_threads, 1});
  max_threads_ = static_cast<std::size_t>(max_threads);
  threads_.reserve(static_cast<std::size_t>(core_threads));
  for (int i = 0; i < core_threads; ++i) spawn_locked();
}

void TaskPool::spawn_locked() {
  threads_.emplace_back([this] { worker_loop(); });
}

bool TaskPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mu_);
    if (!started_ || stopping_) return false;
    queue_.push_back(std::move(task));
    // Grow whenever queued demand exceeds the workers parked to serve it
    // (bounded), so a burst of blocking solve handlers cannot strand later
    // control messages (cancels, pings) behind them. Demand-vs-idle, not
    // idle==0: a burst submitted before the just-notified workers wake still
    // counts them as idle, and with no further submits the excess tasks
    // would otherwise sit queued behind the blocked core threads forever.
    if (queue_.size() > idle_ && threads_.size() < max_threads_) spawn_locked();
  }
  cv_.notify_one();
  return true;
}

void TaskPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      ++idle_;
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      --idle_;
      if (stopping_) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void TaskPool::stop() {
  std::vector<std::thread> joinable;
  {
    std::lock_guard lock(mu_);
    if (!started_) return;
    stopping_ = true;
    queue_.clear();
    joinable.swap(threads_);
    started_ = false;
  }
  cv_.notify_all();
  for (auto& t : joinable) {
    if (t.joinable()) t.join();
  }
}

std::size_t TaskPool::thread_count() const {
  std::lock_guard lock(mu_);
  return threads_.size();
}

}  // namespace ns::net
