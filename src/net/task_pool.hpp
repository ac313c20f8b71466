// Elastic worker pool: the reactor's message handlers, and the compute
// server's granted jobs.
//
// The reactor thread must never block, so every decoded frame is handed to a
// pool task. Most handlers (ping, query, metrics, cancel, a solve that only
// joins the admission queue) finish in microseconds and are served by the
// core threads; a solve handler that finds a free slot computes the job on
// its own thread, so the pool grows on demand: a submit that finds no idle
// worker spawns a new thread up to `max_threads`. Grown threads are kept (not
// retired) — thread lifetime then has exactly two states, started and
// joined-in-stop, which keeps shutdown races impossible by construction
// (every thread is joined exactly once by stop()).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ns::net {

class TaskPool {
 public:
  TaskPool() = default;
  ~TaskPool() { stop(); }

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Spawn `core_threads` workers now (0 = none until the first submit);
  /// grow lazily up to `max_threads`.
  void start(int core_threads, int max_threads);

  /// Queue a task. Returns false (task dropped) after stop() has begun —
  /// callers treat that exactly like a connection that closed mid-dispatch.
  bool submit(std::function<void()> task);

  /// Drain nothing: pending tasks are dropped, running tasks finish, all
  /// threads are joined. Idempotent.
  void stop();

  std::size_t thread_count() const;

 private:
  void worker_loop();
  void spawn_locked();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  std::size_t idle_ = 0;
  std::size_t max_threads_ = 0;
  bool started_ = false;
  bool stopping_ = false;
};

}  // namespace ns::net
