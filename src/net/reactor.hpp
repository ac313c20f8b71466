// Event-driven transport core: a non-blocking epoll reactor.
//
// One reactor thread owns the listening socket, an epoll set, and every
// accepted connection's read side. Complete frames are decoded on the
// reactor thread (multiple frames per read — pipelined peers are the point)
// and dispatched to an elastic TaskPool (net/task_pool.hpp), so a long
// handler (a solve computing on the thread that admitted it) never stalls
// the loop or any other connection. This replaces the thread-per-connection accept
// loops the server and agent shipped with: connection count no longer costs
// a thread, and an accepted-but-idle keep-alive connection costs one fd and
// two small buffers.
//
// Writes are buffered per connection and flushed with writev scatter-gather
// (frame header and payload are separate iovecs — no per-send frame
// assembly copy). Handlers call ReactorConn::send() from pool threads; the
// fast path writes directly to the socket when the queue is empty, the slow
// path queues and lets the reactor finish under EPOLLOUT. Link shaping is
// honoured by stamping each queued chunk with a release time (token-bucket
// pacing computed at enqueue, served by the epoll timeout) instead of
// sleeping — a shaped reply never blocks a thread.
//
// Fault-injection parity: net/fault.hpp's send-side faults (reset, stall,
// corrupt, partition) are applied at enqueue time with the same
// peer-then-local endpoint lookup as net::send_message, so every chaos test
// scripted against the thread-per-connection transport observes identical
// failure surfaces on the reactor.
//
// Shutdown discipline (what TSan holds us to): stop() closes the listener,
// marks every connection closing, joins the reactor thread, then stops the
// pool (joining every worker). Handlers hold shared_ptr<ReactorConn>, so a
// connection closed under them stays valid memory; sends after close fail
// with kConnectionClosed.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "net/shaped_link.hpp"
#include "net/socket.hpp"
#include "net/task_pool.hpp"
#include "net/transport.hpp"
#include "serial/frame.hpp"

namespace ns::net {

class Reactor;

/// Resource-governance budgets for one reactor endpoint. Every limit exists
/// because a hostile (or merely broken) peer can otherwise spend the
/// process's memory, fds, or loop time: a header claiming a giant payload, a
/// byte-drip slowloris, a peer that never reads its replies, a connection
/// flood. Every enforcement decision increments a net.guard.* counter so an
/// operator can tell load-shedding from failure. Defaults are sized for a
/// compute server (large matrix blobs are legitimate); agents — metadata-only
/// endpoints — use agent_defaults().
struct GuardConfig {
  /// Largest payload a peer may claim in a frame header. Enforced at
  /// header-decode time, before any payload accumulates, so an oversized
  /// claim costs kHeaderSize bytes, not an allocation.
  std::size_t max_frame_bytes = serial::kMaxPayload;
  /// Per-connection buffered-byte budget (unconsumed read bytes + queued
  /// write bytes). The write side is what bites: a peer that stops reading
  /// while handlers keep replying gets its connection dropped instead of
  /// growing an unbounded queue. Raised to fit max_frame_bytes if smaller.
  std::size_t max_conn_buffer_bytes = 256ull << 20;  // 256 MiB
  /// Process-global buffered-byte ceiling across all connections. When
  /// exceeded the largest-buffered connection is shed; when merely hot
  /// (≥ 7/8) new dials are shed with a transport BUSY.
  std::size_t max_total_buffer_bytes = 1ull << 30;  // 1 GiB
  /// A started frame (read side) must finish within this window, and a
  /// non-empty write queue must drain some bytes within it. Not refreshed by
  /// drip progress — that is the slowloris defence. Shaped (paced) writes
  /// don't count against the peer. 0 disables.
  double frame_progress_timeout_s = 30.0;
  /// Accepted-connection cap. At the cap the accept path first tries to
  /// evict the least-recently-active idle connection (no in-flight handler
  /// or hold(), empty write queue); if nothing is evictable the dial is shed with a
  /// transport BUSY frame carrying retry_after_s.
  std::size_t max_connections = 1024;
  /// Back-off hint stamped into transport BUSY frames.
  double retry_after_s = 0.25;

  /// Budgets for a metadata-only endpoint: queries, registrations and
  /// reports are all small, so the agent caps frames at 1 MiB and keeps a
  /// tighter memory budget.
  static GuardConfig agent_defaults() {
    GuardConfig g;
    g.max_frame_bytes = 1u << 20;          // 1 MiB
    g.max_conn_buffer_bytes = 16u << 20;   // 16 MiB
    g.max_total_buffer_bytes = 64u << 20;  // 64 MiB
    return g;
  }
};

/// One accepted connection, shared between the reactor (reads, flushes) and
/// handler threads (sends). Handlers may hold the pointer across blocking
/// work and reply whenever ready — replies from concurrent handlers
/// interleave at frame granularity, which is what makes multiple in-flight
/// requests per connection (demuxed by request id on the client) work.
class ReactorConn : public std::enable_shared_from_this<ReactorConn> {
 public:
  /// A second handle to this connection that also keeps it exempt from the
  /// idle sweep and LRU eviction until the handle (and every copy of it) is
  /// dropped — the same protection a running handler gets. Work that owes
  /// the peer a reply after its handler returned (a queued solve) takes one
  /// before the handler returns and drops it once the reply is queued.
  std::shared_ptr<ReactorConn> hold();

  /// Queue one framed message. Thread-safe; applies armed fault plans and
  /// link shaping. Fails with kConnectionClosed once the connection is
  /// closing (handlers treat that like the old synchronous send failing).
  /// The payload is taken by value and moved into the write queue, so a
  /// reply built as a temporary is queued without a copy.
  Status send(std::uint16_t type, serial::Bytes payload,
              const LinkShape& shape = LinkShape::unshaped());

  /// Close after flushing queued writes; pending reads are dropped.
  void close();

  bool closed() const noexcept { return closing_.load(std::memory_order_acquire); }

  const Endpoint& peer() const noexcept { return peer_; }
  const Endpoint& local() const noexcept { return local_; }

 private:
  friend class Reactor;

  struct Chunk {
    serial::Bytes data;
    std::size_t offset = 0;
    double not_before = 0.0;  // monotonic seconds; 0 = immediately
  };

  explicit ReactorConn(Reactor* reactor, int fd) : reactor_(reactor), fd_(fd) {}

  Reactor* reactor_;
  int fd_;
  Endpoint peer_;
  Endpoint local_;

  // Read side: reactor thread only.
  serial::Bytes rdbuf_;
  std::size_t rd_consumed_ = 0;
  /// When the oldest unconsumed (partial) frame started arriving; 0 = no
  /// partial frame pending. Deliberately NOT refreshed on drip progress —
  /// refreshing is exactly what a slowloris exploits. Reactor thread only.
  double frame_start_ = 0.0;

  // Write side: shared, guarded by wr_mu_.
  std::mutex wr_mu_;
  std::deque<Chunk> wrq_;
  std::size_t wr_bytes_ = 0;         // unsent bytes across wrq_ (guard budget)
  double last_write_progress_ = 0.0; // refreshed when the socket accepts bytes
  double pace_until_ = 0.0;  // shaped-link token bucket (monotonic seconds)
  bool want_write_ = false;  // EPOLLOUT currently armed (reactor bookkeeping)

  std::atomic<bool> closing_{false};
  /// Running handlers plus outstanding hold()s; nonzero exempts the
  /// connection from the idle sweep and LRU eviction.
  std::atomic<int> inflight_{0};
  std::atomic<double> last_activity_{0.0};
  /// rd-unconsumed + wr-queued bytes, mirrored into the reactor's global
  /// total. Atomic so the accept governor and global-budget sweep can read
  /// it without taking wr_mu_ across every connection.
  std::atomic<std::size_t> buffered_bytes_{0};
};

using ReactorConnPtr = std::shared_ptr<ReactorConn>;

struct ReactorConfig {
  /// Core handler threads; the pool grows on demand (a solve handler that
  /// finds a free slot computes the job on its own thread) up to
  /// max_workers.
  int workers = 4;
  int max_workers = 256;
  /// Close connections with no traffic, no in-flight handler and no hold()
  /// for this long. Keep-alive peers must send something (or redial)
  /// within it.
  double idle_timeout_s = 10.0;
  /// Run handlers on the loop thread instead of dispatching to the pool.
  /// Only for services whose every handler is short and non-blocking (the
  /// agent: metadata lookups) — it saves two context switches per request,
  /// but one blocking handler would stall every connection. Servers keep
  /// pool dispatch (a solve handler may run the job it admitted).
  bool inline_handlers = false;
  /// Hostile-peer / resource-exhaustion budgets (see GuardConfig).
  GuardConfig guard;
};

class Reactor {
 public:
  /// Handler for one complete, CRC-valid frame; runs on a pool thread.
  /// Return false to close the connection (protocol violation / shutdown).
  using MessageHandler = std::function<bool(const ReactorConnPtr&, Message&&)>;

  Reactor() = default;
  ~Reactor() { stop(); }

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Take ownership of a bound listener and serve it until stop().
  Status start(TcpListener listener, MessageHandler handler, ReactorConfig config = {});

  /// Close listener + every connection, join the loop and all workers.
  /// Safe to call twice; safe to call without start().
  void stop();

  /// Stop accepting new connections without stopping the loop — an injected
  /// server crash must release its port immediately, but the crashing
  /// handler runs on a pool thread and cannot join the pool. Asynchronous:
  /// the loop thread closes the listener on its next wakeup.
  void stop_accepting();

  Endpoint endpoint() const { return listener_.endpoint(); }
  bool running() const noexcept { return running_.load(std::memory_order_acquire); }
  std::size_t connection_count() const;
  /// Bytes currently buffered across every connection (reads + writes).
  std::size_t buffered_bytes() const noexcept {
    return total_buffered_.load(std::memory_order_relaxed);
  }

 private:
  friend class ReactorConn;

  void loop();
  void handle_accept();
  void handle_readable(const ReactorConnPtr& conn);
  void drain_frames(const ReactorConnPtr& conn);
  /// Flush as much of the write queue as the socket and pacing allow.
  /// Returns the earliest not_before still pending (0 = none).
  double flush_writes(const ReactorConnPtr& conn);
  void finish_close(const ReactorConnPtr& conn);
  void notify_dirty(const ReactorConnPtr& conn);
  void wake();
  void sweep_idle(double now);
  /// Kill connections that violate guard budgets/deadlines (loop thread).
  void sweep_guard(double now);
  /// While the global buffered-byte total exceeds its budget, shed the
  /// largest-buffered connection (loop thread).
  void enforce_global_budget();
  /// Evict the least-recently-active idle connection to make room at the
  /// connection cap; false if nothing is evictable (loop thread).
  bool evict_lru_idle();
  /// Best-effort transport BUSY frame + close on a just-accepted fd.
  void shed_accepted_fd(int fd);
  void track_buffered(ReactorConn& conn, std::ptrdiff_t delta);

  TcpListener listener_;
  MessageHandler handler_;
  ReactorConfig config_;
  TaskPool pool_;

  FdHandle epoll_fd_;
  FdHandle wake_fd_;  // eventfd: send-enqueue / close / stop wakeups
  /// Held open so an EMFILE-exhausted accept path can momentarily free a
  /// descriptor, accept the pending dial, and close it — shedding instead of
  /// letting the level-triggered listener event wedge the loop.
  FdHandle reserve_fd_;

  std::thread loop_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> close_listener_{false};

  /// Effective per-connection budget (config, raised to fit max_frame_bytes).
  std::size_t conn_budget_ = 0;
  /// Guard sweep cadence: 1 s, tightened when frame_progress_timeout_s is
  /// sub-second so kills land promptly.
  double sweep_period_s_ = 1.0;
  /// After a persistent (unclassified) accept error the listener is pulled
  /// from the epoll set until this instant — a broken listener must never
  /// busy-spin the loop. 0 = armed.
  double accept_paused_until_ = 0.0;

  std::atomic<std::size_t> total_buffered_{0};

  mutable std::mutex conns_mu_;
  std::vector<ReactorConnPtr> conns_;

  std::mutex dirty_mu_;
  std::vector<std::weak_ptr<ReactorConn>> dirty_;
};

}  // namespace ns::net
