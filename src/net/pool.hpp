// Client-side connection reuse: a keep-alive pool and a pipelining channel.
//
// Before this layer every call in the system — netsl solves, agent queries,
// workload reports, federation syncs — dialed a fresh TCP connection and
// tore it down after one round trip. The pool removes that per-call setup:
//
//   ConnectionPool::lease()    exclusive keep-alive connection for classic
//                              one-request/one-reply exchanges (agent
//                              queries, reports, metrics scrapes). Dial on
//                              miss, idle timeout, strict drain-or-discard:
//                              a connection is only returned for reuse after
//                              a *complete* successful round trip. Any
//                              failure — including a reply racing a deadline
//                              expiry, which leaves half a frame in flight —
//                              discards the connection instead of leaking
//                              the stale bytes to the next leaseholder.
//
//   ConnectionPool::channel()  shared MuxChannel for request-id-tagged calls
//                              (SOLVE, CANCEL, PROBE, TRANSFER). Many calls
//                              pipeline over one socket: frames interleave
//                              in flight and a reader thread demultiplexes
//                              replies by the request id in the first eight
//                              payload bytes, handing each to its call's
//                              completion. No call holds a thread while it
//                              waits: netsl_nb calls and hedges share the
//                              socket, and a hedge loser's CANCEL is a
//                              frame posted with no waiter. A transport-
//                              level error (reset, CRC damage, mid-frame
//                              stall) poisons the channel: every pending
//                              call fails retryably, the channel is
//                              evicted, and the next call redials.
//
// Fault-injection parity: leases and channel dials consult
// FaultInjector::on_connect even on a pool hit (the pool is a dial cache —
// an armed connect fault must fire whether or not a warm connection
// exists), and every send goes through net::send_message, so per-frame
// fault plans and link shaping behave exactly as they did on fresh dials.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "net/endpoint.hpp"
#include "net/shaped_link.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"

namespace ns::net {

struct PoolConfig {
  /// Idle connections older than this are dropped at lease/release time.
  /// Keep it comfortably below the server/agent reactor idle timeout (10 s)
  /// so the client discards before the peer does.
  double idle_timeout_s = 2.5;
  /// Idle connections kept per endpoint beyond which release() discards.
  std::size_t max_idle_per_endpoint = 8;
  /// Client-role frame cap applied to every pooled reply (lease round trips
  /// and mux reader alike) before the payload is buffered. Oversized claims
  /// count in net.guard.oversized_total and poison/discard the connection.
  std::size_t max_frame_bytes = kClientMaxFrameBytes;
};

class ConnectionPool;

/// Exclusive lease of one pooled connection (move-only RAII). Destruction
/// without release() discards the connection — that is the drain-or-discard
/// rule: only a caller that consumed its complete reply may hand the stream
/// to the next leaseholder.
class PooledConn {
 public:
  PooledConn() = default;
  ~PooledConn();
  PooledConn(PooledConn&& other) noexcept { *this = std::move(other); }
  PooledConn& operator=(PooledConn&& other) noexcept;
  PooledConn(const PooledConn&) = delete;
  PooledConn& operator=(const PooledConn&) = delete;

  TcpConnection& conn() noexcept { return conn_; }
  /// True if this lease came from the pool (vs a fresh dial).
  bool reused() const noexcept { return reused_; }
  /// Return the connection for reuse. Only call after a complete round trip.
  void release();
  /// Drop the connection now (bytes may be in flight; it must never be
  /// reused). Also what the destructor does.
  void discard();

 private:
  friend class ConnectionPool;
  ConnectionPool* pool_ = nullptr;
  TcpConnection conn_;
  std::string key_;
  bool reused_ = false;
};

/// One pipelined connection to one endpoint, shared by concurrent callers.
class MuxChannel {
 public:
  /// Receives a call's reply frame, or the error that ended it. It runs
  /// exactly once, outside the channel's lock: on the reader thread when the
  /// matching reply arrives or the channel dies, or inline in start() when
  /// the channel is already dead or the send fails. It should only hand the
  /// frame over (decode on the waiting thread, so a big reply never holds up
  /// the channel's other replies), and must not own the channel: the reader
  /// thread cannot join itself.
  using Completion = std::function<void(Result<Message>)>;

  ~MuxChannel();

  /// Send a request frame; `done` receives the reply whose (reply_type,
  /// request_id) matches. Concurrent calls interleave on the socket. An
  /// empty `done` posts the frame with no waiter: a reply to it is read whole
  /// and dropped. Transport errors poison the channel: every waiter fails
  /// and callers redial through the pool.
  void start(std::uint16_t request_type, const serial::Bytes& payload,
             std::uint16_t reply_type, std::uint64_t request_id, const LinkShape& shape,
             Completion done);

  /// Withdraw a call's waiter (its caller timed out). True: the completion
  /// will never run, and a late reply is read whole and dropped, so the
  /// stream stays framed. False: the completion has run or is running.
  bool abandon(std::uint64_t request_id, std::uint16_t reply_type);

  bool healthy() const;
  const Endpoint& remote() const noexcept { return remote_; }

 private:
  friend class ConnectionPool;
  MuxChannel(TcpConnection conn, Endpoint remote);

  void reader_loop();
  /// Reader exit: fail every waiter still registered with the death error.
  void fail_waiters();
  void poison(const Error& why);

  TcpConnection conn_;
  Endpoint remote_;
  std::mutex send_mu_;

  mutable std::mutex mu_;
  std::map<std::pair<std::uint64_t, std::uint16_t>, Completion> waiters_;
  bool dead_ = false;
  Error death_;
  std::thread reader_;
};

using MuxChannelPtr = std::shared_ptr<MuxChannel>;

class ConnectionPool {
 public:
  /// Process-wide pool (clients, servers and agents in one test process all
  /// share it; endpoints keep their traffic apart).
  static ConnectionPool& instance();

  void configure(const PoolConfig& config);
  PoolConfig config() const;

  /// Exclusive connection to `remote`: pooled if warm, dialed on miss.
  Result<PooledConn> lease(const Endpoint& remote, double dial_timeout_s);

  /// Shared pipelining channel to `remote`; replaces a poisoned one.
  Result<MuxChannelPtr> channel(const Endpoint& remote, double dial_timeout_s);

  /// Record a transport-level BUSY from `remote`: until `retry_after_s`
  /// elapses, lease() and channel() to it fail fast with a retryable
  /// kServerOverloaded instead of dialing into a shedding accept governor.
  void note_busy(const Endpoint& remote, double retry_after_s);

  /// Drop idle connections and channels for `remote` (or all).
  void evict(const Endpoint& remote);
  void clear();

  std::size_t idle_count() const;

 private:
  friend class PooledConn;

  struct IdleConn {
    TcpConnection conn;
    double since = 0.0;
  };

  void give_back(const std::string& key, TcpConnection conn);
  /// Fails fast (retryable) while `key` is inside a noted busy window.
  Status check_busy_window(const std::string& key);

  mutable std::mutex mu_;
  PoolConfig config_;
  std::map<std::string, std::deque<IdleConn>> idle_;
  std::map<std::string, MuxChannelPtr> channels_;
  /// Endpoint -> monotonic instant until which dials fail fast (transport
  /// BUSY honoring). Cleared with evict()/clear() so a restarted test
  /// cluster is immediately reachable again.
  std::map<std::string, double> busy_until_;
};

/// One-request/one-reply over a pooled lease. Dial-on-miss, strict
/// drain-or-discard on any failure. `expect_type` 0 accepts any reply type.
Result<Message> pool_round_trip(const Endpoint& remote, std::uint16_t type,
                                const serial::Bytes& payload, double timeout_s,
                                double dial_timeout_s,
                                const LinkShape& shape = LinkShape::unshaped());

/// Fire-and-forget over a pooled lease (the peer never replies on this
/// exchange, so the stream stays clean for the next leaseholder).
Status pool_post(const Endpoint& remote, std::uint16_t type, const serial::Bytes& payload,
                 double dial_timeout_s, const LinkShape& shape = LinkShape::unshaped());

}  // namespace ns::net
