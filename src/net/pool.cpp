#include "net/pool.hpp"

#include <errno.h>
#include <sys/socket.h>

#include <algorithm>
#include <cstdlib>

#include "common/clock.hpp"
#include "common/memgov.hpp"
#include "common/metrics.hpp"
#include "net/fault.hpp"
#include "serial/frame.hpp"

namespace ns::net {

namespace {

/// Reply frames that can be demultiplexed carry the request id as their
/// first encoded field (u64 little-endian) — SolveResult, CancelAck,
/// ProbeReply and TransferAck all do.
std::uint64_t peek_request_id(const serial::Bytes& payload) {
  if (payload.size() < 8) return 0;
  std::uint64_t id = 0;
  for (std::size_t i = 0; i < 8; ++i) id |= static_cast<std::uint64_t>(payload[i]) << (8 * i);
  return id;
}

/// Mid-frame silence longer than this poisons a channel. Legitimate gaps
/// inside one frame are pacing gaps (≤ 64 KiB / bandwidth, milliseconds on
/// the shaped profiles) — compute time happens *before* a reply frame
/// starts, never in the middle of one. A stall fault is exactly mid-frame
/// silence, and one second bounds how long it can poison a shared channel.
constexpr double kMidFrameProgressTimeout = 1.0;

/// A cached idle connection is reusable only if it is silent and open: a
/// pending EOF means the peer's idle sweep closed it while it sat in the
/// pool, and pending *bytes* mean a previous leaseholder left part of a
/// reply in flight (it should have been discarded, but a racing late frame
/// can still land after release). Either way, reuse would hand the next
/// caller a broken stream — drop it.
bool idle_conn_usable(const TcpConnection& conn) {
  std::uint8_t byte = 0;
  const ssize_t n = ::recv(conn.native_handle(), &byte, 1, MSG_PEEK | MSG_DONTWAIT);
  if (n == 0) return false;                                  // peer closed
  if (n > 0) return false;                                   // stray bytes
  return errno == EAGAIN || errno == EWOULDBLOCK;            // silent + open
}

}  // namespace

// ---- PooledConn ----

PooledConn::~PooledConn() { discard(); }

PooledConn& PooledConn::operator=(PooledConn&& other) noexcept {
  if (this != &other) {
    discard();
    pool_ = std::exchange(other.pool_, nullptr);
    conn_ = std::move(other.conn_);
    key_ = std::move(other.key_);
    reused_ = other.reused_;
  }
  return *this;
}

void PooledConn::release() {
  if (pool_ != nullptr && conn_.valid()) {
    pool_->give_back(key_, std::move(conn_));
  }
  pool_ = nullptr;
  conn_.close();
}

void PooledConn::discard() {
  if (pool_ != nullptr && conn_.valid()) {
    metrics::counter("net.pool.discarded_total").inc();
  }
  pool_ = nullptr;
  conn_.close();
}

// ---- ConnectionPool ----

ConnectionPool& ConnectionPool::instance() {
  // The pool object is deliberately leaked (threads of leaked channels may
  // outlive static destructors), but its *contents* are reaped at exit:
  // destroying the channels joins their reader threads, so a process that
  // never redialed a poisoned endpoint doesn't exit with unjoined threads.
  static ConnectionPool* pool = new ConnectionPool();
  static const int reap_at_exit = std::atexit([] { instance().clear(); });
  (void)reap_at_exit;
  return *pool;
}

void ConnectionPool::configure(const PoolConfig& config) {
  std::lock_guard lock(mu_);
  config_ = config;
}

PoolConfig ConnectionPool::config() const {
  std::lock_guard lock(mu_);
  return config_;
}

Status ConnectionPool::check_busy_window(const std::string& key) {
  std::lock_guard lock(mu_);
  auto it = busy_until_.find(key);
  if (it == busy_until_.end()) return ok_status();
  if (now_seconds() >= it->second) {
    busy_until_.erase(it);
    return ok_status();
  }
  metrics::counter("net.pool.busy_fastfail_total").inc();
  // Retryable like an application-level overload shed: the caller's backoff
  // loop absorbs it, and — same as kServerOverloaded from the admission
  // queue — it must never be failure-reported against a healthy server.
  return make_error(ErrorCode::kServerOverloaded, "endpoint in transport busy window");
}

void ConnectionPool::note_busy(const Endpoint& remote, double retry_after_s) {
  metrics::counter("net.pool.busy_noted_total").inc();
  std::lock_guard lock(mu_);
  auto& until = busy_until_[remote.to_string()];
  until = std::max(until, now_seconds() + std::max(0.0, retry_after_s));
}

Result<PooledConn> ConnectionPool::lease(const Endpoint& remote, double dial_timeout_s) {
  // The pool is a dial cache: an armed connect fault fires whether or not a
  // warm connection exists, so chaos scripts see identical failure surfaces.
  if (FaultInjector::instance().armed()) {
    NS_RETURN_IF_ERROR(FaultInjector::instance().on_connect(remote));
  }

  const std::string key = remote.to_string();
  NS_RETURN_IF_ERROR(check_busy_window(key));
  {
    std::lock_guard lock(mu_);
    auto it = idle_.find(key);
    if (it != idle_.end()) {
      const double now = now_seconds();
      auto& dq = it->second;
      while (!dq.empty()) {
        IdleConn cand = std::move(dq.front());
        dq.pop_front();
        if (now - cand.since > config_.idle_timeout_s) continue;  // stale, drop
        if (!idle_conn_usable(cand.conn)) continue;  // peer closed / dirty stream
        PooledConn lease;
        lease.pool_ = this;
        lease.conn_ = std::move(cand.conn);
        lease.key_ = key;
        lease.reused_ = true;
        metrics::counter("net.pool.hits_total").inc();
        return lease;
      }
      idle_.erase(it);
    }
  }

  metrics::counter("net.pool.misses_total").inc();
  // on_connect already consulted above; dial raw (connect() would roll the
  // fault a second time for one logical dial).
  auto conn = TcpConnection::connect_raw(remote, dial_timeout_s);
  if (!conn.ok()) return conn.error();
  PooledConn lease;
  lease.pool_ = this;
  lease.conn_ = std::move(conn.value());
  lease.key_ = key;
  lease.reused_ = false;
  return lease;
}

void ConnectionPool::give_back(const std::string& key, TcpConnection conn) {
  std::lock_guard lock(mu_);
  auto& dq = idle_[key];
  const double now = now_seconds();
  while (!dq.empty() && (dq.size() >= config_.max_idle_per_endpoint ||
                         now - dq.front().since > config_.idle_timeout_s)) {
    dq.pop_front();
  }
  if (dq.size() >= config_.max_idle_per_endpoint) return;
  dq.push_back(IdleConn{std::move(conn), now});
}

Result<MuxChannelPtr> ConnectionPool::channel(const Endpoint& remote, double dial_timeout_s) {
  if (FaultInjector::instance().armed()) {
    NS_RETURN_IF_ERROR(FaultInjector::instance().on_connect(remote));
  }
  const std::string key = remote.to_string();
  NS_RETURN_IF_ERROR(check_busy_window(key));
  {
    std::lock_guard lock(mu_);
    auto it = channels_.find(key);
    if (it != channels_.end()) {
      if (it->second->healthy()) return it->second;
      channels_.erase(it);  // poisoned: evict, redial below
      metrics::counter("net.mux.evicted_total").inc();
    }
  }
  auto conn = TcpConnection::connect_raw(remote, dial_timeout_s);
  if (!conn.ok()) return conn.error();
  auto channel = MuxChannelPtr(new MuxChannel(std::move(conn.value()), remote));
  std::lock_guard lock(mu_);
  auto it = channels_.find(key);
  if (it != channels_.end() && it->second->healthy()) return it->second;
  channels_[key] = channel;
  return channel;
}

void ConnectionPool::evict(const Endpoint& remote) {
  std::lock_guard lock(mu_);
  idle_.erase(remote.to_string());
  channels_.erase(remote.to_string());
  busy_until_.erase(remote.to_string());
}

void ConnectionPool::clear() {
  std::lock_guard lock(mu_);
  idle_.clear();
  channels_.clear();
  busy_until_.clear();
}

std::size_t ConnectionPool::idle_count() const {
  std::lock_guard lock(mu_);
  std::size_t n = 0;
  for (const auto& [key, dq] : idle_) n += dq.size();
  return n;
}

// ---- MuxChannel ----

MuxChannel::MuxChannel(TcpConnection conn, Endpoint remote)
    : conn_(std::move(conn)), remote_(std::move(remote)) {
  reader_ = std::thread([this] {
    reader_loop();
    fail_waiters();
  });
}

MuxChannel::~MuxChannel() {
  {
    std::lock_guard lock(mu_);
    if (!dead_) death_ = make_error(ErrorCode::kConnectionClosed, "mux channel closed");
    dead_ = true;
  }
  conn_.shutdown_both();
  if (reader_.joinable()) reader_.join();
}

bool MuxChannel::healthy() const {
  std::lock_guard lock(mu_);
  return !dead_;
}

void MuxChannel::poison(const Error& why) {
  {
    std::lock_guard lock(mu_);
    if (dead_) return;
    dead_ = true;
    death_ = why;
  }
  // Wake the reader (and fail its current read) without freeing the fd: a
  // concurrent reader must never race a recycled descriptor number. The
  // reader fails the remaining waiters on its way out.
  conn_.shutdown_both();
  metrics::counter("net.mux.poisoned_total").inc();
}

void MuxChannel::fail_waiters() {
  decltype(waiters_) orphans;
  Error why;
  {
    // dead_ is set, so start() registers nothing after this swap.
    std::lock_guard lock(mu_);
    orphans.swap(waiters_);
    why = death_;
  }
  for (auto& [key, done] : orphans) done(why);
}

void MuxChannel::start(std::uint16_t request_type, const serial::Bytes& payload,
                       std::uint16_t reply_type, std::uint64_t request_id,
                       const LinkShape& shape, Completion done) {
  const auto key = std::make_pair(request_id, reply_type);
  {
    std::unique_lock lock(mu_);
    if (dead_ || (done && !waiters_.try_emplace(key, std::move(done)).second)) {
      // try_emplace leaves `done` intact when the key is taken.
      const Error why =
          dead_ ? death_ : make_error(ErrorCode::kInternal, "request id already in flight");
      lock.unlock();
      if (done) done(why);
      return;
    }
  }

  // The header's CRC pass over the payload runs before send_mu_, so
  // concurrent callers serialize only on the socket write. An armed fault
  // plan takes send_message's whole-frame path under the lock instead.
  const bool armed = FaultInjector::instance().armed();
  std::uint8_t header[serial::kHeaderSize];
  if (!armed) serial::encode_frame_header(request_type, payload, header);
  Status sent = ok_status();
  {
    // Serialize senders: frames must hit the stream whole. Fault plans and
    // shaping apply exactly as on a dedicated connection.
    std::lock_guard lock(send_mu_);
    sent = armed ? send_message(conn_, request_type, payload, shape)
                 : send_framed(conn_, header, payload, shape);
  }
  if (sent.ok()) return;
  decltype(waiters_)::node_type mine;
  {
    std::lock_guard lock(mu_);
    mine = waiters_.extract(key);
  }
  // A send-side failure (injected reset, peer gone) leaves the stream in
  // an unknown state: poison so every sharer redials.
  poison(sent.error());
  if (mine) mine.mapped()(sent.error());
}

bool MuxChannel::abandon(std::uint64_t request_id, std::uint16_t reply_type) {
  std::lock_guard lock(mu_);
  return waiters_.erase(std::make_pair(request_id, reply_type)) > 0;
}

void MuxChannel::reader_loop() {
  for (;;) {
    {
      std::lock_guard lock(mu_);
      if (dead_) return;
    }
    auto readable = conn_.wait_readable(0.25);
    if (!readable.ok()) {
      if (readable.error().code == ErrorCode::kTimeout) continue;
      poison(make_error(ErrorCode::kConnectionClosed, "mux channel closed"));
      return;
    }
    // A frame has started: finish it with a progress-bounded read. The
    // overall frame may take arbitrarily long on a paced link; only
    // *silence* mid-frame is fatal.
    std::uint8_t header_bytes[serial::kHeaderSize];
    auto hdr_read = conn_.recv_all(header_bytes, sizeof(header_bytes),
                                   kMidFrameProgressTimeout);
    if (!hdr_read.ok()) {
      poison(hdr_read.error());
      return;
    }
    auto header = serial::decode_header(header_bytes);
    if (!header.ok()) {
      poison(header.error());
      return;
    }
    if (header.value().length > ConnectionPool::instance().config().max_frame_bytes) {
      // Client-role frame cap: a shared mux socket buffers replies for many
      // concurrent callers, so one hostile length claim would charge them
      // all. Reject before allocating and poison — the oversized body is
      // still in the stream, so the channel cannot be re-framed.
      metrics::counter("net.guard.oversized_total").inc();
      poison(make_error(ErrorCode::kProtocol, "frame exceeds client payload cap"));
      return;
    }
    Message msg;
    msg.type = header.value().type;
    try {
      mem::alloc_trip("net.mux_read");
      msg.payload.resize(header.value().length);
    } catch (const std::bad_alloc&) {
      // Allocation pressure is retryable overload, not peer failure: pending
      // callers back off and redial instead of tearing the process down.
      metrics::counter("mem.bad_alloc_total").inc();
      poison(make_error(ErrorCode::kServerOverloaded,
                        "allocation failed buffering mux frame"));
      return;
    }
    std::size_t got = 0;
    while (got < msg.payload.size()) {
      const std::size_t chunk = std::min<std::size_t>(64 * 1024, msg.payload.size() - got);
      auto body_read = conn_.recv_all(msg.payload.data() + got, chunk,
                                      kMidFrameProgressTimeout);
      if (!body_read.ok()) {
        poison(body_read.error());
        return;
      }
      got += chunk;
    }
    if (auto crc = serial::check_payload(header.value(), msg.payload); !crc.ok()) {
      poison(crc.error());
      return;
    }

    if (msg.type == kTransportBusyType) {
      // Accept-governor shed, delivered just before the peer closed on us:
      // note the busy window so redials back off, and fail every pending
      // call retryably (overload, not server failure).
      ConnectionPool::instance().note_busy(remote_,
                                           decode_busy_retry_after(msg.payload));
      poison(make_error(ErrorCode::kServerOverloaded, "transport busy (accept shed)"));
      return;
    }
    decltype(waiters_)::node_type waiter;
    {
      std::lock_guard lock(mu_);
      waiter = waiters_.extract(std::make_pair(peek_request_id(msg.payload), msg.type));
    }
    // No waiter (abandoned, or a posted frame's reply): the frame was
    // consumed whole and dropped — nothing leaks into the next caller's reply.
    if (waiter) waiter.mapped()(std::move(msg));
  }
}

// ---- helpers ----

Result<Message> pool_round_trip(const Endpoint& remote, std::uint16_t type,
                                const serial::Bytes& payload, double timeout_s,
                                double dial_timeout_s, const LinkShape& shape) {
  auto lease = ConnectionPool::instance().lease(remote, dial_timeout_s);
  if (!lease.ok()) return lease.error();
  NS_RETURN_IF_ERROR(send_message(lease.value().conn(), type, payload, shape));
  auto reply = recv_message(lease.value().conn(), timeout_s,
                            ConnectionPool::instance().config().max_frame_bytes);
  if (!reply.ok()) return reply.error();  // lease destructor discards
  if (reply.value().type == kTransportBusyType) {
    // The peer's accept governor shed this dial. Honor the retry-after as a
    // busy window (subsequent dials fail fast instead of re-shedding) and
    // surface a retryable overload to the caller's backoff loop.
    ConnectionPool::instance().note_busy(
        remote, decode_busy_retry_after(reply.value().payload));
    return make_error(ErrorCode::kServerOverloaded, "transport busy (accept shed)");
  }
  lease.value().release();
  return reply;
}

Status pool_post(const Endpoint& remote, std::uint16_t type, const serial::Bytes& payload,
                 double dial_timeout_s, const LinkShape& shape) {
  auto lease = ConnectionPool::instance().lease(remote, dial_timeout_s);
  if (!lease.ok()) return lease.error();
  NS_RETURN_IF_ERROR(send_message(lease.value().conn(), type, payload, shape));
  lease.value().release();
  return ok_status();
}

}  // namespace ns::net
