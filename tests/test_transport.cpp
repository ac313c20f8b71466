// Tests for the event-driven transport core: the epoll reactor, the elastic
// task pool, the keep-alive connection pool, and the pipelining mux channel.
//
// The reactor under test runs a tiny echo protocol: request type kEchoReq
// carries an 8-byte request id followed by arbitrary bytes; the handler
// replies kEchoRep with the identical payload (so the id demultiplexes),
// optionally sleeping first when the payload says so — enough to script
// out-of-order completions and deadline races without a full server.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <random>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/metrics.hpp"
#include "net/fault.hpp"
#include "net/pool.hpp"
#include "net/reactor.hpp"
#include "net/socket.hpp"
#include "net/task_pool.hpp"
#include "net/transport.hpp"

namespace ns::net {
namespace {

constexpr std::uint16_t kEchoReq = 41;
constexpr std::uint16_t kEchoRep = 42;

serial::Bytes make_payload(std::uint64_t request_id, double sleep_s = 0.0,
                           std::size_t extra = 0) {
  serial::Bytes payload(8 + 8 + extra);
  for (std::size_t i = 0; i < 8; ++i) {
    payload[i] = static_cast<std::uint8_t>(request_id >> (8 * i));
  }
  // Sleep request rides as milliseconds in the next 8 bytes.
  const auto ms = static_cast<std::uint64_t>(sleep_s * 1000.0);
  for (std::size_t i = 0; i < 8; ++i) {
    payload[8 + i] = static_cast<std::uint8_t>(ms >> (8 * i));
  }
  for (std::size_t i = 0; i < extra; ++i) {
    payload[16 + i] = static_cast<std::uint8_t>(request_id + i);
  }
  return payload;
}

std::uint64_t payload_id(const serial::Bytes& payload) {
  std::uint64_t id = 0;
  for (std::size_t i = 0; i < 8 && i < payload.size(); ++i) {
    id |= static_cast<std::uint64_t>(payload[i]) << (8 * i);
  }
  return id;
}

double payload_sleep_s(const serial::Bytes& payload) {
  if (payload.size() < 16) return 0.0;
  std::uint64_t ms = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    ms |= static_cast<std::uint64_t>(payload[8 + i]) << (8 * i);
  }
  return static_cast<double>(ms) / 1000.0;
}

/// Where one mux call's completion lands. `fired` counts how often the
/// channel ran the completion: once per call, and never after a successful
/// abandon().
struct Landing {
  std::mutex mu;
  std::condition_variable cv;
  int fired = 0;
  std::optional<Result<Message>> reply;

  int fired_count() {
    std::lock_guard lock(mu);
    return fired;
  }
};

std::shared_ptr<Landing> start_call(MuxChannel& channel, const serial::Bytes& payload,
                                    std::uint64_t id) {
  auto landing = std::make_shared<Landing>();
  channel.start(kEchoReq, payload, kEchoRep, id, LinkShape::unshaped(),
                [landing](Result<Message> reply) {
                  std::lock_guard lock(landing->mu);
                  ++landing->fired;
                  landing->reply.emplace(std::move(reply));
                  landing->cv.notify_all();
                });
  return landing;
}

/// Wait up to `timeout_s` for the call's completion. On timeout the waiter
/// is abandoned, as a blocking caller does; if the completion won that race,
/// its reply is taken instead.
Result<Message> wait_call(MuxChannel& channel, Landing& landing, std::uint64_t id,
                          double timeout_s) {
  std::unique_lock lock(landing.mu);
  const auto landed = [&] { return landing.reply.has_value(); };
  if (!landing.cv.wait_for(lock, std::chrono::duration<double>(timeout_s), landed)) {
    lock.unlock();
    if (channel.abandon(id, kEchoRep)) return make_error(ErrorCode::kTimeout, "mux call timed out");
    lock.lock();
    landing.cv.wait(lock, landed);
  }
  return std::move(*landing.reply);
}

/// A blocking echo call: start, then wait.
Result<Message> mux_call(MuxChannel& channel, const serial::Bytes& payload, std::uint64_t id,
                         double timeout_s) {
  auto landing = start_call(channel, payload, id);
  return wait_call(channel, *landing, id, timeout_s);
}

/// Poll until the reactor reports exactly `want` live connections (closes
/// land on the loop thread, asynchronously to the peer observing EOF).
bool eventually_conn_count(Reactor& reactor, std::size_t want, double timeout_s = 3.0) {
  const Deadline deadline(timeout_s);
  while (!deadline.expired()) {
    if (reactor.connection_count() == want) return true;
    sleep_seconds(0.005);
  }
  return reactor.connection_count() == want;
}

/// Reactor wrapper serving the echo protocol on an ephemeral port.
class EchoServer {
 public:
  explicit EchoServer(ReactorConfig config = {}) {
    auto listener = TcpListener::bind({"127.0.0.1", 0});
    EXPECT_TRUE(listener.ok());
    endpoint_ = listener.value().endpoint();
    auto status = reactor_.start(
        std::move(listener).value(),
        [this](const ReactorConnPtr& conn, Message&& msg) {
          if (msg.type != kEchoReq) return false;
          frames_.fetch_add(1);
          const double sleep_s = payload_sleep_s(msg.payload);
          if (sleep_s > 0.0) sleep_seconds(sleep_s);
          return conn->send(kEchoRep, msg.payload).ok();
        },
        config);
    EXPECT_TRUE(status.ok());
  }

  ~EchoServer() {
    reactor_.stop();
    ConnectionPool::instance().clear();
    FaultInjector::instance().disarm_all();
  }

  const Endpoint& endpoint() const { return endpoint_; }
  Reactor& reactor() { return reactor_; }
  std::uint64_t frames() const { return frames_.load(); }

 private:
  Endpoint endpoint_;
  Reactor reactor_;
  std::atomic<std::uint64_t> frames_{0};
};

// ---- reactor ----

TEST(ReactorTest, EchoRoundTrip) {
  EchoServer server;
  auto conn = TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(conn.ok());
  const auto payload = make_payload(7, 0.0, 32);
  ASSERT_TRUE(send_message(conn.value(), kEchoReq, payload).ok());
  auto reply = recv_message(conn.value(), 5.0);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().type, kEchoRep);
  EXPECT_EQ(reply.value().payload, payload);
}

// Many frames glued into the stream before any reply is read: the reactor
// must decode them all (multiple frames per read buffer) and the handlers
// must reply on the shared connection without corrupting the framing.
TEST(ReactorTest, PipelinedFramesOnOneConnection) {
  EchoServer server;
  auto conn = TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(conn.ok());

  constexpr int kFrames = 32;
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(
        send_message(conn.value(), kEchoReq, make_payload(static_cast<std::uint64_t>(i + 1)))
            .ok());
  }
  // Replies may complete out of order (concurrent handlers); collect ids.
  std::vector<bool> seen(kFrames + 1, false);
  for (int i = 0; i < kFrames; ++i) {
    auto reply = recv_message(conn.value(), 5.0);
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply.value().type, kEchoRep);
    const std::uint64_t id = payload_id(reply.value().payload);
    ASSERT_GE(id, 1u);
    ASSERT_LE(id, static_cast<std::uint64_t>(kFrames));
    EXPECT_FALSE(seen[id]) << "duplicate reply for id " << id;
    seen[id] = true;
  }
  EXPECT_EQ(server.frames(), static_cast<std::uint64_t>(kFrames));
}

// A slow handler must not stall other connections (the reactor loop never
// blocks on a handler): a fast request on a second connection completes
// while the slow one is still sleeping.
TEST(ReactorTest, SlowHandlerDoesNotBlockOtherConnections) {
  EchoServer server;
  auto slow = TcpConnection::connect(server.endpoint());
  auto fast = TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(slow.ok());
  ASSERT_TRUE(fast.ok());

  ASSERT_TRUE(send_message(slow.value(), kEchoReq, make_payload(1, /*sleep_s=*/0.8)).ok());
  const Stopwatch watch;
  ASSERT_TRUE(send_message(fast.value(), kEchoReq, make_payload(2)).ok());
  auto reply = recv_message(fast.value(), 5.0);
  ASSERT_TRUE(reply.ok());
  EXPECT_LT(watch.elapsed(), 0.5) << "fast request waited on the slow handler";
  auto slow_reply = recv_message(slow.value(), 5.0);
  ASSERT_TRUE(slow_reply.ok());
}

// The idle sweep closes keep-alive connections that go quiet; an active
// in-flight handler shields its connection from the sweep.
TEST(ReactorTest, IdleConnectionsAreSweptClosed) {
  ReactorConfig config;
  config.idle_timeout_s = 0.2;
  EchoServer server(config);
  auto conn = TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(conn.ok());
  // Prove liveness first, then go idle.
  ASSERT_TRUE(send_message(conn.value(), kEchoReq, make_payload(1)).ok());
  ASSERT_TRUE(recv_message(conn.value(), 5.0).ok());

  // Sweep cadence is 1 s; within ~2 s the peer must have closed us.
  std::uint8_t byte = 0;
  auto status = conn.value().recv_all(&byte, 1, 2.5);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, ErrorCode::kConnectionClosed);
}

// stop_accepting() releases the port while established connections keep
// serving — the injected-crash semantics servers rely on.
TEST(ReactorTest, StopAcceptingReleasesPortButServesExisting) {
  EchoServer server;
  auto conn = TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(conn.ok());

  server.reactor().stop_accepting();
  // The loop thread closes the listener on its next wakeup; new dials must
  // start failing (give the async close a moment, then a short dial budget).
  const Deadline deadline(2.0);
  bool refused = false;
  while (!deadline.expired()) {
    auto fresh = TcpConnection::connect_raw(server.endpoint(), 0.05);
    if (!fresh.ok()) {
      refused = true;
      break;
    }
    sleep_seconds(0.02);
  }
  EXPECT_TRUE(refused) << "listener still accepting after stop_accepting()";

  // The established connection still serves.
  ASSERT_TRUE(send_message(conn.value(), kEchoReq, make_payload(9)).ok());
  auto reply = recv_message(conn.value(), 5.0);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(payload_id(reply.value().payload), 9u);
}

// ---- read-path fuzz: hostile bytes must close the peer, never the loop ----

// Pure noise on the wire: the reactor must fail header decode (bad magic),
// drop the connection, and keep serving other peers untouched.
TEST(ReactorTest, GarbageBytesCloseConnectionReactorSurvives) {
  EchoServer server;
  std::mt19937_64 rng(0xdecafbad);
  for (int round = 0; round < 8; ++round) {
    auto evil = TcpConnection::connect(server.endpoint());
    ASSERT_TRUE(evil.ok());
    serial::Bytes noise(1024 + rng() % 4096);
    for (auto& b : noise) b = static_cast<std::uint8_t>(rng());
    // The send may fail midway once the reactor slams the door; either way
    // the peer must observe a close, not a hang.
    (void)evil.value().send_all(noise.data(), noise.size());
    std::uint8_t byte = 0;
    {
    auto status = evil.value().recv_all(&byte, 1, 2.0);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.error().code, ErrorCode::kConnectionClosed);
  }
  }
  // A well-formed peer is unaffected.
  auto good = TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(good.ok());
  ASSERT_TRUE(send_message(good.value(), kEchoReq, make_payload(11)).ok());
  auto reply = recv_message(good.value(), 5.0);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(payload_id(reply.value().payload), 11u);
}

// A syntactically valid header whose payload fails the CRC: the frame must
// be rejected at check_payload, the connection dropped, and a pipelined
// valid frame sitting behind the corrupt one must NOT be dispatched — a
// misframed stream cannot be trusted for anything that follows.
TEST(ReactorTest, CorruptPayloadDropsConnectionBeforeLaterFrames) {
  EchoServer server;
  auto evil = TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(evil.ok());

  serial::Bytes corrupt = serial::build_frame(kEchoReq, make_payload(21));
  corrupt.back() ^= 0xff;  // payload no longer matches the header CRC
  const serial::Bytes valid = serial::build_frame(kEchoReq, make_payload(22));
  serial::Bytes wire = corrupt;
  wire.insert(wire.end(), valid.begin(), valid.end());
  (void)evil.value().send_all(wire.data(), wire.size());

  std::uint8_t byte = 0;
  {
    auto status = evil.value().recv_all(&byte, 1, 2.0);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.error().code, ErrorCode::kConnectionClosed);
  }
  // Give any (wrong) dispatch of frame 22 a beat to land, then assert the
  // reactor stopped at the corruption: neither frame ran the handler.
  sleep_seconds(0.1);
  EXPECT_EQ(server.frames(), 0u) << "frames after a CRC failure were dispatched";
}

// A truncated header followed by an abrupt close (the classic port-scanner
// footprint) must not wedge the loop or leak the connection slot.
TEST(ReactorTest, TruncatedHeaderThenCloseIsHarmless) {
  EchoServer server;
  for (int round = 0; round < 4; ++round) {
    auto evil = TcpConnection::connect(server.endpoint());
    ASSERT_TRUE(evil.ok());
    const serial::Bytes frame = serial::build_frame(kEchoReq, make_payload(31));
    ASSERT_TRUE(evil.value().send_all(frame.data(), serial::kHeaderSize / 2).ok());
    evil.value().close();
  }
  auto good = TcpConnection::connect(server.endpoint());
  ASSERT_TRUE(good.ok());
  ASSERT_TRUE(send_message(good.value(), kEchoReq, make_payload(32)).ok());
  auto reply = recv_message(good.value(), 5.0);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(payload_id(reply.value().payload), 32u);
  EXPECT_TRUE(eventually_conn_count(server.reactor(), 1));
}

// ---- send path ----

// send_message writes header and payload as two gathered buffers; the bytes
// on the wire must be exactly the contiguous build_frame image, whether the
// write goes out in one sendmsg or is paced in chunks that straddle the
// header/payload seam.
TEST(SendPathTest, TwoBufferSendMatchesBuildFrameOnTheWire) {
  const std::vector<std::size_t> sizes = {0, 1, (64u << 10) + 3};
  const std::vector<LinkShape> shapes = {LinkShape::unshaped(), LinkShape{0.001, 50e6}};
  for (const auto& shape : shapes) {
    for (const std::size_t size : sizes) {
      SCOPED_TRACE("payload " + std::to_string(size) + " B, " +
                   (shape.is_unshaped() ? "unshaped" : "shaped"));
      int fds[2];
      ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
      TcpConnection tx{FdHandle(fds[0])};
      TcpConnection rx{FdHandle(fds[1])};
      serial::Bytes payload(size);
      for (std::size_t i = 0; i < size; ++i) payload[i] = static_cast<std::uint8_t>(i * 13 + 5);
      const serial::Bytes expected = serial::build_frame(kEchoReq, payload);

      serial::Bytes wire(expected.size());
      std::thread reader([&] { ASSERT_TRUE(rx.recv_all(wire.data(), wire.size(), 5.0).ok()); });
      ASSERT_TRUE(send_message(tx, kEchoReq, payload, shape).ok());
      reader.join();
      EXPECT_EQ(wire, expected);

      // Nothing trails the frame.
      tx.close();
      std::uint8_t extra = 0;
      auto tail = rx.recv_all(&extra, 1, 1.0);
      ASSERT_FALSE(tail.ok());
      EXPECT_EQ(tail.error().code, ErrorCode::kConnectionClosed);
    }
  }
}

// The mux channel computes the frame CRC outside its send lock, but an armed
// fault plan still takes the whole-frame path: a corrupted request reaches
// the peer as kCorruptFrame, and a corrupted reply surfaces to the mux
// caller as kCorruptFrame.
TEST(MuxTest, ArmedCorruptPlanSurfacesCorruptFrame) {
  auto listener = TcpListener::bind({"127.0.0.1", 0});
  ASSERT_TRUE(listener.ok());
  const Endpoint endpoint = listener.value().endpoint();
  auto& pool = ConnectionPool::instance();
  pool.clear();
  auto channel = pool.channel(endpoint, 2.0);
  ASSERT_TRUE(channel.ok());
  auto accepted = listener.value().accept(2.0);
  ASSERT_TRUE(accepted.ok());

  // One plan on the listen address covers both directions of the link.
  FaultInjector::instance().arm(endpoint, FaultPlan::single(FaultMode::kCorrupt, 1.0));
  std::thread peer([&] {
    auto request = recv_message(accepted.value(), 5.0);
    ASSERT_FALSE(request.ok());
    EXPECT_EQ(request.error().code, ErrorCode::kCorruptFrame);
    ASSERT_TRUE(send_message(accepted.value(), kEchoRep, make_payload(5)).ok());
  });
  auto reply = mux_call(*channel.value(), make_payload(5), 5, 5.0);
  peer.join();
  FaultInjector::instance().disarm_all();
  pool.clear();

  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code, ErrorCode::kCorruptFrame) << reply.error().to_string();
}

// ---- task pool ----

// The pool grows past its core threads when handlers block: N blocking
// tasks with N > core must all run concurrently.
TEST(TaskPoolTest, GrowsBeyondCoreThreadsUnderBlockingLoad) {
  TaskPool pool;
  pool.start(/*core_threads=*/2, /*max_threads=*/16);

  constexpr int kTasks = 6;
  std::mutex mu;
  std::condition_variable cv;
  int started = 0;
  bool release = false;
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_TRUE(pool.submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      ++started;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    }));
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    const bool all_started = cv.wait_for(lock, std::chrono::seconds(5),
                                         [&] { return started == kTasks; });
    EXPECT_TRUE(all_started) << "pool did not grow past core threads; started=" << started;
    release = true;
    cv.notify_all();
  }
  pool.stop();
  EXPECT_GE(pool.thread_count(), 0u);  // stop() joined everything without deadlock
}

// ---- connection pool (leases) ----

TEST(PoolTest, LeaseReusesReleasedConnection) {
  EchoServer server;
  auto& pool = ConnectionPool::instance();
  pool.clear();

  auto first = pool.lease(server.endpoint(), 2.0);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().reused());
  ASSERT_TRUE(send_message(first.value().conn(), kEchoReq, make_payload(1)).ok());
  ASSERT_TRUE(recv_message(first.value().conn(), 5.0).ok());
  first.value().release();
  EXPECT_EQ(pool.idle_count(), 1u);

  auto second = pool.lease(server.endpoint(), 2.0);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().reused()) << "warm connection not reused";
  ASSERT_TRUE(send_message(second.value().conn(), kEchoReq, make_payload(2)).ok());
  auto reply = recv_message(second.value().conn(), 5.0);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(payload_id(reply.value().payload), 2u);
}

// Satellite regression: a reply racing a deadline expiry leaves half a frame
// (or a whole late frame) in flight. The timed-out lease must be discarded —
// never released — and the next round trip must get its own reply, not the
// stale one.
TEST(PoolTest, TimedOutLeaseIsDiscardedNotReused) {
  EchoServer server;
  auto& pool = ConnectionPool::instance();
  pool.clear();
  const std::uint64_t discards_before = metrics::counter("net.pool.discarded_total").value();

  // Handler sleeps 300 ms; the caller gives up after 50 ms.
  auto late = pool_round_trip(server.endpoint(), kEchoReq, make_payload(1, /*sleep_s=*/0.3),
                              /*timeout_s=*/0.05, /*dial_timeout_s=*/2.0);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.error().code, ErrorCode::kTimeout);
  EXPECT_EQ(pool.idle_count(), 0u) << "timed-out connection leaked back into the pool";
  EXPECT_GT(metrics::counter("net.pool.discarded_total").value(), discards_before);

  // The late reply (id 1) is still in flight toward the discarded socket.
  // A fresh round trip must dial clean and receive its own id.
  auto fresh = pool_round_trip(server.endpoint(), kEchoReq, make_payload(2),
                               /*timeout_s=*/5.0, /*dial_timeout_s=*/2.0);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(payload_id(fresh.value().payload), 2u) << "stale reply leaked into a fresh lease";
}

// Satellite regression: poison a pooled connection mid-frame via fault
// injection (stall = half a frame then silence). The lease must be
// discarded, and traffic after disarm must flow on a clean connection.
TEST(PoolTest, StalledMidFrameLeaseIsDiscarded) {
  EchoServer server;
  auto& pool = ConnectionPool::instance();
  pool.clear();

  // Warm the pool with one good round trip.
  auto warm = pool_round_trip(server.endpoint(), kEchoReq, make_payload(1), 5.0, 2.0);
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(pool.idle_count(), 1u);

  // One stalled send: the request frame stops halfway, the reply never
  // comes, the caller times out, and the poisoned connection is discarded.
  FaultPlan plan = FaultPlan::single(FaultMode::kStall, 1.0);
  plan.rules[0].max_triggers = 1;
  FaultInjector::instance().arm(server.endpoint(), plan);
  auto stalled = pool_round_trip(server.endpoint(), kEchoReq, make_payload(2),
                                 /*timeout_s=*/0.2, /*dial_timeout_s=*/2.0);
  ASSERT_FALSE(stalled.ok());
  EXPECT_EQ(pool.idle_count(), 0u) << "mid-frame poisoned connection kept for reuse";
  FaultInjector::instance().disarm_all();

  auto after = pool_round_trip(server.endpoint(), kEchoReq, make_payload(3), 5.0, 2.0);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(payload_id(after.value().payload), 3u);
}

// Fault parity: an armed connect fault fires even when the pool is warm —
// the pool is a dial cache, not a way around chaos schedules.
TEST(PoolTest, ConnectFaultFiresOnWarmPool) {
  EchoServer server;
  auto& pool = ConnectionPool::instance();
  pool.clear();

  auto warm = pool_round_trip(server.endpoint(), kEchoReq, make_payload(1), 5.0, 2.0);
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(pool.idle_count(), 1u);

  FaultInjector::instance().arm(server.endpoint(),
                                FaultPlan::single(FaultMode::kConnectRefused, 1.0));
  auto refused = pool.lease(server.endpoint(), 0.2);
  EXPECT_FALSE(refused.ok()) << "warm pool bypassed an armed connect fault";
  FaultInjector::instance().disarm_all();
}

// The MSG_PEEK staleness check: a pooled connection whose peer closed it
// (server restart, idle sweep) is dropped at lease time, not handed out.
TEST(PoolTest, PeerClosedIdleConnectionIsNotHandedOut) {
  ReactorConfig config;
  config.idle_timeout_s = 0.2;  // server sweeps the idle conn out from under the pool
  EchoServer server(config);
  auto& pool = ConnectionPool::instance();
  pool.clear();

  auto warm = pool_round_trip(server.endpoint(), kEchoReq, make_payload(1), 5.0, 2.0);
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(pool.idle_count(), 1u);

  sleep_seconds(1.6);  // past the server's sweep; the cached conn is now dead

  // PoolConfig.idle_timeout_s (2.5 s) has not elapsed, so only the MSG_PEEK
  // check can save this lease from a dead socket.
  auto reply = pool_round_trip(server.endpoint(), kEchoReq, make_payload(2), 5.0, 2.0);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(payload_id(reply.value().payload), 2u);
}

// ---- mux channel (pipelining) ----

TEST(MuxTest, ConcurrentCallsDemuxByRequestId) {
  EchoServer server;
  auto& pool = ConnectionPool::instance();
  pool.clear();

  auto channel = pool.channel(server.endpoint(), 2.0);
  ASSERT_TRUE(channel.ok());

  // Out-of-order completion by construction: id 1 sleeps, id 2 does not.
  // Both share one socket; each must get exactly its own payload back, and
  // each completion runs exactly once.
  auto slow = start_call(*channel.value(), make_payload(1, /*sleep_s=*/0.4), 1);
  sleep_seconds(0.05);  // let the slow call hit the wire first
  auto fast = start_call(*channel.value(), make_payload(2), 2);
  auto fast_reply = wait_call(*channel.value(), *fast, 2, 5.0);
  ASSERT_TRUE(fast_reply.ok());
  EXPECT_EQ(payload_id(fast_reply.value().payload), 2u);
  EXPECT_EQ(slow->fired_count(), 0) << "the slow call completed with the fast reply";
  auto slow_reply = wait_call(*channel.value(), *slow, 1, 5.0);
  ASSERT_TRUE(slow_reply.ok());
  EXPECT_EQ(payload_id(slow_reply.value().payload), 1u);
  sleep_seconds(0.05);
  EXPECT_EQ(slow->fired_count(), 1);
  EXPECT_EQ(fast->fired_count(), 1);

  // Both calls shared one pipelined connection.
  EXPECT_EQ(server.reactor().connection_count(), 1u);
}

TEST(MuxTest, ManyPipelinedCallsOverOneSocket) {
  EchoServer server;
  auto& pool = ConnectionPool::instance();
  pool.clear();

  constexpr int kCalls = 24;
  std::vector<std::thread> threads;
  std::atomic<int> ok_count{0};
  for (int i = 0; i < kCalls; ++i) {
    threads.emplace_back([&, i] {
      auto channel = pool.channel(server.endpoint(), 2.0);
      ASSERT_TRUE(channel.ok());
      const auto id = static_cast<std::uint64_t>(i + 1);
      auto reply = mux_call(*channel.value(), make_payload(id), id, 5.0);
      if (reply.ok() && payload_id(reply.value().payload) == id) ok_count.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok_count.load(), kCalls);
  EXPECT_EQ(server.reactor().connection_count(), 1u)
      << "pipelined calls dialed extra sockets";
}

// A timed-out mux call abandons its waiter: its completion never runs, and
// the late reply is read and discarded whole, so the channel keeps serving
// later calls on the same socket (no poisoning, no eviction). A frame posted
// with no waiter behaves the same: its unmatched reply is dropped whole.
TEST(MuxTest, LateReplyAfterTimeoutIsDiscardedChannelSurvives) {
  EchoServer server;
  auto& pool = ConnectionPool::instance();
  pool.clear();

  auto channel = pool.channel(server.endpoint(), 2.0);
  ASSERT_TRUE(channel.ok());
  auto landing = start_call(*channel.value(), make_payload(1, /*sleep_s=*/0.3), 1);
  auto late = wait_call(*channel.value(), *landing, 1, /*timeout_s=*/0.05);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.error().code, ErrorCode::kTimeout);
  EXPECT_FALSE(channel.value()->abandon(1, kEchoRep)) << "abandoned twice";

  sleep_seconds(0.4);  // the late reply lands and must be dropped whole
  EXPECT_EQ(landing->fired_count(), 0) << "an abandoned call's completion ran";
  EXPECT_TRUE(channel.value()->healthy());
  auto after = mux_call(*channel.value(), make_payload(2), 2, 5.0);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(payload_id(after.value().payload), 2u);

  // Posted, no waiter: the echo comes back unmatched.
  channel.value()->start(kEchoReq, make_payload(3), kEchoRep, 3, LinkShape::unshaped(), {});
  auto next = mux_call(*channel.value(), make_payload(4, /*sleep_s=*/0.05), 4, 5.0);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(payload_id(next.value().payload), 4u);
  EXPECT_TRUE(channel.value()->healthy());
  EXPECT_EQ(server.reactor().connection_count(), 1u);
}

// Satellite regression: connection reuse survives arm_fault mid-stream
// resets — the poisoned channel is evicted and the next call redials.
TEST(MuxTest, MidStreamResetEvictsChannelAndRedials) {
  EchoServer server;
  auto& pool = ConnectionPool::instance();
  pool.clear();
  const std::uint64_t evicted_before = metrics::counter("net.mux.evicted_total").value();
  const std::uint64_t poisoned_before = metrics::counter("net.mux.poisoned_total").value();

  auto first = pool.channel(server.endpoint(), 2.0);
  ASSERT_TRUE(first.ok());
  auto warm = mux_call(*first.value(), make_payload(1), 1, 5.0);
  ASSERT_TRUE(warm.ok());
  // A call still waiting when the channel dies ends by poison.
  auto pending = start_call(*first.value(), make_payload(9, /*sleep_s=*/1.0), 9);
  sleep_seconds(0.05);

  // One reset: the send tears the stream mid-frame and the channel poisons.
  FaultPlan plan = FaultPlan::single(FaultMode::kReset, 1.0);
  plan.rules[0].max_triggers = 1;
  FaultInjector::instance().arm(server.endpoint(), plan);
  auto reset = mux_call(*first.value(), make_payload(2), 2, 5.0);
  ASSERT_FALSE(reset.ok());
  EXPECT_TRUE(is_retryable(reset.error().code)) << reset.error().to_string();
  EXPECT_FALSE(first.value()->healthy());
  EXPECT_GT(metrics::counter("net.mux.poisoned_total").value(), poisoned_before);
  FaultInjector::instance().disarm_all();

  auto orphaned = wait_call(*first.value(), *pending, 9, 5.0);
  ASSERT_FALSE(orphaned.ok());
  EXPECT_TRUE(is_retryable(orphaned.error().code)) << orphaned.error().to_string();
  sleep_seconds(0.05);
  EXPECT_EQ(pending->fired_count(), 1);

  // Next channel() evicts the poisoned one and redials.
  auto second = pool.channel(server.endpoint(), 2.0);
  ASSERT_TRUE(second.ok());
  EXPECT_NE(second.value().get(), first.value().get());
  EXPECT_GT(metrics::counter("net.mux.evicted_total").value(), evicted_before);
  auto after = mux_call(*second.value(), make_payload(3), 3, 5.0);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(payload_id(after.value().payload), 3u);
}

}  // namespace
}  // namespace ns::net
