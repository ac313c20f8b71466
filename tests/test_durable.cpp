// Durable jobs: write-ahead journal, iteration-granular checkpoint/restart,
// and live migration on drain. These tests pin the full story — a server
// SIGKILLed (in-process: crash()) with queued and running jobs restarts,
// replays its journal, resumes solves from their last checkpoint (not from
// scratch), and finishes every job without the clients resubmitting; a
// draining server hands its running jobs (checkpoints included) to a peer
// with zero losses; and the journal replay itself survives torn tails,
// flipped bits, and duplicate terminal records without ever re-running a
// completed job.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "client/client.hpp"
#include "common/clock.hpp"
#include "common/metrics.hpp"
#include "net/transport.hpp"
#include "proto/messages.hpp"
#include "server/journal.hpp"
#include "testkit/cluster.hpp"

namespace ns {
namespace {

using dsl::DataObject;

// Poll `pred` until it holds or `timeout_s` lapses.
template <typename Pred>
bool eventually(Pred pred, double timeout_s = 5.0) {
  const Deadline deadline(timeout_s);
  while (!deadline.expired()) {
    if (pred()) return true;
    sleep_seconds(0.005);
  }
  return pred();
}

serial::Bytes encode_solve(std::uint64_t request_id, std::int64_t mflop) {
  proto::SolveRequest msg;
  msg.request_id = request_id;
  msg.problem = "simwork";
  msg.args = {DataObject(mflop)};
  serial::Encoder enc;
  msg.encode(enc);
  return enc.take();
}

Status send_solve(net::TcpConnection& conn, std::uint64_t request_id, std::int64_t mflop) {
  return net::send_message(conn,
                           static_cast<std::uint16_t>(proto::MessageType::kSolveRequest),
                           encode_solve(request_id, mflop));
}

// A scratch data directory, removed on scope exit. NS_DURABLE_TMPDIR
// redirects it onto another filesystem — CI mounts a small tmpfs there so
// journal writes can hit a real (not injected) ENOSPC.
struct TempDir {
  std::string path;
  TempDir() {
    const char* base = std::getenv("NS_DURABLE_TMPDIR");
    std::string tmpl_s =
        std::string(base != nullptr && *base != '\0' ? base : "/tmp") + "/ns_durable_XXXXXX";
    std::vector<char> tmpl(tmpl_s.begin(), tmpl_s.end());
    tmpl.push_back('\0');
    const char* made = ::mkdtemp(tmpl.data());
    path = made != nullptr ? made : "/tmp/ns_durable_fallback";
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

std::uint64_t probed_iteration(const net::Endpoint& peer, std::uint64_t id) {
  auto reply = client::probe_request(peer, id);
  if (!reply.ok()) return 0;
  return reply.value().iteration;
}

// ---- tentpole: crash, replay, resume from checkpoint ----

// A journaling server is killed uncleanly with two running jobs (mid-solve,
// checkpoints on disk) and one queued job, plus one job submitted through a
// reattaching client. After restart every job completes without any client
// resubmitting, and the running jobs resume >= 50% through — asserted via
// the server's resume-iteration counter (simwork's iteration unit is whole
// Mflop completed).
TEST(DurableTest, CrashRecoveryCompletesAllJobsFromCheckpoint) {
  TempDir data;
  testkit::ClusterConfig config;
  config.rating_base = 500.0;
  testkit::ClusterServerSpec spec;
  spec.name = "server0";
  spec.workers = 2;  // two running slots; the later jobs must queue
  spec.slowdown_mode = server::SlowdownMode::kSleep;
  spec.data_dir = data.path;
  config.servers = {spec};
  config.io_timeout_s = 30.0;
  config.client_reattach_s = 20.0;  // reattach instead of resubmitting
  auto cluster = testkit::TestCluster::start(config);
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();
  const net::Endpoint endpoint = cluster.value()->server(0).endpoint();

  const auto recovered_before = metrics::counter("server.jobs_recovered_total").value();
  const auto appends_before = metrics::counter("server.journal_appends_total").value();

  // Two raw long jobs occupy both workers (simwork(1000) at rating 500 =
  // ~2 s of sliced, checkpointable sleep; one checkpoint every 25 Mflop).
  auto conn_a = net::TcpConnection::connect(endpoint);
  ASSERT_TRUE(conn_a.ok()) << conn_a.error().to_string();
  ASSERT_TRUE(send_solve(conn_a.value(), 2001, 1000).ok());
  auto conn_b = net::TcpConnection::connect(endpoint);
  ASSERT_TRUE(conn_b.ok()) << conn_b.error().to_string();
  ASSERT_TRUE(send_solve(conn_b.value(), 2002, 1000).ok());

  // Both raw jobs must hold the two worker slots before anything else is
  // submitted — on a loaded host the second connection's enqueue can lose a
  // FIFO race against a later arrival, which would then run (and finish)
  // before the crash instead of queueing behind the pair.
  ASSERT_TRUE(eventually(
      [&] {
        return probed_iteration(endpoint, 2001) >= 1 &&
               probed_iteration(endpoint, 2002) >= 1;
      },
      10.0))
      << "the raw pair never occupied both workers";

  // A third job through the client: it queues behind A and B, and its
  // transport will die with the crash — the reattach path must finish it.
  auto client = cluster.value()->make_client();
  auto handle = client.netsl_nb("simwork", {DataObject(std::int64_t{200})});

  // Hold the crash until (a) the client's job has actually been admitted —
  // under a loaded host its submission can lag, and only journaled jobs
  // recover — and (b) both running jobs are past 60%, so their last on-disk
  // checkpoint is comfortably past the 50% mark (snapshot lag is < one
  // 25-Mflop interval).
  ASSERT_TRUE(eventually(
      [&] { return cluster.value()->server(0).current_workload() >= 3.0; }, 10.0))
      << "the queued client job never reached the server before the crash";
  ASSERT_TRUE(eventually(
      [&] {
        return probed_iteration(endpoint, 2001) >= 600 &&
               probed_iteration(endpoint, 2002) >= 600;
      },
      10.0))
      << "jobs never reached 60% before the crash";

  // Unclean death: journal fd dropped cold, kernels abandoned, no terminal
  // records, no compaction. Then a new incarnation on the same endpoint.
  cluster.value()->crash_server(0);
  ASSERT_TRUE(cluster.value()->restart_server(0).ok());
  auto& revived = cluster.value()->server(0);

  // Replay re-admitted all three jobs (none had completed).
  EXPECT_EQ(revived.jobs_recovered(), 3u);
  EXPECT_EQ(metrics::counter("server.jobs_recovered_total").value() - recovered_before,
            revived.jobs_recovered());

  // Every job completes on the new incarnation without resubmission: the raw
  // submissions reattach via PROBE/WAIT, the client call reattaches itself.
  for (const std::uint64_t id : {2001ull, 2002ull}) {
    auto result = client::wait_for_job(endpoint, id, /*budget_s=*/30.0);
    ASSERT_TRUE(result.ok()) << "job " << id << ": " << result.error().to_string();
    EXPECT_EQ(result.value().error_code, 0u) << result.value().error_message;
  }
  client::CallStats stats;
  auto out = handle.wait();
  ASSERT_TRUE(out.ok()) << out.error().to_string();

  // The running pair resumed from their checkpoints — at least half the work
  // was already banked, and none of it restarted from scratch.
  EXPECT_EQ(revived.jobs_resumed(), 2u);
  EXPECT_GE(revived.last_resume_iteration(), 500u)
      << "resume point was before the 50% mark";

  // Journal bookkeeping agrees with what we watched happen.
  EXPECT_GT(revived.journal_appends(), 0u);
  EXPECT_GT(metrics::counter("server.journal_appends_total").value(), appends_before);
  auto snap = cluster.value()->scrape_server_metrics(0, "server.");
  ASSERT_TRUE(snap.ok()) << snap.error().to_string();
  const auto* recovered = snap.value().find("server.jobs_recovered_total");
  ASSERT_NE(recovered, nullptr);
  EXPECT_GE(recovered->count, 3u);
}

// ---- tentpole: live migration on drain ----

// Draining a server under load with migrate_on_drain hands every running job
// (with its checkpoint) to the surviving peer: zero lost jobs, zero
// from-scratch restarts, and the original submitter follows the MIGRATED
// forwarding address to collect the answer.
TEST(DurableTest, DrainMigratesRunningJobsToPeer) {
  TempDir data;
  testkit::ClusterConfig config;
  config.rating_base = 500.0;
  testkit::ClusterServerSpec source;
  source.name = "server0";
  source.workers = 2;
  source.slowdown_mode = server::SlowdownMode::kSleep;
  source.data_dir = data.path;
  source.migrate_on_drain = true;
  testkit::ClusterServerSpec peer = source;
  peer.name = "server1";
  peer.data_dir.clear();  // the receiver needs no journal to accept transfers
  peer.migrate_on_drain = false;
  config.servers = {source, peer};
  config.io_timeout_s = 30.0;
  auto cluster = testkit::TestCluster::start(config);
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();
  const net::Endpoint src_endpoint = cluster.value()->server(0).endpoint();

  const auto migrated_before = metrics::counter("server.jobs_migrated_total").value();

  // Two long jobs directly on server0 (simwork(1500) = ~3 s each).
  auto conn_a = net::TcpConnection::connect(src_endpoint);
  ASSERT_TRUE(conn_a.ok()) << conn_a.error().to_string();
  ASSERT_TRUE(send_solve(conn_a.value(), 3001, 1500).ok());
  auto conn_b = net::TcpConnection::connect(src_endpoint);
  ASSERT_TRUE(conn_b.ok()) << conn_b.error().to_string();
  ASSERT_TRUE(send_solve(conn_b.value(), 3002, 1500).ok());

  // Wait until both are running with at least one checkpoint banked.
  ASSERT_TRUE(eventually(
      [&] {
        return probed_iteration(src_endpoint, 3001) >= 100 &&
               probed_iteration(src_endpoint, 3002) >= 100;
      },
      10.0))
      << "jobs never built a checkpoint before the drain";

  // Drain with a deadline far shorter than the remaining work: the sweep
  // trips both jobs, which hand over instead of dying as plain kCancelled.
  auto ack = cluster.value()->drain_server(0, /*deadline_s=*/0.2);
  ASSERT_TRUE(ack.ok()) << ack.error().to_string();
  EXPECT_TRUE(ack.value().started);
  ASSERT_TRUE(eventually([&] { return cluster.value()->server(0).drained(); }, 15.0));

  // Every running job was migrated, and the counters agree. The drain does
  // not report done until the hand-offs resolve, but poll anyway so a slow
  // (sanitized) TransferAck round-trip cannot race the read.
  ASSERT_TRUE(eventually(
      [&] { return cluster.value()->server(0).jobs_migrated() == 2; }, 15.0));
  EXPECT_EQ(cluster.value()->server(0).jobs_migrated(), 2u);
  EXPECT_EQ(metrics::counter("server.jobs_migrated_total").value() - migrated_before, 2u);

  // The original connections hear the forwarding address, not a bare cancel.
  auto redirect = net::recv_message(conn_a.value(), 10.0);
  ASSERT_TRUE(redirect.ok()) << redirect.error().to_string();
  serial::Decoder dec(redirect.value().payload);
  auto moved = proto::SolveResult::decode(dec);
  ASSERT_TRUE(moved.ok()) << moved.error().to_string();
  EXPECT_EQ(static_cast<ErrorCode>(moved.value().error_code), ErrorCode::kMigrated);
  ASSERT_NE(moved.value().migrated_port, 0);
  EXPECT_EQ(moved.value().migrated_host, cluster.value()->server(1).endpoint().host);
  EXPECT_EQ(moved.value().migrated_port, cluster.value()->server(1).endpoint().port);

  // Following the redirect (wait_for_job chases MIGRATED hops on its own,
  // so probing the *drained source* also lands on the answer).
  for (const std::uint64_t id : {3001ull, 3002ull}) {
    auto result = client::wait_for_job(src_endpoint, id, /*budget_s=*/30.0);
    ASSERT_TRUE(result.ok()) << "job " << id << ": " << result.error().to_string();
    EXPECT_EQ(result.value().error_code, 0u) << result.value().error_message;
  }

  // The peer resumed both transfers from their carried checkpoints — no
  // from-scratch restarts.
  EXPECT_EQ(cluster.value()->server(1).jobs_resumed(), 2u);
  EXPECT_GE(cluster.value()->server(1).last_resume_iteration(), 50u);
}

// A job transferred in by a draining peer is still computing when stop()
// begins, long past io_timeout_s. stop() must join it: once the server is
// destroyed no thread of it is left to touch the freed object, and the job
// finished rather than being cut off.
TEST(DurableTest, StopJoinsTransferredJobStillComputing) {
  testkit::ClusterConfig config;
  config.servers = testkit::uniform_pool(1, /*workers=*/1);
  config.rating_base = 1000.0;
  auto cluster = testkit::TestCluster::start(config);
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();

  auto thread_count = [] {
    std::size_t n = 0;
    for (const auto& task : std::filesystem::directory_iterator("/proc/self/task")) {
      (void)task;
      ++n;
    }
    return n;
  };
  const std::size_t threads_before = thread_count();
  server::ServerConfig sc;
  sc.name = "receiver";
  sc.agents = {cluster.value()->agent_endpoint()};
  sc.rating_override = 1000.0;
  sc.slowdown_mode = server::SlowdownMode::kSleep;
  sc.io_timeout_s = 0.5;
  auto receiver = server::ComputeServer::start(sc);
  ASSERT_TRUE(receiver.ok()) << receiver.error().to_string();

  // simwork(3000) = ~3 s, handed over the way a draining peer would.
  proto::JobTransfer transfer;
  transfer.request.request_id = 3100;
  transfer.request.problem = "simwork";
  transfer.request.args = {DataObject(std::int64_t{3000})};
  transfer.from_server = "origin";
  serial::Encoder enc;
  transfer.encode(enc);
  auto conn = net::TcpConnection::connect(receiver.value()->endpoint());
  ASSERT_TRUE(conn.ok()) << conn.error().to_string();
  ASSERT_TRUE(net::send_message(conn.value(),
                                static_cast<std::uint16_t>(proto::MessageType::kJobTransfer),
                                enc.take())
                  .ok());
  auto reply = net::recv_message(conn.value(), 5.0);
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  serial::Decoder dec(reply.value().payload);
  auto ack = proto::TransferAck::decode(dec);
  ASSERT_TRUE(ack.ok()) << ack.error().to_string();
  ASSERT_TRUE(ack.value().accepted) << ack.value().reason;
  // Computing, not just granted: a job that has not started when stop()
  // begins is dropped for replay instead.
  ASSERT_TRUE(eventually(
      [&] { return probed_iteration(receiver.value()->endpoint(), 3100) > 0; }));

  const Stopwatch since_start;
  const auto completed_before = metrics::counter("server.completed_total").value();
  receiver.value().reset();  // stop() + destroy
  EXPECT_EQ(metrics::counter("server.completed_total").value(), completed_before + 1)
      << "stop() returned before the transferred job finished";
  EXPECT_LE(thread_count(), threads_before) << "a server thread outlived stop()";
  // Wait out the job's original span: a thread left behind would touch the
  // destroyed server by now (a heap-use-after-free under ASan).
  sleep_seconds(std::max(0.0, 3.5 - since_start.elapsed()));
}

// ---- satellite: netslpr/netslwt against a long-running solve ----

TEST(DurableTest, ProbeAndWaitObserveALongSolve) {
  testkit::ClusterConfig config;
  config.rating_base = 500.0;
  testkit::ClusterServerSpec spec;
  spec.name = "server0";
  spec.workers = 1;
  spec.slowdown_mode = server::SlowdownMode::kSleep;
  config.servers = {spec};  // no data_dir: probe works journal-less too
  config.io_timeout_s = 30.0;
  auto cluster = testkit::TestCluster::start(config);
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();
  const net::Endpoint endpoint = cluster.value()->server(0).endpoint();

  auto conn = net::TcpConnection::connect(endpoint);
  ASSERT_TRUE(conn.ok()) << conn.error().to_string();
  ASSERT_TRUE(send_solve(conn.value(), 9001, 800).ok());

  // An id the server has never seen probes as unknown, cleanly.
  auto unknown = client::probe_request(endpoint, 4242);
  ASSERT_TRUE(unknown.ok()) << unknown.error().to_string();
  EXPECT_EQ(unknown.value().state, proto::JobState::kUnknown);

  // The live job reports running, with the kernel's iteration advancing and
  // a residual that stays a sane fraction of remaining work.
  ASSERT_TRUE(eventually(
      [&] {
        auto reply = client::probe_request(endpoint, 9001);
        return reply.ok() && reply.value().state == proto::JobState::kRunning &&
               reply.value().iteration > 0;
      },
      10.0));
  const std::uint64_t seen = probed_iteration(endpoint, 9001);
  EXPECT_TRUE(eventually([&] { return probed_iteration(endpoint, 9001) > seen ||
                                      probed_iteration(endpoint, 9001) == 0; },
                         10.0))
      << "iteration never advanced between probes";
  auto mid = client::probe_request(endpoint, 9001);
  if (mid.ok() && mid.value().state == proto::JobState::kRunning) {
    EXPECT_GE(mid.value().residual, 0.0);
    EXPECT_LE(mid.value().residual, 1.0);
  }

  // netslwt: poll to completion and fetch the stored result.
  auto result = client::wait_for_job(endpoint, 9001, /*budget_s=*/30.0);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_EQ(result.value().error_code, 0u) << result.value().error_message;
  ASSERT_EQ(result.value().outputs.size(), 1u);
  EXPECT_EQ(result.value().outputs[0].as_int(), 800);

  auto done = client::probe_request(endpoint, 9001, /*fetch_result=*/true);
  ASSERT_TRUE(done.ok()) << done.error().to_string();
  EXPECT_EQ(done.value().state, proto::JobState::kCompleted);
  EXPECT_TRUE(done.value().has_result);
}

// ---- satellite: journal replay fuzz ----

namespace fuzz {

serial::Bytes encoded_request(std::uint64_t id) {
  proto::SolveRequest req;
  req.request_id = id;
  req.problem = "simwork";
  req.args = {DataObject(std::int64_t{10})};
  serial::Encoder enc;
  req.encode(enc);
  return enc.take();
}

serial::Bytes encoded_result(std::uint64_t id) {
  proto::SolveResult res;
  res.request_id = id;
  res.outputs = {DataObject(std::int64_t{10})};
  serial::Encoder enc;
  res.encode(enc);
  return enc.take();
}

server::JournalRecord record(server::JournalRecordType type, std::uint64_t id,
                             serial::Bytes data = {}, std::uint64_t iteration = 0) {
  server::JournalRecord rec;
  rec.type = type;
  rec.request_id = id;
  rec.wall_micros = 1000000;
  rec.iteration = iteration;
  rec.data = std::move(data);
  return rec;
}

// Framed segments of a representative journal: job 7 started with a
// checkpoint, job 8 completed (twice — duplicate terminal), job 9 admitted
// only, and a COMPLETED-before-ADMITTED pair for job 10.
std::vector<serial::Bytes> segments() {
  using server::JournalRecordType;
  std::vector<server::JournalRecord> records;
  records.push_back(record(JournalRecordType::kAdmitted, 7, encoded_request(7)));
  records.push_back(record(JournalRecordType::kStarted, 7));
  records.push_back(record(JournalRecordType::kCheckpoint, 7, {1, 2, 3, 4}, 40));
  records.push_back(record(JournalRecordType::kAdmitted, 8, encoded_request(8)));
  records.push_back(record(JournalRecordType::kCompleted, 8, encoded_result(8)));
  records.push_back(record(JournalRecordType::kCompleted, 8, encoded_result(8)));
  records.push_back(record(JournalRecordType::kAdmitted, 9, encoded_request(9)));
  records.push_back(record(JournalRecordType::kCompleted, 10, encoded_result(10)));
  records.push_back(record(JournalRecordType::kAdmitted, 10, encoded_request(10)));
  std::vector<serial::Bytes> out;
  for (const auto& rec : records) {
    serial::Bytes framed;
    rec.frame(framed);
    out.push_back(std::move(framed));
  }
  return out;
}

serial::Bytes concat(const std::vector<serial::Bytes>& segments) {
  serial::Bytes out;
  for (const auto& seg : segments) out.insert(out.end(), seg.begin(), seg.end());
  return out;
}

bool unfinished_contains(const server::ReplaySummary& summary, std::uint64_t id) {
  for (const auto& job : summary.unfinished) {
    if (job.request.request_id == id) return true;
  }
  return false;
}

}  // namespace fuzz

TEST(DurableTest, JournalReplayIntactJournal) {
  const auto summary = server::replay_journal_bytes(fuzz::concat(fuzz::segments()));
  EXPECT_EQ(summary.records, 9u);
  EXPECT_EQ(summary.skipped, 0u);
  // 7 resumes from its checkpoint, 9 restarts from scratch.
  ASSERT_EQ(summary.unfinished.size(), 2u);
  EXPECT_EQ(summary.unfinished[0].request.request_id, 7u);
  EXPECT_TRUE(summary.unfinished[0].started);
  EXPECT_EQ(summary.unfinished[0].snapshot.iteration, 40u);
  EXPECT_EQ(summary.unfinished[1].request.request_id, 9u);
  EXPECT_EQ(summary.unfinished[1].snapshot.iteration, 0u);
  // 8 is terminal (the duplicate was idempotent); 10's COMPLETED wins over
  // its later ADMITTED — a completed job is never re-run.
  EXPECT_EQ(summary.completed.size(), 2u);
  EXPECT_EQ(summary.completed.count(8), 1u);
  EXPECT_EQ(summary.completed.count(10), 1u);
  EXPECT_FALSE(fuzz::unfinished_contains(summary, 8));
  EXPECT_FALSE(fuzz::unfinished_contains(summary, 10));
}

TEST(DurableTest, JournalReplayTruncatedAtEveryByte) {
  const auto segments = fuzz::segments();
  const auto full = fuzz::concat(segments);
  // Where each COMPLETED record for job 8 ends in the full stream.
  std::size_t completed8_end = 0;
  {
    std::size_t offset = 0;
    for (std::size_t i = 0; i < segments.size(); ++i) {
      offset += segments[i].size();
      if (i == 4) completed8_end = offset;  // first COMPLETED(8)
    }
  }
  for (std::size_t len = 0; len <= full.size(); ++len) {
    const serial::Bytes prefix(full.begin(), full.begin() + static_cast<long>(len));
    const auto summary = server::replay_journal_bytes(prefix);  // must not throw/crash
    // An id is never both unfinished and completed.
    for (const auto& [id, result] : summary.completed) {
      EXPECT_FALSE(fuzz::unfinished_contains(summary, id))
          << "id " << id << " both terminal and unfinished at prefix " << len;
    }
    // Once job 8's COMPLETED record fully fits, 8 can never resurface as
    // unfinished, no matter where the tail tore.
    if (len >= completed8_end) {
      EXPECT_FALSE(fuzz::unfinished_contains(summary, 8)) << "at prefix " << len;
      EXPECT_EQ(summary.completed.count(8), 1u) << "at prefix " << len;
    }
  }
}

// The storage-fault analogue of the truncation fuzz: a torn *partial* final
// record (ENOSPC / power loss mid-append leaves len+garbage, not a clean
// cut) corrupted at every byte offset. Replay must never crash, must keep
// the longest valid prefix, and must never resurrect job 8 (terminal since
// record 5) or invent an unfinished job that was never fully admitted.
TEST(DurableTest, JournalReplayFinalRecordCorruptedAtEveryByte) {
  const auto segments = fuzz::segments();
  serial::Bytes prefix;  // everything but the final record
  for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
    prefix.insert(prefix.end(), segments[i].begin(), segments[i].end());
  }
  const auto& last = segments.back();
  for (std::size_t at = 0; at < last.size(); ++at) {
    for (const std::uint8_t flip : {0x01, 0x80, 0xff}) {
      auto journal = prefix;
      journal.insert(journal.end(), last.begin(), last.end());
      journal[prefix.size() + at] ^= flip;
      const auto summary = server::replay_journal_bytes(journal);
      // The intact prefix always replays: a fault in the tail cannot damage
      // records that already landed. (A flipped length header makes the tail
      // look torn — records 8, skipped 0; a flipped payload byte trips the
      // CRC — records 8, skipped 1; either is a valid longest-prefix read.)
      EXPECT_GE(summary.records, segments.size() - 1)
          << "prefix lost at offset " << at << " flip " << int(flip);
      EXPECT_LE(summary.skipped, 1u) << "at offset " << at;
      EXPECT_FALSE(fuzz::unfinished_contains(summary, 8))
          << "terminal job resurrected at offset " << at;
      EXPECT_EQ(summary.completed.count(8), 1u);
      // Jobs only ever materialize from fully-CRC-valid ADMITTED records.
      for (const auto& job : summary.unfinished) {
        EXPECT_TRUE(job.request.request_id == 7 || job.request.request_id == 9)
            << "phantom job " << job.request.request_id << " at offset " << at;
      }
    }
  }
}

TEST(DurableTest, JournalReplaySkipsBitFlippedRecords) {
  const auto segments = fuzz::segments();
  // Flip one payload byte in every record position, one at a time: replay
  // must skip exactly that record (CRC catches it) and keep the rest.
  for (std::size_t victim = 0; victim < segments.size(); ++victim) {
    auto copy = segments;
    ASSERT_GT(copy[victim].size(), 9u);
    copy[victim][9] ^= 0x40;  // second payload byte (skip len+crc header)
    const auto summary = server::replay_journal_bytes(fuzz::concat(copy));
    EXPECT_EQ(summary.skipped, 1u) << "victim " << victim;
    EXPECT_EQ(summary.records, segments.size() - 1) << "victim " << victim;
  }
  // Flipping the *duplicate* COMPLETED(8) record must not resurrect job 8:
  // the first terminal record still wins.
  auto copy = segments;
  copy[5][9] ^= 0x40;
  const auto summary = server::replay_journal_bytes(fuzz::concat(copy));
  EXPECT_FALSE(fuzz::unfinished_contains(summary, 8));
  EXPECT_EQ(summary.completed.count(8), 1u);
}

// ---- real disk-full (no injector) ----

// Fill the filesystem holding `dir` with a ballast file until a write fails
// with ENOSPC, then free `leave_bytes` again. Returns the ballast path.
std::string fill_filesystem(const std::string& dir, std::size_t leave_bytes) {
  const std::string ballast = dir + "/ballast";
  std::FILE* f = std::fopen(ballast.c_str(), "wb");
  if (f == nullptr) return ballast;
  std::vector<char> chunk(64 * 1024, '\xa5');
  std::size_t written = 0;
  while (std::fwrite(chunk.data(), 1, chunk.size(), f) == chunk.size()) {
    written += chunk.size();
    if (written > (1u << 30)) break;  // not actually a small filesystem
  }
  std::fclose(f);
  if (written > leave_bytes) {
    std::error_code ec;
    std::filesystem::resize_file(ballast, written - leave_bytes, ec);
  }
  return ballast;
}

// Real ENOSPC, not an injected one: CI mounts a small tmpfs and points
// NS_DURABLE_TMPDIR at it (skipped otherwise — filling a shared /tmp would
// be antisocial). The filesystem is packed with ballast until only a sliver
// remains, so the journal genuinely runs out of space mid-burst. The server
// must fail-stop the journal, degrade to explicitly non-durable mode, and
// keep answering: every job completes, nothing crashes, nothing is silently
// lost — the same contract the injector-driven test_storage suite pins,
// proven here against the actual kernel ENOSPC path.
TEST(DurableTest, RealEnospcDegradesGracefully) {
  const char* base = std::getenv("NS_DURABLE_TMPDIR");
  if (base == nullptr || *base == '\0') {
    GTEST_SKIP() << "set NS_DURABLE_TMPDIR to a small scratch filesystem to run";
  }
  TempDir data;  // lives under NS_DURABLE_TMPDIR
  testkit::ClusterConfig config;
  config.rating_base = 500.0;
  testkit::ClusterServerSpec spec;
  spec.name = "server0";
  spec.workers = 2;
  spec.slowdown_mode = server::SlowdownMode::kSleep;
  spec.data_dir = data.path;
  spec.journal_fsync = true;
  spec.checkpoint_interval = 5;  // fat journal traffic: hit the wall quickly
  config.servers = {spec};
  config.io_timeout_s = 30.0;
  auto cluster = testkit::TestCluster::start(config);
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();
  auto& server = cluster.value()->server(0);

  // Leave ~64 KB: enough for the burst's first appends, far too little for
  // all of it (simstate checkpoints carry a 16 KB state vector each).
  const std::string ballast = fill_filesystem(data.path, 64 * 1024);
  const auto errors_before = metrics::counter("store.write_errors_total").value();

  auto client = cluster.value()->make_client();
  constexpr int kJobs = 12;
  int ok = 0;
  std::vector<client::RequestHandle> handles;
  handles.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    handles.push_back(client.netsl_nb(
        "simstate", {DataObject(std::int64_t{20}), DataObject(std::int64_t{16})}));
  }
  for (auto& handle : handles) {
    if (handle.wait().ok()) ++ok;
  }
  EXPECT_EQ(ok, kJobs) << "jobs lost under real ENOSPC: " << ok << "/" << kJobs;

  ASSERT_TRUE(eventually([&] { return server.durability_degraded(); }, 5.0))
      << "server never entered degraded mode on a full filesystem";
  EXPECT_GT(metrics::counter("store.write_errors_total").value(), errors_before);

  // Still serving, explicitly non-durable.
  auto after = client.netsl("simwork", {DataObject(std::int64_t{1})});
  EXPECT_TRUE(after.ok()) << (after.ok() ? "" : after.error().to_string());

  std::error_code ec;
  std::filesystem::remove(ballast, ec);  // free the space before TempDir cleanup
}

}  // namespace
}  // namespace ns
