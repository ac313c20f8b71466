// The server's admission policy (DESIGN.md §13): queue bound, per-client
// quotas, deadline feasibility, EDF order, the CoDel sojourn shedder and the
// AIMD concurrency limit, with the state those decisions read. It holds no
// lock, thread or clock: ComputeServer calls it under jobs_mu_ and passes
// `now` (seconds, any monotonic epoch) to every method that depends on time.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>

namespace ns::server {

/// Overload-control knobs; the CoDel shedder, quotas and AIMD are opt-in.
struct AdmissionConfig {
  /// Serve earliest-deadline-first (undeadlined jobs last, FIFO among
  /// themselves) and shed jobs whose deadline cannot be met: at admission
  /// when the predicted service exceeds the budget left, at dequeue when it
  /// lapsed in the queue or the predicted completion overshoots it. Off is
  /// plain FIFO computing every admitted job — the uncontrolled baseline.
  bool deadline_aware = true;
  /// Shed at dequeue (cadence kCodelIntervalS / sqrt(drops)) once the
  /// sojourn stayed above this target for kCodelIntervalS. 0 disables.
  double codel_target_s = 0.0;
  /// With a bounded queue, one client id may hold at most
  /// max(1, round(quota_fraction * max_queue)) waiting slots; client 0
  /// (older peers) is exempt. 0 disables.
  double quota_fraction = 0.0;
  /// Replace the worker count by an AIMD limit: +1 per limit's worth of
  /// clean completions (up to the worker count), * kAimdBeta (floored at
  /// kAimdMin) on a dequeue shed.
  bool aimd = false;
};

class AdmissionPolicy {
 public:
  /// Headroom on the predicted service time in both feasibility checks:
  /// under overload EDF serves jobs at the feasibility edge, and without
  /// room for the reply transfer and scheduling they finish just late.
  static constexpr double kDispatchSlackS = 0.02;
  /// Long enough to ride out a burst, short enough to react within a few
  /// 0.1 s jobs.
  static constexpr double kCodelIntervalS = 0.1;
  static constexpr int kAimdMin = 1;
  static constexpr double kAimdBeta = 0.7;
  /// One congestion episode sheds many jobs; decreases this close are one.
  static constexpr double kAimdDecreaseSpacingS = 0.1;
  static constexpr double kRetryAfterMinS = 0.002;
  static constexpr double kRetryAfterMaxS = 2.0;
  /// deadline_abs of a job without a deadline.
  static constexpr double kNoDeadline = 1e300;

  /// Wait-queue key: (deadline, arrival seq), or (0, seq) when FIFO.
  using QueueKey = std::pair<double, std::uint64_t>;
  enum class Admit { kAccept, kQueueFull, kQuota, kInfeasible };
  enum class Verdict { kGrant, kShedDeadline, kShedCodel };
  struct Dequeue {
    Verdict verdict = Verdict::kGrant;
    double sojourn_s = 0.0;
    double retry_after_s = 0.0;  // a shed's hint, with the shed job counted
    bool backed_off = false;     // a shed cut the AIMD limit
  };

  AdmissionPolicy(const AdmissionConfig& config, int workers, int max_queue);

  /// May a new request queue? `remaining_s` is its deadline budget left
  /// (kNoDeadline for none), `est_service_s` its predicted compute (0 =
  /// unknown). Readmitted jobs (recovered, transferred) always pass.
  Admit admit(std::uint64_t client_id, double remaining_s, double est_service_s,
              bool readmit);
  QueueKey enqueue(std::uint64_t client_id, double deadline_abs);
  /// Counts a job out of the queue, by whatever path it leaves.
  void leave(std::uint64_t client_id);
  /// The verdict on the queue's head; `queued` counts the head too.
  Dequeue dequeue(double enqueue_time, double deadline_abs, double est_service_s,
                  std::size_t queued, double now);
  /// A granted job succeeded after `elapsed_s`; true when the limit grew.
  bool on_success(double elapsed_s);

  int concurrency_limit() const;
  /// Expected wait for a slot, from the service EWMA and queue depth.
  double retry_after() const;
  /// p95 of the last 128 sojourns (0 before the first dequeue).
  double sojourn_p95() const;
  int waiting() const { return waiting_; }
  std::uint64_t shed_admission() const { return shed_admission_; }
  std::uint64_t shed_dequeue() const { return shed_dequeue_; }
  std::uint64_t shed_codel() const { return shed_codel_; }
  std::uint64_t shed_quota() const { return shed_quota_; }

 private:
  bool codel_should_drop(double sojourn, double now);
  bool aimd_on_overload(double now);

  const AdmissionConfig config_;
  const int workers_;
  const int max_queue_;
  const int quota_;  // waiting slots per client; 0 = quotas off

  int waiting_ = 0;
  std::uint64_t seq_ = 0;
  std::map<std::uint64_t, int> waiting_by_client_;  // kept only with quotas on
  double limit_f_;                                  // AIMD's fractional limit
  int aimd_successes_ = 0;
  double aimd_last_decrease_ = 0.0;
  double codel_first_above_ = 0.0;  // 0 = sojourn under target
  double codel_drop_next_ = 0.0;
  std::uint32_t codel_drop_count_ = 0;
  bool codel_dropping_ = false;
  double service_ewma_s_ = 0.0;
  std::array<double, 128> sojourn_ring_{};
  std::size_t sojourn_count_ = 0;
  std::uint64_t shed_admission_ = 0;
  std::uint64_t shed_dequeue_ = 0;
  std::uint64_t shed_codel_ = 0;
  std::uint64_t shed_quota_ = 0;
};

}  // namespace ns::server
