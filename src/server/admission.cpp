#include "server/admission.hpp"

#include <algorithm>
#include <cmath>

namespace ns::server {

AdmissionPolicy::AdmissionPolicy(const AdmissionConfig& config, int workers, int max_queue)
    : config_(config),
      workers_(workers),
      max_queue_(max_queue),
      quota_(config.quota_fraction > 0.0 && max_queue > 0
                 ? std::max(1, static_cast<int>(std::llround(config.quota_fraction * max_queue)))
                 : 0),
      limit_f_(workers) {}

AdmissionPolicy::Admit AdmissionPolicy::admit(std::uint64_t client_id, double remaining_s,
                                              double est_service_s, bool readmit) {
  if (readmit) return Admit::kAccept;
  if (max_queue_ > 0 && waiting_ >= max_queue_) return Admit::kQueueFull;
  if (quota_ > 0 && client_id != 0) {
    const auto used = waiting_by_client_.find(client_id);
    if (used != waiting_by_client_.end() && used->second >= quota_) {
      ++shed_quota_;
      return Admit::kQuota;
    }
  }
  // Not even an empty queue could save it: the client had better spend its
  // budget on a faster server than on our queue.
  if (config_.deadline_aware && est_service_s > 0.0 &&
      est_service_s + kDispatchSlackS > remaining_s) {
    ++shed_admission_;
    return Admit::kInfeasible;
  }
  return Admit::kAccept;
}

AdmissionPolicy::QueueKey AdmissionPolicy::enqueue(std::uint64_t client_id,
                                                   double deadline_abs) {
  ++waiting_;
  if (quota_ > 0 && client_id != 0) ++waiting_by_client_[client_id];
  return {config_.deadline_aware ? deadline_abs : 0.0, seq_++};
}

void AdmissionPolicy::leave(std::uint64_t client_id) {
  --waiting_;
  if (quota_ == 0 || client_id == 0) return;
  const auto used = waiting_by_client_.find(client_id);
  if (used != waiting_by_client_.end() && --used->second <= 0) waiting_by_client_.erase(used);
}

AdmissionPolicy::Dequeue AdmissionPolicy::dequeue(double enqueue_time, double deadline_abs,
                                                  double est_service_s, std::size_t queued,
                                                  double now) {
  Dequeue out;
  out.sojourn_s = now - enqueue_time;
  sojourn_ring_[sojourn_count_++ % sojourn_ring_.size()] = out.sojourn_s;
  // The budget lapsed in the queue, or what is left cannot cover the
  // predicted service: computing would only waste the slot.
  const bool expired = now >= deadline_abs;
  const bool infeasible =
      est_service_s > 0.0 && now + est_service_s + kDispatchSlackS > deadline_abs;
  if (config_.deadline_aware && (expired || infeasible)) {
    ++shed_dequeue_;
    out.verdict = Verdict::kShedDeadline;
  } else if (config_.codel_target_s > 0.0 && queued > 1 &&
             codel_should_drop(out.sojourn_s, now)) {
    // Work-conserving: the sole waiter is never shed while a slot is free.
    ++shed_codel_;
    out.verdict = Verdict::kShedCodel;
  } else {
    return out;
  }
  out.retry_after_s = retry_after();
  out.backed_off = aimd_on_overload(now);
  return out;
}

bool AdmissionPolicy::on_success(double elapsed_s) {
  service_ewma_s_ =
      service_ewma_s_ == 0.0 ? elapsed_s : 0.8 * service_ewma_s_ + 0.2 * elapsed_s;
  if (!config_.aimd || ++aimd_successes_ < concurrency_limit()) return false;
  aimd_successes_ = 0;
  limit_f_ = std::min(limit_f_ + 1.0, static_cast<double>(workers_));
  return true;
}

int AdmissionPolicy::concurrency_limit() const {
  return config_.aimd ? std::max(kAimdMin, static_cast<int>(limit_f_)) : workers_;
}

double AdmissionPolicy::retry_after() const {
  const double per_job = service_ewma_s_ > 0.0 ? service_ewma_s_ : 0.02;
  const double horizon = per_job * (waiting_ + 1) / std::max(1, concurrency_limit());
  return std::clamp(horizon, kRetryAfterMinS, kRetryAfterMaxS);
}

double AdmissionPolicy::sojourn_p95() const {
  const std::size_t n = std::min(sojourn_count_, sojourn_ring_.size());
  if (n == 0) return 0.0;
  auto sorted = sojourn_ring_;
  const auto rank = static_cast<std::size_t>(0.95 * static_cast<double>(n - 1) + 0.5);
  std::nth_element(sorted.begin(), sorted.begin() + rank, sorted.begin() + n);
  return sorted[rank];
}

bool AdmissionPolicy::codel_should_drop(double sojourn, double now) {
  if (sojourn < config_.codel_target_s) {
    // Leave the dropping state but keep the count: classic CoDel resumes
    // near the previous rate if the queue re-congests right away.
    codel_first_above_ = 0.0;
    codel_dropping_ = false;
    return false;
  }
  if (codel_first_above_ == 0.0) {
    // Arm; a burst shorter than the interval is fine.
    codel_first_above_ = now + kCodelIntervalS;
    return false;
  }
  if (now < codel_first_above_) return false;
  if (!codel_dropping_) {
    codel_dropping_ = true;
    codel_drop_count_ = codel_drop_count_ > 2 ? codel_drop_count_ - 2 : 1;
    codel_drop_next_ = now;
  }
  if (now < codel_drop_next_) return false;
  ++codel_drop_count_;
  codel_drop_next_ = now + kCodelIntervalS / std::sqrt(static_cast<double>(codel_drop_count_));
  return true;
}

bool AdmissionPolicy::aimd_on_overload(double now) {
  if (!config_.aimd || now - aimd_last_decrease_ < kAimdDecreaseSpacingS) return false;
  aimd_last_decrease_ = now;
  aimd_successes_ = 0;
  limit_f_ = std::max(static_cast<double>(kAimdMin), limit_f_ * kAimdBeta);
  return true;
}

}  // namespace ns::server
