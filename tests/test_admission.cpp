// The admission policy on its own: queue bound, quotas, feasibility, EDF
// keys, dequeue verdicts, CoDel, AIMD and the retry_after hint. No socket,
// thread or sleep — time advances only through the `now` each call is
// given, so every schedule below is exact.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "server/admission.hpp"

namespace ns::server {
namespace {

using Admit = AdmissionPolicy::Admit;
using Verdict = AdmissionPolicy::Verdict;
constexpr double kNone = AdmissionPolicy::kNoDeadline;

AdmissionConfig codel_config(double target_s) {
  AdmissionConfig config;
  config.codel_target_s = target_s;
  return config;
}

// Keys in the order the wait queue (an ordered map) serves them.
std::vector<int> served_order(const std::vector<AdmissionPolicy::QueueKey>& keys) {
  std::map<AdmissionPolicy::QueueKey, int> queue;
  for (std::size_t i = 0; i < keys.size(); ++i) queue.emplace(keys[i], static_cast<int>(i));
  std::vector<int> order;
  for (const auto& [key, index] : queue) order.push_back(index);
  return order;
}

// A dequeue of a head that queued `sojourn_s` and has no deadline.
AdmissionPolicy::Dequeue dequeue_at(AdmissionPolicy& policy, double now, double sojourn_s,
                                    std::size_t queued = 2) {
  return policy.dequeue(now - sojourn_s, kNone, 0.0, queued, now);
}

TEST(AdmissionTest, EdfServesEarliestDeadlineAndUndeadlinedLast) {
  AdmissionPolicy policy({}, /*workers=*/1, /*max_queue=*/0);
  const std::vector<AdmissionPolicy::QueueKey> keys = {
      policy.enqueue(1, kNone), policy.enqueue(1, 15.0), policy.enqueue(2, 12.0),
      policy.enqueue(2, kNone), policy.enqueue(3, 13.0)};
  EXPECT_EQ(served_order(keys), (std::vector<int>{2, 4, 1, 0, 3}));
  EXPECT_EQ(policy.waiting(), 5);
}

TEST(AdmissionTest, FifoWhenNotDeadlineAware) {
  AdmissionConfig config;
  config.deadline_aware = false;
  AdmissionPolicy policy(config, 1, 0);
  const std::vector<AdmissionPolicy::QueueKey> keys = {
      policy.enqueue(1, 15.0), policy.enqueue(1, kNone), policy.enqueue(2, 12.0)};
  EXPECT_EQ(served_order(keys), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(keys[2].first, 0.0);
}

TEST(AdmissionTest, InfeasibleAtAdmissionCountsTheSlack) {
  AdmissionPolicy policy({}, 1, 0);
  const double slack = AdmissionPolicy::kDispatchSlackS;
  // Exactly fits: predicted service plus slack equals the budget.
  EXPECT_EQ(policy.admit(1, 0.25 + slack, 0.25, false), Admit::kAccept);
  // The slack alone tips it over.
  EXPECT_EQ(policy.admit(1, 0.25 + slack / 2, 0.25, false), Admit::kInfeasible);
  EXPECT_EQ(policy.admit(1, 0.5, 0.6, false), Admit::kInfeasible);
  EXPECT_EQ(policy.shed_admission(), 2u);
  // A budget already spent is infeasible for any known service time...
  EXPECT_EQ(policy.admit(1, -0.1, 0.001, false), Admit::kInfeasible);
  // ...but an unknown one (0) or no deadline at all is never shed.
  EXPECT_EQ(policy.admit(1, 0.01, 0.0, false), Admit::kAccept);
  EXPECT_EQ(policy.admit(1, kNone, 1e6, false), Admit::kAccept);
  // Readmitted jobs were accepted once already.
  EXPECT_EQ(policy.admit(1, 0.01, 0.6, true), Admit::kAccept);
  EXPECT_EQ(policy.shed_admission(), 3u);

  AdmissionConfig off;
  off.deadline_aware = false;
  AdmissionPolicy fifo(off, 1, 0);
  EXPECT_EQ(fifo.admit(1, 0.01, 0.6, false), Admit::kAccept);
  EXPECT_EQ(fifo.shed_admission(), 0u);
}

TEST(AdmissionTest, QueueBoundAndReadmitBypass) {
  AdmissionPolicy policy({}, 1, /*max_queue=*/2);
  policy.enqueue(1, kNone);
  EXPECT_EQ(policy.admit(2, kNone, 0.0, false), Admit::kAccept);
  policy.enqueue(2, kNone);
  EXPECT_EQ(policy.admit(3, kNone, 0.0, false), Admit::kQueueFull);
  EXPECT_EQ(policy.admit(3, kNone, 0.0, true), Admit::kAccept);
  policy.leave(1);
  EXPECT_EQ(policy.admit(3, kNone, 0.0, false), Admit::kAccept);
  EXPECT_EQ(policy.waiting(), 1);
}

TEST(AdmissionTest, QuotaIsRoundedShareAndClientZeroIsExempt) {
  AdmissionConfig config;
  config.quota_fraction = 0.25;  // round(0.25 * 8) = 2 slots per client
  AdmissionPolicy policy(config, 1, /*max_queue=*/8);
  policy.enqueue(7, kNone);
  policy.enqueue(7, kNone);
  EXPECT_EQ(policy.admit(7, kNone, 0.0, false), Admit::kQuota);
  EXPECT_EQ(policy.admit(7, kNone, 0.0, true), Admit::kAccept);
  EXPECT_EQ(policy.admit(8, kNone, 0.0, false), Admit::kAccept);
  EXPECT_EQ(policy.shed_quota(), 1u);
  // Anonymous requests share no bucket.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(policy.admit(0, kNone, 0.0, false), Admit::kAccept);
    policy.enqueue(0, kNone);
  }
  // A slot given back is a slot regained.
  policy.leave(7);
  EXPECT_EQ(policy.admit(7, kNone, 0.0, false), Admit::kAccept);

  // Rounding: 0.32 * 8 = 2.56 -> 3 slots; a share under half a slot -> 1.
  config.quota_fraction = 0.32;
  AdmissionPolicy three(config, 1, 8);
  for (int i = 0; i < 2; ++i) three.enqueue(5, kNone);
  EXPECT_EQ(three.admit(5, kNone, 0.0, false), Admit::kAccept);
  three.enqueue(5, kNone);
  EXPECT_EQ(three.admit(5, kNone, 0.0, false), Admit::kQuota);
  config.quota_fraction = 0.01;
  AdmissionPolicy one(config, 1, 8);
  EXPECT_EQ(one.admit(5, kNone, 0.0, false), Admit::kAccept);
  one.enqueue(5, kNone);
  EXPECT_EQ(one.admit(5, kNone, 0.0, false), Admit::kQuota);

  // Quotas need a bounded queue.
  config.quota_fraction = 0.25;
  AdmissionPolicy unbounded(config, 1, 0);
  for (int i = 0; i < 10; ++i) unbounded.enqueue(5, kNone);
  EXPECT_EQ(unbounded.admit(5, kNone, 0.0, false), Admit::kAccept);
}

TEST(AdmissionTest, DequeueShedsExpiredAndInfeasibleHeads) {
  AdmissionPolicy policy({}, 1, 0);
  const double slack = AdmissionPolicy::kDispatchSlackS;
  // Lapsed while queued.
  auto out = policy.dequeue(/*enqueue_time=*/9.0, /*deadline_abs=*/9.5, 0.0, 1, /*now=*/10.0);
  EXPECT_EQ(out.verdict, Verdict::kShedDeadline);
  EXPECT_DOUBLE_EQ(out.sojourn_s, 1.0);
  EXPECT_GE(out.retry_after_s, AdmissionPolicy::kRetryAfterMinS);
  // Still in budget, but the predicted completion overshoots it.
  out = policy.dequeue(9.9, 10.1, 0.1 - slack / 2, 1, 10.0);
  EXPECT_EQ(out.verdict, Verdict::kShedDeadline);
  // Completion plus slack lands exactly on the deadline: runs.
  out = policy.dequeue(9.9, 10.0 + 0.25 + slack, 0.25, 1, 10.0);
  EXPECT_EQ(out.verdict, Verdict::kGrant);
  EXPECT_EQ(out.retry_after_s, 0.0);
  // Unknown service time: only the lapse counts.
  EXPECT_EQ(policy.dequeue(9.9, 10.001, 0.0, 1, 10.0).verdict, Verdict::kGrant);
  EXPECT_EQ(policy.dequeue(9.9, 10.0, 0.0, 1, 10.0).verdict, Verdict::kShedDeadline);
  EXPECT_EQ(policy.shed_dequeue(), 3u);

  AdmissionConfig off;
  off.deadline_aware = false;
  AdmissionPolicy fifo(off, 1, 0);
  EXPECT_EQ(fifo.dequeue(9.0, 9.5, 1.0, 1, 10.0).verdict, Verdict::kGrant);
  EXPECT_EQ(fifo.shed_dequeue(), 0u);
}

TEST(AdmissionTest, CodelDropsAfterAnIntervalAtSqrtCadence) {
  AdmissionPolicy policy(codel_config(0.05), 1, 0);
  const double interval = AdmissionPolicy::kCodelIntervalS;
  // Above target: arms, but a burst shorter than the interval is fine.
  EXPECT_EQ(dequeue_at(policy, 10.0, 0.06).verdict, Verdict::kGrant);
  EXPECT_EQ(dequeue_at(policy, 10.0 + interval * 0.99, 0.06).verdict, Verdict::kGrant);
  // Above target for a full interval: the first drop.
  double t = 10.0 + interval;
  EXPECT_EQ(dequeue_at(policy, t, 0.06).verdict, Verdict::kShedCodel);
  // Then interval / sqrt(count), count 2, 3, ...
  for (int count = 2; count <= 5; ++count) {
    const double next = t + interval / std::sqrt(static_cast<double>(count));
    EXPECT_EQ(dequeue_at(policy, next - 1e-6, 0.06).verdict, Verdict::kGrant) << count;
    EXPECT_EQ(dequeue_at(policy, next, 0.06).verdict, Verdict::kShedCodel) << count;
    t = next;
  }
  EXPECT_EQ(policy.shed_codel(), 5u);  // count is now 6

  // Under target: leaves the dropping state.
  EXPECT_EQ(dequeue_at(policy, t + 0.001, 0.01).verdict, Verdict::kGrant);
  EXPECT_EQ(dequeue_at(policy, t + 0.002, 0.06).verdict, Verdict::kGrant);  // re-arms

  // Re-congested: after another interval it resumes at count - 2 = 4, so
  // the drop after the first comes interval / sqrt(5) later, not at the
  // restart cadence interval / sqrt(2).
  t = t + 0.002 + interval;
  EXPECT_EQ(dequeue_at(policy, t, 0.06).verdict, Verdict::kShedCodel);
  const double next = t + interval / std::sqrt(5.0);
  EXPECT_EQ(dequeue_at(policy, next - 1e-6, 0.06).verdict, Verdict::kGrant);
  EXPECT_EQ(dequeue_at(policy, next, 0.06).verdict, Verdict::kShedCodel);
  EXPECT_EQ(policy.shed_codel(), 7u);
}

TEST(AdmissionTest, CodelNeverDropsTheSoleWaiter) {
  AdmissionPolicy policy(codel_config(0.05), 1, 0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(dequeue_at(policy, 10.0 + 0.01 * i, 1.0, /*queued=*/1).verdict,
              Verdict::kGrant);
  }
  EXPECT_EQ(policy.shed_codel(), 0u);
  // Off (target 0): never drops at all.
  AdmissionPolicy off({}, 1, 0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(dequeue_at(off, 10.0 + 0.01 * i, 1.0, 8).verdict, Verdict::kGrant);
  }
}

TEST(AdmissionTest, AimdBacksOffMultiplicativelyAndGrowsAdditively) {
  AdmissionConfig config;
  config.aimd = true;
  AdmissionPolicy policy(config, /*workers=*/4, 0);
  EXPECT_EQ(policy.concurrency_limit(), 4);
  // An expired head is the overload signal: 4 * 0.7 = 2.8 -> 2.
  auto shed = [&](double now) { return policy.dequeue(now - 1.0, now - 0.5, 0.0, 1, now); };
  EXPECT_TRUE(shed(10.0).backed_off);
  EXPECT_EQ(policy.concurrency_limit(), 2);
  // A second shed inside the spacing is the same congestion episode.
  EXPECT_FALSE(shed(10.0 + AdmissionPolicy::kAimdDecreaseSpacingS * 0.9).backed_off);
  EXPECT_EQ(policy.concurrency_limit(), 2);
  // 2.8 * 0.7 = 1.96 -> 1, then floored at kAimdMin.
  EXPECT_TRUE(shed(10.2).backed_off);
  EXPECT_EQ(policy.concurrency_limit(), 1);
  EXPECT_TRUE(shed(10.4).backed_off);
  EXPECT_TRUE(shed(10.6).backed_off);
  EXPECT_EQ(policy.concurrency_limit(), AdmissionPolicy::kAimdMin);

  // +1 per limit's worth of clean completions, capped at the worker count.
  EXPECT_TRUE(policy.on_success(0.1));  // limit 1: one success grows it
  EXPECT_EQ(policy.concurrency_limit(), 2);
  EXPECT_FALSE(policy.on_success(0.1));
  EXPECT_TRUE(policy.on_success(0.1));
  EXPECT_EQ(policy.concurrency_limit(), 3);
  for (int i = 0; i < 2; ++i) EXPECT_FALSE(policy.on_success(0.1));
  EXPECT_TRUE(policy.on_success(0.1));
  EXPECT_EQ(policy.concurrency_limit(), 4);
  for (int i = 0; i < 8; ++i) (void)policy.on_success(0.1);
  EXPECT_EQ(policy.concurrency_limit(), 4);

  // Off: the worker count rules and sheds back nothing off.
  AdmissionPolicy fixed({}, 4, 0);
  EXPECT_FALSE(fixed.dequeue(9.0, 9.5, 0.0, 1, 10.0).backed_off);
  EXPECT_FALSE(fixed.on_success(0.1));
  EXPECT_EQ(fixed.concurrency_limit(), 4);
}

TEST(AdmissionTest, RetryAfterFollowsServiceAndDepthWithinClamps) {
  AdmissionPolicy policy({}, /*workers=*/2, 0);
  // No service sample yet: 20 ms per job, one job ahead, two slots.
  EXPECT_DOUBLE_EQ(policy.retry_after(), 0.01);
  policy.on_success(0.1);
  for (int i = 0; i < 3; ++i) policy.enqueue(1, kNone);
  EXPECT_DOUBLE_EQ(policy.retry_after(), 0.1 * 4 / 2);
  policy.on_success(100.0);  // EWMA 0.8 * 0.1 + 0.2 * 100
  EXPECT_DOUBLE_EQ(policy.retry_after(), AdmissionPolicy::kRetryAfterMaxS);

  AdmissionPolicy fast({}, 2, 0);
  fast.on_success(1e-6);
  EXPECT_DOUBLE_EQ(fast.retry_after(), AdmissionPolicy::kRetryAfterMinS);
  // A shed carries the hint as it stood with the shed job still counted.
  fast.enqueue(1, kNone);
  fast.on_success(1.0);  // EWMA 0.8e-6 + 0.2 -> ~0.2 s per job
  const auto out = fast.dequeue(9.0, 9.5, 0.0, 1, 10.0);
  EXPECT_DOUBLE_EQ(out.retry_after_s, fast.retry_after());
  EXPECT_NEAR(out.retry_after_s, (0.8e-6 + 0.2) * 2 / 2, 1e-12);
}

TEST(AdmissionTest, SojournP95OverTheLast128Dequeues) {
  AdmissionPolicy policy({}, 1, 0);
  EXPECT_EQ(policy.sojourn_p95(), 0.0);
  for (int i = 0; i < 50; ++i) dequeue_at(policy, 10.0 + i, 0.001 * i, 1);
  // Nearest rank: 0.95 * 49 = 46.55 rounds to 47 of 0, 1, ..., 49 ms.
  EXPECT_NEAR(policy.sojourn_p95(), 0.047, 1e-9);
  // 200 more at 1 s push every old sample out of the ring.
  for (int i = 0; i < 200; ++i) dequeue_at(policy, 200.0 + i, 1.0, 1);
  EXPECT_DOUBLE_EQ(policy.sojourn_p95(), 1.0);
}

}  // namespace
}  // namespace ns::server
