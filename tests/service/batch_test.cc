#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "service/containment_service.h"

// SubmitBatch error paths (ISSUE 8 satellite): per-request isolation inside
// mixed batches (expired / quarantined members never poison their siblings),
// intra-group dedup, and the grouped overload's all-or-nothing admission —
// a shed group fires ZERO callbacks and the caller owns the error fan-out.

namespace rdfc {
namespace service {
namespace {

ServiceOptions TestOptions(std::size_t threads = 1,
                           std::size_t queue_capacity = 64) {
  ServiceOptions options;
  options.num_threads = threads;
  options.queue_capacity = queue_capacity;
  options.parser.default_prefixes[""] = "urn:t:";
  return options;
}

ProbeRequest MakeRequest(ContainmentService* svc, const std::string& sparql) {
  auto query = svc->Parse(sparql);
  EXPECT_TRUE(query.ok()) << sparql;
  ProbeRequest request;
  request.query = *query;
  return request;
}

/// Collects grouped-SubmitBatch callbacks: (index, response) pairs in
/// arrival order, readable after the batch completes.
struct Collector {
  void operator()(std::size_t index, ProbeResponse response) {
    std::lock_guard<std::mutex> lock(mu);
    indices.push_back(index);
    responses.push_back(std::move(response));
  }
  std::mutex mu;
  std::vector<std::size_t> indices;
  std::vector<ProbeResponse> responses;
};

TEST(BatchTest, SyncBatchMixedAdmissionKeepsPerRequestStatuses) {
  // Queue capacity 1, one worker, four 20ms-io requests submitted back to
  // back: the first is always admitted (the queue is empty), at most two
  // ever are (worker + the single slot), so the batch must come back MIXED —
  // some admitted (eventually OK), some shed with ResourceExhausted — never
  // all-or-nothing.
  ContainmentService svc(TestOptions(/*threads=*/1, /*queue_capacity=*/1));
  ASSERT_TRUE(svc.PublishViews({"ASK { ?x :p ?y . }"}).ok());

  std::vector<ProbeRequest> batch;
  for (int i = 0; i < 4; ++i) {
    ProbeRequest request = MakeRequest(&svc, "ASK { ?a :p ?b . }");
    request.simulated_io_micros = 20'000;
    batch.push_back(std::move(request));
  }
  std::vector<util::Result<ProbeResponse>> results =
      svc.SubmitBatch(std::move(batch));
  ASSERT_EQ(results.size(), 4u);
  std::size_t ok = 0, shed = 0;
  for (const auto& result : results) {
    if (result.ok() && result.value().status.ok()) {
      ++ok;
    } else if (!result.ok() &&
               result.status().code() == util::StatusCode::kResourceExhausted) {
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, 4u);
  EXPECT_GE(shed, 2u);
  EXPECT_GE(ok, 1u);
}

TEST(BatchTest, GroupedExpiredMemberIsIsolatedFromSiblings) {
  ContainmentService svc(TestOptions());
  ASSERT_TRUE(svc.PublishViews({"ASK { ?x :p ?y . }"}).ok());

  std::vector<ProbeRequest> group;
  group.push_back(MakeRequest(&svc, "ASK { ?a :p ?b . }"));
  ProbeRequest expired = MakeRequest(&svc, "ASK { ?a :p ?b . ?a :q ?c . }");
  expired.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  group.push_back(std::move(expired));
  group.push_back(MakeRequest(&svc, "ASK { ?a :p ?b . ?b :r ?c . }"));

  Collector collected;
  ASSERT_TRUE(svc.SubmitBatch(std::move(group),
                              std::ref(collected), /*wait=*/0.0)
                  .ok());
  svc.Shutdown();  // drains: all callbacks have fired

  ASSERT_EQ(collected.indices.size(), 3u);
  // Callbacks fire once per request, in group order, with the index naming
  // the request's slot in the submitted group.
  EXPECT_EQ(collected.indices, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_TRUE(collected.responses[0].status.ok());
  EXPECT_EQ(collected.responses[1].status.code(),
            util::StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(collected.responses[2].status.ok());
  // Healthy siblings share the one pinned snapshot.
  EXPECT_EQ(collected.responses[0].snapshot_version,
            collected.responses[2].snapshot_version);

  const MetricsSnapshot metrics = svc.Metrics();
  EXPECT_EQ(metrics.deadline_expired, 1u);
  EXPECT_EQ(metrics.completed, 2u);
  EXPECT_EQ(metrics.batches, 1u);
  EXPECT_EQ(metrics.batch_requests, 3u);
}

TEST(BatchTest, GroupedIdenticalProbesAreDedupedOnce) {
  ContainmentService svc(TestOptions());
  ASSERT_TRUE(svc.PublishViews({"ASK { ?x :p ?y . }"}).ok());

  const std::string probe = "ASK { ?a :p ?b . ?a :q ?c . }";
  std::vector<ProbeRequest> group;
  for (int i = 0; i < 5; ++i) group.push_back(MakeRequest(&svc, probe));

  Collector collected;
  ASSERT_TRUE(
      svc.SubmitBatch(std::move(group), std::ref(collected), 0.0).ok());
  svc.Shutdown();

  ASSERT_EQ(collected.responses.size(), 5u);
  for (const ProbeResponse& response : collected.responses) {
    EXPECT_TRUE(response.status.ok());
    ASSERT_EQ(response.containing_views.size(), 1u);
    EXPECT_EQ(response.snapshot_version,
              collected.responses[0].snapshot_version);
  }
  const MetricsSnapshot metrics = svc.Metrics();
  EXPECT_EQ(metrics.batch_dedup_hits, 4u);  // 1 executed + 4 answered from it
  EXPECT_EQ(metrics.completed, 5u);         // every caller still gets counted
}

TEST(BatchTest, GroupedShedIsAllOrNothingWithZeroCallbacks) {
  // Worker wedged + queue slot taken: the whole group must be refused at
  // admission with ResourceExhausted, metrics must count every member as
  // rejected, and the callback must never fire — response fan-out on
  // rejection belongs to the caller (the net server).
  ContainmentService svc(TestOptions(/*threads=*/1, /*queue_capacity=*/1));
  ASSERT_TRUE(svc.PublishViews({"ASK { ?x :p ?y . }"}).ok());

  std::vector<ProbeRequest> group;
  for (int i = 0; i < 3; ++i) {
    group.push_back(MakeRequest(&svc, "ASK { ?a :p ?b . }"));
  }

  // Submit 100ms io probes until one is refused after at least two were
  // admitted: the single queue slot can take a second probe only once the
  // worker has dequeued the first, so at that refusal the worker is wedged
  // AND the slot holds another 100ms probe, and the queue stays provably
  // full for the grouped submission below.  A refusal after one admission
  // proves nothing (the worker may not have dequeued it yet), so the loop
  // retries until the worker has taken a probe.
  std::vector<std::future<ProbeResponse>> fillers;
  for (;;) {
    ProbeRequest wedge = MakeRequest(&svc, "ASK { ?a :p ?b . }");
    wedge.simulated_io_micros = 100'000;
    auto future = svc.Submit(std::move(wedge));
    if (!future.ok()) {
      ASSERT_EQ(future.status().code(), util::StatusCode::kResourceExhausted);
      if (fillers.size() >= 2) break;
      std::this_thread::yield();
      continue;
    }
    fillers.push_back(std::move(future).value());
    ASSERT_LE(fillers.size(), 8u) << "queue never filled";
  }

  std::atomic<std::size_t> callbacks{0};
  const util::Status admitted = svc.SubmitBatch(
      std::move(group),
      [&callbacks](std::size_t, ProbeResponse) { ++callbacks; }, 0.0);
  EXPECT_EQ(admitted.code(), util::StatusCode::kResourceExhausted);

  for (auto& filler : fillers) filler.wait();
  svc.Shutdown();
  EXPECT_EQ(callbacks.load(), 0u);

  const MetricsSnapshot metrics = svc.Metrics();
  EXPECT_GE(metrics.rejected, 3u);
  EXPECT_EQ(metrics.batches, 0u);  // a refused group is not a batch
}

TEST(BatchTest, GroupedSubmitAfterShutdownFiresNoCallbacks) {
  ContainmentService svc(TestOptions());
  ASSERT_TRUE(svc.PublishViews({"ASK { ?x :p ?y . }"}).ok());
  std::vector<ProbeRequest> group;
  group.push_back(MakeRequest(&svc, "ASK { ?a :p ?b . }"));
  svc.Shutdown();

  std::atomic<std::size_t> callbacks{0};
  const util::Status admitted = svc.SubmitBatch(
      std::move(group),
      [&callbacks](std::size_t, ProbeResponse) { ++callbacks; }, 0.0);
  EXPECT_FALSE(admitted.ok());
  EXPECT_EQ(callbacks.load(), 0u);
}

TEST(BatchTest, EmptyGroupIsANoOp) {
  ContainmentService svc(TestOptions());
  std::atomic<std::size_t> callbacks{0};
  EXPECT_TRUE(svc.SubmitBatch(
                     std::vector<ProbeRequest>{},
                     [&callbacks](std::size_t, ProbeResponse) { ++callbacks; },
                     0.0)
                  .ok());
  EXPECT_EQ(callbacks.load(), 0u);
}

TEST(BatchTest, DegradedOutcomeIsNeverServedFromTheDedupCache) {
  // Two identical adversarial probes in one group under a tiny budget: the
  // first degrades, so the second must RUN (and degrade itself) rather than
  // inherit a possibly-incomplete cached answer as if it were clean.
  ServiceOptions options = TestOptions();
  options.probe_timeout_micros = 5'000;
  options.quarantine_threshold = 0;  // breaker off: isolate dedup behaviour
  ContainmentService svc(options);
  std::string view = "ASK { ?x :p ?y . ";
  for (int j = 0; j < 6; ++j) view += "?x :p ?z" + std::to_string(j) + " . ";
  view += "?y :r ?w0 . ?y :rp ?w1 . }";
  ASSERT_TRUE(svc.PublishViews({view}).ok());

  std::string probe = "ASK { ";
  for (int i = 0; i < 12; ++i) probe += "?a :p ?b" + std::to_string(i) + " . ";
  probe += "?b0 :r ?e0 . ?b1 :rp ?e1 . }";

  std::vector<ProbeRequest> group;
  group.push_back(MakeRequest(&svc, probe));
  group.push_back(MakeRequest(&svc, probe));
  Collector collected;
  ASSERT_TRUE(
      svc.SubmitBatch(std::move(group), std::ref(collected), 0.0).ok());
  svc.Shutdown();

  ASSERT_EQ(collected.responses.size(), 2u);
  EXPECT_TRUE(collected.responses[0].degraded);
  EXPECT_TRUE(collected.responses[1].degraded);
  EXPECT_EQ(svc.Metrics().batch_dedup_hits, 0u);
}

}  // namespace
}  // namespace service
}  // namespace rdfc
