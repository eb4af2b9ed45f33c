#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "service/containment_service.h"

// Loopback end-to-end coverage of the network front end (ISSUE 8 acceptance
// bar): deadline propagation in both semantics, overload shedding, protocol
// errors isolated to their connection, anchor-signature batching with
// intra-group dedup, quarantine surfacing as a wire status, and drain on
// shutdown.  Every test binds an ephemeral port on 127.0.0.1.

namespace rdfc {
namespace net {
namespace {

using service::ContainmentService;
using service::ServiceOptions;

ServiceOptions TestServiceOptions(std::size_t threads = 2) {
  ServiceOptions options;
  options.num_threads = threads;
  options.queue_capacity = 64;
  options.parser.default_prefixes[""] = "urn:t:";
  return options;
}

// Text twins of workload::MakeAdversarialCase (see tests/service/
// deadline_test.cc): the PTime filter passes but NP verification must refute
// ~k^(m+1) candidate mappings, so a small budget reliably expires mid-probe.
std::string AdversarialView(std::size_t m) {
  std::string s = "ASK { ?x :p ?y . ";
  for (std::size_t j = 0; j < m; ++j) {
    s += "?x :p ?z" + std::to_string(j) + " . ";
  }
  return s + "?y :r ?w0 . ?y :rp ?w1 . }";
}

std::string AdversarialProbe(std::size_t k) {
  std::string s = "ASK { ";
  for (std::size_t i = 0; i < k; ++i) {
    s += "?a :p ?b" + std::to_string(i) + " . ";
  }
  return s + "?b0 :r ?e0 . ?b1 :rp ?e1 . }";
}

/// Service + started server on an ephemeral port.  Member order matters:
/// the server is destroyed (and so drained) before the service it fronts.
struct Harness {
  explicit Harness(const ServiceOptions& service_options,
                   ServerOptions server_options = {}) {
    svc = std::make_unique<ContainmentService>(service_options);
    server = std::make_unique<NetServer>(svc.get(), server_options);
  }
  util::Status Start() { return server->Start(); }

  std::unique_ptr<ContainmentService> svc;
  std::unique_ptr<NetServer> server;
};

/// Encodes `count` pipelined probe frames (ids start at `first_id`).
std::string ProbeFrames(const std::string& query, std::size_t count,
                        std::uint32_t simulated_io_micros,
                        std::uint64_t first_id = 1000) {
  std::string frames;
  for (std::size_t i = 0; i < count; ++i) {
    WireRequest request;
    request.opcode = Opcode::kProbe;
    request.id = first_id + i;
    request.simulated_io_micros = simulated_io_micros;
    request.query = query;
    EncodeRequest(request, &frames);
  }
  return frames;
}

TEST(NetServerTest, ProbeEndToEndReturnsContainingViews) {
  Harness h(TestServiceOptions());
  auto view = h.svc->AddView("ASK { ?x :p ?y . }");
  ASSERT_TRUE(view.ok());
  ASSERT_TRUE(h.svc->Publish().ok());
  ASSERT_TRUE(h.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", h.server->port()).ok());
  util::Result<WireResponse> response =
      client.Probe("ASK { ?a :p ?b . ?a :q ?c . }");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, WireStatus::kOk);
  EXPECT_FALSE(response->degraded);
  ASSERT_EQ(response->containing_views.size(), 1u);
  EXPECT_EQ(response->containing_views[0], view.value());
  EXPECT_GT(response->snapshot_version, 0u);
  EXPECT_GT(response->server_micros, 0.0);

  util::Result<WireResponse> pong = client.Ping();
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->status, WireStatus::kOk);

  util::Result<WireResponse> stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->payload.find("\"completed\""), std::string::npos);
  EXPECT_NE(stats->payload.find("\"conns_open\""), std::string::npos);
}

TEST(NetServerTest, ExpiredOnArrivalDeadlineIsWireDeadlineExceeded) {
  // One worker held busy by pipelined 50ms io probes; a 1ms-deadline probe
  // behind them must expire before pickup -> the wire status, not a hang.
  Harness h(TestServiceOptions(/*threads=*/1));
  ASSERT_TRUE(h.svc->PublishViews({"ASK { ?x :p ?y . }"}).ok());
  ASSERT_TRUE(h.Start().ok());

  Client busy;
  ASSERT_TRUE(busy.Connect("127.0.0.1", h.server->port()).ok());
  const std::size_t kBusy = 4;
  ASSERT_TRUE(
      busy.SendRaw(ProbeFrames("ASK { ?a :p ?b . }", kBusy, 50'000)).ok());
  // Send the short-deadline probe only once the busy group is queued, so it
  // cannot reach the single worker ahead of it.
  while (h.svc->Metrics().submitted < kBusy) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", h.server->port()).ok());
  util::Result<WireResponse> expired =
      client.Probe("ASK { ?a :p ?b . }", /*deadline_ms=*/1);
  ASSERT_TRUE(expired.ok());
  EXPECT_EQ(expired->status, WireStatus::kDeadlineExceeded);
  EXPECT_FALSE(expired->degraded);

  // The busy probes were unaffected by their sibling's expiry.
  for (std::size_t i = 0; i < kBusy; ++i) {
    util::Result<WireResponse> response = busy.Receive();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, WireStatus::kOk);
  }
  EXPECT_GE(h.svc->Metrics().deadline_expired, 1u);
}

TEST(NetServerTest, MidProbeDeadlineExpiryIsOkButDegraded) {
  // An adversarial probe whose verification explores ~12^7 matcher states
  // under a 20ms wire deadline: the deadline survives the (empty) queue but
  // the ProbeBudget it seeds expires mid-verification.  The answer comes
  // back OK + degraded — sound, possibly incomplete, never a hang.
  Harness h(TestServiceOptions(/*threads=*/1));
  ASSERT_TRUE(h.svc->PublishViews({AdversarialView(6)}).ok());
  ASSERT_TRUE(h.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", h.server->port()).ok());
  util::Result<WireResponse> response =
      client.Probe(AdversarialProbe(12), /*deadline_ms=*/20);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, WireStatus::kOk);
  EXPECT_TRUE(response->degraded);
  EXPECT_FALSE(response->unverified_views.empty());
  EXPECT_GE(h.svc->Metrics().degraded, 1u);
}

TEST(NetServerTest, OverloadShedsWithResourceExhausted) {
  // One worker, a one-slot queue, batching disabled (window 0 so every probe
  // is its own admission group): pipelining 8 io-heavy probes must shed at
  // least one with RESOURCE_EXHAUSTED while the rest complete.
  ServiceOptions service_options = TestServiceOptions(/*threads=*/1);
  service_options.queue_capacity = 1;
  ServerOptions server_options;
  server_options.batch_window_micros = 0.0;
  Harness h(service_options, server_options);
  ASSERT_TRUE(h.svc->PublishViews({"ASK { ?x :p ?y . }"}).ok());
  ASSERT_TRUE(h.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", h.server->port()).ok());
  const std::size_t kProbes = 8;
  ASSERT_TRUE(
      client.SendRaw(ProbeFrames("ASK { ?a :p ?b . }", kProbes, 20'000)).ok());

  std::size_t ok = 0, shed = 0;
  for (std::size_t i = 0; i < kProbes; ++i) {
    util::Result<WireResponse> response = client.Receive();
    ASSERT_TRUE(response.ok());
    if (response->status == WireStatus::kOk) ++ok;
    if (response->status == WireStatus::kResourceExhausted) ++shed;
  }
  EXPECT_EQ(ok + shed, kProbes);
  EXPECT_GE(shed, 1u) << "a 1-slot queue never shed under 8 pipelined probes";
  EXPECT_GE(ok, 1u);
  EXPECT_GE(h.svc->Metrics().rejected, shed);
}

TEST(NetServerTest, UnparseableQueryIsInvalidArgumentAndConnectionSurvives) {
  Harness h(TestServiceOptions());
  ASSERT_TRUE(h.svc->PublishViews({"ASK { ?x :p ?y . }"}).ok());
  ASSERT_TRUE(h.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", h.server->port()).ok());
  util::Result<WireResponse> bad = client.Probe("THIS IS NOT SPARQL {{{");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->status, WireStatus::kInvalidArgument);
  EXPECT_FALSE(bad->payload.empty());  // human-readable detail rides along

  // A malformed QUERY is the client's problem, not a protocol error: the
  // connection keeps serving.
  util::Result<WireResponse> good = client.Probe("ASK { ?a :p ?b . }");
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->status, WireStatus::kOk);
}

TEST(NetServerTest, ProtocolErrorsCloseOnlyTheOffendingConnection) {
  ServerOptions server_options;
  server_options.max_frame_bytes = 4096;
  Harness h(TestServiceOptions(), server_options);
  ASSERT_TRUE(h.svc->PublishViews({"ASK { ?x :p ?y . }"}).ok());
  ASSERT_TRUE(h.Start().ok());

  Client survivor;
  ASSERT_TRUE(survivor.Connect("127.0.0.1", h.server->port()).ok());
  ASSERT_TRUE(survivor.Ping().ok());

  {
    // Oversized frame: length prefix above max_frame_bytes.
    Client abuser;
    ASSERT_TRUE(
        abuser.Connect("127.0.0.1", h.server->port(), /*timeout=*/2e6).ok());
    std::string oversized;
    const std::uint32_t huge = 1u << 20;
    for (int i = 0; i < 4; ++i) {
      oversized.push_back(static_cast<char>((huge >> (i * 8)) & 0xff));
    }
    ASSERT_TRUE(abuser.SendRaw(oversized).ok());
    EXPECT_FALSE(abuser.Receive().ok());
  }
  {
    // Garbled frame: plausible length, undecodable payload.
    Client abuser;
    ASSERT_TRUE(
        abuser.Connect("127.0.0.1", h.server->port(), /*timeout=*/2e6).ok());
    std::string garbled;
    garbled.push_back(3);
    garbled.append(3, '\0');
    garbled += "???";
    ASSERT_TRUE(abuser.SendRaw(garbled).ok());
    EXPECT_FALSE(abuser.Receive().ok());
  }

  // The neighbour never noticed.
  util::Result<WireResponse> response = survivor.Probe("ASK { ?a :p ?b . }");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, WireStatus::kOk);
  EXPECT_GE(h.svc->Metrics().net_protocol_errors, 2u);
}

TEST(NetServerTest, AnchorSharingBurstIsBatchedAndDeduped) {
  // A pipelined burst of IDENTICAL probes inside a generous batching window
  // must be admitted as few groups (one queue slot each) and answered mostly
  // from the intra-group dedup cache.
  ServerOptions server_options;
  server_options.batch_window_micros = 20'000.0;  // 20ms: the burst fits
  server_options.max_batch = 64;
  Harness h(TestServiceOptions(), server_options);
  ASSERT_TRUE(h.svc->PublishViews({"ASK { ?x :p ?y . }"}).ok());
  ASSERT_TRUE(h.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", h.server->port()).ok());
  const std::size_t kBurst = 16;
  ASSERT_TRUE(
      client.SendRaw(ProbeFrames("ASK { ?a :p ?b . ?a :q ?c . }", kBurst, 0))
          .ok());
  std::vector<std::uint64_t> versions;
  for (std::size_t i = 0; i < kBurst; ++i) {
    util::Result<WireResponse> response = client.Receive();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, WireStatus::kOk);
    ASSERT_EQ(response->containing_views.size(), 1u);
    versions.push_back(response->snapshot_version);
  }
  // Every sibling of a group answered against the SAME pinned snapshot.
  for (std::uint64_t v : versions) EXPECT_EQ(v, versions[0]);

  const service::MetricsSnapshot metrics = h.svc->Metrics();
  EXPECT_GE(metrics.batch_requests, kBurst);
  EXPECT_LT(metrics.batches, kBurst) << "burst was never grouped";
  EXPECT_GE(metrics.batch_dedup_hits, 1u);
  EXPECT_GT(metrics.batch_size.count(), 0u);
}

TEST(NetServerTest, QuarantinedProbeSurfacesAsWireStatus) {
  // Trip the breaker with repeat adversarial probes under a tiny compute
  // budget, then assert the short-circuit arrives as QUARANTINED on the wire.
  ServiceOptions service_options = TestServiceOptions(/*threads=*/1);
  service_options.probe_timeout_micros = 5'000;
  service_options.quarantine_threshold = 1;
  ServerOptions server_options;
  server_options.batch_window_micros = 0.0;  // no grouping: outcomes ordered
  Harness h(service_options, server_options);
  ASSERT_TRUE(h.svc->PublishViews({AdversarialView(6)}).ok());
  ASSERT_TRUE(h.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", h.server->port()).ok());
  util::Result<WireResponse> first = client.Probe(AdversarialProbe(12));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->status, WireStatus::kOk);
  EXPECT_TRUE(first->degraded);

  util::Result<WireResponse> second = client.Probe(AdversarialProbe(12));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->status, WireStatus::kQuarantined);
  EXPECT_TRUE(second->quarantined);
  EXPECT_GE(h.svc->Metrics().quarantined, 1u);
}

TEST(NetServerTest, RemoteShutdownCanBeForbidden) {
  ServerOptions server_options;
  server_options.allow_remote_shutdown = false;
  Harness h(TestServiceOptions(), server_options);
  ASSERT_TRUE(h.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", h.server->port()).ok());
  util::Result<WireResponse> refused = client.RequestShutdown();
  ASSERT_TRUE(refused.ok());
  EXPECT_EQ(refused->status, WireStatus::kInvalidArgument);
  EXPECT_FALSE(h.server->shutting_down());
  EXPECT_TRUE(client.Ping().ok());  // still serving
}

TEST(NetServerTest, ShutdownDrainsInFlightProbesAndFlushesResponses) {
  // Pipeline io-heavy probes, then Shutdown() while they are in flight: the
  // drain must flush every buffered response before closing, and probes
  // arriving AFTER the drain began answer SHUTTING_DOWN rather than
  // vanishing.
  Harness h(TestServiceOptions(/*threads=*/1));
  ASSERT_TRUE(h.svc->PublishViews({"ASK { ?x :p ?y . }"}).ok());
  ASSERT_TRUE(h.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", h.server->port()).ok());
  const std::size_t kProbes = 3;
  ASSERT_TRUE(
      client.SendRaw(ProbeFrames("ASK { ?a :p ?b . }", kProbes, 30'000)).ok());
  // Give the I/O thread a moment to admit the burst before draining.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  h.server->Shutdown();
  EXPECT_TRUE(h.server->stopped());

  std::size_t answered = 0;
  for (std::size_t i = 0; i < kProbes; ++i) {
    util::Result<WireResponse> response = client.Receive();
    if (!response.ok()) break;  // EOF once the drain finished writing
    EXPECT_TRUE(response->status == WireStatus::kOk ||
                response->status == WireStatus::kShuttingDown);
    if (response->status == WireStatus::kOk) ++answered;
  }
  EXPECT_GE(answered, 1u) << "drain dropped every in-flight response";
}

TEST(NetServerTest, RemoteShutdownAcknowledgesThenDrains) {
  Harness h(TestServiceOptions());
  ASSERT_TRUE(h.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", h.server->port()).ok());
  util::Result<WireResponse> ack = client.RequestShutdown();
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->status, WireStatus::kOk);
  EXPECT_TRUE(h.server->shutting_down());
  h.server->Shutdown();
  EXPECT_TRUE(h.server->stopped());
}

}  // namespace
}  // namespace net
}  // namespace rdfc
