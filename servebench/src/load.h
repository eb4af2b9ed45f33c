// Load generation over net::Client: one closed-loop saturation phase and one
// open-loop phase at a fixed offered rate.  One thread drives every
// connection; it sleeps in ppoll until the next send is due or a response
// arrives, and never spins.  Latencies are kept as raw samples.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gen.h"
#include "net/client.h"

namespace servebench {

/// Open-loop latency windows: 1 s, so that a 16 s phase has 16 of them.  A
/// burst is 8 correlated samples, so burst workloads take 2 s windows (500
/// bursts each).
inline double WindowSeconds(std::size_t burst) { return burst > 1 ? 2.0 : 1.0; }

/// A response kept for the oracle check.
struct Sampled {
  std::uint32_t probe = 0;
  std::uint64_t version = 0;
  std::vector<std::uint64_t> views;
};

struct LoadResult {
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;  // answered OK, not degraded
  std::uint64_t failed = 0;     // any other answer, or no answer
  /// Closed loop: completions per segment of `segment_s` seconds, and the
  /// service's CPU seconds in each (the process's less the load thread's).
  std::vector<std::uint64_t> segment_completions;
  std::vector<double> segment_cpu_s;
  double segment_s = 0;
  /// Open loop, indexed by request (in due order): latency from the due
  /// time, round trip minus server_micros, and send time minus due time.
  std::vector<double> latency_us;
  std::vector<double> outside_us;
  std::vector<double> late_us;
  std::size_t per_window = 0;  // open loop: requests due per window
  std::vector<Sampled> samples;
  std::string first_error;
};

class LoadGenerator {
 public:
  LoadGenerator(const Workload& w, std::uint16_t port) : w_(w), port_(port) {}

  /// Opens kOpenConnections connections: the closed loop pipelines over
  /// the first kClosedConnections, the open loop uses all of them.
  bool Connect(std::string* error);

  /// Keeps Workload::closed_depth requests outstanding on each of the first
  /// kClosedConnections connections for `seconds`, then drains.
  /// Requests start at `*cursor` in the workload's request stream; the
  /// cursor advances past what was sent.  `sample` keeps every
  /// Workload::oracle_every-th answer for the oracle.
  LoadResult Closed(double seconds, std::size_t* cursor, bool sample);

  /// Sends bursts on the fixed schedule of `rate` requests per second for
  /// `seconds`, then drains.  Like independent users, each request goes out
  /// on a connection with nothing outstanding, so no connection pipelines;
  /// a due request waits for an idle one.  At most kOpenConnections requests
  /// are outstanding, so the service's admission queue never fills.  `r`
  /// should come from Reserve; a request that gets no answer keeps an
  /// infinite latency.
  void Open(double seconds, double rate, std::size_t* cursor, LoadResult* r);

  /// Sizes and touches the buffers of an open phase, so that the memory
  /// they need is resident before the service's memory is measured.
  static void Reserve(LoadResult* r, double seconds, double rate,
                      std::size_t burst);

 private:
  struct Conn {
    std::unique_ptr<rdfc::net::Client> client;
    std::size_t outstanding = 0;
  };
  /// The open loop's connection for the next request: the next idle one in
  /// round-robin order, or conns_.size() when every connection is busy.
  std::size_t PickIdle();
  /// Reads every connection's available responses; `done` gets each one.
  template <typename Done>
  bool Pump(int timeout_ns, Done done, LoadResult* r);
  void Check(const rdfc::net::WireResponse& resp, std::uint32_t probe,
             bool sample, LoadResult* r) const;

  const Workload& w_;
  std::uint16_t port_;
  std::vector<Conn> conns_;
  std::size_t next_conn_ = 0;
};

std::int64_t NowNs();

/// CPU seconds charged to `clock` (the process or the calling thread).
/// Time the hypervisor stole from a vCPU is not charged.
double CpuSeconds(clockid_t clock);

}  // namespace servebench
