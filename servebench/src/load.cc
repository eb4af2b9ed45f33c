#include "load.h"

#include <poll.h>
#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

namespace servebench {

namespace {

constexpr std::size_t kRing = 1 << 16;  // > any number of requests in flight
constexpr std::int64_t kDrainNs = 10'000'000'000;

struct Slot {
  std::int64_t send_ns = 0;
  std::int64_t due_ns = 0;
  std::uint32_t probe = 0;
};

}  // namespace

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds(clockid_t clock) {
  timespec t{};
  clock_gettime(clock, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

bool LoadGenerator::Connect(std::string* error) {
  // Wake-ups from ppoll are what the open loop's send times rest on; the
  // default 50 us timer slack of this thread would add to each of them.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  for (std::size_t i = 0; i < kOpenConnections; ++i) {
    Conn c;
    c.client = std::make_unique<rdfc::net::Client>();
    rdfc::util::Status s = c.client->Connect("127.0.0.1", port_);
    // The client's sockets keep net::Client's defaults, as the shipped
    // clients do (see README "Faults").
    if (s.ok()) s = c.client->SetNonBlocking();
    if (!s.ok()) {
      *error = s.ToString();
      return false;
    }
    conns_.push_back(std::move(c));
  }
  return true;
}

void LoadGenerator::Check(const rdfc::net::WireResponse& resp,
                          std::uint32_t probe, bool sample,
                          LoadResult* r) const {
  if (resp.status != rdfc::net::WireStatus::kOk || resp.degraded ||
      resp.quarantined) {
    ++r->failed;
    if (r->first_error.empty()) {
      r->first_error = std::string(rdfc::net::WireStatusName(resp.status)) +
                       (resp.degraded ? " degraded " : " ") + resp.payload;
    }
    return;
  }
  ++r->completed;
  if (sample) r->samples.push_back({probe, resp.snapshot_version,
                                    resp.containing_views});
}

std::size_t LoadGenerator::PickIdle() {
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    const std::size_t at = (next_conn_ + i) % conns_.size();
    if (conns_[at].outstanding == 0) {
      next_conn_ = (at + 1) % conns_.size();
      return at;
    }
  }
  return conns_.size();
}

template <typename Done>
bool LoadGenerator::Pump(int timeout_ns, Done done, LoadResult* r) {
  std::vector<pollfd> fds;
  for (Conn& c : conns_) {
    short events = POLLIN;
    if (c.client->has_queued()) events |= POLLOUT;
    fds.push_back({c.client->fd(), events, 0});
  }
  timespec ts{};
  ts.tv_sec = timeout_ns / 1'000'000'000;
  ts.tv_nsec = timeout_ns % 1'000'000'000;
  if (ppoll(fds.data(), fds.size(), &ts, nullptr) < 0) return true;
  std::vector<rdfc::net::WireResponse> got;
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    if (fds[i].revents == 0) continue;
    Conn& c = conns_[i];
    if (c.client->has_queued() && !c.client->FlushQueued().ok()) {
      r->first_error = "send failed";
      return false;
    }
    got.clear();
    if (!c.client->ReadAvailable(&got).ok()) {
      r->first_error = "connection lost";
      return false;
    }
    const std::int64_t now = NowNs();
    for (const rdfc::net::WireResponse& resp : got) {
      --c.outstanding;
      done(resp, now);
    }
  }
  return true;
}

LoadResult LoadGenerator::Closed(double seconds, std::size_t* cursor,
                                 bool sample) {
  LoadResult r;
  std::vector<Slot> ring(kRing);
  const std::int64_t t0 = NowNs();
  const std::int64_t end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  std::uint64_t seq = 0;
  constexpr std::int64_t kSegmentNs = 250'000'000;
  const auto segments = static_cast<std::size_t>((end - t0) / kSegmentNs);
  r.segment_completions.assign(segments, 0);
  auto service_cpu = [] {
    return CpuSeconds(CLOCK_PROCESS_CPUTIME_ID) -
           CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
  };
  double cpu_mark = service_cpu();
  auto done = [&](const rdfc::net::WireResponse& resp, std::int64_t now) {
    const Slot& s = ring[resp.id % kRing];
    const auto seg = static_cast<std::size_t>((now - t0) / kSegmentNs);
    if (seg < r.segment_completions.size()) ++r.segment_completions[seg];
    Check(resp, s.probe, sample && resp.id % w_.oracle_every == 0, &r);
  };
  while (true) {
    const std::int64_t now = NowNs();
    const bool sending = now < end;
    // This loop wakes at least every 10 ms, and at once on each answer
    // under saturation, so a segment's CPU is read close to its boundary.
    if (r.segment_cpu_s.size() < segments &&
        static_cast<std::size_t>((now - t0) / kSegmentNs) >
            r.segment_cpu_s.size()) {
      const double cpu = service_cpu();
      r.segment_cpu_s.push_back(cpu - cpu_mark);
      cpu_mark = cpu;
    }
    std::size_t outstanding = 0;
    for (std::size_t i = 0; i < kClosedConnections; ++i) {
      Conn& c = conns_[i];
      // Refill one request at a time: the client then writes as soon as any
      // answer arrives, so its acknowledgements flow and the window groups
      // the consecutive requests of a burst that go out together.
      while (sending && c.outstanding < w_.closed_depth) {
        rdfc::net::WireRequest req;
        req.id = seq++;
        const std::uint32_t probe =
            w_.requests[(*cursor)++ % w_.requests.size()];
        req.query = w_.probes[probe].text;
        ring[req.id % kRing] = {now, now, probe};
        c.client->QueueRequest(req);
        ++c.outstanding;
      }
      if (c.client->has_queued() && !c.client->FlushQueued().ok()) {
        r.first_error = "send failed";
      }
      outstanding += c.outstanding;
    }
    if (!sending && outstanding == 0) break;
    if (now > end + kDrainNs) {
      r.first_error = "responses missing after the drain timeout";
      break;
    }
    const std::int64_t wait = sending ? end - now : 10'000'000;
    if (!Pump(static_cast<int>(std::min<std::int64_t>(wait, 10'000'000)), done,
              &r)) {
      break;
    }
  }
  r.sent = seq;
  r.failed += r.sent - r.completed - r.failed;
  r.segment_s = static_cast<double>(kSegmentNs) / 1e9;
  return r;
}

void LoadGenerator::Reserve(LoadResult* r, double seconds, double rate,
                            std::size_t burst) {
  const auto n = static_cast<std::size_t>(seconds * rate) + burst;
  r->latency_us.assign(n, std::numeric_limits<double>::infinity());
  r->outside_us.assign(n, 0.0);
  r->late_us.assign(n, 0.0);
}

void LoadGenerator::Open(double seconds, double rate, std::size_t* cursor,
                         LoadResult* out) {
  LoadResult& r = *out;
  if (r.latency_us.size() < static_cast<std::size_t>(seconds * rate)) {
    Reserve(&r, seconds, rate, w_.burst);
  }
  std::vector<Slot> ring(kRing);
  const std::size_t burst = w_.burst;
  const auto bursts =
      static_cast<std::uint64_t>(std::floor(seconds * rate / burst));
  const double period_ns = 1e9 * static_cast<double>(burst) / rate;
  const std::int64_t t0 = NowNs() + 1'000'000;
  auto due_of = [&](std::uint64_t k) {
    return t0 + static_cast<std::int64_t>(period_ns * static_cast<double>(k));
  };
  std::uint64_t seq = 0;
  auto done = [&](const rdfc::net::WireResponse& resp, std::int64_t now) {
    const Slot& s = ring[resp.id % kRing];
    r.latency_us[resp.id] = static_cast<double>(now - s.due_ns) / 1000.0;
    r.outside_us[resp.id] =
        static_cast<double>(now - s.send_ns) / 1000.0 - resp.server_micros;
    Check(resp, s.probe, resp.id % w_.oracle_every == 0, &r);
  };
  // Request j of the phase is due with burst j / burst.  A due request waits
  // for an idle connection, so at most kOpenConnections requests are ever
  // outstanding: far below the service's admission queue, which therefore
  // never sheds.  A service that falls behind shows as latency from the due
  // time instead.
  const std::uint64_t total = bursts * burst;
  while (true) {
    const std::int64_t now = NowNs();
    while (seq < total && due_of(seq / burst) <= now) {
      const std::size_t at = PickIdle();
      if (at == conns_.size()) break;
      Conn& c = conns_[at];
      const std::int64_t due = due_of(seq / burst);
      rdfc::net::WireRequest req;
      req.id = seq++;
      const std::uint32_t probe =
          w_.requests[(*cursor)++ % w_.requests.size()];
      req.query = w_.probes[probe].text;
      ring[req.id % kRing] = {now, due, probe};
      r.late_us[req.id] = static_cast<double>(now - due) / 1000.0;
      c.client->QueueRequest(req);
      ++c.outstanding;
    }
    std::size_t outstanding = 0;
    for (Conn& c : conns_) {
      if (c.client->has_queued() && !c.client->FlushQueued().ok()) {
        r.first_error = "send failed";
      }
      outstanding += c.outstanding;
    }
    if (seq == total && outstanding == 0) break;
    if (seq == total && now > due_of(bursts) + kDrainNs) {
      r.first_error = "responses missing after the drain timeout";
      break;
    }
    // Sleep until the next request is due, or, when it is due already and
    // every connection is busy, until an answer frees one.
    const std::int64_t wait =
        seq < total && outstanding < conns_.size()
            ? std::max<std::int64_t>(0, due_of(seq / burst) - NowNs())
            : 10'000'000;
    if (!Pump(static_cast<int>(std::min<std::int64_t>(wait, 10'000'000)), done,
              &r)) {
      break;
    }
  }
  r.sent = seq;
  r.failed += r.sent - r.completed - r.failed;
  r.latency_us.resize(seq);
  r.outside_us.resize(seq);
  r.late_us.resize(seq);
  r.per_window = static_cast<std::size_t>(WindowSeconds(burst) * rate);
}

}  // namespace servebench
