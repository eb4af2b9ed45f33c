#include "net/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "index/journal.h"
#include "query/analysis.h"
#include "util/timer.h"

namespace rdfc {
namespace net {

namespace {

util::Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return util::Status::Internal("fcntl(O_NONBLOCK) failed");
  }
  return util::Status::OK();
}

/// Service outcome -> wire status.  Quarantine short-circuits become their
/// own status (they carry no answer); mid-probe budget expiry stays kOk with
/// the degraded flag, because the answer is sound — just possibly
/// incomplete (DESIGN.md "Resilience").
WireResponse ToWire(std::uint64_t id, service::ProbeResponse&& response) {
  WireResponse wire;
  wire.id = id;
  wire.snapshot_version = response.snapshot_version;
  wire.candidates = static_cast<std::uint32_t>(response.candidates);
  wire.np_checks = static_cast<std::uint32_t>(response.np_checks);
  wire.server_micros = response.total_micros;
  wire.degraded = response.degraded;
  wire.quarantined = response.quarantined;
  wire.containing_views = std::move(response.containing_views);
  wire.unverified_views = std::move(response.unverified_views);
  if (response.quarantined) {
    wire.status = WireStatus::kQuarantined;
    wire.payload = "quarantined by the degradation circuit breaker";
  } else if (!response.status.ok()) {
    wire.status = response.status.code() == util::StatusCode::kDeadlineExceeded
                      ? WireStatus::kDeadlineExceeded
                      : WireStatus::kInternal;
    wire.payload = std::string(response.status.message());
  }
  return wire;
}

}  // namespace

/// One accepted connection.  All fields are touched only by the I/O thread.
struct NetServer::Connection {
  int fd = -1;
  std::string in;   // unconsumed bytes read off the socket
  std::string out;  // encoded responses not yet written
};

/// One parsed probe waiting in its signature group's accumulation window.
struct NetServer::PendingProbe {
  std::uint64_t conn_id = 0;
  std::uint64_t wire_id = 0;
  service::ProbeRequest request;
};

struct NetServer::Group {
  std::vector<PendingProbe> pending;
  /// Started when the group's first request arrives; the window is measured
  /// from here, so a trickle of arrivals cannot postpone the flush forever.
  util::Timer oldest;
};

struct NetServer::Completion {
  std::uint64_t conn_id = 0;
  WireResponse response;
};

NetServer::NetServer(service::ContainmentService* service,
                     const ServerOptions& options)
    : service_(service),
      metrics_(service->mutable_metrics()),
      options_(options) {}

NetServer::~NetServer() { Shutdown(); }

util::Status NetServer::Start() {
  RDFC_CHECK(!started_);
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return util::Status::Internal("socket() failed");
  const int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return util::Status::InvalidArgument("unparseable bind address: " +
                                         options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    return util::Status::Internal("bind failed: " +
                                  std::string(std::strerror(errno)));
  }
  if (::listen(listen_fd_, options_.listen_backlog) < 0) {
    return util::Status::Internal("listen failed");
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) < 0) {
    return util::Status::Internal("getsockname failed");
  }
  port_ = ntohs(bound.sin_port);
  util::Status nonblocking = SetNonBlocking(listen_fd_);
  if (!nonblocking.ok()) return nonblocking;

  int pipe_fds[2];
  if (::pipe(pipe_fds) < 0) return util::Status::Internal("pipe failed");
  wake_read_fd_ = pipe_fds[0];
  nonblocking = SetNonBlocking(wake_read_fd_);
  if (!nonblocking.ok()) return nonblocking;
  {
    util::MutexLock lock(&completion_mu_);
    wake_write_fd_ = pipe_fds[1];
    nonblocking = SetNonBlocking(wake_write_fd_);
  }
  if (!nonblocking.ok()) return nonblocking;

  util::ThreadPool::Options pool_options;
  pool_options.num_threads = 1;
  pool_options.queue_capacity = 1;
  io_pool_ = std::make_unique<util::ThreadPool>(pool_options);
  started_ = true;
  return io_pool_->TrySubmit([this](std::size_t) { Loop(); });
}

void NetServer::Shutdown() {
  if (!started_) {
    stopped_.store(true, std::memory_order_release);
    return;
  }
  shutdown_requested_.store(true, std::memory_order_release);
  Wake();
  io_pool_->Shutdown();  // joins the I/O loop (which closes connections)
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (wake_read_fd_ >= 0) {
    ::close(wake_read_fd_);
    wake_read_fd_ = -1;
  }
  {
    // Closed under the completion mutex so a straggling worker callback can
    // never write into a recycled fd number.
    util::MutexLock lock(&completion_mu_);
    if (wake_write_fd_ >= 0) {
      ::close(wake_write_fd_);
      wake_write_fd_ = -1;
    }
  }
}

void NetServer::Wake() {
  util::MutexLock lock(&completion_mu_);
  if (wake_write_fd_ >= 0) {
    const char byte = 'w';
    // A full pipe already guarantees a pending wakeup; errors are moot.
    (void)!::write(wake_write_fd_, &byte, 1);
  }
}

void NetServer::Loop() {
  std::vector<pollfd> fds;
  std::vector<std::uint64_t> fd_conn;  // conn id per fds[] entry (0 = none)
  util::Timer drain_timer;
  bool drain_observed = false;

  while (true) {
    const bool draining = shutdown_requested_.load(std::memory_order_acquire);
    if (draining && !drain_observed) {
      drain_observed = true;
      drain_timer.Restart();
    }
    FlushDueGroups(/*flush_all=*/draining);
    DrainCompletions();

    if (draining) {
      const bool flushed =
          std::all_of(connections_.begin(), connections_.end(),
                      [](const auto& e) { return e.second.out.empty(); });
      const bool force = drain_timer.ElapsedMicros() > 5e6;  // wedged client
      if ((groups_.empty() && in_flight_ == 0 && flushed) || force) break;
    }

    fds.clear();
    fd_conn.clear();
    fds.push_back({wake_read_fd_, POLLIN, 0});
    fd_conn.push_back(0);
    const bool accepting =
        !draining && connections_.size() < options_.max_connections;
    if (accepting) {
      fds.push_back({listen_fd_, POLLIN, 0});
      fd_conn.push_back(0);
    }
    for (const auto& [conn_id, conn] : connections_) {
      short events = draining ? 0 : POLLIN;
      if (!conn.out.empty()) events |= POLLOUT;
      fds.push_back({conn.fd, events, 0});
      fd_conn.push_back(conn_id);
    }

    int timeout_ms = draining ? 5 : 100;
    const double due = NextFlushDueMicros();
    if (due >= 0.0) {
      timeout_ms = std::min<int>(
          timeout_ms, std::max<int>(1, static_cast<int>(due / 1000.0) + 1));
    }
    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0 && errno != EINTR) break;  // poll itself failed: give up

    // Wake pipe: drain the bytes; the completions themselves are popped at
    // the top of the next iteration (and right here, for write latency).
    if (fds[0].revents & POLLIN) {
      char buf[256];
      while (::read(wake_read_fd_, buf, sizeof(buf)) > 0) {
      }
    }
    DrainCompletions();

    std::size_t index = 1;
    if (accepting) {
      if (fds[index].revents & POLLIN) {
        while (connections_.size() < options_.max_connections) {
          const int fd = ::accept(listen_fd_, nullptr, nullptr);
          if (fd < 0) break;
          if (!SetNonBlocking(fd).ok()) {
            ::close(fd);
            continue;
          }
          const std::uint64_t conn_id = next_conn_id_++;
          Connection conn;
          conn.fd = fd;
          connections_.emplace(conn_id, std::move(conn));
          metrics_->RecordConnectionOpened();
        }
      }
      ++index;
    }

    for (; index < fds.size(); ++index) {
      const std::uint64_t conn_id = fd_conn[index];
      auto it = connections_.find(conn_id);
      if (it == connections_.end()) continue;  // closed earlier this pass
      Connection& conn = it->second;

      if (fds[index].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        CloseConnection(conn_id, /*protocol_error=*/false);
        continue;
      }
      if (fds[index].revents & POLLIN) {
        bool peer_closed = false;
        char buf[64 * 1024];
        while (true) {
          const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
          if (n > 0) {
            conn.in.append(buf, static_cast<std::size_t>(n));
            metrics_->AddNetBytesIn(static_cast<std::uint64_t>(n));
            continue;
          }
          if (n == 0) peer_closed = true;
          break;  // EOF or EAGAIN
        }
        // Extract every complete frame buffered so far.
        bool closed = false;
        while (conn.in.size() >= kFramePrefixBytes) {
          const std::uint32_t len = PeekFrameLength(conn.in);
          if (len > options_.max_frame_bytes) {
            CloseConnection(conn_id, /*protocol_error=*/true);
            closed = true;
            break;
          }
          if (conn.in.size() < kFramePrefixBytes + len) break;
          const std::string_view payload(conn.in.data() + kFramePrefixBytes,
                                         len);
          HandleFrame(conn_id, payload);
          if (connections_.find(conn_id) == connections_.end()) {
            closed = true;  // the frame was a protocol error
            break;
          }
          conn.in.erase(0, kFramePrefixBytes + len);
        }
        if (closed) continue;
        if (peer_closed) {
          CloseConnection(conn_id, /*protocol_error=*/false);
          continue;
        }
      }
      if ((fds[index].revents & POLLOUT) || !conn.out.empty()) {
        while (!conn.out.empty()) {
          const ssize_t n =
              ::send(conn.fd, conn.out.data(), conn.out.size(), MSG_NOSIGNAL);
          if (n > 0) {
            metrics_->AddNetBytesOut(static_cast<std::uint64_t>(n));
            conn.out.erase(0, static_cast<std::size_t>(n));
            continue;
          }
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          CloseConnection(conn_id, /*protocol_error=*/false);
          break;
        }
      }
    }
  }

  // Drained (or forced): close everything still open.
  for (auto& [conn_id, conn] : connections_) {
    ::close(conn.fd);
    metrics_->RecordConnectionClosed();
  }
  connections_.clear();
  stopped_.store(true, std::memory_order_release);
}

void NetServer::HandleFrame(std::uint64_t conn_id, std::string_view payload) {
  WireRequest request;
  const util::Status decoded = DecodeRequest(payload, &request);
  if (!decoded.ok()) {
    // Garbled framing: nothing sane can follow on this byte stream, so the
    // connection (and only this connection) is closed.
    CloseConnection(conn_id, /*protocol_error=*/true);
    return;
  }
  switch (request.opcode) {
    case Opcode::kPing: {
      WireResponse response;
      response.id = request.id;
      RespondNow(conn_id, response);
      return;
    }
    case Opcode::kStats: {
      WireResponse response;
      response.id = request.id;
      response.payload = service_->Metrics().ToJson();
      RespondNow(conn_id, response);
      return;
    }
    case Opcode::kHealth: {
      // Answered inline on the I/O thread, like kPing: getting ANY response
      // proves liveness even while startup recovery holds the mutation lock.
      // The payload reports readiness separately, so orchestration can wait
      // for `ready` without killing a process that is merely replaying.
      WireResponse response;
      response.id = request.id;
      response.snapshot_version = service_->current_version();
      const bool recovering = service_->recovering();
      const index::JournalStats journal = service_->manager().journal_stats();
      std::string json;
      json += "{\"ready\":";
      json += recovering ? "false" : "true";
      json += ",\"recovering\":";
      json += recovering ? "true" : "false";
      json += ",\"journal_enabled\":";
      json += service_->manager().journal_enabled() ? "true" : "false";
      json += ",\"replayed_records\":";
      json += std::to_string(journal.records_replayed);
      json += ",\"replayed_ops\":";
      json += std::to_string(journal.ops_replayed);
      json += ",\"last_sequence\":";
      json += std::to_string(journal.last_sequence);
      json += ",\"truncated_bytes\":";
      json += std::to_string(journal.truncated_bytes);
      json += ",\"degraded\":";
      json += journal.degraded ? "true" : "false";
      json += "}";
      response.payload = std::move(json);
      RespondNow(conn_id, response);
      return;
    }
    case Opcode::kShutdown: {
      WireResponse response;
      response.id = request.id;
      if (!options_.allow_remote_shutdown) {
        response.status = WireStatus::kInvalidArgument;
        response.payload = "remote shutdown disabled";
        RespondNow(conn_id, response);
        return;
      }
      // Flag first, then ack: a client that holds the ack must already see
      // shutting_down() and have its later probes refused.
      shutdown_requested_.store(true, std::memory_order_release);
      RespondNow(conn_id, response);
      return;
    }
    case Opcode::kProbe:
      HandleProbe(conn_id, std::move(request));
      return;
  }
}

void NetServer::HandleProbe(std::uint64_t conn_id, WireRequest request) {
  if (shutdown_requested_.load(std::memory_order_acquire)) {
    WireResponse response;
    response.id = request.id;
    response.status = WireStatus::kShuttingDown;
    RespondNow(conn_id, response);
    return;
  }
  // The deadline anchors at receipt: it covers the batching window, queue
  // wait, and probe compute (via ProbeBudget) — everything the server adds.
  util::Result<query::BgpQuery> parsed = service_->Parse(request.query);
  if (!parsed.ok()) {
    WireResponse response;
    response.id = request.id;
    response.status = WireStatus::kInvalidArgument;
    response.payload = std::string(parsed.status().message());
    RespondNow(conn_id, response);
    return;
  }
  PendingProbe pending;
  pending.conn_id = conn_id;
  pending.wire_id = request.id;
  pending.request.query = std::move(parsed).value();
  if (request.deadline_ms > 0) {
    pending.request.deadline = std::chrono::steady_clock::now() +
                               std::chrono::milliseconds(request.deadline_ms);
  }
  pending.request.simulated_io_micros =
      static_cast<double>(request.simulated_io_micros);

  const std::uint64_t signature =
      query::AnchorSignature(pending.request.query, *service_->mutable_dict());
  Group& group = groups_[signature];
  if (group.pending.empty()) group.oldest.Restart();
  group.pending.push_back(std::move(pending));
  if (options_.batch_window_micros <= 0.0 || options_.max_batch <= 1 ||
      group.pending.size() >= options_.max_batch) {
    FlushGroup(signature);
  }
}

double NetServer::NextFlushDueMicros() const {
  double due = -1.0;
  for (const auto& [signature, group] : groups_) {
    const double remaining =
        options_.batch_window_micros - group.oldest.ElapsedMicros();
    if (due < 0.0 || remaining < due) due = remaining;
  }
  return due < 0.0 ? due : std::max(due, 0.0);
}

void NetServer::FlushDueGroups(bool flush_all) {
  std::vector<std::uint64_t> due;
  for (const auto& [signature, group] : groups_) {
    if (flush_all ||
        group.oldest.ElapsedMicros() >= options_.batch_window_micros) {
      due.push_back(signature);
    }
  }
  for (const std::uint64_t signature : due) FlushGroup(signature);
}

void NetServer::FlushGroup(std::uint64_t signature) {
  const auto it = groups_.find(signature);
  if (it == groups_.end()) return;
  Group group = std::move(it->second);
  groups_.erase(it);

  const double wait_micros = group.oldest.ElapsedMicros();
  struct Meta {
    std::uint64_t conn_id;
    std::uint64_t wire_id;
  };
  auto metas = std::make_shared<std::vector<Meta>>();
  std::vector<service::ProbeRequest> requests;
  metas->reserve(group.pending.size());
  requests.reserve(group.pending.size());
  for (PendingProbe& pending : group.pending) {
    metas->push_back({pending.conn_id, pending.wire_id});
    // The group key IS the shard routing key: pass it down so the service
    // skips recomputing AnchorSignature per request (latency hint only —
    // shard selection stays sound regardless of the value).
    pending.request.anchor_signature = signature;
    pending.request.has_anchor_signature = true;
    requests.push_back(std::move(pending.request));
  }
  const std::size_t size = requests.size();

  const util::Status admitted = service_->SubmitBatch(
      std::move(requests),
      // Runs on a service worker: hand the response to the I/O thread, which
      // owns every socket.
      [this, metas](std::size_t index, service::ProbeResponse response) {
        Completion completion;
        completion.conn_id = (*metas)[index].conn_id;
        completion.response =
            ToWire((*metas)[index].wire_id, std::move(response));
        {
          util::MutexLock lock(&completion_mu_);
          completions_.push_back(std::move(completion));
          if (wake_write_fd_ >= 0) {
            const char byte = 'w';
            (void)!::write(wake_write_fd_, &byte, 1);
          }
        }
      },
      wait_micros);
  if (!admitted.ok()) {
    // All-or-nothing shed: the whole group bounces and every member gets the
    // same machine-readable reason, straight from the I/O thread.
    const WireStatus status =
        admitted.code() == util::StatusCode::kResourceExhausted
            ? WireStatus::kResourceExhausted
            : WireStatus::kShuttingDown;
    for (const Meta& meta : *metas) {
      WireResponse response;
      response.id = meta.wire_id;
      response.status = status;
      response.payload = std::string(admitted.message());
      RespondNow(meta.conn_id, response);
    }
    return;
  }
  in_flight_ += size;
}

void NetServer::RespondNow(std::uint64_t conn_id,
                           const WireResponse& response) {
  const auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  Connection& conn = it->second;
  EncodeResponse(response, &conn.out);
  // Write eagerly; whatever the socket will not take waits for POLLOUT.
  while (!conn.out.empty()) {
    const ssize_t n =
        ::send(conn.fd, conn.out.data(), conn.out.size(), MSG_NOSIGNAL);
    if (n > 0) {
      metrics_->AddNetBytesOut(static_cast<std::uint64_t>(n));
      conn.out.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConnection(conn_id, /*protocol_error=*/false);
    break;
  }
}

void NetServer::DrainCompletions() {
  std::vector<Completion> ready;
  {
    util::MutexLock lock(&completion_mu_);
    ready.swap(completions_);
  }
  for (Completion& completion : ready) {
    RDFC_CHECK(in_flight_ > 0);
    --in_flight_;
    // A response for a connection that died in the meantime is dropped —
    // the probe's work is already recorded in the service metrics.
    RespondNow(completion.conn_id, completion.response);
  }
}

void NetServer::CloseConnection(std::uint64_t conn_id, bool protocol_error) {
  const auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  if (protocol_error) metrics_->RecordProtocolError();
  ::close(it->second.fd);
  connections_.erase(it);
  metrics_->RecordConnectionClosed();
}

}  // namespace net
}  // namespace rdfc
