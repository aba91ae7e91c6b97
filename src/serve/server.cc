#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/plan_cache.h"
#include "cache/result_cache.h"
#include "exec/physical_plan.h"
#include "rel/solver.h"
#include "schema/catalog.h"
#include "util/check.h"

namespace gyo {
namespace serve {

namespace {

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

bool SysError(std::string* error, const char* what) {
  if (error != nullptr) {
    *error = std::string(what) + ": " + std::strerror(errno);
  }
  return false;
}

/// Poll timeout while accept() is backing off from descriptor exhaustion.
constexpr int kAcceptBackoffMs = 100;

// The wire strategy enum and the plan cache's mirror must agree value for
// value — requests are static_cast between them.
static_assert(static_cast<uint8_t>(Strategy::kAuto) ==
                  static_cast<uint8_t>(cache::PlanStrategy::kAuto) &&
              static_cast<uint8_t>(Strategy::kFullJoin) ==
                  static_cast<uint8_t>(cache::PlanStrategy::kFullJoin) &&
              static_cast<uint8_t>(Strategy::kCcPruned) ==
                  static_cast<uint8_t>(cache::PlanStrategy::kCcPruned) &&
              static_cast<uint8_t>(Strategy::kYannakakis) ==
                  static_cast<uint8_t>(cache::PlanStrategy::kYannakakis),
              "serve::Strategy and cache::PlanStrategy diverged");

}  // namespace

// ---------------------------------------------------------------------------
// Impl

class Server::Impl {
 public:
  explicit Impl(const ServerOptions& options)
      : options_(options),
        pool_(options.pool != nullptr ? options.pool
                                      : &exec::ExecutorPool::Global()) {
    if (options.plan_cache_entries > 0) {
      cache::PlanCache::Options plan_options;
      plan_options.max_entries = options.plan_cache_entries;
      plan_cache_.reset(new cache::PlanCache(plan_options));
    }
    if (options.result_cache_bytes > 0) {
      cache::ResultCache::Options result_options;
      result_options.max_bytes = options.result_cache_bytes;
      result_cache_.reset(new cache::ResultCache(result_options));
    }
  }

  ~Impl() {
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (wake_read_ >= 0) ::close(wake_read_);
    if (wake_write_ >= 0) ::close(wake_write_);
  }

  bool Start(std::string* error, int* port);
  void RequestDrain();
  DrainReport Wait();
  StatusResponse Status() const;

 private:
  /// One client connection. Owned by the IO thread; workers refer to a
  /// connection only by id, so a connection that dies mid-query simply
  /// makes the completion's response undeliverable.
  struct Conn {
    int fd = -1;
    uint64_t id = 0;
    /// Bytes received but not yet framed.
    std::vector<uint8_t> rbuf;
    /// Complete frames awaiting the socket, front frame sent up to woff.
    std::deque<std::vector<uint8_t>> wqueue;
    size_t woff = 0;
    /// Total bytes across wqueue; reads pause at
    /// ServerOptions::max_queued_response_bytes (see Enqueue/DropQueued).
    size_t wbytes = 0;
    /// A query is running on a worker thread; no frames are extracted
    /// until its completion arrives (one in-flight query per connection).
    bool executing = false;
    /// EOF or transport error seen; close once quiet.
    bool peer_closed = false;
    /// Close once the write queue flushes (protocol fault or drain).
    bool close_after_flush = false;
  };

  struct Completion {
    uint64_t conn_id = 0;
    std::vector<uint8_t> frame;
  };

  void IoLoop();
  void Accept();
  void ReadFromConn(Conn& conn);
  void ExtractFrames(Conn& conn);
  void Dispatch(Conn& conn, std::vector<uint8_t> payload);
  void FlushWrites(Conn& conn);

  /// All wqueue growth and teardown goes through these two so
  /// Conn::wbytes/woff can never drift from the queue's contents.
  static void Enqueue(Conn& conn, std::vector<uint8_t> frame) {
    conn.wbytes += frame.size();
    conn.wqueue.push_back(std::move(frame));
  }
  static void DropQueued(Conn& conn) {
    conn.wqueue.clear();
    conn.woff = 0;
    conn.wbytes = 0;
  }
  void ProcessCompletions();
  void Wake();

  /// Worker-thread body: decode, build the program, admit (shedding with a
  /// typed error frame), execute, encode. Never touches conns_.
  void RunQuery(uint64_t conn_id, std::vector<uint8_t> body);
  void PostCompletion(uint64_t conn_id, std::vector<uint8_t> frame);

  const ServerOptions options_;
  exec::ExecutorPool* const pool_;
  /// Per-server caches (null = disabled); thread-safe, shared by all
  /// worker threads. Server-owned so tenants and tests stay hermetic.
  std::unique_ptr<cache::PlanCache> plan_cache_;
  std::unique_ptr<cache::ResultCache> result_cache_;

  int listen_fd_ = -1;
  int wake_read_ = -1;
  int wake_write_ = -1;
  std::thread io_thread_;

  // IO-thread-only state.
  std::unordered_map<uint64_t, Conn> conns_;
  std::unordered_map<uint64_t, std::thread> workers_;
  uint64_t next_conn_id_ = 0;
  bool drain_started_ = false;
  /// Accept() hit descriptor exhaustion: skip polling the listen fd for one
  /// backoff tick so the still-pending connection cannot spin the loop.
  bool accept_backoff_ = false;

  std::mutex completions_mu_;
  std::deque<Completion> completions_;

  std::atomic<bool> draining_{false};
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_active_{0};
  std::atomic<uint64_t> queries_served_{0};
  std::atomic<uint64_t> queries_shed_deadline_{0};
  std::atomic<uint64_t> queries_shed_backlog_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> sip_rows_pruned_{0};
  std::atomic<uint64_t> zone_map_skips_{0};

  DrainReport report_;
};

bool Server::Impl::Start(std::string* error, int* port) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return SysError(error, "pipe");
  wake_read_ = pipe_fds[0];
  wake_write_ = pipe_fds[1];
  if (!SetNonBlocking(wake_read_) || !SetNonBlocking(wake_write_)) {
    return SysError(error, "fcntl(wake pipe)");
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return SysError(error, "socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    if (error != nullptr) {
      *error = "bad bind address: " + options_.bind_address;
    }
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return SysError(error, "bind");
  }
  if (::listen(listen_fd_, options_.backlog) != 0) {
    return SysError(error, "listen");
  }
  if (!SetNonBlocking(listen_fd_)) return SysError(error, "fcntl(listen)");

  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    return SysError(error, "getsockname");
  }
  *port = ntohs(bound.sin_port);

  io_thread_ = std::thread([this] { IoLoop(); });
  return true;
}

void Server::Impl::RequestDrain() {
  // Async-signal-safe: one atomic store + one write(2). Idempotent.
  draining_.store(true, std::memory_order_release);
  const uint8_t byte = 1;
  ssize_t ignored = ::write(wake_write_, &byte, 1);  // EAGAIN = already woken
  (void)ignored;
}

void Server::Impl::Wake() {
  const uint8_t byte = 1;
  while (::write(wake_write_, &byte, 1) < 0 && errno == EINTR) {
  }
}

DrainReport Server::Impl::Wait() {
  io_thread_.join();
  report_.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  report_.queries_served = queries_served_.load(std::memory_order_relaxed);
  report_.queries_shed_deadline =
      queries_shed_deadline_.load(std::memory_order_relaxed);
  report_.queries_shed_backlog =
      queries_shed_backlog_.load(std::memory_order_relaxed);
  report_.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  return report_;
}

StatusResponse Server::Impl::Status() const {
  StatusResponse s;
  s.pool = pool_->Status();
  s.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  s.connections_active = connections_active_.load(std::memory_order_relaxed);
  s.queries_served = queries_served_.load(std::memory_order_relaxed);
  s.queries_shed_deadline =
      queries_shed_deadline_.load(std::memory_order_relaxed);
  s.queries_shed_backlog =
      queries_shed_backlog_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.draining = draining_.load(std::memory_order_acquire);
  s.sip_rows_pruned = sip_rows_pruned_.load(std::memory_order_relaxed);
  s.zone_map_skips = zone_map_skips_.load(std::memory_order_relaxed);
  if (plan_cache_ != nullptr) {
    const cache::PlanCacheStats plan = plan_cache_->stats();
    s.plan_cache_hits = plan.hits;
    s.plan_cache_misses = plan.misses;
  }
  if (result_cache_ != nullptr) {
    const cache::ResultCacheStats result = result_cache_->stats();
    s.result_cache_hits = result.hits;
    s.result_cache_misses = result.misses;
  }
  return s;
}

// ---------------------------------------------------------------------------
// IO thread

void Server::Impl::IoLoop() {
  std::vector<pollfd> pfds;
  std::vector<uint64_t> pfd_conn;  // conn id per pfds entry, 0 = not a conn
  while (true) {
    if (draining_.load(std::memory_order_acquire) && !drain_started_) {
      drain_started_ = true;
      report_.connections_at_drain = conns_.size();
      report_.queries_in_flight_at_drain = workers_.size();
      if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
      // Every connection closes as soon as it is quiet: idle ones now,
      // executing ones when their response has been flushed.
      for (auto& [id, conn] : conns_) conn.close_after_flush = true;
    }

    // Reap connections that are quiet: nothing executing, nothing left to
    // flush, and either faulted/drained or the peer already closed.
    for (auto it = conns_.begin(); it != conns_.end();) {
      Conn& conn = it->second;
      if (!conn.executing && conn.wqueue.empty() &&
          (conn.close_after_flush || conn.peer_closed)) {
        ::close(conn.fd);
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
    connections_active_.store(conns_.size(), std::memory_order_relaxed);

    if (drain_started_ && conns_.empty() && workers_.empty()) break;

    pfds.clear();
    pfd_conn.clear();
    pfds.push_back({wake_read_, POLLIN, 0});
    pfd_conn.push_back(0);
    if (listen_fd_ >= 0 && !accept_backoff_) {
      pfds.push_back({listen_fd_, POLLIN, 0});
      pfd_conn.push_back(0);
    }
    for (auto& [id, conn] : conns_) {
      short events = 0;
      if (!conn.executing && !conn.close_after_flush && !conn.peer_closed &&
          conn.wbytes < options_.max_queued_response_bytes) {
        events |= POLLIN;
      }
      if (!conn.wqueue.empty()) events |= POLLOUT;
      if (events == 0) continue;  // waiting on its worker only
      pfds.push_back({conn.fd, events, 0});
      pfd_conn.push_back(id);
    }

    const int timeout_ms = accept_backoff_ ? kAcceptBackoffMs : -1;
    accept_backoff_ = false;
    if (::poll(pfds.data(), pfds.size(), timeout_ms) < 0) {
      GYO_CHECK_MSG(errno == EINTR, "poll failed: %s", std::strerror(errno));
      continue;
    }

    for (size_t i = 0; i < pfds.size(); ++i) {
      const short revents = pfds[i].revents;
      if (revents == 0) continue;
      if (pfds[i].fd == wake_read_) {
        uint8_t buf[256];
        while (::read(wake_read_, buf, sizeof(buf)) > 0) {
        }
        ProcessCompletions();
        continue;
      }
      if (pfds[i].fd == listen_fd_) {
        Accept();
        continue;
      }
      auto it = conns_.find(pfd_conn[i]);
      if (it == conns_.end()) continue;  // closed earlier this sweep
      Conn& conn = it->second;
      if ((revents & (POLLERR | POLLNVAL)) != 0) {
        conn.peer_closed = true;
        DropQueued(conn);  // undeliverable
        continue;
      }
      if ((revents & POLLOUT) != 0) {
        FlushWrites(conn);
        // Frames parked behind the response-byte bound parse now that the
        // queue has drained.
        ExtractFrames(conn);
      }
      if ((revents & (POLLIN | POLLHUP)) != 0 && !conn.peer_closed &&
          !conn.executing) {
        ReadFromConn(conn);
      }
    }
  }
}

void Server::Impl::Accept() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Descriptor/buffer exhaustion leaves the pending connection in the
        // backlog, so the listen fd stays readable and poll() would report
        // it again immediately — back off for a tick instead of spinning.
        accept_backoff_ = true;
      }
      return;  // EAGAIN, or a transient accept error: retry on next poll
    }
    if (!SetNonBlocking(fd)) {
      ::close(fd);
      continue;
    }
    const uint64_t id = ++next_conn_id_;
    Conn& conn = conns_[id];
    conn.fd = fd;
    conn.id = id;
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Server::Impl::ReadFromConn(Conn& conn) {
  uint8_t buf[64 << 10];
  while (true) {
    const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
    if (n > 0) {
      conn.rbuf.insert(conn.rbuf.end(), buf, buf + n);
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {
      conn.peer_closed = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    conn.peer_closed = true;  // transport error
    DropQueued(conn);
    return;
  }
  ExtractFrames(conn);
}

void Server::Impl::ExtractFrames(Conn& conn) {
  size_t consumed = 0;
  while (!conn.executing && !conn.close_after_flush && !conn.peer_closed) {
    if (conn.wbytes >= options_.max_queued_response_bytes) {
      // Response backpressure: a client that pipelines requests without
      // reading replies gets no further frames parsed until its queue
      // flushes below the bound (the poll loop also stops reading its
      // socket). Parked frames stay in rbuf; the POLLOUT path re-enters
      // here once the queue drains, so progress resumes without new input.
      FlushWrites(conn);
      if (conn.wbytes >= options_.max_queued_response_bytes) break;
      continue;  // re-check state: FlushWrites may have seen a dead peer
    }
    const size_t avail = conn.rbuf.size() - consumed;
    if (avail < kFrameHeaderBytes) break;
    const uint8_t* h = conn.rbuf.data() + consumed;
    const uint32_t len = static_cast<uint32_t>(h[0]) |
                         static_cast<uint32_t>(h[1]) << 8 |
                         static_cast<uint32_t>(h[2]) << 16 |
                         static_cast<uint32_t>(h[3]) << 24;
    if (len == 0) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      Enqueue(conn, EncodeError(ErrorCode::kMalformed, "zero-length frame"));
      conn.close_after_flush = true;  // cannot trust the stream position
      break;
    }
    if (len > options_.max_frame_bytes) {
      // The bytes of the oversized frame were never read, so the stream
      // cannot be resynchronized: reply, then close.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      Enqueue(conn, EncodeError(ErrorCode::kFrameTooLarge,
                                "frame exceeds size bound"));
      conn.close_after_flush = true;
      break;
    }
    if (avail - kFrameHeaderBytes < len) break;  // frame still arriving
    std::vector<uint8_t> payload(h + kFrameHeaderBytes,
                                 h + kFrameHeaderBytes + len);
    consumed += kFrameHeaderBytes + len;
    Dispatch(conn, std::move(payload));
  }
  if (consumed > 0) {
    conn.rbuf.erase(conn.rbuf.begin(),
                    conn.rbuf.begin() + static_cast<std::ptrdiff_t>(consumed));
  }
  FlushWrites(conn);
}

void Server::Impl::Dispatch(Conn& conn, std::vector<uint8_t> payload) {
  const FrameType type = static_cast<FrameType>(payload[0]);
  if (type == FrameType::kStatusRequest) {
    if (payload.size() != 1) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      Enqueue(conn, EncodeError(ErrorCode::kMalformed,
                                "status request carries a body"));
      return;  // frame boundary intact: the connection survives
    }
    Enqueue(conn, EncodeStatusResponse(Status()));
    return;
  }
  if (type != FrameType::kQueryRequest) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    Enqueue(conn, EncodeError(ErrorCode::kMalformed,
                              "unexpected frame type"));
    return;
  }
  if (draining_.load(std::memory_order_acquire)) {
    Enqueue(conn, EncodeError(ErrorCode::kShuttingDown,
                              "server is draining"));
    conn.close_after_flush = true;
    return;
  }
  payload.erase(payload.begin());  // strip the type byte
  conn.executing = true;
  const uint64_t conn_id = conn.id;
  workers_.emplace(conn_id, std::thread([this, conn_id,
                                         body = std::move(payload)]() mutable {
                     RunQuery(conn_id, std::move(body));
                   }));
}

void Server::Impl::FlushWrites(Conn& conn) {
  while (!conn.wqueue.empty()) {
    const std::vector<uint8_t>& frame = conn.wqueue.front();
    const ssize_t n = ::send(conn.fd, frame.data() + conn.woff,
                             frame.size() - conn.woff, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      conn.peer_closed = true;  // dead peer: drop what it can't receive
      DropQueued(conn);
      return;
    }
    conn.woff += static_cast<size_t>(n);
    if (conn.woff == frame.size()) {
      conn.wbytes -= frame.size();
      conn.wqueue.pop_front();
      conn.woff = 0;
    }
  }
}

void Server::Impl::ProcessCompletions() {
  while (true) {
    Completion completion;
    {
      std::lock_guard<std::mutex> lock(completions_mu_);
      if (completions_.empty()) return;
      completion = std::move(completions_.front());
      completions_.pop_front();
    }
    // The worker posted this as its last act; join is near-instant.
    auto worker = workers_.find(completion.conn_id);
    GYO_CHECK_MSG(worker != workers_.end(),
                  "completion from an unknown worker");
    worker->second.join();
    workers_.erase(worker);
    auto it = conns_.find(completion.conn_id);
    if (it == conns_.end()) continue;  // connection died mid-query
    Conn& conn = it->second;
    conn.executing = false;
    // A peer that died mid-query can't receive its response.
    if (!conn.peer_closed) Enqueue(conn, std::move(completion.frame));
    if (drain_started_) conn.close_after_flush = true;
    // Frames that buffered behind the running query (pipelined requests)
    // are served now.
    ExtractFrames(conn);
  }
}

// ---------------------------------------------------------------------------
// Worker

void Server::Impl::RunQuery(uint64_t conn_id, std::vector<uint8_t> body) {
  Catalog catalog;
  QueryRequest req;
  DatabaseSchema schema;
  AttrSet target;
  std::string err;
  if (!DecodeQueryRequest(body.data(), body.size(), catalog, &req, &schema,
                          &target, &err)) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    PostCompletion(conn_id, EncodeError(ErrorCode::kMalformed, err));
    return;
  }
  body.clear();
  body.shrink_to_fit();

  // Resolve the strategy to a program — through the plan cache when
  // enabled, which memoizes the GYO reduction / join-tree work and the
  // plan's dataflow analysis per canonical hypergraph. Both paths produce
  // the same program byte for byte, so caching never changes an answer.
  Strategy resolved = req.strategy;
  Program program(schema.NumRelations());
  std::optional<exec::PhysicalPlan> plan;
  bool plan_hit = false;
  if (plan_cache_ != nullptr) {
    std::optional<cache::PlanCache::Result> planned = plan_cache_->GetOrBuild(
        schema, target, static_cast<cache::PlanStrategy>(req.strategy));
    if (!planned.has_value()) {
      PostCompletion(conn_id,
                     EncodeError(ErrorCode::kUnsupported,
                                 "yannakakis requires a tree schema"));
      return;
    }
    plan_hit = planned->hit;
    resolved = static_cast<Strategy>(planned->resolved);
    program = std::move(planned->program);
    plan.emplace(std::move(planned->plan));
  } else {
    switch (req.strategy) {
      case Strategy::kFullJoin:
        program = FullJoinProgram(schema, target);
        break;
      case Strategy::kCcPruned:
        program = CCPrunedProgram(schema, target);
        break;
      case Strategy::kYannakakis: {
        std::optional<Program> p = YannakakisProgram(schema, target);
        if (!p.has_value()) {
          PostCompletion(conn_id,
                         EncodeError(ErrorCode::kUnsupported,
                                     "yannakakis requires a tree schema"));
          return;
        }
        program = *std::move(p);
        break;
      }
      case Strategy::kAuto: {
        std::optional<Program> p = YannakakisProgram(schema, target);
        if (p.has_value()) {
          resolved = Strategy::kYannakakis;
          program = *std::move(p);
        } else {
          resolved = Strategy::kCcPruned;
          program = CCPrunedProgram(schema, target);
        }
        break;
      }
    }
  }
  if (program.NumStatements() == 0) {
    PostCompletion(conn_id, EncodeError(ErrorCode::kInternal,
                                        "strategy produced an empty program"));
    return;
  }

  // Deterministic queries may be answered from the result cache — the
  // memoized answer is bit-identical to re-execution, so a hit skips
  // admission and execution entirely. The key covers the resolved strategy
  // and every base tuple (256 bits, two independent fingerprints).
  const bool use_result_cache = result_cache_ != nullptr && req.deterministic;
  cache::ResultKey result_key;
  if (use_result_cache) {
    const uint64_t variant = (static_cast<uint64_t>(resolved) << 1) | 1;
    result_key = cache::MakeResultKey(schema, target, req.states, variant);
    std::optional<cache::ResultCache::Value> cached =
        result_cache_->Get(result_key);
    if (cached.has_value()) {
      QueryResponse resp;
      resp.result = std::move(cached->result);
      resp.stats = cached->stats;
      resp.query_stats.state_cache_hits = 1;
      resp.query_stats.plan_cache_hits = plan_hit ? 1 : 0;
      if (req.want_plan) {
        if (!plan.has_value()) {
          plan.emplace(exec::PhysicalPlan::Compile(program));
        }
        resp.has_plan = true;
        resp.plan.num_statements = program.NumStatements();
        resp.plan.critical_path = plan->CriticalPathLength();
        resp.plan.num_source_statements = plan->NumSourceStatements();
        resp.plan.strategy = resolved;
      }
      std::vector<uint8_t> frame =
          EncodeQueryResponse(resp, options_.max_frame_bytes);
      if (frame.empty()) {
        PostCompletion(conn_id,
                       EncodeError(ErrorCode::kInternal,
                                   "result exceeds the frame size bound"));
        return;
      }
      queries_served_.fetch_add(1, std::memory_order_relaxed);
      PostCompletion(conn_id, std::move(frame));
      return;
    }
  }

  // Admit with shedding: a rejected query has consumed no execution
  // resources — the typed error frame is the whole cost.
  const uint64_t submitter = req.submitter != 0 ? req.submitter : conn_id;
  const double max_wait =
      req.deadline_ms > 0 ? static_cast<double>(req.deadline_ms) / 1000.0
                          : -1.0;  // -1 = the pool's configured default
  exec::ExecutorPool::AdmitResult admit = pool_->TryAdmit(submitter, max_wait);
  if (admit.status == exec::ExecutorPool::AdmitStatus::kDeadlineExceeded) {
    queries_shed_deadline_.fetch_add(1, std::memory_order_relaxed);
    PostCompletion(conn_id,
                   EncodeError(ErrorCode::kDeadlineExceeded,
                               "queue wait exceeded the admission deadline"));
    return;
  }
  if (admit.status == exec::ExecutorPool::AdmitStatus::kBacklogFull) {
    queries_shed_backlog_.fetch_add(1, std::memory_order_relaxed);
    PostCompletion(conn_id,
                   EncodeError(ErrorCode::kBacklogFull,
                               "submitter backlog is at its bound"));
    return;
  }

  exec::ExecContext ctx;
  ctx.deterministic = req.deterministic;
  ctx.morsel_rows = options_.morsel_rows;
  QueryResponse resp;
  ctx.query_stats = &resp.query_stats;
  std::vector<Relation> states =
      plan.has_value()
          ? plan->ExecuteAdmitted(req.states, ctx, *admit.admission,
                                  &resp.stats)
          : exec::ExecuteAdmitted(program, req.states, ctx, *admit.admission,
                                  &resp.stats);
  admit.admission.reset();  // release the slot before encoding
  // Execution reset query_stats; the cache verdicts are stamped after.
  resp.query_stats.plan_cache_hits = plan_hit ? 1 : 0;

  resp.result = std::move(states.back());
  if (use_result_cache) {
    result_cache_->Put(result_key,
                       cache::ResultCache::Value{resp.result, resp.stats});
  }
  if (req.want_plan) {
    if (!plan.has_value()) {
      plan.emplace(exec::PhysicalPlan::Compile(program));
    }
    resp.has_plan = true;
    resp.plan.num_statements = program.NumStatements();
    resp.plan.critical_path = plan->CriticalPathLength();
    resp.plan.num_source_statements = plan->NumSourceStatements();
    resp.plan.strategy = resolved;
  }
  sip_rows_pruned_.fetch_add(
      static_cast<uint64_t>(resp.query_stats.sip_rows_pruned),
      std::memory_order_relaxed);
  zone_map_skips_.fetch_add(
      static_cast<uint64_t>(resp.query_stats.zone_map_skips),
      std::memory_order_relaxed);
  // Encode under the server's own frame bound: a result too large to frame
  // (or beyond the wire format's u32 length) becomes a typed error, never a
  // frame with a lying length prefix.
  std::vector<uint8_t> frame =
      EncodeQueryResponse(resp, options_.max_frame_bytes);
  if (frame.empty()) {
    PostCompletion(conn_id,
                   EncodeError(ErrorCode::kInternal,
                               "result exceeds the frame size bound"));
    return;
  }
  queries_served_.fetch_add(1, std::memory_order_relaxed);
  PostCompletion(conn_id, std::move(frame));
}

void Server::Impl::PostCompletion(uint64_t conn_id,
                                  std::vector<uint8_t> frame) {
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    completions_.push_back(Completion{conn_id, std::move(frame)});
  }
  Wake();
}

// ---------------------------------------------------------------------------
// Server

Server::Server(const ServerOptions& options)
    : options_(options), impl_(new Impl(options)) {}

Server::~Server() {
  if (impl_ != nullptr) {
    if (started_ && !waited_) {
      impl_->RequestDrain();
      impl_->Wait();
    }
    delete impl_;
  }
}

bool Server::Start(std::string* error) {
  GYO_CHECK_MSG(!started_, "Server::Start called twice");
  if (!impl_->Start(error, &port_)) return false;
  started_ = true;
  return true;
}

void Server::RequestDrain() { impl_->RequestDrain(); }

DrainReport Server::Wait() {
  GYO_CHECK_MSG(started_ && !waited_, "Server::Wait without a running server");
  waited_ = true;
  return impl_->Wait();
}

StatusResponse Server::Status() const { return impl_->Status(); }

}  // namespace serve
}  // namespace gyo
