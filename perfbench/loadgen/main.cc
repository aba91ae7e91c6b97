// perfbench_loadgen: runs one benchmark workload and prints its metrics.
//
//   perfbench_loadgen --workload NAME --seed N --seconds S --trace 0|1
//                    --serve-bin PATH --out-dir DIR
//
// Serve workloads spawn gyo_serve (--threads 2 --max-concurrent-queries 2,
// default caches) and drive it from two client connections in a closed
// loop; inproc_parallel loops exec::Run on a 2-thread ExecutorPool. Every
// reply is checked against the serial reference. With --trace 0 the last
// stdout line carries the end-to-end metrics; with --trace 1 a separate
// traced run replays the same requests through the layers' public calls
// and reports per-layer metrics, writing its spans to DIR. perfbench/run.py
// builds the programs and wraps this binary; see perfbench/NOTES.md.

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "cache/plan_cache.h"
#include "cache/result_cache.h"
#include "exec/executor_pool.h"
#include "exec/physical_plan.h"
#include "gyo/gyo.h"
#include "harness.h"
#include "rel/ops.h"
#include "rel/solver.h"
#include "serve/client.h"
#include "serve/frame.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using gyo::Program;
using gyo::Relation;
using gyo::serve::Client;
using gyo::serve::QueryRequest;
using gyo::serve::QueryResponse;

constexpr int kClients = 2;
constexpr int kServeThreads = 2;
constexpr int kServeMaxConcurrent = 2;
// The caller thread of exec::Run executes too, so two workers keep three
// threads busy and leave one of the reference host's 4 vCPUs for the rest
// of the machine: with three workers, a query waited on whichever thread
// the host descheduled, and runs swung twice as far.
constexpr int kInprocThreads = 2;
// Set-up is repeated and its median reported, so one slow process start
// does not move setup_s.
constexpr int kSetupRepeats = 15;
// The timed phase is cut into windows of equal query counts, and the
// end-to-end metrics are taken over the windows in which the hypervisor
// stole the least CPU time from this virtual machine, at least a sixth of
// them (see SelectWindows): on a shared host, steal comes in bursts that
// slow every thread by tens of percent for seconds at a time.
constexpr int kWindows = 72;
constexpr int kMinSelected = kWindows / 6;
// At least 200 samples in the selected windows: ten beyond p95.
constexpr int64_t kMinTimed = 200 * kWindows / kMinSelected;
// The traced run sends its last quarter of requests untraced, as the base
// its overhead is measured against. (Last, so the in-process caches see the
// same request sequence as the daemon's up to the end of the traced part.)
constexpr int kUntracedShare = 4;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string serve_bin;
  std::string out_dir = ".";
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;
  /// Exact counts: identical for every run of the same seed and code.
  std::vector<std::pair<std::string, int64_t>> counts;

  void Add(const std::string& name, double value, const char* unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void Count(const std::string& name, int64_t value) {
    counts.emplace_back(name, value);
  }
};

double Median(std::vector<double> v) { return Quantile(v, 0.5); }

// ---------------------------------------------------------------------------
// Closed loop over a range of items

/// Clocks read at a window boundary.
struct Mark {
  int64_t ns = 0;
  double cpu = 0;    // CPU seconds of the measured process
  double steal = 0;  // host steal seconds, all CPUs
};

Mark TakeMark(double cpu) { return Mark{NowNs(), cpu, HostStealSeconds()}; }

/// Optional per-request work the traced run does before each round trip;
/// returns the in-process pipeline's length in ns.
using PipelineFn =
    std::function<int64_t(int client, int64_t index, const QueryRequest&)>;

struct LoopResult {
  std::vector<double> latency_ms;  // per item, in item order
  std::vector<int> window;         // per item: window of its completion
  std::vector<int64_t> pipeline_ns;
  int64_t failed = 0;
  int64_t result_rows = 0;
  /// Admission figures the daemon reported in the replies of executed
  /// (not result-cache replayed) queries.
  int64_t executed = 0;
  double queue_wait_ms = 0;
  int64_t queue_depth = 0;
  /// Window boundaries: the clocks, and the items done, at each.
  std::vector<Mark> marks;
  std::vector<int64_t> mark_done;
};

struct Session {
  Daemon daemon;
  std::vector<Client> clients;
};

bool OpenSession(const std::string& serve_bin, Session* s, std::string* err) {
  const std::vector<std::string> args = {
      "--port",    "0", "--threads", std::to_string(kServeThreads),
      "--max-concurrent-queries", std::to_string(kServeMaxConcurrent)};
  if (!s->daemon.Start(serve_bin, args, err)) return false;
  s->clients.clear();
  s->clients.resize(kClients);
  for (Client& c : s->clients) {
    if (!c.Connect("127.0.0.1", s->daemon.port())) {
      *err = "connect: " + c.io_error();
      return false;
    }
  }
  return true;
}

/// Sends items [begin, end) from all clients, each taking the next item as
/// soon as its previous reply is checked. `cpu` samples the CPU seconds of
/// the measured process at window boundaries (nullptr: no windows).
LoopResult ServeLoop(const Workload& w, Session& s, int64_t begin, int64_t end,
                     const std::function<double()>* cpu,
                     const PipelineFn* pipeline, std::vector<Tracer>* tracers) {
  LoopResult r;
  const int64_t n = end - begin;
  r.latency_ms.assign(static_cast<size_t>(n), 0.0);
  r.window.assign(static_cast<size_t>(n), 0);
  r.pipeline_ns.assign(static_cast<size_t>(n), 0);
  const int windows = cpu != nullptr ? kWindows : 0;
  std::vector<int64_t> boundary;
  if (windows > 0) {
    for (int j = 0; j <= windows; ++j) boundary.push_back(n * j / windows);
    r.marks.assign(boundary.size(), Mark());
    r.mark_done = boundary;
    r.marks[0] = TakeMark((*cpu)());
  }
  std::atomic<int64_t> next{begin};
  std::atomic<int64_t> done{0};
  std::atomic<int64_t> processed{0};
  std::atomic<int64_t> failed{0};
  std::atomic<int64_t> rows{0};
  std::atomic<int64_t> executed{0};
  std::atomic<int64_t> queue_wait_ns{0};
  std::atomic<int64_t> queue_depth{0};
  std::mutex mark_mu;
  auto body = [&](int c) {
    Client& client = s.clients[static_cast<size_t>(c)];
    for (int64_t i; (i = next.fetch_add(1)) < end;) {
      const Item& item = w.items[static_cast<size_t>(i)];
      const QueryRequest request = MakeRequest(w, item);
      if (pipeline != nullptr) {
        r.pipeline_ns[static_cast<size_t>(i - begin)] =
            (*pipeline)(c, i, request);
      }
      const int span = tracers != nullptr
                           ? (*tracers)[static_cast<size_t>(c)].Begin(
                                 "serve.round_trip", i)
                           : -1;
      QueryResponse response;
      const int64_t t0 = NowNs();
      const Client::Outcome outcome = client.Query(request, &response);
      const int64_t t1 = NowNs();
      if (span >= 0) (*tracers)[static_cast<size_t>(c)].End(span);
      r.latency_ms[static_cast<size_t>(i - begin)] = NsToMs(t1 - t0);
      processed.fetch_add(1);
      if (outcome != Client::Outcome::kOk ||
          !MatchesReference(w, item, response.result, response.stats)) {
        failed.fetch_add(1);
        if (outcome == Client::Outcome::kServerError) {
          std::fprintf(stderr, "item %" PRId64 ": server error %s: %s\n", i,
                       gyo::serve::ErrorCodeName(client.server_error().code),
                       client.server_error().message.c_str());
        } else if (outcome == Client::Outcome::kIoError) {
          std::fprintf(stderr, "item %" PRId64 ": transport: %s\n", i,
                       client.io_error().c_str());
          if (!client.Connect("127.0.0.1", s.daemon.port())) return;
        } else {
          std::fprintf(stderr, "item %" PRId64 ": wrong answer\n", i);
        }
      }
      rows.fetch_add(response.stats.result_rows);
      // A result-cache replay is stamped state_cache_hits = 1 and was never
      // admitted.
      if (outcome == Client::Outcome::kOk &&
          response.query_stats.state_cache_hits == 0) {
        executed.fetch_add(1);
        queue_wait_ns.fetch_add(
            std::llround(response.query_stats.queue_wait_seconds * 1e9));
        queue_depth.fetch_add(response.query_stats.queue_depth_at_admit);
      }
      const int64_t d = done.fetch_add(1) + 1;
      if (windows > 0) {
        r.window[static_cast<size_t>(i - begin)] =
            static_cast<int>((d - 1) * windows / n);
        const auto it = std::find(boundary.begin() + 1, boundary.end(), d);
        if (it != boundary.end()) {
          const Mark mark = TakeMark((*cpu)());
          std::lock_guard<std::mutex> lock(mark_mu);
          r.marks[static_cast<size_t>(it - boundary.begin())] = mark;
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < static_cast<int>(s.clients.size()); ++c) {
    threads.emplace_back(body, c);
  }
  for (std::thread& t : threads) t.join();
  // Items a dead connection never sent count as failed.
  r.failed = failed.load() + (n - processed.load());
  r.result_rows = rows.load();
  r.executed = executed.load();
  r.queue_wait_ms = NsToMs(queue_wait_ns.load());
  r.queue_depth = queue_depth.load();
  return r;
}

/// The windows the end-to-end metrics are taken over: those in which the
/// host stole the least CPU time per second, at least kMinSelected of them,
/// and every window that stole no more than the kMinSelected-th least. On
/// a calm host that is every window without steal. The choice depends only
/// on the host's steal counter, never on how fast the program ran in a
/// window, so the program's own slow queries keep their share of the
/// samples (ranking windows by throughput would drop the windows that hold
/// them and trim the latency tail).
std::vector<bool> SelectWindows(const LoopResult& r) {
  const size_t windows = r.marks.size() - 1;
  std::vector<std::pair<double, size_t>> rates;
  for (size_t j = 0; j < windows; ++j) {
    const Mark& a = r.marks[j];
    const Mark& b = r.marks[j + 1];
    rates.emplace_back((b.steal - a.steal) * 1e9 /
                           static_cast<double>(std::max<int64_t>(1, b.ns - a.ns)),
                       j);
  }
  std::vector<std::pair<double, size_t>> ranked = rates;
  std::sort(ranked.begin(), ranked.end());
  const double cut = ranked[static_cast<size_t>(kMinSelected) - 1].first;
  std::vector<bool> selected(windows, false);
  std::fprintf(stderr, "window qps/steal%%:");
  for (const auto& [rate, j] : rates) {
    selected[j] = rate <= cut;
    const double secs =
        static_cast<double>(r.marks[j + 1].ns - r.marks[j].ns) / 1e9;
    std::fprintf(stderr, " %.0f/%.0f%s",
                 static_cast<double>(r.mark_done[j + 1] - r.mark_done[j]) /
                     secs,
                 100.0 * rate / HostCpus(), selected[j] ? "" : "x");
  }
  std::fprintf(stderr, "\n");
  return selected;
}

/// Throughput, latency percentiles and CPU per query over the selected
/// windows, pooled: their queries over their summed wall time, percentiles
/// over their samples, CPU over their queries.
void TimedMetrics(const LoopResult& r, Report* report) {
  const std::vector<bool> selected = SelectWindows(r);
  double queries = 0, secs = 0, cpu = 0;
  int used = 0;
  for (size_t j = 0; j < selected.size(); ++j) {
    if (!selected[j]) continue;
    ++used;
    queries += static_cast<double>(r.mark_done[j + 1] - r.mark_done[j]);
    secs += static_cast<double>(r.marks[j + 1].ns - r.marks[j].ns) / 1e9;
    cpu += r.marks[j + 1].cpu - r.marks[j].cpu;
  }
  std::vector<double> lat;
  for (size_t i = 0; i < r.latency_ms.size(); ++i) {
    if (selected[static_cast<size_t>(r.window[i])]) {
      lat.push_back(r.latency_ms[i]);
    }
  }
  const double steal = r.marks.back().steal - r.marks.front().steal;
  const double wall =
      static_cast<double>(r.marks.back().ns - r.marks.front().ns) / 1e9;
  std::printf("windows {\"selected\": %d, \"of\": %zu, \"samples\": %zu, "
              "\"host_steal_pct\": %.1f}\n",
              used, selected.size(), lat.size(),
              100.0 * steal / wall / static_cast<double>(HostCpus()));
  report->Add("throughput_qps", queries / secs, "1/s");
  report->Add("p50_ms", Quantile(lat, 0.50), "ms");
  report->Add("p95_ms", Quantile(lat, 0.95), "ms");
  report->Add("cpu_ms_per_query", cpu * 1000.0 / queries, "ms");
}

void StatusCounts(const gyo::serve::StatusResponse& a,
                  const gyo::serve::StatusResponse& b, Report* report) {
  auto delta = [&](uint64_t before, uint64_t after) {
    return static_cast<int64_t>(after - before);
  };
  report->Count("served", delta(a.queries_served, b.queries_served));
  report->Count("shed_deadline",
                delta(a.queries_shed_deadline, b.queries_shed_deadline));
  report->Count("shed_backlog",
                delta(a.queries_shed_backlog, b.queries_shed_backlog));
  report->Count("protocol_errors", delta(a.protocol_errors, b.protocol_errors));
  report->Count("plan_hits", delta(a.plan_cache_hits, b.plan_cache_hits));
  report->Count("plan_misses", delta(a.plan_cache_misses, b.plan_cache_misses));
  report->Count("result_hits",
                delta(a.result_cache_hits, b.result_cache_hits));
  report->Count("result_misses",
                delta(a.result_cache_misses, b.result_cache_misses));
}

bool Status(Session& s, gyo::serve::StatusResponse* out) {
  return s.clients[0].Status(out) == Client::Outcome::kOk;
}

// ---------------------------------------------------------------------------
// Untraced runs: the end-to-end metrics

bool RunServe(const Options& o, const Workload& w, int64_t timed,
              Report* report) {
  const int64_t begin = w.warm;
  const int64_t end = w.warm + timed;
  Session s;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (rep > 0) {
      s.clients.clear();
      s.daemon.Stop();
    }
    std::string err;
    const int64_t t0 = NowNs();
    if (!OpenSession(o.serve_bin, &s, &err)) {
      std::fprintf(stderr, "set-up failed: %s\n", err.c_str());
      return false;
    }
    const LoopResult warm =
        ServeLoop(w, s, 0, w.warm, nullptr, nullptr, nullptr);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    report->attempted += w.warm;
    report->failed += warm.failed;
  }
  gyo::serve::StatusResponse before, after;
  if (!Status(s, &before)) return false;
  const pid_t pid = s.daemon.pid();
  const std::function<double()> cpu = [pid] { return ProcessCpuSeconds(pid); };
  const LoopResult r = ServeLoop(w, s, begin, end, &cpu, nullptr, nullptr);
  if (!Status(s, &after)) return false;
  const double rss = PeakRssMb(pid);
  s.clients.clear();
  const std::string drained = s.daemon.Stop();
  std::fprintf(stderr, "gyo_serve: %s\n", drained.c_str());

  report->attempted += timed;
  report->failed += r.failed;
  TimedMetrics(r, report);
  report->Add("peak_rss_mb", rss, "MiB");
  report->Add("setup_s", Median(setup_s), "s");
  StatusCounts(before, after, report);
  report->Count("result_rows", r.result_rows);
  const bool exact =
      static_cast<int64_t>(after.queries_served - before.queries_served) ==
          timed &&
      after.queries_shed_deadline == before.queries_shed_deadline &&
      after.queries_shed_backlog == before.queries_shed_backlog &&
      after.protocol_errors == before.protocol_errors;
  report->correct = exact && !drained.empty();
  return true;
}

gyo::exec::ExecContext PoolContext(gyo::exec::ExecutorPool* pool) {
  gyo::exec::ExecContext ctx;
  ctx.threads = pool->threads();
  ctx.pool = pool;
  return ctx;
}

std::unique_ptr<gyo::exec::ExecutorPool> MakeInprocPool() {
  gyo::exec::ExecutorPool::Options options;
  options.threads = kInprocThreads;
  return std::make_unique<gyo::exec::ExecutorPool>(options);
}

const BaseQuery& BaseOf(const Workload& w, int64_t i) {
  return w.bases[static_cast<size_t>(w.items[static_cast<size_t>(i)].base)];
}

/// The pooled exec::Run of `q`; `ms` receives the call's wall time.
Relation InprocRun(const BaseQuery& q, gyo::exec::ExecutorPool* pool,
                   gyo::exec::QueryStats* stats, double* ms) {
  gyo::exec::ExecContext ctx = PoolContext(pool);
  ctx.query_stats = stats;
  const int64_t t0 = NowNs();
  Relation result = gyo::exec::Run(q.program, q.states, ctx);
  *ms = NsToMs(NowNs() - t0);
  return result;
}

/// Runs item `i` through InprocRun; false on a wrong answer. The check's
/// CPU is added to `check_cpu`.
bool InprocQuery(const Workload& w, int64_t i, gyo::exec::ExecutorPool* pool,
                 double* run_ms, double* check_cpu) {
  const BaseQuery& q = BaseOf(w, i);
  const Relation result = InprocRun(q, pool, nullptr, run_ms);
  const double c0 = ThreadCpuSeconds();
  const bool ok = result.IdenticalTo(q.answer);
  *check_cpu += ThreadCpuSeconds() - c0;
  return ok;
}

bool RunInproc(const Workload& w, int64_t timed, Report* report) {
  std::unique_ptr<gyo::exec::ExecutorPool> pool;
  std::vector<double> setup_s;
  double check_cpu = 0, run_ms = 0;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    pool.reset();
    const int64_t t0 = NowNs();
    pool = MakeInprocPool();
    for (int64_t i = 0; i < w.warm; ++i) {
      if (!InprocQuery(w, i, pool.get(), &run_ms, &check_cpu)) ++report->failed;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    report->attempted += w.warm;
  }
  LoopResult r;
  std::vector<int64_t> boundary;
  for (int j = 0; j <= kWindows; ++j) boundary.push_back(timed * j / kWindows);
  r.mark_done = boundary;
  check_cpu = 0;
  r.marks.push_back(TakeMark(SelfCpuSeconds()));
  for (int64_t d = 1; d <= timed; ++d) {
    if (!InprocQuery(w, w.warm + d - 1, pool.get(), &run_ms, &check_cpu)) {
      ++r.failed;
    }
    r.latency_ms.push_back(run_ms);
    r.window.push_back(static_cast<int>((d - 1) * kWindows / timed));
    if (std::find(boundary.begin() + 1, boundary.end(), d) != boundary.end()) {
      r.marks.push_back(TakeMark(SelfCpuSeconds() - check_cpu));
    }
  }
  report->attempted += timed;
  report->failed += r.failed;
  TimedMetrics(r, report);
  report->Add("peak_rss_mb", PeakRssMb(getpid()), "MiB");
  report->Add("setup_s", Median(setup_s), "s");
  int64_t rows = 0;
  for (int64_t i = w.warm; i < w.warm + timed; ++i) {
    rows += BaseOf(w, i).stats.result_rows;
  }
  report->Count("result_rows", rows);
  return true;
}

// ---------------------------------------------------------------------------
// Traced runs: the per-layer metrics

/// Work and counts one thread of the traced run accumulates.
struct LayerTotals {
  int64_t requests = 0;
  int64_t request_bytes = 0;
  int64_t response_bytes = 0;
  int64_t tree_queries = 0;
  int64_t statements = 0;
  int64_t executed = 0;
  int64_t admitted = 0;  // queries the admission figures cover
  int64_t queue_depth = 0;
  double admit_wait_ms = 0;
  int64_t tasks = 0;
  int64_t morsels = 0;
  int64_t stolen = 0;
  int64_t affinity_hits = 0;
  int64_t affinity_misses = 0;
  int64_t peak_state_bytes = 0;
  int64_t sip_pruned = 0;
  int64_t zone_skips = 0;
  double run_cpu_s = 0;
  double run_wall_s = 0;
  double serial_wall_s = 0;
  // rel replay, per statement kind (0 join, 1 semijoin, 2 project).
  int64_t rows_in[3] = {0, 0, 0};
  int64_t rows_out[3] = {0, 0, 0};
  int64_t semijoin_probe_rows = 0;  // left inputs: the side SIP prunes
  int64_t max_intermediate = 0;
  int64_t tree_semijoins = 0;
  int64_t tree_reducer_bound = 0;  // sum of 2(n-1) over tree queries
  int64_t reducer_violations = 0;
  int64_t wrong = 0;

  void Merge(const LayerTotals& o) {
    requests += o.requests;
    request_bytes += o.request_bytes;
    response_bytes += o.response_bytes;
    tree_queries += o.tree_queries;
    statements += o.statements;
    executed += o.executed;
    admitted += o.admitted;
    queue_depth += o.queue_depth;
    admit_wait_ms += o.admit_wait_ms;
    tasks += o.tasks;
    morsels += o.morsels;
    stolen += o.stolen;
    affinity_hits += o.affinity_hits;
    affinity_misses += o.affinity_misses;
    peak_state_bytes = std::max(peak_state_bytes, o.peak_state_bytes);
    sip_pruned += o.sip_pruned;
    zone_skips += o.zone_skips;
    run_cpu_s += o.run_cpu_s;
    run_wall_s += o.run_wall_s;
    serial_wall_s += o.serial_wall_s;
    for (int k = 0; k < 3; ++k) {
      rows_in[k] += o.rows_in[k];
      rows_out[k] += o.rows_out[k];
    }
    semijoin_probe_rows += o.semijoin_probe_rows;
    max_intermediate = std::max(max_intermediate, o.max_intermediate);
    tree_semijoins += o.tree_semijoins;
    tree_reducer_bound += o.tree_reducer_bound;
    reducer_violations += o.reducer_violations;
    wrong += o.wrong;
  }
};

/// Statistics of one executed query, folded into the totals.
void AddExecStats(const gyo::exec::QueryStats& q, LayerTotals* t) {
  ++t->executed;
  t->tasks += q.tasks;
  t->morsels += q.morsels;
  t->stolen += q.tasks_stolen;
  t->affinity_hits += q.affinity_hits;
  t->affinity_misses += q.affinity_misses;
  t->peak_state_bytes = std::max(t->peak_state_bytes, q.peak_state_bytes);
  t->sip_pruned += q.sip_rows_pruned;
  t->zone_skips += q.zone_map_skips;
}

/// Replays `program` serially, statement by statement, through the public
/// kernels; one span per statement. Returns the final relation.
Relation ReplayKernels(const Program& program, std::vector<Relation> states,
                       int64_t request, Tracer* tracer, LayerTotals* t) {
  static const char* const kNames[3] = {"rel.join", "rel.semijoin",
                                        "rel.project"};
  const int root = tracer->Begin("rel.replay", request);
  for (const Program::Statement& st : program.Statements()) {
    const int kind = st.kind == Program::Statement::Kind::kJoin       ? 0
                     : st.kind == Program::Statement::Kind::kSemijoin ? 1
                                                                      : 2;
    const Relation& lhs = states[static_cast<size_t>(st.lhs)];
    t->rows_in[kind] += lhs.NumRows();
    if (kind == 1) t->semijoin_probe_rows += lhs.NumRows();
    if (kind != 2) {
      t->rows_in[kind] += states[static_cast<size_t>(st.rhs)].NumRows();
    }
    const int span = tracer->Begin(kNames[kind], request);
    Relation out =
        kind == 0   ? gyo::NaturalJoin(lhs, states[static_cast<size_t>(st.rhs)])
        : kind == 1 ? gyo::Semijoin(lhs, states[static_cast<size_t>(st.rhs)])
                    : gyo::Project(lhs, st.target);
    tracer->End(span);
    t->rows_out[kind] += out.NumRows();
    t->max_intermediate = std::max(t->max_intermediate, out.NumRows());
    states.push_back(std::move(out));
  }
  tracer->End(root);
  return std::move(states.back());
}

/// The paper's full-reducer cost: a Yannakakis program over n relations
/// runs exactly 2(n-1) semijoins.
void CountReducer(const Program& program, bool tree, LayerTotals* t) {
  if (!tree) return;
  const int64_t bound = 2 * (program.num_base() - 1);
  t->tree_semijoins += program.NumSemijoins();
  t->tree_reducer_bound += bound;
  if (program.NumSemijoins() != bound) ++t->reducer_violations;
}

/// Serial width-1 exec::Run of the same program on the same inputs, timed
/// against the pooled run.
void SerialRun(const Program& program, const std::vector<Relation>& states,
               int64_t request, Tracer* tracer, LayerTotals* t) {
  const int span = tracer->Begin("exec.serial_run", request);
  gyo::exec::Run(program, states, gyo::exec::ExecContext());
  t->serial_wall_s += static_cast<double>(tracer->End(span)) / 1e9;
}

/// Planning diagnostics on a plan-cache miss: GYO reduction, the strategy's
/// program builder and plan compilation, each timed as its own call.
void PlanningSpans(const gyo::DatabaseSchema& schema,
                   const gyo::AttrSet& target, bool tree,
                   const Program& program, int64_t request, Tracer* tracer) {
  int span = tracer->Begin("gyo.reduce", request);
  gyo::GyoReduce(schema);
  tracer->End(span);
  span = tracer->Begin("gyo.program_build", request);
  if (tree) {
    gyo::YannakakisProgram(schema, target);
  } else {
    gyo::CCPrunedProgram(schema, target);
  }
  tracer->End(span);
  span = tracer->Begin("exec.compile", request);
  gyo::exec::PhysicalPlan::Compile(program);
  tracer->End(span);
}

/// What a traced run adds beyond the spans: cache and overhead figures.
struct TraceExtras {
  double result_hit_ratio = 0;
  double plan_hit_ratio = 0;
  int64_t result_evictions = 0;
  int64_t plan_evictions = 0;
  double transport_ms = 0;
  double overhead_pct = 0;
};

void AddLayerMetrics(const std::vector<Tracer>& tracers, const LayerTotals& t,
                     const TraceExtras& x, Report* report) {
  const std::map<std::string, SelfTime> self = SelfTimes(tracers);
  auto ms = [&](const char* span) {
    const auto it = self.find(span);
    return it == self.end() ? 0.0 : it->second.PerRequestMs();
  };
  auto per = [](double v, int64_t n) {
    return n == 0 ? 0.0 : v / static_cast<double>(n);
  };
  auto d = [](int64_t v) { return static_cast<double>(v); };
  Report& r = *report;
  r.Add("serve.request_decode_ms", ms("serve.request_decode"), "ms");
  r.Add("serve.response_encode_ms", ms("serve.response_encode"), "ms");
  r.Add("serve.request_bytes", per(d(t.request_bytes), t.requests), "bytes");
  r.Add("serve.response_bytes", per(d(t.response_bytes), t.requests),
        "bytes");
  r.Add("serve.transport_ms", x.transport_ms, "ms");
  r.Add("cache.result_key_ms", ms("cache.result_key"), "ms");
  r.Add("cache.result_get_ms", ms("cache.result_get"), "ms");
  r.Add("cache.result_put_ms", ms("cache.result_put"), "ms");
  r.Add("cache.result_hit_ratio", x.result_hit_ratio, "ratio");
  r.Add("cache.result_evictions", d(x.result_evictions), "count");
  r.Add("cache.plan_get_ms", ms("cache.plan_get"), "ms");
  r.Add("cache.plan_hit_ratio", x.plan_hit_ratio, "ratio");
  r.Add("cache.plan_evictions", d(x.plan_evictions), "count");
  r.Add("gyo.plan_build_ms", ms("gyo.plan_build"), "ms");
  r.Add("gyo.reduce_ms", ms("gyo.reduce"), "ms");
  r.Add("gyo.program_build_ms", ms("gyo.program_build"), "ms");
  r.Add("exec.compile_ms", ms("exec.compile"), "ms");
  r.Add("gyo.tree_schema_share", per(d(t.tree_queries), t.requests), "ratio");
  r.Add("gyo.statements_per_query", per(d(t.statements), t.requests), "count");
  r.Add("exec.admit_wait_ms", per(t.admit_wait_ms, t.admitted), "ms");
  r.Add("exec.queue_depth_at_admit", per(d(t.queue_depth), t.admitted),
        "count");
  r.Add("exec.run_ms", ms("exec.run"), "ms");
  r.Add("exec.tasks", per(d(t.tasks), t.executed), "count");
  r.Add("exec.morsels", per(d(t.morsels), t.executed), "count");
  r.Add("exec.tasks_stolen", per(d(t.stolen), t.executed), "count");
  r.Add("exec.affinity_hit_ratio",
        per(d(t.affinity_hits), t.affinity_hits + t.affinity_misses), "ratio");
  r.Add("exec.cores_busy", t.run_wall_s > 0 ? t.run_cpu_s / t.run_wall_s : 0,
        "cores");
  r.Add("exec.speedup_vs_serial",
        t.run_wall_s > 0 ? t.serial_wall_s / t.run_wall_s : 0, "ratio");
  r.Add("exec.peak_state_mb", d(t.peak_state_bytes) / (1 << 20), "MiB");
  r.Add("rel.semijoin_ms", ms("rel.semijoin"), "ms");
  r.Add("rel.join_ms", ms("rel.join"), "ms");
  r.Add("rel.project_ms", ms("rel.project"), "ms");
  static const char* const kKinds[3] = {"join", "semijoin", "project"};
  for (int k = 0; k < 3; ++k) {
    const std::string name = std::string("rel.") + kKinds[k];
    r.Add(name + "_rows_in", per(d(t.rows_in[k]), t.executed), "rows");
    r.Add(name + "_rows_out", per(d(t.rows_out[k]), t.executed), "rows");
  }
  r.Add("rel.max_intermediate_rows", d(t.max_intermediate), "rows");
  r.Add("rel.semijoins_per_query", per(d(t.tree_semijoins), t.tree_queries),
        "count");
  r.Add("rel.reducer_cost_ratio",
        per(d(t.tree_semijoins), t.tree_reducer_bound), "ratio");
  r.Add("rel.sip_rows_pruned", per(d(t.sip_pruned), t.executed), "rows");
  r.Add("rel.zone_map_skips", per(d(t.zone_skips), t.executed), "rows");
  r.Add("rel.prune_ratio",
        per(d(t.sip_pruned + t.zone_skips), t.semijoin_probe_rows), "ratio");
  r.Add("trace.overhead_pct", x.overhead_pct, "%");
  int64_t spans = 0;
  for (const Tracer& tr : tracers) {
    spans += static_cast<int64_t>(tr.spans().size());
  }
  r.Add("trace.spans", d(spans), "count");

  r.Count("trace_requests", t.requests);
  r.Count("trace_executed", t.executed);
  r.Count("tree_queries", t.tree_queries);
  r.Count("statements", t.statements);
  for (int k = 0; k < 3; ++k) {
    r.Count(std::string(kKinds[k]) + "_rows_in", t.rows_in[k]);
    r.Count(std::string(kKinds[k]) + "_rows_out", t.rows_out[k]);
  }
  r.Count("max_intermediate_rows", t.max_intermediate);
  r.Count("tree_semijoins", t.tree_semijoins);
  r.Count("reducer_violations", t.reducer_violations);
  r.Count("sip_rows_pruned", t.sip_pruned);
  r.Count("zone_map_skips", t.zone_skips);
}

bool WriteSpans(const std::string& path, const std::vector<Tracer>& tracers,
                int64_t origin_ns) {
  std::ofstream out(path);
  out << "request\tname\tparent\tstart_us\tend_us\n";
  for (const Tracer& t : tracers) {
    for (const Span& s : t.spans()) {
      out << s.request << '\t' << s.name << '\t' << s.parent << '\t'
          << (s.start_ns - origin_ns) / 1000 << '\t'
          << (s.end_ns - origin_ns) / 1000 << '\n';
    }
  }
  return static_cast<bool>(out);
}

std::string SpansPath(const Options& o) {
  return o.out_dir + "/" + o.workload + "-seed" + std::to_string(o.seed) +
         ".spans.tsv";
}

/// The in-process mirror of gyo_serve's request path (server.cc RunQuery),
/// one public call per span, in the server's order: decode, plan get,
/// result key and get, admit, execute, put, encode.
class ServePipeline {
 public:
  explicit ServePipeline(const Workload& w) : w_(w) {
    gyo::exec::ExecutorPool::Options pool;
    pool.threads = kServeThreads;
    pool.max_concurrent_queries = kServeMaxConcurrent;
    pool_ = std::make_unique<gyo::exec::ExecutorPool>(pool);
  }

  gyo::cache::PlanCache& plans() { return plans_; }
  gyo::cache::ResultCache& results() { return results_; }

  /// Runs one request; returns the pipeline span's length in ns.
  int64_t Run(int client, int64_t index, const QueryRequest& request,
              Tracer* tracer, LayerTotals* t) {
    using gyo::serve::FrameType;
    const std::vector<uint8_t> frame = gyo::serve::EncodeQueryRequest(request);
    // The server strips the 4-byte header and the type byte before decoding.
    const size_t skip = gyo::serve::kFrameHeaderBytes + 1;
    const int root = tracer->Begin("serve.pipeline", index);

    int span = tracer->Begin("serve.request_decode", index);
    gyo::Catalog catalog;
    QueryRequest req;
    gyo::DatabaseSchema schema;
    gyo::AttrSet target;
    std::string err;
    const bool decoded = gyo::serve::DecodeQueryRequest(
        frame.data() + skip, frame.size() - skip, catalog, &req, &schema,
        &target, &err);
    tracer->End(span);
    if (!decoded) {
      tracer->End(root);
      ++t->wrong;
      return 0;
    }

    span = tracer->Begin("cache.plan_get", index);
    std::optional<gyo::cache::PlanCache::Result> planned =
        plans_.GetOrBuild(schema, target, gyo::cache::PlanStrategy::kAuto);
    tracer->End(span);
    if (!planned->hit) tracer->Rename(span, "gyo.plan_build");

    const uint64_t variant =
        (static_cast<uint64_t>(planned->resolved) << 1) | 1;
    span = tracer->Begin("cache.result_key", index);
    const gyo::cache::ResultKey key =
        gyo::cache::MakeResultKey(schema, target, req.states, variant);
    tracer->End(span);
    span = tracer->Begin("cache.result_get", index);
    std::optional<gyo::cache::ResultCache::Value> cached = results_.Get(key);
    tracer->End(span);

    QueryResponse resp;
    gyo::exec::QueryStats qstats;
    if (cached.has_value()) {
      resp.result = std::move(cached->result);
      resp.stats = cached->stats;
    } else {
      span = tracer->Begin("exec.admit", index);
      gyo::exec::ExecutorPool::AdmitResult admit =
          pool_->TryAdmit(static_cast<uint64_t>(client) + 1, -1.0);
      tracer->End(span);
      if (admit.admission == nullptr) {
        tracer->End(root);
        ++t->wrong;
        return 0;
      }
      span = tracer->Begin("exec.run", index);
      const double cpu0 = SelfCpuSeconds();
      gyo::exec::ExecContext ctx;
      ctx.query_stats = &resp.query_stats;
      std::vector<Relation> states = planned->plan.ExecuteAdmitted(
          req.states, ctx, *admit.admission, &resp.stats);
      t->run_cpu_s += SelfCpuSeconds() - cpu0;
      t->run_wall_s += static_cast<double>(tracer->End(span)) / 1e9;
      admit.admission.reset();
      qstats = resp.query_stats;
      resp.result = std::move(states.back());
      span = tracer->Begin("cache.result_put", index);
      results_.Put(key,
                   gyo::cache::ResultCache::Value{resp.result, resp.stats});
      tracer->End(span);
    }
    span = tracer->Begin("serve.response_encode", index);
    const std::vector<uint8_t> reply = gyo::serve::EncodeQueryResponse(resp);
    tracer->End(span);
    const int64_t pipeline_ns = tracer->End(root);

    const Item& item = w_.items[static_cast<size_t>(index)];
    ++t->requests;
    t->request_bytes += static_cast<int64_t>(frame.size());
    t->response_bytes += static_cast<int64_t>(reply.size());
    t->statements += planned->program.NumStatements();
    if (planned->acyclic) ++t->tree_queries;
    CountReducer(planned->program, planned->acyclic, t);
    if (!MatchesReference(w_, item, resp.result, resp.stats)) ++t->wrong;
    if (!planned->hit) {
      PlanningSpans(schema, target, planned->acyclic, planned->program, index,
                    tracer);
    }
    if (!cached.has_value()) {
      AddExecStats(qstats, t);
      const Relation replayed =
          ReplayKernels(planned->program, req.states, index, tracer, t);
      if (!MatchesReference(w_, item, replayed, resp.stats)) ++t->wrong;
      SerialRun(planned->program, req.states, index, tracer, t);
    }
    return pipeline_ns;
  }

 private:
  const Workload& w_;
  gyo::cache::PlanCache plans_;
  gyo::cache::ResultCache results_;
  std::unique_ptr<gyo::exec::ExecutorPool> pool_;
};

bool RunServeTraced(const Options& o, const Workload& w, int64_t timed,
                    Report* report) {
  Session s;
  std::string err;
  if (!OpenSession(o.serve_bin, &s, &err)) {
    std::fprintf(stderr, "set-up failed: %s\n", err.c_str());
    return false;
  }
  ServePipeline pipeline(w);
  std::vector<Tracer> warm_tracers(kClients), tracers(kClients);
  std::vector<LayerTotals> warm_totals(kClients), totals(kClients);
  const PipelineFn warm_fn = [&](int c, int64_t i, const QueryRequest& r) {
    return pipeline.Run(c, i, r, &warm_tracers[static_cast<size_t>(c)],
                        &warm_totals[static_cast<size_t>(c)]);
  };
  const PipelineFn traced_fn = [&](int c, int64_t i, const QueryRequest& r) {
    return pipeline.Run(c, i, r, &tracers[static_cast<size_t>(c)],
                        &totals[static_cast<size_t>(c)]);
  };
  const int64_t end = w.warm + timed;
  const int64_t split = end - timed / kUntracedShare;
  const LoopResult warm =
      ServeLoop(w, s, 0, w.warm, nullptr, &warm_fn, nullptr);
  gyo::serve::StatusResponse before, after;
  if (!Status(s, &before)) return false;
  const gyo::cache::PlanCacheStats plans0 = pipeline.plans().stats();
  const gyo::cache::ResultCacheStats results0 = pipeline.results().stats();
  const int64_t origin = NowNs();
  const LoopResult traced =
      ServeLoop(w, s, w.warm, split, nullptr, &traced_fn, &tracers);
  if (!Status(s, &after)) return false;
  const LoopResult plain =
      ServeLoop(w, s, split, end, nullptr, nullptr, nullptr);
  s.clients.clear();
  s.daemon.Stop();

  LayerTotals t;
  for (const LayerTotals& part : totals) t.Merge(part);
  for (const LayerTotals& part : warm_totals) t.wrong += part.wrong;
  // Admission is the daemon's: its replies carry the queue wait and depth.
  t.admitted = traced.executed;
  t.admit_wait_ms = traced.queue_wait_ms;
  t.queue_depth = traced.queue_depth;
  report->attempted = end;
  report->failed = warm.failed + plain.failed + traced.failed + t.wrong;

  TraceExtras x;
  const auto ratio = [](uint64_t hits, uint64_t misses) {
    return hits + misses == 0 ? 0.0
                              : static_cast<double>(hits) /
                                    static_cast<double>(hits + misses);
  };
  x.result_hit_ratio =
      ratio(after.result_cache_hits - before.result_cache_hits,
            after.result_cache_misses - before.result_cache_misses);
  x.plan_hit_ratio = ratio(after.plan_cache_hits - before.plan_cache_hits,
                           after.plan_cache_misses - before.plan_cache_misses);
  x.result_evictions = static_cast<int64_t>(
      pipeline.results().stats().evictions - results0.evictions);
  x.plan_evictions = static_cast<int64_t>(pipeline.plans().stats().evictions -
                                          plans0.evictions);
  double transport = 0;
  for (size_t j = 0; j < traced.latency_ms.size(); ++j) {
    transport += traced.latency_ms[j] - NsToMs(traced.pipeline_ns[j]);
  }
  x.transport_ms = transport / static_cast<double>(traced.latency_ms.size());
  std::vector<double> plain_lat = plain.latency_ms;
  std::vector<double> traced_lat = traced.latency_ms;
  x.overhead_pct =
      (Quantile(traced_lat, 0.5) / Quantile(plain_lat, 0.5) - 1.0) * 100.0;
  AddLayerMetrics(tracers, t, x, report);
  StatusCounts(before, after, report);
  report->correct =
      t.reducer_violations == 0 && WriteSpans(SpansPath(o), tracers, origin);
  return true;
}

bool RunInprocTraced(const Options& o, const Workload& w, int64_t timed,
                     Report* report) {
  std::unique_ptr<gyo::exec::ExecutorPool> pool = MakeInprocPool();
  const int64_t end = w.warm + timed;
  const int64_t split = end - timed / kUntracedShare;
  std::vector<Tracer> tracers(1);
  Tracer* tracer = &tracers[0];
  LayerTotals t;
  std::vector<double> plain_lat, traced_lat;
  const int64_t origin = NowNs();
  for (int64_t i = 0; i < end; ++i) {
    const BaseQuery& q = BaseOf(w, i);
    gyo::exec::QueryStats qstats;
    double ms = 0;
    if (i < w.warm || i >= split) {
      if (!InprocRun(q, pool.get(), &qstats, &ms).IdenticalTo(q.answer)) {
        ++t.wrong;
      }
      if (i >= split) plain_lat.push_back(ms);
      continue;
    }
    PlanningSpans(q.schema, q.target, q.tree_schema, q.program, i, tracer);
    const int span = tracer->Begin("exec.run", i);
    const double cpu0 = SelfCpuSeconds();
    const Relation result = InprocRun(q, pool.get(), &qstats, &ms);
    t.run_cpu_s += SelfCpuSeconds() - cpu0;
    tracer->End(span);
    if (!result.IdenticalTo(q.answer)) ++t.wrong;
    t.run_wall_s += ms / 1e3;
    traced_lat.push_back(ms);
    ++t.admitted;
    t.admit_wait_ms += qstats.queue_wait_seconds * 1000.0;
    t.queue_depth += qstats.queue_depth_at_admit;
    AddExecStats(qstats, &t);

    ++t.requests;
    t.statements += q.program.NumStatements();
    if (q.tree_schema) ++t.tree_queries;
    CountReducer(q.program, q.tree_schema, &t);
    const Relation replayed = ReplayKernels(q.program, q.states, i, tracer, &t);
    if (!replayed.IdenticalTo(q.answer)) ++t.wrong;
    SerialRun(q.program, q.states, i, tracer, &t);
  }
  report->attempted = end;
  report->failed = t.wrong;
  TraceExtras x;
  x.overhead_pct =
      (Quantile(traced_lat, 0.5) / Quantile(plain_lat, 0.5) - 1.0) * 100.0;
  AddLayerMetrics(tracers, t, x, report);
  report->correct =
      t.reducer_violations == 0 && WriteSpans(SpansPath(o), tracers, origin);
  return true;
}

// ---------------------------------------------------------------------------

void PrintReport(const Report& r) {
  std::printf("counts {");
  for (size_t i = 0; i < r.counts.size(); ++i) {
    std::printf("%s\"%s\": %" PRId64, i == 0 ? "" : ", ",
                r.counts[i].first.c_str(), r.counts[i].second);
  }
  std::printf("}\n");
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": {",
              r.correct && r.failed == 0 ? "true" : "false", r.attempted,
              r.failed);
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_loadgen --workload NAME --seed N --seconds S "
               "--trace 0|1 --serve-bin PATH [--out-dir DIR]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      o.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--serve-bin") {
      o.serve_bin = v;
    } else if (flag == "--out-dir") {
      o.out_dir = v;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || o.workload.empty() || o.seconds <= 0) return Usage();
  // A whole number of windows, so every window holds the same query count.
  const int64_t timed =
      (std::max<int64_t>(kMinTimed,
                         std::llround(o.seconds * NominalQps(o.workload))) +
       kWindows - 1) /
      kWindows * kWindows;
  Workload w;
  const int64_t g0 = NowNs();
  if (!MakeWorkload(o.workload, o.seed, timed, HostCpus(), &w)) {
    std::fprintf(stderr, "unknown workload %s\n", o.workload.c_str());
    return 2;
  }
  if (w.serve && o.serve_bin.empty()) return Usage();
  std::fprintf(stderr,
               "%s: %zu base queries, %" PRId64
               " timed requests, inputs in %.2f s\n",
               w.name.c_str(), w.bases.size(), timed,
               static_cast<double>(NowNs() - g0) / 1e9);
  Report report;
  bool ran = false;
  if (w.serve) {
    ran = o.trace ? RunServeTraced(o, w, timed, &report)
                  : RunServe(o, w, timed, &report);
  } else {
    ran = o.trace ? RunInprocTraced(o, w, timed, &report)
                  : RunInproc(w, timed, &report);
  }
  if (!ran) return 1;
  PrintReport(report);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
