// Query service (serve/): end-to-end latency through gyo_serve's full stack
// — framing, the IO thread, admission, pool execution, response flush —
// over loopback TCP, as a function of offered load.
//
//   * MultiClient: Arg(0) concurrent connections, each a persistent client
//     issuing Yannakakis path queries back-to-back against one
//     2-thread/2-slot pool. p50_ms / p99_ms are per-request wall latencies
//     (computed from the recorded per-query samples, not the iteration
//     mean), so the p99-vs-load curve reads directly off the report. The
//     `queries` and `result_rows` counters are seeded, deterministic
//     cardinalities — pinned by check_bench_counters.py, so a drift in
//     served results fails the bench gate exactly like a direct-execution
//     drift.
//   * Overload: 8 connections hammer a deliberately tiny pool (1 slot,
//     backlog bound 2, shared submitter, 1 ms deadlines). requests_shed
//     counts the typed kDeadlineExceeded / kBacklogFull replies; the
//     counter check pins its sign — an overloaded server that stops
//     shedding has lost its backpressure, which is the regression this
//     bench exists to catch. requests_ok + requests_shed always equals
//     requests_offered: overload must never produce a hang, a crash, or an
//     untyped failure.
//
// Both benches send one identical seeded request over and over, so the
// daemon runs with its result cache off: every request is admitted and
// executed, never answered by a pre-admission replay of the first one.
//
// Times are wall-clock (UseRealTime): the work happens on server workers
// and pool threads, not the benchmark thread.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/executor_pool.h"
#include "rel/universal.h"
#include "schema/parse.h"
#include "serve/client.h"
#include "serve/server.h"
#include "util/rng.h"

namespace gyo {
namespace serve {
namespace {

constexpr const char* kSchemaSpec = "ab,bc,cd";
constexpr const char* kTargetSpec = "ad";

// Key-like data (domain ≫ rows), matching the bench_exec methodology.
QueryRequest MakeRequest(int rows, uint64_t seed) {
  Catalog catalog;
  DatabaseSchema d = ParseSchema(catalog, kSchemaSpec);
  Rng rng(seed);
  QueryRequest request;
  request.schema_spec = kSchemaSpec;
  request.target_spec = kTargetSpec;
  request.states = ProjectDatabase(
      RandomUniversal(d.Universe(), rows, 16 * rows, rng), d);
  return request;
}

double PercentileMs(std::vector<double>& samples_ms, double p) {
  if (samples_ms.empty()) return 0.0;
  std::sort(samples_ms.begin(), samples_ms.end());
  const double index = p * static_cast<double>(samples_ms.size() - 1);
  return samples_ms[static_cast<size_t>(std::lround(index))];
}

// An in-process daemon on its own pool, plus one persistent connection per
// simulated client. Connections outlive the timing loop, so the measured
// path is request -> response, not connect().
struct BenchServer {
  BenchServer(int pool_threads, int max_concurrent, int backlog_bound,
              int num_clients) {
    exec::ExecutorPool::Options pool_options;
    pool_options.threads = pool_threads;
    pool_options.max_concurrent_queries = max_concurrent;
    pool_options.max_waiting_per_submitter = backlog_bound;
    pool = std::make_unique<exec::ExecutorPool>(pool_options);
    ServerOptions options;
    options.pool = pool.get();
    options.result_cache_bytes = 0;
    server = std::make_unique<Server>(options);
    std::string error;
    if (!server->Start(&error)) {
      std::fprintf(stderr, "bench server failed to start: %s\n",
                   error.c_str());
      std::abort();
    }
    clients.resize(static_cast<size_t>(num_clients));
    for (auto& client : clients) {
      if (!client.Connect("127.0.0.1", server->port())) {
        std::fprintf(stderr, "bench client failed to connect: %s\n",
                     client.io_error().c_str());
        std::abort();
      }
    }
  }

  ~BenchServer() {
    clients.clear();  // close before the drain so the server exits promptly
    server->RequestDrain();
    server->Wait();
  }

  std::unique_ptr<exec::ExecutorPool> pool;
  std::unique_ptr<Server> server;
  std::vector<Client> clients;
};

// Arg(0) concurrent connections; every client sends kQueriesPerClient
// queries per iteration, each timed individually.
void BM_Serve_MultiClient(benchmark::State& state) {
  constexpr int kQueriesPerClient = 2;
  constexpr int kRows = 400;
  const int num_clients = static_cast<int>(state.range(0));
  BenchServer bench(/*pool_threads=*/2, /*max_concurrent=*/2,
                    /*backlog_bound=*/0, num_clients);
  const QueryRequest request = MakeRequest(kRows, /*seed=*/17);

  int64_t result_rows = -1;
  std::vector<double> latencies_ms;
  std::mutex mu;
  for (auto _ : state) {
    std::vector<std::thread> threads;
    for (int c = 0; c < num_clients; ++c) {
      threads.emplace_back([&, c] {
        std::vector<double> local_ms;
        int64_t local_rows = -1;
        for (int q = 0; q < kQueriesPerClient; ++q) {
          const auto start = std::chrono::steady_clock::now();
          QueryResponse response;
          if (bench.clients[static_cast<size_t>(c)].Query(
                  request, &response) != Client::Outcome::kOk) {
            std::fprintf(stderr, "bench query failed\n");
            std::abort();
          }
          local_ms.push_back(std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - start)
                                 .count());
          local_rows = response.stats.result_rows;
        }
        std::lock_guard<std::mutex> lock(mu);
        latencies_ms.insert(latencies_ms.end(), local_ms.begin(),
                            local_ms.end());
        result_rows = local_rows;
      });
    }
    for (std::thread& t : threads) t.join();
  }

  state.counters["queries"] =
      static_cast<double>(num_clients * kQueriesPerClient);
  state.counters["result_rows"] = static_cast<double>(result_rows);
  state.counters["p50_ms"] = PercentileMs(latencies_ms, 0.50);
  state.counters["p99_ms"] = PercentileMs(latencies_ms, 0.99);
}
BENCHMARK(BM_Serve_MultiClient)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Offered load far beyond capacity: every request either completes or comes
// back as a typed shed, and under this geometry (8 clients, 1 slot, shared
// submitter with backlog 2, 1 ms deadline) sheds must occur.
void BM_Serve_Overload(benchmark::State& state) {
  constexpr int kClients = 8;
  constexpr int kQueriesPerClient = 2;
  constexpr int kRows = 1500;
  BenchServer bench(/*pool_threads=*/1, /*max_concurrent=*/1,
                    /*backlog_bound=*/2, kClients);
  QueryRequest request = MakeRequest(kRows, /*seed=*/23);
  request.deadline_ms = 1;
  request.submitter = 777;  // one shared fairness class saturates its quota

  int64_t offered = 0, ok = 0, shed = 0, other = 0;
  std::vector<double> latencies_ms;
  std::mutex mu;
  for (auto _ : state) {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        int64_t local_ok = 0, local_shed = 0, local_other = 0;
        std::vector<double> local_ms;
        for (int q = 0; q < kQueriesPerClient; ++q) {
          const auto start = std::chrono::steady_clock::now();
          QueryResponse response;
          const Client::Outcome outcome =
              bench.clients[static_cast<size_t>(c)].Query(request, &response);
          local_ms.push_back(std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - start)
                                 .count());
          if (outcome == Client::Outcome::kOk) {
            ++local_ok;
          } else if (outcome == Client::Outcome::kServerError &&
                     (bench.clients[static_cast<size_t>(c)]
                              .server_error()
                              .code == ErrorCode::kDeadlineExceeded ||
                      bench.clients[static_cast<size_t>(c)]
                              .server_error()
                              .code == ErrorCode::kBacklogFull)) {
            ++local_shed;
          } else {
            ++local_other;  // would make ok+shed != offered below
          }
        }
        std::lock_guard<std::mutex> lock(mu);
        ok += local_ok;
        shed += local_shed;
        other += local_other;
        offered += kQueriesPerClient;
        latencies_ms.insert(latencies_ms.end(), local_ms.begin(),
                            local_ms.end());
      });
    }
    for (std::thread& t : threads) t.join();
  }

  state.counters["requests_offered"] = static_cast<double>(offered);
  state.counters["requests_ok"] = static_cast<double>(ok);
  state.counters["requests_shed"] = static_cast<double>(shed);
  state.counters["requests_failed"] = static_cast<double>(other);
  state.counters["p50_ms"] = PercentileMs(latencies_ms, 0.50);
  state.counters["p99_ms"] = PercentileMs(latencies_ms, 0.99);
}
BENCHMARK(BM_Serve_Overload)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace serve
}  // namespace gyo
