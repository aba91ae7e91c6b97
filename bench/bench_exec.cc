// Parallel execution runtime (exec/): parallel vs serial evaluation at
// 1/2/4/8 threads. Arg(0) = thread count, so .../1 rows are the serial
// engine and the speedup curve reads directly off the report. Each
// benchmark owns an ExecutorPool of exactly Arg(0) threads (rather than
// borrowing the process-wide pool) so the curve measures pool width, not
// the host's core count.
//
//   * Path_Yannakakis-class workload: a 16-hop path query evaluated by the
//     Yannakakis program — statement-level parallelism (independent subtree
//     semijoins) plus morsel-level parallelism in each operator.
//   * Star_Yannakakis: wide fan-out, scheduler-bound shape.
//   * FullReducer: the 2(n−1)-semijoin reducer over a random tree schema.
//   * FullJoin_Morsels: a join-dominated plan where intra-operator morsel
//     parallelism is the only lever (the statement chain is serial).
//   * MultiClient: Arg(0) concurrent client threads pushing Yannakakis
//     queries through ONE shared admission-controlled pool — the
//     multi-tenant story. Counters report the (identical) per-query result
//     cardinality plus the aggregate morsel count observed by QueryStats.
//
// Times are wall-clock (UseRealTime): with worker threads, per-thread CPU
// time would hide the speedup being measured.

#include <benchmark/benchmark.h>

#include <memory>
#include <thread>
#include <vector>

#include "exec/executor_pool.h"
#include "exec/physical_plan.h"
#include "mem_counters.h"
#include "rel/reducer.h"
#include "rel/solver.h"
#include "rel/universal.h"
#include "schema/generators.h"
#include "util/rng.h"

namespace gyo {
namespace {

// Key-like data (domain ≫ rows) keeps join growth factors near 1, matching
// the bench_join_strategies methodology.
std::vector<Relation> MakeUR(const DatabaseSchema& d, int rows,
                             uint64_t seed) {
  Rng rng(seed);
  Relation universal = RandomUniversal(d.Universe(), rows, 16 * rows, rng);
  return ProjectDatabase(universal, d);
}

// A private pool of exactly state.range(0) threads plus the context that
// routes queries onto it.
struct BenchPool {
  explicit BenchPool(benchmark::State& state) {
    exec::ExecutorPool::Options options;
    options.threads = static_cast<int>(state.range(0));
    pool = std::make_unique<exec::ExecutorPool>(options);
    ctx.threads = options.threads;
    ctx.pool = pool.get();
  }
  std::unique_ptr<exec::ExecutorPool> pool;
  exec::ExecContext ctx;
};

void ReportStats(benchmark::State& state, const Program& p,
                 const std::vector<Relation>& states,
                 const exec::ExecContext& caller_ctx, double peak_rss_mb) {
  Program::Stats stats;
  exec::QueryStats query_stats;
  exec::ExecContext ctx = caller_ctx;
  ctx.query_stats = &query_stats;
  exec::Execute(p, states, ctx, &stats);
  state.counters["max_intermediate"] =
      static_cast<double>(stats.max_intermediate_rows);
  state.counters["result_rows"] = static_cast<double>(stats.result_rows);
  gyo_bench::ReportMemCounters(state, query_stats, peak_rss_mb);
}

// One fork-isolated RSS sample of a full query at this Arg's thread width.
// Must run BEFORE the parent constructs its BenchPool: the child builds its
// own pool, so the fork happens while the parent is still single-threaded.
double SampleRss(benchmark::State& state, const Program& p,
                 const std::vector<Relation>& states) {
  return gyo_bench::ForkIsolatedPeakRssMb([&] {
    BenchPool child(state);
    benchmark::DoNotOptimize(exec::Run(p, states, child.ctx));
  });
}

void BM_Exec_PathYannakakis(benchmark::State& state) {
  DatabaseSchema d = PathSchema(17);
  AttrSet x{0, 16};
  Program p = *YannakakisProgram(d, x);
  std::vector<Relation> states = MakeUR(d, 8192, 17);
  const double peak_rss_mb = SampleRss(state, p, states);
  BenchPool bench(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec::Run(p, states, bench.ctx));
  }
  ReportStats(state, p, states, bench.ctx, peak_rss_mb);
}
BENCHMARK(BM_Exec_PathYannakakis)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_Exec_StarYannakakis(benchmark::State& state) {
  DatabaseSchema d = StarSchema(12);
  AttrSet x{0, 1};
  Program p = *YannakakisProgram(d, x);
  std::vector<Relation> states = MakeUR(d, 8192, 13);
  const double peak_rss_mb = SampleRss(state, p, states);
  BenchPool bench(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec::Run(p, states, bench.ctx));
  }
  ReportStats(state, p, states, bench.ctx, peak_rss_mb);
}
BENCHMARK(BM_Exec_StarYannakakis)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_Exec_FullReducer(benchmark::State& state) {
  Rng schema_rng(5);
  RandomTreeResult t = RandomTreeSchema(24, 4, schema_rng);
  Rng state_rng(6);
  std::vector<Relation> states = RandomStates(t.schema, 8192, 24, state_rng);
  const double peak_rss_mb = gyo_bench::ForkIsolatedPeakRssMb([&] {
    BenchPool child(state);
    auto out = ApplyFullReducer(t.schema, states, child.ctx);
    benchmark::DoNotOptimize(out);
  });
  BenchPool bench(state);
  exec::QueryStats query_stats;
  bench.ctx.query_stats = &query_stats;
  int64_t reduced_rows = 0;
  for (auto _ : state) {
    auto out = ApplyFullReducer(t.schema, states, bench.ctx);
    reduced_rows = (*out)[0].NumRows();
    benchmark::DoNotOptimize(out);
  }
  state.counters["reduced_rows_r0"] = static_cast<double>(reduced_rows);
  gyo_bench::ReportMemCounters(state, query_stats, peak_rss_mb);
}
BENCHMARK(BM_Exec_FullReducer)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_Exec_FullJoin_Morsels(benchmark::State& state) {
  DatabaseSchema d = PathSchema(4);
  AttrSet x{0, 3};
  Program p = FullJoinProgram(d, x);
  std::vector<Relation> states = MakeUR(d, 32768, 19);
  const double peak_rss_mb = SampleRss(state, p, states);
  BenchPool bench(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec::Run(p, states, bench.ctx));
  }
  ReportStats(state, p, states, bench.ctx, peak_rss_mb);
}
BENCHMARK(BM_Exec_FullJoin_Morsels)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

void BM_Exec_StealImbalance(benchmark::State& state) {
  // The skew bench: a semijoin where 75% of the probe side shares one hot
  // key, so one hash partition owns ~6x its fair share of probe chunks.
  // Every probe chunk is claimed from one shared counter by whichever
  // thread is free, so the hot partition's chunks spread over the pool
  // like any others; the thread curve shows whether skew costs anything
  // beyond the extra rows. The trailing projection gives the graph a
  // second statement, so the caller's drain loop runs inside the measured
  // region. result_rows is pinned like every other bench's.
  constexpr int64_t kProbeRows = 1 << 18;
  constexpr int64_t kBuildRows = 1 << 16;
  constexpr Value kHotKey = 42;
  Relation r(AttrSet{0, 1});
  r.Reserve(kProbeRows);
  for (int64_t i = 0; i < kProbeRows; ++i) {
    const Value key = (i % 4 == 0) ? static_cast<Value>(i % kBuildRows)
                                   : kHotKey;
    r.AddRow({key, static_cast<Value>(i)});
  }
  r.Canonicalize();
  Relation s(AttrSet{0, 2});
  s.Reserve(kBuildRows);
  for (int64_t k = 0; k < kBuildRows; ++k) {
    s.AddRow({static_cast<Value>(k), static_cast<Value>(k)});
  }
  s.Canonicalize();
  Program p(2);
  const int sj = p.AddSemijoin(0, 1);
  p.AddProject(sj, AttrSet{0});
  std::vector<Relation> states = {r, s};
  const double peak_rss_mb = SampleRss(state, p, states);
  BenchPool bench(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec::Run(p, states, bench.ctx));
  }
  ReportStats(state, p, states, bench.ctx, peak_rss_mb);
}
BENCHMARK(BM_Exec_StealImbalance)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

void BM_Exec_SipStar(benchmark::State& state) {
  // Sideways information passing on a star-schema semijoin chain. All
  // satellites of a star share the center attribute, so the reduction is a
  // chain s_i = s_{i-1} ⋉ R_i with key {0} throughout — and every later
  // satellite is a base-slot eliminator for the chain head. The satellite
  // key domains shrink down the chain (the last one is tiny), so without
  // SIP every statement re-probes the rows the tail would have killed,
  // while with SIP the head consults the tail satellites' Bloom filters
  // and drops ~97% of the fact rows before the first hash build's probes.
  // Arg(0) = threads, Arg(1) = SIP on/off — the A/B reads directly off the
  // report, and sip_rows_pruned is sign-pinned on the sip:1 half.
  constexpr int kSatellites = 7;
  constexpr int64_t kFactRows = 1 << 16;
  constexpr int64_t kSatRows = 1 << 12;
  Program p(1 + kSatellites);
  int chain = 0;
  for (int i = 1; i <= kSatellites; ++i) chain = p.AddSemijoin(chain, i);
  Rng rng(23);
  std::vector<Relation> states;
  Relation fact(AttrSet{0, 1});
  fact.Reserve(kFactRows);
  for (int64_t i = 0; i < kFactRows; ++i) {
    fact.AddRow({static_cast<Value>(rng.Below(1 << 14)),
                 static_cast<Value>(i)});
  }
  fact.Canonicalize();
  states.push_back(std::move(fact));
  for (int i = 1; i <= kSatellites; ++i) {
    // Satellite i's keys cover [0, 4096 >> (i-1)) densely (k mod domain),
    // down to [0, 64) at i = 7 — so the chain's survivors are exactly the
    // fact rows with keys under the smallest domain, a nonzero pinned
    // cardinality, and the tail filters do the heavy pruning.
    const int64_t domain = kSatRows >> (i - 1);
    Relation sat(AttrSet{0, static_cast<AttrId>(i + 1)});
    sat.Reserve(kSatRows);
    for (int64_t k = 0; k < kSatRows; ++k) {
      sat.AddRow({static_cast<Value>(k % domain), static_cast<Value>(k)});
    }
    sat.Canonicalize();
    states.push_back(std::move(sat));
  }
  const double peak_rss_mb = SampleRss(state, p, states);
  BenchPool bench(state);
  bench.ctx.enable_sip = state.range(1) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec::Run(p, states, bench.ctx));
  }
  ReportStats(state, p, states, bench.ctx, peak_rss_mb);
}
BENCHMARK(BM_Exec_SipStar)
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({8, 0})
    ->Args({8, 1})
    ->UseRealTime();

void BM_Exec_JoinScatter(benchmark::State& state) {
  // NaturalJoin's probe-side radix scatter under skew: the build side is
  // unique on the join key (output growth ≤ 1), the probe side puts half
  // its rows on 8 hot keys — so a handful of partitions own most of the
  // probe traffic, and the scatter under that skew is what the thread curve
  // measures. Arg(0) = threads, Arg(1) =
  // deterministic: the 1-half pays the k-way morsel merge that restores
  // serial output order, the 0-half concatenates in completion order, so
  // the merge's cost is the gap between the halves at each width.
  constexpr int64_t kProbeRows = 1 << 18;
  constexpr int64_t kBuildRows = 1 << 16;
  Rng rng(29);
  Relation r(AttrSet{0, 1});
  r.Reserve(kProbeRows);
  for (int64_t i = 0; i < kProbeRows; ++i) {
    const Value key = (i % 2 == 0) ? static_cast<Value>(rng.Below(8))
                                   : static_cast<Value>(rng.Below(kBuildRows));
    r.AddRow({static_cast<Value>(i), key});
  }
  r.Canonicalize();
  Relation s(AttrSet{1, 2});
  s.Reserve(kBuildRows);
  for (int64_t k = 0; k < kBuildRows; ++k) {
    s.AddRow({static_cast<Value>(k), static_cast<Value>(k % 97)});
  }
  s.Canonicalize();
  Program p(2);
  p.AddJoin(0, 1);
  std::vector<Relation> states = {std::move(r), std::move(s)};
  const double peak_rss_mb = SampleRss(state, p, states);
  BenchPool bench(state);
  bench.ctx.deterministic = state.range(1) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec::Run(p, states, bench.ctx));
  }
  ReportStats(state, p, states, bench.ctx, peak_rss_mb);
}
BENCHMARK(BM_Exec_JoinScatter)
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({4, 1})
    ->Args({8, 1})
    ->Args({8, 0})
    ->UseRealTime();

void BM_Exec_ZoneMap(benchmark::State& state) {
  // Zone-map disjointness in Semijoin: Arg(1) = 1 puts the build side's
  // key range entirely above the probe side's, so ZoneRange proves the
  // semijoin empty and the whole probe pass is skipped (zone_map_skips =
  // probe rows, sign-pinned); Arg(1) = 0 overlaps the ranges and pays the
  // full hash build + probe over the same cardinalities — the gap between
  // the two halves is what the maps save. Arg(0) = threads, as everywhere.
  constexpr int64_t kProbeRows = 1 << 18;
  constexpr int64_t kBuildRows = 1 << 16;
  const bool disjoint = state.range(1) != 0;
  Rng rng(31);
  Relation r(AttrSet{0, 1});
  r.Reserve(kProbeRows);
  for (int64_t i = 0; i < kProbeRows; ++i) {
    r.AddRow({static_cast<Value>(rng.Below(kBuildRows)),
              static_cast<Value>(i)});
  }
  r.Canonicalize();
  const Value build_base = disjoint ? static_cast<Value>(kBuildRows) : 0;
  Relation s(AttrSet{0, 2});
  s.Reserve(kBuildRows);
  for (int64_t k = 0; k < kBuildRows; ++k) {
    s.AddRow({build_base + static_cast<Value>(k), static_cast<Value>(k)});
  }
  s.Canonicalize();
  Program p(2);
  p.AddSemijoin(0, 1);
  std::vector<Relation> states = {std::move(r), std::move(s)};
  const double peak_rss_mb = SampleRss(state, p, states);
  BenchPool bench(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec::Run(p, states, bench.ctx));
  }
  ReportStats(state, p, states, bench.ctx, peak_rss_mb);
}
BENCHMARK(BM_Exec_ZoneMap)->Args({4, 0})->Args({4, 1})->UseRealTime();

void BM_Exec_MultiClient(benchmark::State& state) {
  // Arg(0) client threads share one 4-thread pool that admits at most 2
  // queries at a time; each client runs 2 deterministic Yannakakis queries
  // per iteration under its own submitter id. Wall time therefore measures
  // admission + shared-pool throughput, not per-query latency. The result
  // cardinality is identical for every client and every concurrency level
  // (deterministic mode), which is what the CI bench-check pins.
  const int clients = static_cast<int>(state.range(0));
  constexpr int kQueriesPerClient = 2;
  DatabaseSchema d = PathSchema(17);
  AttrSet x{0, 16};
  Program p = *YannakakisProgram(d, x);
  std::vector<Relation> states = MakeUR(d, 8192, 17);

  exec::ExecutorPool::Options options;
  options.threads = 4;
  options.max_concurrent_queries = 2;
  exec::ExecutorPool pool(options);

  int64_t result_rows = 0;
  int64_t total_morsels = 0;
  for (auto _ : state) {
    std::vector<int64_t> client_rows(static_cast<size_t>(clients), 0);
    std::vector<int64_t> client_morsels(static_cast<size_t>(clients), 0);
    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      workers.emplace_back([&, c] {
        exec::ExecContext ctx;
        ctx.threads = pool.threads();
        ctx.pool = &pool;
        ctx.submitter = static_cast<uint64_t>(c);
        for (int q = 0; q < kQueriesPerClient; ++q) {
          exec::QueryStats query_stats;
          ctx.query_stats = &query_stats;
          Relation result = exec::Run(p, states, ctx);
          client_rows[static_cast<size_t>(c)] = result.NumRows();
          client_morsels[static_cast<size_t>(c)] += query_stats.morsels;
        }
      });
    }
    for (std::thread& w : workers) w.join();
    result_rows = client_rows[0];
    total_morsels = 0;
    for (int64_t m : client_morsels) total_morsels += m;
  }
  state.counters["result_rows"] = static_cast<double>(result_rows);
  state.counters["queries"] =
      static_cast<double>(clients * kQueriesPerClient);
  state.counters["morsels_per_iter"] = static_cast<double>(total_morsels);
}
BENCHMARK(BM_Exec_MultiClient)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

}  // namespace
}  // namespace gyo
