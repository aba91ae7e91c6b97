#ifndef GYO_EXAMPLES_EXEC_FLAGS_H_
#define GYO_EXAMPLES_EXEC_FLAGS_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "exec/exec_context.h"
#include "exec/executor_pool.h"

/// \file
/// The execution flags shared by the demo CLIs (gyo_cli, query_planner):
/// --threads N and --max-concurrent-queries M, plus the GYO_EXEC_THREADS
/// fallback and the ConfigureGlobal call that sizes the process-wide
/// ExecutorPool. One implementation so the two binaries cannot drift.

namespace gyo_examples {

enum class FlagParse { kNotAFlag, kParsed, kError };

/// Tries to consume an execution flag at argv[*i], advancing *i past its
/// value. Returns kNotAFlag for positional arguments, kParsed on success,
/// and kError (after printing to stderr) for a bad value.
inline FlagParse ParseExecFlag(int argc, char** argv, int* i,
                               gyo::exec::ExecContext* ctx,
                               gyo::exec::ExecutorPool::Options* pool_options) {
  if (std::strcmp(argv[*i], "--threads") == 0) {
    ctx->threads = *i + 1 < argc ? std::atoi(argv[++*i]) : 0;
    if (ctx->threads < 1) {
      std::fprintf(stderr, "error: --threads wants a positive integer\n");
      return FlagParse::kError;
    }
    pool_options->threads = ctx->threads;
    return FlagParse::kParsed;
  }
  if (std::strcmp(argv[*i], "--max-concurrent-queries") == 0) {
    pool_options->max_concurrent_queries =
        *i + 1 < argc ? std::atoi(argv[++*i]) : 0;
    if (pool_options->max_concurrent_queries < 1) {
      std::fprintf(
          stderr,
          "error: --max-concurrent-queries wants a positive integer\n");
      return FlagParse::kError;
    }
    return FlagParse::kParsed;
  }
  return FlagParse::kNotAFlag;
}

/// Applies the GYO_EXEC_THREADS fallback — without --threads, the
/// environment variable alone enables parallelism (width resolved via
/// ResolveThreads) — and sizes the process-wide pool from the flags before
/// any query touches it (parallel execution admits queries into
/// ExecutorPool::Global()).
inline void ConfigureExecFromFlags(
    gyo::exec::ExecContext* ctx,
    const gyo::exec::ExecutorPool::Options& pool_options) {
  if (pool_options.threads == 0 &&
      std::getenv("GYO_EXEC_THREADS") != nullptr) {
    ctx->threads = gyo::exec::ExecutorPool::ResolveThreads(0);
  }
  gyo::exec::ExecutorPool::ConfigureGlobal(pool_options);
}

/// Prints the process-wide pool's shape and admission queue state from the
/// same atomic snapshot the gyo_serve STATUS frame carries
/// (ExecutorPool::PoolStatus) — every status surface reads one struct, so
/// the CLI line and the wire protocol cannot disagree about what the pool
/// looks like. Per-submitter running/queued tallies follow on their own
/// lines (the queue-depth observable behind backpressure). When the context
/// carries QueryStats from a completed query, also prints the admission
/// queue depth that query saw on arrival and its pruning counters. Only
/// meaningful on the parallel path — callers skip it when ctx.threads == 1
/// (serial execution never touches the pool).
inline void PrintPoolStatus(const gyo::exec::ExecContext& ctx) {
  gyo::exec::ExecutorPool& pool =
      ctx.pool != nullptr ? *ctx.pool : gyo::exec::ExecutorPool::Global();
  const gyo::exec::ExecutorPool::PoolStatus status = pool.Status();
  std::printf(
      "pool status: %d threads, %d max concurrent queries, %d running, "
      "%d waiting\n",
      status.threads, status.max_concurrent_queries, status.running,
      status.waiting);
  for (const auto& s : status.submitters) {
    std::printf("  submitter %llu: %d running, %d queued\n",
                static_cast<unsigned long long>(s.id), s.running, s.waiting);
  }
  if (ctx.query_stats != nullptr) {
    const gyo::exec::QueryStats& qs = *ctx.query_stats;
    std::printf("  scheduling: queue depth at admit %lld\n",
                static_cast<long long>(qs.queue_depth_at_admit));
    std::printf(
        "  pruning: %lld rows SIP-pruned, %lld zone-map skips, %lld Bloom "
        "pruned\n",
        static_cast<long long>(qs.sip_rows_pruned),
        static_cast<long long>(qs.zone_map_skips),
        static_cast<long long>(qs.probe_rows_pruned));
  }
}

}  // namespace gyo_examples

#endif  // GYO_EXAMPLES_EXEC_FLAGS_H_
