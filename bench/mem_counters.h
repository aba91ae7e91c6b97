#ifndef GYO_BENCH_MEM_COUNTERS_H_
#define GYO_BENCH_MEM_COUNTERS_H_

#include <benchmark/benchmark.h>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "exec/exec_context.h"

namespace gyo_bench {

/// Process peak RSS in MiB (0 where getrusage is unavailable). Monotone
/// over the process lifetime — it upper-bounds, not isolates, one
/// benchmark's footprint. Kept as the fallback for platforms (or fork
/// failures) where ForkIsolatedPeakRssMb below cannot sample.
inline double PeakRssMb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
#if defined(__APPLE__)
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
#else
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
#endif
#else
  return 0.0;
#endif
}

/// Runs `workload` once in a forked child and returns the CHILD's peak RSS
/// in MiB — a per-bench-family sample, isolated from every other benchmark
/// in the binary (RUSAGE_SELF is monotone over the whole process, so in a
/// multi-bench binary it only ever reports the largest family seen so far).
///
/// Call it BEFORE constructing any thread pool in the bench function, and
/// let the workload construct its own pool/data inside the child: forking a
/// single-threaded parent sidesteps multithreaded-fork hazards, and pages
/// the child allocates itself are charged to it exactly once. Pages
/// inherited copy-on-write from the parent (the input states, the binary)
/// still count toward the child once touched — the sample isolates
/// *between* families, not from the shared inputs. Falls back to the
/// monotone PeakRssMb() where fork is unavailable or fails.
template <typename Workload>
inline double ForkIsolatedPeakRssMb(Workload&& workload) {
#if defined(__unix__) || defined(__APPLE__)
  pid_t pid = fork();
  if (pid < 0) return PeakRssMb();
  if (pid == 0) {
    workload();
    _exit(0);
  }
  int status = 0;
  struct rusage usage;
  if (wait4(pid, &status, 0, &usage) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return PeakRssMb();
  }
#if defined(__APPLE__)
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
#else
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
#endif
#else
  (void)workload;
  return PeakRssMb();
#endif
}

/// Attaches the memory and pruning counters to `state`: the query's exact
/// peak of live relation-state bytes, the retired-state count, the Bloom
/// prune tallies (all from QueryStats), plus the caller's fork-isolated
/// peak RSS sample. peak_state_bytes and peak_rss_mb are machine/
/// schedule-dependent and deliberately NOT pinned by
/// scripts/check_bench_counters.py — they are for reading trends.
/// retired_states, bloom_partition_skips and probe_rows_pruned are pure
/// dataflow/data functions at a fixed thread count, so the bench-check pins
/// them.
inline void ReportMemCounters(benchmark::State& state,
                              const gyo::exec::QueryStats& query_stats,
                              double peak_rss_mb) {
  state.counters["peak_state_bytes"] =
      static_cast<double>(query_stats.peak_state_bytes);
  state.counters["retired_states"] =
      static_cast<double>(query_stats.retired_states);
  state.counters["bloom_partition_skips"] =
      static_cast<double>(query_stats.bloom_partition_skips);
  state.counters["probe_rows_pruned"] =
      static_cast<double>(query_stats.probe_rows_pruned);
  // Cross-statement pruning: probe rows rejected by sideways-information-
  // passing filters and probe rows skipped by zone-map disjointness proofs.
  // Both are pure functions of the seeded data and the plan, but the
  // bench-check sign-pins rather than value-pins them (on the SipStar and
  // ZoneMap families respectively) so the benches stay free to re-balance
  // their fixtures without a baseline churn on every unrelated family.
  state.counters["sip_rows_pruned"] =
      static_cast<double>(query_stats.sip_rows_pruned);
  state.counters["zone_map_skips"] =
      static_cast<double>(query_stats.zone_map_skips);
  state.counters["peak_rss_mb"] = peak_rss_mb;
}

}  // namespace gyo_bench

#endif  // GYO_BENCH_MEM_COUNTERS_H_
