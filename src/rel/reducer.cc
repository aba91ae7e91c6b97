#include "rel/reducer.h"

#include <algorithm>
#include <utility>

#include "exec/physical_plan.h"
#include "rel/ops.h"
#include "rel/program.h"
#include "rel/solver.h"
#include "util/check.h"

namespace gyo {

bool IsGloballyConsistent(const DatabaseSchema& d,
                          const std::vector<Relation>& states) {
  GYO_CHECK(static_cast<int>(states.size()) == d.NumRelations());
  if (states.empty()) return true;
  Relation joined = JoinAll(states);
  for (int i = 0; i < d.NumRelations(); ++i) {
    Relation projected = Project(joined, d[i]);
    if (!projected.EqualsAsSet(states[static_cast<size_t>(i)])) return false;
  }
  return true;
}

std::optional<std::vector<Relation>> ApplyFullReducer(
    const DatabaseSchema& d, const std::vector<Relation>& states) {
  return ApplyFullReducer(d, states, exec::ExecContext());
}

std::optional<std::vector<Relation>> ApplyFullReducer(
    const DatabaseSchema& d, const std::vector<Relation>& states,
    const exec::ExecContext& ctx) {
  GYO_CHECK(static_cast<int>(states.size()) == d.NumRelations());
  // The two semijoin passes, compiled as a program (see FullReducerProgram
  // in rel/solver.h): per-node chains carry the data dependencies, so
  // semijoins on disjoint subtrees run concurrently on the exec DAG.
  std::optional<FullReducerPlan> plan = FullReducerProgram(d);
  if (!plan.has_value()) return std::nullopt;
  const int n = d.NumRelations();
  const std::vector<int>& ids = plan->final_ids;

  // State retirement: every base state and intermediate semijoin state is
  // consumed by a later chain statement, so with retire_consumed the exec
  // runtime frees each one as its final consumer task finishes — peak memory
  // stays near the serial reducer's n live states instead of holding all
  // 2(n−1) intermediates until the DAG drains. Each node's *final* state is
  // what we return, so the retain-set planner pass keeps the ones some
  // statement still reads (e.g. the root's upward-pass result, which every
  // downward semijoin consumes) — final states no statement touches are
  // sinks and need no exemption.
  const std::vector<int> retain =
      exec::RetainForSinks(plan->program, plan->final_ids);
  exec::ExecContext retire_ctx = ctx;
  retire_ctx.retire_consumed = true;
  retire_ctx.retain_states = &retain;
  std::vector<Relation> all = exec::Execute(plan->program, states, retire_ctx);
  std::vector<Relation> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    out.push_back(std::move(all[static_cast<size_t>(ids[static_cast<size_t>(i)])]));
  }
  return out;
}

std::vector<Relation> SemijoinFixpoint(const DatabaseSchema& d,
                                       const std::vector<Relation>& states,
                                       int* steps) {
  return SemijoinFixpoint(d, states, exec::ExecContext(), steps);
}

// The delta-round schedule: round one semijoins every relation against ALL
// its neighbors; every later round re-semijoins a relation only against the
// neighbors that shrank in the previous round. Skipped pairs are no-ops by
// the clean-pair invariant — Ri ⋉ Rj removes nothing until Rj shrinks again
// after the pair was last applied — so states and effective-step counts are
// bit-identical to the dense every-pair-every-round schedule.
//
// The caller's states are copied once; every round then moves them through
// the exec runtime's moving entry point instead of deep-copying the bases
// (QueryStats' rows_rescanned measures the scans that remain).
std::vector<Relation> SemijoinFixpoint(const DatabaseSchema& d,
                                       const std::vector<Relation>& states,
                                       const exec::ExecContext& ctx,
                                       int* steps) {
  GYO_CHECK(static_cast<int>(states.size()) == d.NumRelations());
  std::vector<Relation> out = states;
  const int n = d.NumRelations();
  std::vector<std::vector<int>> nbrs(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i != j && d[i].Intersects(d[j])) {
        nbrs[static_cast<size_t>(i)].push_back(j);
      }
    }
  }

  // Rounds always run without retirement, whatever the caller's context
  // says: the convergence check below reads consumed input slots (which
  // retirement would have emptied), and a caller's retain list means
  // nothing in the round program's numbering. Query stats are accumulated
  // across rounds instead of letting each Execute overwrite them.
  exec::ExecContext round_ctx = ctx;
  round_ctx.retire_consumed = false;
  round_ctx.retain_states = nullptr;
  // SIP off for the fixpoint: the delta-round schedule pins rows_rescanned
  // and effective-step counts, and cross-statement pre-pruning would shift
  // which chain statement eliminates a row (results are unchanged, but the
  // work accounting would no longer compare across rounds or to the paper's
  // step counts).
  round_ctx.enable_sip = false;
  exec::QueryStats round_stats;
  exec::QueryStats total_stats;
  round_ctx.query_stats = ctx.query_stats != nullptr ? &round_stats : nullptr;

  int effective = 0;
  int64_t rounds = 0;
  int64_t rescanned = 0;
  // Round one treats every relation as freshly shrunk, so each chain runs
  // over all of its neighbors.
  std::vector<char> shrank(static_cast<size_t>(n), 1);
  std::vector<int64_t> pre_rows(static_cast<size_t>(n), 0);
  std::vector<int> result_id(static_cast<size_t>(n), 0);
  while (true) {
    // Compile this round's dirty pairs: each relation's chain over the
    // neighbors that shrank last round (a Jacobi round — every rhs is a
    // base id, so chains stay mutually independent and the whole round is
    // one task wave).
    Program program(n);
    for (int i = 0; i < n; ++i) {
      int acc = i;
      for (int j : nbrs[static_cast<size_t>(i)]) {
        if (shrank[static_cast<size_t>(j)] != 0) {
          acc = program.AddSemijoin(acc, j);
        }
      }
      result_id[static_cast<size_t>(i)] = acc;
    }
    if (program.NumStatements() == 0) break;
    ++rounds;
    for (int i = 0; i < n; ++i) {
      pre_rows[static_cast<size_t>(i)] = out[static_cast<size_t>(i)].NumRows();
    }

    std::vector<Relation> all =
        exec::Execute(program, std::move(out), round_ctx);
    if (ctx.query_stats != nullptr) {
      total_stats.queue_wait_seconds += round_stats.queue_wait_seconds;
      total_stats.run_time_seconds += round_stats.run_time_seconds;
      total_stats.tasks += round_stats.tasks;
      total_stats.morsels += round_stats.morsels;
      total_stats.peak_state_bytes = std::max(total_stats.peak_state_bytes,
                                              round_stats.peak_state_bytes);
      total_stats.bloom_partition_skips += round_stats.bloom_partition_skips;
      total_stats.probe_rows_pruned += round_stats.probe_rows_pruned;
      total_stats.sip_rows_pruned += round_stats.sip_rows_pruned;
      total_stats.zone_map_skips += round_stats.zone_map_skips;
      // queue_depth_at_admit is not summed: keep the worst (deepest) round.
      total_stats.queue_depth_at_admit = std::max(
          total_stats.queue_depth_at_admit, round_stats.queue_depth_at_admit);
    }
    for (int k = 0; k < program.NumStatements(); ++k) {
      const Program::Statement& s =
          program.Statements()[static_cast<size_t>(k)];
      rescanned += all[static_cast<size_t>(s.lhs)].NumRows() +
                   all[static_cast<size_t>(s.rhs)].NumRows();
      if (all[static_cast<size_t>(n + k)].NumRows() !=
          all[static_cast<size_t>(s.lhs)].NumRows()) {
        ++effective;
      }
    }
    bool changed = false;
    for (int i = 0; i < n; ++i) {
      const size_t si = static_cast<size_t>(i);
      shrank[si] = all[static_cast<size_t>(result_id[si])].NumRows() <
                           pre_rows[si]
                       ? 1
                       : 0;
      if (shrank[si]) changed = true;
    }
    out.clear();
    out.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      out.push_back(
          std::move(all[static_cast<size_t>(result_id[static_cast<size_t>(i)])]));
    }
    if (!changed) break;
  }
  if (ctx.query_stats != nullptr) {
    total_stats.delta_rounds = rounds;
    total_stats.rows_rescanned = rescanned;
    *ctx.query_stats = total_stats;
  }
  if (steps != nullptr) *steps = effective;
  return out;
}

}  // namespace gyo
