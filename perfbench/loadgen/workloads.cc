#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <thread>

#include "rel/solver.h"
#include "rel/universal.h"
#include "schema/catalog.h"
#include "schema/parse.h"
#include "util/rng.h"

namespace perfbench {

using gyo::AttrId;
using gyo::AttrSet;
using gyo::DatabaseSchema;
using gyo::Program;
using gyo::Relation;
using gyo::Rng;

namespace {

// Why each workload exists is recorded in perfbench/NOTES.md.

// serve_execute: fresh key-like data over paths and stars of 4-6
// relations, so every request misses the result cache and hits the plan
// cache.
constexpr const char* kExecuteShapes[][2] = {
    {"ab,bc,cd,de", "ae"},
    {"ab,bc,cd,de,ef,fg", "ag"},
    {"ab,ac,ad,ae", "be"},
    {"ab,ac,ad,ae,af", "bf"},
};
constexpr int kExecuteDbsPerShape = 4;
constexpr int kExecuteRows = 3000;
constexpr int kExecuteWarm = 64;

// serve_replay: a working set that fits in the 32 MiB result cache, hit
// with a skewed draw, plus a fixed share of never-seen requests.
constexpr const char* kReplayShapes[][2] = {
    {"ab,bc,cd,de", "ae"},
    {"ab,ac,ad", "bcd"},
};
constexpr int kReplayDbsPerShape = 4;
constexpr int kReplayRows = 12000;
constexpr int kReplayWorkingSet = 32;
// Each round of the timed sequence touches every working-set entry once,
// adds kReplaySkewed Zipf draws over the working set and kReplayFresh new
// requests, shuffled. Between two touches of an entry at most two rounds
// pass, so at most kReplayWorkingSet + 2 * kReplayFresh results are live —
// well under the cache bound — and the working set is never evicted: the
// hit/miss split is exact whatever the client interleaving.
constexpr int kReplaySkewed = 24;
constexpr int kReplayFresh = 8;

// serve_plan_churn: a fixed cycle of distinct random schemas, many more
// than the plan cache's 128 entries, each visited once per cycle with new
// data. A few schemas cost several times the median to plan, and how many
// a seed draws moved p95_ms between seeds by 20% with 512 schemas.
constexpr int kChurnSchemas = 2048;
constexpr int kChurnRows = 400;
constexpr int kChurnWarm = 64;

// inproc_parallel: one large path query through exec::Run.
constexpr const char* kInprocShapes[][2] = {{"ab,bc,cd,de,ef,fg", "ag"}};
constexpr int kInprocDbs = 2;
constexpr int kInprocRows = 15000;
constexpr int kInprocWarm = 6;

// A fifth of each state's rows join nothing (dangling), so the full
// reducer's semijoins remove rows.
constexpr int kDanglingPercent = 20;

constexpr char kAttrNames[] =
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";

// Key-like data: a universal relation with a domain far larger than its
// row count, projected onto every relation (a UR database), plus dangling
// rows. Canonical states.
std::vector<Relation> MakeStates(const DatabaseSchema& d, int rows, Rng& rng) {
  const int domain =
      static_cast<int>(std::min<int64_t>(int64_t{16} * rows, kValueSpan));
  std::vector<Relation> states = gyo::ProjectDatabase(
      gyo::RandomUniversal(d.Universe(), rows, domain, rng), d);
  for (Relation& r : states) {
    const int dangling = rows * kDanglingPercent / 100;
    std::vector<gyo::Value> row(static_cast<size_t>(r.Arity()));
    for (int i = 0; i < dangling; ++i) {
      for (gyo::Value& v : row) {
        v = static_cast<gyo::Value>(rng.Below(static_cast<uint64_t>(domain)));
      }
      r.AddRow(row);
    }
    r.Canonicalize();
  }
  return states;
}

BaseQuery ParseBase(const std::string& schema_spec,
                    const std::string& target_spec) {
  BaseQuery q;
  q.schema_spec = schema_spec;
  q.target_spec = target_spec;
  gyo::Catalog catalog;
  q.schema = gyo::ParseSchema(catalog, schema_spec);
  q.target = gyo::ParseAttrSet(catalog, target_spec);
  std::optional<Program> yannakakis =
      gyo::YannakakisProgram(q.schema, q.target);
  q.tree_schema = yannakakis.has_value();
  q.program = yannakakis.has_value() ? *std::move(yannakakis)
                                     : gyo::CCPrunedProgram(q.schema, q.target);
  return q;
}

std::string Spec(const AttrSet& attrs) {
  std::string out;
  for (AttrId a : attrs.ToVector()) out.push_back(kAttrNames[a]);
  return out;
}

// A random connected schema of 10-13 relations: even-numbered ones are join
// trees grown by attaching each relation to an earlier one through one
// shared attribute plus 1-2 fresh ones; odd-numbered ones grow the same way
// from a ring of 3-5 binary relations (an Aring, the paper's minimal cyclic
// schema), so they are cyclic with exactly one cycle. Relation count and
// ring length cycle through their ranges with `index`, so every seed draws
// the same mix of sizes. Each attribute is shared by at most two relations
// (three on the ring): attributes shared by many relations make
// canonical-connection planning (tableau minimization) exponential, and one
// such schema in a seed's cycle would decide the whole run.
BaseQuery ChurnBase(int index, Rng& rng) {
  const int n = 10 + index / 2 % 4;
  std::vector<AttrSet> rels;
  std::vector<int> room;  // further relations each attribute may join
  if (index % 2 == 1) {
    const int ring = 3 + index / 8 % 3;
    for (int i = 0; i < ring; ++i) rels.push_back(AttrSet{i, (i + 1) % ring});
    room.assign(static_cast<size_t>(ring), 1);
  } else {
    rels.push_back(AttrSet{0, 1});
    room.assign(2, 1);
  }
  while (static_cast<int>(rels.size()) < n) {
    std::vector<AttrId> open;
    for (size_t a = 0; a < room.size(); ++a) {
      if (room[a] > 0) open.push_back(static_cast<AttrId>(a));
    }
    const AttrId shared = open[rng.Below(open.size())];
    --room[static_cast<size_t>(shared)];
    AttrSet r{shared};
    const int fresh = rng.Chance(0.3) ? 2 : 1;
    for (int f = 0; f < fresh; ++f) {
      r.Insert(static_cast<AttrId>(room.size()));
      room.push_back(1);
    }
    rels.push_back(r);
  }
  const AttrId next = static_cast<AttrId>(room.size());
  std::string schema_spec;
  for (const AttrSet& r : rels) {
    if (!schema_spec.empty()) schema_spec.push_back(',');
    schema_spec += Spec(r);
  }
  AttrSet target;
  while (target.Size() < 2) {
    target.Insert(static_cast<AttrId>(rng.Below(static_cast<uint64_t>(next))));
  }
  return ParseBase(schema_spec, Spec(target));
}

// Fills every base's reference answer, on `threads` threads.
void ComputeReferences(std::vector<BaseQuery>& bases, int threads) {
  std::atomic<size_t> next{0};
  auto work = [&] {
    for (size_t i; (i = next.fetch_add(1)) < bases.size();) {
      BaseQuery& q = bases[i];
      q.answer = q.program.ExecuteWithStats(q.states, &q.stats).back();
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(work);
  work();
  for (std::thread& t : pool) t.join();
}

template <size_t N>
void AddShapes(const char* const (&shapes)[N][2], int dbs_per_shape, int rows,
               Rng& rng, std::vector<BaseQuery>* bases) {
  for (const auto& shape : shapes) {
    for (int db = 0; db < dbs_per_shape; ++db) {
      BaseQuery q = ParseBase(shape[0], shape[1]);
      q.states = MakeStates(q.schema, rows, rng);
      bases->push_back(std::move(q));
    }
  }
}

void ReplayItems(int64_t timed, Rng& rng, Workload* w) {
  const int bases = static_cast<int>(w->bases.size());
  for (int e = 0; e < kReplayWorkingSet; ++e) {
    w->items.push_back(Item{e % bases, e + 1});
  }
  std::vector<double> cumulative;
  double total = 0;
  for (int r = 0; r < kReplayWorkingSet; ++r) {
    total += 1.0 / (r + 1);
    cumulative.push_back(total);
  }
  int64_t fresh_k = kReplayWorkingSet;
  std::vector<Item> round;
  while (static_cast<int64_t>(w->items.size()) < w->warm + timed) {
    round.clear();
    for (int e = 0; e < kReplayWorkingSet; ++e) {
      round.push_back(w->items[static_cast<size_t>(e)]);
    }
    for (int s = 0; s < kReplaySkewed; ++s) {
      const double u =
          static_cast<double>(rng.Next() >> 11) / 9007199254740992.0 * total;
      const size_t e = static_cast<size_t>(
          std::upper_bound(cumulative.begin(), cumulative.end() - 1, u) -
          cumulative.begin());
      round.push_back(w->items[e]);
    }
    for (int f = 0; f < kReplayFresh; ++f) {
      round.push_back(Item{static_cast<int>(rng.Below(bases)), ++fresh_k});
    }
    for (size_t i = round.size() - 1; i > 0; --i) {
      std::swap(round[i], round[rng.Below(i + 1)]);
    }
    for (const Item& item : round) {
      if (static_cast<int64_t>(w->items.size()) == w->warm + timed) break;
      w->items.push_back(item);
    }
  }
}

}  // namespace

double NominalQps(const std::string& name) {
  if (name == "serve_execute") return 550;
  if (name == "serve_replay") return 330;
  if (name == "serve_plan_churn") return 900;
  return 60;
}

bool MakeWorkload(const std::string& name, uint64_t seed, int64_t timed,
                  int threads, Workload* out) {
  Workload w;
  w.name = name;
  // Splitmix64 streams of nearby states overlap (each step adds a fixed
  // increment), so the state is seeded through one mixing step.
  Rng rng(Rng(seed).Next());
  if (name == "serve_execute") {
    AddShapes(kExecuteShapes, kExecuteDbsPerShape, kExecuteRows, rng,
              &w.bases);
    w.warm = kExecuteWarm;
    for (int64_t i = 0; i < w.warm + timed; ++i) {
      const int base = i < w.warm ? static_cast<int>(i % w.bases.size())
                                  : static_cast<int>(rng.Below(w.bases.size()));
      w.items.push_back(Item{base, i + 1});
    }
  } else if (name == "serve_replay") {
    AddShapes(kReplayShapes, kReplayDbsPerShape, kReplayRows, rng, &w.bases);
    w.warm = kReplayWorkingSet;
    ReplayItems(timed, rng, &w);
  } else if (name == "serve_plan_churn") {
    for (int s = 0; s < kChurnSchemas; ++s) {
      BaseQuery q = ChurnBase(s, rng);
      q.states = MakeStates(q.schema, kChurnRows, rng);
      w.bases.push_back(std::move(q));
    }
    w.warm = kChurnWarm;
    for (int64_t i = 0; i < w.warm + timed; ++i) {
      w.items.push_back(Item{static_cast<int>(i % kChurnSchemas), i + 1});
    }
  } else if (name == "inproc_parallel") {
    w.serve = false;
    AddShapes(kInprocShapes, kInprocDbs, kInprocRows, rng, &w.bases);
    w.warm = kInprocWarm;
    for (int64_t i = 0; i < w.warm + timed; ++i) {
      w.items.push_back(Item{static_cast<int>(i % kInprocDbs), 0});
    }
  } else {
    return false;
  }
  ComputeReferences(w.bases, threads);
  *out = std::move(w);
  return true;
}

namespace {

// A copy with `shift` added to every value, written through the column
// arenas: the canonical flag carries over (a shift preserves order), the
// zone maps do not, so the copy is fit for the wire and for IdenticalTo but
// not for in-process execution.
Relation Shifted(const Relation& r, int64_t shift) {
  Relation out = r;
  for (int c = 0; c < out.Arity(); ++c) {
    gyo::Value* col = out.ColData(c);
    for (int64_t i = 0; i < out.NumRows(); ++i) col[i] += shift;
  }
  return out;
}

}  // namespace

gyo::serve::QueryRequest MakeRequest(const Workload& w, const Item& item) {
  const BaseQuery& q = w.bases[static_cast<size_t>(item.base)];
  gyo::serve::QueryRequest request;
  request.schema_spec = q.schema_spec;
  request.target_spec = q.target_spec;
  request.strategy = gyo::serve::Strategy::kAuto;
  request.states.reserve(q.states.size());
  for (const Relation& r : q.states) {
    request.states.push_back(Shifted(r, Shift(item.k)));
  }
  return request;
}

bool MatchesReference(const Workload& w, const Item& item,
                      const Relation& result, const Program::Stats& stats) {
  const BaseQuery& q = w.bases[static_cast<size_t>(item.base)];
  const int64_t shift = Shift(item.k);
  if (stats.max_intermediate_rows == q.stats.max_intermediate_rows &&
      stats.total_rows_produced == q.stats.total_rows_produced &&
      stats.result_rows == q.stats.result_rows &&
      result.IdenticalTo(Shifted(q.answer, shift))) {
    return true;
  }
  // Sideways-information-passing filters prune by hash, so intermediate
  // sizes (and the statistics) can differ from the base's on shifted data.
  // Re-answer this request's own data with the serial engine.
  std::vector<Relation> states;
  for (const Relation& r : q.states) {
    // Rebuilt rather than shifted in place, so the zone maps are current.
    Relation copy(r.Schema());
    copy.AppendRows(r.NumRows());
    for (int c = 0; c < r.Arity(); ++c) {
      const gyo::Value* from = r.ColData(c);
      gyo::Value* to = copy.ColData(c);
      for (int64_t i = 0; i < r.NumRows(); ++i) to[i] = from[i] + shift;
    }
    copy.Canonicalize();
    states.push_back(std::move(copy));
  }
  Program::Stats ref_stats;
  const Relation answer = q.program.ExecuteWithStats(states, &ref_stats).back();
  return stats.max_intermediate_rows == ref_stats.max_intermediate_rows &&
         stats.total_rows_produced == ref_stats.total_rows_produced &&
         stats.result_rows == ref_stats.result_rows &&
         result.IdenticalTo(answer);
}

}  // namespace perfbench
