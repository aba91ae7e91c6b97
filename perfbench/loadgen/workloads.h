// The benchmark's workloads: seeded inputs, the request sequence, and the
// serial reference answer every reply is checked against.

#ifndef PERFBENCH_LOADGEN_WORKLOADS_H_
#define PERFBENCH_LOADGEN_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "rel/program.h"
#include "rel/relation.h"
#include "schema/schema.h"
#include "serve/frame.h"
#include "util/attr_set.h"

namespace perfbench {

/// One query with its inputs and its serial reference answer. Base values
/// stay below kValueSpan, so a shifted copy (see Item) never collides with
/// another shift of the same base.
struct BaseQuery {
  std::string schema_spec;
  std::string target_spec;
  gyo::DatabaseSchema schema;
  gyo::AttrSet target;
  std::vector<gyo::Relation> states;
  /// The program the serve front end resolves for Strategy::kAuto:
  /// Yannakakis on tree schemas, CC-pruned join otherwise.
  gyo::Program program{0};
  bool tree_schema = false;
  /// Serial engine output (Program::ExecuteWithStats) on `states`.
  gyo::Relation answer{gyo::AttrSet()};
  gyo::Program::Stats stats;
};

constexpr int64_t kValueSpan = int64_t{1} << 20;

/// A request of the sequence: base query `base` with every value of every
/// state shifted by Shift(k). Adding one constant to all values preserves
/// equality between values and their order, so the shifted query's answer
/// is the base answer shifted the same way, with the same row order (its
/// statistics can differ; see MatchesReference). Distinct k give distinct
/// data, so the result cache sees a fresh query; k = 0 means unshifted.
struct Item {
  int base = 0;
  int64_t k = 0;
};

/// For 0 < k < 2^20 every shifted value lies in [2^34, 2^41), so each
/// encodes to a 6-byte zigzag varint whatever k is: request sizes stay
/// stationary over a run.
inline int64_t Shift(int64_t k) {
  return k == 0 ? 0 : (int64_t{1} << 34) + k * kValueSpan;
}

struct Workload {
  std::string name;
  /// True when requests go through gyo_serve; false for in-process
  /// exec::Run.
  bool serve = true;
  std::vector<BaseQuery> bases;
  /// items[0, warm) are the warm pass; items[warm, items.size()) are timed.
  std::vector<Item> items;
  int64_t warm = 0;
};

/// Builds `name`'s inputs from `seed`: same seed, same inputs. `timed` is
/// the number of timed requests. Reference answers are computed here on
/// `threads` threads. False for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, int64_t timed,
                  int threads, Workload* out);

/// Requests each workload is sized to complete per second on the reference
/// host (4 vCPUs); a run of S seconds times S * NominalQps(name) requests.
double NominalQps(const std::string& name);

/// The wire request for `item`: the base query's specs with shifted states.
gyo::serve::QueryRequest MakeRequest(const Workload& w, const Item& item);

/// True when `result`/`stats` are bit-identical (Relation::IdenticalTo:
/// values, row order, canonical flag) to the serial engine's answer for
/// `item` — the deterministic-mode contract of the serve and exec paths.
/// The base answer shifted by the item's offset is tried first; when it
/// differs, the serial engine re-answers the item's own data.
bool MatchesReference(const Workload& w, const Item& item,
                      const gyo::Relation& result,
                      const gyo::Program::Stats& stats);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_WORKLOADS_H_
