#ifndef GYO_SERVE_FRAME_H_
#define GYO_SERVE_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "exec/exec_context.h"
#include "exec/executor_pool.h"
#include "rel/program.h"
#include "rel/relation.h"
#include "schema/catalog.h"
#include "schema/parse.h"
#include "schema/schema.h"

namespace gyo {
namespace serve {

/// \file
/// The gyo_serve wire layer: length-prefixed framing plus the
/// request/response codec shared by the server (serve/server.h), the client
/// library (serve/client.h), the load driver, and the tests — one
/// implementation, so the two ends of the protocol cannot drift.
///
/// A frame is a 4-byte little-endian payload length followed by the payload;
/// payload byte 0 is the FrameType, the rest is the message body. Integers
/// inside bodies are LEB128 varints (zigzag for signed values), strings are
/// varint-length-prefixed bytes, and relation data travels column-major —
/// the same layout the columnar storage holds, so encode/decode are
/// straight sweeps over the arenas. The full wire reference lives in
/// docs/protocol.md.
///
/// Every decoder is bounds-checked and total: malformed, truncated, or
/// hostile input yields `false` plus an error string, never an abort — the
/// daemon answers with a typed kError frame and survives.

/// Payload bytes per frame, excluding the 4-byte header. Servers and clients
/// may lower this; a peer announcing a larger frame is rejected with
/// kFrameTooLarge before any allocation.
constexpr size_t kDefaultMaxFrameBytes = 64u << 20;

/// Bytes of the frame header (little-endian u32 payload length).
constexpr size_t kFrameHeaderBytes = 4;

/// Hard bound of the wire format itself: the header's length field is a
/// u32, so no frame payload can be larger than this. Writers refuse to emit
/// a frame beyond it rather than truncate the length prefix.
constexpr size_t kMaxWirePayloadBytes = 0xffffffffu;

enum class FrameType : uint8_t {
  kQueryRequest = 1,
  kStatusRequest = 2,
  kQueryResponse = 3,
  kStatusResponse = 4,
  kError = 5,
};

/// Typed failure surface of the protocol. kDeadlineExceeded and
/// kBacklogFull are the admission-control sheds — the overload answers a
/// client is expected to handle by backing off.
enum class ErrorCode : uint8_t {
  kNone = 0,
  /// Request frame did not decode (bad varint, trailing bytes, arity
  /// mismatch, unparseable schema, ...). The frame boundary is intact, so
  /// the connection survives.
  kMalformed = 1,
  /// Announced payload length exceeded the server's frame bound. The stream
  /// cannot be resynchronized, so the server closes after replying.
  kFrameTooLarge = 2,
  /// Shed by admission control: queue wait exceeded the query's deadline.
  kDeadlineExceeded = 3,
  /// Shed by admission control: the submitter's waiting backlog is at its
  /// bound.
  kBacklogFull = 4,
  /// The server is draining (SIGTERM) and accepts no new queries.
  kShuttingDown = 5,
  /// The requested strategy cannot solve this query (e.g. Yannakakis on a
  /// cyclic schema).
  kUnsupported = 6,
  /// Server-side failure that is not the client's fault.
  kInternal = 7,
};

/// Stable lowercase name for an ErrorCode (e.g. "deadline_exceeded").
const char* ErrorCodeName(ErrorCode code);

/// Solver strategy requested for a query. kAuto picks Yannakakis for tree
/// schemas and CC-pruned join for cyclic ones.
enum class Strategy : uint8_t {
  kAuto = 0,
  kFullJoin = 1,
  kCcPruned = 2,
  kYannakakis = 3,
};

const char* StrategyName(Strategy strategy);

/// One query submission: schema + base relation states + target + options.
/// The schema and target travel as the paper's compact text notation
/// ("ab,bc,cd" / "ad"); both ends parse them with their own Catalog, which
/// interns attributes in first-appearance order, so column positions agree
/// without shipping a catalog.
struct QueryRequest {
  std::string schema_spec;
  std::string target_spec;
  Strategy strategy = Strategy::kAuto;
  /// Admission deadline in milliseconds; 0 = use the server's default (the
  /// pool's Options::max_queue_wait_seconds).
  uint64_t deadline_ms = 0;
  /// Fairness class for admission round-robin and backlog bounds; 0 = the
  /// server assigns the connection's own id (per-connection fairness).
  uint64_t submitter = 0;
  /// Deterministic execution (bit-identical to a serial run); on by default.
  bool deterministic = true;
  /// Attach plan diagnostics (statement count, critical path, ...) to the
  /// response.
  bool want_plan = false;
  /// Base relation states, parallel to the parsed schema_spec.
  std::vector<Relation> states;
};

/// Plan diagnostics, attached when QueryRequest::want_plan.
struct PlanInfo {
  int num_statements = 0;
  int critical_path = 0;
  int num_source_statements = 0;
  /// The strategy actually executed (kAuto resolved).
  Strategy strategy = Strategy::kAuto;
};

struct QueryResponse {
  Relation result{AttrSet()};
  Program::Stats stats;
  exec::QueryStats query_stats;
  bool has_plan = false;
  PlanInfo plan;
};

/// The STATUS reply: the pool snapshot every status surface shares
/// (ExecutorPool::PoolStatus — also behind the CLIs' pool-status lines)
/// plus the daemon's own served/shed/connection counters.
struct StatusResponse {
  exec::ExecutorPool::PoolStatus pool;
  uint64_t connections_accepted = 0;
  uint64_t connections_active = 0;
  uint64_t queries_served = 0;
  uint64_t queries_shed_deadline = 0;
  uint64_t queries_shed_backlog = 0;
  uint64_t protocol_errors = 0;
  bool draining = false;
  /// Pruning totals accumulated over served queries: probe rows rejected by
  /// sideways-information-passing filters and probe rows skipped by
  /// zone-map disjointness proofs (see exec::QueryStats).
  uint64_t sip_rows_pruned = 0;
  uint64_t zone_map_skips = 0;
  /// Cache counters — all zero while the corresponding cache is disabled.
  /// Plan hits/misses count plan-cache lookups (one per decoded query);
  /// result hits/misses count full-answer lookups (deterministic queries
  /// only — a result hit is served without admission or execution).
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;
  uint64_t result_cache_hits = 0;
  uint64_t result_cache_misses = 0;
};

struct ErrorReply {
  ErrorCode code = ErrorCode::kNone;
  std::string message;
};

// ---------------------------------------------------------------------------
// Byte-level codec

/// Append-only buffer with the protocol's primitive encoders. Begin() stamps
/// the frame header placeholder + type byte; Finish() patches the real
/// payload length and yields the complete frame.
class Writer {
 public:
  void U8(uint8_t v) {
    if (Fits(1)) buf_.push_back(v);
  }
  void U32Fixed(uint32_t v);
  /// IEEE-754 bits as fixed 8 bytes little-endian.
  void F64(double v);
  /// Unsigned LEB128, at most 10 bytes.
  void Varint(uint64_t v);
  /// Zigzag-mapped signed varint.
  void Zigzag(int64_t v);
  void Str(std::string_view s);
  /// Relation data: varint arity, u8 canonical flag, varint row count, then
  /// the columns in schema order, each a run of zigzag values (column-major
  /// — a direct sweep over the arenas).
  void RelationData(const Relation& r);

  /// Caps the payload this writer may grow to (default: the wire format's
  /// u32 hard bound). Appends past the cap are dropped, the writer is
  /// marked overflowed, and Finish() returns an empty vector instead of a
  /// frame whose length prefix would lie. The cap survives Begin().
  void LimitPayload(size_t max_payload_bytes) { limit_ = max_payload_bytes; }
  bool Overflowed() const { return overflowed_; }

  void Begin(FrameType type);
  /// Patches the header; the buffer then holds one complete frame — or is
  /// empty if the payload overflowed the cap.
  std::vector<uint8_t> Finish();

 private:
  /// True if `n` more payload bytes stay within the cap; otherwise marks
  /// the writer overflowed (the append is dropped and growth stops, so an
  /// oversized message costs at most the cap in memory, not its full size).
  bool Fits(size_t n) {
    if (!overflowed_ && buf_.size() + n <= limit_ + kFrameHeaderBytes) {
      return true;
    }
    overflowed_ = true;
    return false;
  }

  std::vector<uint8_t> buf_;
  size_t limit_ = kMaxWirePayloadBytes;
  bool overflowed_ = false;
};

/// Bounds-checked reader over one frame payload. Every primitive returns
/// false on overrun or malformed input and poisons the reader, so decoders
/// can chain reads and check once.
class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : p_(data), end_(data + size) {}
  explicit Reader(const std::vector<uint8_t>& payload)
      : Reader(payload.data(), payload.size()) {}

  bool U8(uint8_t* out);
  bool F64(double* out);
  bool Varint(uint64_t* out);
  bool Zigzag(int64_t* out);
  bool Str(std::string* out);
  /// Decodes relation data into a relation over `schema` (arity must match
  /// the schema's attribute count). Verifies a claimed canonical flag by
  /// scanning — a false claim is malformed input, not a crash.
  bool RelationData(const AttrSet& schema, Relation* out);

  bool ok() const { return ok_; }
  bool AtEnd() const { return ok_ && p_ == end_; }
  size_t Remaining() const { return static_cast<size_t>(end_ - p_); }

 private:
  bool Fail() {
    ok_ = false;
    return false;
  }
  const uint8_t* p_;
  const uint8_t* end_;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// Message encode/decode. Encoders return a complete frame (header included)
// — or an empty vector when the encoded payload would exceed
// `max_payload_bytes` (such a frame is unsendable under the peer's bound;
// the server substitutes a typed kInternal error, the client fails the
// call). Decoders take the payload *without* the header but *with* the
// leading type byte already stripped by the caller's dispatch, return false
// on any malformed input, and fill `error` with a one-line reason.

std::vector<uint8_t> EncodeQueryRequest(
    const QueryRequest& request,
    size_t max_payload_bytes = kMaxWirePayloadBytes);
std::vector<uint8_t> EncodeStatusRequest();
std::vector<uint8_t> EncodeQueryResponse(
    const QueryResponse& response,
    size_t max_payload_bytes = kMaxWirePayloadBytes);
std::vector<uint8_t> EncodeStatusResponse(const StatusResponse& status);
std::vector<uint8_t> EncodeError(ErrorCode code, std::string_view message);

/// Decodes a query request body. The schema/target specs are parsed into
/// `catalog`; `schema`/`target` receive the parsed forms and
/// `request->states` the decoded relations (parallel to `schema`).
bool DecodeQueryRequest(const uint8_t* body, size_t size, Catalog& catalog,
                        QueryRequest* request, DatabaseSchema* schema,
                        AttrSet* target, std::string* error);

/// Decodes a query response body; `result_schema` is the query's target
/// attribute set (the client knows it — result relations travel without
/// schema bytes).
bool DecodeQueryResponse(const uint8_t* body, size_t size,
                         const AttrSet& result_schema, QueryResponse* response,
                         std::string* error);

bool DecodeStatusResponse(const uint8_t* body, size_t size,
                          StatusResponse* status, std::string* error);

bool DecodeError(const uint8_t* body, size_t size, ErrorReply* reply,
                 std::string* error);

// ---------------------------------------------------------------------------
// Non-dying schema parsing. ParseSchema/ParseAttrSet abort on empty
// relations — fine for trusted CLI input, fatal for a daemon fed by the
// network. These validate first and return false instead.

bool SafeParseSchema(Catalog& catalog, std::string_view spec,
                     DatabaseSchema* out, std::string* error);
bool SafeParseAttrSet(Catalog& catalog, std::string_view spec, AttrSet* out,
                      std::string* error);

// ---------------------------------------------------------------------------
// Framed I/O over blocking sockets (the client library and worker threads;
// the server's event loop keeps its own non-blocking buffers and reuses
// only the header layout). Both handle partial transfers and EINTR.

enum class IoStatus {
  kOk,
  /// Clean EOF at a frame boundary (peer closed).
  kEof,
  /// Transport error or EOF mid-frame; `error` has the reason.
  kError,
  /// The peer announced a payload larger than `max_frame_bytes`.
  kTooLarge,
};

/// Reads one complete frame payload (header stripped). Blocks until a full
/// frame, EOF, or error.
IoStatus ReadFrame(int fd, size_t max_frame_bytes,
                   std::vector<uint8_t>* payload, std::string* error);

/// Writes all of `frame` (a complete frame from an encoder), looping over
/// short writes. Uses MSG_NOSIGNAL — a dead peer is a return value, not a
/// SIGPIPE.
bool WriteFrame(int fd, const std::vector<uint8_t>& frame, std::string* error);

}  // namespace serve
}  // namespace gyo

#endif  // GYO_SERVE_FRAME_H_
