#include "serve/frame.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstring>

namespace gyo {
namespace serve {

namespace {

// Decode-side sanity bounds, all well under kDefaultMaxFrameBytes: they
// exist so a tiny hostile frame cannot make the server allocate or intern
// unboundedly (a row-count claim is checked against the bytes actually
// present before any allocation).
constexpr size_t kMaxSpecBytes = 64u << 10;
constexpr int kMaxRelations = 1024;
constexpr int kMaxArity = 4096;

bool SetError(std::string* error, const char* message) {
  if (error != nullptr) *error = message;
  return false;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

const char* ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kNone:
      return "none";
    case ErrorCode::kMalformed:
      return "malformed";
    case ErrorCode::kFrameTooLarge:
      return "frame_too_large";
    case ErrorCode::kDeadlineExceeded:
      return "deadline_exceeded";
    case ErrorCode::kBacklogFull:
      return "backlog_full";
    case ErrorCode::kShuttingDown:
      return "shutting_down";
    case ErrorCode::kUnsupported:
      return "unsupported";
    case ErrorCode::kInternal:
      return "internal";
  }
  return "unknown";
}

const char* StrategyName(Strategy strategy) {
  switch (strategy) {
    case Strategy::kAuto:
      return "auto";
    case Strategy::kFullJoin:
      return "full_join";
    case Strategy::kCcPruned:
      return "cc_pruned";
    case Strategy::kYannakakis:
      return "yannakakis";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Writer

void Writer::U32Fixed(uint32_t v) {
  if (!Fits(4)) return;
  buf_.push_back(static_cast<uint8_t>(v));
  buf_.push_back(static_cast<uint8_t>(v >> 8));
  buf_.push_back(static_cast<uint8_t>(v >> 16));
  buf_.push_back(static_cast<uint8_t>(v >> 24));
}

void Writer::F64(double v) {
  if (!Fits(8)) return;
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<uint8_t>(bits >> (8 * i)));
  }
}

void Writer::Varint(uint64_t v) {
  uint8_t bytes[10];
  int n = 0;
  while (v >= 0x80) {
    bytes[n++] = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  bytes[n++] = static_cast<uint8_t>(v);
  if (!Fits(static_cast<size_t>(n))) return;
  buf_.insert(buf_.end(), bytes, bytes + n);
}

void Writer::Zigzag(int64_t v) {
  Varint((static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63));
}

void Writer::Str(std::string_view s) {
  Varint(s.size());
  if (!Fits(s.size())) return;
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void Writer::RelationData(const Relation& r) {
  Varint(static_cast<uint64_t>(r.Arity()));
  U8(r.IsCanonical() ? 1 : 0);
  Varint(static_cast<uint64_t>(r.NumRows()));
  for (int c = 0; c < r.Arity(); ++c) {
    const Value* col = r.ColData(c);
    for (int64_t i = 0; i < r.NumRows(); ++i) Zigzag(col[i]);
  }
}

void Writer::Begin(FrameType type) {
  buf_.clear();
  overflowed_ = false;
  U32Fixed(0);  // patched by Finish()
  U8(static_cast<uint8_t>(type));
}

std::vector<uint8_t> Writer::Finish() {
  const size_t payload = buf_.size() - kFrameHeaderBytes;
  if (overflowed_ || payload > kMaxWirePayloadBytes) {
    // Never emit a frame whose u32 length prefix would truncate or lie.
    buf_.clear();
    return {};
  }
  buf_[0] = static_cast<uint8_t>(payload);
  buf_[1] = static_cast<uint8_t>(payload >> 8);
  buf_[2] = static_cast<uint8_t>(payload >> 16);
  buf_[3] = static_cast<uint8_t>(payload >> 24);
  return std::move(buf_);
}

// ---------------------------------------------------------------------------
// Reader

bool Reader::U8(uint8_t* out) {
  if (!ok_ || p_ == end_) return Fail();
  *out = *p_++;
  return true;
}

bool Reader::F64(double* out) {
  if (!ok_ || Remaining() < 8) return Fail();
  uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<uint64_t>(p_[i]) << (8 * i);
  }
  p_ += 8;
  std::memcpy(out, &bits, sizeof(*out));
  return true;
}

bool Reader::Varint(uint64_t* out) {
  if (!ok_) return false;
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (p_ == end_) return Fail();
    const uint8_t byte = *p_++;
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      // The 10th byte may only carry the u64's top bit.
      if (shift == 63 && byte > 1) return Fail();
      *out = v;
      return true;
    }
  }
  return Fail();  // > 10 continuation bytes
}

bool Reader::Zigzag(int64_t* out) {
  uint64_t v;
  if (!Varint(&v)) return false;
  *out = static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
  return true;
}

bool Reader::Str(std::string* out) {
  uint64_t len;
  if (!Varint(&len)) return false;
  if (len > Remaining()) return Fail();
  out->assign(reinterpret_cast<const char*>(p_), static_cast<size_t>(len));
  p_ += len;
  return true;
}

bool Reader::RelationData(const AttrSet& schema, Relation* out) {
  uint64_t arity, rows;
  uint8_t canonical;
  if (!Varint(&arity) || !U8(&canonical) || !Varint(&rows)) return false;
  Relation r(schema);
  if (arity != static_cast<uint64_t>(r.Arity())) return Fail();
  if (canonical > 1) return Fail();
  // Every value is at least one wire byte, so a row-count claim larger than
  // the bytes on hand is rejected before the allocation it implies.
  if (rows > Remaining() || (arity > 0 && rows * arity > Remaining())) {
    return Fail();
  }
  if (arity == 0 && rows > 1) return Fail();  // zero-column: 0 or 1 row
  r.AppendRows(static_cast<int64_t>(rows));
  for (uint64_t c = 0; c < arity; ++c) {
    Value* col = r.ColData(static_cast<int>(c));
    for (uint64_t i = 0; i < rows; ++i) {
      if (!Zigzag(&col[i])) return false;
    }
  }
  if (canonical == 1) {
    // Verify the claim instead of trusting it: a false flag would trip
    // debug assertions (and break set semantics) downstream.
    for (int64_t i = 1; i < r.NumRows(); ++i) {
      if (!(r.Row(i - 1) < r.Row(i))) return Fail();
    }
    r.MarkCanonical();
  }
  *out = std::move(r);
  return true;
}

// ---------------------------------------------------------------------------
// Message encoders

std::vector<uint8_t> EncodeQueryRequest(const QueryRequest& request,
                                        size_t max_payload_bytes) {
  Writer w;
  w.LimitPayload(max_payload_bytes);
  w.Begin(FrameType::kQueryRequest);
  w.Str(request.schema_spec);
  w.Str(request.target_spec);
  w.U8(static_cast<uint8_t>(request.strategy));
  w.Varint(request.deadline_ms);
  w.Varint(request.submitter);
  w.U8(static_cast<uint8_t>((request.deterministic ? 1 : 0) |
                            (request.want_plan ? 2 : 0)));
  w.Varint(request.states.size());
  for (const Relation& r : request.states) w.RelationData(r);
  return w.Finish();
}

std::vector<uint8_t> EncodeStatusRequest() {
  Writer w;
  w.Begin(FrameType::kStatusRequest);
  return w.Finish();
}

std::vector<uint8_t> EncodeQueryResponse(const QueryResponse& response,
                                         size_t max_payload_bytes) {
  Writer w;
  w.LimitPayload(max_payload_bytes);
  w.Begin(FrameType::kQueryResponse);
  w.U8(response.has_plan ? 1 : 0);
  w.RelationData(response.result);
  w.Zigzag(response.stats.max_intermediate_rows);
  w.Zigzag(response.stats.total_rows_produced);
  w.Zigzag(response.stats.result_rows);
  const exec::QueryStats& q = response.query_stats;
  w.F64(q.queue_wait_seconds);
  w.F64(q.run_time_seconds);
  w.Zigzag(q.tasks);
  w.Zigzag(q.morsels);
  w.Zigzag(q.peak_state_bytes);
  w.Zigzag(q.retired_states);
  w.Zigzag(q.bloom_partition_skips);
  w.Zigzag(q.probe_rows_pruned);
  w.Zigzag(q.queue_depth_at_admit);
  w.Zigzag(q.plan_cache_hits);
  w.Zigzag(q.state_cache_hits);
  w.Zigzag(q.delta_rounds);
  w.Zigzag(q.rows_rescanned);
  w.Zigzag(q.sip_rows_pruned);
  w.Zigzag(q.zone_map_skips);
  if (response.has_plan) {
    w.Varint(static_cast<uint64_t>(response.plan.num_statements));
    w.Varint(static_cast<uint64_t>(response.plan.critical_path));
    w.Varint(static_cast<uint64_t>(response.plan.num_source_statements));
    w.U8(static_cast<uint8_t>(response.plan.strategy));
  }
  return w.Finish();
}

std::vector<uint8_t> EncodeStatusResponse(const StatusResponse& status) {
  Writer w;
  w.Begin(FrameType::kStatusResponse);
  const exec::ExecutorPool::PoolStatus& pool = status.pool;
  w.Varint(static_cast<uint64_t>(pool.threads));
  w.Varint(static_cast<uint64_t>(pool.max_concurrent_queries));
  w.Varint(static_cast<uint64_t>(pool.running));
  w.Varint(static_cast<uint64_t>(pool.waiting));
  w.Varint(pool.submitters.size());
  for (const auto& s : pool.submitters) {
    w.Varint(s.id);
    w.Varint(static_cast<uint64_t>(s.running));
    w.Varint(static_cast<uint64_t>(s.waiting));
  }
  w.Varint(status.connections_accepted);
  w.Varint(status.connections_active);
  w.Varint(status.queries_served);
  w.Varint(status.queries_shed_deadline);
  w.Varint(status.queries_shed_backlog);
  w.Varint(status.protocol_errors);
  w.U8(status.draining ? 1 : 0);
  w.Varint(status.sip_rows_pruned);
  w.Varint(status.zone_map_skips);
  w.Varint(status.plan_cache_hits);
  w.Varint(status.plan_cache_misses);
  w.Varint(status.result_cache_hits);
  w.Varint(status.result_cache_misses);
  return w.Finish();
}

std::vector<uint8_t> EncodeError(ErrorCode code, std::string_view message) {
  Writer w;
  w.Begin(FrameType::kError);
  w.U8(static_cast<uint8_t>(code));
  w.Str(message);
  return w.Finish();
}

// ---------------------------------------------------------------------------
// Message decoders

bool DecodeQueryRequest(const uint8_t* body, size_t size, Catalog& catalog,
                        QueryRequest* request, DatabaseSchema* schema,
                        AttrSet* target, std::string* error) {
  Reader r(body, size);
  QueryRequest req;
  uint8_t strategy, flags;
  uint64_t num_states;
  if (!r.Str(&req.schema_spec) || !r.Str(&req.target_spec) ||
      !r.U8(&strategy) || !r.Varint(&req.deadline_ms) ||
      !r.Varint(&req.submitter) || !r.U8(&flags) || !r.Varint(&num_states)) {
    return SetError(error, "truncated query request");
  }
  if (strategy > static_cast<uint8_t>(Strategy::kYannakakis)) {
    return SetError(error, "unknown strategy");
  }
  if (flags > 3) return SetError(error, "unknown flag bits");
  req.strategy = static_cast<Strategy>(strategy);
  req.deterministic = (flags & 1) != 0;
  req.want_plan = (flags & 2) != 0;
  if (!SafeParseSchema(catalog, req.schema_spec, schema, error)) return false;
  if (!SafeParseAttrSet(catalog, req.target_spec, target, error)) {
    return false;
  }
  // A target outside the schema universe would abort in the planners
  // (GYO_CHECK in program construction/validation) — from the network it
  // must be a typed rejection instead.
  if (!target->IsSubsetOf(schema->Universe())) {
    return SetError(error, "target attribute outside the schema universe");
  }
  if (num_states != static_cast<uint64_t>(schema->NumRelations())) {
    return SetError(error, "state count does not match schema");
  }
  req.states.reserve(static_cast<size_t>(num_states));
  for (int i = 0; i < schema->NumRelations(); ++i) {
    Relation state{AttrSet()};
    if (!r.RelationData(schema->Relation(i), &state)) {
      return SetError(error, "malformed relation state");
    }
    req.states.push_back(std::move(state));
  }
  if (!r.AtEnd()) return SetError(error, "trailing bytes in query request");
  *request = std::move(req);
  return true;
}

bool DecodeQueryResponse(const uint8_t* body, size_t size,
                         const AttrSet& result_schema, QueryResponse* response,
                         std::string* error) {
  Reader r(body, size);
  QueryResponse resp;
  uint8_t flags;
  if (!r.U8(&flags) || flags > 1) {
    return SetError(error, "malformed response flags");
  }
  resp.has_plan = flags != 0;
  if (!r.RelationData(result_schema, &resp.result)) {
    return SetError(error, "malformed result relation");
  }
  exec::QueryStats& q = resp.query_stats;
  if (!r.Zigzag(&resp.stats.max_intermediate_rows) ||
      !r.Zigzag(&resp.stats.total_rows_produced) ||
      !r.Zigzag(&resp.stats.result_rows) || !r.F64(&q.queue_wait_seconds) ||
      !r.F64(&q.run_time_seconds) || !r.Zigzag(&q.tasks) ||
      !r.Zigzag(&q.morsels) || !r.Zigzag(&q.peak_state_bytes) ||
      !r.Zigzag(&q.retired_states) || !r.Zigzag(&q.bloom_partition_skips) ||
      !r.Zigzag(&q.probe_rows_pruned) ||
      !r.Zigzag(&q.queue_depth_at_admit) || !r.Zigzag(&q.plan_cache_hits) ||
      !r.Zigzag(&q.state_cache_hits) || !r.Zigzag(&q.delta_rounds) ||
      !r.Zigzag(&q.rows_rescanned) || !r.Zigzag(&q.sip_rows_pruned) ||
      !r.Zigzag(&q.zone_map_skips)) {
    return SetError(error, "truncated query response");
  }
  if (resp.has_plan) {
    uint64_t statements, critical, sources;
    uint8_t strategy;
    if (!r.Varint(&statements) || !r.Varint(&critical) ||
        !r.Varint(&sources) || !r.U8(&strategy) ||
        strategy > static_cast<uint8_t>(Strategy::kYannakakis)) {
      return SetError(error, "malformed plan info");
    }
    resp.plan.num_statements = static_cast<int>(statements);
    resp.plan.critical_path = static_cast<int>(critical);
    resp.plan.num_source_statements = static_cast<int>(sources);
    resp.plan.strategy = static_cast<Strategy>(strategy);
  }
  if (!r.AtEnd()) return SetError(error, "trailing bytes in query response");
  *response = std::move(resp);
  return true;
}

bool DecodeStatusResponse(const uint8_t* body, size_t size,
                          StatusResponse* status, std::string* error) {
  Reader r(body, size);
  StatusResponse s;
  uint64_t threads, max_concurrent, running, waiting, num_submitters;
  if (!r.Varint(&threads) || !r.Varint(&max_concurrent) ||
      !r.Varint(&running) || !r.Varint(&waiting) ||
      !r.Varint(&num_submitters) || num_submitters > r.Remaining()) {
    return SetError(error, "truncated status response");
  }
  s.pool.threads = static_cast<int>(threads);
  s.pool.max_concurrent_queries = static_cast<int>(max_concurrent);
  s.pool.running = static_cast<int>(running);
  s.pool.waiting = static_cast<int>(waiting);
  s.pool.submitters.reserve(static_cast<size_t>(num_submitters));
  for (uint64_t i = 0; i < num_submitters; ++i) {
    exec::ExecutorPool::PoolStatus::Submitter sub;
    uint64_t sub_running, sub_waiting;
    if (!r.Varint(&sub.id) || !r.Varint(&sub_running) ||
        !r.Varint(&sub_waiting)) {
      return SetError(error, "truncated submitter entry");
    }
    sub.running = static_cast<int>(sub_running);
    sub.waiting = static_cast<int>(sub_waiting);
    s.pool.submitters.push_back(sub);
  }
  uint8_t draining;
  if (!r.Varint(&s.connections_accepted) ||
      !r.Varint(&s.connections_active) || !r.Varint(&s.queries_served) ||
      !r.Varint(&s.queries_shed_deadline) ||
      !r.Varint(&s.queries_shed_backlog) || !r.Varint(&s.protocol_errors) ||
      !r.U8(&draining) || draining > 1 || !r.Varint(&s.sip_rows_pruned) ||
      !r.Varint(&s.zone_map_skips) ||
      !r.Varint(&s.plan_cache_hits) || !r.Varint(&s.plan_cache_misses) ||
      !r.Varint(&s.result_cache_hits) || !r.Varint(&s.result_cache_misses)) {
    return SetError(error, "truncated status counters");
  }
  s.draining = draining != 0;
  if (!r.AtEnd()) return SetError(error, "trailing bytes in status response");
  *status = std::move(s);
  return true;
}

bool DecodeError(const uint8_t* body, size_t size, ErrorReply* reply,
                 std::string* error) {
  Reader r(body, size);
  uint8_t code;
  ErrorReply e;
  if (!r.U8(&code) || code > static_cast<uint8_t>(ErrorCode::kInternal) ||
      !r.Str(&e.message) || !r.AtEnd()) {
    return SetError(error, "malformed error frame");
  }
  e.code = static_cast<ErrorCode>(code);
  *reply = std::move(e);
  return true;
}

// ---------------------------------------------------------------------------
// Safe parsing

bool SafeParseSchema(Catalog& catalog, std::string_view spec,
                     DatabaseSchema* out, std::string* error) {
  if (spec.size() > kMaxSpecBytes) {
    return SetError(error, "schema spec too long");
  }
  int relations = 0;
  size_t start = 0;
  for (size_t i = 0; i <= spec.size(); ++i) {
    if (i != spec.size() && spec[i] != ',') continue;
    if (Trim(spec.substr(start, i - start)).empty()) {
      return SetError(error, "empty relation in schema spec");
    }
    start = i + 1;
    if (++relations > kMaxRelations) {
      return SetError(error, "too many relations in schema spec");
    }
  }
  *out = ParseSchema(catalog, spec);
  for (const RelationSchema& rel : out->Relations()) {
    if (rel.Size() > kMaxArity) {
      return SetError(error, "relation arity too large");
    }
  }
  return true;
}

bool SafeParseAttrSet(Catalog& catalog, std::string_view spec, AttrSet* out,
                      std::string* error) {
  if (spec.size() > kMaxSpecBytes) {
    return SetError(error, "attribute set spec too long");
  }
  if (Trim(spec).empty()) {
    return SetError(error, "empty attribute set spec");
  }
  *out = ParseAttrSet(catalog, spec);
  return true;
}

// ---------------------------------------------------------------------------
// Framed I/O

namespace {

// Reads exactly `n` bytes. Returns 1 on success, 0 on clean EOF before the
// first byte, -1 on error or mid-buffer EOF.
int ReadExact(int fd, uint8_t* buf, size_t n, std::string* error) {
  size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, buf + got, n - got);
    if (r > 0) {
      got += static_cast<size_t>(r);
      continue;
    }
    if (r == 0) {
      if (got == 0) return 0;
      SetError(error, "connection closed mid-frame");
      return -1;
    }
    if (errno == EINTR) continue;
    if (error != nullptr) *error = std::strerror(errno);
    return -1;
  }
  return 1;
}

}  // namespace

IoStatus ReadFrame(int fd, size_t max_frame_bytes,
                   std::vector<uint8_t>* payload, std::string* error) {
  uint8_t header[kFrameHeaderBytes];
  const int h = ReadExact(fd, header, sizeof(header), error);
  if (h == 0) return IoStatus::kEof;
  if (h < 0) return IoStatus::kError;
  const uint32_t len = static_cast<uint32_t>(header[0]) |
                       static_cast<uint32_t>(header[1]) << 8 |
                       static_cast<uint32_t>(header[2]) << 16 |
                       static_cast<uint32_t>(header[3]) << 24;
  if (len == 0) {
    SetError(error, "zero-length frame");
    return IoStatus::kError;
  }
  if (len > max_frame_bytes) {
    SetError(error, "frame exceeds size bound");
    return IoStatus::kTooLarge;
  }
  payload->resize(len);
  if (ReadExact(fd, payload->data(), len, error) != 1) {
    if (error != nullptr && error->empty()) {
      *error = "connection closed mid-frame";
    }
    return IoStatus::kError;
  }
  return IoStatus::kOk;
}

bool WriteFrame(int fd, const std::vector<uint8_t>& frame,
                std::string* error) {
  size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t w =
        ::send(fd, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
    if (w >= 0) {
      sent += static_cast<size_t>(w);
      continue;
    }
    if (errno == EINTR) continue;
    if (error != nullptr) *error = std::strerror(errno);
    return false;
  }
  return true;
}

}  // namespace serve
}  // namespace gyo
