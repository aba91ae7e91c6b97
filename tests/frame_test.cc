// serve/frame: primitive codec round trips, message round trips, and —
// the part that keeps a network daemon alive — rejection of malformed,
// truncated, oversized, and hostile input as a typed `false`, never a
// crash. These run in the CI ThreadSanitizer suite.

#include "serve/frame.h"

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "rel/universal.h"
#include "schema/parse.h"
#include "util/rng.h"

namespace gyo {
namespace serve {
namespace {

// Strips the 4-byte header and the type byte, checking both along the way —
// what the server's dispatch does to every encoder's output.
std::vector<uint8_t> Body(const std::vector<uint8_t>& frame, FrameType type) {
  EXPECT_GE(frame.size(), kFrameHeaderBytes + 1);
  const uint32_t len = static_cast<uint32_t>(frame[0]) |
                       static_cast<uint32_t>(frame[1]) << 8 |
                       static_cast<uint32_t>(frame[2]) << 16 |
                       static_cast<uint32_t>(frame[3]) << 24;
  EXPECT_EQ(len, frame.size() - kFrameHeaderBytes);
  EXPECT_EQ(frame[kFrameHeaderBytes], static_cast<uint8_t>(type));
  return std::vector<uint8_t>(frame.begin() + kFrameHeaderBytes + 1,
                              frame.end());
}

TEST(FrameCodecTest, VarintAndZigzagRoundTripEdgeValues) {
  const uint64_t unsigned_cases[] = {
      0, 1, 127, 128, 300, (1ull << 32) - 1, (1ull << 63),
      std::numeric_limits<uint64_t>::max()};
  const int64_t signed_cases[] = {
      0, 1, -1, 63, -64, 64, -65,
      std::numeric_limits<int64_t>::max(),
      std::numeric_limits<int64_t>::min()};
  Writer w;
  for (uint64_t v : unsigned_cases) w.Varint(v);
  for (int64_t v : signed_cases) w.Zigzag(v);
  w.Str("hello");
  w.F64(-2.5);
  w.Begin(FrameType::kError);  // clears; reuse the writer for the payload
  for (uint64_t v : unsigned_cases) w.Varint(v);
  for (int64_t v : signed_cases) w.Zigzag(v);
  w.Str("hello");
  w.F64(-2.5);
  std::vector<uint8_t> frame = w.Finish();
  std::vector<uint8_t> body = Body(frame, FrameType::kError);

  Reader r(body.data(), body.size());
  for (uint64_t expected : unsigned_cases) {
    uint64_t v = 1;
    ASSERT_TRUE(r.Varint(&v));
    EXPECT_EQ(v, expected);
  }
  for (int64_t expected : signed_cases) {
    int64_t v = 1;
    ASSERT_TRUE(r.Zigzag(&v));
    EXPECT_EQ(v, expected);
  }
  std::string s;
  ASSERT_TRUE(r.Str(&s));
  EXPECT_EQ(s, "hello");
  double d = 0;
  ASSERT_TRUE(r.F64(&d));
  EXPECT_EQ(d, -2.5);
  EXPECT_TRUE(r.AtEnd());
}

TEST(FrameCodecTest, ReaderRejectsTruncationAndOverlongVarints) {
  // Truncated varint: a lone continuation byte.
  {
    const uint8_t bytes[] = {0x80};
    Reader r(bytes, sizeof(bytes));
    uint64_t v;
    EXPECT_FALSE(r.Varint(&v));
    EXPECT_FALSE(r.ok());
  }
  // 11-byte varint (too many continuations).
  {
    std::vector<uint8_t> bytes(11, 0x80);
    Reader r(bytes.data(), bytes.size());
    uint64_t v;
    EXPECT_FALSE(r.Varint(&v));
  }
  // 10th byte carrying more than the u64's top bit.
  {
    std::vector<uint8_t> bytes(9, 0x80);
    bytes.push_back(0x02);
    Reader r(bytes.data(), bytes.size());
    uint64_t v;
    EXPECT_FALSE(r.Varint(&v));
  }
  // String length past the end.
  {
    const uint8_t bytes[] = {0x05, 'a', 'b'};
    Reader r(bytes, sizeof(bytes));
    std::string s;
    EXPECT_FALSE(r.Str(&s));
  }
  // A poisoned reader stays poisoned.
  {
    const uint8_t bytes[] = {0x80, 0x01, 0x01};
    Reader r(bytes, 1);
    uint64_t v;
    EXPECT_FALSE(r.Varint(&v));
    uint8_t b;
    EXPECT_FALSE(r.U8(&b));
  }
}

TEST(FrameCodecTest, RelationDataRoundTripsBitIdentically) {
  Catalog catalog;
  DatabaseSchema schema = ParseSchema(catalog, "ab,bc");
  Rng rng(11);
  Relation original = RandomUniversal(schema.Relation(0), 50, 9, rng);

  Writer w;
  w.Begin(FrameType::kError);
  w.RelationData(original);
  std::vector<uint8_t> body = Body(w.Finish(), FrameType::kError);

  Reader r(body.data(), body.size());
  Relation decoded{AttrSet()};
  ASSERT_TRUE(r.RelationData(schema.Relation(0), &decoded));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_TRUE(original.IdenticalTo(decoded));
  EXPECT_EQ(original.IsCanonical(), decoded.IsCanonical());
}

TEST(FrameCodecTest, RelationDataRejectsHostileClaims) {
  Catalog catalog;
  DatabaseSchema schema = ParseSchema(catalog, "ab");
  const AttrSet rel = schema.Relation(0);

  // Arity mismatch with the schema.
  {
    Writer w;
    w.Begin(FrameType::kError);
    w.Varint(3);  // claimed arity; the schema says 2
    w.U8(0);
    w.Varint(0);
    std::vector<uint8_t> body = Body(w.Finish(), FrameType::kError);
    Reader r(body.data(), body.size());
    Relation out{AttrSet()};
    EXPECT_FALSE(r.RelationData(rel, &out));
  }
  // A row count far beyond the bytes present must be rejected before any
  // allocation (every value is at least one wire byte).
  {
    Writer w;
    w.Begin(FrameType::kError);
    w.Varint(2);
    w.U8(0);
    w.Varint(1ull << 40);  // ~10^12 rows announced, 0 bytes follow
    std::vector<uint8_t> body = Body(w.Finish(), FrameType::kError);
    Reader r(body.data(), body.size());
    Relation out{AttrSet()};
    EXPECT_FALSE(r.RelationData(rel, &out));
  }
  // A false canonical claim (rows out of order) is malformed input: the
  // decoder verifies rather than trusts, so downstream set semantics and
  // debug assertions stay safe.
  {
    Writer w;
    w.Begin(FrameType::kError);
    w.Varint(2);
    w.U8(1);    // claims canonical
    w.Varint(2);
    w.Zigzag(9);  // column a: 9, 1 — not ascending
    w.Zigzag(1);
    w.Zigzag(0);  // column b
    w.Zigzag(0);
    std::vector<uint8_t> body = Body(w.Finish(), FrameType::kError);
    Reader r(body.data(), body.size());
    Relation out{AttrSet()};
    EXPECT_FALSE(r.RelationData(rel, &out));
  }
  // The same rows without the claim decode fine.
  {
    Writer w;
    w.Begin(FrameType::kError);
    w.Varint(2);
    w.U8(0);
    w.Varint(2);
    w.Zigzag(9);
    w.Zigzag(1);
    w.Zigzag(0);
    w.Zigzag(0);
    std::vector<uint8_t> body = Body(w.Finish(), FrameType::kError);
    Reader r(body.data(), body.size());
    Relation out{AttrSet()};
    EXPECT_TRUE(r.RelationData(rel, &out));
    EXPECT_EQ(out.NumRows(), 2);
    EXPECT_FALSE(out.IsCanonical());
  }
}

TEST(FrameCodecTest, QueryRequestRoundTrips) {
  Catalog build_catalog;
  DatabaseSchema schema = ParseSchema(build_catalog, "ab,bc,cd");
  Rng rng(3);
  Relation universal = RandomUniversal(schema.Universe(), 40, 7, rng);

  QueryRequest request;
  request.schema_spec = "ab,bc,cd";
  request.target_spec = "ad";
  request.strategy = Strategy::kYannakakis;
  request.deadline_ms = 250;
  request.submitter = 42;
  request.deterministic = true;
  request.want_plan = true;
  request.states = ProjectDatabase(universal, schema);
  std::vector<uint8_t> frame = EncodeQueryRequest(request);
  std::vector<uint8_t> body = Body(frame, FrameType::kQueryRequest);

  Catalog catalog;
  QueryRequest decoded;
  DatabaseSchema decoded_schema;
  AttrSet target;
  std::string error;
  ASSERT_TRUE(DecodeQueryRequest(body.data(), body.size(), catalog, &decoded,
                                 &decoded_schema, &target, &error))
      << error;
  EXPECT_EQ(decoded.schema_spec, request.schema_spec);
  EXPECT_EQ(decoded.strategy, Strategy::kYannakakis);
  EXPECT_EQ(decoded.deadline_ms, 250u);
  EXPECT_EQ(decoded.submitter, 42u);
  EXPECT_TRUE(decoded.deterministic);
  EXPECT_TRUE(decoded.want_plan);
  EXPECT_EQ(decoded_schema.NumRelations(), 3);
  ASSERT_EQ(decoded.states.size(), request.states.size());
  for (size_t i = 0; i < request.states.size(); ++i) {
    EXPECT_TRUE(request.states[i].IdenticalTo(decoded.states[i]))
        << "state " << i;
  }
}

TEST(FrameCodecTest, QueryRequestRejectsMalformedInput) {
  Catalog build_catalog;
  DatabaseSchema schema = ParseSchema(build_catalog, "ab,bc");
  Rng rng(5);
  QueryRequest request;
  request.schema_spec = "ab,bc";
  request.target_spec = "ac";
  request.states = ProjectDatabase(
      RandomUniversal(schema.Universe(), 10, 5, rng), schema);
  std::vector<uint8_t> frame = EncodeQueryRequest(request);
  std::vector<uint8_t> body = Body(frame, FrameType::kQueryRequest);

  Catalog catalog;
  QueryRequest decoded;
  DatabaseSchema decoded_schema;
  AttrSet target;
  std::string error;

  // Every truncation point of a valid request must fail cleanly. This walks
  // all of them, which is cheap at this body size.
  for (size_t cut = 0; cut < body.size(); ++cut) {
    EXPECT_FALSE(DecodeQueryRequest(body.data(), cut, catalog, &decoded,
                                    &decoded_schema, &target, &error))
        << "decoded a prefix of " << cut << " bytes";
  }
  // Trailing garbage is also malformed — a frame is exactly one message.
  std::vector<uint8_t> padded = body;
  padded.push_back(0);
  EXPECT_FALSE(DecodeQueryRequest(padded.data(), padded.size(), catalog,
                                  &decoded, &decoded_schema, &target,
                                  &error));
  // Unknown strategy byte.
  std::vector<uint8_t> bad = body;
  // Layout: str schema (1+5), str target (1+2), strategy byte next.
  bad[9] = 200;
  EXPECT_FALSE(DecodeQueryRequest(bad.data(), bad.size(), catalog, &decoded,
                                  &decoded_schema, &target, &error));

  // Schema specs the CLI parser would abort on must come back as errors.
  QueryRequest empty_rel = request;
  empty_rel.schema_spec = "ab,,bc";
  empty_rel.states.clear();
  frame = EncodeQueryRequest(empty_rel);
  body = Body(frame, FrameType::kQueryRequest);
  EXPECT_FALSE(DecodeQueryRequest(body.data(), body.size(), catalog, &decoded,
                                  &decoded_schema, &target, &error));
  EXPECT_EQ(error, "empty relation in schema spec");
}

TEST(FrameCodecTest, QueryRequestRejectsTargetOutsideSchemaUniverse) {
  // A parseable target whose attributes are not all in the schema would
  // abort downstream (program construction GYO_CHECKs target ⊆ universe);
  // the decoder must reject it as malformed input instead.
  Catalog build_catalog;
  DatabaseSchema schema = ParseSchema(build_catalog, "ab,bc");
  Rng rng(13);
  QueryRequest request;
  request.schema_spec = "ab,bc";
  request.target_spec = "az";  // 'z' appears in no relation
  request.states = ProjectDatabase(
      RandomUniversal(schema.Universe(), 10, 5, rng), schema);
  std::vector<uint8_t> body =
      Body(EncodeQueryRequest(request), FrameType::kQueryRequest);

  Catalog catalog;
  QueryRequest decoded;
  DatabaseSchema decoded_schema;
  AttrSet target;
  std::string error;
  EXPECT_FALSE(DecodeQueryRequest(body.data(), body.size(), catalog, &decoded,
                                  &decoded_schema, &target, &error));
  EXPECT_EQ(error, "target attribute outside the schema universe");
}

TEST(FrameCodecTest, WriterRefusesToEmitAFrameBeyondItsPayloadCap) {
  Writer w;
  w.LimitPayload(16);
  w.Begin(FrameType::kError);
  w.Str("this string does not fit in sixteen payload bytes");
  EXPECT_TRUE(w.Overflowed());
  EXPECT_TRUE(w.Finish().empty());

  // The cap survives Begin(), and a fitting payload still encodes.
  w.Begin(FrameType::kError);
  w.Str("ok");
  EXPECT_FALSE(w.Overflowed());
  EXPECT_FALSE(w.Finish().empty());

  // Encoders surface the cap as an empty frame, which the server replaces
  // with a typed kInternal error rather than a lying length prefix.
  Catalog catalog;
  QueryResponse response;
  response.result = Relation(ParseAttrSet(catalog, "ab"));
  for (int i = 0; i < 100; ++i) response.result.AddRow({i, i});
  EXPECT_TRUE(EncodeQueryResponse(response, 64).empty());
  EXPECT_FALSE(EncodeQueryResponse(response).empty());
}

TEST(FrameCodecTest, QueryResponseRoundTrips) {
  Catalog catalog;
  const AttrSet target = ParseAttrSet(catalog, "ad");
  QueryResponse response;
  response.result = Relation(target);
  response.result.AddRow({1, 2});
  response.result.AddRow({3, 4});
  response.result.MarkCanonical();
  response.stats.max_intermediate_rows = 100;
  response.stats.total_rows_produced = 123;
  response.stats.result_rows = 2;
  response.query_stats.queue_wait_seconds = 0.25;
  response.query_stats.run_time_seconds = 1.5;
  response.query_stats.tasks = 8;
  response.query_stats.probe_rows_pruned = 3;
  response.query_stats.queue_depth_at_admit = 4;
  response.has_plan = true;
  response.plan.num_statements = 8;
  response.plan.critical_path = 7;
  response.plan.num_source_statements = 1;
  response.plan.strategy = Strategy::kYannakakis;

  std::vector<uint8_t> body =
      Body(EncodeQueryResponse(response), FrameType::kQueryResponse);
  QueryResponse decoded;
  std::string error;
  ASSERT_TRUE(DecodeQueryResponse(body.data(), body.size(), target, &decoded,
                                  &error))
      << error;
  EXPECT_TRUE(response.result.IdenticalTo(decoded.result));
  EXPECT_EQ(decoded.stats.max_intermediate_rows, 100);
  EXPECT_EQ(decoded.stats.result_rows, 2);
  EXPECT_EQ(decoded.query_stats.queue_wait_seconds, 0.25);
  EXPECT_EQ(decoded.query_stats.run_time_seconds, 1.5);
  EXPECT_EQ(decoded.query_stats.tasks, 8);
  EXPECT_EQ(decoded.query_stats.probe_rows_pruned, 3);
  EXPECT_EQ(decoded.query_stats.queue_depth_at_admit, 4);
  ASSERT_TRUE(decoded.has_plan);
  EXPECT_EQ(decoded.plan.num_statements, 8);
  EXPECT_EQ(decoded.plan.critical_path, 7);
  EXPECT_EQ(decoded.plan.strategy, Strategy::kYannakakis);
}

TEST(FrameCodecTest, StatusResponseRoundTrips) {
  StatusResponse status;
  status.pool.threads = 4;
  status.pool.max_concurrent_queries = 2;
  status.pool.running = 2;
  status.pool.waiting = 3;
  status.pool.submitters.push_back({7, 1, 0});
  status.pool.submitters.push_back({9, 1, 3});
  status.connections_accepted = 10;
  status.connections_active = 4;
  status.queries_served = 25;
  status.queries_shed_deadline = 2;
  status.queries_shed_backlog = 1;
  status.protocol_errors = 3;
  status.draining = true;
  status.sip_rows_pruned = 17;
  status.zone_map_skips = 40;

  std::vector<uint8_t> body =
      Body(EncodeStatusResponse(status), FrameType::kStatusResponse);
  StatusResponse decoded;
  std::string error;
  ASSERT_TRUE(
      DecodeStatusResponse(body.data(), body.size(), &decoded, &error))
      << error;
  EXPECT_EQ(decoded.pool.threads, 4);
  EXPECT_EQ(decoded.pool.waiting, 3);
  ASSERT_EQ(decoded.pool.submitters.size(), 2u);
  EXPECT_EQ(decoded.pool.submitters[1].id, 9u);
  EXPECT_EQ(decoded.pool.submitters[1].waiting, 3);
  EXPECT_EQ(decoded.queries_served, 25u);
  EXPECT_EQ(decoded.queries_shed_deadline, 2u);
  EXPECT_TRUE(decoded.draining);
  EXPECT_EQ(decoded.sip_rows_pruned, 17u);
  EXPECT_EQ(decoded.zone_map_skips, 40u);

  // A submitter count that promises more entries than the bytes on hand
  // fails before any allocation.
  std::vector<uint8_t> lying = body;
  lying[4] = 0x7f;  // pool header is five 1-byte varints; last is the count
  EXPECT_FALSE(
      DecodeStatusResponse(lying.data(), lying.size(), &decoded, &error));
}

TEST(FrameCodecTest, ErrorFrameRoundTripsAndValidates) {
  std::vector<uint8_t> body = Body(
      EncodeError(ErrorCode::kDeadlineExceeded, "too slow"), FrameType::kError);
  ErrorReply reply;
  std::string error;
  ASSERT_TRUE(DecodeError(body.data(), body.size(), &reply, &error)) << error;
  EXPECT_EQ(reply.code, ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(reply.message, "too slow");
  EXPECT_STREQ(ErrorCodeName(reply.code), "deadline_exceeded");

  // Out-of-range code byte.
  std::vector<uint8_t> bad = body;
  bad[0] = 99;
  EXPECT_FALSE(DecodeError(bad.data(), bad.size(), &reply, &error));
}

TEST(FrameCodecTest, SafeParseRejectsWhatTheCliParserAbortsOn) {
  Catalog catalog;
  DatabaseSchema schema;
  AttrSet target;
  std::string error;
  EXPECT_FALSE(SafeParseSchema(catalog, "", &schema, &error));
  EXPECT_FALSE(SafeParseSchema(catalog, "ab,,cd", &schema, &error));
  EXPECT_FALSE(SafeParseSchema(catalog, ",ab", &schema, &error));
  EXPECT_FALSE(SafeParseSchema(catalog, "ab, \t ,cd", &schema, &error));
  EXPECT_FALSE(SafeParseAttrSet(catalog, "", &target, &error));
  EXPECT_FALSE(SafeParseAttrSet(catalog, "  ", &target, &error));
  EXPECT_TRUE(SafeParseSchema(catalog, "ab,bc,cd", &schema, &error));
  EXPECT_EQ(schema.NumRelations(), 3);
  EXPECT_TRUE(SafeParseAttrSet(catalog, "ad", &target, &error));
  EXPECT_EQ(target.Size(), 2);

  // The wire parser additionally bounds spec size and relation count so a
  // small hostile frame cannot force a huge parse.
  std::string huge(100000, 'a');
  EXPECT_FALSE(SafeParseSchema(catalog, huge, &schema, &error));
  std::string many = "ab";
  for (int i = 0; i < 2000; ++i) many += ",ab";
  EXPECT_FALSE(SafeParseSchema(catalog, many, &schema, &error));
}

}  // namespace
}  // namespace serve
}  // namespace gyo
