#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "common/buffer.h"
#include "common/coding.h"
#include "common/crc.h"
#include "common/histogram.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/trace.h"
#include "common/trace_export.h"

namespace memdb {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CodesAndMessages) {
  Status s = Status::NotFound("missing key");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: missing key");

  EXPECT_TRUE(Status::WrongType().IsWrongType());
  EXPECT_TRUE(Status::ConditionFailed().IsConditionFailed());
  EXPECT_TRUE(Status::Unavailable("x").IsUnavailable());
  EXPECT_TRUE(Status::TimedOut().IsTimedOut());
  EXPECT_TRUE(Status::Corruption("bad crc").IsCorruption());
  EXPECT_TRUE(Status::Moved("MOVED 1 n2").IsMoved());
  EXPECT_TRUE(Status::Ask("ASK 1 n2").IsAsk());
}

TEST(StatusTest, ResultValue) {
  Result<int> r = 7;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_TRUE(r.status().ok());
}

TEST(StatusTest, ResultError) {
  Result<int> r = Status::NotFound();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status UseReturnIfError(int x) {
  MEMDB_RETURN_IF_ERROR(FailIfNegative(x));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorMacro) {
  EXPECT_TRUE(UseReturnIfError(1).ok());
  EXPECT_FALSE(UseReturnIfError(-1).ok());
}

Result<int> Doubled(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return 2 * x;
}

Result<int> UseAssignOrReturn(int x) {
  MEMDB_ASSIGN_OR_RETURN(int v, Doubled(x));
  return v + 1;
}

TEST(StatusTest, AssignOrReturnMacro) {
  auto ok = UseAssignOrReturn(3);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 7);
  EXPECT_FALSE(UseAssignOrReturn(-3).ok());
}

// ---------------------------------------------------------------- Slice

TEST(SliceTest, Basics) {
  std::string s = "hello";
  Slice sl(s);
  EXPECT_EQ(sl.size(), 5u);
  EXPECT_EQ(sl.ToString(), "hello");
  EXPECT_EQ(sl, Slice("hello"));
  EXPECT_NE(sl, Slice("hellO"));
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").compare(Slice("abc")), 0);
}

// ---------------------------------------------------------------- CRC

TEST(CrcTest, Crc16KnownVector) {
  // "123456789" -> 0x31C3 for CRC16-CCITT/XMODEM (value in the Redis
  // Cluster specification).
  EXPECT_EQ(Crc16("123456789", 9), 0x31C3);
}

TEST(CrcTest, Crc16EmptyIsZero) { EXPECT_EQ(Crc16("", 0), 0); }

// The slicing-by-8 implementation against a bit-at-a-time reference, over
// every length up to a few hundred bytes and every alignment of the start.
TEST(CrcTest, Crc16MatchesBitwiseReference) {
  auto reference_step = [](uint16_t crc, char c) {
    crc ^= static_cast<uint16_t>(static_cast<uint8_t>(c) << 8);
    for (int b = 0; b < 8; ++b) {
      crc = static_cast<uint16_t>((crc & 0x8000) ? (crc << 1) ^ 0x1021
                                                 : crc << 1);
    }
    return crc;
  };
  Rng rng(0xc4c16);
  std::string buf(300 + 8, '\0');
  for (char& c : buf) c = static_cast<char>(rng.Next());
  for (size_t offset = 0; offset < 8; ++offset) {
    const char* p = buf.data() + offset;
    uint16_t want = 0;  // reference CRC of p[0, len)
    for (size_t len = 0; len <= 300; ++len) {
      if (len > 0) want = reference_step(want, p[len - 1]);
      ASSERT_EQ(Crc16(p, len), want) << "offset " << offset << " len " << len;
    }
  }
}

TEST(CrcTest, Crc64Properties) {
  // Streaming equals one-shot.
  const std::string data = "the quick brown fox jumps over the lazy dog";
  uint64_t one_shot = Crc64(0, data.data(), data.size());
  uint64_t streamed = 0;
  for (char c : data) streamed = Crc64(streamed, &c, 1);
  EXPECT_EQ(one_shot, streamed);
  EXPECT_NE(one_shot, 0u);
  // Sensitivity to single-bit change.
  std::string data2 = data;
  data2[7] ^= 1;
  EXPECT_NE(Crc64(0, data2.data(), data2.size()), one_shot);
  // The check value of the Redis CRC64 (Jones, reflected, no final xor).
  EXPECT_EQ(Crc64(0, "123456789", 9), 0xe9c6d914c4b8d9caULL);

  // The table-driven implementation against a bit-at-a-time reference,
  // over every length up to a few pages, every alignment of the start
  // pointer, zero and nonzero seeds, and a running value handed over
  // mid-buffer.
  constexpr uint64_t kPoly = 0x95ac9329ac4bc9b5ULL;  // Jones, reflected
  auto reference_step = [](uint64_t crc, char c) {
    crc ^= static_cast<uint8_t>(c);
    for (int b = 0; b < 8; ++b) crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    return crc;
  };
  Rng rng(0xc4c64);
  std::string buf(4100 + 8, '\0');
  for (char& c : buf) c = static_cast<char>(rng.Next());
  for (size_t offset = 0; offset < 8; ++offset) {
    const char* p = buf.data() + offset;
    const uint64_t seed = offset % 2 == 0 ? 0 : rng.Next();
    uint64_t want = seed;  // reference CRC of p[0, len)
    for (size_t len = 0; len <= 4100; ++len) {
      if (len > 0) want = reference_step(want, p[len - 1]);
      ASSERT_EQ(Crc64(seed, p, len), want)
          << "offset " << offset << " len " << len;
      const size_t split = len / 3;
      ASSERT_EQ(Crc64(Crc64(seed, p, split), p + split, len - split), want)
          << "offset " << offset << " len " << len << " split " << split;
    }
  }
}

TEST(CrcTest, HashSlotInRangeAndStable) {
  std::set<uint16_t> slots;
  for (int i = 0; i < 1000; ++i) {
    std::string key = "key:" + std::to_string(i);
    uint16_t slot = KeyHashSlot(key);
    EXPECT_LT(slot, kNumSlots);
    EXPECT_EQ(slot, KeyHashSlot(key));  // deterministic
    slots.insert(slot);
  }
  // Keys should spread over many slots.
  EXPECT_GT(slots.size(), 800u);
}

TEST(CrcTest, HashTagsRouteToSameSlot) {
  EXPECT_EQ(KeyHashSlot("{user1000}.following"),
            KeyHashSlot("{user1000}.followers"));
  EXPECT_EQ(KeyHashSlot("foo{bar}baz"), KeyHashSlot("{bar}"));
  // Empty tag means the whole key is hashed.
  const std::string k = "foo{}{bar}";
  EXPECT_EQ(KeyHashSlot(k), Crc16(k.data(), k.size()) % 16384);
  // Only the first '{' opens a tag.
  EXPECT_EQ(KeyHashSlot("foo{{bar}}zap"), KeyHashSlot("{{bar}"));
}

// ---------------------------------------------------------------- Coding

TEST(CodingTest, FixedRoundTrip) {
  std::string buf;
  PutFixed16(&buf, 0xBEEF);
  PutFixed32(&buf, 0xDEADBEEFu);
  PutFixed64(&buf, 0x0123456789ABCDEFULL);
  Decoder dec(buf);
  uint16_t a;
  uint32_t b;
  uint64_t c;
  ASSERT_TRUE(dec.GetFixed16(&a));
  ASSERT_TRUE(dec.GetFixed32(&b));
  ASSERT_TRUE(dec.GetFixed64(&c));
  EXPECT_EQ(a, 0xBEEF);
  EXPECT_EQ(b, 0xDEADBEEFu);
  EXPECT_EQ(c, 0x0123456789ABCDEFULL);
  EXPECT_TRUE(dec.Empty());
}

TEST(CodingTest, VarintRoundTrip) {
  std::string buf;
  const uint64_t values[] = {0,       1,        127,        128,
                             300,     16383,    16384,      1ULL << 32,
                             ~0ULL,   42,       (1ULL << 56) + 3};
  for (uint64_t v : values) PutVarint64(&buf, v);
  Decoder dec(buf);
  for (uint64_t v : values) {
    uint64_t got;
    ASSERT_TRUE(dec.GetVarint64(&got));
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(dec.Empty());
}

TEST(CodingTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  PutLengthPrefixed(&buf, "");
  PutLengthPrefixed(&buf, std::string(1000, 'x'));
  Decoder dec(buf);
  std::string a, b, c;
  ASSERT_TRUE(dec.GetLengthPrefixed(&a));
  ASSERT_TRUE(dec.GetLengthPrefixed(&b));
  ASSERT_TRUE(dec.GetLengthPrefixed(&c));
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "");
  EXPECT_EQ(c, std::string(1000, 'x'));
}

TEST(CodingTest, DoubleRoundTrip) {
  std::string buf;
  PutDouble(&buf, 3.14159);
  PutDouble(&buf, -0.0);
  PutDouble(&buf, 1e300);
  Decoder dec(buf);
  double a, b, c;
  ASSERT_TRUE(dec.GetDouble(&a));
  ASSERT_TRUE(dec.GetDouble(&b));
  ASSERT_TRUE(dec.GetDouble(&c));
  EXPECT_DOUBLE_EQ(a, 3.14159);
  EXPECT_DOUBLE_EQ(b, -0.0);
  EXPECT_DOUBLE_EQ(c, 1e300);
}

TEST(CodingTest, TruncatedInputFails) {
  std::string buf;
  PutFixed64(&buf, 1);
  Decoder dec(Slice(buf.data(), 4));
  uint64_t v;
  EXPECT_FALSE(dec.GetFixed64(&v));

  std::string buf2;
  PutLengthPrefixed(&buf2, "hello world");
  Decoder dec2(Slice(buf2.data(), 3));
  std::string s;
  EXPECT_FALSE(dec2.GetLengthPrefixed(&s));
}

TEST(CodingTest, VarintOverlongFails) {
  std::string buf(11, '\xff');  // never terminates within 10 bytes
  Decoder dec(buf);
  uint64_t v;
  EXPECT_FALSE(dec.GetVarint64(&v));
}

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123), c(124);
  bool all_equal = true;
  bool any_diff_seed = false;
  for (int i = 0; i < 100; ++i) {
    uint64_t x = a.Next(), y = b.Next(), z = c.Next();
    all_equal &= (x == y);
    any_diff_seed |= (x != z);
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff_seed);
}

TEST(RngTest, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
    uint64_t v = rng.UniformRange(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, RandomStringLengthAndCharset) {
  Rng rng(9);
  std::string s = rng.RandomString(64);
  EXPECT_EQ(s.size(), 64u);
  for (char ch : s) EXPECT_TRUE(isalnum(static_cast<unsigned char>(ch)));
}

TEST(RngTest, SkewedStaysInRange) {
  Rng rng(11);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 10000; ++i) {
    uint64_t v = rng.Skewed(100, 0.7);
    ASSERT_LT(v, 100u);
    counts[v]++;
  }
  // Skew should favor small values: far more mass below 10 than the 10%
  // a uniform distribution would place there.
  int low = 0;
  for (auto& [v, n] : counts) {
    if (v < 10) low += n;
  }
  EXPECT_GT(low, 2500);
}

// ---------------------------------------------------------------- Histogram

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_NEAR(h.Mean(), 500.5, 0.01);
  // Bucketed percentiles: allow ~5% relative error.
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.5)), 500.0, 30.0);
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.99)), 990.0, 50.0);
  EXPECT_EQ(h.Percentile(1.0), 1000u);
}

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(0.99), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
}

TEST(HistogramTest, MergeMatchesCombined) {
  Histogram a, b, combined;
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    uint64_t v = rng.Uniform(100000);
    (i % 2 == 0 ? a : b).Record(v);
    combined.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.max(), combined.max());
  EXPECT_EQ(a.Percentile(0.5), combined.Percentile(0.5));
  EXPECT_EQ(a.Percentile(0.99), combined.Percentile(0.99));
}

TEST(HistogramTest, LargeValues) {
  Histogram h;
  h.Record(3'600'000'000ULL);  // one hour in us
  EXPECT_EQ(h.max(), 3'600'000'000ULL);
  EXPECT_EQ(h.Percentile(1.0), 3'600'000'000ULL);
  double p50 = static_cast<double>(h.Percentile(0.5));
  EXPECT_NEAR(p50, 3.6e9, 3.6e9 * 0.04);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Record(10);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(HistogramTest, MergeWithEmpty) {
  Histogram populated, empty;
  for (uint64_t v = 1; v <= 100; ++v) populated.Record(v);
  const uint64_t p50 = populated.Percentile(0.5);

  // Empty into populated: no-op.
  populated.Merge(empty);
  EXPECT_EQ(populated.count(), 100u);
  EXPECT_EQ(populated.Percentile(0.5), p50);

  // Populated into empty: exact copy of the distribution.
  empty.Merge(populated);
  EXPECT_EQ(empty.count(), 100u);
  EXPECT_EQ(empty.min(), populated.min());
  EXPECT_EQ(empty.max(), populated.max());
  EXPECT_EQ(empty.sum(), populated.sum());
  EXPECT_EQ(empty.Percentile(0.99), populated.Percentile(0.99));

  // Empty into empty stays empty.
  Histogram a, b;
  a.Merge(b);
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.Percentile(0.5), 0u);
}

TEST(HistogramTest, MergePartialOverlap) {
  // Disjoint ranges: low values in one, high in the other.
  Histogram low, high;
  for (uint64_t v = 1; v <= 100; ++v) low.Record(v);
  for (uint64_t v = 10'000; v <= 10'100; ++v) high.Record(v);
  low.Merge(high);
  EXPECT_EQ(low.count(), 201u);
  EXPECT_EQ(low.min(), 1u);
  EXPECT_EQ(low.max(), 10'100u);
  // Median sits in the low range; p99 in the high range.
  EXPECT_LE(low.Percentile(0.45), 110u);
  EXPECT_GE(low.Percentile(0.99), 9'000u);
}

TEST(HistogramTest, PercentileMonotonicAcrossBuckets) {
  // A distribution spanning many power-of-two bucket boundaries; quantile
  // results must be non-decreasing in q even where the bucket width jumps.
  Histogram h;
  Rng rng(7);
  for (int i = 0; i < 20'000; ++i) h.Record(1 + rng.Uniform(1'000'000));
  uint64_t prev = 0;
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    const uint64_t v = h.Percentile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
  EXPECT_EQ(h.Percentile(1.0), h.max());
}

TEST(HistogramTest, SubBucketEdges) {
  // Values at exact power-of-two and sub-bucket boundaries must round-trip
  // within the documented ~3.2% relative error (1/32 sub-bucket width).
  for (uint64_t v : {1ULL, 31ULL, 32ULL, 33ULL, 63ULL, 64ULL, 65ULL,
                     1023ULL, 1024ULL, 1025ULL, (1ULL << 20),
                     (1ULL << 20) + 1}) {
    Histogram h;
    h.Record(v);
    const double got = static_cast<double>(h.Percentile(0.5));
    EXPECT_NEAR(got, static_cast<double>(v), static_cast<double>(v) * 0.04)
        << "v=" << v;
  }
}

TEST(HistogramTest, NearUint64Max) {
  Histogram h;
  const uint64_t huge = ~0ULL - 1;
  h.Record(huge);
  h.Record(~0ULL);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.max(), ~0ULL);
  // Bucketed representative must stay in range (no overflow wrap to 0).
  EXPECT_GE(h.Percentile(0.5), huge / 2);
  EXPECT_EQ(h.Percentile(1.0), ~0ULL);
}

TEST(HistogramTest, ResetThenRecord) {
  Histogram h;
  for (uint64_t v = 1'000; v <= 2'000; ++v) h.Record(v);
  h.Reset();
  h.Record(5);
  h.Record(7);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.min(), 5u);
  EXPECT_EQ(h.max(), 7u);
  EXPECT_EQ(h.sum(), 12u);
  // Percentiles reflect only post-reset samples.
  EXPECT_LE(h.Percentile(0.99), 8u);
}

// ---------------------------------------------------------------- Metrics

TEST(MetricsRegistryTest, InstrumentsAreStableAndShared) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("requests_total", {{"op", "GET"}});
  c->Increment(3);
  // Same name+labels (any order) returns the same instrument.
  EXPECT_EQ(reg.GetCounter("requests_total", {{"op", "GET"}}), c);
  EXPECT_EQ(c->value(), 3u);
  // Different labels make a different series.
  EXPECT_NE(reg.GetCounter("requests_total", {{"op", "SET"}}), c);
  // Find does not create.
  EXPECT_EQ(reg.FindCounter("absent"), nullptr);
  EXPECT_EQ(reg.FindCounter("requests_total", {{"op", "GET"}}), c);
}

TEST(MetricsRegistryTest, LabelOrderIsNormalized) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("x", {{"a", "1"}, {"b", "2"}});
  Counter* b = reg.GetCounter("x", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(a, b);
}

TEST(MetricsRegistryTest, SnapshotDelta) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("ops");
  Histogram* h = reg.GetHistogram("lat_us");
  c->Increment(10);
  h->Record(100);
  auto before = reg.TakeSnapshot();
  c->Increment(5);
  h->Record(200);
  auto after = reg.TakeSnapshot();
  auto delta = MetricsRegistry::Delta(after, before);
  EXPECT_EQ(delta.values.at("ops"), 5);
  EXPECT_EQ(delta.values.at("lat_us_count"), 1);
  EXPECT_EQ(delta.values.at("lat_us_sum"), 200);
}

TEST(MetricsRegistryTest, ResetAllKeepsPointersValid) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("ops");
  Gauge* g = reg.GetGauge("depth");
  Histogram* h = reg.GetHistogram("lat_us");
  c->Increment(7);
  g->Set(9);
  h->Record(50);
  reg.ResetAll();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(g->value(), 0);
  EXPECT_EQ(h->count(), 0u);
  // The same pointers keep working after the reset.
  c->Increment();
  EXPECT_EQ(reg.FindCounter("ops")->value(), 1u);
}

TEST(MetricsRegistryTest, ExpositionAndParse) {
  MetricsRegistry reg;
  reg.GetCounter("ops", {{"cmd", "SET"}})->Increment(42);
  reg.GetGauge("depth")->Set(-3);
  for (int i = 0; i < 100; ++i) reg.GetHistogram("lat_us")->Record(100);
  const std::string text = reg.ExpositionText();
  EXPECT_NE(text.find("# TYPE ops counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat_us summary"), std::string::npos);
  double v = 0;
  ASSERT_TRUE(MetricsRegistry::ParseSeries(text, "ops{cmd=\"SET\"}", &v));
  EXPECT_EQ(v, 42.0);
  ASSERT_TRUE(MetricsRegistry::ParseSeries(text, "depth", &v));
  EXPECT_EQ(v, -3.0);
  ASSERT_TRUE(MetricsRegistry::ParseSeries(text, "lat_us_count", &v));
  EXPECT_EQ(v, 100.0);
  ASSERT_TRUE(
      MetricsRegistry::ParseSeries(text, "lat_us{quantile=\"0.99\"}", &v));
  EXPECT_NEAR(v, 100.0, 5.0);
  EXPECT_FALSE(MetricsRegistry::ParseSeries(text, "absent", &v));
}

// ---------------------------------------------------------------- TraceLog

TEST(TraceLogTest, RecordAndReconstruct) {
  TraceLog node, leader;
  const uint64_t id = 0x700000001ULL;
  node.Record(id, "cmd.receive", 10);
  node.Record(id, "pipeline.enqueue", 12);
  node.Record(id, "append.issue", 15);
  leader.Record(id, "log.append.receive", 16);
  leader.Record(id, "log.quorum.commit", 20, /*detail=*/7);
  node.Record(id, "append.ack", 22);
  node.Record(id, "cmd.release", 22);
  node.Record(999, "cmd.receive", 11);  // unrelated trace

  auto spans = TraceLog::Reconstruct(id, {&node, &leader});
  ASSERT_EQ(spans.size(), 7u);
  const char* expected[] = {"cmd.receive",        "pipeline.enqueue",
                            "append.issue",       "log.append.receive",
                            "log.quorum.commit",  "append.ack",
                            "cmd.release"};
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].stage, expected[i]) << i;
    if (i > 0) {
      EXPECT_GE(spans[i].at_us, spans[i - 1].at_us);
    }
  }
  EXPECT_EQ(spans[4].detail, 7u);
}

TEST(TraceLogTest, ZeroIdIsIgnoredAndCapacityBounded) {
  TraceLog log(/*capacity=*/4);
  log.Record(0, "cmd.receive", 1);  // untraced work records nothing
  EXPECT_TRUE(log.Snapshot().empty());
  for (uint64_t i = 1; i <= 10; ++i) log.Record(i, "s", i);
  const auto spans = log.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans.front().trace_id, 7u);  // oldest dropped
  EXPECT_TRUE(log.ForTrace(1).empty());
  EXPECT_EQ(log.ForTrace(10).size(), 1u);
}

TEST(TraceLogTest, RingEvictionAtCapacityBoundary) {
  TraceLog log(/*capacity=*/4);
  // Exactly at capacity: nothing evicted, insertion order preserved.
  for (uint64_t i = 1; i <= 4; ++i) log.Record(i, "s", 100 + i, i);
  auto spans = log.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(spans[i].trace_id, i + 1);
    EXPECT_EQ(spans[i].at_us, 101 + i);
    EXPECT_EQ(spans[i].detail, i + 1);
  }
  // One past capacity: exactly the oldest span falls off.
  log.Record(5, "s", 105, 5);
  spans = log.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans.front().trace_id, 2u);
  EXPECT_EQ(spans.back().trace_id, 5u);
  // A full extra lap lands back on a full ring with the newest 4.
  for (uint64_t i = 6; i <= 9; ++i) log.Record(i, "s", 100 + i, i);
  spans = log.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans.front().trace_id, 6u);
  EXPECT_EQ(spans.back().trace_id, 9u);
  log.Clear();
  EXPECT_TRUE(log.Snapshot().empty());
  EXPECT_EQ(log.size(), 0u);
}

TEST(TraceLogTest, ReconstructStableOrderOnEqualTimestamps) {
  // Same-stamp spans must keep per-log insertion order, and the merge order
  // must be the log-argument order — i.e. stable sort, never reshuffled.
  TraceLog a, b;
  const uint64_t id = 42;
  a.Record(id, "first", 100);
  a.Record(id, "second", 100);
  a.Record(id, "third", 100);
  b.Record(id, "fourth", 100);
  b.Record(id, "fifth", 100);
  const auto spans = TraceLog::Reconstruct(id, {&a, &b});
  ASSERT_EQ(spans.size(), 5u);
  const char* expected[] = {"first", "second", "third", "fourth", "fifth"};
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].stage, expected[i]) << i;
  }
}

TEST(TraceLogTest, LongStageNameIsTruncatedNotCorrupted) {
  TraceLog log(8);
  const std::string longname(200, 'x');
  log.Record(1, longname, 5);
  const auto spans = log.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].stage, longname.substr(0, 47));
}

TEST(TraceLogTest, ConcurrentRecordAndSnapshot) {
  // Writers hammer a small ring while a reader snapshots concurrently; every
  // span a snapshot yields must be internally consistent (stage, time and
  // detail match the trace id they were written with). TSan-checked via
  // scripts/check.sh.
  TraceLog log(/*capacity=*/64);
  std::atomic<bool> stop{false};
  std::thread writers[2];
  for (int w = 0; w < 2; ++w) {
    writers[w] = std::thread([&log, &stop, w] {
      uint64_t n = 1;
      while (!stop.load(std::memory_order_acquire)) {
        const uint64_t id = (static_cast<uint64_t>(w + 1) << 32) | n++;
        log.Record(id, w == 0 ? "even.stage" : "odd.stage", id + 1, ~id);
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    for (const TraceSpan& s : log.Snapshot()) {
      ASSERT_NE(s.trace_id, 0u);
      const bool even = (s.trace_id >> 32) == 1;
      EXPECT_EQ(s.stage, even ? "even.stage" : "odd.stage");
      EXPECT_EQ(s.at_us, s.trace_id + 1);
      EXPECT_EQ(s.detail, ~s.trace_id);
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : writers) t.join();
}

TEST(TraceSamplerTest, RateGatesTraceIds) {
  TraceSampler off(0);
  for (int i = 0; i < 8; ++i) EXPECT_FALSE(off.Sample());
  TraceSampler all(1);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(all.Sample());
  TraceSampler tenth(10);
  int hits = 0;
  for (int i = 0; i < 100; ++i) hits += tenth.Sample() ? 1 : 0;
  EXPECT_EQ(hits, 10);
  // MakeTraceId keeps origins apart and counters within their 40-bit lane.
  EXPECT_NE(MakeTraceId(1, 5), MakeTraceId(2, 5));
  EXPECT_EQ(MakeTraceId(3, 5) >> 40, 3u);
}

// ------------------------------------------------------------ trace export

TEST(TraceExportTest, JsonlRoundTrip) {
  TraceLog log(16);
  log.Record(7, "cmd.receive", 100, 1);
  log.Record(7, "reply.release", 250, 2);
  log.Record(9, "cmd.receive", 300);
  const std::string jsonl = ExportSpansJsonl(log, "server");
  std::vector<ExportedSpan> spans;
  ASSERT_EQ(ParseSpansJsonl(jsonl, &spans), 3u);
  EXPECT_EQ(spans[0].proc, "server");
  EXPECT_EQ(spans[0].trace_id, 7u);
  EXPECT_EQ(spans[0].stage, "cmd.receive");
  EXPECT_EQ(spans[0].mono_us, 100u);
  EXPECT_EQ(spans[0].detail, 1u);
  // Wall stamps preserve monotonic deltas exactly (same anchor pair).
  EXPECT_EQ(spans[1].wall_us - spans[0].wall_us, 150u);
  const auto by_trace = GroupSpansByTrace(std::move(spans));
  ASSERT_EQ(by_trace.size(), 2u);
  EXPECT_EQ(by_trace.at(7).size(), 2u);
  EXPECT_EQ(by_trace.at(9).size(), 1u);
}

TEST(TraceExportTest, WritePathReportTelescopes) {
  // A synthetic two-process trace covering the full chain: per-stage deltas
  // must telescope to exactly the end-to-end latency.
  const std::vector<std::string>& chain = WritePathChain();
  std::vector<ExportedSpan> spans;
  uint64_t at = 1000;
  for (const std::string& stage : chain) {
    ExportedSpan s;
    s.proc = stage.rfind("log.", 0) == 0 ? "txlogd-1" : "server";
    s.trace_id = 11;
    s.stage = stage;
    s.wall_us = at;
    at += 10;
    spans.push_back(std::move(s));
  }
  // A second trace missing the middle stages still bridges front to back.
  spans.push_back(ExportedSpan{"server", 12, chain.front(), 5000, 0, 0});
  spans.push_back(ExportedSpan{"server", 12, chain.back(), 5400, 0, 0});
  const auto by_trace = GroupSpansByTrace(std::move(spans));
  const WritePathReport report = BuildWritePathReport(by_trace, chain);
  EXPECT_EQ(report.traces, 2u);
  EXPECT_EQ(report.complete_chains, 2u);
  ASSERT_EQ(report.end_to_end_us.count(), 2u);
  uint64_t delta_sum = 0;
  for (const StageDelta& d : report.deltas) delta_sum += d.latency_us.sum();
  EXPECT_EQ(delta_sum, report.end_to_end_us.sum());
  const uint64_t full_chain_total = 10 * (chain.size() - 1);
  EXPECT_EQ(report.end_to_end_us.sum(), full_chain_total + 400);
}

TEST(BufferTest, ALargeBurstsBufferGoesBackAfterASmallOne) {
  std::string steady(64 * 1024, 'x');
  const size_t kept = steady.capacity();
  ClearDrained(&steady);
  EXPECT_TRUE(steady.empty());
  EXPECT_EQ(steady.capacity(), kept);  // steady frames reuse their buffer

  std::string buf(2 * kMaxIdleBufferBytes, 'x');
  const size_t large = buf.capacity();
  ClearDrained(&buf);
  EXPECT_EQ(buf.capacity(), large);  // large frames back to back reuse it
  buf.assign(100, 'x');
  ClearDrained(&buf);
  EXPECT_LE(buf.capacity(), kMaxIdleBufferBytes);  // a small one frees it
}

TEST(MetricsTest, ExpositionHelpAndLabelEscaping) {
  MetricsRegistry reg;
  reg.SetHelp("ops", "operations by command");
  reg.GetCounter("ops", {{"cmd", "we\"ird\\name\nx"}})->Increment(3);
  reg.GetCounter("plain")->Increment();
  const std::string text = reg.ExpositionText();
  EXPECT_NE(text.find("# HELP ops operations by command"), std::string::npos);
  // Families without registered help still get a HELP line (required to
  // precede TYPE + samples in the text format).
  EXPECT_NE(text.find("# HELP plain"), std::string::npos);
  EXPECT_NE(text.find("ops{cmd=\"we\\\"ird\\\\name\\nx\"} 3"),
            std::string::npos);
  EXPECT_EQ(MetricsRegistry::EscapeLabelValue("a\\b\"c\nd"),
            "a\\\\b\\\"c\\nd");
}

}  // namespace
}  // namespace memdb
