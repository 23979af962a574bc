// Unit tests for the base module: strong types, status, rng, align, clock,
// json.

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <set>
#include <string>
#include <unordered_set>

#include "base/align.h"
#include "base/clock.h"
#include "base/json.h"
#include "base/log.h"
#include "base/rng.h"
#include "base/status.h"
#include "base/types.h"

namespace spv {
namespace {

// ---- types ------------------------------------------------------------------

TEST(TypesTest, PfnToPhysBase) {
  EXPECT_EQ(Pfn{0}.PhysBase(), 0u);
  EXPECT_EQ(Pfn{1}.PhysBase(), 4096u);
  EXPECT_EQ(Pfn{256}.PhysBase(), 256u * 4096u);
}

TEST(TypesTest, PhysAddrDecomposition) {
  PhysAddr addr{(5ull << kPageShift) | 0x123};
  EXPECT_EQ(addr.pfn().value, 5u);
  EXPECT_EQ(addr.page_offset(), 0x123u);
}

TEST(TypesTest, PhysAddrFromPfnMasksOffset) {
  PhysAddr addr = PhysAddr::FromPfn(Pfn{7}, kPageSize + 5);  // offset wraps into page
  EXPECT_EQ(addr.pfn().value, 7u);
  EXPECT_EQ(addr.page_offset(), 5u);
}

TEST(TypesTest, KvaArithmetic) {
  Kva a{0x1000};
  Kva b = a + 0x234;
  EXPECT_EQ(b.value, 0x1234u);
  EXPECT_EQ(b - a, 0x234u);
  EXPECT_EQ(b.page_offset(), 0x234u);
  EXPECT_EQ(b.PageBase(), a);
}

TEST(TypesTest, IovaPageDecomposition) {
  Iova iova{0xdead000 | 0x7c};
  EXPECT_EQ(iova.page_offset(), 0x7cu);
  EXPECT_EQ(iova.PageBase().value, 0xdead000u);
}

TEST(TypesTest, StrongTypesAreOrdered) {
  EXPECT_LT(Kva{1}, Kva{2});
  EXPECT_LT(Pfn{1}, Pfn{2});
  EXPECT_LT(Iova{1}, Iova{2});
  EXPECT_EQ(DeviceId{3}, DeviceId{3});
}

TEST(TypesTest, HashableInUnorderedContainers) {
  std::unordered_set<Kva> kvas{Kva{1}, Kva{2}, Kva{1}};
  EXPECT_EQ(kvas.size(), 2u);
  std::unordered_set<Pfn> pfns{Pfn{9}, Pfn{9}};
  EXPECT_EQ(pfns.size(), 1u);
}

// ---- status -----------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = PermissionDenied("iommu fault");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(s.ToString(), "PERMISSION_DENIED: iommu fault");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (auto code : {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
                    StatusCode::kAlreadyExists, StatusCode::kPermissionDenied,
                    StatusCode::kResourceExhausted, StatusCode::kFailedPrecondition,
                    StatusCode::kOutOfRange, StatusCode::kUnavailable, StatusCode::kInternal}) {
    EXPECT_NE(StatusCodeName(code), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r{42};
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r{NotFound("nope")};
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r{std::string("payload")};
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "payload");
}

// ---- rng --------------------------------------------------------------------

TEST(RngTest, SplitMixIsDeterministic) {
  SplitMix64 a{123}, b{123};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, XoshiroIsDeterministicPerSeed) {
  Xoshiro256 a{7}, b{7}, c{8};
  bool any_diff = false;
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
    if (va != c.Next()) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, NextBelowStaysInBound) {
  Xoshiro256 rng{99};
  for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBelow(bound), bound);
    }
  }
}

TEST(RngTest, NextBelowZeroBoundIsZero) {
  Xoshiro256 rng{1};
  EXPECT_EQ(rng.NextBelow(0), 0u);
}

TEST(RngTest, NextInRangeInclusive) {
  Xoshiro256 rng{5};
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.NextInRange(10, 12);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 12u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);  // all three values hit
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Xoshiro256 rng{17};
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBoolRespectsProbabilityRoughly) {
  Xoshiro256 rng{23};
  int hits = 0;
  constexpr int kTrials = 10000;
  for (int i = 0; i < kTrials; ++i) {
    hits += rng.NextBool(0.25) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, 0.25, 0.03);
}

// ---- align ------------------------------------------------------------------

TEST(AlignTest, AlignUpDown) {
  EXPECT_EQ(AlignUp(0, 8), 0u);
  EXPECT_EQ(AlignUp(1, 8), 8u);
  EXPECT_EQ(AlignUp(8, 8), 8u);
  EXPECT_EQ(AlignDown(15, 8), 8u);
  EXPECT_EQ(AlignDown(16, 8), 16u);
}

TEST(AlignTest, IsAligned) {
  EXPECT_TRUE(IsAligned(4096, 4096));
  EXPECT_FALSE(IsAligned(4097, 4096));
  EXPECT_TRUE(IsAligned(0, 64));
}

TEST(AlignTest, PowerOfTwoHelpers) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(4096));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(12));
  EXPECT_EQ(RoundUpPowerOfTwo(5), 8u);
  EXPECT_EQ(RoundUpPowerOfTwo(8), 8u);
}

TEST(AlignTest, Log2Helpers) {
  EXPECT_EQ(Log2Floor(1), 0u);
  EXPECT_EQ(Log2Floor(2), 1u);
  EXPECT_EQ(Log2Floor(3), 1u);
  EXPECT_EQ(Log2Floor(4096), 12u);
  EXPECT_EQ(Log2Ceil(1), 0u);
  EXPECT_EQ(Log2Ceil(3), 2u);
  EXPECT_EQ(Log2Ceil(4096), 12u);
  EXPECT_EQ(Log2Ceil(4097), 13u);
}

// ---- log --------------------------------------------------------------------

TEST(LogTest, LevelGateRoundTrip) {
  const LogLevel old_level = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SPV_LOG(kDebug) << "suppressed";  // must not crash; below the gate
  SPV_LOG(kError) << "visible";
  SetLogLevel(old_level);
}

// ---- clock ------------------------------------------------------------------

TEST(ClockTest, AdvancesMonotonically) {
  SimClock clock;
  EXPECT_EQ(clock.now(), 0u);
  clock.Advance(100);
  EXPECT_EQ(clock.now(), 100u);
  clock.AdvanceUs(1);
  EXPECT_EQ(clock.now(), 100u + SimClock::kCyclesPerUs);
}

TEST(ClockTest, UnitConversionsRoundTrip) {
  EXPECT_EQ(SimClock::MsToCycles(10), 10u * 1000u * SimClock::kCyclesPerUs);
  EXPECT_DOUBLE_EQ(SimClock::CyclesToUs(SimClock::UsToCycles(250)), 250.0);
}

// ---- json -------------------------------------------------------------------

TEST(JsonTest, WriterIsCompactInCallOrder) {
  json::Writer w;
  w.BeginObject().Key("b").BeginArray().Uint(1).Int(-2).Bool(true).Null().EndArray();
  w.Key("a").Double(2.0 / 3).Key("big").Double(1234567.0).Key("raw").Raw("{\"x\":[]}");
  w.Key("none").Raw("").Key("nan").Double(std::nan("")).Key("s").String("q\"\n");
  EXPECT_EQ(w.EndObject().Take(),
            "{\"b\":[1,-2,true,null],\"a\":0.666667,\"big\":1.23457e+06,\"raw\":{\"x\":[]},"
            "\"none\":null,\"nan\":null,\"s\":\"q\\\"\\n\"}");
}

// A double holds 53 bits: a reader that parses through one turns the kernel
// address 0xffff8dde00400400 into ...400000, erasing the sub-page offset the
// paper's classes (a), (b) and (d) are told apart by.
TEST(JsonTest, RoundTripKeepsIntegersAndBytesExact) {
  std::string every_ascii;
  for (int c = 0x01; c <= 0x7f; ++c) {
    every_ascii.push_back(static_cast<char>(c));
  }
  json::Writer w;
  w.BeginObject().Key("max").Uint(UINT64_MAX).Key("kva").Uint(0xffff8dde00400400ull);
  w.Key("bytes").String(every_ascii).EndObject();
  const std::optional<json::Value> doc = json::Parse(w.Take());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->U64("max"), UINT64_MAX);
  EXPECT_EQ(doc->U64("kva"), 0xffff8dde00400400ull);
  EXPECT_EQ(doc->Str("bytes"), every_ascii);
}

TEST(JsonTest, ParseReportsWhereMalformedInputStops) {
  size_t offset = 0;
  EXPECT_FALSE(json::Parse("{\"a\":1,}", &offset).has_value());
  EXPECT_EQ(offset, 7u);
  EXPECT_FALSE(json::Parse("[1] 2", &offset).has_value());
  EXPECT_EQ(offset, 4u);
  EXPECT_FALSE(json::Parse(std::string(100000, '['), &offset).has_value());  // stack-safe
  EXPECT_EQ(offset, 257u);
  const std::optional<json::Value> doc = json::Parse(" {\"d\": -2.5e1, \"u\": \"\\u00e9\"} ");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->Find("d")->number, -25.0);
  EXPECT_EQ(doc->U64("d"), 0u);
  EXPECT_EQ(doc->Str("u"), "\xc3\xa9");
}

}  // namespace
}  // namespace spv
