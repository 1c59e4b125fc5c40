//===- tests/SupportTest.cpp - Support library unit tests ------------------===//

#include "support/BitUtils.h"
#include "support/Json.h"
#include "support/JsonParse.h"
#include "support/Table.h"
#include "support/ThreadPool.h"
#include "support/UnionFind.h"
#include "support/Xoshiro.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <set>

using namespace bec;

namespace {

TEST(BitUtils, MasksAndTruncation) {
  EXPECT_EQ(lowBitMask(1), 1u);
  EXPECT_EQ(lowBitMask(4), 0xfu);
  EXPECT_EQ(lowBitMask(32), 0xffffffffu);
  EXPECT_EQ(lowBitMask(64), ~uint64_t(0));
  EXPECT_EQ(truncate(0x1ff, 8), 0xffu);
}

TEST(BitUtils, SignExtension) {
  EXPECT_EQ(signExtend(0b1000, 4), -8);
  EXPECT_EQ(signExtend(0b0111, 4), 7);
  EXPECT_EQ(signExtend(0xffffffff, 32), -1);
  EXPECT_EQ(signExtend(0x7fffffff, 32), 0x7fffffff);
  EXPECT_EQ(signExtend(~uint64_t(0), 64), -1);
  EXPECT_TRUE(isNegative(0b1000, 4));
  EXPECT_FALSE(isNegative(0b0111, 4));
}

TEST(BitUtils, FlipBit) {
  EXPECT_EQ(flipBit(0b1010, 0, 4), 0b1011u);
  EXPECT_EQ(flipBit(0b1010, 3, 4), 0b0010u);
}

TEST(UnionFind, MinimumIdRepresentatives) {
  UnionFind UF(8);
  EXPECT_EQ(UF.numClasses(), 8u);
  EXPECT_TRUE(UF.unite(5, 3));
  EXPECT_EQ(UF.find(5), 3u);
  EXPECT_TRUE(UF.unite(3, 7));
  EXPECT_EQ(UF.find(7), 3u);
  // Class 0 always stays its own representative.
  EXPECT_TRUE(UF.unite(7, 0));
  EXPECT_EQ(UF.find(5), 0u);
  EXPECT_EQ(UF.find(0), 0u);
  EXPECT_EQ(UF.numClasses(), 5u);
  // Re-uniting is a no-op.
  EXPECT_FALSE(UF.unite(5, 7));
  EXPECT_TRUE(UF.connected(0, 3));
  EXPECT_FALSE(UF.connected(1, 2));
}

TEST(UnionFind, RepresentativeIsOrderIndependent) {
  UnionFind A(6), B(6);
  A.unite(1, 4);
  A.unite(4, 2);
  B.unite(4, 2);
  B.unite(2, 1);
  for (uint32_t I = 0; I < 6; ++I)
    EXPECT_EQ(A.find(I), B.find(I)) << I;
}

TEST(Xoshiro, DeterministicAndBounded) {
  Xoshiro256 A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
  Xoshiro256 C(7);
  for (int I = 0; I < 1000; ++I) {
    EXPECT_LT(C.below(10), 10u);
    int64_t R = C.range(-5, 5);
    EXPECT_GE(R, -5);
    EXPECT_LE(R, 5);
  }
}

TEST(Xoshiro, SeedsProduceIndependentStreams) {
  // splitmix64 seeding must give full-entropy state even for degenerate
  // seeds, and distinct seeds must give distinct streams.
  Xoshiro256 Zero(0), One(1);
  std::set<uint64_t> FirstDraws;
  for (uint64_t Seed = 0; Seed < 64; ++Seed) {
    Xoshiro256 G(Seed);
    FirstDraws.insert(G.next());
  }
  EXPECT_EQ(FirstDraws.size(), 64u);
  unsigned Equal = 0;
  for (int I = 0; I < 64; ++I)
    Equal += Zero.next() == One.next();
  EXPECT_LT(Equal, 4u);
}

TEST(Xoshiro, ChanceMatchesProbabilityRoughly) {
  Xoshiro256 G(2024);
  unsigned Hits = 0;
  for (int I = 0; I < 10000; ++I)
    Hits += G.chance(1, 4);
  // 1/4 within a generous tolerance; the sequence is deterministic, so
  // this cannot flake.
  EXPECT_GT(Hits, 2200u);
  EXPECT_LT(Hits, 2800u);
}

TEST(ThreadPool, InlineModeRunsOnCallerWithoutThreads) {
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.size(), 0u);
  std::thread::id Caller = std::this_thread::get_id();
  bool Ran = false;
  Pool.submit([&] {
    Ran = true;
    EXPECT_EQ(std::this_thread::get_id(), Caller);
  });
  EXPECT_TRUE(Ran); // Inline pools execute at submission time.
  Pool.wait();
}

TEST(ThreadPool, ExecutesEveryTaskExactlyOnce) {
  constexpr unsigned NumTasks = 2000;
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.size(), 4u);
  std::vector<std::atomic<unsigned>> Runs(NumTasks);
  for (unsigned I = 0; I < NumTasks; ++I)
    Pool.submit([&Runs, I] { Runs[I].fetch_add(1); });
  Pool.wait();
  for (unsigned I = 0; I < NumTasks; ++I)
    EXPECT_EQ(Runs[I].load(), 1u) << "task " << I;
}

TEST(ThreadPool, ConcurrencyStressAggregatesCorrectly) {
  // Many tiny tasks racing on a shared accumulator through an atomic;
  // the pool must neither lose nor duplicate work across several
  // wait/reuse rounds.
  ThreadPool Pool(8);
  std::atomic<uint64_t> Sum{0};
  uint64_t Expected = 0;
  for (unsigned Round = 0; Round < 5; ++Round) {
    for (uint64_t I = 1; I <= 500; ++I) {
      Pool.submit([&Sum, I] { Sum.fetch_add(I); });
      Expected += I;
    }
    Pool.wait(); // wait() must be reusable between bursts.
    EXPECT_EQ(Sum.load(), Expected) << "round " << Round;
  }
}

TEST(ThreadPool, RunSubmitsAndDrains) {
  ThreadPool Pool(3);
  std::atomic<unsigned> Count{0};
  std::vector<std::function<void()>> Tasks;
  for (unsigned I = 0; I < 100; ++I)
    Tasks.push_back([&Count] { Count.fetch_add(1); });
  Pool.run(std::move(Tasks));
  EXPECT_EQ(Count.load(), 100u);
}

TEST(ThreadPool, ClampJobsBounds) {
  unsigned HW = std::thread::hardware_concurrency();
  if (HW == 0)
    HW = 1;
  EXPECT_EQ(ThreadPool::clampJobs(0), HW);
  EXPECT_EQ(ThreadPool::clampJobs(1), 1u);
  EXPECT_LE(ThreadPool::clampJobs(1u << 20), HW);
}

TEST(ThreadPool, DestructionDrainsPendingTasks) {
  std::atomic<unsigned> Count{0};
  {
    ThreadPool Pool(2);
    for (unsigned I = 0; I < 64; ++I)
      Pool.submit([&Count] { Count.fetch_add(1); });
    Pool.wait();
  } // Destructor joins the workers.
  EXPECT_EQ(Count.load(), 64u);
}

TEST(JsonWriter, EscapesAndNests) {
  JsonWriter W;
  W.beginObject();
  W.key("name").value("a\"b\\c\nd");
  W.key("count").value(uint64_t(42));
  W.key("ok").value(true);
  W.key("ratio").value(0.25);
  W.key("items").beginArray().value(uint64_t(1)).value(uint64_t(2)).endArray();
  W.key("empty").beginObject().endObject();
  W.endObject();
  EXPECT_EQ(W.take(),
            "{\"name\":\"a\\\"b\\\\c\\nd\",\"count\":42,\"ok\":true,"
            "\"ratio\":0.25,\"items\":[1,2],\"empty\":{}}");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  // JSON has no NaN/Infinity literals; the writer must degrade to null
  // (and the result must stay parseable) rather than emit "nan"/"inf".
  JsonWriter W;
  W.beginObject();
  W.key("nan").value(std::nan(""));
  W.key("inf").value(std::numeric_limits<double>::infinity());
  W.key("ninf").value(-std::numeric_limits<double>::infinity());
  W.key("fine").value(1.5);
  W.endObject();
  std::string Doc = W.take();
  EXPECT_EQ(Doc, "{\"nan\":null,\"inf\":null,\"ninf\":null,\"fine\":1.5}");
  std::optional<JsonValue> V = parseJson(Doc);
  ASSERT_TRUE(V.has_value());
  EXPECT_TRUE(V->member("nan")->isNull());
  EXPECT_EQ(V->member("fine")->asDouble(), 1.5);
}

TEST(TableRender, AlignsAndSeparates) {
  EXPECT_EQ(Table::withSeparators(0), "0");
  EXPECT_EQ(Table::withSeparators(999), "999");
  EXPECT_EQ(Table::withSeparators(1000), "1 000");
  EXPECT_EQ(Table::withSeparators(2819904), "2 819 904");
  EXPECT_EQ(Table::percent(0.3004), "30.04%");

  Table T({"name", "count"});
  T.row().cell("alpha").cell(uint64_t(12));
  T.row().cell("b").cell(uint64_t(1234));
  std::string Out = T.render();
  EXPECT_NE(Out.find("alpha"), std::string::npos);
  EXPECT_NE(Out.find("1 234"), std::string::npos);
  // Header, separator, two rows.
  EXPECT_EQ(std::count(Out.begin(), Out.end(), '\n'), 4);
}

TEST(JsonParse, ParsesTheFullValueGrammar) {
  std::string Err;
  std::optional<JsonValue> V = parseJson(
      R"({"s":"a\"b\u0041\n","n":-42,"d":2.5,"big":1e3,"t":true,)"
      R"("nul":null,"arr":[1,[2]],"obj":{"k":"v"}})",
      &Err);
  ASSERT_TRUE(V.has_value()) << Err;
  EXPECT_EQ(*V->memberString("s"), "a\"bA\n");
  EXPECT_EQ(V->member("n")->asI64(), -42);
  EXPECT_EQ(V->member("d")->asDouble(), 2.5);
  EXPECT_EQ(V->member("big")->asDouble(), 1000.0);
  EXPECT_EQ(V->member("big")->asI64(), std::nullopt); // Not an int literal.
  EXPECT_EQ(V->member("t")->asBool(), true);
  EXPECT_TRUE(V->member("nul")->isNull());
  const std::vector<JsonValue> *Arr = V->member("arr")->asArray();
  ASSERT_NE(Arr, nullptr);
  EXPECT_EQ((*Arr)[0].asU64(), 1u);
  EXPECT_EQ((*(*Arr)[1].asArray())[0].asU64(), 2u);
  EXPECT_EQ(*V->member("obj")->memberString("k"), "v");
  EXPECT_EQ(V->member("missing"), nullptr);
  EXPECT_EQ(V->member("n")->asU64(), std::nullopt); // Negative.
}

TEST(JsonParse, RoundTripsThroughTheWriter) {
  const char *Doc =
      "{\"a\":[1,2.5,\"x\"],\"b\":{\"c\":true,\"d\":null},\"e\":-7}";
  std::optional<JsonValue> V = parseJson(Doc);
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->toJson(), Doc);
}

TEST(JsonParse, RejectsMalformedDocuments) {
  const char *Bad[] = {
      "",           "{",       "[1,",       "{\"a\"}",   "{\"a\":}",
      "{a:1}",      "[1 2]",   "tru",       "01x",       "1.2.3",
      "\"unterminated", "\"bad\\q\"", "{\"a\":1}extra", "\"\\u12\"",
      "\"\\ud800\"", // Unpaired surrogate.
  };
  for (const char *Doc : Bad) {
    std::string Err;
    EXPECT_FALSE(parseJson(Doc, &Err).has_value()) << Doc;
    EXPECT_FALSE(Err.empty()) << Doc;
  }
  // The depth guard refuses pathological nesting instead of overflowing.
  std::string Deep(1000, '[');
  Deep += std::string(1000, ']');
  EXPECT_FALSE(parseJson(Deep).has_value());
}

TEST(JsonParse, KeepsIntegerPrecision) {
  std::optional<JsonValue> V =
      parseJson("{\"id\":9007199254740993,\"neg\":-9007199254740993}");
  ASSERT_TRUE(V.has_value());
  // 2^53 + 1 survives exactly (a double would round it).
  EXPECT_EQ(V->memberU64("id"), 9007199254740993ull);
  EXPECT_EQ(V->member("neg")->asI64(), -9007199254740993ll);
}

TEST(JsonParse, KeepsUnsignedIntegersAboveInt64) {
  // Seeds, cycle windows and sample sizes are u64 params: 2^63 .. 2^64-1
  // must stay exact instead of falling back to a double.
  std::optional<JsonValue> V = parseJson(
      "{\"max\":18446744073709551615,\"half\":9223372036854775808,"
      "\"over\":18446744073709551616}");
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->memberU64("max"), 18446744073709551615ull);
  EXPECT_EQ(V->memberU64("half"), 9223372036854775808ull);
  EXPECT_EQ(V->member("half")->asI64(), std::nullopt);
  EXPECT_EQ(V->member("half")->asDouble(), 9223372036854775808.0);
  // Past 2^64-1 a literal is only a double, as before.
  EXPECT_EQ(V->memberU64("over"), std::nullopt);
  EXPECT_EQ(V->member("over")->asDouble(), 18446744073709551616.0);
  EXPECT_EQ(V->toJson(), "{\"max\":18446744073709551615,"
                         "\"half\":9223372036854775808,"
                         "\"over\":1.84467e+19}");
}

} // namespace
