/**
 * @file
 * Unit tests for src/common: bit utilities, RNG, tables, the JSON
 * document model, and the bench glue's BENCH_*.json writer.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "../bench/benchjson.hh"
#include "common/bits.hh"
#include "common/json.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "parse_json.hh"

namespace
{

using namespace qsa;

TEST(Bits, GetSetFlip)
{
    EXPECT_EQ(getBit(0b1010, 1), 1u);
    EXPECT_EQ(getBit(0b1010, 0), 0u);
    EXPECT_EQ(setBit(0b1010, 0, 1), 0b1011u);
    EXPECT_EQ(setBit(0b1010, 1, 0), 0b1000u);
    EXPECT_EQ(setBit(0b1010, 1, 1), 0b1010u);
    EXPECT_EQ(flipBit(0b1010, 3), 0b0010u);
    EXPECT_EQ(flipBit(0b1010, 2), 0b1110u);
}

TEST(Bits, Pow2AndMasks)
{
    EXPECT_EQ(pow2(0), 1ull);
    EXPECT_EQ(pow2(13), 8192ull);
    EXPECT_EQ(lowMask(0), 0ull);
    EXPECT_EQ(lowMask(4), 0xfull);
    EXPECT_EQ(lowMask(64), ~0ull);
}

TEST(Bits, Popcount)
{
    EXPECT_EQ(popcount64(0), 0u);
    EXPECT_EQ(popcount64(0b1011), 3u);
    EXPECT_EQ(popcount64(~0ull), 64u);
}

TEST(Bits, BitWidth)
{
    EXPECT_EQ(bitWidth(0), 1u);
    EXPECT_EQ(bitWidth(1), 1u);
    EXPECT_EQ(bitWidth(2), 2u);
    EXPECT_EQ(bitWidth(15), 4u);
    EXPECT_EQ(bitWidth(16), 5u);
}

TEST(Bits, ExtractDepositRoundTrip)
{
    const std::vector<unsigned> bits{1, 3, 5};
    for (std::uint64_t v = 0; v < 8; ++v) {
        const std::uint64_t basis = depositBits(0, bits, v);
        EXPECT_EQ(extractBits(basis, bits), v);
    }
}

TEST(Bits, DepositPreservesOtherBits)
{
    const std::vector<unsigned> bits{0, 2};
    const std::uint64_t basis = depositBits(0b1010, bits, 0b11);
    EXPECT_EQ(basis, 0b1111ull);
}

TEST(Bits, ExtractOrderMatters)
{
    const std::vector<unsigned> lsb_first{0, 1};
    const std::vector<unsigned> msb_first{1, 0};
    EXPECT_EQ(extractBits(0b01, lsb_first), 0b01ull);
    EXPECT_EQ(extractBits(0b01, msb_first), 0b10ull);
}

TEST(Bits, ReverseBits)
{
    EXPECT_EQ(reverseBits(0b001, 3), 0b100ull);
    EXPECT_EQ(reverseBits(0b110, 3), 0b011ull);
    EXPECT_EQ(reverseBits(0b1011, 4), 0b1101ull);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntBounds)
{
    Rng rng(13);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t v = rng.uniformInt(7);
        ASSERT_LT(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u); // all residues hit
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(17);
    int heads = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        heads += rng.bernoulli(0.3);
    EXPECT_NEAR(heads / (double)n, 0.3, 0.01);
}

TEST(Rng, DiscreteRespectsWeights)
{
    Rng rng(23);
    const std::vector<double> w{1.0, 0.0, 3.0};
    std::map<std::size_t, int> counts;
    const int n = 40000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.discrete(w)];
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(counts[0] / (double)n, 0.25, 0.02);
    EXPECT_NEAR(counts[2] / (double)n, 0.75, 0.02);
}

TEST(Rng, DiscreteSingleton)
{
    Rng rng(29);
    const std::vector<double> w{0.0, 5.0};
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.discrete(w), 1u);
}

TEST(Rng, SplitStreamsIndependent)
{
    const Rng parent(99);
    Rng c0 = parent.split(0);
    Rng c1 = parent.split(1);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += c0.next() == c1.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, SplitDeterministic)
{
    const Rng parent(99);
    Rng a = parent.split(5);
    Rng b = parent.split(5);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Table, RendersHeaderAndRows)
{
    AsciiTable t;
    t.setHeader({"k", "value"});
    t.addRow({"0", "7"});
    t.addRow({"1", "49"});
    const std::string out = t.render();
    EXPECT_NE(out.find("| k "), std::string::npos);
    EXPECT_NE(out.find("| 49"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(Table, PadsRaggedRows)
{
    AsciiTable t;
    t.setHeader({"a", "b", "c"});
    t.addRow({"1"});
    const std::string out = t.render();
    EXPECT_NE(out.find("| 1 "), std::string::npos);
}

TEST(Table, FormatsDoubles)
{
    EXPECT_EQ(AsciiTable::fmt(0.125, 3), "0.125");
    EXPECT_EQ(AsciiTable::fmt(1.0, 0), "1");
    EXPECT_EQ(AsciiTable::fmtP(1.5), "1.0000");
    EXPECT_EQ(AsciiTable::fmtP(-0.2), "0.0000");
}

// --- bench glue ------------------------------------------------------------

TEST(BenchJson, ExtractJsonPathStripsTheFlag)
{
    char a0[] = "bench", a1[] = "--benchmark_filter=Locate";
    char a2[] = "--json", a3[] = "/tmp/out.json", a4[] = "--v=1";
    char *argv[] = {a0, a1, a2, a3, a4};
    int argc = 5;
    EXPECT_EQ(benchjson::extractJsonPath(&argc, argv),
              "/tmp/out.json");
    ASSERT_EQ(argc, 3);
    EXPECT_STREQ(argv[0], "bench");
    EXPECT_STREQ(argv[1], "--benchmark_filter=Locate");
    EXPECT_STREQ(argv[2], "--v=1");

    char b0[] = "bench", b1[] = "--json=trajectory.json";
    char *bargv[] = {b0, b1};
    int bargc = 2;
    EXPECT_EQ(benchjson::extractJsonPath(&bargc, bargv),
              "trajectory.json");
    EXPECT_EQ(bargc, 1);

    char c0[] = "bench";
    char *cargv[] = {c0};
    int cargc = 1;
    EXPECT_EQ(benchjson::extractJsonPath(&cargc, cargv), "");
    EXPECT_EQ(cargc, 1);
}

TEST(BenchJson, RenderShape)
{
    benchjson::Record rec;
    rec.name = "BM_Locate/1";
    rec.label = "misrouted-control";
    rec.iterations = 3;
    rec.realTime = 10.5;
    rec.cpuTime = 10.25;
    rec.timeUnit = "ms";
    rec.counters = {{"probes", 11.0}, {"boundaries", 270.0}};
    benchjson::Record bare;
    bare.name = "BM_X";
    json::Value metrics = json::Value::object();
    metrics.set("locate.probes", json::Value::integer(12));

    const std::string text =
        benchjson::document("bench_locate", {rec, bare}, metrics);
    const json::Value doc = parseJson(text);
    EXPECT_EQ(doc.find("bench")->asString(), "bench_locate");
    EXPECT_EQ(doc.find("metrics")->dump(), metrics.dump());
    const json::Value &results = *doc.find("results");
    ASSERT_EQ(results.size(), 2u);
    const json::Value &full = results.at(0);
    EXPECT_EQ(full.find("name")->asString(), "BM_Locate/1");
    EXPECT_EQ(full.find("label")->asString(), "misrouted-control");
    EXPECT_EQ(full.find("iterations")->asUint64(), 3u);
    EXPECT_EQ(full.find("real_time")->asDouble(), 10.5);
    EXPECT_EQ(full.find("cpu_time")->asDouble(), 10.25);
    EXPECT_EQ(full.find("time_unit")->asString(), "ms");
    EXPECT_EQ(full.find("counters")->dump(),
              R"({"probes":11,"boundaries":270})");

    // No label / no counters: the optional fields vanish.
    EXPECT_EQ(results.at(1).find("label"), nullptr);
    EXPECT_EQ(results.at(1).find("counters"), nullptr);

    // Each record is one line of the file, so trajectories diff by
    // record; an empty record list is still one document.
    EXPECT_NE(text.find("\n    " + full.dump() + ",\n"),
              std::string::npos);
    EXPECT_EQ(parseJson(benchjson::document("b", {}, metrics))
                  .find("results")
                  ->size(),
              0u);
}

// --- json -------------------------------------------------------------------

TEST(Json, DumpEscapesStringsAndFormatsNumbers)
{
    const auto dumped = [](json::Value v) { return v.dump(); };
    EXPECT_EQ(dumped(json::Value::string("plain")), R"("plain")");
    EXPECT_EQ(dumped(json::Value::string("a\"b\\c\n\r\t")),
              R"("a\"b\\c\n\r\t")");
    EXPECT_EQ(dumped(json::Value::string(std::string("\x01\x1f", 2))),
              R"("\u0001\u001f")");

    EXPECT_EQ(dumped(json::Value::number(0.25)), "0.25");
    EXPECT_EQ(dumped(json::Value::number(15.0)), "15");
    EXPECT_EQ(dumped(json::Value::number(std::nan(""))), "null");
    EXPECT_EQ(dumped(json::Value::number(HUGE_VAL)), "null");
    // Shortest form must still round-trip exactly.
    const double v = 10.430104999613832;
    EXPECT_EQ(std::strtod(dumped(json::Value::number(v)).c_str(), nullptr),
              v);

    // Integers keep every digit, signed or unsigned.
    EXPECT_EQ(dumped(json::Value::integer(
                  std::numeric_limits<std::uint64_t>::max())),
              "18446744073709551615");
    EXPECT_EQ(dumped(json::Value::integer(
                  std::numeric_limits<std::int64_t>::min())),
              "-9223372036854775808");
    EXPECT_EQ(dumped(json::Value::integer(-1)), "-1");

    // A parsed document re-dumps its text, escapes included.
    const std::string text =
        R"({"s":"tab\there \u0001","n":[1.5e-7,-0,18446744073709551615]})";
    EXPECT_EQ(parseJson(text).dump(),
              R"({"s":"tab\there \u0001","n":[1.5e-7,-0,18446744073709551615]})");
}

TEST(Json, NestingPastTheCapIsAPositionedError)
{
    // Without a cap, 100,000 '[' recurse once per level and overflow
    // the stack.
    const std::size_t cap = json::Value::kMaxDepth;
    json::Value doc;
    std::string error;
    EXPECT_TRUE(json::Value::parse(
        std::string(cap, '[') + std::string(cap, ']'), &doc, &error))
        << error;

    // Each case with the column of the bracket that opens level cap + 1.
    const std::pair<std::string, std::size_t> cases[] = {
        {std::string(cap + 1, '[') + std::string(cap + 1, ']'), cap + 1},
        {std::string(100000, '['), cap + 1},
        {R"({"a":)" + std::string(100000, '['), 5 + cap},
    };
    for (const auto &[text, column] : cases) {
        EXPECT_FALSE(json::Value::parse(text, &doc, &error));
        EXPECT_EQ(error, "line 1, column " + std::to_string(column) +
                             ": nesting deeper than " +
                             std::to_string(cap) + " levels");
    }
}

TEST(Json, RepeatedKeyKeepsItsFirstPositionAndLastValue)
{
    // A small object is scanned, one past 16 members hashed: both keep
    // a repeated key at its first position with its last value.
    const json::Value parsed = parseJson(R"({"a":1,"b":2,"a":3})");
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_EQ(parsed.dump(), R"({"a":3,"b":2})");
    EXPECT_EQ(parsed.find("a")->asUint64(), 3u);

    std::string wide = "{";
    for (int i = 0; i < 40; ++i)
        wide += "\"k" + std::to_string(i) + "\":" + std::to_string(i) + ",";
    const json::Value parsed_wide = parseJson(wide + R"("k7":-7})");
    ASSERT_EQ(parsed_wide.size(), 40u);
    EXPECT_EQ(parsed_wide.members()[7].first, "k7");
    EXPECT_EQ(parsed_wide.find("k7")->dump(), "-7");

    json::Value composed = json::Value::object();
    for (int i = 0; i < 100; ++i)
        composed.set("k" + std::to_string(i), json::Value::integer(i));
    composed.set("k7", json::Value::string("again"));
    ASSERT_EQ(composed.size(), 100u);
    EXPECT_EQ(composed.members()[7].first, "k7");
    EXPECT_EQ(composed.find("k7")->asString(), "again");
    EXPECT_EQ(composed.find("k99")->asUint64(), 99u);
    EXPECT_EQ(composed.find("k100"), nullptr);

    // Copies, constructed or assigned, keep working on their own
    // members.
    json::Value copy = composed;
    json::Value assigned = parsed;
    assigned = composed;
    for (json::Value *v : {&copy, &assigned}) {
        v->set("k100", json::Value::boolean(true));
        v->set("k3", json::Value::integer(-3));
        EXPECT_EQ(v->size(), 101u);
        EXPECT_TRUE(v->find("k100")->asBool());
        EXPECT_EQ(v->find("k3")->dump(), "-3");
        EXPECT_EQ(v->find("k99")->asUint64(), 99u);
    }
    EXPECT_EQ(composed.find("k100"), nullptr);
    EXPECT_EQ(composed.find("k3")->asUint64(), 3u);
}

TEST(Json, WideObjectsParseInLinearTime)
{
    // 200,000 members: O(k^2) member checks would take minutes. A
    // Release build parses them in about 0.1 s (0.3 s with ASan and
    // UBSan), and the bound leaves room for slower builds.
    constexpr std::size_t kMembers = 200000;
    std::string text = "{";
    for (std::size_t i = 0; i < kMembers; ++i)
        text += (i ? ",\"k" : "\"k") + std::to_string(i) + "\":" +
                std::to_string(i);
    text += "}";
    const auto start = std::chrono::steady_clock::now();
    const json::Value doc = parseJson(text);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    ASSERT_EQ(doc.size(), kMembers);
    EXPECT_EQ(doc.find("k123456")->asUint64(), 123456u);
    EXPECT_EQ(doc.members()[kMembers - 1].first,
              "k" + std::to_string(kMembers - 1));
    EXPECT_LT(seconds, 10.0);
}

} // anonymous namespace
