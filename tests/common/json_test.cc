// The report writer's layout: block containers one member per line at two
// spaces per level, inline containers on one line (and everything inside
// them inline), and the escaper, fixed-decimal and digest forms every
// BENCH_*.json prints.

#include "src/common/json.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace flicker {
namespace {

TEST(JsonWriterTest, BlockAndInlineNestToDepthThree) {
  JsonWriter json;
  json.Object();
  json.Int("a", 1);
  json.Object("b");
  json.Bool("c", true);
  json.Object("d");
  json.String("e", "x");
  json.Int("f", -2);
  json.End();
  json.InlineObject("g");
  json.Int("h", 3);
  json.Bool("i", false);
  json.End();
  json.End();
  json.Int("j", 4);
  json.End();
  EXPECT_EQ(json.Take(),
            "{\n"
            "  \"a\": 1,\n"
            "  \"b\": {\n"
            "    \"c\": true,\n"
            "    \"d\": {\n"
            "      \"e\": \"x\",\n"
            "      \"f\": -2\n"
            "    },\n"
            "    \"g\": {\"h\": 3, \"i\": false}\n"
            "  },\n"
            "  \"j\": 4\n"
            "}\n");
}

// The vTPM report's "tenant" array and the fleet report's "batch"/"sizes".
TEST(JsonWriterTest, InlineObjectsInsideBlockArrayAndInlineObject) {
  JsonWriter json;
  json.Object();
  json.Array("tenant");
  for (int i = 0; i < 2; ++i) {
    json.InlineObject();
    json.Int("injected", i);
    json.Fixed("age_ms", 1.5, 3);
    json.End();
  }
  json.End();
  json.InlineObject("batch");
  json.Int("quotes", 3);
  // A block opened inside an inline container is inline too.
  json.Object("sizes");
  json.Int("1", 2);
  json.Int("2", 1);
  json.End();
  json.End();
  json.End();
  EXPECT_EQ(json.Take(),
            "{\n"
            "  \"tenant\": [\n"
            "    {\"injected\": 0, \"age_ms\": 1.500},\n"
            "    {\"injected\": 1, \"age_ms\": 1.500}\n"
            "  ],\n"
            "  \"batch\": {\"quotes\": 3, \"sizes\": {\"1\": 2, \"2\": 1}}\n"
            "}\n");
}

TEST(JsonWriterTest, EmptyContainers) {
  JsonWriter json;
  json.Object();
  json.Object("none");
  json.End();
  json.InlineObject("also_none");
  json.End();
  json.Array("nothing");
  json.End();
  json.End();
  EXPECT_EQ(json.Take(),
            "{\n"
            "  \"none\": {},\n"
            "  \"also_none\": {},\n"
            "  \"nothing\": []\n"
            "}\n");

  JsonWriter empty;
  empty.Object();
  empty.End();
  EXPECT_EQ(empty.Take(), "{}\n");
}

TEST(JsonWriterTest, EscapesQuotesBackslashesAndControlBytes) {
  std::string out;
  AppendJsonString(&out, std::string("a\"b\\c\nd\te\rf\x01g", 13));
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\te\\rf\\u0001g\"");

  JsonWriter json;
  json.InlineObject();
  json.String("k\"ey", "v\\al");
  json.End();
  EXPECT_EQ(json.Take(), "{\"k\\\"ey\": \"v\\\\al\"}\n");
}

TEST(JsonWriterTest, FixedDecimalsIntegersAndDigest) {
  JsonWriter json;
  json.InlineObject();
  json.Fixed("overhead", -0.0034, 4);  // BENCH_obs.json's negative overhead.
  json.Fixed("rounded", 2.71828, 2);
  json.Fixed("one", 40.0, 1);
  json.Fixed("up", 9.99996, 4);
  json.Int("max", UINT64_MAX);
  json.Digest("order_digest", 0x1de937ad75871903ULL);
  json.Digest("small", 0x2a);
  json.End();
  EXPECT_EQ(json.Take(),
            "{\"overhead\": -0.0034, \"rounded\": 2.72, \"one\": 40.0, \"up\": 10.0000, "
            "\"max\": 18446744073709551615, \"order_digest\": \"0x1de937ad75871903\", "
            "\"small\": \"0x000000000000002a\"}\n");
  EXPECT_EQ(HexDigest(0x2a), "0x000000000000002a");
}

// micro_hv nests the hv campaign's own report as one block member.
TEST(JsonWriterTest, EmbedReindentsADocumentAtTheCurrentDepth) {
  JsonWriter inner;
  inner.Object();
  inner.InlineObject("campaign");
  inner.Int("machines", 4);
  inner.End();
  inner.Int("events", 9);
  inner.End();

  JsonWriter json;
  json.Object();
  json.String("schema", "s");
  json.Embed("adversarial_campaign", inner.Take());
  json.End();
  EXPECT_EQ(json.Take(),
            "{\n"
            "  \"schema\": \"s\",\n"
            "  \"adversarial_campaign\": {\n"
            "    \"campaign\": {\"machines\": 4},\n"
            "    \"events\": 9\n"
            "  }\n"
            "}\n");
}

}  // namespace
}  // namespace flicker
