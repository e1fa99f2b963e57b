#include "serve/service.h"

#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/raster.h"
#include "nn/vgg.h"
#include "serve/json.h"

/// The NDJSON front-end: JSON round-trips, the request loop end-to-end
/// against a fitted session, and the multi-task gateway (task routing,
/// registry ops, batched extraction across tasks).

namespace goggles {
namespace {

using serve::JsonValue;

// ---- JSON -----------------------------------------------------------------

TEST(JsonTest, ParsesScalarsAndContainers) {
  auto v = JsonValue::Parse(
      R"({"a":1.5,"b":[true,null,"x"],"nested":{"k":-2e3}})");
  ASSERT_TRUE(v.ok()) << v.status();
  ASSERT_TRUE(v->is_object());
  EXPECT_DOUBLE_EQ(v->Find("a")->number(), 1.5);
  const JsonValue* b = v->Find("b");
  ASSERT_TRUE(b != nullptr && b->is_array());
  ASSERT_EQ(b->items().size(), 3u);
  EXPECT_TRUE(b->items()[0].bool_value());
  EXPECT_TRUE(b->items()[1].is_null());
  EXPECT_EQ(b->items()[2].str(), "x");
  EXPECT_DOUBLE_EQ(v->Find("nested")->Find("k")->number(), -2000.0);
}

TEST(JsonTest, ParsesStringEscapes) {
  auto v = JsonValue::Parse(R"(["a\"b\\c\n\t", "\u0041\u00e9\u20ac"])");
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ(v->items()[0].str(), "a\"b\\c\n\t");
  EXPECT_EQ(v->items()[1].str(), "A\xC3\xA9\xE2\x82\xAC");  // A é €
}

TEST(JsonTest, DumpParseRoundTrip) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("op", JsonValue("label"));
  obj.Set("count", JsonValue(3.25));
  obj.Set("flag", JsonValue(true));
  JsonValue arr = JsonValue::MakeArray();
  arr.Append(JsonValue(1.0));
  arr.Append(JsonValue("two\nlines"));
  obj.Set("items", std::move(arr));

  auto reparsed = JsonValue::Parse(obj.Dump());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(reparsed->Dump(), obj.Dump());
  EXPECT_EQ(reparsed->Find("items")->items()[1].str(), "two\nlines");
}

TEST(JsonTest, MalformedInputsAreRejectedNotCrashed) {
  const char* bad[] = {
      "",           "{",        "[1,",        "{\"a\":}",  "tru",
      "\"unterminated", "{\"a\":1}extra", "[\"\\u12\"]", "nan", "{1:2}",
  };
  for (const char* text : bad) {
    EXPECT_FALSE(JsonValue::Parse(text).ok()) << "accepted: " << text;
  }
}

TEST(JsonTest, DuplicateKeysKeepTheLastValue) {
  auto parsed = JsonValue::Parse(R"({"a":1,"b":2,"a":{"c":3},"b":4})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_NE(parsed->Find("a"), nullptr);
  ASSERT_TRUE(parsed->Find("a")->is_object());
  EXPECT_EQ(parsed->Find("a")->Find("c")->number(), 3.0);
  EXPECT_EQ(parsed->Find("b")->number(), 4.0);
  EXPECT_EQ(parsed->Find("z"), nullptr);
}

// One request line with many members must not stall the decode worker:
// 80k members (about 870 KB) parse in linear time, well under a second
// in an optimized build.
TEST(JsonTest, ObjectParseIsLinearInMemberCount) {
  constexpr int kMembers = 80000;
  std::string text = "{";
  for (int i = 0; i < kMembers; ++i) {
    if (i > 0) text += ',';
    text += "\"member_" + std::to_string(i) + "\":" + std::to_string(i);
  }
  text += '}';
  const auto start = std::chrono::steady_clock::now();
  auto parsed = JsonValue::Parse(text);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->members().size(), static_cast<size_t>(kMembers));
  EXPECT_EQ(parsed->Find("member_79999")->number(), 79999.0);
  EXPECT_LT(seconds, 5.0);
}

TEST(JsonTest, SubnormalsRoundTripAndOutOfRangeLiteralsAreRejected) {
  // The gateway dumps tiny soft labels as subnormals; what Dump emits
  // must parse back to the same bits.
  const double subnormal = 9.8813129168249309e-324;
  ASSERT_TRUE(std::fpclassify(subnormal) == FP_SUBNORMAL);
  JsonValue soft = JsonValue::MakeArray();
  soft.Append(JsonValue(subnormal));
  soft.Append(JsonValue(-1e-310));
  auto reparsed = JsonValue::Parse(soft.Dump());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(reparsed->items()[0].number(), subnormal);
  EXPECT_EQ(reparsed->items()[1].number(), -1e-310);
  EXPECT_EQ(reparsed->Dump(), soft.Dump());

  // Literals outside double range stay errors, never inf or a silent 0.
  for (const char* text : {"1e-400", "-1e-400", "1e999", "[-1e999]"}) {
    EXPECT_FALSE(JsonValue::Parse(text).ok()) << "accepted: " << text;
  }
}

TEST(JsonTest, DeepNestingHitsTheDepthGuard) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(JsonValue::Parse(deep).ok());
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Packing must not change what the parser accepts or the values it
// produces: a token means the same alone, as a one-element array, after
// a number and before a string (which turns the array into nodes). A
// one-token array is packed exactly when the token is a number.
TEST(JsonTest, ArrayElementsFollowTheScalarNumberGrammar) {
  const char* tokens[] = {
      "0",     "-0",     "1.5",   ".5",   "-.5",
      "1.",    "01",     "1e5",   "1E+5", "9.8813129168249309e-324",
      "3.4e38", "1e-400", "1e999", "+1",   "-",
      "1e",    "1.2.3",  "--1",   "1e5e5", "1.e5",
      "0x1",   "inf",    "-inf",  "-nan", "true",
      "null",  "\"s\"",  "x"};
  for (const std::string tok : tokens) {
    SCOPED_TRACE(tok);
    auto single = JsonValue::Parse(tok);
    auto alone = JsonValue::Parse("[" + tok + "]");
    auto second = JsonValue::Parse("[0," + tok + "]");
    auto before_string = JsonValue::Parse("[" + tok + ",\"x\"]");
    ASSERT_EQ(alone.ok(), single.ok());
    ASSERT_EQ(second.ok(), single.ok());
    ASSERT_EQ(before_string.ok(), single.ok());
    if (!single.ok()) {
      EXPECT_EQ(alone.status().code(), StatusCode::kInvalidArgument);
      continue;
    }
    EXPECT_EQ(before_string->number_array(), nullptr);
    EXPECT_EQ(before_string->Dump(), "[" + single->Dump() + ",\"x\"]");
    if (!single->is_number()) {
      EXPECT_EQ(alone->number_array(), nullptr);
      EXPECT_EQ(alone->Dump(), "[" + single->Dump() + "]");
      continue;
    }
    const double value = single->number();
    ASSERT_NE(alone->number_array(), nullptr);
    ASSERT_EQ(alone->number_array()->size(), 1u);
    EXPECT_TRUE(SameBits((*alone->number_array())[0], value));
    ASSERT_NE(second->number_array(), nullptr);
    ASSERT_EQ(second->number_array()->size(), 2u);
    EXPECT_TRUE(SameBits((*second->number_array())[1], value));
    ASSERT_EQ(before_string->items().size(), 2u);
    EXPECT_TRUE(SameBits(before_string->items()[0].number(), value));
    // The lazy nodes of a packed array carry the same bits.
    ASSERT_EQ(alone->items().size(), 1u);
    EXPECT_TRUE(SameBits(alone->items()[0].number(), value));
    EXPECT_EQ(alone->Dump(), "[" + single->Dump() + "]");
  }

  // A malformed token is reported whole, wherever it stands.
  for (const auto& [text, message] :
       std::vector<std::pair<std::string, std::string>>{
           {"[1.2.3]", "json: malformed number '1.2.3'"},
           {"[0,1e]", "json: malformed number '1e'"},
           {"[-inf]", "json: malformed number '-'"},
           {"[inf]", "json: unexpected character"},
           {"1e5e5", "json: malformed number '1e5e5'"}}) {
    auto parsed = JsonValue::Parse(text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.status().message(), message) << text;
  }

  // The depth guard counts a packed element like any other.
  for (size_t depth : {64u, 65u}) {
    const std::string open(depth, '['), close(depth, ']');
    EXPECT_EQ(JsonValue::Parse(open + "1" + close).ok(), depth == 64u);
    EXPECT_EQ(JsonValue::Parse(open + "\"s\"" + close).ok(), depth == 64u);
  }
}

TEST(JsonTest, MixedArraysKeepDocumentOrder) {
  for (const char* text :
       {R"([1,2,"x",3])", R"(["x",1])", "[1,[2]]", "[]", "[[1,2],[]]"}) {
    auto parsed = JsonValue::Parse(text);
    ASSERT_TRUE(parsed.ok()) << text;
    EXPECT_EQ(parsed->number_array(), nullptr) << text;
    EXPECT_EQ(parsed->Dump(), text);
  }
  auto mixed = JsonValue::Parse(R"([1, 2 ,"x",3])");
  ASSERT_TRUE(mixed.ok());
  const auto& items = mixed->items();
  ASSERT_EQ(items.size(), 4u);
  EXPECT_EQ(items[0].number(), 1.0);
  EXPECT_EQ(items[1].number(), 2.0);
  EXPECT_EQ(items[2].str(), "x");
  EXPECT_EQ(items[3].number(), 3.0);

  auto packed = JsonValue::Parse("[ 1 , -2.5e-3,7 ]");
  ASSERT_TRUE(packed.ok());
  ASSERT_NE(packed->number_array(), nullptr);
  EXPECT_EQ(*packed->number_array(), (std::vector<double>{1, -2.5e-3, 7}));
  EXPECT_EQ(packed->Dump(), "[1,-0.0025000000000000001,7]");
}

TEST(JsonTest, AppendOntoAPackedArrayYieldsNodesInOrder) {
  for (bool touched : {false, true}) {
    auto parsed = JsonValue::Parse("[1,2.5]");
    ASSERT_TRUE(parsed.ok());
    ASSERT_NE(parsed->number_array(), nullptr);
    if (touched) {
      ASSERT_EQ(parsed->items().size(), 2u);  // builds the nodes
    }
    parsed->Append(JsonValue("s"));
    EXPECT_EQ(parsed->number_array(), nullptr);
    ASSERT_EQ(parsed->items().size(), 3u);
    EXPECT_EQ(parsed->items()[0].number(), 1.0);
    EXPECT_EQ(parsed->items()[1].number(), 2.5);
    EXPECT_EQ(parsed->items()[2].str(), "s");
    EXPECT_EQ(parsed->Dump(), R"([1,2.5,"s"])");
  }
}

/// Every packed array in `v` has lazy nodes equal to its packed values,
/// bit for bit.
void ExpectPackedItemsMatch(const JsonValue& v) {
  if (const std::vector<double>* numbers = v.number_array()) {
    const std::vector<JsonValue>& items = v.items();
    ASSERT_EQ(items.size(), numbers->size());
    for (size_t i = 0; i < items.size(); ++i) {
      ASSERT_TRUE(items[i].is_number());
      ASSERT_TRUE(SameBits(items[i].number(), (*numbers)[i])) << i;
    }
    return;
  }
  if (v.is_array()) {
    for (const JsonValue& item : v.items()) ExpectPackedItemsMatch(item);
  }
  for (const auto& member : v.members()) ExpectPackedItemsMatch(member.second);
}

// A seeded mutation fuzzer over request-shaped lines: every mutant either
// parses into a value whose Dump is a parse fixed point, or is rejected
// with InvalidArgument. Run under ASan and UBSan by the `serve` label.
TEST(JsonFuzzTest, MutatedLinesParseOrFailCleanly) {
  const std::vector<std::string> corpus = {
      R"({"op":"label","task":"alpha","image":{"channels":1,"height":2,)"
      R"("width":2,"pixels":[0.5,.25,-1e-3,0.12345678901234568]}})",
      R"({"op":"label_batch","task":"beta","images":[{"channels":1,)"
      R"("height":1,"width":2,"pixels":[1,0]},{"channels":1,"height":1,)"
      R"("width":2,"pixels":[-0,3.4e38]}]})",
      R"(["a\"b\\c\n\t\/\b\f\r","Aé€","😀"])",
      R"({"a":{"b":{"c":[{"d":null},true,false]}},"e":{}})",
      R"({"soft":[9.8813129168249309e-324,-1e-310,2.2250738585072014e-308]})",
      R"([1,2,"x",3,[4,5],[],{"k":[6,"y"]},null,7.5e+2])",
  };
  const std::string splice = ",]-.eE0\"";
  std::mt19937 rng(20261019);
  auto pick = [&rng](size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(rng);
  };
  int accepted = 0;
  int rejected = 0;
  for (int round = 0; round < 100000; ++round) {
    std::string text = corpus[pick(corpus.size())];
    const size_t edits = 1 + pick(4);
    for (size_t e = 0; e < edits && !text.empty(); ++e) {
      const size_t at = pick(text.size());
      switch (pick(5)) {
        case 0:  // flip one bit
          text[at] = static_cast<char>(text[at] ^ (1 << pick(8)));
          break;
        case 1:  // insert a structural byte
          text.insert(at, 1, splice[pick(splice.size())]);
          break;
        case 2:  // delete a short run
          text.erase(at, 1 + pick(3));
          break;
        case 3:  // truncate
          text.resize(at);
          break;
        default:  // overwrite with a structural byte
          text[at] = splice[pick(splice.size())];
          break;
      }
    }
    auto parsed = JsonValue::Parse(text);
    if (!parsed.ok()) {
      ASSERT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << text;
      ++rejected;
      continue;
    }
    ++accepted;
    ExpectPackedItemsMatch(*parsed);
    const std::string dumped = parsed->Dump();
    auto reparsed = JsonValue::Parse(dumped);
    ASSERT_TRUE(reparsed.ok()) << text << " dumped as " << dumped;
    ASSERT_EQ(reparsed->Dump(), dumped) << text;
    ExpectPackedItemsMatch(*reparsed);
  }
  // Both outcomes must actually be exercised.
  EXPECT_GT(accepted, 500);
  EXPECT_GT(rejected, 500);
}

// ---- Service --------------------------------------------------------------

data::Image PatternImage(int variant) {
  data::Image img(3, 32, 32, 0.1f);
  switch (variant % 3) {
    case 0:
      data::DrawFilledCircle(&img, 16, 16, 6 + variant % 5, {1.0f, 0.2f, 0.2f});
      break;
    case 1:
      data::DrawFilledRect(&img, 6, 6, 26, 26, {0.2f, 1.0f, 0.2f});
      break;
    default:
      data::DrawCross(&img, 16, 16, 14, 3, {0.2f, 0.2f, 1.0f});
      break;
  }
  return img;
}

std::string ImageToJson(const data::Image& img) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("channels", JsonValue(img.channels));
  obj.Set("height", JsonValue(img.height));
  obj.Set("width", JsonValue(img.width));
  JsonValue pixels = JsonValue::MakeArray();
  for (float v : img.pixels) pixels.Append(JsonValue(static_cast<double>(v)));
  obj.Set("pixels", std::move(pixels));
  return obj.Dump();
}

class ServeServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    nn::VggMiniConfig config;
    config.stage_channels = {4, 8, 8, 8, 8};
    config.num_classes = 4;
    Result<nn::VggMini> model = nn::BuildVggMini(config);
    model.status().Abort("vgg");
    extractor_ = new std::shared_ptr<features::FeatureExtractor>(
        std::make_shared<features::FeatureExtractor>(std::move(*model)));
    std::vector<data::Image> pool;
    for (int i = 0; i < 12; ++i) pool.push_back(PatternImage(i));
    GogglesConfig goggles_config;
    goggles_config.top_z = 3;
    auto session = serve::Session::Fit(*extractor_, pool, {0, 1, 2, 3},
                                       {0, 1, 0, 1}, 2, goggles_config);
    session.status().Abort("Session::Fit");
    session_ = new std::shared_ptr<const serve::Session>(
        std::make_shared<const serve::Session>(std::move(*session)));
  }

  static void TearDownTestSuite() {
    delete session_;
    delete extractor_;
  }

  static std::shared_ptr<features::FeatureExtractor>* extractor_;
  static std::shared_ptr<const serve::Session>* session_;
};

std::shared_ptr<features::FeatureExtractor>* ServeServiceTest::extractor_ =
    nullptr;
std::shared_ptr<const serve::Session>* ServeServiceTest::session_ = nullptr;

TEST_F(ServeServiceTest, StatsOp) {
  serve::Service service(*session_);
  auto response = JsonValue::Parse(service.HandleLine(R"({"op":"stats"})"));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->Find("ok")->bool_value());
  EXPECT_DOUBLE_EQ(response->Find("pool_size")->number(), 12.0);
  EXPECT_DOUBLE_EQ(response->Find("num_classes")->number(), 2.0);
  EXPECT_DOUBLE_EQ(response->Find("num_functions")->number(), 15.0);
}

TEST_F(ServeServiceTest, LabelOpMatchesDirectSession) {
  serve::Service service(*session_);
  const data::Image query = PatternImage(13);
  const std::string line =
      std::string(R"({"op":"label","image":)") + ImageToJson(query) + "}";
  auto response = JsonValue::Parse(service.HandleLine(line));
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_TRUE(response->Find("ok")->bool_value())
      << response->Find("error")->str();

  auto direct = (*session_)->LabelOne(query);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(static_cast<int>(response->Find("label")->number()), direct->hard);
  const JsonValue* soft = response->Find("soft");
  ASSERT_EQ(soft->items().size(), direct->soft.size());
  for (size_t k = 0; k < direct->soft.size(); ++k) {
    EXPECT_NEAR(soft->items()[k].number(), direct->soft[k], 1e-15);
  }
}

TEST_F(ServeServiceTest, MalformedRequestsReturnErrorsNotCrashes) {
  serve::Service service(*session_);
  const char* lines[] = {
      "not json at all",
      R"({"op":"unknown"})",
      R"({"no_op":true})",
      R"({"op":"label"})",
      R"({"op":"label","image":{"channels":3,"height":2,"width":2,"pixels":[1]}})",
      R"({"op":"label","image":{"channels":1e300,"height":1,"width":1,"pixels":[0]}})",
      R"({"op":"label","image":{"channels":1.5,"height":1,"width":1,"pixels":[0,0]}})",
      // Overflowing numeric literal: must be a parse error, not inf.
      R"({"op":"label","image":{"channels":1,"height":1,"width":1,"pixels":[1e999]}})",
      R"({"op":"label_batch","images":[]})",
  };
  for (const char* line : lines) {
    auto response = JsonValue::Parse(service.HandleLine(line));
    ASSERT_TRUE(response.ok()) << "response not JSON for: " << line;
    EXPECT_FALSE(response->Find("ok")->bool_value()) << "accepted: " << line;
    EXPECT_TRUE(response->Find("error")->is_string());
  }

  // Mixed image shapes within one batch must be rejected (stacking them
  // into one tensor would otherwise index out of bounds).
  const std::string mixed =
      std::string(R"({"op":"label_batch","images":[)") +
      ImageToJson(data::Image(3, 32, 32, 0.5f)) + "," +
      ImageToJson(data::Image(3, 16, 16, 0.5f)) + "]}";
  auto response = JsonValue::Parse(service.HandleLine(mixed));
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->Find("ok")->bool_value())
      << "mixed-shape batch accepted";
}

// A pixel whose magnitude exceeds FLT_MAX has no float value (the cast
// would be undefined behaviour and in practice yields ±inf), so it is an
// invalid request on both entry points, with the same bytes; the largest
// finite floats still label.
TEST_F(ServeServiceTest, PixelsOutsideTheFloatRangeAreRejected) {
  serve::Service service(*session_);
  const std::string base = ImageToJson(PatternImage(13));
  const std::string first_pixel = R"("pixels":[)";
  const size_t at = base.find(first_pixel);
  ASSERT_NE(at, std::string::npos);
  const size_t begin = at + first_pixel.size();
  const size_t end = base.find(',', begin);
  auto with_first_pixel = [&](const std::string& literal) {
    return std::string(R"({"op":"label","image":)") +
           base.substr(0, begin) + literal + base.substr(end) + "}";
  };

  for (const char* literal : {"1e300", "-1e39"}) {
    const std::string line = with_first_pixel(literal);
    const std::string direct = service.HandleLine(line);
    auto response = JsonValue::Parse(direct);
    ASSERT_TRUE(response.ok()) << direct;
    EXPECT_FALSE(response->Find("ok")->bool_value()) << "accepted " << literal;
    ASSERT_NE(response->Find("error_code"), nullptr) << direct;
    EXPECT_EQ(response->Find("error_code")->str(), "invalid_argument");

    std::istringstream in(line + "\n");
    std::ostringstream out;
    ASSERT_TRUE(service.Run(in, out).ok());
    EXPECT_EQ(out.str(), direct + "\n") << literal;
  }

  auto accepted =
      JsonValue::Parse(service.HandleLine(with_first_pixel("3.4e38")));
  ASSERT_TRUE(accepted.ok());
  EXPECT_TRUE(accepted->Find("ok")->bool_value());
}

// The pixel checks run in a fixed order whatever form the parser gave the
// array: length first, then each pixel in document order (a non-number,
// or a number outside the float range). Both entry points answer with
// the same bytes.
TEST_F(ServeServiceTest, PixelErrorsKeepTheirPrecedence) {
  serve::Service service(*session_);
  const std::string base = ImageToJson(PatternImage(13));
  const std::string first_pixel = R"("pixels":[)";
  const size_t begin = base.find(first_pixel) + first_pixel.size();
  const size_t first_end = base.find(',', begin);
  const size_t last_begin = base.rfind(',') + 1;
  const size_t last_end = base.rfind(']');
  auto line_for = [&](const std::string& first, const std::string& last) {
    return std::string(R"({"op":"label","image":)") + base.substr(0, begin) +
           first + base.substr(first_end, last_begin - first_end) + last +
           base.substr(last_end) + "}";
  };
  const std::string first = base.substr(begin, first_end - begin);
  const std::string last = base.substr(last_begin, last_end - last_begin);
  auto respond = [&](const std::string& line) {
    const std::string direct = service.HandleLine(line);
    std::istringstream in(line + "\n");
    std::ostringstream out;
    EXPECT_TRUE(service.Run(in, out).ok());
    EXPECT_EQ(out.str(), direct + "\n");
    return direct;
  };
  auto error_of = [&](const std::string& line) {
    auto response = JsonValue::Parse(respond(line));
    EXPECT_TRUE(response.ok());
    EXPECT_FALSE(response->Find("ok")->bool_value());
    return response->Find("error")->str();
  };

  EXPECT_EQ(error_of(R"({"op":"label","image":{"channels":3,"height":32,)"
                     R"("width":32,"pixels":[0.5,"x"]}})"),
            "pixels array length must equal channels*height*width");
  // The last of 3,072 pixels turns the packed array into nodes.
  EXPECT_EQ(error_of(line_for(first, R"("x")")),
            "pixels must all be numbers");
  EXPECT_EQ(error_of(line_for("1e39", R"("x")")),
            "pixels must lie within the float range (|v| <= FLT_MAX)");
  EXPECT_EQ(error_of(line_for("null", last)), "pixels must all be numbers");

  // A pixel written `.5` is the number 0.5.
  const std::string leading_dot = respond(line_for(".5", last));
  EXPECT_EQ(leading_dot, respond(line_for("0.5", last)));
  auto response = JsonValue::Parse(leading_dot);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->Find("ok")->bool_value()) << leading_dot;
}

TEST_F(ServeServiceTest, RunPreservesInputOrderAcrossWorkers) {
  serve::ServiceConfig config;
  config.pipeline.decode_threads = 2;
  config.pipeline.extract_threads = 3;
  config.pipeline.infer_threads = 2;
  config.pipeline.admission_capacity = 2;  // force backpressure
  serve::Service service(*session_, config);

  std::ostringstream input;
  std::vector<data::Image> queries;
  for (int i = 0; i < 8; ++i) {
    if (i % 3 == 0) {
      input << R"({"op":"stats"})" << "\n";
    } else {
      queries.push_back(PatternImage(20 + i));
      input << R"({"op":"label","image":)" << ImageToJson(queries.back())
            << "}\n";
    }
  }
  std::istringstream in(input.str());
  std::ostringstream out;
  ASSERT_TRUE(service.Run(in, out).ok());

  std::istringstream lines(out.str());
  std::string line;
  int line_no = 0;
  size_t query_idx = 0;
  while (std::getline(lines, line)) {
    auto response = JsonValue::Parse(line);
    ASSERT_TRUE(response.ok()) << line;
    ASSERT_TRUE(response->Find("ok")->bool_value());
    if (line_no % 3 == 0) {
      EXPECT_TRUE(response->Find("pool_size") != nullptr)
          << "line " << line_no << " should be a stats response";
    } else {
      ASSERT_LT(query_idx, queries.size());
      auto direct = (*session_)->LabelOne(queries[query_idx++]);
      ASSERT_TRUE(direct.ok());
      EXPECT_EQ(static_cast<int>(response->Find("label")->number()),
                direct->hard)
          << "line " << line_no << " out of order";
    }
    ++line_no;
  }
  EXPECT_EQ(line_no, 8);
  EXPECT_EQ(service.requests_served(), 8u);
}

TEST_F(ServeServiceTest, RunWithBatchedExtractionPreservesOrderAndResults) {
  serve::ServiceConfig config;
  config.pipeline.extract_threads = 1;
  config.pipeline.max_batch = 4;
  config.pipeline.admission_capacity = 16;
  serve::Service service(*session_, config);

  std::ostringstream input;
  std::vector<data::Image> queries;
  for (int i = 0; i < 10; ++i) {
    queries.push_back(PatternImage(30 + i));
    input << R"({"op":"label","image":)" << ImageToJson(queries.back())
          << "}\n";
  }
  std::istringstream in(input.str());
  std::ostringstream out;
  ASSERT_TRUE(service.Run(in, out).ok());

  // Batched or not, every response must be bit-identical to its
  // singleton LabelOne and arrive in input order.
  std::istringstream lines(out.str());
  std::string line;
  size_t idx = 0;
  while (std::getline(lines, line)) {
    auto response = JsonValue::Parse(line);
    ASSERT_TRUE(response.ok()) << line;
    ASSERT_TRUE(response->Find("ok")->bool_value()) << line;
    ASSERT_LT(idx, queries.size());
    auto direct = (*session_)->LabelOne(queries[idx]);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(static_cast<int>(response->Find("label")->number()),
              direct->hard);
    const JsonValue* soft = response->Find("soft");
    ASSERT_EQ(soft->items().size(), direct->soft.size());
    for (size_t k = 0; k < direct->soft.size(); ++k) {
      EXPECT_EQ(soft->items()[k].number(), direct->soft[k])
          << "response " << idx << " not bit-identical at class " << k;
    }
    ++idx;
  }
  EXPECT_EQ(idx, queries.size());
}

TEST_F(ServeServiceTest, TaskRoutingIsRejectedWithoutARegistry) {
  serve::Service service(*session_);
  auto response = JsonValue::Parse(service.HandleLine(
      R"({"op":"stats","task":"whatever"})"));
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->Find("ok")->bool_value());
  EXPECT_NE(response->Find("error")->str().find("artifact-dir"),
            std::string::npos);
  for (const char* line :
       {R"({"op":"load","task":"t"})", R"({"op":"unload","task":"t"})",
        R"({"op":"list_tasks"})"}) {
    auto op_response = JsonValue::Parse(service.HandleLine(line));
    ASSERT_TRUE(op_response.ok());
    EXPECT_FALSE(op_response->Find("ok")->bool_value()) << line;
  }
}

class ServeGatewayTest : public ServeServiceTest {
 protected:
  static void SetUpTestSuite() {
    ServeServiceTest::SetUpTestSuite();
    dir_ = new std::string(::testing::TempDir() + "/gateway_tasks");
    std::filesystem::create_directories(*dir_);
    // Two tasks with different pools => different fitted states.
    ASSERT_TRUE((*session_)->Save(*dir_ + "/alpha.ggsa").ok());
    std::vector<data::Image> pool;
    for (int i = 0; i < 12; ++i) {
      data::Image img = PatternImage(i + 1);
      pool.push_back(std::move(img));
    }
    GogglesConfig goggles_config;
    goggles_config.top_z = 3;
    auto session = serve::Session::Fit(*extractor_, pool, {0, 1, 2, 3},
                                       {1, 0, 1, 0}, 2, goggles_config);
    session.status().Abort("Session::Fit beta");
    beta_ = new std::shared_ptr<const serve::Session>(
        std::make_shared<const serve::Session>(std::move(*session)));
    ASSERT_TRUE((*beta_)->Save(*dir_ + "/beta.ggsa").ok());
  }

  static void TearDownTestSuite() {
    std::error_code ec;
    std::filesystem::remove_all(*dir_, ec);
    delete beta_;
    delete dir_;
    ServeServiceTest::TearDownTestSuite();
  }

  std::unique_ptr<serve::Service> MakeGateway(bool with_default = false) {
    serve::RegistryConfig config;
    config.artifact_dir = *dir_;
    auto registry =
        std::make_shared<serve::SessionRegistry>(*extractor_, config);
    return std::make_unique<serve::Service>(
        registry, with_default ? *session_ : nullptr, serve::ServiceConfig{});
  }

  static std::string* dir_;
  static std::shared_ptr<const serve::Session>* beta_;
};

std::string* ServeGatewayTest::dir_ = nullptr;
std::shared_ptr<const serve::Session>* ServeGatewayTest::beta_ = nullptr;

TEST_F(ServeGatewayTest, RoutesLabelRequestsByTask) {
  auto gateway_ptr = MakeGateway();
  serve::Service& gateway = *gateway_ptr;
  const data::Image query = PatternImage(60);
  for (const auto& [task, session] :
       {std::pair<std::string, const serve::Session*>{"alpha",
                                                      session_->get()},
        std::pair<std::string, const serve::Session*>{"beta",
                                                      beta_->get()}}) {
    const std::string line = std::string(R"({"op":"label","task":")") + task +
                             R"(","image":)" + ImageToJson(query) + "}";
    auto response = JsonValue::Parse(gateway.HandleLine(line));
    ASSERT_TRUE(response.ok());
    ASSERT_TRUE(response->Find("ok")->bool_value())
        << response->Find("error")->str();
    auto direct = session->LabelOne(query);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(static_cast<int>(response->Find("label")->number()),
              direct->hard)
        << "task " << task << " routed to the wrong session";
    const JsonValue* soft = response->Find("soft");
    ASSERT_EQ(soft->items().size(), direct->soft.size());
    for (size_t k = 0; k < direct->soft.size(); ++k) {
      EXPECT_EQ(soft->items()[k].number(), direct->soft[k]);
    }
  }
}

TEST_F(ServeGatewayTest, AbsentTaskNeedsADefaultSession) {
  auto no_default_ptr = MakeGateway(false);
  serve::Service& no_default = *no_default_ptr;
  const std::string line =
      std::string(R"({"op":"label","image":)") + ImageToJson(PatternImage(0)) +
      "}";
  auto response = JsonValue::Parse(no_default.HandleLine(line));
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->Find("ok")->bool_value());

  auto with_default_ptr = MakeGateway(true);
  serve::Service& with_default = *with_default_ptr;
  response = JsonValue::Parse(with_default.HandleLine(line));
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->Find("ok")->bool_value())
      << response->Find("error")->str();
}

TEST_F(ServeGatewayTest, RegistryOpsLoadUnloadListTasks) {
  auto gateway_ptr = MakeGateway();
  serve::Service& gateway = *gateway_ptr;

  auto list = JsonValue::Parse(gateway.HandleLine(R"({"op":"list_tasks"})"));
  ASSERT_TRUE(list.ok());
  ASSERT_TRUE(list->Find("ok")->bool_value());
  const JsonValue* tasks = list->Find("tasks");
  ASSERT_TRUE(tasks != nullptr && tasks->is_array());
  EXPECT_EQ(tasks->items().size(), 2u);  // alpha + beta on disk
  for (const JsonValue& entry : tasks->items()) {
    EXPECT_FALSE(entry.Find("resident")->bool_value());
    EXPECT_TRUE(entry.Find("on_disk")->bool_value());
  }

  auto load = JsonValue::Parse(
      gateway.HandleLine(R"({"op":"load","task":"alpha"})"));
  ASSERT_TRUE(load.ok());
  ASSERT_TRUE(load->Find("ok")->bool_value())
      << load->Find("error")->str();
  EXPECT_EQ(load->Find("task")->str(), "alpha");
  EXPECT_DOUBLE_EQ(load->Find("pool_size")->number(), 12.0);
  EXPECT_GT(load->Find("approx_bytes")->number(), 0.0);

  auto stats = JsonValue::Parse(gateway.HandleLine(R"({"op":"stats"})"));
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(stats->Find("ok")->bool_value());
  const JsonValue* registry = stats->Find("registry");
  ASSERT_TRUE(registry != nullptr && registry->is_object());
  EXPECT_DOUBLE_EQ(registry->Find("resident_tasks")->number(), 1.0);
  EXPECT_DOUBLE_EQ(registry->Find("loads")->number(), 1.0);

  auto unload = JsonValue::Parse(
      gateway.HandleLine(R"({"op":"unload","task":"alpha"})"));
  ASSERT_TRUE(unload.ok());
  EXPECT_TRUE(unload->Find("ok")->bool_value());
  auto again = JsonValue::Parse(
      gateway.HandleLine(R"({"op":"unload","task":"alpha"})"));
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->Find("ok")->bool_value()) << "double unload accepted";

  auto missing = JsonValue::Parse(
      gateway.HandleLine(R"({"op":"load","task":"no_such_task"})"));
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing->Find("ok")->bool_value());
  auto traversal = JsonValue::Parse(
      gateway.HandleLine(R"({"op":"label","task":"../alpha","image":{}})"));
  ASSERT_TRUE(traversal.ok());
  EXPECT_FALSE(traversal->Find("ok")->bool_value());
}

TEST_F(ServeGatewayTest, StatsForANamedTaskReportsItsShape) {
  auto gateway_ptr = MakeGateway();
  serve::Service& gateway = *gateway_ptr;
  auto stats = JsonValue::Parse(
      gateway.HandleLine(R"({"op":"stats","task":"beta"})"));
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(stats->Find("ok")->bool_value())
      << stats->Find("error")->str();
  EXPECT_DOUBLE_EQ(stats->Find("pool_size")->number(),
                   static_cast<double>((*beta_)->pool_size()));
  auto bad = JsonValue::Parse(
      gateway.HandleLine(R"({"op":"stats","task":"missing"})"));
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(bad->Find("ok")->bool_value());
}

TEST_F(ServeGatewayTest, RunRoutesAcrossTasksInOrder) {
  // Alternating tasks, often inside one extraction batch: grouping must
  // split by session, never score a request against the other task's
  // pool (serve_pipeline_test forces the mixed batch directly).
  serve::ServiceConfig config;
  config.pipeline.extract_threads = 1;
  config.pipeline.max_batch = 4;
  config.pipeline.admission_capacity = 4;
  serve::RegistryConfig registry_config;
  registry_config.artifact_dir = *dir_;
  auto registry = std::make_shared<serve::SessionRegistry>(*extractor_,
                                                           registry_config);
  serve::Service gateway(registry, nullptr, config);

  std::ostringstream input;
  std::vector<data::Image> queries;
  std::vector<std::string> routed_tasks;
  for (int i = 0; i < 12; ++i) {
    const std::string task = (i % 2 == 0) ? "alpha" : "beta";
    queries.push_back(PatternImage(70 + i));
    routed_tasks.push_back(task);
    input << R"({"op":"label","task":")" << task << R"(","image":)"
          << ImageToJson(queries.back()) << "}\n";
  }
  std::istringstream in(input.str());
  std::ostringstream out;
  ASSERT_TRUE(gateway.Run(in, out).ok());

  std::istringstream lines(out.str());
  std::string line;
  size_t idx = 0;
  while (std::getline(lines, line)) {
    auto response = JsonValue::Parse(line);
    ASSERT_TRUE(response.ok()) << line;
    ASSERT_TRUE(response->Find("ok")->bool_value()) << line;
    ASSERT_LT(idx, queries.size());
    const serve::Session& session =
        routed_tasks[idx] == "alpha" ? **session_ : **beta_;
    auto direct = session.LabelOne(queries[idx]);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(static_cast<int>(response->Find("label")->number()),
              direct->hard)
        << "response " << idx << " (task " << routed_tasks[idx]
        << ") wrong or out of order";
    ++idx;
  }
  EXPECT_EQ(idx, queries.size());
}

}  // namespace
}  // namespace goggles
