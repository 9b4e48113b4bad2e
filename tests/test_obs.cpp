// Tests for the observability layer: JSON round-trips, the counter
// registry, and the trace export/import/replay guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "consistency/checkers.h"
#include "fault/plan.h"
#include "obs/json.h"
#include "obs/metrics_io.h"
#include "obs/registry.h"
#include "obs/ring.h"
#include "obs/trace_io.h"
#include "proto/registry.h"
#include "util/fmt.h"

namespace discs {
namespace {

using obs::Json;
using obs::JsonArray;
using obs::JsonObject;

// --- Json -----------------------------------------------------------------

TEST(Json, ScalarRoundTrips) {
  EXPECT_EQ(Json::parse("null").dump(), "null");
  EXPECT_EQ(Json::parse("true").dump(), "true");
  EXPECT_EQ(Json::parse("false").dump(), "false");
  EXPECT_EQ(Json::parse("0").dump(), "0");
  EXPECT_EQ(Json::parse("\"hi\"").dump(), "\"hi\"");
  EXPECT_EQ(Json::parse("-2.5").dump(), "-2.5");
}

TEST(Json, Uint64RoundTripsExactly) {
  // Message ids pack (sender << 40) | seq; a double would corrupt them.
  std::uint64_t big = std::numeric_limits<std::uint64_t>::max();
  Json j(big);
  EXPECT_TRUE(j.is_uint());
  Json back = Json::parse(j.dump());
  EXPECT_TRUE(back.is_uint());
  EXPECT_EQ(back.as_uint(), big);

  std::uint64_t msgid = (std::uint64_t(0xABCDE) << 40) | 0x123456789A;
  EXPECT_EQ(Json::parse(Json(msgid).dump()).as_uint(), msgid);
}

TEST(Json, ObjectsPreserveInsertionOrder) {
  JsonObject o;
  o.emplace_back("zebra", Json(1));
  o.emplace_back("apple", Json(2));
  Json j{o};
  EXPECT_EQ(j.dump(), "{\"zebra\":1,\"apple\":2}");
  // ...and the parser keeps that order, so dump(parse(x)) == x.
  EXPECT_EQ(Json::parse(j.dump()).dump(), j.dump());
}

TEST(Json, StringEscapes) {
  Json j(std::string("a\"b\\c\n\t\x01"));
  Json back = Json::parse(j.dump());
  EXPECT_EQ(back.as_string(), "a\"b\\c\n\t\x01");
}

TEST(Json, NestedStructures) {
  const char* text =
      "{\"a\":[1,2,{\"b\":null}],\"c\":{\"d\":true,\"e\":\"f\"}}";
  Json j = Json::parse(text);
  EXPECT_EQ(j.dump(), text);
  EXPECT_EQ(j.get("a").as_array().size(), 3u);
  EXPECT_TRUE(j.get("a").as_array()[2].get("b").is_null());
  EXPECT_TRUE(j.get("c").get("d").as_bool());
  EXPECT_EQ(j.find("missing"), nullptr);
  EXPECT_THROW(j.get("missing"), CheckFailure);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), CheckFailure);
  EXPECT_THROW(Json::parse("{"), CheckFailure);
  EXPECT_THROW(Json::parse("[1,]"), CheckFailure);
  EXPECT_THROW(Json::parse("{\"a\":1,}"), CheckFailure);
  EXPECT_THROW(Json::parse("nul"), CheckFailure);
  EXPECT_THROW(Json::parse("1 2"), CheckFailure);  // trailing garbage
  EXPECT_THROW(Json::parse("\"unterminated"), CheckFailure);
}

TEST(Json, NestingDeeperThanTheBoundIsASyntaxError) {
  const std::size_t max = obs::kJsonMaxDepth;
  // `arrays` arrays around `objects` nested objects around a 0.
  auto nested = [](std::size_t arrays, std::size_t objects) {
    std::string out(arrays, '[');
    for (std::size_t i = 0; i < objects; ++i) out += "{\"a\":";
    out += '0';
    out.append(objects, '}');
    return out.append(arrays, ']');
  };
  // The what() of the JsonSyntaxError Json::parse throws, or "".
  auto parse_error = [](const std::string& text) -> std::string {
    try {
      Json::parse(text);
    } catch (const obs::JsonSyntaxError& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_EQ(parse_error(nested(max, 0)), "");
  EXPECT_EQ(parse_error(nested(max / 2, max / 2)), "");
  const std::string what =
      cat("json: nesting deeper than ", max, " at offset ");
  EXPECT_NE(parse_error(nested(max + 1, 0)).find(cat(what, max)),
            std::string::npos);
  EXPECT_NE(parse_error(nested(max / 2, max / 2 + 1)).find(what),
            std::string::npos);
  // Without the bound this recursed once per '[' and overflowed the stack.
  EXPECT_NE(parse_error(std::string(300000, '[')).find(cat(what, max)),
            std::string::npos);
}

TEST(Json, TypeMismatchThrows) {
  Json j(std::uint64_t{7});
  EXPECT_THROW(j.as_string(), CheckFailure);
  EXPECT_THROW(j.as_array(), CheckFailure);
  EXPECT_NO_THROW(j.as_double());  // numeric widening is allowed
  EXPECT_DOUBLE_EQ(j.as_double(), 7.0);
}

// --- Registry -------------------------------------------------------------

TEST(Registry, CountersStartAtZeroAndAccumulate) {
  obs::Registry reg;
  EXPECT_EQ(reg.value("x"), 0u);
  reg.inc("x");
  reg.inc("x", 4);
  EXPECT_EQ(reg.value("x"), 5u);
}

TEST(Registry, CounterReferencesSurviveResetAndInsertions) {
  obs::Registry reg;
  std::uint64_t& c = reg.counter("stable");
  c = 10;
  for (int i = 0; i < 100; ++i) reg.counter("other." + std::to_string(i));
  EXPECT_EQ(reg.value("stable"), 10u);
  reg.reset();
  EXPECT_EQ(reg.value("stable"), 0u);
  c = 3;  // the reference must still point at the live node
  EXPECT_EQ(reg.value("stable"), 3u);
}

TEST(Registry, GaugesAndPrefixes) {
  obs::Registry reg;
  reg.set_gauge("g.a", 1.5);
  EXPECT_DOUBLE_EQ(reg.gauge("g.a"), 1.5);
  EXPECT_TRUE(std::isnan(reg.gauge("never.set")));
  reg.inc("a.one");
  reg.inc("a.two");
  reg.inc("b.one");
  EXPECT_EQ(reg.counters("a.").size(), 2u);
  EXPECT_EQ(reg.counters().size(), 3u);
  EXPECT_NE(reg.table("a.").find("a.one"), std::string::npos);
  EXPECT_EQ(reg.table("a.").find("b.one"), std::string::npos);
}

TEST(Registry, DeltaAttributesGrowth) {
  obs::Registry reg;
  reg.inc("x", 10);
  obs::CounterDelta d(reg);
  reg.inc("x", 5);
  reg.inc("y", 2);
  auto delta = d.delta();
  EXPECT_EQ(delta.at("x"), 5u);
  EXPECT_EQ(delta.at("y"), 2u);
  EXPECT_EQ(delta.count("z"), 0u);
}

TEST(Registry, SimulationRunsPopulateGlobalRegistry) {
  auto& reg = obs::Registry::global();
  reg.reset();
  auto protocol = proto::protocol_by_name("cops-snow");
  proto::ClusterConfig cfg;
  obs::capture_scenario(*protocol, "quickread", cfg);
  EXPECT_GT(reg.value("sim.steps"), 0u);
  EXPECT_GT(reg.value("sim.deliveries"), 0u);
  EXPECT_GT(reg.value("sim.messages_sent"), 0u);
  EXPECT_EQ(reg.value("client.rot.completed"), 1u);
  EXPECT_GE(reg.value("client.rot.rounds"), 1u);
  EXPECT_GT(reg.value("server.recv.RotRequest"), 0u);
  reg.reset();
}

// --- Trace export / import / replay ---------------------------------------

struct RoundTripCase {
  const char* protocol;
  const char* scenario;
};

class TraceRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(TraceRoundTrip, ExportImportReplayIsByteExact) {
  auto [proto_name, scenario] = GetParam();
  auto protocol = proto::protocol_by_name(proto_name);
  proto::ClusterConfig cfg;
  cfg.num_servers = 2;
  cfg.num_clients = 5;
  cfg.num_objects = 2;

  obs::TraceDoc doc = obs::capture_scenario(*protocol, scenario, cfg);
  std::string bytes = obs::export_jsonl(doc);

  // Import parses back to an equivalent document...
  obs::TraceDoc imported = obs::import_jsonl(bytes);
  EXPECT_EQ(imported.protocol, proto_name);
  EXPECT_EQ(imported.scenario, scenario);
  EXPECT_EQ(imported.events.size(), doc.events.size());
  EXPECT_EQ(obs::export_jsonl(imported), bytes);

  // ...and replay on a fresh simulation reproduces the execution exactly:
  // every event applies, the final configuration digest matches, and the
  // re-exported artifact is byte-identical.
  obs::DocReplay replay = obs::replay_doc(imported);
  ASSERT_TRUE(replay.ok) << replay.error;
  EXPECT_EQ(replay.applied, doc.events.size());
  EXPECT_TRUE(replay.digest_match);
  EXPECT_EQ(obs::export_jsonl(replay.reexport), bytes);

  // The replayed history is the recorded history: same checker verdicts.
  auto orig = cons::check_causal_consistency(doc.history);
  auto replayed = cons::check_causal_consistency(replay.history);
  EXPECT_EQ(orig.ok(), replayed.ok());
  EXPECT_EQ(replay.history.txs().size(), doc.history.txs().size());
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, TraceRoundTrip,
    ::testing::Values(RoundTripCase{"cops-snow", "quickread"},
                      RoundTripCase{"cops-snow", "violation"},
                      RoundTripCase{"wren", "mixed"},
                      RoundTripCase{"wren", "quickread"},
                      RoundTripCase{"naivefast", "quickread"},
                      RoundTripCase{"naivefast", "violation"}),
    [](const auto& info) {
      std::string name =
          std::string(info.param.protocol) + "_" + info.param.scenario;
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(TraceIo, NaivefastViolationSurvivesTheRoundTrip) {
  // The flagship artifact: naivefast's causal violation must be visible to
  // the checker in the IMPORTED history, not just the live one.
  auto protocol = proto::protocol_by_name("naivefast");
  proto::ClusterConfig cfg;
  obs::TraceDoc doc = obs::capture_scenario(*protocol, "violation", cfg);
  obs::TraceDoc imported = obs::import_jsonl(obs::export_jsonl(doc));
  auto check = cons::check_causal_consistency(imported.history);
  ASSERT_FALSE(check.ok());
  bool intervening = false;
  for (const auto& v : check.violations)
    intervening |= (v.kind == "intervening-write");
  EXPECT_TRUE(intervening) << check.summary();

  // A correct protocol survives the same adversarial schedule.
  auto good = proto::protocol_by_name("cops-snow");
  obs::TraceDoc gdoc = obs::capture_scenario(*good, "violation", cfg);
  EXPECT_TRUE(cons::check_causal_consistency(gdoc.history).ok());
}

TEST(TraceIo, ImportRejectsCorruptInput) {
  EXPECT_THROW(obs::import_jsonl(""), CheckFailure);
  EXPECT_THROW(obs::import_jsonl("{\"record\":\"header\"}"), CheckFailure);
  EXPECT_THROW(obs::import_jsonl("not json at all"), CheckFailure);

  // A valid file with a tampered schema version must be rejected.
  auto protocol = proto::protocol_by_name("naivefast");
  proto::ClusterConfig cfg;
  std::string bytes =
      obs::export_jsonl(obs::capture_scenario(*protocol, "quickread", cfg));
  std::string tampered = bytes;
  auto pos = tampered.find("discs.trace.v1");
  ASSERT_NE(pos, std::string::npos);
  tampered.replace(pos, 14, "discs.trace.v9");
  EXPECT_THROW(obs::import_jsonl(tampered), CheckFailure);
}

TEST(TraceIo, UnknownScenarioThrows) {
  auto protocol = proto::protocol_by_name("naivefast");
  proto::ClusterConfig cfg;
  EXPECT_THROW(obs::capture_scenario(*protocol, "no-such-scenario", cfg),
               CheckFailure);
}

// --- trace codec -----------------------------------------------------------
//
// The trace writer and importer work on the text directly, without a Json
// tree per line.  These tests pin that they agree with the tree: the same
// bytes, and the same acceptance for edited and damaged artifacts.

proto::ClusterConfig small_cluster() {
  proto::ClusterConfig cfg;
  cfg.num_servers = 2;
  cfg.num_clients = 5;
  cfg.num_objects = 2;
  return cfg;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    lines.push_back(text.substr(pos, eol - pos));
    pos = eol + 1;
  }
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& l : lines) out += l + "\n";
  return out;
}

/// Whether two message records hold equal values; their addresses may
/// differ, since each document shares records of its own.
bool same_records(const obs::MessageRef& a, const obs::MessageRef& b) {
  return a == nullptr ? b == nullptr : b != nullptr && *a == *b;
}
bool same_records(const std::vector<obs::MessageRef>& a,
                  const std::vector<obs::MessageRef>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const auto& x, const auto& y) {
                      return same_records(x, y);
                    });
}

/// Re-renders a JSON value the way a hand edit might leave it: members in
/// reverse order, each key's first letter written as a \u escape, padding
/// around every token, an unknown member in front and a null duplicate of
/// the first key at the back (Json::find keeps the first occurrence).
std::string scrambled(const Json& j) {
  if (j.is_array()) {
    std::string out = "[ ";
    bool first = true;
    for (const auto& e : j.as_array()) {
      if (!first) out += " ,\t";
      first = false;
      out += scrambled(e);
    }
    return out + " ]";
  }
  if (!j.is_object()) return j.dump();
  const JsonObject& members = j.as_object();
  std::string out = "{ \"zz_unknown\" : {\"a\":[1,\"x\",null,{}]}";
  for (auto it = members.rbegin(); it != members.rend(); ++it) {
    char esc[8];
    std::snprintf(esc, sizeof esc, "\\u%04x",
                  static_cast<unsigned char>(it->first[0]));
    out += " ,\t\"" + std::string(esc) + it->first.substr(1) + "\" :  " +
           scrambled(it->second);
  }
  if (!members.empty())
    out += ", " + Json(members.front().first).dump() + ":null";
  return out + " \r}";
}

TEST(TraceCodec, ImportIgnoresKeyOrderPaddingEscapesAndUnknownKeys) {
  auto protocol = proto::protocol_by_name("cops-snow");
  const std::string bytes =
      obs::export_jsonl(obs::capture_scenario(*protocol, "mixed",
                                              small_cluster()));
  std::vector<std::string> lines = split_lines(bytes);
  for (auto& line : lines) line = scrambled(Json::parse(line));
  const std::string edited = join_lines(lines);
  ASSERT_NE(edited, bytes);

  const obs::TraceDoc canonical = obs::import_jsonl(bytes);
  const obs::TraceDoc back = obs::import_jsonl(edited);
  EXPECT_EQ(obs::export_jsonl(back), bytes);
  ASSERT_EQ(back.events.size(), canonical.events.size());
  bool step = false, deliver = false;
  for (std::size_t i = 0; i < back.events.size(); ++i) {
    const obs::ExportedEvent& a = canonical.events[i];
    const obs::ExportedEvent& b = back.events[i];
    step |= a.event.kind == sim::Event::Kind::kStep;
    deliver |= a.event.kind == sim::Event::Kind::kDeliver;
    EXPECT_EQ(b.event, a.event) << i;
    EXPECT_EQ(b.seq, a.seq);
    EXPECT_TRUE(same_records(b.consumed, a.consumed)) << i;
    EXPECT_TRUE(same_records(b.sent, a.sent)) << i;
    EXPECT_TRUE(same_records(b.delivered, a.delivered)) << i;
  }
  EXPECT_TRUE(step && deliver);
}

TEST(TraceCodec, DirectWriterAgreesWithTheJsonTree) {
  std::size_t lines = 0;
  auto expect_agrees = [&](const obs::TraceDoc& doc) {
    for (const auto& e : doc.events) {
      const std::string line = obs::event_line(e);
      ASSERT_EQ(Json::parse(line).dump(), line);
    }
    for (const auto& line : split_lines(obs::export_jsonl(doc))) {
      ASSERT_EQ(Json::parse(line).dump(), line);
      ++lines;
    }
  };
  for (const auto& p : proto::all_protocols())
    for (const auto& scenario : obs::exportable_scenarios()) {
      SCOPED_TRACE(p->name() + " " + scenario);
      expect_agrees(obs::capture_scenario(*p, scenario, small_cluster()));
    }

  auto cops = proto::protocol_by_name("cops-snow");
  obs::FaultedCaptureOptions faulted;
  faulted.plan.seed = 3;
  faulted.plan.rules.push_back(fault::drop_rule(0.35, 4));
  faulted.plan.rules.push_back(fault::duplicate_rule(0.25));
  const obs::TraceDoc v2 = obs::capture_faulted(*cops, faulted);
  ASSERT_EQ(v2.schema, obs::kTraceSchemaV2);
  expect_agrees(v2);

  auto ramp = proto::protocol_by_name("ramp");
  obs::WorkloadCaptureOptions spans;
  spans.cluster.num_servers = 3;
  spans.cluster.num_clients = 4;
  spans.cluster.num_objects = 6;
  spans.cluster.record_spans = true;
  spans.workload.num_txs = 12;
  spans.workload.read_objects = 2;
  spans.workload.seed = 3;
  const obs::TraceDoc annotated = obs::capture_workload(*ramp, spans).doc;
  ASSERT_FALSE(annotated.spans.empty());
  expect_agrees(annotated);
  EXPECT_GT(lines, 1000u);
}

/// The rejection message of `text`, or "" when it imports.
std::string rejection(const std::string& text) {
  try {
    obs::import_jsonl(text);
  } catch (const CheckFailure& e) {
    return e.what();
  }
  return "";
}

TEST(TraceCodec, EveryRejectionKeepsItsDiagnostic) {
  auto protocol = proto::protocol_by_name("naivefast");
  const std::string bytes = obs::export_jsonl(
      obs::capture_scenario(*protocol, "quickread", small_cluster()));
  const std::vector<std::string> lines = split_lines(bytes);
  auto first_line_with = [&](const char* text) {
    std::size_t i = 0;
    while (i < lines.size() && lines[i].find(text) == std::string::npos) ++i;
    return i;
  };
  const std::size_t first_event = first_line_with("\"record\":\"event\"");
  const std::size_t deliver = first_line_with("\"kind\":\"deliver\"");
  ASSERT_LT(deliver, lines.size());
  auto edited = [&](auto edit) {
    std::vector<std::string> copy = lines;
    edit(copy);
    return join_lines(copy);
  };
  auto expect_rejects = [](const std::string& text, const std::string& what) {
    const std::string got = rejection(text);
    EXPECT_NE(got.find(what), std::string::npos)
        << "expected '" << what << "', got '" << got << "'";
    EXPECT_EQ(got.find('\n'), std::string::npos) << got;
  };

  ASSERT_EQ(rejection(bytes), "");
  expect_rejects(edited([&](auto& l) { l[first_event].pop_back(); }),
                 cat("trace line ", first_event + 1, ": "));
  expect_rejects(edited([&](auto& l) { l[first_event].pop_back(); }),
                 cat("json: expected '}' at offset ",
                     lines[first_event].size() - 1));
  // A wrong field ahead of a syntax error still reports the syntax error.
  const std::string both = edited([&](auto& l) {
    auto& e = l[first_event];
    e.replace(e.find("\"seq\":0"), 7, "\"seq\":\"0\"");
    e.pop_back();
  });
  expect_rejects(both, cat("trace line ", first_event + 1, ": "));
  expect_rejects(both, cat("json: expected '}' at offset ",
                           lines[first_event].size() + 1));
  expect_rejects(edited([&](auto& l) {
                   auto& e = l[first_event];
                   e.erase(e.find("\"seq\":0,"), 8);
                 }),
                 "json: missing field 'seq'");
  expect_rejects(edited([&](auto& l) {
                   auto& e = l[deliver];
                   e.replace(e.find("\"deliver\""), 9, "\"drop\"");
                 }),
                 "trace: fault event 'drop' under a discs.trace.v1 header");
  expect_rejects(
      edited([&](auto& l) { std::swap(l[first_event], l[first_event + 1]); }),
      "trace: event seq 1 out of order");
  expect_rejects(edited([&](auto& l) {
                   auto& e = l[first_event];
                   e.replace(e.find("\"seq\":0"), 7, "\"seq\":\"0\"");
                 }),
                 "json: not an unsigned integer");
  expect_rejects(edited([&](auto& l) {
                   std::size_t last = l.size() - 1;
                   while (l[last].find("\"record\":\"event\"") ==
                          std::string::npos)
                     --last;
                   l.erase(l.begin() + static_cast<std::ptrdiff_t>(last));
                 }),
                 "trace: footer event count mismatch");
  expect_rejects(edited([](auto& l) { l.erase(l.begin()); }),
                 "trace: first record must be the header");
  expect_rejects("", "trace: missing header");
  expect_rejects(edited([](auto& l) { l.pop_back(); }),
                 "trace: missing footer");
}

std::string read_data(const std::string& name) {
  std::ifstream in(std::string(DISCS_TEST_DATA_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << name;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// The first whole lines of `text` that fit in `limit` bytes.
std::string head_lines(const std::string& text, std::size_t limit) {
  if (text.size() <= limit) return text;
  return text.substr(0, text.rfind('\n', limit) + 1);
}

TEST(TraceCodec, DamagedArtifactsImportOrThrowCheckFailure) {
  // Deterministic damage over the committed artifacts: truncation at every
  // 97th byte, one flipped byte at every 131st offset (the XOR mask cycles,
  // turning '{' into '[', digits into control bytes, quotes into '#', ...)
  // and every pair of adjacent lines swapped.  Each result must import or
  // throw CheckFailure; anything else (a crash, another exception) fails.
  // The large wren artifact is cut to its first 96 KiB of lines to keep the
  // pass quick under the sanitizers.
  const char* files[] = {"golden/cops-snow.mixed.trace.jsonl",
                         "golden/naivefast.mixed.trace.jsonl",
                         "golden/spanner.mixed.trace.jsonl",
                         "golden/wren.mixed.trace.jsonl",
                         "span_fixture.jsonl"};
  const unsigned char masks[] = {0x20, 0x01, 0x80, 0xFF, 0x0A, 0x5D};
  std::size_t imported = 0, rejected = 0;
  auto attempt = [&](const std::string& text) {
    try {
      obs::import_jsonl(text);
      ++imported;
    } catch (const CheckFailure&) {
      ++rejected;
    }
  };
  for (const char* name : files) {
    const std::string text = head_lines(read_data(name), 96 * 1024);
    for (std::size_t k = 0; k < text.size(); k += 97)
      attempt(text.substr(0, k));
    for (std::size_t k = 0, n = 0; k < text.size(); k += 131, ++n) {
      std::string flipped = text;
      flipped[k] = static_cast<char>(flipped[k] ^ masks[n % std::size(masks)]);
      attempt(flipped);
    }
    const std::vector<std::string> lines = split_lines(text);
    for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
      std::vector<std::string> swapped = lines;
      std::swap(swapped[i], swapped[i + 1]);
      attempt(join_lines(swapped));
    }
  }
  EXPECT_GT(imported, 0u);
  EXPECT_GT(rejected, 1000u);
}

TEST(TraceCodec, NestingDeeperThanTheBoundIsRejected) {
  const std::string deep(300000, '[');
  const std::string what =
      cat("json: nesting deeper than ", obs::kJsonMaxDepth, " at offset ");
  const std::string top = rejection(deep + "\n");
  EXPECT_NE(top.find("trace line 1: "), std::string::npos) << top;
  EXPECT_NE(top.find(cat(what, obs::kJsonMaxDepth)), std::string::npos)
      << top;

  // The same inside an unknown member of an event, which the reader skips.
  auto protocol = proto::protocol_by_name("naivefast");
  std::vector<std::string> lines = split_lines(obs::export_jsonl(
      obs::capture_scenario(*protocol, "quickread", small_cluster())));
  std::size_t event = 0;
  while (lines[event].find("\"record\":\"event\"") == std::string::npos)
    ++event;
  lines[event].insert(1, "\"zz\":" + deep + ",");
  const std::string inner = rejection(join_lines(lines));
  EXPECT_NE(inner.find(cat("trace line ", event + 1, ": ")), std::string::npos)
      << inner;
  EXPECT_NE(inner.find(what), std::string::npos) << inner;
}

/// Checks that each message's deliver and consumed occurrences point to
/// the record of its sent occurrence, and returns how many do.
std::size_t expect_one_record_per_message(const obs::TraceDoc& doc) {
  std::map<std::uint64_t, const obs::ExportedMessage*> sent;
  for (const auto& e : doc.events)
    for (const auto& m : e.sent) sent.try_emplace(m->id.value(), m.get());
  std::size_t shared = 0;
  auto expect_sent = [&](const obs::MessageRef& m, std::uint64_t seq) {
    const auto it = sent.find(m->id.value());
    ASSERT_NE(it, sent.end()) << "event " << seq;
    EXPECT_EQ(m.get(), it->second) << "event " << seq;
    ++shared;
  };
  for (const auto& e : doc.events) {
    if (e.event.kind == sim::Event::Kind::kDeliver)
      expect_sent(e.delivered, e.seq);
    for (const auto& m : e.consumed) expect_sent(m, e.seq);
  }
  return shared;
}

TEST(TraceCodec, EachMessageIsOneRecord) {
  for (const char* name : {"cops-snow", "naivefast", "spanner", "wren"}) {
    SCOPED_TRACE(name);
    const obs::TraceDoc golden = obs::import_jsonl(
        read_data(cat("golden/", name, ".mixed.trace.jsonl")));
    EXPECT_GT(expect_one_record_per_message(golden), 50u);
    const obs::DocReplay replay = obs::replay_doc(golden);
    ASSERT_TRUE(replay.ok) << replay.error;
    EXPECT_GT(expect_one_record_per_message(replay.reexport), 50u);
  }
  auto wren = proto::protocol_by_name("wren");
  obs::WorkloadCaptureOptions options;
  options.cluster.num_servers = 3;
  options.cluster.num_clients = 3;
  options.cluster.num_objects = 6;
  options.workload.num_txs = 20;
  options.workload.seed = 5;
  const obs::TraceDoc doc = obs::capture_workload(*wren, options).doc;
  EXPECT_GT(expect_one_record_per_message(doc), 100u);
}

TEST(TraceCodec, AHandEditedOccurrenceKeepsItsOwnRecord) {
  const std::string bytes = read_data("golden/cops-snow.mixed.trace.jsonl");
  std::vector<std::string> lines = split_lines(bytes);
  std::size_t deliver = 0;
  while (lines[deliver].find("\"kind\":\"deliver\"") == std::string::npos)
    ++deliver;
  std::string& line = lines[deliver];
  line.insert(line.find("\"desc\":\"") + 8, "edited ");
  const std::string edited = join_lines(lines);

  const std::uint64_t seq = Json::parse(line).get("seq").as_uint();

  const obs::TraceDoc original = obs::import_jsonl(bytes);
  const obs::TraceDoc doc = obs::import_jsonl(edited);
  EXPECT_EQ(obs::export_jsonl(doc), edited);
  ASSERT_EQ(doc.events.size(), original.events.size());
  const obs::MessageRef& hit = doc.events[seq].delivered;
  EXPECT_EQ(hit->desc, "edited " + original.events[seq].delivered->desc);
  // Every other occurrence keeps the original values; the edited message's
  // sent and consumed occurrences share a record that is not the edited one.
  std::size_t others = 0;
  for (std::size_t i = 0; i < doc.events.size(); ++i) {
    const obs::ExportedEvent& a = original.events[i];
    const obs::ExportedEvent& b = doc.events[i];
    EXPECT_TRUE(same_records(b.sent, a.sent)) << i;
    EXPECT_TRUE(same_records(b.consumed, a.consumed)) << i;
    if (i != seq) {
      EXPECT_TRUE(same_records(b.delivered, a.delivered)) << i;
    }
    for (const auto* msgs : {&b.sent, &b.consumed}) {
      for (const auto& m : *msgs) {
        if (m->id != hit->id) continue;
        EXPECT_NE(m.get(), hit.get()) << i;
        ++others;
      }
    }
  }
  EXPECT_EQ(others, 2u);
}

// --- Ring ------------------------------------------------------------------

TEST(Ring, RetainsTheMostRecentCapacityValues) {
  obs::Ring<int> ring(4);
  EXPECT_TRUE(ring.empty());
  for (int i = 0; i < 3; ++i) ring.push(i);
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.snapshot(), (std::vector<int>{0, 1, 2}));
  for (int i = 3; i < 11; ++i) ring.push(i);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.pushed(), 11u);
  // Oldest-first window over the last 4 pushes, across two wraparounds.
  EXPECT_EQ(ring.snapshot(), (std::vector<int>{7, 8, 9, 10}));
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.snapshot(), std::vector<int>{});
}

TEST(Ring, RejectsZeroCapacity) {
  EXPECT_THROW(obs::Ring<int>(0), CheckFailure);
}

// --- metrics timelines -----------------------------------------------------

obs::MetricsSeries sample_series() {
  obs::Registry reg;
  reg.inc("a.count", 3);
  reg.set_gauge("b.gauge", 1.5);
  reg.histogram("c.hist").record(7);
  reg.histogram("c.hist").record(11);
  obs::MetricsSeries s;
  s.source = "test:unit";
  s.samples.push_back(obs::sample_registry(reg, 100));
  reg.inc("a.count", 2);
  s.samples.push_back(obs::sample_registry(reg, 250));
  s.samples.back().shards["a.count"] = {2, 3};
  return s;
}

TEST(MetricsIo, ExportImportIsByteIdentical) {
  obs::MetricsSeries s = sample_series();
  std::string bytes = obs::export_metrics_jsonl(s);
  obs::MetricsSeries back = obs::import_metrics_jsonl(bytes);
  EXPECT_EQ(back, s);
  // Round-trip is byte-stable: serialize-the-import reproduces the input.
  EXPECT_EQ(obs::export_metrics_jsonl(back), bytes);
  // Incremental identity: the artifact is exactly header + sample lines.
  std::string inc = obs::metrics_header_line(s) + "\n";
  for (const auto& smp : s.samples)
    inc += obs::metrics_sample_line(smp) + "\n";
  EXPECT_EQ(inc, bytes);
}

TEST(MetricsIo, SampleCapturesCountersGaugesAndHistograms) {
  obs::MetricsSeries s = sample_series();
  const obs::MetricsSample& last = s.samples.back();
  EXPECT_EQ(last.at_us, 250u);
  EXPECT_EQ(last.counters.at("a.count"), 5u);
  EXPECT_DOUBLE_EQ(last.gauges.at("b.gauge"), 1.5);
  EXPECT_EQ(last.hists.at("c.hist").count, 2u);
  EXPECT_EQ(last.hists.at("c.hist").sum, 18u);
  EXPECT_EQ(last.hists.at("c.hist").max, 11u);
}

TEST(MetricsIo, ImportAcceptsHeaderOnlyAndRejectsGarbage) {
  obs::MetricsSeries empty;
  empty.source = "test:empty";
  obs::MetricsSeries back =
      obs::import_metrics_jsonl(obs::export_metrics_jsonl(empty));
  EXPECT_EQ(back.samples.size(), 0u);
  EXPECT_EQ(back.source, "test:empty");

  EXPECT_THROW(obs::import_metrics_jsonl("not json\n"), CheckFailure);
  EXPECT_THROW(obs::import_metrics_jsonl(
                   "{\"record\":\"header\",\"schema\":\"discs.metrics.v9\","
                   "\"source\":\"x\"}\n"),
               CheckFailure);
  // Non-monotone at_us is rejected.
  obs::MetricsSeries bad = sample_series();
  std::swap(bad.samples[0], bad.samples[1]);
  bad.samples[1].shards.clear();
  EXPECT_THROW(obs::import_metrics_jsonl(obs::export_metrics_jsonl(bad)),
               CheckFailure);
}

TEST(MetricsHub, FoldsOverwriteAndSamplesAggregate) {
  obs::MetricsHub hub(2);
  obs::Registry r0, r1;
  r0.inc("rt.steps", 10);
  r1.inc("rt.steps", 4);
  r1.set_gauge("g", 2.0);
  hub.fold(0, r0);
  hub.fold(1, r1);
  const std::string_view fams[] = {"rt.steps"};
  obs::MetricsSample s1 = hub.sample(5, fams);
  EXPECT_EQ(s1.counters.at("rt.steps"), 14u);
  EXPECT_DOUBLE_EQ(s1.gauges.at("g"), 2.0);
  EXPECT_EQ(s1.shards.at("rt.steps"), (std::vector<std::uint64_t>{10, 4}));

  // A re-fold replaces the slot snapshot (full values, not deltas): the
  // aggregate moves to the new totals, never double-counts.
  r0.inc("rt.steps", 1);
  hub.fold(0, r0);
  obs::MetricsSample s2 = hub.sample(6, fams);
  EXPECT_EQ(s2.counters.at("rt.steps"), 15u);

  // All-zero shard rows are dropped.
  obs::MetricsSample s3 = hub.sample(7, {});
  EXPECT_TRUE(s3.shards.empty());
}

}  // namespace
}  // namespace discs
