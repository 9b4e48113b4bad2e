#include "obs/trace_io.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <iterator>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>

#include "fault/session.h"
#include "obs/json.h"
#include "proto/common/client.h"
#include "proto/registry.h"
#include "sim/schedule.h"
#include "util/check.h"
#include "util/fmt.h"

namespace discs::obs {

using discs::proto::ClientBase;
using discs::proto::Cluster;
using discs::proto::ClusterConfig;
using discs::proto::IdSource;
using discs::proto::TxSpec;

ExportedMessage ExportedMessage::from(const sim::Message& m, bool spans) {
  ExportedMessage out;
  out.id = m.id;
  out.src = m.src;
  out.dst = m.dst;
  if (m.payload) {
    out.kind = std::string(m.payload->kind());
    out.desc = m.payload->describe();
    out.values = m.payload->values_carried();
    out.bytes = m.payload->byte_size();
  }
  if (!spans || !m.payload) return out;

  // Cause annotations: attribute each payload part to the ROT it serves,
  // with the same shared helpers (and the same SessionEnvelope blindness)
  // as imposs::audit_rot.
  auto push_once = [](std::vector<std::uint64_t>& v, std::uint64_t x) {
    if (std::find(v.begin(), v.end(), x) == v.end()) v.push_back(x);
  };
  for (const auto& part : sim::payload_parts(m)) {
    if (TxId tx = proto::rot_request_tx(*part); tx.valid()) {
      push_once(out.req_txs, tx.value());
      if (const auto* r = sim::payload_as<proto::RotRequest>(part.get()))
        for (auto obj : r->objects)
          out.req_objs.emplace_back(tx.value(), obj.value());
    }
    if (TxId tx = proto::rot_reply_tx(*part); tx.valid()) {
      push_once(out.rep_txs, tx.value());
      if (const auto* r = sim::payload_as<proto::RotReply>(part.get())) {
        auto note = [&](ObjectId obj, ValueId v) {
          if (v.valid())
            out.reads.push_back({tx.value(), obj.value(), v.value()});
        };
        for (const auto& item : r->items) note(item.object, item.value);
        for (const auto& item : r->extras) note(item.object, item.value);
        for (const auto& p : r->pendings) note(p.object, p.value);
      }
    }
  }
  return out;
}

void sort_invokes(std::vector<InvokeRecord>& invokes) {
  std::sort(invokes.begin(), invokes.end(),
            [](const InvokeRecord& a, const InvokeRecord& b) {
              return a.at != b.at ? a.at < b.at
                                  : a.spec.id.value() < b.spec.id.value();
            });
}

namespace {

/// One live record as an ExportedEvent, each message converted by
/// `convert` (sim::Message -> MessageRef); ORs the schema decision into
/// `fault`.
template <class Convert>
ExportedEvent export_record(const sim::EventRecord& rec, bool& fault,
                            Convert convert) {
  ExportedEvent e;
  e.event = rec.event;
  e.seq = rec.seq;
  e.consumed.reserve(rec.consumed.size());
  for (const auto& m : rec.consumed) e.consumed.push_back(convert(m));
  e.sent.reserve(rec.sent.size());
  for (const auto& m : rec.sent) e.sent.push_back(convert(m));
  switch (rec.event.kind) {
    case sim::Event::Kind::kStep:
      break;
    case sim::Event::Kind::kDeliver:
    case sim::Event::Kind::kDrop:
    case sim::Event::Kind::kDuplicate:
    case sim::Event::Kind::kRetransmit:
      e.delivered = convert(rec.delivered);
      fault |= rec.event.kind != sim::Event::Kind::kDeliver;
      break;
    case sim::Event::Kind::kCrash:
    case sim::Event::Kind::kRestart:
      fault = true;
      break;
  }
  return e;
}

}  // namespace

ExportedEvent export_event_record(const sim::EventRecord& rec, bool spans,
                                  bool& fault) {
  return export_record(rec, fault, [&](const sim::Message& m) {
    return std::make_shared<const ExportedMessage>(
        ExportedMessage::from(m, spans));
  });
}

bool export_event_records(std::span<const sim::EventRecord> records,
                          bool spans, TraceDoc& doc) {
  // The latest record made for each message id, with the inputs of
  // ExportedMessage::from it was made from.  Every record of `records`
  // holds its payload alive, so equal payload addresses are one object.
  struct Made {
    ProcessId src, dst;
    const sim::Payload* payload;
    MessageRef ref;
  };
  std::unordered_map<std::uint64_t, Made> made;
  made.reserve(records.size());
  auto convert = [&](const sim::Message& m) {
    auto [it, fresh] = made.try_emplace(m.id.value());
    Made& e = it->second;
    if (fresh || e.src != m.src || e.dst != m.dst ||
        e.payload != m.payload.get()) {
      e = {m.src, m.dst, m.payload.get(),
           std::make_shared<const ExportedMessage>(
               ExportedMessage::from(m, spans))};
    }
    return e.ref;
  };
  bool any_fault = false;
  doc.events.reserve(doc.events.size() + records.size());
  for (const auto& rec : records)
    doc.events.push_back(export_record(rec, any_fault, convert));
  return any_fault;
}

TraceDoc make_doc(const proto::Protocol& protocol, std::string scenario,
                  const ClusterConfig& cfg, const sim::Simulation& sim,
                  const Cluster& cluster, std::vector<InvokeRecord> invokes) {
  TraceDoc doc;
  doc.protocol = protocol.name();
  doc.scenario = std::move(scenario);
  doc.cluster = cfg;
  doc.initial = cluster.initial_values;
  doc.invokes = std::move(invokes);
  sort_invokes(doc.invokes);
  const bool spans = cfg.record_spans;
  bool any_fault = export_event_records(sim.trace().records(), spans, doc);
  // Fault-free documents keep the v1 header so their bytes are identical to
  // what a v1 exporter wrote (see trace_io.h).
  doc.schema = any_fault ? std::string(kTraceSchemaV2)
                         : std::string(kTraceSchema);
  if (spans) doc.spans = SpanLog::global().notes();
  doc.history = proto::collect_history(sim, cluster.clients,
                                       cluster.initial_values);
  doc.final_digest = sim.digest();
  return doc;
}

// --- serialization ---------------------------------------------------------
//
// Header, span and footer records go through the Json tree: there is one
// header per artifact, and its "cluster" object is the codec chaos repros
// share.  Invoke, event and tx records — one per transaction or event — are
// written with the appending writer and read with JsonScanner straight
// into the TraceDoc: the same bytes and the same acceptance, without a tree
// per line.

namespace {

/// Wire names of the event kinds, for the writer and the reader.
constexpr std::pair<sim::Event::Kind, std::string_view> kEventKinds[] = {
    {sim::Event::Kind::kStep, "step"},
    {sim::Event::Kind::kDeliver, "deliver"},
    {sim::Event::Kind::kDrop, "drop"},
    {sim::Event::Kind::kDuplicate, "dup"},
    {sim::Event::Kind::kRetransmit, "retransmit"},
    {sim::Event::Kind::kCrash, "crash"},
    {sim::Event::Kind::kRestart, "restart"}};

std::string_view event_kind_name(sim::Event::Kind kind) {
  for (const auto& [k, name] : kEventKinds)
    if (k == kind) return name;
  return "?";
}

/// Appends `[put(x0),put(x1),...]`.
template <class Range, class Put>
void put_array(std::string& out, const Range& items, Put put) {
  out += '[';
  bool first = true;
  for (const auto& x : items) {
    if (!first) out += ',';
    first = false;
    put(x);
  }
  out += ']';
}

/// Appends `key` (the literal text before a value) and the value.
void put_uint(std::string& out, std::string_view key, std::uint64_t v) {
  out += key;
  json_uint(out, v);
}
void put_bool(std::string& out, std::string_view key, bool b) {
  out += key;
  out += b ? "true" : "false";
}

void put_msg(std::string& out, const ExportedMessage& m) {
  auto put_u = [&](std::uint64_t x) { json_uint(out, x); };
  put_uint(out, "{\"id\":", m.id.value());
  put_uint(out, ",\"src\":", m.src.value());
  put_uint(out, ",\"dst\":", m.dst.value());
  out += ",\"kind\":";
  json_quote(out, m.kind);
  out += ",\"desc\":";
  json_quote(out, m.desc);
  out += ",\"values\":";
  put_array(out, m.values, [&](ValueId v) { put_u(v.value()); });
  put_uint(out, ",\"bytes\":", m.bytes);
  // Cause annotations are optional fields: emitted only when non-empty
  // (i.e. only in record_spans captures), so span-free artifacts keep
  // their exact bytes.
  if (!m.req_txs.empty()) {
    out += ",\"rotreq\":";
    put_array(out, m.req_txs, put_u);
  }
  if (!m.rep_txs.empty()) {
    out += ",\"rotrep\":";
    put_array(out, m.rep_txs, put_u);
  }
  if (!m.req_objs.empty()) {
    out += ",\"rotobjs\":";
    put_array(out, m.req_objs, [&](const auto& p) {
      put_array(out, std::array{p.first, p.second}, put_u);
    });
  }
  if (!m.reads.empty()) {
    out += ",\"rotvals\":";
    put_array(out, m.reads, [&](const auto& r) { put_array(out, r, put_u); });
  }
  out += '}';
}

/// Where export_jsonl wrote each shared record so far: [offset, length)
/// of its JSON in the output.  Every record of the document is alive while
/// it is written, so equal addresses are one record.
using WrittenMessages =
    std::unordered_map<const ExportedMessage*,
                       std::pair<std::size_t, std::size_t>>;

/// Writes `m`, or copies its bytes when `written` holds them already.
void put_msg(std::string& out, const MessageRef& m, WrittenMessages* written) {
  if (written == nullptr) return put_msg(out, *m);
  auto [it, fresh] = written->try_emplace(m.get());
  auto& [begin, size] = it->second;
  if (!fresh) {
    out.append(out, begin, size);
    return;
  }
  begin = out.size();
  put_msg(out, *m);
  size = out.size() - begin;
}

void put_event(std::string& out, const ExportedEvent& e,
               WrittenMessages* written = nullptr) {
  auto put_msgs = [&](const std::vector<MessageRef>& msgs) {
    put_array(out, msgs,
              [&](const MessageRef& m) { put_msg(out, m, written); });
  };
  const std::string_view kind = event_kind_name(e.event.kind);
  put_uint(out, "{\"record\":\"event\",\"seq\":", e.seq);
  out += ",\"kind\":\"";
  out += kind;
  out += '"';
  switch (e.event.kind) {
    case sim::Event::Kind::kStep:
      put_uint(out, ",\"process\":", e.event.process.value());
      out += ",\"consumed\":";
      put_msgs(e.consumed);
      out += ",\"sent\":";
      put_msgs(e.sent);
      break;
    case sim::Event::Kind::kCrash:
      put_uint(out, ",\"process\":", e.event.process.value());
      put_bool(out, ",\"lossy\":", e.event.lossy);
      break;
    case sim::Event::Kind::kRestart:
      put_uint(out, ",\"process\":", e.event.process.value());
      break;
    default:
      // deliver / drop / dup / retransmit: one affected message each.
      DISCS_CHECK_MSG(e.delivered != nullptr,
                      "trace: " << kind << " event without message");
      out += ",\"msg\":";
      put_msg(out, e.delivered, written);
  }
  out += '}';
}

void put_invoke(std::string& out, const InvokeRecord& inv) {
  auto put_u = [&](std::uint64_t x) { json_uint(out, x); };
  put_uint(out, "{\"record\":\"invoke\",\"at\":", inv.at);
  put_uint(out, ",\"client\":", inv.client.value());
  put_uint(out, ",\"tx\":{\"id\":", inv.spec.id.value());
  out += ",\"reads\":";
  put_array(out, inv.spec.read_set, [&](ObjectId o) { put_u(o.value()); });
  out += ",\"writes\":";
  put_array(out, inv.spec.write_set, [&](const auto& w) {
    put_array(out, std::array{w.first.value(), w.second.value()}, put_u);
  });
  out += "}}";
}

void put_tx(std::string& out, const hist::TxRecord& t) {
  put_uint(out, "{\"record\":\"tx\",\"id\":", t.id.value());
  put_uint(out, ",\"client\":", t.client.value());
  put_bool(out, ",\"invoked\":", t.invoked);
  put_bool(out, ",\"completed\":", t.completed);
  put_uint(out, ",\"invoke_seq\":", t.invoke_seq);
  put_uint(out, ",\"complete_seq\":", t.complete_seq);
  out += ",\"reads\":";
  put_array(out, t.reads, [&](const hist::ReadOp& r) {
    put_uint(out, "{\"object\":", r.object.value());
    if (r.responded)
      put_uint(out, ",\"value\":", r.value.value());
    else
      out += ",\"value\":null";
    put_bool(out, ",\"responded\":", r.responded);
    out += '}';
  });
  out += ",\"writes\":";
  put_array(out, t.writes, [&](const hist::WriteOp& w) {
    put_uint(out, "{\"object\":", w.object.value());
    put_uint(out, ",\"value\":", w.value.value());
    put_bool(out, ",\"acked\":", w.acked);
    out += '}';
  });
  out += '}';
}

void put_prefix(std::string& out, const TraceDoc& doc) {
  JsonArray initial;
  for (const auto& [obj, v] : doc.initial)
    initial.push_back(Json(JsonArray{Json(obj.value()), Json(v.value())}));
  out += Json(JsonObject{{"record", Json("header")},
                         {"schema", Json(doc.schema)},
                         {"protocol", Json(doc.protocol)},
                         {"scenario", Json(doc.scenario)},
                         {"cluster", cluster_config_json(doc.cluster)},
                         {"initial", Json(std::move(initial))}})
             .dump();
  out += '\n';
  for (const auto& inv : doc.invokes) {
    put_invoke(out, inv);
    out += '\n';
  }
}

void put_suffix(std::string& out, const TraceDoc& doc, std::uint64_t events) {
  for (const auto& s : doc.spans) {
    out += Json(JsonObject{{"record", Json("span")},
                           {"kind", Json(std::string(span_kind_str(s.kind)))},
                           {"tx", Json(s.tx)},
                           {"proc", Json(s.proc)},
                           {"at", Json(s.at)},
                           {"round", Json(s.round)}})
               .dump();
    out += '\n';
  }
  for (const auto& t : doc.history.txs()) {
    put_tx(out, t);
    out += '\n';
  }
  out += Json(JsonObject{{"record", Json("footer")},
                         {"events", Json(events)},
                         {"final_digest", Json(doc.final_digest)}})
             .dump();
  out += '\n';
}

// Readers.  Each reads one object with JsonScanner and keeps the Json
// tree's acceptance: members in any order, the first of duplicate keys
// wins (Json::find), unknown members are skipped, and a missing or
// mistyped field is rejected with the Json accessor's message.

/// Reads the object at `s`, calling read(i) for the first member named
/// keys[i] and skipping every other member.  Each key whose bit is set in
/// `required` must be present; they are checked in key order.
template <class Read>
void read_fields(JsonScanner& s, std::span<const std::string_view> keys,
                 std::uint32_t required, Read read) {
  std::uint32_t seen = 0;
  s.open_object();
  std::string_view key;
  while (s.next_key(key)) {
    std::size_t i = 0;
    while (i < keys.size() && keys[i] != key) ++i;
    if (i == keys.size() || (seen >> i & 1)) {
      s.skip();
      continue;
    }
    seen |= 1u << i;
    read(i);
  }
  for (std::size_t i = 0; i < keys.size(); ++i)
    DISCS_CHECK_MSG(!(required >> i & 1) || (seen >> i & 1),
                    "json: missing field '" << keys[i] << "'");
}

template <class Read>
void read_each(JsonScanner& s, Read read) {
  s.open_array();
  while (s.next_element()) read();
}

/// An array of exactly N unsigned integers; `malformed` names a wrong
/// length, which is checked before the element types.
template <std::size_t N>
std::array<std::uint64_t, N> read_tuple(JsonScanner& s,
                                        const char* malformed) {
  std::array<std::optional<std::uint64_t>, N> v;
  std::size_t n = 0;
  read_each(s, [&] {
    if (n < N)
      v[n] = s.maybe_uint();
    else
      s.skip();
    ++n;
  });
  DISCS_CHECK_MSG(n == N, malformed);
  std::array<std::uint64_t, N> out{};
  for (std::size_t i = 0; i < N; ++i) {
    DISCS_CHECK_MSG(v[i].has_value(), "json: not an unsigned integer");
    out[i] = *v[i];
  }
  return out;
}

/// The string value of the first member `key` of the object `line`,
/// reading no further than that member.
std::string member_string(std::string_view line, std::string_view key) {
  JsonScanner s(line);
  s.open_object();
  std::string_view k;
  while (s.next_key(k)) {
    if (k == key) return std::string(s.string());
    s.skip();
  }
  s.finish();
  DISCS_CHECK_MSG(false, "json: missing field '" << key << "'");
  return {};
}

ExportedMessage read_message(JsonScanner& s) {
  static constexpr std::string_view kKeys[] = {
      "id",     "src",    "dst",    "kind",    "desc",   "values",
      "bytes",  "rotreq", "rotrep", "rotobjs", "rotvals"};
  ExportedMessage m;
  read_fields(s, kKeys, 0x7F, [&](std::size_t i) {
    switch (i) {
      case 0: m.id = MsgId(s.uint()); break;
      case 1: m.src = ProcessId(s.uint()); break;
      case 2: m.dst = ProcessId(s.uint()); break;
      case 3: m.kind = s.string(); break;
      case 4: m.desc = s.string(); break;
      case 5:
        read_each(s, [&] { m.values.push_back(ValueId(s.uint())); });
        break;
      case 6: m.bytes = s.uint(); break;
      case 7: read_each(s, [&] { m.req_txs.push_back(s.uint()); }); break;
      case 8: read_each(s, [&] { m.rep_txs.push_back(s.uint()); }); break;
      case 9:
        read_each(s, [&] {
          auto [tx, obj] = read_tuple<2>(s, "trace: malformed rotobjs pair");
          m.req_objs.emplace_back(tx, obj);
        });
        break;
      default:
        read_each(s, [&] {
          m.reads.push_back(
              read_tuple<3>(s, "trace: malformed rotvals triple"));
        });
    }
  });
  return m;
}

/// Message objects import_jsonl has parsed in full, by the id their text
/// starts with: the object's bytes, the depth() it was read at and its
/// record.
struct ParsedMessage {
  std::string_view bytes;
  std::size_t depth;
  MessageRef ref;
};
using ParsedMessages = std::unordered_map<std::uint64_t, ParsedMessage>;

/// The id a message object's text starts with when it is written the way
/// the exporter writes it (`{"id":<digits>`).
std::optional<std::uint64_t> leading_id(std::string_view text) {
  constexpr std::string_view kPrefix = "{\"id\":";
  if (!text.starts_with(kPrefix)) return std::nullopt;
  const char* first = text.data() + kPrefix.size();
  std::uint64_t id = 0;
  auto [end, ec] = std::from_chars(first, text.data() + text.size(), id);
  if (ec != std::errc() || end == first) return std::nullopt;
  return id;
}

/// A message object as a shared record: the record of the first object
/// parsed with the same leading id when the text continues with exactly
/// that object's bytes, else a full parse.  Equal bytes read at no greater
/// depth read the same, so sharing accepts and rejects what parsing would.
MessageRef read_msg(JsonScanner& s, ParsedMessages& parsed) {
  const std::string_view rest = s.rest();
  const std::optional<std::uint64_t> id = leading_id(rest);
  if (id) {
    const auto it = parsed.find(*id);
    if (it != parsed.end() && s.depth() <= it->second.depth &&
        rest.starts_with(it->second.bytes)) {
      s.advance(it->second.bytes.size());
      return it->second.ref;
    }
  }
  const std::size_t begin = s.offset(), depth = s.depth();
  auto ref = std::make_shared<const ExportedMessage>(read_message(s));
  if (id)
    parsed.try_emplace(
        *id, ParsedMessage{rest.substr(0, s.offset() - begin), depth, ref});
  return ref;
}

InvokeRecord read_invoke(JsonScanner& s) {
  static constexpr std::string_view kKeys[] = {"at", "client", "tx"};
  static constexpr std::string_view kTxKeys[] = {"id", "reads", "writes"};
  InvokeRecord inv;
  read_fields(s, kKeys, 0x7, [&](std::size_t i) {
    if (i == 0) {
      inv.at = s.uint();
    } else if (i == 1) {
      inv.client = ProcessId(s.uint());
    } else {
      read_fields(s, kTxKeys, 0x7, [&](std::size_t j) {
        TxSpec& spec = inv.spec;
        if (j == 0) {
          spec.id = TxId(s.uint());
        } else if (j == 1) {
          read_each(s, [&] { spec.read_set.push_back(ObjectId(s.uint())); });
        } else {
          read_each(s, [&] {
            auto [obj, v] = read_tuple<2>(s, "trace: malformed write pair");
            spec.write_set.emplace_back(ObjectId(obj), ValueId(v));
          });
        }
      });
    }
  });
  return inv;
}

/// Reads an event line whose kind the caller has already looked up: only
/// that kind's members are read, the others are skipped like unknown keys.
ExportedEvent read_event(JsonScanner& s, sim::Event::Kind kind,
                         ParsedMessages& parsed) {
  using Kind = sim::Event::Kind;
  static constexpr std::string_view kKeys[] = {"seq",  "process", "consumed",
                                               "sent", "msg",     "lossy"};
  std::uint32_t need = 0x1;  // seq
  switch (kind) {
    case Kind::kStep: need |= 0x2 | 0x4 | 0x8; break;
    case Kind::kCrash: need |= 0x2 | 0x20; break;
    case Kind::kRestart: need |= 0x2; break;
    default: need |= 0x10; break;
  }
  ExportedEvent e;
  ProcessId process;
  bool lossy = false;
  read_fields(s, kKeys, need, [&](std::size_t i) {
    if (!(need >> i & 1)) {
      s.skip();
      return;
    }
    switch (i) {
      case 0: e.seq = s.uint(); break;
      case 1: process = ProcessId(s.uint()); break;
      case 2:
        read_each(s, [&] { e.consumed.push_back(read_msg(s, parsed)); });
        break;
      case 3:
        read_each(s, [&] { e.sent.push_back(read_msg(s, parsed)); });
        break;
      case 4: e.delivered = read_msg(s, parsed); break;
      default: lossy = s.boolean();
    }
  });
  // Members the kind does not need stay at their defaults (invalid ids,
  // not lossy), exactly as the sim::Event factories leave them.
  e.event = {kind, process,
             e.delivered ? e.delivered->id : MsgId::invalid(), lossy};
  return e;
}

hist::TxRecord read_tx(JsonScanner& s) {
  static constexpr std::string_view kKeys[] = {
      "id",         "client",       "invoked", "completed",
      "invoke_seq", "complete_seq", "reads",   "writes"};
  static constexpr std::string_view kReadKeys[] = {"object", "responded",
                                                   "value"};
  static constexpr std::string_view kWriteKeys[] = {"object", "value",
                                                    "acked"};
  hist::TxRecord t;
  read_fields(s, kKeys, 0xFF, [&](std::size_t i) {
    switch (i) {
      case 0: t.id = TxId(s.uint()); break;
      case 1: t.client = ProcessId(s.uint()); break;
      case 2: t.invoked = s.boolean(); break;
      case 3: t.completed = s.boolean(); break;
      case 4: t.invoke_seq = s.uint(); break;
      case 5: t.complete_seq = s.uint(); break;
      case 6:
        read_each(s, [&] {
          // "value" is null, and not read, for an unanswered read.
          hist::ReadOp op;
          bool has_value = false;
          std::optional<std::uint64_t> value;
          read_fields(s, kReadKeys, 0x3, [&](std::size_t j) {
            if (j == 0) {
              op.object = ObjectId(s.uint());
            } else if (j == 1) {
              op.responded = s.boolean();
            } else {
              has_value = true;
              value = s.maybe_uint();
            }
          });
          if (op.responded) {
            DISCS_CHECK_MSG(has_value, "json: missing field 'value'");
            DISCS_CHECK_MSG(value.has_value(), "json: not an unsigned integer");
            op.value = ValueId(*value);
          }
          t.reads.push_back(op);
        });
        break;
      default:
        read_each(s, [&] {
          hist::WriteOp w;
          read_fields(s, kWriteKeys, 0x7, [&](std::size_t j) {
            if (j == 0)
              w.object = ObjectId(s.uint());
            else if (j == 1)
              w.value = ValueId(s.uint());
            else
              w.acked = s.boolean();
          });
          t.writes.push_back(w);
        });
    }
  });
  return t;
}

/// Imports one non-empty line into `doc`.
void import_line(std::string_view line, TraceDoc& doc, bool& saw_header,
                 bool& saw_footer, ParsedMessages& parsed) {
  const std::string record = member_string(line, "record");
  if (record == "header") {
    const Json j = Json::parse(line);
    DISCS_CHECK_MSG(!saw_header, "trace: duplicate header");
    saw_header = true;
    doc.schema = j.get("schema").as_string();
    DISCS_CHECK_MSG(
        doc.schema == kTraceSchema || doc.schema == kTraceSchemaV2,
        "trace: unsupported schema '" << doc.schema << "' (expected "
                                      << kTraceSchema << " or "
                                      << kTraceSchemaV2 << ")");
    doc.protocol = j.get("protocol").as_string();
    doc.scenario = j.get("scenario").as_string();
    doc.cluster = cluster_config_from_json(j.get("cluster"));
    for (const auto& pair : j.get("initial").as_array()) {
      const auto& kv = pair.as_array();
      DISCS_CHECK_MSG(kv.size() == 2, "trace: malformed initial pair");
      doc.initial[ObjectId(kv[0].as_uint())] = ValueId(kv[1].as_uint());
      doc.history.set_initial(ObjectId(kv[0].as_uint()),
                              ValueId(kv[1].as_uint()));
    }
    return;
  }
  DISCS_CHECK_MSG(saw_header, "trace: first record must be the header");
  JsonScanner s(line);
  if (record == "invoke") {
    doc.invokes.push_back(read_invoke(s));
    s.finish();
  } else if (record == "event") {
    const std::string kind = member_string(line, "kind");
    const auto* known = std::find_if(
        std::begin(kEventKinds), std::end(kEventKinds),
        [&](const auto& k) { return k.second == kind; });
    // Every kind but step and deliver is a v2 fault event.
    DISCS_CHECK_MSG(
        kind == "step" || kind == "deliver" || doc.schema == kTraceSchemaV2,
        "trace: fault event '" << kind << "' under a " << doc.schema
                               << " header");
    DISCS_CHECK_MSG(known != std::end(kEventKinds),
                    "trace: unknown event kind '" << kind << "'");
    ExportedEvent e = read_event(s, known->first, parsed);
    s.finish();
    DISCS_CHECK_MSG(e.seq == doc.events.size(),
                    "trace: event seq " << e.seq << " out of order");
    doc.events.push_back(std::move(e));
  } else if (record == "span") {
    const Json j = Json::parse(line);
    DISCS_CHECK_MSG(doc.cluster.record_spans,
                    "trace: span record without record_spans in header");
    SpanNote note;
    note.kind = span_kind_from(j.get("kind").as_string());
    note.tx = j.get("tx").as_uint();
    note.proc = j.get("proc").as_uint();
    note.at = j.get("at").as_uint();
    note.round = j.get("round").as_uint();
    doc.spans.push_back(note);
  } else if (record == "tx") {
    doc.history.add(read_tx(s));
    s.finish();
  } else if (record == "footer") {
    const Json j = Json::parse(line);
    saw_footer = true;
    DISCS_CHECK_MSG(j.get("events").as_uint() == doc.events.size(),
                    "trace: footer event count mismatch");
    doc.final_digest = j.get("final_digest").as_string();
  } else {
    DISCS_CHECK_MSG(false, "trace: unknown record '" << record << "'");
  }
}

}  // namespace

Json cluster_config_json(const proto::ClusterConfig& cfg) {
  const proto::ClusterConfig def;
  JsonObject out{
      {"servers", Json(std::uint64_t(cfg.num_servers))},
      {"clients", Json(std::uint64_t(cfg.num_clients))},
      {"objects", Json(std::uint64_t(cfg.num_objects))},
      {"replication", Json(std::uint64_t(cfg.replication))},
      {"tt_epsilon", Json(cfg.tt_epsilon)},
      {"gossip_interval", Json(std::uint64_t(cfg.gossip_interval))}};
  if (cfg.exactly_once) out.emplace_back("exactly_once", Json(true));
  if (cfg.durable_journal) out.emplace_back("durable_journal", Json(true));
  // The compaction threshold rides with the journal it tunes.
  if (cfg.durable_journal ||
      cfg.journal_compact_threshold != def.journal_compact_threshold)
    out.emplace_back("journal_compact_threshold",
                     Json(std::uint64_t(cfg.journal_compact_threshold)));
  if (cfg.record_spans) out.emplace_back("record_spans", Json(true));
  if (cfg.client_retransmit_after > 0)
    out.emplace_back("client_retransmit_after",
                     Json(std::uint64_t(cfg.client_retransmit_after)));
  // Replays rebuild the same ShardMap from this value plus
  // servers/replication/objects above.
  if (cfg.num_shards > 1)
    out.emplace_back("shards", Json(std::uint64_t(cfg.num_shards)));
  return Json(std::move(out));
}

proto::ClusterConfig cluster_config_from_json(const Json& j) {
  proto::ClusterConfig cfg;
  cfg.num_servers = j.get("servers").as_uint();
  cfg.num_clients = j.get("clients").as_uint();
  cfg.num_objects = j.get("objects").as_uint();
  cfg.replication = j.get("replication").as_uint();
  cfg.tt_epsilon = j.get("tt_epsilon").as_uint();
  cfg.gossip_interval = j.get("gossip_interval").as_uint();
  if (const Json* v = j.find("exactly_once")) cfg.exactly_once = v->as_bool();
  if (const Json* v = j.find("durable_journal"))
    cfg.durable_journal = v->as_bool();
  if (const Json* v = j.find("journal_compact_threshold"))
    cfg.journal_compact_threshold = v->as_uint();
  if (const Json* v = j.find("record_spans")) cfg.record_spans = v->as_bool();
  if (const Json* v = j.find("client_retransmit_after"))
    cfg.client_retransmit_after = v->as_uint();
  if (const Json* v = j.find("shards")) cfg.num_shards = v->as_uint();
  return cfg;
}

std::string event_line(const ExportedEvent& e) {
  std::string out;
  put_event(out, e);
  return out;
}

std::string export_prefix_jsonl(const TraceDoc& doc) {
  std::string out;
  put_prefix(out, doc);
  return out;
}

std::string export_suffix_jsonl(const TraceDoc& doc, std::uint64_t events) {
  std::string out;
  put_suffix(out, doc, events);
  return out;
}

std::string export_jsonl(const TraceDoc& doc) {
  std::string out;
  put_prefix(out, doc);
  WrittenMessages written;
  for (const auto& e : doc.events) {
    put_event(out, e, &written);
    out += '\n';
  }
  put_suffix(out, doc, doc.events.size());
  return out;
}

TraceDoc import_jsonl(std::string_view text) {
  TraceDoc doc;
  bool saw_header = false, saw_footer = false;
  // Views into `text`, which outlives the import.
  ParsedMessages parsed;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line.empty()) continue;
    auto syntax_error = [&](const JsonSyntaxError& e) {
      DISCS_CHECK_MSG(false, "trace line " << line_no << ": " << e.what());
    };
    try {
      import_line(line, doc, saw_header, saw_footer, parsed);
    } catch (const JsonSyntaxError& e) {
      syntax_error(e);
    } catch (const CheckFailure&) {
      // The readers stop at the first wrong field; a line that is not JSON
      // at all still reports its first syntax error, as a whole-line parse
      // would have.
      try {
        JsonScanner whole(line);
        whole.skip();
        whole.finish();
      } catch (const JsonSyntaxError& e) {
        syntax_error(e);
      }
      throw;
    }
  }
  DISCS_CHECK_MSG(saw_header, "trace: missing header");
  DISCS_CHECK_MSG(saw_footer, "trace: missing footer");
  return doc;
}

// --- replay ----------------------------------------------------------------

DocReplay replay_doc(const TraceDoc& doc, const proto::Protocol& protocol) {
  DocReplay out;
  if (protocol.name() != doc.protocol) {
    out.error = cat("protocol mismatch: document was recorded with '",
                    doc.protocol, "', got '", protocol.name(), "'");
    return out;
  }

  sim::Simulation sim;
  IdSource ids;
  Cluster cluster = protocol.build(sim, doc.cluster, ids);
  if (cluster.initial_values != doc.initial) {
    out.error = "initial values diverged from the document (non-"
                "deterministic build?)";
    return out;
  }

  std::size_t next_invoke = 0;
  auto run_invokes = [&]() {
    while (next_invoke < doc.invokes.size() &&
           doc.invokes[next_invoke].at <= sim.now()) {
      const InvokeRecord& inv = doc.invokes[next_invoke++];
      sim.process_as<ClientBase>(inv.client).invoke(inv.spec);
    }
  };

  for (const auto& e : doc.events) {
    run_invokes();
    if (!sim.apply(e.event)) {
      out.error = cat("replay diverged: event #", e.seq, " (",
                      e.event.describe(), ") was not applicable");
      return out;
    }
    ++out.applied;
  }
  run_invokes();

  out.reexport = make_doc(protocol, doc.scenario, doc.cluster, sim, cluster,
                          doc.invokes);
  out.history = out.reexport.history;
  out.digest_match = out.reexport.final_digest == doc.final_digest;
  out.ok = out.digest_match;
  if (!out.digest_match)
    out.error = "final configuration digest does not match the document";
  return out;
}

DocReplay replay_doc(const TraceDoc& doc) {
  auto protocol = proto::protocol_by_name(doc.protocol);
  return replay_doc(doc, *protocol);
}

// --- capture scenarios -----------------------------------------------------

namespace {

/// Couples a simulation with the invocation log the exporter needs.
struct Capture {
  sim::Simulation sim;
  IdSource ids;
  Cluster cluster;
  std::vector<InvokeRecord> invokes;

  void invoke(ProcessId client, const TxSpec& spec) {
    invokes.push_back({sim.now(), client, spec});
    sim.process_as<ClientBase>(client).invoke(spec);
  }

  bool completed(ProcessId client, TxId tx) const {
    return sim.process_as<const ClientBase>(client).has_completed(tx);
  }

  void run_until_completed(ProcessId client, TxId tx, std::size_t budget) {
    sim::run_fair(sim, {},
                  [&](const sim::Simulation& s) {
                    return s.process_as<const ClientBase>(client)
                        .has_completed(tx);
                  },
                  budget);
  }
};

// Quiescence phases drain propagation; protocols with periodic background
// gossip (wren) never go idle, so this is a hard cap on drain length rather
// than a wait.  Propagation in the default 2-server cluster takes tens of
// events; 1500 leaves a wide margin without bloating artifacts.
constexpr std::size_t kDrainBudget = 1500;

TxSpec richest_write(Capture& cap, const proto::Protocol& protocol) {
  return protocol.supports_write_tx()
             ? cap.ids.write_tx(cap.cluster.view.objects)
             : cap.ids.write_one(cap.cluster.view.objects[0]);
}

void scenario_quickread(Capture& cap, const proto::Protocol& protocol) {
  TxSpec w = richest_write(cap, protocol);
  cap.invoke(cap.cluster.clients[0], w);
  sim::run_to_quiescence(cap.sim, {}, kDrainBudget);

  TxSpec rot = cap.ids.read_tx(cap.cluster.view.objects);
  cap.invoke(cap.cluster.clients[1], rot);
  cap.run_until_completed(cap.cluster.clients[1], rot.id, 60000);
}

void scenario_mixed(Capture& cap, const proto::Protocol& protocol) {
  const auto& objects = cap.cluster.view.objects;
  for (int round = 0; round < 3; ++round) {
    TxSpec w = protocol.supports_write_tx()
                   ? cap.ids.write_tx(objects)
                   : cap.ids.write_one(objects[round % objects.size()]);
    cap.invoke(cap.cluster.clients[0], w);
    TxSpec r1 = cap.ids.read_tx(objects);
    cap.invoke(cap.cluster.clients[1], r1);
    cap.run_until_completed(cap.cluster.clients[1], r1.id, 60000);
    TxSpec r2 = cap.ids.read_tx({objects[0]});
    cap.invoke(cap.cluster.clients[2], r2);
    cap.run_until_completed(cap.cluster.clients[2], r2.id, 60000);
    sim::run_to_quiescence(cap.sim, {}, kDrainBudget);
  }
}

void scenario_violation(Capture& cap, const proto::Protocol& protocol) {
  ProcessId writer = cap.cluster.clients[0];
  ProcessId reader = cap.cluster.clients[1];
  const auto& view = cap.cluster.view;

  // Reach the paper's C0: the writer has read the initial values and the
  // network is idle.
  TxSpec t_in_r = cap.ids.read_tx(view.objects);
  cap.invoke(writer, t_in_r);
  cap.run_until_completed(writer, t_in_r.id, 60000);
  sim::run_to_quiescence(cap.sim, {}, kDrainBudget);

  // Invoke Tw and let the writer take one step (fanning out its writes),
  // then deliver ONLY what is destined to the last server.  Against
  // naivefast the value lands (immediate visibility) while the first
  // server still serves the initial value.
  TxSpec tw = richest_write(cap, protocol);
  cap.invoke(writer, tw);
  cap.sim.step(writer);
  ProcessId last = view.servers.back();
  cap.sim.deliver_between(writer, last);
  cap.sim.step(last);

  // A reader runs to completion against the half-delivered write; its
  // participants exclude the writer so nothing else drains.
  TxSpec rot = cap.ids.read_tx(view.objects);
  cap.invoke(reader, rot);
  std::vector<ProcessId> participants{reader};
  for (auto s : view.servers) participants.push_back(s);
  sim::run_fair(cap.sim, participants,
                [&](const sim::Simulation& s) {
                  return s.process_as<const ClientBase>(reader).has_completed(
                      rot.id);
                },
                20000);

  // Release the rest of the schedule so Tw (and its history record, which
  // the checker needs) completes where the protocol allows it.
  sim::run_to_quiescence(cap.sim, {}, kDrainBudget);
}

}  // namespace

std::vector<std::string> exportable_scenarios() {
  return {"quickread", "mixed", "violation"};
}

TraceDoc capture_scenario(const proto::Protocol& protocol,
                          const std::string& scenario,
                          const ClusterConfig& cfg) {
  Capture cap;
  cap.cluster = protocol.build(cap.sim, cfg, cap.ids);
  DISCS_CHECK_MSG(cap.cluster.clients.size() >= 3,
                  "exportable scenarios need at least 3 clients");

  if (scenario == "quickread") {
    scenario_quickread(cap, protocol);
  } else if (scenario == "mixed") {
    scenario_mixed(cap, protocol);
  } else if (scenario == "violation") {
    scenario_violation(cap, protocol);
  } else {
    DISCS_CHECK_MSG(false, "unknown exportable scenario '"
                               << scenario << "' (expected "
                               << join(exportable_scenarios(), " | ") << ")");
  }

  return make_doc(protocol, scenario, cfg, cap.sim, cap.cluster,
                  std::move(cap.invokes));
}

TraceDoc capture_faulted(const proto::Protocol& protocol,
                         const FaultedCaptureOptions& options) {
  Capture cap;
  cap.cluster = protocol.build(cap.sim, options.cluster, cap.ids);
  DISCS_CHECK_MSG(cap.cluster.clients.size() >= 2,
                  "capture_faulted needs at least 2 clients");
  fault::FaultSession session(
      options.plan, {cap.cluster.view.servers, cap.cluster.clients});

  auto drive_until_completed = [&](ProcessId client, TxId tx) {
    fault::run_fair_faulted(
        cap.sim, session, {},
        [&](const sim::Simulation& s) {
          return s.process_as<const ClientBase>(client).has_completed(tx);
        },
        options.budget);
  };

  TxSpec w = richest_write(cap, protocol);
  cap.invoke(cap.cluster.clients[0], w);
  drive_until_completed(cap.cluster.clients[0], w.id);

  TxSpec rot = cap.ids.read_tx(cap.cluster.view.objects);
  cap.invoke(cap.cluster.clients[1], rot);
  drive_until_completed(cap.cluster.clients[1], rot.id);

  std::string scenario =
      cat("faulted:", options.plan.name.empty() ? "(unnamed)"
                                                : options.plan.name.c_str());
  return make_doc(protocol, std::move(scenario), options.cluster, cap.sim,
                  cap.cluster, std::move(cap.invokes));
}

WorkloadCapture capture_workload(const proto::Protocol& protocol,
                                 const WorkloadCaptureOptions& options) {
  WorkloadCapture out;
  sim::Simulation sim;
  IdSource ids;
  Cluster cluster = protocol.build(sim, options.cluster, ids);
  out.result = wl::run_workload_sequential(sim, protocol, cluster, ids,
                                           options.workload);
  std::vector<InvokeRecord> invokes;
  for (const auto& w : out.result.windows)
    invokes.push_back({w.invoked_at, w.client, w.spec});
  out.doc = make_doc(protocol, cat("workload:seed", options.workload.seed),
                     options.cluster, sim, cluster, std::move(invokes));
  return out;
}

}  // namespace discs::obs
