#include "proto/common/payloads.h"

#include "proto/common/tx.h"
#include "util/fmt.h"

namespace discs::proto {

std::string TxSpec::describe() const {
  std::string out = cat(to_string(id), "(");
  bool first = true;
  for (auto obj : read_set) {
    out += cat(first ? "" : ", ", "r(", to_string(obj), ")");
    first = false;
  }
  for (const auto& [obj, v] : write_set) {
    out += cat(first ? "" : ", ", "w(", to_string(obj), ")", to_string(v));
    first = false;
  }
  return out + ")";
}

TxSpec IdSource::read_tx(const std::vector<ObjectId>& objects) {
  TxSpec t;
  t.id = next_tx();
  t.read_set = objects;
  return t;
}

TxSpec IdSource::write_tx(const std::vector<ObjectId>& objects) {
  TxSpec t;
  t.id = next_tx();
  for (auto obj : objects) t.write_set.emplace_back(obj, next_value());
  return t;
}

TxSpec IdSource::write_one(ObjectId object) { return write_tx({object}); }

std::string ReqId::str() const {
  return cat(to_string(sender), ":s", session, ":#", seq);
}

std::string SessionEnvelope::describe() const {
  return cat("eo[", req.str(), " stable<", stable_before, "] ",
             inner ? inner->describe() : "(empty)");
}

std::vector<ValueId> SessionEnvelope::values_carried() const {
  return inner ? inner->values_carried() : std::vector<ValueId>{};
}

std::size_t SessionEnvelope::byte_size() const {
  return 24 + (inner ? inner->byte_size() : 0);
}

std::string ReadItem::describe() const {
  return cat(to_string(object), "=", to_string(value), "@", ts.str());
}

std::size_t ReadItem::byte_size() const {
  return 24 + deps.size() * 24 + siblings.size() * 16;
}

std::string RotRequest::describe() const {
  return cat("RotRequest{", to_string(tx), " r", round, " [",
             join(objects, ",", [](ObjectId o) { return to_string(o); }),
             "]", snapshot ? cat(" snap=", snapshot->str()) : "", "}");
}

std::size_t RotRequest::byte_size() const {
  return 16 + objects.size() * 8 + (snapshot ? 16 : 0) + at_least.size() * 24;
}

std::string RotReply::describe() const {
  return cat("RotReply{", to_string(tx), " r", round, " [",
             join(items, ",", [](const ReadItem& i) { return i.describe(); }),
             "]", extras.empty() ? "" : cat(" +", extras.size(), " extras"),
             pendings.empty() ? "" : cat(" +", pendings.size(), " pending"),
             "}");
}

std::vector<ValueId> RotReply::values_carried() const {
  std::vector<ValueId> out;
  for (const auto& i : items)
    if (i.value.valid()) out.push_back(i.value);
  for (const auto& i : extras)
    if (i.value.valid()) out.push_back(i.value);
  for (const auto& p : pendings)
    if (p.value.valid()) out.push_back(p.value);
  return out;
}

std::size_t RotReply::byte_size() const {
  std::size_t n = 16;
  for (const auto& i : items) n += i.byte_size();
  for (const auto& i : extras) n += i.byte_size();
  n += pendings.size() * 40;
  return n;
}

std::string SnapshotRequest::describe() const {
  return cat("SnapshotRequest{", to_string(tx), "}");
}

std::string SnapshotReply::describe() const {
  return cat("SnapshotReply{", to_string(tx), " snap=", snapshot.str(), "}");
}

std::string WriteRequest::describe() const {
  return cat("WriteRequest{", to_string(tx), " [",
             join(writes, ",",
                  [](const auto& w) {
                    return cat(to_string(w.first), "=", to_string(w.second));
                  }),
             "] deps=", deps.size(),
             dep_values.empty() ? "" : cat(" fat=", dep_values.size()), "}");
}

std::vector<ValueId> WriteRequest::values_carried() const {
  std::vector<ValueId> out;
  for (const auto& [obj, v] : writes) out.push_back(v);
  for (const auto& s : siblings) out.push_back(s.value);
  for (const auto& i : dep_values)
    if (i.value.valid()) out.push_back(i.value);
  return out;
}

std::size_t WriteRequest::byte_size() const {
  std::size_t n = 24 + writes.size() * 16 + deps.size() * 24 +
                  siblings.size() * 16;
  for (const auto& i : dep_values) n += i.byte_size();
  return n;
}

std::string WriteReply::describe() const {
  return cat("WriteReply{", to_string(tx), ok ? " ok" : " FAIL", "@",
             ts.str(), "}");
}

std::string Prepare::describe() const {
  return cat("Prepare{", to_string(tx), " coord=", to_string(coordinator),
             " [",
             join(writes, ",",
                  [](const auto& w) {
                    return cat(to_string(w.first), "=", to_string(w.second));
                  }),
             "]}");
}

std::vector<ValueId> Prepare::values_carried() const {
  std::vector<ValueId> out;
  for (const auto& [obj, v] : writes) out.push_back(v);
  return out;
}

std::size_t Prepare::byte_size() const {
  return 24 + writes.size() * 16 + deps.size() * 24;
}

std::string PrepareAck::describe() const {
  return cat("PrepareAck{", to_string(tx), " proposed=", proposed.str(), "}");
}

std::string Commit::describe() const {
  return cat("Commit{", to_string(tx), " ts=", commit_ts.str(), "}");
}

std::string CommitAck::describe() const {
  return cat("CommitAck{", to_string(tx), " ts=", commit_ts.str(), "}");
}

std::string Gossip::describe() const {
  return cat("Gossip{s", origin_index, " stable=", stable.str(), " round=",
             round, "}");
}

std::string OldReaderQuery::describe() const {
  return cat("OldReaderQuery{", to_string(wtx), " ",
             join(deps, ",",
                  [](const auto& d) {
                    return cat(to_string(d.first), "<", d.second.str());
                  }),
             "}");
}

std::size_t OldReaderQuery::byte_size() const {
  return 16 + deps.size() * 24;
}

std::string OldReaderReply::describe() const {
  return cat("OldReaderReply{", to_string(wtx), " ", old_readers.size(),
             " old readers}");
}

std::size_t OldReaderReply::byte_size() const {
  return 24 + old_readers.size() * 8;
}

std::string TxStatusQuery::describe() const {
  return cat("TxStatusQuery{", to_string(reader), " asks about ",
             to_string(wtx), "}");
}

std::string TxStatusReply::describe() const {
  return cat("TxStatusReply{", to_string(wtx),
             committed ? " committed@" : " pending@", commit_ts.str(), "}");
}

TxId rot_request_tx(const sim::Payload& p) {
  if (const auto* r = sim::payload_as<RotRequest>(&p)) return r->tx;
  if (const auto* r = sim::payload_as<SnapshotRequest>(&p)) return r->tx;
  if (const auto* r = sim::payload_as<TxStatusQuery>(&p)) return r->reader;
  return TxId::invalid();
}

TxId rot_reply_tx(const sim::Payload& p) {
  if (const auto* r = sim::payload_as<RotReply>(&p)) return r->tx;
  if (const auto* r = sim::payload_as<SnapshotReply>(&p)) return r->tx;
  if (const auto* r = sim::payload_as<TxStatusReply>(&p)) return r->reader;
  return TxId::invalid();
}

}  // namespace discs::proto
