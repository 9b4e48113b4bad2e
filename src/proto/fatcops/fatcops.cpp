#include "proto/fatcops/fatcops.h"

#include "util/check.h"
#include "util/fmt.h"

namespace discs::proto::fatcops {

void Client::start_tx(sim::StepContext& ctx, const TxSpec& spec) {
  router_.reset();
  best_.clear();

  if (spec.read_only()) {
    router_.fan_out(ctx, view(), spec.read_set,
                    [&](ProcessId, std::vector<ObjectId> objs) {
                      auto req = std::make_shared<RotRequest>();
                      req->tx = spec.id;
                      req->objects = std::move(objs);
                      return req;
                    });
    return;
  }

  // The whole transaction shares one timestamp so siblings embedded at
  // different servers compare equal for the same write.
  HlcTimestamp ts = hlc_.tick(ctx.now());
  std::map<ProcessId, std::vector<std::pair<ObjectId, ValueId>>> per_server;
  for (const auto& [obj, v] : spec.write_set)
    per_server[view().primary(obj)].emplace_back(obj, v);

  for (const auto& [server, writes] : per_server) {
    auto req = std::make_shared<WriteRequest>();
    req->tx = spec.id;
    req->writes = writes;
    req->client_ts = ts;
    // a) sibling values: every other write of this transaction.
    for (const auto& [obj, v] : spec.write_set) {
      bool local = false;
      for (const auto& [wobj, wv] : writes) local = local || wobj == obj;
      if (!local) req->siblings.push_back({obj, v});
    }
    // b) full causal context WITH values.
    for (const auto& [obj, item] : context_) {
      req->deps.push_back({obj, item.value, item.ts});
      req->dep_values.push_back(item);
    }
    router_.send(ctx, server, req);
  }

  // Writing extends the client's own context (with the shared ts).
  for (const auto& [obj, v] : spec.write_set)
    context_[obj] = {obj, v, ts, {}, {}};
}

void Client::observe_candidate(const ReadItem& item) {
  if (!item.value.valid()) return;
  auto it = best_.find(item.object);
  if (it == best_.end() || it->second.ts < item.ts) best_[item.object] = item;
  auto c = context_.find(item.object);
  if (c == context_.end() || c->second.ts < item.ts)
    context_[item.object] = item;
}

void Client::on_message(sim::StepContext& ctx, const sim::Message& m) {
  if (const auto* reply = m.as<RotReply>()) {
    if (!has_active() || reply->tx != active_spec().id) return;
    // Every value in the reply — direct answers plus embedded sibling and
    // dependency values — is a candidate; per object the newest wins.
    for (const auto& item : reply->items) {
      observe_candidate(item);
      hlc_.observe(item.ts, ctx.now());
    }
    for (const auto& item : reply->extras) observe_candidate(item);
    if (router_.ack(m.src)) {
      for (auto obj : active_spec().read_set) {
        auto it = best_.find(obj);
        if (it != best_.end()) deliver_read(obj, it->second.value);
      }
      complete_active(ctx);
    }
    return;
  }
  if (const auto* reply = m.as<WriteReply>()) {
    if (!has_active() || reply->tx != active_spec().id) return;
    hlc_.observe(reply->ts, ctx.now());
    if (router_.ack(m.src)) complete_active(ctx);
    return;
  }
}

std::string Client::proto_digest() const {
  sim::DigestBuilder b;
  std::ostringstream c;
  for (const auto& [obj, item] : context_)
    c << to_string(obj) << "=" << to_string(item.value) << "@"
      << item.ts.str() << ",";
  b.field("ctx", c.str()).field("await", join(router_.awaiting(), ","));
  b.field("hlc", hlc_.peek().str());
  return b.str();
}

void Server::on_message(sim::StepContext& ctx, const sim::Message& m) {
  if (const auto* req = m.as<RotRequest>()) {
    auto reply = std::make_shared<RotReply>();
    reply->tx = req->tx;
    for (auto obj : req->objects) {
      const kv::Version* v = store().latest_visible(obj);
      if (!v) continue;
      reply->items.push_back({obj, v->value, v->ts, v->deps, v->siblings});
      auto emb = embedded_.find({obj.value(), v->value.value()});
      if (emb != embedded_.end())
        for (const auto& item : emb->second) reply->extras.push_back(item);
    }
    ctx.send(m.src, reply);
    return;
  }

  if (const auto* req = m.as<WriteRequest>()) {
    HlcTimestamp ts = req->client_ts;  // transaction-wide timestamp
    hlc_.observe(ts, ctx.now());
    for (const auto& [obj, value] : req->writes) {
      kv::Version v;
      v.value = value;
      v.tx = req->tx;
      v.ts = ts;
      v.deps = req->deps;
      v.siblings = req->siblings;
      v.visible = true;
      store_mut().put(obj, std::move(v));

      // The embedded metadata replayed into future read replies: sibling
      // values (stamped with the transaction timestamp) and dependency
      // values (with their own timestamps).
      std::vector<ReadItem> emb;
      for (const auto& s : req->siblings) emb.push_back({s.object, s.value,
                                                         ts, {}, {}});
      for (const auto& d : req->dep_values) emb.push_back(d);
      embedded_[{obj.value(), value.value()}] = std::move(emb);
    }
    auto reply = std::make_shared<WriteReply>();
    reply->tx = req->tx;
    reply->ts = ts;
    ctx.send(m.src, reply);
    return;
  }
}

std::string Server::proto_digest() const {
  return sim::DigestBuilder()
      .field("hlc", hlc_.peek().str())
      .field("embedded", embedded_.size())
      .str();
}

ProcessId FatCops::add_client(sim::Simulation& sim,
                              const ClusterView& view) const {
  ProcessId id = sim.next_process_id();
  sim.add_process(std::make_unique<Client>(id, view));
  return id;
}

std::unique_ptr<ServerBase> FatCops::make_server(
    ProcessId id, const ClusterView& view) const {
  return std::make_unique<Server>(id, view);
}

}  // namespace discs::proto::fatcops
