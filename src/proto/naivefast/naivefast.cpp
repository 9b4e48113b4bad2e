#include "proto/naivefast/naivefast.h"

#include "util/fmt.h"

namespace discs::proto::naivefast {

void Client::start_tx(sim::StepContext& ctx, const TxSpec& spec) {
  router_.reset();
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
  // Write-only: one direct write per involved server (every replica under
  // partial replication), applied immediately.
  std::map<ProcessId, std::vector<std::pair<ObjectId, ValueId>>> per_server;
  for (const auto& [obj, v] : spec.write_set)
    for (auto replica : view().replicas(obj))
      per_server[replica].emplace_back(obj, v);
  for (const auto& [server, writes] : per_server) {
    auto req = std::make_shared<WriteRequest>();
    req->tx = spec.id;
    req->writes = writes;
    req->client_ts = hlc_.tick(ctx.now());
    router_.send(ctx, server, req);
  }
}

void Client::on_message(sim::StepContext& ctx, const sim::Message& m) {
  if (const auto* reply = m.as<RotReply>()) {
    if (!has_active() || reply->tx != active_spec().id) return;
    for (const auto& item : reply->items) deliver_read(item.object, item.value);
    if (router_.ack(m.src) && all_reads_delivered()) complete_active(ctx);
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
  b.field("await", join(router_.awaiting(), ","));
  b.field("hlc", hlc_.peek().str());
  return b.str();
}

void Server::on_message(sim::StepContext& ctx, const sim::Message& m) {
  if (const auto* req = m.as<RotRequest>()) {
    auto reply = std::make_shared<RotReply>();
    reply->tx = req->tx;
    reply->round = req->round;
    for (auto obj : req->objects) {
      const kv::Version* v = store().latest_visible(obj);
      if (v) reply->items.push_back({obj, v->value, v->ts, {}, {}});
    }
    ctx.send(m.src, reply);
    return;
  }
  if (const auto* req = m.as<WriteRequest>()) {
    HlcTimestamp ts = hlc_.observe(req->client_ts, ctx.now());
    for (const auto& [obj, value] : req->writes) {
      kv::Version v;
      v.value = value;
      v.tx = req->tx;
      v.ts = ts;
      v.visible = true;  // the naive part: immediate visibility, no
                         // coordination with sibling writes
      store_mut().put(obj, std::move(v));
    }
    auto reply = std::make_shared<WriteReply>();
    reply->tx = req->tx;
    reply->ts = ts;
    ctx.send(m.src, reply);
    return;
  }
}

std::string Server::proto_digest() const {
  sim::DigestBuilder b;
  b.field("hlc", hlc_.peek().str());
  return b.str();
}

ProcessId NaiveFast::add_client(sim::Simulation& sim,
                                const ClusterView& view) const {
  ProcessId id = sim.next_process_id();
  sim.add_process(std::make_unique<Client>(id, view));
  return id;
}

std::unique_ptr<ServerBase> NaiveFast::make_server(
    ProcessId id, const ClusterView& view) const {
  return std::make_unique<Server>(id, view);
}

}  // namespace discs::proto::naivefast
