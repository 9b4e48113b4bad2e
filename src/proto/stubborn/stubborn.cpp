#include "proto/stubborn/stubborn.h"

#include "util/fmt.h"

namespace discs::proto::stubborn {

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
  std::map<ProcessId, std::vector<std::pair<ObjectId, ValueId>>> per_server;
  for (const auto& [obj, v] : spec.write_set)
    for (auto replica : view().replicas(obj))
      per_server[replica].emplace_back(obj, v);
  for (const auto& [server, writes] : per_server) {
    auto req = std::make_shared<WriteRequest>();
    req->tx = spec.id;
    req->writes = writes;
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
    if (router_.ack(m.src)) complete_active(ctx);
    return;
  }
}

std::string Client::proto_digest() const {
  return sim::DigestBuilder().field("await", join(router_.awaiting(), ",")).str();
}

void Server::on_message(sim::StepContext& ctx, const sim::Message& m) {
  if (const auto* req = m.as<RotRequest>()) {
    auto reply = std::make_shared<RotReply>();
    reply->tx = req->tx;
    for (auto obj : req->objects) {
      // Only ever serves visible versions — which stay the initial ones.
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
      v.visible = false;  // stored, acknowledged... and never exposed
      store_mut().put(obj, std::move(v));
    }
    auto reply = std::make_shared<WriteReply>();
    reply->tx = req->tx;
    reply->ts = ts;
    ctx.send(m.src, reply);
    return;
  }
  // Gossip is received and pointedly ignored.
}

void Server::on_tick(sim::StepContext& ctx) {
  // While any write is pending, chatter to the other servers forever —
  // the unbounded communication the induction of Lemma 3 exhibits.
  if (!store().has_pending()) return;
  for (auto other : view().servers) {
    if (other == id()) continue;
    auto g = std::make_shared<Gossip>();
    g->origin_index = my_index();
    g->round = gossip_round_;
    ctx.send(other, g);
  }
  ++gossip_round_;
}

std::string Server::proto_digest() const {
  return sim::DigestBuilder()
      .field("hlc", hlc_.peek().str())
      .field("gossip", gossip_round_)
      .str();
}

ProcessId Stubborn::add_client(sim::Simulation& sim,
                               const ClusterView& view) const {
  ProcessId id = sim.next_process_id();
  sim.add_process(std::make_unique<Client>(id, view));
  return id;
}

std::unique_ptr<ServerBase> Stubborn::make_server(
    ProcessId id, const ClusterView& view) const {
  return std::make_unique<Server>(id, view);
}

}  // namespace discs::proto::stubborn
