#include "proto/cops/cops.h"

#include "util/check.h"
#include "util/fmt.h"

namespace discs::proto::cops {

void Client::start_tx(sim::StepContext& ctx, const TxSpec& spec) {
  router_.reset();
  round1_.clear();
  round_ = 1;

  if (spec.read_only()) {
    router_.fan_out(ctx, view(), spec.read_set,
                    [&](ProcessId, std::vector<ObjectId> objs) {
                      auto req = std::make_shared<RotRequest>();
                      req->tx = spec.id;
                      req->round = 1;
                      req->objects = std::move(objs);
                      return req;
                    });
    return;
  }

  DISCS_CHECK_MSG(spec.write_set.size() == 1,
                  "cops does not support multi-object write transactions");
  const auto& [obj, value] = spec.write_set.front();
  auto req = std::make_shared<WriteRequest>();
  req->tx = spec.id;
  req->writes = {{obj, value}};
  for (const auto& [dep_obj, dep] : context_) req->deps.push_back(dep);
  req->client_ts = hlc_.tick(ctx.now());
  router_.send(ctx, view().primary(obj), req);
}

void Client::maybe_finish_round1(sim::StepContext& ctx) {
  if (!router_.joined()) return;

  // Compute the causal cut: for each read object, the minimum acceptable
  // timestamp implied by the dependencies of the *other* returned versions.
  std::map<ObjectId, HlcTimestamp> need;
  for (const auto& [obj, item] : round1_) {
    for (const auto& dep : item.deps) {
      auto it = round1_.find(dep.object);
      if (it == round1_.end()) continue;  // not part of this read set
      if (it->second.ts < dep.ts) {
        auto& floor = need[dep.object];
        if (floor < dep.ts) floor = dep.ts;
      }
    }
  }

  if (need.empty()) {
    for (const auto& [obj, item] : round1_) {
      deliver_read(obj, item.value);
      context_[obj] = {obj, item.value, item.ts};
      hlc_.observe(item.ts, ctx.now());
    }
    complete_active(ctx);
    return;
  }

  // Round 2: re-fetch the stale objects at-or-after the dependency version.
  round_ = 2;
  std::map<ProcessId, std::shared_ptr<RotRequest>> per_server;
  for (const auto& [obj, ts] : need) {
    ProcessId server = view().primary(obj);
    auto& req = per_server[server];
    if (!req) {
      req = std::make_shared<RotRequest>();
      req->tx = active_spec().id;
      req->round = 2;
    }
    req->objects.push_back(obj);
    req->at_least[obj] = ts;
  }
  for (auto& [server, req] : per_server) router_.send(ctx, server, req);
}

void Client::on_message(sim::StepContext& ctx, const sim::Message& m) {
  const auto* reply = m.as<RotReply>();
  if (reply) {
    if (!has_active() || reply->tx != active_spec().id) return;
    if (reply->round == 1 && round_ == 1) {
      for (const auto& item : reply->items) round1_[item.object] = item;
      router_.ack(m.src);
      maybe_finish_round1(ctx);
    } else if (reply->round == 2 && round_ == 2) {
      for (const auto& item : reply->items) round1_[item.object] = item;
      if (router_.ack(m.src)) {
        for (const auto& [obj, item] : round1_) {
          deliver_read(obj, item.value);
          context_[obj] = {obj, item.value, item.ts};
          hlc_.observe(item.ts, ctx.now());
        }
        complete_active(ctx);
      }
    }
    return;
  }
  if (const auto* wreply = m.as<WriteReply>()) {
    if (!has_active() || wreply->tx != active_spec().id) return;
    hlc_.observe(wreply->ts, ctx.now());
    const auto& [obj, value] = active_spec().write_set.front();
    context_[obj] = {obj, value, wreply->ts};
    if (router_.ack(m.src)) complete_active(ctx);
    return;
  }
}

std::string Client::proto_digest() const {
  sim::DigestBuilder b;
  std::ostringstream c;
  for (const auto& [obj, dep] : context_)
    c << to_string(obj) << "=" << to_string(dep.value) << "@" << dep.ts.str()
      << ",";
  b.field("ctx", c.str());
  b.field("round", round_).field("await", join(router_.awaiting(), ","));
  b.field("hlc", hlc_.peek().str());
  return b.str();
}

void Server::on_message(sim::StepContext& ctx, const sim::Message& m) {
  if (const auto* req = m.as<RotRequest>()) {
    auto reply = std::make_shared<RotReply>();
    reply->tx = req->tx;
    reply->round = req->round;
    for (auto obj : req->objects) {
      const kv::Version* v = nullptr;
      auto floor = req->at_least.find(obj);
      if (floor != req->at_least.end()) {
        // Dependency re-fetch: the dependency was written here before the
        // dependent write existed, so a satisfying version is present.
        v = store().earliest_visible_from(obj, floor->second);
      } else {
        v = store().latest_visible(obj);
      }
      if (v) reply->items.push_back({obj, v->value, v->ts, v->deps, {}});
    }
    ctx.send(m.src, reply);
    return;
  }
  if (const auto* req = m.as<WriteRequest>()) {
    HlcTimestamp ts = hlc_.observe(req->client_ts, ctx.now());
    DISCS_CHECK(req->writes.size() == 1);
    const auto& [obj, value] = req->writes.front();
    kv::Version v;
    v.value = value;
    v.tx = req->tx;
    v.ts = ts;
    v.deps = req->deps;
    v.visible = true;
    store_mut().put(obj, std::move(v));
    auto reply = std::make_shared<WriteReply>();
    reply->tx = req->tx;
    reply->ts = ts;
    ctx.send(m.src, reply);
    return;
  }
}

std::string Server::proto_digest() const {
  return sim::DigestBuilder().field("hlc", hlc_.peek().str()).str();
}

ProcessId Cops::add_client(sim::Simulation& sim,
                           const ClusterView& view) const {
  ProcessId id = sim.next_process_id();
  sim.add_process(std::make_unique<Client>(id, view));
  return id;
}

std::unique_ptr<ServerBase> Cops::make_server(
    ProcessId id, const ClusterView& view) const {
  return std::make_unique<Server>(id, view);
}

}  // namespace discs::proto::cops
