#include "proto/ramp/ramp.h"

#include <algorithm>

#include "util/check.h"
#include "util/fmt.h"

namespace discs::proto::ramp {

using clk::HlcTimestamp;

void Client::start_tx(sim::StepContext& ctx, const TxSpec& spec) {
  router_.reset();
  got_.clear();
  phase_ = 1;

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

  // PREPARE at every involved partition with the full sibling list.
  write_ts_ = hlc_.tick(ctx.now());
  router_.fan_out(ctx, view(),
                  [&] {
                    std::vector<ObjectId> objects;
                    for (const auto& [obj, v] : spec.write_set)
                      objects.push_back(obj);
                    return objects;
                  }(),
                  [&](ProcessId, std::vector<ObjectId>) {
                    auto req = std::make_shared<Prepare>();
                    req->tx = spec.id;
                    req->coordinator = id();
                    req->writes = spec.write_set;
                    req->client_ts = write_ts_;
                    return req;
                  });
}

void Client::after_round1(sim::StepContext& ctx) {
  // RAMP-Fast repair: for each returned item, its sibling metadata names
  // the other objects its transaction wrote, all at the same timestamp.
  // Any read-set object whose round-1 version is older must be re-fetched
  // at exactly that version.
  std::map<ObjectId, HlcTimestamp> need;
  for (const auto& [obj, item] : got_) {
    for (const auto& sib : item.siblings) {
      auto it = got_.find(sib.object);
      if (it == got_.end()) continue;  // not in our read set
      if (it->second.ts < item.ts) {
        auto& floor = need[sib.object];
        if (floor < item.ts) floor = item.ts;
      }
    }
  }

  if (need.empty()) {
    for (auto obj : active_spec().read_set) {
      auto it = got_.find(obj);
      if (it != got_.end()) deliver_read(obj, it->second.value);
    }
    complete_active(ctx);
    return;
  }

  phase_ = 2;
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
  if (const auto* reply = m.as<RotReply>()) {
    if (!has_active() || reply->tx != active_spec().id) return;
    for (const auto& item : reply->items) {
      if (!item.value.valid()) continue;
      auto it = got_.find(item.object);
      if (it == got_.end() || it->second.ts < item.ts)
        got_[item.object] = item;
      hlc_.observe(item.ts, ctx.now());
    }
    if (!router_.ack(m.src)) return;
    if (reply->round == 1 && phase_ == 1) {
      after_round1(ctx);
    } else {
      for (auto obj : active_spec().read_set) {
        auto it = got_.find(obj);
        if (it != got_.end()) deliver_read(obj, it->second.value);
      }
      complete_active(ctx);
    }
    return;
  }

  if (const auto* ack = m.as<PrepareAck>()) {
    if (!has_active() || ack->tx != active_spec().id || phase_ != 1) return;
    if (router_.ack(m.src)) {
      phase_ = 2;
      std::set<std::uint64_t> participants;
      for (const auto& [obj, v] : active_spec().write_set)
        participants.insert(view().primary(obj).value());
      for (auto sid : participants) {
        auto c = std::make_shared<Commit>();
        c->tx = active_spec().id;
        c->commit_ts = write_ts_;
        router_.send(ctx, ProcessId(sid), c);
      }
    }
    return;
  }

  if (const auto* ack = m.as<CommitAck>()) {
    if (!has_active() || ack->tx != active_spec().id || phase_ != 2) return;
    if (router_.ack(m.src)) complete_active(ctx);
    return;
  }
}

std::string Client::proto_digest() const {
  return sim::DigestBuilder()
      .field("phase", phase_)
      .field("await", join(router_.awaiting(), ","))
      .field("wts", write_ts_.str())
      .field("hlc", hlc_.peek().str())
      .str();
}

void Server::on_message(sim::StepContext& ctx, const sim::Message& m) {
  if (const auto* req = m.as<RotRequest>()) {
    auto reply = std::make_shared<RotReply>();
    reply->tx = req->tx;
    reply->round = req->round;
    for (auto obj : req->objects) {
      auto floor = req->at_least.find(obj);
      if (floor == req->at_least.end()) {
        const kv::Version* v = store().latest_visible(obj);
        if (v) reply->items.push_back({obj, v->value, v->ts, {}, v->siblings});
        continue;
      }
      // Round 2: get-by-version.  Prepared versions are served too — the
      // requested version is guaranteed to commit (its sibling already
      // did), so this repair never blocks.
      const kv::Version* v = nullptr;
      for (const auto& ver : store().chain(obj))
        if (ver.ts >= floor->second && (v == nullptr || ver.ts < v->ts))
          v = &ver;
      if (v) reply->items.push_back({obj, v->value, v->ts, {}, v->siblings});
    }
    ctx.send(m.src, reply);
    return;
  }

  if (const auto* p = m.as<Prepare>()) {
    HlcTimestamp ts = p->client_ts;
    hlc_.observe(ts, ctx.now());
    PendingWrite pw;
    pw.ts = ts;
    for (const auto& [obj, v] : p->writes) {
      pw.all_writes.push_back({obj, v});
      if (stores(obj)) pw.local_writes.emplace_back(obj, v);
    }
    // Stage the version now (invisible): round-2 reads may fetch it.
    for (const auto& [obj, value] : pw.local_writes) {
      kv::Version v;
      v.value = value;
      v.tx = p->tx;
      v.ts = ts;
      for (const auto& sib : pw.all_writes)
        if (sib.object != obj) v.siblings.push_back(sib);
      v.visible = false;
      store_mut().put(obj, std::move(v));
    }
    pending_[p->tx] = std::move(pw);
    auto ack = std::make_shared<PrepareAck>();
    ack->tx = p->tx;
    ack->proposed = ts;
    ctx.send(m.src, ack);
    return;
  }

  if (const auto* c = m.as<Commit>()) {
    auto it = pending_.find(c->tx);
    if (it != pending_.end()) {
      for (const auto& [obj, value] : it->second.local_writes)
        store_mut().make_visible(obj, value);
      pending_.erase(it);
    }
    auto ack = std::make_shared<CommitAck>();
    ack->tx = c->tx;
    ack->commit_ts = c->commit_ts;
    ctx.send(m.src, ack);
    return;
  }
}

std::string Server::proto_digest() const {
  return sim::DigestBuilder()
      .field("pending", pending_.size())
      .field("hlc", hlc_.peek().str())
      .str();
}

ProcessId Ramp::add_client(sim::Simulation& sim,
                           const ClusterView& view) const {
  ProcessId id = sim.next_process_id();
  sim.add_process(std::make_unique<Client>(id, view));
  return id;
}

std::unique_ptr<ServerBase> Ramp::make_server(
    ProcessId id, const ClusterView& view) const {
  return std::make_unique<Server>(id, view);
}

}  // namespace discs::proto::ramp
