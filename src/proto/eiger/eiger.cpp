#include "proto/eiger/eiger.h"

#include <algorithm>

#include "util/check.h"
#include "util/fmt.h"

namespace discs::proto::eiger {

using clk::HlcTimestamp;

void Client::start_tx(sim::StepContext& ctx, const TxSpec& spec) {
  router_r1_.reset();
  router_r2_.reset();
  got_.clear();
  need_.clear();
  candidates_.clear();
  queries_outstanding_ = 0;

  if (spec.read_only()) {
    router_r1_.fan_out(ctx, view(), spec.read_set,
                       [&](ProcessId, std::vector<ObjectId> objs) {
                         auto req = std::make_shared<RotRequest>();
                         req->tx = spec.id;
                         req->round = 1;
                         req->objects = std::move(objs);
                         return req;
                       });
    return;
  }

  // Write transaction: hand the whole write set to the coordinator (the
  // primary of the first written object), which runs 2PC server-side.
  auto req = std::make_shared<WriteRequest>();
  req->tx = spec.id;
  req->writes = spec.write_set;
  for (const auto& [obj, dep] : context_) req->deps.push_back(dep);
  req->client_ts = hlc_.tick(ctx.now());
  ctx.send(view().primary(spec.write_set.front().first), req);
}

void Client::after_round1(sim::StepContext& ctx) {
  // Compute re-fetch floors from dependency and sibling references.
  auto consider = [&](ObjectId obj, HlcTimestamp ts) {
    auto got = got_.find(obj);
    bool in_read_set = false;
    for (auto o : active_spec().read_set) in_read_set |= (o == obj);
    if (!in_read_set) return;
    HlcTimestamp have = got != got_.end() ? got->second.ts : HlcTimestamp{};
    if (have < ts) {
      auto& floor = need_[obj];
      if (floor < ts) floor = ts;
    }
  };
  for (const auto& [obj, item] : got_) {
    for (const auto& dep : item.deps) consider(dep.object, dep.ts);
    // Sibling versions share the commit timestamp of this item.
    for (const auto& sib : item.siblings) consider(sib.object, item.ts);
  }
  // Session floors: what this client already observed — its own writes and
  // prior reads (context_) — must never regress.  A round-1 reply can be
  // older than the client's context when the committing transaction's
  // Commit message is still queued at that participant (the coordinator
  // replied to the writer after collecting prepare-acks, so the version is
  // at least pending everywhere).  Fair schedules apply commits before the
  // next read arrives, which is why only genuinely skewed (rt-backend)
  // schedules ever exposed the missing floor.
  for (const auto& [obj, dep] : context_) consider(obj, dep.ts);

  if (need_.empty()) {
    maybe_complete(ctx);
    return;
  }

  std::map<ProcessId, std::shared_ptr<RotRequest>> per_server;
  for (const auto& [obj, ts] : need_) {
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
  for (auto& [server, req] : per_server) router_r2_.send(ctx, server, req);
}

void Client::maybe_complete(sim::StepContext& ctx) {
  if (!router_r1_.joined() || !router_r2_.joined() ||
      queries_outstanding_ > 0 || !need_.empty())
    return;
  for (auto obj : active_spec().read_set) {
    auto it = got_.find(obj);
    if (it == got_.end()) continue;
    deliver_read(obj, it->second.value);
    context_[obj] = {obj, it->second.value, it->second.ts};
    hlc_.observe(it->second.ts, ctx.now());
  }
  complete_active(ctx);
}

void Client::on_message(sim::StepContext& ctx, const sim::Message& m) {
  if (const auto* reply = m.as<RotReply>()) {
    if (!has_active() || reply->tx != active_spec().id) return;

    if (reply->round == 1) {
      for (const auto& item : reply->items) got_[item.object] = item;
      if (router_r1_.ack(m.src)) after_round1(ctx);
      return;
    }

    // Round 2.
    for (const auto& item : reply->items) {
      auto need = need_.find(item.object);
      if (need == need_.end()) continue;
      if (item.value.valid() && item.ts >= need->second) {
        got_[item.object] = item;
        need_.erase(need);
      }
    }
    // Objects still needed: their satisfying version is mid-commit; the
    // reply disclosed the pending value — confirm with the coordinator.
    for (const auto& p : reply->pendings) {
      auto need = need_.find(p.object);
      if (need == need_.end()) continue;
      if (candidates_.count(p.object)) continue;  // already querying
      candidates_[p.object] = {p.wtx, p.value, p.coordinator};
      auto q = std::make_shared<TxStatusQuery>();
      q->reader = active_spec().id;
      q->wtx = p.wtx;
      ctx.send(p.coordinator, q);
      ++queries_outstanding_;
    }
    router_r2_.ack(m.src);
    maybe_complete(ctx);
    return;
  }

  if (const auto* st = m.as<TxStatusReply>()) {
    if (!has_active() || st->reader != active_spec().id) return;
    DISCS_CHECK(queries_outstanding_ > 0);
    if (!st->committed) {
      // Not yet decided — ask again.  Every reply is immediate, so this
      // loop is nonblocking; under fair schedules it ends quickly.
      auto q = std::make_shared<TxStatusQuery>();
      q->reader = st->reader;
      q->wtx = st->wtx;
      ctx.send(m.src, q);
      return;
    }
    --queries_outstanding_;
    for (auto it = candidates_.begin(); it != candidates_.end();) {
      if (it->second.wtx == st->wtx) {
        auto need = need_.find(it->first);
        if (need != need_.end() && st->commit_ts >= need->second) {
          got_[it->first] = {it->first, it->second.value, st->commit_ts,
                             {}, {}};
          need_.erase(need);
        }
        it = candidates_.erase(it);
      } else {
        ++it;
      }
    }
    maybe_complete(ctx);
    return;
  }

  if (const auto* reply = m.as<WriteReply>()) {
    if (!has_active() || reply->tx != active_spec().id) return;
    hlc_.observe(reply->ts, ctx.now());
    for (const auto& [obj, v] : active_spec().write_set)
      context_[obj] = {obj, v, reply->ts};
    complete_active(ctx);
    return;
  }
}

std::string Client::proto_digest() const {
  sim::DigestBuilder b;
  std::ostringstream c;
  for (const auto& [obj, dep] : context_)
    c << to_string(obj) << "=" << to_string(dep.value) << "@" << dep.ts.str()
      << ",";
  b.field("ctx", c.str())
      .field("r1", join(router_r1_.awaiting(), ","))
      .field("r2", join(router_r2_.awaiting(), ","))
      .field("needs", need_.size())
      .field("queries", queries_outstanding_)
      .field("hlc", hlc_.peek().str());
  return b.str();
}

void Server::apply_commit(TxId tx, HlcTimestamp cts) {
  auto it = pending_.find(tx);
  if (it == pending_.end()) return;
  for (const auto& [obj, value] : it->second.local_writes) {
    kv::Version v;
    v.value = value;
    v.tx = tx;
    v.ts = cts;
    v.deps = it->second.deps;
    for (const auto& sib : it->second.all_writes)
      if (sib.object != obj) v.siblings.push_back(sib);
    v.visible = true;
    store_mut().put(obj, std::move(v));
  }
  pending_.erase(it);
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
        if (v) reply->items.push_back({obj, v->value, v->ts, v->deps,
                                       v->siblings});
        continue;
      }
      // Round 2: serve at-least-this-version, or disclose the pending
      // write that will satisfy it (the two-value path).
      const kv::Version* v = store().earliest_visible_from(obj, floor->second);
      if (v) {
        reply->items.push_back({obj, v->value, v->ts, v->deps, v->siblings});
        continue;
      }
      const kv::Version* old = store().latest_visible(obj);
      if (old)
        reply->items.push_back({obj, old->value, old->ts, old->deps,
                                old->siblings});
      for (const auto& [tx, pw] : pending_) {
        for (const auto& [pobj, pvalue] : pw.local_writes) {
          if (pobj != obj) continue;
          PendingInfo info;
          info.object = obj;
          info.wtx = tx;
          info.proposed_ts = pw.proposed;
          info.value = pvalue;
          info.coordinator = pw.coordinator;
          reply->pendings.push_back(info);
        }
      }
    }
    ctx.send(m.src, reply);
    return;
  }

  if (const auto* req = m.as<WriteRequest>()) {
    // This server coordinates the transaction.
    HlcTimestamp proposed = hlc_.observe(req->client_ts, ctx.now());
    PendingWrite pw;
    pw.deps = req->deps;
    pw.proposed = proposed;
    pw.coordinator = id();
    for (const auto& [obj, v] : req->writes) {
      pw.all_writes.push_back({obj, v});
      if (stores(obj)) pw.local_writes.emplace_back(obj, v);
    }
    pending_[req->tx] = std::move(pw);

    CoordState cs;
    cs.client = m.src;
    cs.max_proposed = proposed;
    std::set<std::uint64_t> participants;
    for (const auto& [obj, v] : req->writes) {
      ProcessId p = view().primary(obj);
      if (p != id()) participants.insert(p.value());
    }
    cs.participants = participants;
    cs.awaiting = participants;
    coordinating_[req->tx] = cs;

    for (auto pid : participants) {
      auto prep = std::make_shared<Prepare>();
      prep->tx = req->tx;
      prep->coordinator = id();
      prep->writes = req->writes;
      prep->deps = req->deps;
      prep->client_ts = req->client_ts;
      ctx.send(ProcessId(pid), prep);
    }

    if (participants.empty()) {
      // Single-partition transaction: commit immediately.
      HlcTimestamp cts = coordinating_[req->tx].max_proposed;
      apply_commit(req->tx, cts);
      committed_[req->tx] = cts;
      auto reply = std::make_shared<WriteReply>();
      reply->tx = req->tx;
      reply->ts = cts;
      ctx.send(m.src, reply);
      coordinating_.erase(req->tx);
    }
    return;
  }

  if (const auto* p = m.as<Prepare>()) {
    HlcTimestamp proposed = hlc_.observe(p->client_ts, ctx.now());
    PendingWrite pw;
    pw.deps = p->deps;
    pw.proposed = proposed;
    pw.coordinator = p->coordinator;
    for (const auto& [obj, v] : p->writes) {
      pw.all_writes.push_back({obj, v});
      if (stores(obj)) pw.local_writes.emplace_back(obj, v);
    }
    pending_[p->tx] = std::move(pw);
    auto ack = std::make_shared<PrepareAck>();
    ack->tx = p->tx;
    ack->proposed = proposed;
    ctx.send(m.src, ack);
    return;
  }

  if (const auto* ack = m.as<PrepareAck>()) {
    auto it = coordinating_.find(ack->tx);
    if (it == coordinating_.end()) return;
    it->second.max_proposed = std::max(it->second.max_proposed,
                                       ack->proposed);
    it->second.awaiting.erase(m.src.value());
    if (!it->second.awaiting.empty()) return;

    HlcTimestamp cts = it->second.max_proposed;
    hlc_.observe(cts, ctx.now());
    apply_commit(ack->tx, cts);
    committed_[ack->tx] = cts;

    auto reply = std::make_shared<WriteReply>();
    reply->tx = ack->tx;
    reply->ts = cts;
    ctx.send(it->second.client, reply);

    for (auto pid : it->second.participants) {
      auto c = std::make_shared<Commit>();
      c->tx = ack->tx;
      c->commit_ts = cts;
      ctx.send(ProcessId(pid), c);
    }
    coordinating_.erase(it);
    return;
  }

  if (const auto* c = m.as<Commit>()) {
    hlc_.observe(c->commit_ts, ctx.now());
    apply_commit(c->tx, c->commit_ts);
    return;
  }

  if (const auto* q = m.as<TxStatusQuery>()) {
    auto reply = std::make_shared<TxStatusReply>();
    reply->reader = q->reader;
    reply->wtx = q->wtx;
    auto it = committed_.find(q->wtx);
    if (it != committed_.end()) {
      reply->committed = true;
      reply->commit_ts = it->second;
    }
    ctx.send(m.src, reply);
    return;
  }
}

std::string Server::proto_digest() const {
  return sim::DigestBuilder()
      .field("hlc", hlc_.peek().str())
      .field("pending", pending_.size())
      .field("coord", coordinating_.size())
      .field("committed", committed_.size())
      .str();
}

ProcessId Eiger::add_client(sim::Simulation& sim,
                            const ClusterView& view) const {
  ProcessId id = sim.next_process_id();
  sim.add_process(std::make_unique<Client>(id, view));
  return id;
}

std::unique_ptr<ServerBase> Eiger::make_server(
    ProcessId id, const ClusterView& view) const {
  return std::make_unique<Server>(id, view);
}

}  // namespace discs::proto::eiger
