#include "proto/spanner/spanner.h"

#include <algorithm>

#include "util/check.h"
#include "util/fmt.h"

namespace discs::proto::spanner {

using clk::HlcTimestamp;

clk::TrueTimeSim make_truetime(ProcessId id, std::uint64_t epsilon) {
  if (epsilon == 0) return clk::TrueTimeSim(0, 0);
  // Deterministic skew in [-epsilon, +epsilon] spread across process ids.
  auto span = 2 * epsilon + 1;
  auto offset = static_cast<std::int64_t>((id.value() * 7919) % span) -
                static_cast<std::int64_t>(epsilon);
  return clk::TrueTimeSim(epsilon, offset);
}

namespace {
HlcTimestamp ts_of(std::uint64_t physical) { return {physical, 0}; }
}  // namespace

void Client::start_tx(sim::StepContext& ctx, const TxSpec& spec) {
  router_.reset();

  if (spec.read_only()) {
    // One round: the client picks s_read from its own TrueTime; servers
    // below that safe time will hold the reply (blocking).
    std::uint64_t s_read = tt_.now(ctx.now()).latest;
    router_.fan_out(ctx, view(), spec.read_set,
                    [&](ProcessId, std::vector<ObjectId> objs) {
                      auto req = std::make_shared<RotRequest>();
                      req->tx = spec.id;
                      req->objects = std::move(objs);
                      req->snapshot = ts_of(s_read);
                      return req;
                    });
    return;
  }

  auto req = std::make_shared<WriteRequest>();
  req->tx = spec.id;
  req->writes = spec.write_set;
  req->client_ts = ts_of(tt_.now(ctx.now()).latest);
  ctx.send(view().primary(spec.write_set.front().first), req);
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
    complete_active(ctx);
    return;
  }
}

std::string Client::proto_digest() const {
  return sim::DigestBuilder().field("await", join(router_.awaiting(), ",")).str();
}

std::uint64_t Server::safe_time(std::uint64_t now) const {
  // No transaction may later commit at or below this: future proposals
  // exceed TT.now().latest >= TT.now().earliest, and every in-flight
  // prepare/commit-wait is accounted below.
  std::uint64_t safe = tt_.now(now).earliest;
  for (const auto& [tx, pw] : pending_)
    safe = std::min(safe, pw.proposed > 0 ? pw.proposed - 1 : 0);
  for (const auto& [tx, cs] : coordinating_) {
    std::uint64_t bound = cs.deciding ? cs.commit_ts : cs.max_proposed;
    safe = std::min(safe, bound > 0 ? bound - 1 : 0);
  }
  return safe;
}

void Server::serve_read(sim::StepContext& ctx, const DeferredRead& r) {
  auto reply = std::make_shared<RotReply>();
  reply->tx = r.tx;
  for (auto obj : r.objects) {
    const kv::Version* v = store().latest_visible_at(obj, ts_of(r.s_read));
    if (v) reply->items.push_back({obj, v->value, v->ts, {}, {}});
  }
  ctx.send(r.client, reply);
}

void Server::apply_commit(TxId tx, std::uint64_t ts) {
  auto it = pending_.find(tx);
  if (it == pending_.end()) return;
  for (const auto& [obj, value] : it->second.local_writes) {
    kv::Version v;
    v.value = value;
    v.tx = tx;
    v.ts = ts_of(ts);
    v.visible = true;
    store_mut().put(obj, std::move(v));
  }
  pending_.erase(it);
}

void Server::try_finish_commits(sim::StepContext& ctx) {
  std::vector<TxId> done;
  for (auto& [tx, cs] : coordinating_) {
    if (!cs.deciding) continue;
    // Commit-wait: release only once the commit timestamp is guaranteed
    // past for every observer.
    if (tt_.now(ctx.now()).earliest <= cs.commit_ts) continue;

    apply_commit(tx, cs.commit_ts);
    for (auto pid : cs.participants) {
      auto c = std::make_shared<Commit>();
      c->tx = tx;
      c->commit_ts = ts_of(cs.commit_ts);
      ctx.send(ProcessId(pid), c);
    }
    auto reply = std::make_shared<WriteReply>();
    reply->tx = tx;
    reply->ts = ts_of(cs.commit_ts);
    ctx.send(cs.client, reply);
    done.push_back(tx);
  }
  for (auto tx : done) coordinating_.erase(tx);
}

void Server::on_message(sim::StepContext& ctx, const sim::Message& m) {
  if (const auto* req = m.as<RotRequest>()) {
    DISCS_CHECK(req->snapshot.has_value());
    DeferredRead r{m.src, req->tx, req->objects, req->snapshot->physical};
    if (safe_time(ctx.now()) < r.s_read) {
      deferred_.push_back(std::move(r));  // the blocking case
    } else {
      serve_read(ctx, r);
    }
    return;
  }

  if (const auto* req = m.as<WriteRequest>()) {
    std::uint64_t proposed = tt_.now(ctx.now()).latest + 1;
    PendingWrite pw;
    pw.proposed = proposed;
    for (const auto& [obj, v] : req->writes)
      if (stores(obj)) pw.local_writes.emplace_back(obj, v);
    pending_[req->tx] = std::move(pw);

    CoordState cs;
    cs.client = m.src;
    cs.max_proposed = proposed;
    for (const auto& [obj, v] : req->writes) {
      ProcessId p = view().primary(obj);
      if (p != id()) cs.participants.insert(p.value());
    }
    cs.awaiting = cs.participants;
    bool solo = cs.participants.empty();

    for (auto pid : cs.participants) {
      auto prep = std::make_shared<Prepare>();
      prep->tx = req->tx;
      prep->coordinator = id();
      prep->writes = req->writes;
      prep->client_ts = req->client_ts;
      ctx.send(ProcessId(pid), prep);
    }
    if (solo) {
      cs.deciding = true;
      cs.commit_ts = std::max(cs.max_proposed, tt_.now(ctx.now()).latest);
    }
    coordinating_[req->tx] = std::move(cs);
    return;
  }

  if (const auto* p = m.as<Prepare>()) {
    std::uint64_t proposed = tt_.now(ctx.now()).latest + 1;
    PendingWrite pw;
    pw.proposed = proposed;
    for (const auto& [obj, v] : p->writes)
      if (stores(obj)) pw.local_writes.emplace_back(obj, v);
    pending_[p->tx] = std::move(pw);
    auto ack = std::make_shared<PrepareAck>();
    ack->tx = p->tx;
    ack->proposed = ts_of(proposed);
    ctx.send(m.src, ack);
    return;
  }

  if (const auto* ack = m.as<PrepareAck>()) {
    auto it = coordinating_.find(ack->tx);
    if (it == coordinating_.end()) return;
    it->second.max_proposed =
        std::max(it->second.max_proposed, ack->proposed.physical);
    it->second.awaiting.erase(m.src.value());
    if (it->second.awaiting.empty()) {
      it->second.deciding = true;
      it->second.commit_ts =
          std::max(it->second.max_proposed, tt_.now(ctx.now()).latest);
    }
    return;
  }

  if (const auto* c = m.as<Commit>()) {
    apply_commit(c->tx, c->commit_ts.physical);
    return;
  }
}

void Server::on_tick(sim::StepContext& ctx) {
  try_finish_commits(ctx);

  std::vector<DeferredRead> still;
  for (auto& r : deferred_) {
    if (safe_time(ctx.now()) < r.s_read) {
      still.push_back(std::move(r));
    } else {
      serve_read(ctx, r);
    }
  }
  deferred_ = std::move(still);
}

std::string Server::proto_digest() const {
  return sim::DigestBuilder()
      .field("pending", pending_.size())
      .field("coord", coordinating_.size())
      .field("deferred", deferred_.size())
      .str();
}

ProcessId Spanner::add_client(sim::Simulation& sim,
                              const ClusterView& view) const {
  ProcessId id = sim.next_process_id();
  sim.add_process(std::make_unique<Client>(id, view));
  return id;
}

std::unique_ptr<ServerBase> Spanner::make_server(
    ProcessId id, const ClusterView& view) const {
  return std::make_unique<Server>(id, view);
}

}  // namespace discs::proto::spanner
