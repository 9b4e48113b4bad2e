#include "proto/wren/wren.h"

#include <algorithm>

#include "util/check.h"
#include "util/fmt.h"

namespace discs::proto::wren {

using clk::HlcTimestamp;

void Client::start_tx(sim::StepContext& ctx, const TxSpec& spec) {
  router_.reset();
  got_.clear();
  max_proposed_ = {};

  if (spec.read_only()) {
    // Round 1: fetch a stable snapshot timestamp from any server (we pick
    // the primary of the first read object, deterministically).
    phase_ = 1;
    auto req = std::make_shared<SnapshotRequest>();
    req->tx = spec.id;
    router_.send(ctx, view().primary(spec.read_set.front()), req);
    return;
  }

  // Write transaction, phase 1: prepare at every involved partition.
  phase_ = 1;
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
                    req->client_ts = hlc_.tick(ctx.now());
                    return req;
                  });
}

void Client::finish_reads(sim::StepContext& ctx) {
  for (auto obj : active_spec().read_set) {
    auto it = got_.find(obj);
    ValueId value = it != got_.end() ? it->second.value : ValueId::invalid();
    HlcTimestamp ts = it != got_.end() ? it->second.ts : HlcTimestamp{};
    // Read-your-writes: overlay own fresher writes that the stable snapshot
    // does not include yet.
    auto own = own_cache_.find(obj);
    if (own != own_cache_.end() && own->second.second > ts)
      value = own->second.first;
    deliver_read(obj, value);
  }
  complete_active(ctx);
}

void Client::on_message(sim::StepContext& ctx, const sim::Message& m) {
  if (const auto* sr = m.as<SnapshotReply>()) {
    if (!has_active() || sr->tx != active_spec().id || phase_ != 1) return;
    // Monotonic snapshots: never read before something already observed.
    // Any past GST value remains safe at every server (local stable times
    // only grow), so max() preserves non-blocking reads.
    snapshot_ = std::max(sr->snapshot, last_snapshot_);
    last_snapshot_ = snapshot_;
    phase_ = 2;
    router_.reset();
    router_.fan_out(ctx, view(), active_spec().read_set,
                    [&](ProcessId, std::vector<ObjectId> objs) {
                      auto req = std::make_shared<RotRequest>();
                      req->tx = active_spec().id;
                      req->round = 2;
                      req->objects = std::move(objs);
                      req->snapshot = snapshot_;
                      return req;
                    });
    return;
  }

  if (const auto* reply = m.as<RotReply>()) {
    if (!has_active() || reply->tx != active_spec().id || phase_ != 2) return;
    for (const auto& item : reply->items) {
      got_[item.object] = item;
      hlc_.observe(item.ts, ctx.now());
    }
    if (router_.ack(m.src)) finish_reads(ctx);
    return;
  }

  if (const auto* ack = m.as<PrepareAck>()) {
    if (!has_active() || ack->tx != active_spec().id || phase_ != 1) return;
    max_proposed_ = std::max(max_proposed_, ack->proposed);
    if (router_.ack(m.src)) {
      // Phase 2: commit everywhere at the maximum proposal.
      phase_ = 2;
      hlc_.observe(max_proposed_, ctx.now());
      std::set<std::uint64_t> participants;
      for (const auto& [obj, v] : active_spec().write_set)
        participants.insert(view().primary(obj).value());
      for (auto sid : participants) {
        auto c = std::make_shared<Commit>();
        c->tx = active_spec().id;
        c->commit_ts = max_proposed_;
        router_.send(ctx, ProcessId(sid), c);
      }
    }
    return;
  }

  if (const auto* ack = m.as<CommitAck>()) {
    if (!has_active() || ack->tx != active_spec().id || phase_ != 2) return;
    if (router_.ack(m.src)) {
      for (const auto& [obj, v] : active_spec().write_set)
        own_cache_[obj] = {v, ack->commit_ts};
      complete_active(ctx);
    }
    return;
  }
}

std::string Client::proto_digest() const {
  sim::DigestBuilder b;
  b.field("phase", phase_)
      .field("await", join(router_.awaiting(), ","))
      .field("snap", snapshot_.str())
      .field("lastsnap", last_snapshot_.str())
      .field("hlc", hlc_.peek().str());
  std::ostringstream oc;
  for (const auto& [obj, vc] : own_cache_)
    oc << to_string(obj) << "=" << to_string(vc.first) << "@"
       << vc.second.str() << ",";
  b.field("own", oc.str());
  return b.str();
}

Server::Server(ProcessId id, ClusterView view)
    : ServerBase(id, std::move(view)),
      stables_(this->view().servers.size()),
      gossip_interval_(std::max<std::size_t>(
          this->view().config.gossip_interval, 1)) {}

HlcTimestamp Server::local_stable() const {
  if (pending_.empty()) return hlc_.peek();
  HlcTimestamp min_prop = pending_.begin()->second.proposed;
  for (const auto& [tx, p] : pending_)
    min_prop = std::min(min_prop, p.proposed);
  return clk::just_below(min_prop);
}

HlcTimestamp Server::gst_view() const {
  HlcTimestamp gst = stables_[my_index()];
  for (const auto& s : stables_) gst = std::min(gst, s);
  return gst;
}

void Server::on_message(sim::StepContext& ctx, const sim::Message& m) {
  if (const auto* req = m.as<SnapshotRequest>()) {
    auto reply = std::make_shared<SnapshotReply>();
    reply->tx = req->tx;
    reply->snapshot = gst_view();
    ctx.send(m.src, reply);
    return;
  }

  if (const auto* req = m.as<RotRequest>()) {
    DISCS_CHECK_MSG(req->snapshot.has_value(),
                    "wren reads carry a snapshot timestamp");
    auto reply = std::make_shared<RotReply>();
    reply->tx = req->tx;
    reply->round = req->round;
    for (auto obj : req->objects) {
      const kv::Version* v = store().latest_visible_at(obj, *req->snapshot);
      if (v) reply->items.push_back({obj, v->value, v->ts, {}, {}});
    }
    ctx.send(m.src, reply);
    return;
  }

  if (const auto* p = m.as<Prepare>()) {
    HlcTimestamp proposed = hlc_.observe(p->client_ts, ctx.now());
    PendingTx pend;
    pend.proposed = proposed;
    for (const auto& [obj, v] : p->writes)
      if (stores(obj)) pend.writes.emplace_back(obj, v);
    pending_[p->tx] = std::move(pend);

    auto ack = std::make_shared<PrepareAck>();
    ack->tx = p->tx;
    ack->proposed = proposed;
    ctx.send(m.src, ack);
    return;
  }

  if (const auto* c = m.as<Commit>()) {
    auto it = pending_.find(c->tx);
    if (it != pending_.end()) {
      hlc_.observe(c->commit_ts, ctx.now());
      for (const auto& [obj, value] : it->second.writes) {
        kv::Version v;
        v.value = value;
        v.tx = c->tx;
        v.ts = c->commit_ts;
        v.visible = true;
        store_mut().put(obj, std::move(v));
      }
      pending_.erase(it);
    }
    auto ack = std::make_shared<CommitAck>();
    ack->tx = c->tx;
    ack->commit_ts = c->commit_ts;
    ctx.send(m.src, ack);
    return;
  }

  if (const auto* g = m.as<Gossip>()) {
    DISCS_CHECK(g->origin_index < stables_.size());
    stables_[g->origin_index] = std::max(stables_[g->origin_index], g->stable);
    return;
  }
}

void Server::on_tick(sim::StepContext& ctx) {
  hlc_.tick(ctx.now());
  stables_[my_index()] = std::max(stables_[my_index()], local_stable());
  if (++ticks_ % gossip_interval_ != 0) return;
  // Rate limit: only broadcast once the stable time has moved materially,
  // so background traffic stays bounded even under schedulers that starve
  // deliveries.
  std::uint64_t advance = 4 * view().servers.size();
  if (stables_[my_index()].physical < last_gossiped_.physical + advance &&
      last_gossiped_.physical != 0)
    return;
  last_gossiped_ = stables_[my_index()];
  for (auto other : view().servers) {
    if (other == id()) continue;
    auto g = std::make_shared<Gossip>();
    g->origin_index = my_index();
    g->stable = stables_[my_index()];
    g->round = gossip_round_;
    ctx.send(other, g);
  }
  ++gossip_round_;
}

std::string Server::proto_digest() const {
  sim::DigestBuilder b;
  b.field("hlc", hlc_.peek().str()).field("pending", pending_.size());
  std::ostringstream st;
  for (const auto& s : stables_) st << s.str() << ",";
  b.field("stables", st.str()).field("ticks", ticks_);
  return b.str();
}

ProcessId Wren::add_client(sim::Simulation& sim,
                           const ClusterView& view) const {
  ProcessId id = sim.next_process_id();
  sim.add_process(std::make_unique<Client>(id, view));
  return id;
}

std::unique_ptr<ServerBase> Wren::make_server(
    ProcessId id, const ClusterView& view) const {
  return std::make_unique<Server>(id, view);
}

}  // namespace discs::proto::wren
