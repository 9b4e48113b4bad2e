#include "proto/gentlerain/gentlerain.h"

#include <algorithm>

#include "util/check.h"
#include "util/fmt.h"

namespace discs::proto::gentlerain {

using clk::HlcTimestamp;

void Client::start_tx(sim::StepContext& ctx, const TxSpec& spec) {
  router_.reset();
  got_.clear();

  if (spec.read_only()) {
    phase_ = 1;
    auto req = std::make_shared<SnapshotRequest>();
    req->tx = spec.id;
    router_.send(ctx, view().primary(spec.read_set.front()), req);
    return;
  }

  DISCS_CHECK_MSG(
      spec.write_set.size() == 1,
      "gentlerain does not support multi-object write transactions");
  phase_ = 1;
  const auto& [obj, value] = spec.write_set.front();
  auto req = std::make_shared<WriteRequest>();
  req->tx = spec.id;
  req->writes = {{obj, value}};
  req->client_ts = hlc_.tick(ctx.now());
  router_.send(ctx, view().primary(obj), req);
}

void Client::on_message(sim::StepContext& ctx, const sim::Message& m) {
  if (const auto* sr = m.as<SnapshotReply>()) {
    if (!has_active() || sr->tx != active_spec().id || phase_ != 1) return;
    // Read-your-writes without a client cache: the snapshot must cover this
    // client's own dependencies, even if GST has not caught up — servers
    // will block until it has.
    snapshot_ = std::max(sr->snapshot, dep_ts_);
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
      dep_ts_ = std::max(dep_ts_, item.ts);
      hlc_.observe(item.ts, ctx.now());
    }
    if (router_.ack(m.src)) {
      for (const auto& [obj, item] : got_) deliver_read(obj, item.value);
      complete_active(ctx);
    }
    return;
  }

  if (const auto* reply = m.as<WriteReply>()) {
    if (!has_active() || reply->tx != active_spec().id) return;
    hlc_.observe(reply->ts, ctx.now());
    dep_ts_ = std::max(dep_ts_, reply->ts);
    if (router_.ack(m.src)) complete_active(ctx);
    return;
  }
}

std::string Client::proto_digest() const {
  return sim::DigestBuilder()
      .field("phase", phase_)
      .field("dep", dep_ts_.str())
      .field("snap", snapshot_.str())
      .field("await", join(router_.awaiting(), ","))
      .field("hlc", hlc_.peek().str())
      .str();
}

Server::Server(ProcessId id, ClusterView view)
    : ServerBase(id, std::move(view)),
      stables_(this->view().servers.size()),
      gossip_interval_(std::max<std::size_t>(
          this->view().config.gossip_interval, 1)) {}

HlcTimestamp Server::gst_view() const {
  HlcTimestamp gst = stables_[my_index()];
  for (const auto& s : stables_) gst = std::min(gst, s);
  return gst;
}

void Server::serve_read(sim::StepContext& ctx, const DeferredRead& r) {
  auto reply = std::make_shared<RotReply>();
  reply->tx = r.tx;
  reply->round = r.round;
  for (auto obj : r.objects) {
    const kv::Version* v = store().latest_visible_at(obj, r.snapshot);
    if (v) reply->items.push_back({obj, v->value, v->ts, {}, {}});
  }
  ctx.send(r.client, reply);
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
    DISCS_CHECK(req->snapshot.has_value());
    DeferredRead r{m.src, req->tx, req->round, req->objects, *req->snapshot};
    if (gst_view() < r.snapshot) {
      // The blocking case: the requested snapshot is not yet stable here;
      // hold the reply until gossip advances GST past it.
      deferred_.push_back(std::move(r));
    } else {
      serve_read(ctx, r);
    }
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
    v.visible = true;
    store_mut().put(obj, std::move(v));
    auto reply = std::make_shared<WriteReply>();
    reply->tx = req->tx;
    reply->ts = ts;
    ctx.send(m.src, reply);
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
  stables_[my_index()] = std::max(stables_[my_index()], hlc_.peek());

  // Retry deferred reads whose snapshot has become stable.  Each retry may
  // send one message per waiting client; distinct deferred reads come from
  // distinct clients (a client runs one transaction at a time), so the
  // one-message-per-neighbor rule holds.
  std::vector<DeferredRead> still;
  for (auto& r : deferred_) {
    if (gst_view() < r.snapshot) {
      still.push_back(std::move(r));
    } else {
      serve_read(ctx, r);
    }
  }
  deferred_ = std::move(still);

  if (++ticks_ % gossip_interval_ != 0) return;
  // Rate limit as in Wren; but always gossip while reads are waiting on
  // GST, since their progress depends on it.
  std::uint64_t advance = 4 * view().servers.size();
  if (deferred_.empty() && last_gossiped_.physical != 0 &&
      stables_[my_index()].physical < last_gossiped_.physical + advance)
    return;
  last_gossiped_ = stables_[my_index()];
  for (auto other : view().servers) {
    if (other == id()) continue;
    auto g = std::make_shared<Gossip>();
    g->origin_index = my_index();
    g->stable = stables_[my_index()];
    ctx.send(other, g);
  }
}

std::string Server::proto_digest() const {
  sim::DigestBuilder b;
  b.field("hlc", hlc_.peek().str()).field("deferred", deferred_.size());
  std::ostringstream st;
  for (const auto& s : stables_) st << s.str() << ",";
  b.field("stables", st.str()).field("ticks", ticks_);
  return b.str();
}

ProcessId GentleRain::add_client(sim::Simulation& sim,
                                 const ClusterView& view) const {
  ProcessId id = sim.next_process_id();
  sim.add_process(std::make_unique<Client>(id, view));
  return id;
}

std::unique_ptr<ServerBase> GentleRain::make_server(
    ProcessId id, const ClusterView& view) const {
  return std::make_unique<Server>(id, view);
}

}  // namespace discs::proto::gentlerain
