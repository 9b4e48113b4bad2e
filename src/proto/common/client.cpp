#include "proto/common/client.h"

#include <algorithm>
#include <sstream>

#include "obs/registry.h"
#include "obs/span.h"
#include "util/check.h"
#include "util/fmt.h"

namespace discs::proto {

ClientBase::ClientBase(ProcessId id, ClusterView view)
    : sim::Process(id), view_(std::move(view)) {
  ladder_.set_base(view_.config.client_retransmit_after);
}

void ClientBase::invoke(const TxSpec& spec) {
  DISCS_CHECK_MSG(!active_.has_value(),
                  "client executes one transaction at a time");
  DISCS_CHECK_MSG(!spec.read_set.empty() || !spec.write_set.empty(),
                  "empty transaction");
  // The paper's proof (and this suite's workloads) use read-only and
  // write-only transactions; mixed transactions are out of scope for the
  // client framework.
  DISCS_CHECK_MSG(spec.read_only() || spec.write_only(),
                  "mixed read-write transactions are not supported");
  DISCS_CHECK_MSG(spec.write_set.size() <= 1 || supports_multi_write(),
                  "protocol does not support multi-object write "
                  "transactions (the W property)");
  active_ = spec;
  started_ = false;
  max_rot_round_ = 0;
  read_results_.clear();
  ladder_.reset();
  tx_sends_.clear();
  span_waves_ = 0;
  obs::Registry::global().inc(spec.read_only() ? "client.invoke.read"
                                               : "client.invoke.write");
}

std::map<ObjectId, ValueId> ClientBase::result_of(TxId tx) const {
  auto it = completed_.find(tx);
  DISCS_CHECK_MSG(it != completed_.end(), "transaction not completed");
  return it->second;
}

void ClientBase::on_step(sim::StepContext& ctx,
                         const sim::MessageVec& inbox) {
  for (const auto& m : inbox) {
    sim::for_each_part(m, [&](const std::shared_ptr<const sim::Payload>& part) {
      sim::Message sub = m;
      sub.payload = part;
      on_message(ctx, sub);
    });
  }

  if (active_ && !started_) {
    started_ = true;
    invoke_seq_ = ctx.now();
    if (view_.config.record_spans)
      obs::SpanLog::global().note({obs::SpanNote::Kind::kTxBegin,
                                   active_->id.value(), id().value(),
                                   ctx.now(), 0});
    start_tx(ctx, *active_);
  } else if (!active_) {
    on_idle_step(ctx);
  }

  // Observe protocol round structure: the highest RotRequest round this
  // client has issued for the active transaction (flushed to the registry
  // as client.rot.rounds when the transaction completes).  Runs before the
  // wrap pass, while the queued payloads are still bare.
  for (const auto& [dst, payload] : ctx.outgoing()) {
    if (const auto* req = sim::payload_as<RotRequest>(payload.get()))
      max_rot_round_ = std::max(max_rot_round_, req->round);
  }

  // Span hook: a step that sends at least one ROT request message to a
  // server is one request wave of the active transaction — the same rule
  // imposs::audit_rot uses to count R, applied via the shared
  // rot_request_tx attribution.  Also before the wrap pass.
  if (view_.config.record_spans && active_ && started_) {
    bool wave = false;
    for (const auto& [dst, payload] : ctx.outgoing()) {
      if (rot_request_tx(*payload) != active_->id) continue;
      for (auto s : view_.servers)
        if (s == dst) wave = true;
    }
    if (wave)
      obs::SpanLog::global().note({obs::SpanNote::Kind::kRound,
                                   active_->id.value(), id().value(),
                                   ctx.now(), ++span_waves_});
  }

  // Exactly-once session layer: stamp this step's fresh requests with
  // identity envelopes.  Must precede the retransmit bookkeeping below so
  // tx_sends_ records the wrapped form — a later re-send then carries the
  // same ReqIds and servers dedup it instead of re-executing.
  if (view_.config.exactly_once)
    stamper_.wrap_outgoing(id(), view_, ctx.outgoing_mut());

  // Timeout/retransmit hook: when enabled, a transaction that has stalled
  // (no traffic in either direction) past the backoff threshold re-sends
  // everything it has sent so far (requests presumed lost).  The re-sent
  // steps capture nothing new, so the send log cannot self-amplify.
  if (ladder_.enabled() && active_ && started_) {
    if (inbox.empty() && ctx.outgoing().empty()) {
      if (ladder_.tick(id().value(), stamper_.session())) {
        auto& reg = obs::Registry::global();
        for (const auto& [dst, payload] : tx_sends_) ctx.send(dst, payload);
        reg.inc("client.backoff.delay_steps", ladder_.fire());
        reg.inc("client.retransmits");
        reg.inc("client.backoff.retransmits");
        if (ladder_.capped()) reg.inc("client.backoff.capped");
      }
    } else {
      ladder_.reset();  // progress: restart the backoff ladder
      for (const auto& entry : ctx.outgoing()) tx_sends_.push_back(entry);
    }
  }
}

void ClientBase::on_crash() {
  stamper_.new_incarnation();
}

const TxSpec& ClientBase::active_spec() const {
  DISCS_CHECK_MSG(active_.has_value(), "no active transaction");
  return *active_;
}

void ClientBase::deliver_read(ObjectId obj, ValueId value) {
  DISCS_CHECK(active_.has_value());
  read_results_[obj] = value;
}

bool ClientBase::all_reads_delivered() const {
  DISCS_CHECK(active_.has_value());
  for (auto obj : active_->read_set)
    if (!read_results_.count(obj)) return false;
  return true;
}

void ClientBase::complete_active(sim::StepContext& ctx) {
  DISCS_CHECK(active_.has_value());

  hist::TxRecord rec;
  rec.id = active_->id;
  rec.client = id();
  rec.invoked = true;
  rec.completed = true;
  rec.invoke_seq = invoke_seq_;
  rec.complete_seq = ctx.now();
  for (auto obj : active_->read_set) {
    hist::ReadOp r;
    r.object = obj;
    auto it = read_results_.find(obj);
    if (it != read_results_.end()) {
      r.value = it->second;
      r.responded = true;
    }
    rec.reads.push_back(r);
  }
  for (const auto& [obj, v] : active_->write_set)
    rec.writes.push_back({obj, v, /*acked=*/true});
  history_.add(std::move(rec));

  auto& reg = obs::Registry::global();
  reg.inc("client.tx.completed");
  // Latency in event-sequence units (the simulator's logical time); the
  // histograms are always on, the span notes only under record_spans.
  std::uint64_t latency = ctx.now() - invoke_seq_;
  reg.histogram("client.tx.latency_events").record(latency);
  if (active_->read_only()) {
    reg.inc("client.rot.completed");
    reg.histogram("client.rot.latency_events").record(latency);
    if (max_rot_round_ > 0)
      reg.inc("client.rot.rounds",
              static_cast<std::uint64_t>(max_rot_round_));
  }
  if (view_.config.record_spans)
    obs::SpanLog::global().note({obs::SpanNote::Kind::kTxEnd,
                                 active_->id.value(), id().value(),
                                 ctx.now(), span_waves_});

  completed_[active_->id] = read_results_;
  active_.reset();
  started_ = false;
  max_rot_round_ = 0;
  span_waves_ = 0;
  read_results_.clear();
  // Done path resets ALL retransmit/backoff state: a stall accumulated at
  // the end of one transaction must not leak a head start (or an inflated
  // backoff window) into the next one.
  ladder_.reset();
  tx_sends_.clear();
  // Every request issued so far belongs to a completed transaction (one
  // transaction at a time), so servers may prune their dedup entries.
  stamper_.mark_all_stable();
}

hist::History collect_history(const sim::Simulation& sim,
                              const std::vector<ProcessId>& clients,
                              const std::map<ObjectId, ValueId>& initial) {
  std::vector<hist::History> parts;
  hist::History base;
  for (const auto& [obj, v] : initial) base.set_initial(obj, v);
  parts.push_back(std::move(base));
  for (auto cid : clients)
    parts.push_back(sim.process_as<const ClientBase>(cid).local_history());
  return hist::merge_histories(parts);
}

std::string ClientBase::state_digest() const {
  sim::DigestBuilder b;
  b.field("active", active_ ? active_->describe() : "-")
      .field("started", started_);
  std::ostringstream rr;
  for (const auto& [obj, v] : read_results_)
    rr << to_string(obj) << "=" << to_string(v) << ",";
  b.field("reads", rr.str());
  b.field("done", completed_.size());
  // Only present when the respective layer is on, so default digests are
  // unchanged by its existence.
  if (ladder_.enabled())
    b.field("rtx", cat(ladder_.base(), "/", ladder_.stalls(), "/",
                       tx_sends_.size(), "/a", ladder_.attempt(), "/t",
                       ladder_.total()));
  if (view_.config.exactly_once) b.field("eo", stamper_.digest());
  b.raw(proto_digest());
  return b.str();
}

}  // namespace discs::proto
