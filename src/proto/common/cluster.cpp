#include "proto/common/cluster.h"

#include "obs/span.h"
#include "proto/common/server.h"
#include "util/check.h"

namespace discs::proto {

ClusterView make_view(const ClusterConfig& cfg, ProcessId first_server) {
  ClusterView view;
  view.config = cfg;
  for (std::size_t s = 0; s < cfg.num_servers; ++s)
    view.servers.push_back(ProcessId(first_server.value() + s));
  view.objects.reserve(cfg.num_objects);
  for (std::size_t o = 0; o < cfg.num_objects; ++o)
    view.objects.push_back(ObjectId(o));
  // num_shards == 1 asks for no sharding: one shard per object, which
  // places object o on servers[(o + r) mod m] — the round-robin layout.
  const std::size_t shards = cfg.num_shards > 1 ? cfg.num_shards
                                                : cfg.num_objects;
  view.shards =
      ShardMap::make(shards, cfg.replication, view.servers, cfg.num_objects);
  return view;
}

std::map<ProcessId, std::vector<ObjectId>> group_by_primary(
    const ClusterView& view, const std::vector<ObjectId>& objects) {
  std::map<ProcessId, std::vector<ObjectId>> out;
  for (auto obj : objects) out[view.primary(obj)].push_back(obj);
  return out;
}

Cluster Protocol::build(sim::Simulation& sim, const ClusterConfig& cfg,
                        IdSource& ids) const {
  Cluster cluster;
  cluster.view = make_view(cfg, sim.next_process_id());

  // A span-recording run owns the thread-local log for its lifetime;
  // leftovers from a previous capture on this thread would corrupt it.
  if (cfg.record_spans) obs::SpanLog::global().clear();

  for (auto sid : cluster.view.servers) {
    DISCS_CHECK(sid == sim.next_process_id());
    sim.add_process(make_server(sid, cluster.view));
  }

  // Seed initial values x_in_i for every object at every replica, yielding
  // the paper's configuration Q0 (initial values visible, no messages in
  // transit) directly.
  for (auto obj : cluster.view.objects) {
    ValueId v = ids.next_value();
    cluster.initial_values[obj] = v;
    for (auto sid : cluster.view.replicas(obj))
      sim.process_as<ServerBase>(sid).seed(obj, v);
  }

  for (std::size_t c = 0; c < cfg.num_clients; ++c)
    cluster.clients.push_back(add_client(sim, cluster.view));

  return cluster;
}

}  // namespace discs::proto
