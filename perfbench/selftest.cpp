// Tests for the benchmark's own code.
//
//   perfbench_selftest [path/to/BENCHMARK.json]
//
// Checks the metric catalogue (names, caps, agreement with BENCHMARK.json
// when given), the reference pacer, that the sim-sweep re-apply reproduces
// the drive's digest for every protocol of P on a short run, and that the
// audit pipeline certifies every protocol of P at a small size.  Exit 0
// when every check passes.
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>

#include "harness.h"
#include "obs/json.h"
#include "proto/registry.h"
#include "workloads.h"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
  if (!ok) ++g_failures;
}

void test_catalogue() {
  using perfbench::end_to_end_metrics;
  using perfbench::per_layer_metrics;
  expect(end_to_end_metrics().size() == 14, "14 end-to-end metrics");
  expect(end_to_end_metrics().size() <= 16, "end-to-end metrics within cap 16");
  expect(per_layer_metrics().size() <= 128, "per-layer metrics within cap 128");
  std::set<std::string> seen;
  bool names_ok = true, units_ok = true;
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()})
    for (const auto& m : *list) {
      names_ok &= perfbench::valid_metric_name(m.name) &&
                  seen.insert(m.name).second;
      units_ok &= !m.unit.empty() && m.unit.size() <= 16;
    }
  expect(names_ok, "metric names are unique and use only [A-Za-z0-9_.-]");
  expect(units_ok, "every metric has a unit of at most 16 characters");
  expect(!perfbench::valid_metric_name("tx/s") &&
             !perfbench::valid_metric_name(".x") &&
             !perfbench::valid_metric_name(std::string(65, 'a')),
         "name validation rejects '/', a leading '.', and 65 characters");
}

/// BENCHMARK.json must list exactly the catalogue, with matching units and
/// directions, and exactly the workloads.
void test_benchmark_json(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  using discs::obs::Json;
  const Json doc = Json::parse(text.str());
  auto matches = [](const Json& list,
                    const std::vector<perfbench::Metric>& catalogue) {
    if (list.as_array().size() != catalogue.size()) return false;
    for (std::size_t i = 0; i < catalogue.size(); ++i) {
      const Json& e = list.as_array()[i];
      const auto& m = catalogue[i];
      const char* better =
          m.better == perfbench::Better::kHigher ? "higher" : "lower";
      if (e.get("name").as_string() != m.name ||
          e.get("unit").as_string() != m.unit ||
          e.get("better").as_string() != better)
        return false;
    }
    return true;
  };
  expect(matches(doc.get("end_to_end"), perfbench::end_to_end_metrics()),
         "BENCHMARK.json end_to_end matches the catalogue");
  expect(matches(doc.get("per_layer"), perfbench::per_layer_metrics()),
         "BENCHMARK.json per_layer matches the catalogue");
  std::vector<std::string> names;
  for (const auto& w : doc.get("workloads").as_array())
    names.push_back(w.get("name").as_string());
  expect(names == perfbench::gated_workloads(),
         "BENCHMARK.json workloads match the benchmark's gated workloads");
}

void test_pacer() {
  perfbench::ReferencePacer pacer;
  int calls = 0;
  const double slowdown = pacer.around([&] { ++calls; });
  expect(calls == 1 && slowdown > 0.1 && slowdown < 100,
         "the reference pacer runs the work once and returns a plausible "
         "host slowdown");
}

void test_redrive() {
  for (const auto& name : perfbench::protocols()) {
    auto p = discs::proto::protocol_by_name(name);
    const perfbench::SweepTrace t = perfbench::sweep_trace(*p, 5, 200);
    expect(t.error.empty() && t.digest_match && t.incomplete == 0,
           "sim-sweep re-apply reproduces the drive digest: " + name +
               (t.error.empty() ? "" : " (" + t.error + ")"));
  }
}

void test_audit() {
  for (const auto& name : perfbench::protocols()) {
    auto p = discs::proto::protocol_by_name(name);
    bool ok = true;
    std::string detail;
    for (bool traced : {false, true}) {
      const perfbench::AuditRun a =
          perfbench::audit_run(*p, perfbench::derive_seed(3, 0), 12, traced);
      ok &= a.error.empty() && a.incomplete == 0 && a.certified == a.txs;
      if (!a.error.empty()) detail = a.error;
    }
    expect(ok, "audit certifies " + name + (detail.empty() ? "" : ": " + detail));
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    test_catalogue();
    if (argc > 1) test_benchmark_json(argv[1]);
    test_pacer();
    test_redrive();
    test_audit();
  } catch (const std::exception& e) {
    std::cout << "FAIL exception: " << e.what() << "\n";
    ++g_failures;
  }
  std::cout << (g_failures ? "selftest FAILED" : "selftest passed") << "\n";
  return g_failures ? 1 : 0;
}
