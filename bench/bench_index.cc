// E13 — secondary indexes on the query path (Sec. 4 "database file/table
// selection" taken further): the same binary answers name steps and
// descendant (`//`) steps with the name and path indexes switched on and
// off, so BENCH_index.json records how much of the query cost they remove
// on each topology. CI floor: indexed descendant steps must beat the full
// enumeration >= 5x on the uniform topology.
#include <chrono>
#include <memory>
#include <string>

#include "bench_common.h"
#include "xpath/name_index.h"
#include "xpath/path_index.h"
#include "xpath/ruid_eval.h"

namespace ruidx {
namespace bench {
namespace {

constexpr uint64_t kScale = 20000;
constexpr int kRepeats = 3;

/// Wall-clock milliseconds of the best of kRepeats runs of fn().
template <typename Fn>
double TimeMs(Fn&& fn) {
  double best = 0;
  for (int r = 0; r < kRepeats; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

struct TopologyCase {
  const char* name;
  const char* name_step;   // absolute child-axis chain (path-index shape)
  const char* descendant;  // `//name` step (name-index shape)
};

// One name-step and one descendant-step query per topology, chosen so both
// evaluators produce non-empty results.
constexpr TopologyCase kCases[] = {
    {"uniform", "/root/t0/t1/t2", "//t3"},
    {"deep", "/section/para", "//para"},
    {"xmark", "/site/people/person/name", "//increase"},
};

struct Fixture {
  std::unique_ptr<xml::Document> doc;
  core::Ruid2Scheme scheme;
  std::unique_ptr<xpath::NameIndex> name_index;
  std::unique_ptr<xpath::PathIndex> path_index;
  std::unique_ptr<xpath::RuidEvaluator> plain;    // enumeration paths only
  std::unique_ptr<xpath::RuidEvaluator> indexed;  // name + path index

  explicit Fixture(const std::string& topology) : scheme(DefaultAreas()) {
    doc = MakeTopology(topology, kScale);
    scheme.Build(doc->root());
    name_index = std::make_unique<xpath::NameIndex>(doc->root());
    path_index = std::make_unique<xpath::PathIndex>(doc->root());
    plain = std::make_unique<xpath::RuidEvaluator>(doc.get(), &scheme);
    indexed = std::make_unique<xpath::RuidEvaluator>(doc.get(), &scheme);
    indexed->SetNameIndex(name_index.get());
    indexed->SetPathIndex(path_index.get());
  }
};

Fixture& UniformFixture() {
  static Fixture fixture("uniform");
  return fixture;
}

void IndexTables() {
  Banner("E13: secondary indexes on the query path",
         "index-on vs index-off name step / descendant step");
  BenchJsonWriter json("index");

  TablePrinter steps(
      "location steps, indexed vs full enumeration (ms, best of " +
      std::to_string(kRepeats) + ")");
  steps.SetHeader({"topology", "query", "results", "indexed ms", "scan ms",
                   "speedup", "agree"});

  for (const TopologyCase& tc : kCases) {
    std::string suffix = std::string("_") + tc.name;
    bool is_uniform = std::string(tc.name) == "uniform";
    std::unique_ptr<Fixture> local;
    if (!is_uniform) local = std::make_unique<Fixture>(tc.name);
    Fixture& fixture = is_uniform ? UniformFixture() : *local;
    json.Metric("nodes" + suffix,
                static_cast<double>(fixture.scheme.label_count()));

    // Name-step and descendant-step queries: same evaluator class, with
    // and without the indexes; results must agree exactly.
    for (const char* query : {tc.name_step, tc.descendant}) {
      auto via_index = fixture.indexed->Evaluate(query);
      auto via_scan = fixture.plain->Evaluate(query);
      bool agree = via_index.ok() && via_scan.ok() &&
                   *via_index == *via_scan && !via_index->empty();
      double ms_on =
          TimeMs([&fixture, query]() { (void)fixture.indexed->Evaluate(query); });
      double ms_off =
          TimeMs([&fixture, query]() { (void)fixture.plain->Evaluate(query); });
      // A disagreement zeroes the reported speedup so the CI floor fails
      // loudly instead of shipping a fast wrong answer.
      double speedup = agree && ms_on > 0 ? ms_off / ms_on : 0.0;
      bool is_descendant = query == tc.descendant;
      std::string metric =
          std::string(is_descendant ? "descendant" : "name_step") + suffix;
      json.Metric(metric + "_ms_indexed", ms_on, "ms");
      json.Metric(metric + "_ms_scan", ms_off, "ms");
      json.Metric(metric + "_speedup", speedup, "x");
      steps.AddRow({tc.name, query,
                    std::to_string(via_index.ok() ? via_index->size() : 0),
                    TablePrinter::FormatDouble(ms_on, 3),
                    TablePrinter::FormatDouble(ms_off, 3),
                    TablePrinter::FormatDouble(speedup), agree ? "yes" : "NO"});
    }
  }

  steps.Print();
  json.Write();
}

void BM_DescendantStep(benchmark::State& state, bool use_index) {
  Fixture& fixture = UniformFixture();
  xpath::RuidEvaluator& eval =
      use_index ? *fixture.indexed : *fixture.plain;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.Evaluate("//t3"));
  }
}
BENCHMARK_CAPTURE(BM_DescendantStep, indexed, true);
BENCHMARK_CAPTURE(BM_DescendantStep, full_scan, false);

}  // namespace
}  // namespace bench
}  // namespace ruidx

RUIDX_BENCH_MAIN(ruidx::bench::IndexTables)
