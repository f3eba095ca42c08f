// E13 — the parallel bulk-labeling pipeline. Not a paper table: the
// paper's Sec. 5 measures single-threaded enumeration cost; this bench
// regenerates that labeling path at production scale and shows how
// labeling scales with worker threads (UID-local areas are the independent
// units of parallelism).
#include <chrono>
#include <vector>

#include "bench_common.h"
#include "util/thread_pool.h"

namespace ruidx {
namespace bench {
namespace {

constexpr uint64_t kScale = 100000;
constexpr int kRepeats = 3;

/// Partition geometry for the labeling table: the partitioner's adaptive
/// granularity budgets areas off the node count and folds undersized
/// splinters back up, so the number of parallel units (about 256 areas)
/// tracks data volume, not topology accidents, at any scale.
core::PartitionOptions PipelineAreas() {
  core::PartitionOptions areas;
  areas.target_area_count = 256;
  return areas;
}

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

struct Fixture {
  std::unique_ptr<xml::Document> doc;
  core::Ruid2Scheme scheme;

  Fixture() : scheme(DefaultAreas()) {
    doc = MakeTopology("random", kScale);
    scheme.Build(doc->root());
  }
};

Fixture& GetFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

void PrintTables() {
  Banner("E13: parallel labeling", "beyond the paper — ROADMAP scaling work");
  Fixture& fixture = GetFixture();
  xml::Node* root = fixture.doc->root();
  std::printf("document: 'random' topology, %zu labeled nodes, %zu areas\n",
              fixture.scheme.label_count(),
              fixture.scheme.partition().areas.size());
  BenchJsonWriter json("parallel");
  json.Metric("nodes", static_cast<double>(fixture.scheme.label_count()));
  json.Metric("hardware_threads",
              static_cast<double>(std::thread::hardware_concurrency()));

  // --- labeling scaling per thread count -----------------------------------
  TablePrinter table("labeling vs worker threads (best of 3)");
  table.SetHeader({"threads", "label ms", "speedup"});
  double base_label = 0;
  for (int threads : {1, 2, 4, 8}) {
    std::unique_ptr<util::ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<util::ThreadPool>(threads);
    double label_ms = TimeMs([&] {
      core::Ruid2Scheme scheme(PipelineAreas());
      scheme.Build(root, pool.get());
    });
    if (threads == 1) base_label = label_ms;
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.2fx", base_label / label_ms);
    table.AddRow({std::to_string(threads), std::to_string(label_ms),
                  speedup});
    std::string suffix = "_t" + std::to_string(threads);
    json.Metric("label_ms" + suffix, label_ms, "ms");
    json.Metric("label_speedup" + suffix, base_label / label_ms, "x");
  }
  table.Print();
  json.Write();
}

void BM_ParallelLabel(benchmark::State& state) {
  Fixture& fixture = GetFixture();
  int threads = static_cast<int>(state.range(0));
  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<util::ThreadPool>(threads);
  for (auto _ : state) {
    core::Ruid2Scheme scheme(DefaultAreas());
    scheme.Build(fixture.doc->root(), pool.get());
    benchmark::DoNotOptimize(scheme.label_count());
  }
}
BENCHMARK(BM_ParallelLabel)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace ruidx

RUIDX_BENCH_MAIN(ruidx::bench::PrintTables)
