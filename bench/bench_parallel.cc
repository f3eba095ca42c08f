// E13 — the parallel bulk-labeling pipeline and the per-area ancestor-path
// cache. Not a paper table: the paper's Sec. 5 measures single-threaded
// enumeration cost; this bench regenerates that labeling path at production
// scale and shows (a) how labeling scales with worker threads (UID-local
// areas are the independent units of parallelism), and (b) what memoizing
// the frame ancestor chains saves on the rancestor/CompareIds/
// structural-join hot paths.
#include <chrono>
#include <vector>

#include "bench_common.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "xpath/name_index.h"
#include "xpath/structural_join.h"

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
  std::vector<xml::Node*> sample;  // non-root nodes, shuffled

  Fixture() : scheme(DefaultAreas()) {
    doc = MakeTopology("random", kScale);
    scheme.Build(doc->root());
    Rng rng(13);
    xml::PreorderTraverse(doc->root(), [&](xml::Node* n, int) {
      if (n != doc->root()) sample.push_back(n);
      return true;
    });
    for (size_t i = sample.size(); i > 1; --i) {
      std::swap(sample[i - 1], sample[rng.NextBounded(i)]);
    }
    if (sample.size() > 4096) sample.resize(4096);
  }
};

Fixture& GetFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

void PrintTables() {
  Banner("E13: parallel labeling + ancestor-path cache",
         "beyond the paper — ROADMAP scaling work");
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

  // --- ancestor-path cache: rancestor over the sample, cold vs warm --------
  core::AncestorPathCache& cache = fixture.scheme.ancestor_cache();
  cache.set_enabled(false);
  double uncached_ms = TimeMs([&] {
    for (xml::Node* n : fixture.sample) {
      benchmark::DoNotOptimize(fixture.scheme.Ancestors(fixture.scheme.label(n)));
    }
  });
  cache.set_enabled(true);
  for (xml::Node* n : fixture.sample) {  // warm the per-area chains
    (void)fixture.scheme.Ancestors(fixture.scheme.label(n));
  }
  double cached_ms = TimeMs([&] {
    for (xml::Node* n : fixture.sample) {
      benchmark::DoNotOptimize(fixture.scheme.Ancestors(fixture.scheme.label(n)));
    }
  });

  // --- structural join over two tag sets, cached vs uncached chains --------
  xpath::NameIndex index(root);
  std::vector<xml::Node*> anc = index.Lookup("t1");
  std::vector<xml::Node*> desc = index.Lookup("t2");
  cache.set_enabled(false);
  double join_uncached_ms = TimeMs([&] {
    benchmark::DoNotOptimize(
        xpath::StructuralJoinRuid(fixture.scheme, anc, desc));
  });
  cache.set_enabled(true);
  (void)xpath::StructuralJoinRuid(fixture.scheme, anc, desc);  // warm
  double join_cached_ms = TimeMs([&] {
    benchmark::DoNotOptimize(
        xpath::StructuralJoinRuid(fixture.scheme, anc, desc));
  });

  TablePrinter micro("ancestor-path cache (4096-node sample / t1-t2 join)");
  micro.SetHeader({"operation", "uncached ms", "cached ms", "ratio"});
  char ratio1[32], ratio2[32];
  std::snprintf(ratio1, sizeof(ratio1), "%.2fx", uncached_ms / cached_ms);
  std::snprintf(ratio2, sizeof(ratio2), "%.2fx",
                join_uncached_ms / join_cached_ms);
  micro.AddRow({"rancestor chain", std::to_string(uncached_ms),
                std::to_string(cached_ms), ratio1});
  micro.AddRow({"structural join", std::to_string(join_uncached_ms),
                std::to_string(join_cached_ms), ratio2});
  micro.Print();
  std::printf("cache: %zu area chains, %llu hits / %llu misses\n",
              cache.entry_count(),
              static_cast<unsigned long long>(cache.hits()),
              static_cast<unsigned long long>(cache.misses()));
  json.Metric("ancestors_uncached_ms", uncached_ms, "ms");
  json.Metric("ancestors_cached_ms", cached_ms, "ms");
  json.Metric("ancestors_cache_speedup", uncached_ms / cached_ms, "x");
  json.Metric("join_uncached_ms", join_uncached_ms, "ms");
  json.Metric("join_cached_ms", join_cached_ms, "ms");
  json.Metric("join_cache_speedup", join_uncached_ms / join_cached_ms, "x");
  json.Metric("cache_area_chains", static_cast<double>(cache.entry_count()));
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

void BM_AncestorsCached(benchmark::State& state) {
  Fixture& fixture = GetFixture();
  fixture.scheme.ancestor_cache().set_enabled(state.range(0) != 0);
  size_t i = 0;
  for (auto _ : state) {
    xml::Node* n = fixture.sample[i++ % fixture.sample.size()];
    benchmark::DoNotOptimize(fixture.scheme.Ancestors(fixture.scheme.label(n)));
  }
  fixture.scheme.ancestor_cache().set_enabled(true);
}
BENCHMARK(BM_AncestorsCached)->Arg(0)->Arg(1);

}  // namespace
}  // namespace bench
}  // namespace ruidx

RUIDX_BENCH_MAIN(ruidx::bench::PrintTables)
