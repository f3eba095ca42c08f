// Structural containment joins (related work [6]/[11]; the core relational
// XML query-processing primitive): the packed ruid join and the one-pass
// interval stack join versus the quadratic pointer baseline.
#include <memory>

#include "bench_common.h"
#include "scheme/xiss.h"
#include "xpath/name_index.h"
#include "xpath/structural_join.h"

namespace ruidx {
namespace bench {
namespace {

constexpr uint64_t kScale = 15000;

struct Fixture {
  std::unique_ptr<xml::Document> doc;
  core::Ruid2Scheme ruid;
  scheme::XissScheme xiss;
  std::unique_ptr<xpath::NameIndex> index;

  Fixture() : ruid(DefaultAreas()) {
    doc = MakeTopology("xmark", kScale);
    ruid.Build(doc->root());
    xiss.Build(doc->root());
    index = std::make_unique<xpath::NameIndex>(doc->root());
  }
};

Fixture& GetFixture() {
  static Fixture fixture;
  return fixture;
}

struct JoinCase {
  const char* ancestor;
  const char* descendant;
};
constexpr JoinCase kCases[] = {
    {"open_auction", "increase"},
    {"person", "name"},
    {"item", "text"},
    {"category", "category"},
};

void PrintTables() {
  Banner("Structural joins", "ancestor-descendant pairs from identifiers");
  Fixture& fixture = GetFixture();
  TablePrinter table("join cardinalities on 'xmark' (all methods agree)");
  table.SetHeader({"A // D", "|A|", "|D|", "pairs", "agree"});
  for (const JoinCase& c : kCases) {
    auto a = fixture.index->Lookup(c.ancestor);
    auto d = fixture.index->Lookup(c.descendant);
    auto via_ruid = xpath::StructuralJoinRuid(fixture.ruid, a, d);
    auto via_interval = xpath::StructuralJoinInterval(fixture.xiss, a, d);
    auto via_nested = xpath::StructuralJoinNestedLoop(a, d);
    bool agree = via_ruid.size() == via_interval.size() &&
                 via_ruid.size() == via_nested.size();
    table.AddRow({std::string(c.ancestor) + " // " + c.descendant,
                  std::to_string(a.size()), std::to_string(d.size()),
                  TablePrinter::FormatCount(via_ruid.size()),
                  agree ? "yes" : "NO!"});
  }
  table.Print();
}

enum class Method { kRuid, kInterval, kNestedLoop };

void BM_Join(benchmark::State& state, const JoinCase& c, Method method) {
  Fixture& fixture = GetFixture();
  auto a = fixture.index->Lookup(c.ancestor);
  auto d = fixture.index->Lookup(c.descendant);
  for (auto _ : state) {
    switch (method) {
      case Method::kRuid:
        benchmark::DoNotOptimize(
            xpath::StructuralJoinRuid(fixture.ruid, a, d));
        break;
      case Method::kInterval:
        benchmark::DoNotOptimize(
            xpath::StructuralJoinInterval(fixture.xiss, a, d));
        break;
      case Method::kNestedLoop:
        benchmark::DoNotOptimize(xpath::StructuralJoinNestedLoop(a, d));
        break;
    }
  }
}

[[maybe_unused]] int registered = [] {
  for (const JoinCase& c : kCases) {
    std::string base = std::string(c.ancestor) + "_" + c.descendant;
    struct Variant {
      const char* suffix;
      Method method;
    };
    for (Variant v : {Variant{"/ruid", Method::kRuid},
                      Variant{"/interval", Method::kInterval},
                      Variant{"/nested_loop", Method::kNestedLoop}}) {
      benchmark::RegisterBenchmark(
          (base + v.suffix).c_str(),
          [&c, v](benchmark::State& state) { BM_Join(state, c, v.method); })
          ->Unit(benchmark::kMicrosecond);
    }
  }
  return 0;
}();

}  // namespace
}  // namespace bench
}  // namespace ruidx

RUIDX_BENCH_MAIN(ruidx::bench::PrintTables)
