// ruidx_tool — command-line front end to the library.
//
//   ruidx_tool stats    <file.xml>
//   ruidx_tool number   <file.xml> [options]        print every identifier
//   ruidx_tool ktable   <file.xml> [options]        print kappa and table K
//   ruidx_tool parent   <file.xml> <g> <l> <r> [options]   run rparent()
//   ruidx_tool query    <file.xml> <xpath> [--engine dom|ruid|ruid-index]
//   ruidx_tool fragment <file.xml> <xpath>           reconstruct a fragment
//   ruidx_tool store    <file.xml> <out.db>          bulk-load element store
//   ruidx_tool check    <file.xml> [options]         verify every invariant
//
// Common options: --max-area-nodes N (default 64), --max-area-depth D
// (default 4), --no-adjust (disable the Sec. 2.3 fan-out adjustment).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/invariant_checker.h"
#include "core/fragment.h"
#include "core/ruid2.h"
#include "core/global_state.h"
#include "storage/element_store.h"
#include "storage/streaming_labeler.h"
#include "util/table_printer.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xml/stats.h"
#include "xpath/dom_eval.h"
#include "xpath/name_index.h"
#include "xpath/path_index.h"
#include "xpath/ruid_eval.h"

namespace {

using namespace ruidx;

struct CommonOptions {
  core::PartitionOptions partition;
  std::string engine = "ruid";
  /// For `check`: bulk-load into this file, close it, and reopen it —
  /// exercising the crash-recovery path — before the store checks run.
  std::string store_path;
};

int Usage() {
  std::fprintf(stderr,
               "usage: ruidx_tool <command> <file.xml> [args] [options]\n"
               "commands:\n"
               "  stats    <file.xml>\n"
               "  number   <file.xml>\n"
               "  ktable   <file.xml>\n"
               "  parent   <file.xml> <global> <local> <true|false>\n"
               "  query    <file.xml> <xpath> [--engine dom|ruid|ruid-index]\n"
               "  fragment <file.xml> <xpath>\n"
               "  store    <file.xml> <out.db>\n"
               "  stream   <file.xml> <out.db>   (two-pass SAX, no DOM kept)\n"
               "  check    <file.xml> [--store <out.db>]\n"
               "           (structural invariant fsck; with --store the "
               "document\n"
               "           is stored, closed, and reopened before the on-disk "
               "checks)\n"
               "options: --max-area-nodes N  --max-area-depth D  --no-adjust\n");
  return 2;
}

/// Strips recognized options out of args; returns false on a bad value.
bool ParseOptions(std::vector<std::string>* args, CommonOptions* options) {
  std::vector<std::string> rest;
  for (size_t i = 0; i < args->size(); ++i) {
    const std::string& arg = (*args)[i];
    auto next_value = [&](uint64_t* out) {
      if (i + 1 >= args->size()) return false;
      char* end = nullptr;
      *out = std::strtoull((*args)[++i].c_str(), &end, 10);
      return end != nullptr && *end == '\0' && *out > 0;
    };
    if (arg == "--max-area-nodes") {
      if (!next_value(&options->partition.max_area_nodes)) return false;
    } else if (arg == "--max-area-depth") {
      if (!next_value(&options->partition.max_area_depth)) return false;
    } else if (arg == "--no-adjust") {
      options->partition.adjust_fanout = false;
    } else if (arg == "--engine") {
      if (i + 1 >= args->size()) return false;
      options->engine = (*args)[++i];
    } else if (arg == "--store") {
      if (i + 1 >= args->size()) return false;
      options->store_path = (*args)[++i];
    } else {
      rest.push_back(arg);
    }
  }
  *args = std::move(rest);
  return true;
}

Result<std::unique_ptr<xml::Document>> LoadDocument(const std::string& path) {
  return xml::ParseFile(path);
}

int CmdStats(const std::string& path) {
  auto doc = LoadDocument(path);
  if (!doc.ok()) {
    std::fprintf(stderr, "%s\n", doc.status().ToString().c_str());
    return 1;
  }
  std::cout << xml::ComputeStats((*doc)->root()).ToString() << "\n";
  return 0;
}

int CmdNumber(const std::string& path, const CommonOptions& options) {
  auto doc = LoadDocument(path);
  if (!doc.ok()) {
    std::fprintf(stderr, "%s\n", doc.status().ToString().c_str());
    return 1;
  }
  core::Ruid2Scheme scheme(options.partition);
  scheme.Build((*doc)->root());
  xml::PreorderTraverse((*doc)->root(), [&](xml::Node* n, int depth) {
    std::string indent(static_cast<size_t>(depth) * 2, ' ');
    std::string what = n->is_element()
                           ? "<" + n->name() + ">"
                           : std::string(xml::NodeTypeToString(n->type()));
    std::cout << indent << what << "  " << scheme.label(n).ToString() << "\n";
    return true;
  });
  return 0;
}

int CmdKTable(const std::string& path, const CommonOptions& options) {
  auto doc = LoadDocument(path);
  if (!doc.ok()) {
    std::fprintf(stderr, "%s\n", doc.status().ToString().c_str());
    return 1;
  }
  core::Ruid2Scheme scheme(options.partition);
  scheme.Build((*doc)->root());
  std::cout << "kappa = " << scheme.kappa() << "\n";
  TablePrinter table("table K");
  table.SetHeader({"Global index", "Local index", "Local fan-out"});
  for (const auto& row : scheme.ktable().rows()) {
    table.AddRow({row.global.ToDecimalString(), row.root_local.ToDecimalString(),
                  std::to_string(row.fanout)});
  }
  table.Print();
  return 0;
}

int CmdParent(const std::string& path, const std::vector<std::string>& args,
              const CommonOptions& options) {
  if (args.size() != 3) return Usage();
  auto doc = LoadDocument(path);
  if (!doc.ok()) {
    std::fprintf(stderr, "%s\n", doc.status().ToString().c_str());
    return 1;
  }
  core::Ruid2Scheme scheme(options.partition);
  scheme.Build((*doc)->root());
  auto g = BigUint::FromDecimalString(args[0]);
  auto l = BigUint::FromDecimalString(args[1]);
  if (!g.ok() || !l.ok() || (args[2] != "true" && args[2] != "false")) {
    std::fprintf(stderr, "bad identifier components\n");
    return 1;
  }
  core::Ruid2Id id{*g, *l, args[2] == "true"};
  auto parent = scheme.Parent(id);
  if (!parent.ok()) {
    std::fprintf(stderr, "%s\n", parent.status().ToString().c_str());
    return 1;
  }
  std::cout << "rparent" << id.ToString() << " = " << parent->ToString()
            << "\n";
  xml::Node* node = scheme.NodeById(*parent);
  if (node != nullptr) {
    std::cout << "  which is <" << node->name() << ">\n";
  } else {
    std::cout << "  (virtual slot: no real node carries this identifier)\n";
  }
  return 0;
}

int CmdQuery(const std::string& path, const std::vector<std::string>& args,
             const CommonOptions& options) {
  if (args.size() != 1) return Usage();
  auto doc = LoadDocument(path);
  if (!doc.ok()) {
    std::fprintf(stderr, "%s\n", doc.status().ToString().c_str());
    return 1;
  }
  Result<std::vector<xml::Node*>> result =
      Status::InvalidArgument("unknown engine: " + options.engine);
  core::Ruid2Scheme scheme(options.partition);
  xpath::NameIndex index((*doc)->root());
  xpath::PathIndex path_index((*doc)->root());
  if (options.engine == "dom") {
    xpath::DomEvaluator eval(doc->get());
    result = eval.Evaluate(args[0]);
  } else if (options.engine == "ruid" || options.engine == "ruid-index") {
    scheme.Build((*doc)->root());
    xpath::RuidEvaluator eval(doc->get(), &scheme);
    if (options.engine == "ruid-index") {
      eval.SetNameIndex(&index);
      eval.SetPathIndex(&path_index);
    }
    result = eval.Evaluate(args[0]);
  }
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  for (xml::Node* n : *result) {
    if (n->is_attribute()) {
      std::cout << "@" << n->name() << "=\"" << n->value() << "\"\n";
    } else {
      std::cout << xml::Serialize(n) << "\n";
    }
  }
  std::cerr << result->size() << " result(s)\n";
  return 0;
}

int CmdFragment(const std::string& path, const std::vector<std::string>& args,
                const CommonOptions& options) {
  if (args.size() != 1) return Usage();
  auto doc = LoadDocument(path);
  if (!doc.ok()) {
    std::fprintf(stderr, "%s\n", doc.status().ToString().c_str());
    return 1;
  }
  core::Ruid2Scheme scheme(options.partition);
  scheme.Build((*doc)->root());
  xpath::RuidEvaluator eval(doc->get(), &scheme);
  auto result = eval.Evaluate(args[0]);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  // Attributes cannot appear in fragments; drop them.
  std::vector<xml::Node*> nodes;
  for (xml::Node* n : *result) {
    if (!n->is_attribute() && !n->is_document()) nodes.push_back(n);
  }
  auto fragment = core::ReconstructFragment(scheme, nodes);
  if (!fragment.ok()) {
    std::fprintf(stderr, "%s\n", fragment.status().ToString().c_str());
    return 1;
  }
  xml::SerializeOptions serialize_options;
  serialize_options.pretty = true;
  std::cout << xml::Serialize((*fragment)->document_node(), serialize_options);
  return 0;
}

int CmdStore(const std::string& path, const std::vector<std::string>& args,
             const CommonOptions& options) {
  if (args.size() != 1) return Usage();
  auto doc = LoadDocument(path);
  if (!doc.ok()) {
    std::fprintf(stderr, "%s\n", doc.status().ToString().c_str());
    return 1;
  }
  core::Ruid2Scheme scheme(options.partition);
  scheme.Build((*doc)->root());
  auto store = storage::ElementStore::Create(args[0]);
  if (!store.ok()) {
    std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
    return 1;
  }
  Status st = (*store)->BulkLoad(scheme, (*doc)->root());
  if (st.ok()) st = (*store)->Flush();
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::cout << "stored " << (*store)->record_count() << " records in "
            << args[0] << " (" << (*store)->pager_stats().allocations
            << " pages)\n";
  return 0;
}

int CmdStream(const std::string& path, const std::vector<std::string>& args,
              const CommonOptions& options) {
  if (args.size() != 1) return Usage();
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  auto store = storage::ElementStore::Create(args[0]);
  if (!store.ok()) {
    std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
    return 1;
  }
  auto stats = storage::StreamLabelToStore(text, options.partition,
                                           store->get());
  if (stats.ok()) {
    if (Status st = (*store)->Flush(); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }
  if (!stats.ok()) {
    std::fprintf(stderr, "%s\n", stats.status().ToString().c_str());
    return 1;
  }
  std::string state_path = args[0] + ".gstate";
  std::ofstream state(state_path, std::ios::binary | std::ios::trunc);
  state.write(stats->global_state.data(),
              static_cast<std::streamsize>(stats->global_state.size()));
  std::cout << "streamed " << stats->nodes << " nodes into " << args[0]
            << " (" << stats->areas << " areas, kappa=" << stats->kappa
            << "); global state in " << state_path << "\n";
  return 0;
}

int CmdCheck(const std::string& path, const CommonOptions& options) {
  auto doc = LoadDocument(path);
  if (!doc.ok()) {
    std::fprintf(stderr, "%s\n", doc.status().ToString().c_str());
    return 1;
  }
  xml::Node* root = (*doc)->root();
  core::Ruid2Scheme scheme(options.partition);
  scheme.Build(root);

  analysis::CheckReport report;
  Status st = analysis::CheckDocumentInvariants(scheme, root, {}, &report);
  if (st.ok()) {
    // Verify the storage contract — over a fresh in-memory load, or (with
    // --store) over a file-backed store that is written, closed, and
    // reopened, so the checks run against the durable on-disk image after a
    // pass through the recovery machinery.
    auto store = storage::ElementStore::Create(options.store_path);
    if (!store.ok()) {
      std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
      return 1;
    }
    st = (*store)->BulkLoad(scheme, root);
    if (st.ok() && !options.store_path.empty()) {
      st = (*store)->Flush();
      if (st.ok()) {
        store->reset();
        store = storage::ElementStore::Open(options.store_path);
        if (!store.ok()) {
          std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
          return 1;
        }
      }
    }
    if (st.ok()) {
      st = analysis::CheckStoreInvariants(scheme, root, store->get(), {},
                                          &report);
    }
    if (st.ok() && !options.store_path.empty()) {
      // Surface the buffer-pool counters for the on-disk run: the check
      // above exercised the store through the pool, so hit/miss/eviction
      // and the async write-back split show how the I/O engine behaved.
      storage::BufferPoolStats ps = (*store)->pool_stats();
      std::cout << "pool: " << ps.hits << " hits, " << ps.misses
                << " misses, " << ps.evictions << " evictions, "
                << ps.dirty_writebacks << " sync + " << ps.async_writebacks
                << " async writebacks, " << ps.prefetches << " prefetches, "
                << ps.flusher_drains << " flusher drains\n";
      storage::SecondaryIndexStats sec = (*store)->secondary_stats();
      std::cout << "index: " << sec.name_postings << " name postings, "
                << sec.path_postings << " path postings\n";
      // MVCC view: open a committed snapshot, scan every record through it
      // (exercising the snapshot read path end to end), then report the
      // snapshot-table counters while the handle is still live.
      auto snap = (*store)->OpenSnapshot();
      if (!snap.ok()) {
        std::fprintf(stderr, "%s\n", snap.status().ToString().c_str());
        return 1;
      }
      uint64_t snap_scanned = 0;
      if (Status snap_st = (*snap)->ScanAll(
              [&](const storage::BPlusTree::Key&,
                  const storage::ElementRecord&) {
                ++snap_scanned;
                return true;
              });
          !snap_st.ok()) {
        std::fprintf(stderr, "%s\n", snap_st.ToString().c_str());
        return 1;
      }
      storage::SnapshotStats ss = (*store)->snapshot_stats();
      std::cout << "snapshots: " << ss.live_snapshots << " live ("
                << ss.snapshots_opened << " opened), " << ss.cow_frames
                << " COW frames, " << ss.cached_pages
                << " cached pages; committed view scanned " << snap_scanned
                << " records\n";
      snap->reset();
      // Leaf compression accounting across the primary and posting trees:
      // raw bytes/key is the fixed 33-byte layout, stored bytes/key what
      // the v2 codec actually wrote, and the run-length histogram shows
      // how far in-place edits stretched the restart intervals.
      storage::BPlusTree::LeafStats leaves;
      st = (*store)->ComputeLeafStats(&leaves);
      if (st.ok() && leaves.entries > 0) {
        double before = static_cast<double>(leaves.key_bytes_raw) /
                        static_cast<double>(leaves.entries);
        double after = static_cast<double>(leaves.key_bytes_stored) /
                       static_cast<double>(leaves.entries);
        std::cout << "leaves: " << leaves.leaf_pages << " pages ("
                  << leaves.compressed_pages << " compressed), "
                  << TablePrinter::FormatDouble(before, 1)
                  << " bytes/key raw -> "
                  << TablePrinter::FormatDouble(after, 1)
                  << " stored, avg leaf fan-out "
                  << TablePrinter::FormatDouble(
                         static_cast<double>(leaves.entries) /
                             static_cast<double>(leaves.leaf_pages),
                         1)
                  << "\nrestart runs:";
        // Compact histogram: bucket run lengths by power of two.
        for (size_t lo = 1; lo < leaves.run_length_histogram.size();
             lo *= 2) {
          size_t hi = std::min(lo * 2 - 1,
                               leaves.run_length_histogram.size() - 1);
          uint64_t count = 0;
          for (size_t len = lo; len <= hi; ++len) {
            count += leaves.run_length_histogram[len];
          }
          std::cout << " [" << lo << ".." << hi << "]=" << count;
        }
        std::cout << "\n";
      }
    }
  }
  if (!st.ok()) {
    std::cout << "FAIL " << path << "\n  " << st.ToString() << "\n";
    return 1;
  }
  std::cout << "OK " << path << "\n  " << report.Summary() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  CommonOptions options;
  if (!ParseOptions(&args, &options)) return Usage();
  if (args.size() < 2) return Usage();
  std::string command = args[0];
  std::string file = args[1];
  std::vector<std::string> rest(args.begin() + 2, args.end());

  if (command == "stats") return CmdStats(file);
  if (command == "number") return CmdNumber(file, options);
  if (command == "ktable") return CmdKTable(file, options);
  if (command == "parent") return CmdParent(file, rest, options);
  if (command == "query") return CmdQuery(file, rest, options);
  if (command == "fragment") return CmdFragment(file, rest, options);
  if (command == "store") return CmdStore(file, rest, options);
  if (command == "stream") return CmdStream(file, rest, options);
  if (command == "check") return CmdCheck(file, options);
  return Usage();
}
