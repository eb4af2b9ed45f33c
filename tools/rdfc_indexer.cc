// rdfc_indexer — builds an mv-index from SPARQL queries and writes it as a
// frozen image (RDFCFZ01, index/persistence.h) that rdfc_probe loads.
//
//   rdfc_indexer <queries.rq> <out.rdfcidx>        index a `---`-separated file
//   rdfc_indexer --workload=dbpedia:5000 <out>     index a generated workload
//                (--workload accepts dbpedia|watdiv|bsbm|ldbc|lubm[:count])
//   options: --seed=N (default 42), --dot=<file> (Graphviz dump of the tree),
//            --emit=<file> (also write the queries as a `---`-separated
//            SPARQL log, e.g. to export a generated workload)
//
// Prints the same statistics block the Section 7.1 bench reports.

#include <cstdio>
#include <fstream>

#include "index/dot_export.h"
#include "index/mv_index.h"
#include "index/persistence.h"
#include "sparql/parser.h"
#include "sparql/writer.h"
#include "tool_util.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "workload/workload.h"

using namespace rdfc;  // NOLINT(build/namespaces)

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "rdfc_indexer: %s\n", message.c_str());
  return 1;
}

util::Result<std::vector<query::BgpQuery>> GeneratedWorkload(
    const std::string& spec, rdf::TermDictionary* dict, std::uint64_t seed) {
  std::string name = spec;
  std::size_t count = 5000;
  if (const std::size_t colon = spec.find(':'); colon != std::string::npos) {
    name = spec.substr(0, colon);
    count = static_cast<std::size_t>(
        std::strtoull(spec.substr(colon + 1).c_str(), nullptr, 10));
    if (count == 0) return util::Status::InvalidArgument("bad count: " + spec);
  }
  if (name == "dbpedia") return workload::GenerateDbpedia(dict, count, seed);
  if (name == "watdiv") return workload::GenerateWatdiv(dict, count, seed);
  if (name == "bsbm") return workload::GenerateBsbm(dict, count, seed);
  if (name == "ldbc") return workload::GenerateLdbc(dict, count, seed);
  if (name == "lubm") return workload::GenerateLubmExtended(dict, count, seed);
  return util::Status::InvalidArgument("unknown workload: " + name);
}

}  // namespace

int main(int argc, char** argv) {
  const tools::Args args = tools::Args::Parse(argc, argv);
  const auto seed = static_cast<std::uint64_t>(
      std::strtoull(args.Get("seed", "42").c_str(), nullptr, 10));

  rdf::TermDictionary dict;
  std::vector<query::BgpQuery> queries;
  std::string out_path;

  if (args.Has("workload")) {
    if (args.positional.size() != 1) {
      return Fail("usage: rdfc_indexer --workload=NAME[:N] <out.rdfcidx>");
    }
    auto generated = GeneratedWorkload(args.Get("workload"), &dict, seed);
    if (!generated.ok()) return Fail(generated.status().ToString());
    queries = std::move(generated).value();
    out_path = args.positional[0];
  } else {
    if (args.positional.size() != 2) {
      return Fail("usage: rdfc_indexer <queries.rq> <out.rdfcidx>");
    }
    auto texts = tools::ReadQueryFile(args.positional[0]);
    if (!texts.ok()) return Fail(texts.status().ToString());
    for (const std::string& text : *texts) {
      auto parsed = sparql::ParseQuery(text, &dict);
      if (!parsed.ok()) {
        return Fail("parse error: " + parsed.status().ToString() +
                    "\nquery was:\n" + text);
      }
      queries.push_back(std::move(parsed).value());
    }
    out_path = args.positional[1];
  }

  if (args.Has("emit")) {
    std::ofstream out(args.Get("emit"));
    if (!out) return Fail("cannot open emit output");
    for (std::size_t i = 0; i < queries.size(); ++i) {
      if (i > 0) out << "---\n";
      out << sparql::WriteQuery(queries[i], dict);
    }
    std::printf("query log written to %s\n", args.Get("emit").c_str());
  }

  index::MvIndex index(&dict);
  util::Timer timer;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto outcome = index.Insert(queries[i], i);
    if (!outcome.ok()) return Fail(outcome.status().ToString());
  }
  const double insert_ms = timer.ElapsedMillis();
  const index::RadixStats stats = index.ComputeStats();

  std::printf("indexed %s queries -> %s distinct (%.1f%%), %s vertices, "
              "%.1f ms total (%.4f ms/query)\n",
              util::WithThousands(queries.size()).c_str(),
              util::WithThousands(index.num_entries()).c_str(),
              queries.empty() ? 0.0
                              : 100.0 * static_cast<double>(index.num_entries()) /
                                    static_cast<double>(queries.size()),
              util::WithThousands(stats.num_nodes).c_str(), insert_ms,
              queries.empty() ? 0.0
                              : insert_ms / static_cast<double>(queries.size()));

  if (auto st = index::SaveFrozenIndex(index::FrozenMvIndex(index), out_path);
      !st.ok()) {
    return Fail(st.ToString());
  }
  std::printf("snapshot written to %s\n", out_path.c_str());

  if (args.Has("dot")) {
    std::ofstream dot(args.Get("dot"));
    if (!dot) return Fail("cannot open dot output");
    dot << index::ExportDot(index);
    std::printf("Graphviz tree written to %s\n", args.Get("dot").c_str());
  }
  return 0;
}
