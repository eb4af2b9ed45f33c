// rdfc_probe — containment probes against a frozen mv-index image written by
// rdfc_indexer or rdfc_shell's .save.
//
//   rdfc_probe <index.rdfcidx> <queries.rq>   probe each query in the file
//   rdfc_probe <index.rdfcidx> -              read one query from stdin
//   options: --mappings=N   print up to N containment mappings per hit
//            --show-views   print the contained views' SPARQL
//            --repeat=N     time each probe over N repetitions

#include <cstdio>
#include <iostream>
#include <sstream>

#include "index/persistence.h"
#include "sparql/parser.h"
#include "sparql/writer.h"
#include "tool_util.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/timer.h"

using namespace rdfc;  // NOLINT(build/namespaces)

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "rdfc_probe: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const tools::Args args = tools::Args::Parse(argc, argv);
  if (args.positional.size() != 2) {
    return Fail("usage: rdfc_probe <index.rdfcidx> <queries.rq|->");
  }
  const auto repeat = std::max<std::size_t>(
      1, std::strtoull(args.Get("repeat", "1").c_str(), nullptr, 10));

  rdf::TermDictionary dict;
  auto loaded = index::LoadFrozenIndex(args.positional[0], &dict);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  const index::FrozenMvIndex& index = **loaded;
  std::printf("index: %s live queries, %s vertices\n",
              util::WithThousands(index.num_live_entries()).c_str(),
              util::WithThousands(index.nodes().size()).c_str());

  std::vector<std::string> texts;
  if (args.positional[1] == "-") {
    std::stringstream buffer;
    buffer << std::cin.rdbuf();
    texts.push_back(buffer.str());
  } else {
    auto file = tools::ReadQueryFile(args.positional[1]);
    if (!file.ok()) return Fail(file.status().ToString());
    texts = std::move(file).value();
  }

  index::ProbeOptions options;
  options.max_mappings = static_cast<std::size_t>(
      std::strtoull(args.Get("mappings", "0").c_str(), nullptr, 10));

  for (std::size_t qi = 0; qi < texts.size(); ++qi) {
    auto parsed = sparql::ParseQuery(texts[qi], &dict);
    if (!parsed.ok()) {
      return Fail("parse error in query " + std::to_string(qi) + ": " +
                  parsed.status().ToString());
    }
    util::StreamingStats ms;
    index::ProbeResult result;
    for (std::size_t r = 0; r < repeat; ++r) {
      util::Timer timer;
      result = index.FindContaining(*parsed, options);
      ms.Add(timer.ElapsedMillis());
    }
    const std::string repeat_note =
        repeat > 1 ? " avg of " + std::to_string(repeat) : "";
    std::printf("\nquery %zu: %zu triple patterns -> contained in %zu "
                "indexed quer%s (%.4f ms%s)\n",
                qi, parsed->size(), result.contained.size(),
                result.contained.size() == 1 ? "y" : "ies", ms.mean(),
                repeat_note.c_str());
    for (const auto& match : result.contained) {
      std::printf("  #%u", match.stored_id);
      const auto& externals = index.external_ids(match.stored_id);
      if (!externals.empty()) {
        std::printf(" (external ids:");
        for (std::size_t i = 0; i < std::min<std::size_t>(externals.size(), 5);
             ++i) {
          std::printf(" %llu",
                      static_cast<unsigned long long>(externals[i]));
        }
        if (externals.size() > 5) std::printf(" ...");
        std::printf(")");
      }
      std::printf("\n");
      if (args.Has("show-views")) {
        std::printf("%s",
                    sparql::WriteQuery(index.entry(match.stored_id).canonical,
                                       dict)
                        .c_str());
      }
      for (std::size_t m = 0; m < match.outcome.mappings.size(); ++m) {
        std::printf("    σ%zu:", m);
        for (const auto& [var, term] : match.outcome.mappings[m]) {
          std::printf(" %s->%s", dict.ToString(var).c_str(),
                      dict.ToString(term).c_str());
        }
        std::printf("\n");
      }
    }
  }
  return 0;
}
