// rdfc_shell — interactive exploration of the library.
//
// Commands (one per line; SPARQL must be single-line or use \ continuation):
//   .load <file.ttl>       load Turtle data into the graph
//   .view <sparql>         register + materialise a view
//   .query <sparql>        answer a query (via views when possible)
//   .contains <sparql>     containment probe only (no evaluation)
//   .analyze <sparql>      structural report: f-graph, cyclic, ND-degree,
//                          serialised form, witness
//   .stats                 graph/index statistics
//   .save <file>           write the view index as a frozen image (rdfc_probe
//                          reads it)
//   .dot <file>            Graphviz dump of the mv-index
//   .help / .quit

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "containment/explain.h"
#include "index/dot_export.h"
#include "index/persistence.h"
#include "query/analysis.h"
#include "query/serialisation.h"
#include "query/witness.h"
#include "rdf/turtle_parser.h"
#include "rewriting/rewriter.h"
#include "sparql/parser.h"
#include "sparql/writer.h"
#include "util/string_util.h"
#include "util/timer.h"

using namespace rdfc;  // NOLINT(build/namespaces)

namespace {

class Shell {
 public:
  Shell() : executor_(&graph_, &dict_) {}

  int Run() {
    std::printf("rdfc shell — '.help' for commands\n");
    std::string line;
    while (true) {
      std::printf("rdfc> ");
      std::fflush(stdout);
      if (!std::getline(std::cin, line)) break;
      // Backslash continuation.
      while (!line.empty() && line.back() == '\\') {
        line.pop_back();
        std::string more;
        if (!std::getline(std::cin, more)) break;
        line += "\n" + more;
      }
      if (line.empty()) continue;
      if (line == ".quit" || line == ".exit") break;
      Dispatch(line);
    }
    return 0;
  }

 private:
  void Dispatch(const std::string& line) {
    auto starts = [&](const char* cmd) {
      return line.rfind(cmd, 0) == 0;
    };
    auto rest = [&](const char* cmd) {
      return std::string(util::Trim(line.substr(std::string(cmd).size())));
    };
    if (starts(".help")) {
      Help();
    } else if (starts(".load ")) {
      Load(rest(".load "));
    } else if (starts(".view ")) {
      View(rest(".view "));
    } else if (starts(".query ")) {
      Query(rest(".query "));
    } else if (starts(".contains ")) {
      Contains(rest(".contains "));
    } else if (starts(".analyze ")) {
      Analyze(rest(".analyze "));
    } else if (starts(".explain ")) {
      Explain(rest(".explain "));
    } else if (starts(".stats")) {
      Stats();
    } else if (starts(".save ")) {
      Save(rest(".save "));
    } else if (starts(".dot ")) {
      Dot(rest(".dot "));
    } else {
      std::printf("unknown command; '.help' lists commands\n");
    }
  }

  void Help() {
    std::printf(
        ".load FILE     load Turtle data\n"
        ".view SPARQL   register + materialise a view\n"
        ".query SPARQL  answer a query (uses views when contained)\n"
        ".contains SPARQL  probe the view index only\n"
        ".analyze SPARQL   structural report for a query\n"
        ".explain SPARQL   containment proof against each registered view\n"
        ".stats         graph/index statistics\n"
        ".save FILE     write an index snapshot\n"
        ".dot FILE      write the mv-index as Graphviz\n"
        ".quit          leave\n");
  }

  util::Result<query::BgpQuery> Parse(const std::string& text) {
    return sparql::ParseQuery(text, &dict_);
  }

  void Load(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
      std::printf("cannot open %s\n", path.c_str());
      return;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::size_t before = graph_.size();
    if (auto st = rdf::ParseTurtle(buffer.str(), &dict_, &graph_); !st.ok()) {
      std::printf("parse error: %s\n", st.ToString().c_str());
      return;
    }
    std::printf("loaded %zu new triples (%zu total)\n",
                graph_.size() - before, graph_.size());
  }

  void View(const std::string& text) {
    auto parsed = Parse(text);
    if (!parsed.ok()) {
      std::printf("%s\n", parsed.status().ToString().c_str());
      return;
    }
    auto id = executor_.AddView(*parsed);
    if (!id.ok()) {
      std::printf("%s\n", id.status().ToString().c_str());
      return;
    }
    std::printf("view #%u materialised: %zu rows\n", *id,
                executor_.view(*id).rows.size());
  }

  void Query(const std::string& text) {
    auto parsed = Parse(text);
    if (!parsed.ok()) {
      std::printf("%s\n", parsed.status().ToString().c_str());
      return;
    }
    util::Timer timer;
    const rewriting::ExecutionReport report = executor_.Answer(*parsed);
    const double ms = timer.ElapsedMillis();
    const char* strategy =
        report.strategy == rewriting::ExecutionReport::Strategy::kBaseEvaluation
            ? "base evaluation"
        : report.strategy ==
                rewriting::ExecutionReport::Strategy::kFromViewDirect
            ? "view (direct)"
            : "view (residual)";
    std::printf("%zu answer(s) via %s in %.3f ms\n", report.answers.size(),
                strategy, ms);
    for (std::size_t i = 0; i < std::min<std::size_t>(report.answers.size(), 20);
         ++i) {
      std::printf("  (");
      for (std::size_t c = 0; c < report.answers[i].size(); ++c) {
        std::printf("%s%s", c ? ", " : "",
                    dict_.ToString(report.answers[i][c]).c_str());
      }
      std::printf(")\n");
    }
    if (report.answers.size() > 20) std::printf("  ...\n");
  }

  void Contains(const std::string& text) {
    auto parsed = Parse(text);
    if (!parsed.ok()) {
      std::printf("%s\n", parsed.status().ToString().c_str());
      return;
    }
    // Probe only — no evaluation against the graph.
    const index::ProbeResult result =
        executor_.index().FindContaining(*parsed);
    if (result.contained.empty()) {
      std::printf("no containing view\n");
      return;
    }
    std::printf("contained in %zu view(s):", result.contained.size());
    for (const auto& match : result.contained) {
      for (std::uint64_t ext : executor_.index().external_ids(match.stored_id)) {
        std::printf(" #%llu", static_cast<unsigned long long>(ext));
      }
    }
    std::printf("\n");
  }

  void Analyze(const std::string& text) {
    auto parsed = Parse(text);
    if (!parsed.ok()) {
      std::printf("%s\n", parsed.status().ToString().c_str());
      return;
    }
    const query::QueryShape shape = query::AnalyzeShape(*parsed, dict_);
    const query::Witness witness = query::BuildWitness(*parsed);
    std::printf("triples: %u  vertices: %u  components: %u\n",
                shape.num_triples, shape.num_vertices, shape.num_components);
    std::printf("f-graph: %s  acyclic: %s  IRI-only predicates: %s\n",
                shape.is_fgraph ? "yes" : "no",
                shape.is_acyclic ? "yes" : "no",
                shape.only_iri_predicates ? "yes" : "no");
    std::printf("ND-degree: %llu\n",
                static_cast<unsigned long long>(witness.nd_degree));
    query::BgpQuery skeleton;
    for (const rdf::Triple& t : parsed->patterns()) {
      if (!dict_.IsVariable(t.p)) skeleton.AddPattern(t);
    }
    if (!skeleton.empty()) {
      query::CanonicalMap canonical(&dict_);
      auto serialised = query::SerialiseQuery(skeleton, &dict_, &canonical);
      if (serialised.ok()) {
        std::printf("serialised: %s\n",
                    query::TokensToString(serialised->tokens, dict_).c_str());
      }
    }
    if (witness.nd_degree > 1) {
      std::printf("%s", witness.ToString(dict_).c_str());
    }
  }

  void Explain(const std::string& text) {
    auto parsed = Parse(text);
    if (!parsed.ok()) {
      std::printf("%s\n", parsed.status().ToString().c_str());
      return;
    }
    if (executor_.num_views() == 0) {
      std::printf("no views registered\n");
      return;
    }
    for (std::size_t v = 0; v < executor_.num_views(); ++v) {
      std::printf("--- view #%zu ---\n%s\n", v,
                  containment::ExplainContainment(
                      *parsed, executor_.view(v).definition, &dict_)
                      .c_str());
    }
  }

  void Stats() {
    std::printf("graph: %zu triples, %zu subjects, %zu predicates\n",
                graph_.size(), graph_.num_subjects(), graph_.num_predicates());
    std::printf("views: %zu materialised\n", executor_.num_views());
    std::printf("dictionary: %zu terms\n", dict_.size());
  }

  void Save(const std::string& path) {
    // Rebuild a standalone index of the view definitions for the snapshot.
    index::MvIndex snapshot(&dict_);
    for (std::size_t v = 0; v < executor_.num_views(); ++v) {
      if (auto st = snapshot.Insert(executor_.view(v).definition, v);
          !st.ok()) {
        std::printf("%s\n", st.status().ToString().c_str());
        return;
      }
    }
    if (auto st = index::SaveFrozenIndex(index::FrozenMvIndex(snapshot), path);
        !st.ok()) {
      std::printf("%s\n", st.ToString().c_str());
      return;
    }
    std::printf("snapshot written to %s\n", path.c_str());
  }

  void Dot(const std::string& path) {
    index::MvIndex snapshot(&dict_);
    for (std::size_t v = 0; v < executor_.num_views(); ++v) {
      if (auto st = snapshot.Insert(executor_.view(v).definition, v);
          !st.ok()) {
        std::printf("%s\n", st.status().ToString().c_str());
        return;
      }
    }
    std::ofstream out(path);
    if (!out) {
      std::printf("cannot open %s\n", path.c_str());
      return;
    }
    out << index::ExportDot(snapshot);
    std::printf("Graphviz tree written to %s\n", path.c_str());
  }

  rdf::TermDictionary dict_;
  rdf::Graph graph_;
  rewriting::ViewExecutor executor_;
};

}  // namespace

int main() {
  Shell shell;
  return shell.Run();
}
