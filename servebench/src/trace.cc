#include "trace.h"

#include <cstdio>

namespace servebench {

std::vector<double> Tracer::SelfMicros(const std::string& name) const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) {
      const std::int64_t self =
          spans_[i].end_ns - spans_[i].start_ns - child_ns[i];
      out.push_back(static_cast<double>(self) / 1000.0);
    }
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"span\":%zu,\"name\":\"%s\",\"request\":%llu,"
                 "\"parent\":%d,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 i, s.name, static_cast<unsigned long long>(s.request),
                 s.parent, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace servebench
