#include "trace.hpp"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

int Tracer::begin(const char* name) {
  if (!active_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  const int id = add(name, now_ns(), 0, parent);
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  // Scopes close in reverse order of opening, so `id` is the innermost.
  open_.pop_back();
}

int Tracer::add(const char* name, std::int64_t start_ns, std::int64_t end_ns, int parent,
                std::int64_t request) {
  spans_.push_back(Span{name, start_ns, end_ns, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

double Tracer::child_seconds(int id) const {
  // Children of one span never overlap: every nested span here is opened
  // and closed on the main thread, and a request's queue and service spans
  // are consecutive.
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.parent == id) total += s.seconds();
  }
  return total;
}

void Tracer::write(const std::string& path, const std::string& stamp) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace file " + path);
  std::fprintf(f, "%s\n", stamp.c_str());
  // Self times need each span's children; one pass sums them per parent.
  std::vector<double> children(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[static_cast<std::size_t>(s.parent)] += s.seconds();
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%d,"
                 "\"request\":%lld,\"self_s\":%.9g}\n",
                 i, s.name, static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 s.parent, static_cast<long long>(s.request), s.seconds() - children[i]);
  }
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write trace file " + path);
}

}  // namespace perfbench
