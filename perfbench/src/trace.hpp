// Spans recorded from outside the program: the benchmark wraps each call
// into a ProbLP layer (compile, runtime, errormodel, hw, serve) in a Scope,
// keeps the spans in memory, and writes them out when the run ends.
//
// A Tracer is owned and used by the benchmark's main thread only.  Spans of
// serve requests, which complete on server threads, are captured into
// per-request slots during a phase and added here afterwards (add()).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;             ///< index of the enclosing span, -1 at top level
  std::int64_t request = -1;   ///< request id of sampled serve requests
  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

class Tracer {
 public:
  /// Whether spans are recorded at all (the --trace flag of the run).
  explicit Tracer(bool enabled) : enabled_(enabled), active_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Recording can be paused inside a traced run, so the same work can be
  /// timed with and without spans and the tracing overhead measured.
  bool active() const { return active_; }
  void set_active(bool active) { active_ = enabled_ && active; }

  /// Opens a span nested in the innermost open one; -1 when not recording.
  int begin(const char* name);
  void end(int id);
  /// Adds a finished span (serve requests captured off the main thread).
  int add(const char* name, std::int64_t start_ns, std::int64_t end_ns, int parent,
          std::int64_t request = -1);

  const std::vector<Span>& spans() const { return spans_; }
  /// Summed duration of the direct children of span `id`; a span's self
  /// time is its duration minus this.
  double child_seconds(int id) const;

  /// Writes one JSON object per line: the header line `stamp` verbatim,
  /// then every span with its self time.
  void write(const std::string& path, const std::string& stamp) const;

 private:
  bool enabled_;
  bool active_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span around one call; a no-op when the tracer is not recording.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name) : tracer_(tracer), id_(tracer.begin(name)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
