// Cold-load latency of the binary mmap model artifact (runtime/artifact.hpp
// — map, validate checksums, adopt the persisted arrays as views).
//
// One JSON line per run (scripts/bench.sh appends to BENCH_load.json):
//
//   {"bench":"model_load","circuit":"alarm","batch":512,
//    "binary_bytes":...,"binary_load_ms":...,"binary_rss_delta_kb":...,
//    "mmap":true,"parity_checksum":"...","fixed_parity_checksum":"...",
//    "float_parity_checksum":"..."}
//
// The load timing is an in-process cold load (fresh file, first touch of
// the mapping); rss_delta is the VmRSS growth across the load, the
// resident cost of *opening* a model before any query traffic.  The three
// checksums (exact double, fixed 2.22 nearest-even, float 8,23) are summed
// batched-marginal roots over the ALARM test evidence and must be
// bit-identical between the in-memory model and the mmap-loaded model —
// the bench exits non-zero on any drift, so CI gets zero-copy parity for
// free with the latency row.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace problp {
namespace {

/// VmRSS in kB from /proc/self/status; 0 where procfs is unavailable.
long resident_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      long kb = 0;
      std::sscanf(line.c_str(), "VmRSS: %ld", &kb);
      return kb;
    }
  }
  return 0;
}

std::size_t file_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  return f.good() ? static_cast<std::size_t>(f.tellg()) : 0;
}

double checksum(const std::shared_ptr<const runtime::CompiledModel>& model,
                const std::vector<ac::PartialAssignment>& evidence,
                const runtime::SessionOptions& options) {
  runtime::InferenceSession session(model, options);
  double sum = 0.0;
  for (double v : session.marginal(evidence)) sum += v;
  return sum;
}

struct Checksums {
  double exact = 0.0;
  double fixed = 0.0;
  double flt = 0.0;
};

Checksums all_checksums(const std::shared_ptr<const runtime::CompiledModel>& model,
                        const std::vector<ac::PartialAssignment>& evidence) {
  Checksums c;
  c.exact = checksum(model, evidence, {});
  c.fixed = checksum(model, evidence,
                     runtime::SessionOptions::low_precision(
                         Representation::of(lowprec::FixedFormat{2, 22})));
  c.flt = checksum(model, evidence,
                   runtime::SessionOptions::low_precision(
                       Representation::of(lowprec::FloatFormat{8, 23})));
  return c;
}

bool same_bits(double a, double b) {
  std::uint64_t ba = 0, bb = 0;
  std::memcpy(&ba, &a, sizeof a);
  std::memcpy(&bb, &b, sizeof b);
  return ba == bb;
}

}  // namespace

int run() {
  const datasets::Benchmark alarm = datasets::make_alarm_benchmark(1, 512);
  const std::vector<ac::PartialAssignment> evidence = bench::to_assignments(alarm.test_evidence);

  const auto model = runtime::CompiledModel::compile(alarm.network);
  // Analyze before saving so the artifact carries the report cache and the
  // selected format's quantised leaf cache — the shape a served model ships.
  model->analyze(errormodel::QuerySpec{errormodel::QueryType::kMarginal,
                                       errormodel::ToleranceKind::kAbsolute, 0.01});

  const std::string binary_path = "/tmp/problp_bench_model.pm";
  model->save(binary_path);

  const Checksums reference = all_checksums(model, evidence);

  // Best of 5 loads: the file was just written so the page cache is warm —
  // the repeats strip scheduler noise, not disk time.  RSS delta is taken
  // on the first (coldest) iteration, before the process has faulted the
  // artifact in.
  long binary_rss_kb = 0;
  double binary_ms = 0.0;
  std::shared_ptr<const runtime::CompiledModel> binary_model;
  for (int rep = 0; rep < 5; ++rep) {
    const long rss0 = resident_kb();
    const auto t0 = std::chrono::steady_clock::now();
    binary_model = runtime::CompiledModel::load(binary_path);
    const double ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
    if (rep == 0) binary_rss_kb = resident_kb() - rss0;
    if (rep == 0 || ms < binary_ms) binary_ms = ms;
  }

  const Checksums got = all_checksums(binary_model, evidence);
  const bool ok = same_bits(got.exact, reference.exact) &&
                  same_bits(got.fixed, reference.fixed) && same_bits(got.flt, reference.flt);
  if (!ok) {
    std::fprintf(stderr,
                 "LOAD PARITY VIOLATION (binary): exact %.17g/%.17g fixed %.17g/%.17g "
                 "float %.17g/%.17g\n",
                 got.exact, reference.exact, got.fixed, reference.fixed, got.flt, reference.flt);
  }

  std::printf(
      "{\"bench\":\"model_load\",\"circuit\":\"alarm\",\"batch\":%zu,"
      "\"binary_bytes\":%zu,\"binary_load_ms\":%.3f,\"binary_rss_delta_kb\":%ld,"
      "\"mmap\":%s,\"parity_checksum\":\"%.17g\",\"fixed_parity_checksum\":\"%.17g\","
      "\"float_parity_checksum\":\"%.17g\"}\n",
      evidence.size(), file_bytes(binary_path), binary_ms, binary_rss_kb,
      binary_model->memory_mapped() ? "true" : "false", reference.exact, reference.fixed,
      reference.flt);
  return ok ? 0 : 1;
}

}  // namespace problp

int main() { return problp::run(); }
