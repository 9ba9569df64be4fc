// Shared pieces of the cfx_perfbench binary: timing, the line protocol
// run.py reads, output digests and reads of the library's own metrics.
//
// Protocol: a workload writes one `OP <json>` line per finished operation
// (flushed at once, so a child that dies mid-run still reports what it
// finished) and ends with one `DONE <json>` line. Library logs go to stderr.
#ifndef CFX_PERFBENCH_BENCH_H_
#define CFX_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>

#include "src/tensor/matrix.h"

namespace cfx {
namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Set before main() runs; set-up times are measured from here.
extern const Clock::time_point kProcessStart;

inline double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Command-line options shared by every workload.
struct Options {
  std::string dataset;          ///< paper: adult | census | law.
  uint64_t seed = 1;
  double seconds = 10.0;        ///< serve: measured phases together.
  bool ingest = false;          ///< serve: attach the stream ingest.
  size_t eval_rows = 100;       ///< paper: test rows per cell.
  size_t tsne_points = 640;     ///< paper: manifold point budget.
  size_t tsne_iterations = 300;
  std::string work_dir = ".";   ///< serve: where bundles are written.
  /// Self-test only: names one output to corrupt on purpose, so that the
  /// check guarding it must fail (see selftest.py for the kinds).
  std::string corrupt;
};

/// Builds one flat JSON object; numbers keep all their digits.
class Json {
 public:
  Json& Num(const std::string& key, double v);
  Json& Int(const std::string& key, uint64_t v);
  Json& Bool(const std::string& key, bool v);
  Json& Str(const std::string& key, const std::string& v);
  /// Prints `<tag> {...}` on stdout and flushes.
  void Emit(const char* tag) const;

 private:
  void Key(const std::string& key);
  std::string body_;
};

/// FNV-1a over raw bytes, chained through `h`.
uint64_t Fnv(const void* data, size_t n, uint64_t h = 1469598103934665603ULL);
inline uint64_t FnvMatrix(const Matrix& m, uint64_t h) {
  return Fnv(m.data(), m.size() * sizeof(float), h);
}
std::string Hex(uint64_t v);

inline bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Library metrics (0 when CFX_METRICS is off).
uint64_t CounterValue(const char* name);
double HistogramMean(const char* name);
double HistogramQuantile(const char* name, double q);
uint64_t HistogramCount(const char* name);

int RunPaper(const Options& opt);
int RunServe(const Options& opt);

}  // namespace perfbench
}  // namespace cfx

#endif  // CFX_PERFBENCH_BENCH_H_
