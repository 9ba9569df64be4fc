// cfx_perfbench: the workloads of the end-to-end benchmark. run.py builds
// and drives it; it can also be run by hand:
//
//   cfx_perfbench paper --dataset law --seed 3
//   cfx_perfbench serve --seed 3 --seconds 10 [--ingest]
//
// Options: --eval N and --tsne-points N (paper), --work-dir DIR (serve:
// bundle location), --corrupt KIND (self-test only, see selftest.py).
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/bench.h"
#include "src/common/config.h"
#include "src/common/metrics.h"

namespace cfx {
namespace perfbench {

const Clock::time_point kProcessStart = Clock::now();

void Json::Key(const std::string& key) {
  body_ += body_.empty() ? "\"" : ",\"";
  body_ += key;
  body_ += "\":";
}

Json& Json::Num(const std::string& key, double v) {
  Key(key);
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  body_ += buf;
  return *this;
}

Json& Json::Int(const std::string& key, uint64_t v) {
  Key(key);
  body_ += std::to_string(v);
  return *this;
}

Json& Json::Bool(const std::string& key, bool v) {
  Key(key);
  body_ += v ? "true" : "false";
  return *this;
}

Json& Json::Str(const std::string& key, const std::string& v) {
  Key(key);
  body_ += '"';
  for (char c : v) {
    if (c == '"' || c == '\\') body_ += '\\';
    body_ += c;
  }
  body_ += '"';
  return *this;
}

void Json::Emit(const char* tag) const {
  std::printf("%s {%s}\n", tag, body_.c_str());
  std::fflush(stdout);
}

uint64_t Fnv(const void* data, size_t n, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

uint64_t CounterValue(const char* name) {
  metrics::Counter* c = metrics::GetCounter(name);
  return c == nullptr ? 0 : c->value();
}

double HistogramMean(const char* name) {
  metrics::Histogram* h = metrics::GetHistogram(name);
  return h == nullptr || h->count() == 0 ? 0.0 : h->mean();
}

double HistogramQuantile(const char* name, double q) {
  metrics::Histogram* h = metrics::GetHistogram(name);
  return h == nullptr || h->count() == 0 ? 0.0 : h->Quantile(q);
}

uint64_t HistogramCount(const char* name) {
  metrics::Histogram* h = metrics::GetHistogram(name);
  return h == nullptr ? 0 : h->count();
}

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: cfx_perfbench paper|serve [--dataset D] [--seed N] "
               "[--seconds S] [--ingest] [--eval N] "
               "[--tsne-points N] [--work-dir DIR] "
               "[--corrupt KIND]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--ingest") {
      opt->ingest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    uint64_t n = 0;
    if (flag == "--dataset") {
      opt->dataset = value;
    } else if (flag == "--work-dir") {
      opt->work_dir = value;
    } else if (flag == "--seconds") {
      opt->seconds = std::strtod(value, nullptr);
      if (!(opt->seconds > 0.0)) return false;
    } else if (flag == "--corrupt") {
      opt->corrupt = value;
    } else if (ParseUint64(value, &n)) {
      if (flag == "--seed") {
        opt->seed = n;
      } else if (flag == "--eval") {
        opt->eval_rows = n;
      } else if (flag == "--tsne-points") {
        opt->tsne_points = n;
      } else {
        return false;
      }
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace perfbench
}  // namespace cfx

int main(int argc, char** argv) {
  using namespace cfx::perfbench;
  if (argc < 2) return Usage();
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) return Usage();
  const std::string mode = argv[1];
  if (mode == "paper") return RunPaper(opt);
  if (mode == "serve") return RunServe(opt);
  return Usage();
}
