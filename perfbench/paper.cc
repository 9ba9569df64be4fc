// `paper` workload, one dataset per process: the nine Table IV cells on one
// shared Experiment (as RunTableFourCell does), then a Figure 6 t-SNE of the
// binary generator's latent samples. Every cell's output is checked against
// the black box and the encoder, outside the timed sections; each OP line
// carries its own verdict (`error`, "" when the output passes), so a check
// that failed is reported even if the process dies later.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/baselines/registry.h"
#include "src/core/experiment.h"
#include "src/core/generator.h"
#include "src/manifold/tsne.h"
#include "src/metrics/metrics.h"

namespace cfx {
namespace perfbench {
namespace {

const char* MethodKey(MethodKind kind) {
  switch (kind) {
    case MethodKind::kMahajanUnary: return "mahajan_unary";
    case MethodKind::kMahajanBinary: return "mahajan_binary";
    case MethodKind::kRevise: return "revise";
    case MethodKind::kCchvae: return "cchvae";
    case MethodKind::kCem: return "cem";
    case MethodKind::kDiceRandom: return "dice";
    case MethodKind::kFace: return "face";
    case MethodKind::kOursUnary: return "ours_unary";
    case MethodKind::kOursBinary: return "ours_binary";
  }
  return "unknown";
}

constexpr uint64_t kGridSeed = 42;

/// Library counters summed over the timed sections only.
struct Counters {
  uint64_t matmul_calls = 0, matmul_flops = 0;
  uint64_t pool_loops = 0, pool_inline_loops = 0;
  uint64_t predcache_hits = 0, predcache_misses = 0;
  double pool_util_sum = 0.0;
  uint64_t pool_util_count = 0;

  static Counters Read() {
    Counters c;
    c.matmul_calls = CounterValue("kernels.matmul.calls");
    c.matmul_flops = CounterValue("kernels.matmul.flops");
    c.pool_loops = CounterValue("threadpool.loops");
    c.pool_inline_loops = CounterValue("threadpool.inline_loops");
    c.predcache_hits = CounterValue("predcache.hits");
    c.predcache_misses = CounterValue("predcache.misses");
    c.pool_util_count = HistogramCount("threadpool.loop.utilization");
    c.pool_util_sum =
        HistogramMean("threadpool.loop.utilization") * c.pool_util_count;
    return c;
  }

  /// Adds what happened since `before`.
  void AddSince(const Counters& before) {
    const Counters now = Read();
    matmul_calls += now.matmul_calls - before.matmul_calls;
    matmul_flops += now.matmul_flops - before.matmul_flops;
    pool_loops += now.pool_loops - before.pool_loops;
    pool_inline_loops += now.pool_inline_loops - before.pool_inline_loops;
    predcache_hits += now.predcache_hits - before.predcache_hits;
    predcache_misses += now.predcache_misses - before.predcache_misses;
    pool_util_sum += now.pool_util_sum - before.pool_util_sum;
    pool_util_count += now.pool_util_count - before.pool_util_count;
  }
};

/// Recomputes what a correct CF batch must satisfy; returns the first
/// violation, or "" when the batch passes.
std::string CheckCell(Experiment& exp, const Matrix& x_eval,
                      const CfResult& r, const MethodMetrics& m) {
  const size_t n = x_eval.rows();
  if (r.size() != n || !BitwiseEqual(r.inputs, x_eval) ||
      r.cfs.rows() != n || r.desired.size() != n || r.predicted.size() != n) {
    return "result shape";
  }
  const TabularEncoder& enc = exp.encoder();
  const size_t width = enc.encoded_width();
  const auto blocks = enc.CategoricalBlockRanges();
  for (size_t i = 0; i < n; ++i) {
    const float* cf = r.cfs.data() + i * width;
    const float* in = x_eval.data() + i * width;
    for (size_t c = 0; c < width; ++c) {
      if (!(cf[c] >= 0.0f && cf[c] <= 1.0f)) return "range";
    }
    for (const auto& [offset, w] : blocks) {
      size_t hot = 0;
      for (size_t j = 0; j < w; ++j) {
        if (cf[offset + j] == 1.0f) {
          ++hot;
        } else if (cf[offset + j] != 0.0f) {
          return "one-hot";
        }
      }
      if (hot != 1) return "one-hot";
    }
    for (size_t fi : enc.schema().ImmutableIndices()) {
      const EncodedBlock& b = enc.block(fi);
      if (std::memcmp(cf + b.offset, in + b.offset, b.width * sizeof(float))) {
        return "immutable";
      }
    }
  }
  const std::vector<int> pred_in = exp.classifier()->Predict(x_eval);
  const std::vector<int> pred_cf = exp.classifier()->Predict(r.cfs);
  size_t valid = 0;
  for (size_t i = 0; i < n; ++i) {
    if (r.desired[i] != 1 - pred_in[i]) return "desired class";
    if (r.predicted[i] != pred_cf[i]) return "predicted class";
    if (pred_cf[i] == r.desired[i]) ++valid;
  }
  if (100.0 * static_cast<double>(valid) / n != m.validity) return "validity";
  return "";
}

/// Self-test corruptions of one cell's output, each aimed at one check.
void CorruptCell(const std::string& kind, const TabularEncoder& enc,
                 CfResult* r, MethodMetrics* m) {
  float* row = r->cfs.data();
  if (kind == "range") {
    row[enc.block(0).offset] = 1.5f;
  } else if (kind == "onehot") {
    const auto [offset, w] = enc.CategoricalBlockRanges().front();
    for (size_t j = 0; j < w; ++j) row[offset + j] = 1.0f - row[offset + j];
  } else if (kind == "immutable") {
    // Swaps the first immutable feature between rows 0 and 1 where they
    // differ, so every other check still passes.
    const EncodedBlock& b = enc.block(enc.schema().ImmutableIndices().front());
    const size_t width = enc.encoded_width();
    for (size_t i = 1; i < r->size(); ++i) {
      float* other = row + i * width;
      if (std::memcmp(row + b.offset, other + b.offset,
                      b.width * sizeof(float)) != 0) {
        std::swap_ranges(row + b.offset, row + b.offset + b.width,
                         other + b.offset);
        break;
      }
    }
  } else if (kind == "desired") {
    r->desired[0] = 1 - r->desired[0];
  } else if (kind == "predicted") {
    r->predicted[0] = 1 - r->predicted[0];
  } else if (kind == "validity") {
    m->validity += 1.0;
  }
}

}  // namespace

int RunPaper(const Options& opt) {
  DatasetId id;
  if (opt.dataset == "adult") {
    id = DatasetId::kAdult;
  } else if (opt.dataset == "census") {
    id = DatasetId::kCensus;
  } else if (opt.dataset == "law") {
    id = DatasetId::kLaw;
  } else {
    std::fprintf(stderr, "paper: unknown --dataset '%s'\n",
                 opt.dataset.c_str());
    return 2;
  }
  // The grid runs at the one seed of the paper reproduction: restarts of
  // the trained methods change with the data seed and would swing the
  // grid's cost by whole retrains. --seed draws the t-SNE latent samples.
  RunConfig config;
  config.scale = Scale::kSmall;
  config.seed = kGridSeed;
  config.eval_instances = opt.eval_rows;

  const Clock::time_point t_create = Clock::now();
  auto created = Experiment::Create(id, config);
  if (!created.ok()) {
    std::fprintf(stderr, "paper: %s\n", created.status().ToString().c_str());
    return 1;
  }
  Experiment& exp = **created;
  const double experiment_s = SecondsSince(t_create);
  const double setup_s = SecondsSince(kProcessStart);

  Counters work, fit;
  double fit_total_s = 0.0;
  uint64_t digest = Fnv(nullptr, 0);
  std::unique_ptr<CfMethod> ours_binary;
  const Matrix x_eval = exp.TestSubset(config.eval_instances);

  for (MethodKind kind : AllMethodKinds()) {
    const std::string op = opt.dataset + "/" + MethodKey(kind);
    std::unique_ptr<CfMethod> method =
        CreateMethod(kind, exp.method_context());
    const Clock::time_point t0 = Clock::now();
    const Counters before = Counters::Read();
    const Status fitted = method->Fit(exp.x_train(), exp.y_train());
    fit.AddSince(before);
    const double fit_s = SecondsSince(t0);
    if (!fitted.ok()) {
      work.AddSince(before);
      std::fprintf(stderr, "%s: fit failed: %s\n", op.c_str(),
                   fitted.ToString().c_str());
      Json().Str("op", op).Bool("ok", false).Num("latency_s", fit_s)
          .Emit("OP");
      continue;
    }
    const Clock::time_point t1 = Clock::now();
    CfResult cfs = method->Generate(x_eval);
    const double generate_s = SecondsSince(t1);
    const Clock::time_point t2 = Clock::now();
    MethodMetrics metrics =
        EvaluateMethod(method->name(), exp.encoder(), exp.info(), cfs);
    const double evaluate_s = SecondsSince(t2);
    const double latency_s = SecondsSince(t0);
    work.AddSince(before);
    fit_total_s += fit_s;

    if (kind == AllMethodKinds().front()) {
      CorruptCell(opt.corrupt, exp.encoder(), &cfs, &metrics);
    }
    const std::string bad = CheckCell(exp, x_eval, cfs, metrics);
    digest = FnvMatrix(cfs.cfs, digest);
    Json()
        .Str("op", op)
        .Bool("ok", true)
        .Str("method", MethodKey(kind))
        .Num("fit_s", fit_s)
        .Num("generate_s", generate_s)
        .Num("evaluate_s", evaluate_s)
        .Num("latency_s", latency_s)
        .Int("rows", cfs.size())
        .Str("error", bad)
        .Emit("OP");
    if (kind == MethodKind::kOursBinary) ours_binary = std::move(method);
  }

  // Figure 6: latent samples z ~ q(z|x) of the binary generator, embedded
  // with t-SNE. The point budget is above the exact engine's threshold, so
  // kAuto runs Barnes–Hut.
  const std::string op = opt.dataset + "/tsne";
  auto* generator = dynamic_cast<FeasibleCfGenerator*>(ours_binary.get());
  if (generator == nullptr) {
    Json().Str("op", op).Bool("ok", false).Num("latency_s", 0.0).Emit("OP");
  } else {
    const Clock::time_point t0 = Clock::now();
    const Counters before = Counters::Read();
    const size_t n = std::min(opt.tsne_points, exp.x_train().rows());
    const Matrix x = exp.x_train().SliceRows(0, n);
    const std::vector<int> pred = exp.classifier()->Predict(x);
    Matrix cond(n, 1);
    for (size_t i = 0; i < n; ++i) cond.at(i, 0) = 1.0f - pred[i];
    auto [z, logvar] = generator->vae()->Encode(x, cond);
    Rng noise(opt.seed ^ 0xF16);
    for (size_t i = 0; i < z.rows(); ++i) {
      for (size_t j = 0; j < z.cols(); ++j) {
        z.at(i, j) += std::exp(0.5f * logvar.at(i, j)) *
                      static_cast<float>(noise.Normal());
      }
    }
    TsneConfig tsne;
    tsne.iterations = opt.tsne_iterations;
    Rng tsne_rng(opt.seed ^ 0x75E);
    Matrix embedding = RunTsne(z, tsne, &tsne_rng);
    const double tsne_s = SecondsSince(t0);
    work.AddSince(before);

    if (opt.corrupt == "tsne") embedding.at(0, 0) = std::nanf("");
    bool finite = embedding.rows() == n && embedding.cols() == 2;
    for (size_t i = 0; finite && i < embedding.size(); ++i) {
      finite = std::isfinite(embedding.data()[i]);
    }
    digest = FnvMatrix(embedding, digest);
    Json()
        .Str("op", op)
        .Bool("ok", true)
        .Num("latency_s", tsne_s)
        .Int("points", n)
        .Str("error", finite ? "" : "embedding not n x 2 finite")
        .Emit("OP");
  }

  Json()
      .Num("setup_s", setup_s)
      .Num("experiment_s", experiment_s)
      .Num("fit_total_s", fit_total_s)
      .Int("matmul_calls", work.matmul_calls)
      .Int("matmul_flops", work.matmul_flops)
      .Int("fit_matmul_flops", fit.matmul_flops)
      .Int("pool_loops", work.pool_loops)
      .Int("pool_inline_loops", work.pool_inline_loops)
      .Num("pool_util_sum", work.pool_util_sum)
      .Int("pool_util_count", work.pool_util_count)
      .Int("predcache_hits", work.predcache_hits)
      .Int("predcache_misses", work.predcache_misses)
      .Str("digest", Hex(digest))
      .Emit("DONE");
  return 0;
}

}  // namespace perfbench
}  // namespace cfx
