// `serve` and `serve_ingest` workloads. Set-up trains one binary generator
// per dataset, saves each as a bundle and restores all three into a
// ModelRegistry behind one CfServer. Two measured phases follow:
//   * open loop: single-row requests on a fixed schedule, each request's
//     model and row drawn from the seed, timed from when it was due;
//   * closed loop: one client submits bursts of 32 rows of one model and
//     waits for all of them before the next burst.
// A saturation probe (single rows with a deep backlog) and direct
// GenerateMany and StreamFramer probes run after them, for the per-layer
// figures.
// With --ingest a seeded CSV stream (its distribution shifts halfway through
// every pass) is offered to a StreamIngest attached to the server for as
// long as the phases run.
//
// Every response is compared bitwise with a direct GenerateMany of the same
// row on the same pipeline, and those references with the black box.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/bench.h"
#include "src/common/string_util.h"
#include "src/constraints/constraint.h"
#include "src/core/artifact.h"
#include "src/core/experiment.h"
#include "src/core/generator.h"
#include "src/datasets/registry.h"
#include "src/serve/registry.h"
#include "src/serve/server.h"
#include "src/stream/framer.h"
#include "src/stream/ingest.h"

namespace cfx {
namespace perfbench {
namespace {

constexpr DatasetId kModels[] = {DatasetId::kAdult, DatasetId::kCensus,
                                 DatasetId::kLaw};
constexpr const char* kModelIds[] = {"adult", "census", "law"};
constexpr size_t kNumModels = 3;
constexpr size_t kPoolRows = 128;     ///< Distinct test rows per model.
constexpr size_t kBurst = 32;         ///< Rows per closed-loop burst.
/// Open-loop requests per second: 1.4-2.1% of the measured saturation rate
/// (190-280k rows/s, `serve.saturation_rows_per_s`).
constexpr double kOpenRate = 4000.0;
constexpr size_t kSaturationRequests = 8192;
constexpr size_t kSaturationInFlight = 512;
constexpr size_t kWarmupPerModel = 64;
/// The open loop is cut into windows of this length; its tail latency is
/// the median over windows, so that one stall of the host moves one
/// window, not the result.
constexpr double kWindowS = 0.5;
constexpr size_t kStreamRows = 16384;  ///< Rows per stream pass.
constexpr size_t kChunkBytes = 16384;
constexpr uint64_t kTrainSeed = 42;

using serve::CfRequest;
using serve::CfResponse;
using serve::CfServer;

/// What a response must equal: a direct single-row GenerateMany.
struct Reference {
  Matrix cf, cf_raw;
  int desired = 0, predicted = 0;
};

struct Model {
  std::string id;
  std::shared_ptr<serve::PipelineHandle> handle;
  Matrix rows;                  ///< kPoolRows encoded test rows.
  std::vector<Reference> refs;  ///< One per pool row.
};

bool Matches(const CfResponse& r, const Reference& ref) {
  return r.status.ok() && r.desired == ref.desired &&
         r.predicted == ref.predicted && BitwiseEqual(r.cf, ref.cf) &&
         BitwiseEqual(r.cf_raw, ref.cf_raw);
}

/// Response checking and digesting shared by both phases.
struct Verdict {
  size_t resolved = 0;   ///< Futures the benchmark collected.
  size_t failed = 0;     ///< Responses with a non-OK status.
  size_t mismatched = 0; ///< OK responses that differ from the reference.
  uint64_t digest = Fnv(nullptr, 0);

  void Record(const CfResponse& r, const Reference& ref, bool digest_it) {
    ++resolved;
    if (!r.status.ok()) {
      ++failed;
    } else if (!Matches(r, ref)) {
      ++mismatched;
    }
    if (digest_it) {
      digest = FnvMatrix(r.cf, digest);
      digest = FnvMatrix(r.cf_raw, digest);
      digest = Fnv(&r.predicted, sizeof(int), digest);
    }
  }
};

CfRequest MakeRequest(const Model& m, size_t row) {
  CfRequest request;
  request.instance = m.rows.SliceRows(row, row + 1);
  request.method = "ours";
  request.model = m.id;
  return request;
}

/// Nearest-rank percentile.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t i = std::min(v.size() - 1, static_cast<size_t>(q * v.size()));
  return v[i];
}

/// Median over windows of `per_window` consecutive samples of their
/// q-percentile.
double WindowedPercentile(const std::vector<double>& v, size_t per_window,
                          double q) {
  std::vector<double> windows;
  for (size_t at = 0; at + per_window <= v.size(); at += per_window) {
    windows.push_back(Percentile(
        std::vector<double>(v.begin() + at, v.begin() + at + per_window), q));
  }
  return Percentile(windows, 0.5);
}

/// The CSV stream: `rows` rows of `id`'s schema drawn from the dataset
/// generator; the second half has every continuous feature pushed 30% of
/// its range towards the upper bound.
struct StreamPayload {
  std::string header;
  std::string body;
  std::vector<std::vector<double>> values;  ///< Raw rows, in body order.
  Table baseline;                           ///< Unshifted reference rows.
};

StreamPayload MakeStream(DatasetId id, uint64_t seed, size_t rows) {
  std::unique_ptr<DatasetGenerator> gen = CreateGenerator(id);
  const Schema schema = gen->MakeSchema();
  Rng rng(seed ^ 0x57EA);
  Table table = gen->Generate(rows, rows, &rng);
  StreamPayload out{"", "", {}, gen->Generate(2048, 2048, &rng)};
  std::vector<std::string> names;
  for (const FeatureSpec& f : schema.features()) names.push_back(f.name);
  names.push_back(schema.target_name());
  out.header = Join(names, ",") + "\n";
  for (size_t r = 0; r < rows; ++r) {
    std::vector<double> values(schema.num_features());
    std::vector<std::string> cells;
    for (size_t c = 0; c < schema.num_features(); ++c) {
      Column& col = table.column(c);
      if (col.type() == FeatureType::kContinuous) {
        if (r >= rows / 2) {
          const FeatureSpec& f = col.spec();
          col.set_value(r, std::min(f.upper, col.value(r) +
                                                 0.3 * (f.upper - f.lower)));
        }
        cells.push_back(StrFormat("%.17g", col.value(r)));
      } else {
        cells.push_back(col.CellToString(r));
      }
      values[c] = col.value(r);
    }
    cells.push_back(StrFormat("%d", table.label(r)));
    out.body += Join(cells, ",") + "\n";
    out.values.push_back(std::move(values));
  }
  return out;
}

/// Naive recomputation of what StreamIngest::Stats must report after
/// `passes` passes over the payload (window over the last rows, moments
/// over everything). Returns the first mismatch, "" when all agree.
std::string CheckStreamStats(const stream::StreamIngest& ingest,
                             const StreamPayload& payload, size_t window,
                             uint64_t passes) {
  const Schema& schema = ingest.schema();
  const size_t n = payload.values.size();
  for (size_t fi = 0; fi < schema.num_features(); ++fi) {
    if (schema.feature(fi).type != FeatureType::kContinuous) continue;
    const stream::FeatureWindowStats got = ingest.Stats(fi);
    double lo = INFINITY, hi = -INFINITY, sum = 0.0;
    for (size_t r = 0; r < n; ++r) {
      const double v = payload.values[r][fi];
      sum += v;
      if (r + std::min(window, n) >= n) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
    }
    const double mean = sum / n;
    double sq = 0.0;
    for (size_t r = 0; r < n; ++r) {
      const double d = payload.values[r][fi] - mean;
      sq += d * d;
    }
    const double var = sq / n;
    const auto close = [](double a, double b) {
      return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
    };
    if (got.count != passes * n || got.window_min != lo ||
        got.window_max != hi || !close(got.mean, mean) ||
        !close(got.variance, var)) {
      return "stream stats of feature " + schema.feature(fi).name;
    }
  }
  return "";
}

/// Offers the payload pass after pass until `stop`, retrying while the
/// chunk queue is full. Counts rows only at pass boundaries.
struct Producer {
  const StreamPayload* payload = nullptr;
  stream::StreamIngest* ingest = nullptr;
  bool drop_row = false;  ///< Self-test: lose one row of the first pass.
  std::atomic<bool> stop{false};
  uint64_t passes = 0, rows_offered = 0, offers = 0, backlog_max = 0;
  double offer_s = 0.0;
  Clock::time_point started;

  bool Offer(std::string chunk) {
    const Clock::time_point t = Clock::now();
    Status s = ingest->Offer(chunk);
    while (s.code() == StatusCode::kResourceExhausted) {
      std::this_thread::yield();
      s = ingest->Offer(chunk);
    }
    offer_s += SecondsSince(t);
    ++offers;
    return s.ok();
  }

  void Run() {
    started = Clock::now();
    if (!Offer(payload->header)) return;
    while (!stop.load(std::memory_order_relaxed)) {
      std::string_view body = payload->body;
      if (drop_row && passes == 0) body.remove_prefix(body.find('\n') + 1);
      for (size_t at = 0; at < body.size(); at += kChunkBytes) {
        if (!Offer(std::string(body.substr(at, kChunkBytes)))) return;
      }
      ++passes;
      rows_offered += payload->values.size();
      const uint64_t ingested = ingest->rows_ingested();
      if (rows_offered > ingested) {
        backlog_max = std::max(backlog_max, rows_offered - ingested);
      }
    }
  }
};

}  // namespace

int RunServe(const Options& opt) {
  // ---- Set-up: train, save, restore, warm up. ----
  const Clock::time_point t_train = Clock::now();
  // The pipelines are fixed artifacts trained at one seed (their training
  // cost jumps with the restarts a data seed triggers); --seed draws the
  // traffic and the stream.
  RunConfig config;
  config.scale = Scale::kSmall;
  config.seed = kTrainSeed;
  std::vector<std::string> bundles;
  for (size_t m = 0; m < kNumModels; ++m) {
    auto exp = Experiment::Create(kModels[m], config);
    if (!exp.ok()) {
      std::fprintf(stderr, "serve: %s\n", exp.status().ToString().c_str());
      return 1;
    }
    FeasibleCfGenerator generator(
        (*exp)->method_context(),
        GeneratorConfig::FromDataset((*exp)->info(), ConstraintMode::kBinary));
    Status s = generator.Fit((*exp)->x_train(), (*exp)->y_train());
    bundles.push_back(opt.work_dir + "/" + kModelIds[m] + ".cfxb");
    if (s.ok()) s = SavePipelineBundle(bundles.back(), exp->get(), &generator);
    if (!s.ok()) {
      std::fprintf(stderr, "serve: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  const double train_s = SecondsSince(t_train);

  const Clock::time_point t_restore = Clock::now();
  serve::ModelRegistry registry(serve::ModelRegistryConfig{kNumModels});
  std::vector<Model> models(kNumModels);
  for (size_t m = 0; m < kNumModels; ++m) {
    models[m].id = kModelIds[m];
    Status s = registry.Register(models[m].id, bundles[m]);
    auto handle = registry.Acquire(models[m].id);
    if (s.ok()) s = handle.status();
    if (!s.ok()) {
      std::fprintf(stderr, "serve: %s\n", s.ToString().c_str());
      return 1;
    }
    models[m].handle = *handle;
    models[m].rows = (*handle)->experiment()->TestSubset(kPoolRows);
  }
  const double restore_ms = 1e3 * SecondsSince(t_restore);

  // The stream carries the law schema. Every served row of every model
  // reaches the one drift reservoir (see README: a fault of the attached
  // ingest), and law has the narrowest encoding.
  std::unique_ptr<StreamPayload> payload;
  std::unique_ptr<stream::StreamIngest> ingest;
  Experiment* stream_exp = models[2].handle->experiment();
  const ConstraintSet constraints = MakeBinaryConstraintSet(stream_exp->info());
  stream::StreamIngestConfig ingest_config;
  if (opt.ingest) {
    payload = std::make_unique<StreamPayload>(
        MakeStream(DatasetId::kLaw, opt.seed, kStreamRows));
    ingest = std::make_unique<stream::StreamIngest>(stream_exp->schema(),
                                                    ingest_config);
    BlackBoxClassifier* clf = stream_exp->classifier();
    Status s = ingest->BindPipeline(
        &stream_exp->encoder(),
        [clf](const Matrix& x) { return clf->Predict(x); }, &constraints);
    if (s.ok()) s = ingest->FitBaseline(payload->baseline);
    if (!s.ok()) {
      std::fprintf(stderr, "serve: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  // The library's defaults but for the queue bound, which must hold the
  // saturation probe's requests in flight: one worker, batches of up to
  // 32, a 500 us batching window.
  serve::CfServerConfig server_config;
  server_config.max_queue = 2 * kSaturationInFlight;
  CfServer server(server_config, &registry);
  if (ingest) server.AttachStreamIngest(ingest.get());
  server.Start();

  Verdict warm, open, burst;
  for (size_t m = 0; m < kNumModels; ++m) {
    std::vector<std::future<CfResponse>> futures;
    for (size_t i = 0; i < kWarmupPerModel; ++i) {
      futures.push_back(server.Submit(MakeRequest(models[m], i % kPoolRows)));
    }
    for (auto& f : futures) {
      const CfResponse r = f.get();
      ++warm.resolved;
      if (!r.status.ok()) ++warm.failed;
    }
  }
  const double setup_s = SecondsSince(kProcessStart);

  // References, outside both set-up and the measured phases.
  for (Model& m : models) {
    nn::InferWorkspace ws;
    for (size_t r = 0; r < m.rows.rows(); ++r) {
      CfResult one = m.handle->generator()->GenerateMany(
          m.rows.SliceRows(r, r + 1), &ws);
      m.refs.push_back({std::move(one.cfs), std::move(one.cfs_raw),
                        one.desired[0], one.predicted[0]});
    }
  }
  if (opt.corrupt == "response") models[0].refs[0].cf.data()[0] += 0.5f;

  const uint64_t spins0 = CounterValue("serve/submit_spins");
  const uint64_t parks0 = CounterValue("serve/park_count");
  const uint64_t rescores0 = CounterValue("drift/rescore/runs");
  const uint64_t matmuls0 = CounterValue("kernels.matmul.calls");
  const uint64_t loops0 = CounterValue("threadpool.loops");
  const uint64_t inline0 = CounterValue("threadpool.inline_loops");
  Producer producer;
  std::thread producer_thread;
  if (ingest) {
    producer.payload = payload.get();
    producer.ingest = ingest.get();
    producer.drop_row = opt.corrupt == "stream";
    producer_thread = std::thread([&producer] { producer.Run(); });
  }

  // ---- Phase 1: open loop. ----
  const double phase_s = opt.seconds / 2.0;
  const size_t n_open = static_cast<size_t>(kOpenRate * phase_s);
  Rng draw(opt.seed ^ 0x0BE11);
  std::vector<std::pair<size_t, size_t>> plan(n_open);  // (model, row)
  for (auto& p : plan) {
    p.first = draw.UniformInt(kNumModels);
    p.second = draw.UniformInt(kPoolRows);
  }
  std::vector<std::future<CfResponse>> futures(n_open);
  std::vector<Clock::time_point> due(n_open);
  std::vector<double> latency_us(n_open);
  std::atomic<size_t> published{0};
  const serve::CfServerStats stats0 = server.stats();
  std::thread collector([&] {
    for (size_t i = 0; i < n_open; ++i) {
      // Blocks (futex) instead of spinning: a spinning collector would
      // take a core from the server it measures.
      for (size_t p = published.load(); p <= i; p = published.load()) {
        published.wait(p);
      }
      const CfResponse r = futures[i].get();
      latency_us[i] =
          std::chrono::duration<double, std::micro>(Clock::now() - due[i])
              .count();
      const Model& m = models[plan[i].first];
      open.Record(r, m.refs[plan[i].second], true);
    }
  });
  double submit_s = 0.0, late_s = 0.0;
  const Clock::time_point open_start =
      Clock::now() + std::chrono::milliseconds(1);
  for (size_t i = 0; i < n_open; ++i) {
    due[i] = open_start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(i / kOpenRate));
    std::this_thread::sleep_until(due[i] - std::chrono::microseconds(100));
    while (Clock::now() < due[i]) {
    }
    const Clock::time_point t = Clock::now();
    late_s += std::chrono::duration<double>(t - due[i]).count();
    futures[i] =
        server.Submit(MakeRequest(models[plan[i].first], plan[i].second));
    submit_s += SecondsSince(t);
    published.store(i + 1);
    published.notify_one();
  }
  collector.join();
  const serve::CfServerStats stats1 = server.stats();

  // ---- Phase 2: closed loop, bursts of 32 rows, two bursts in flight. ----
  // The client submits burst k+1 before it waits for burst k, so the
  // worker finds the next batch queued (as perf_serve's batched arm does).
  struct Burst {
    const Model* model = nullptr;
    std::vector<size_t> rows = std::vector<size_t>(kBurst);
    std::vector<std::future<CfResponse>> futures =
        std::vector<std::future<CfResponse>>(kBurst);
  };
  Burst inflight[2];
  size_t submitted = 0, bursts = 0;
  const Clock::time_point burst_start = Clock::now();
  // Seconds between consecutive burst completions: with the next burst
  // always queued, one interval is the service time of one burst.
  std::vector<double> intervals;
  Clock::time_point last_done = burst_start;
  const auto submit_burst = [&](Burst* b) {
    b->model = &models[draw.UniformInt(kNumModels)];
    for (size_t i = 0; i < kBurst; ++i) {
      b->rows[i] = draw.UniformInt(kPoolRows);
      b->futures[i] = server.Submit(MakeRequest(*b->model, b->rows[i]));
    }
    ++submitted;
  };
  const auto wait_burst = [&](Burst* b) {
    for (size_t i = 0; i < kBurst; ++i) {
      burst.Record(b->futures[i].get(), b->model->refs[b->rows[i]],
                   bursts < 64);
    }
    const Clock::time_point now = Clock::now();
    if (bursts > 0) {
      intervals.push_back(
          std::chrono::duration<double>(now - last_done).count());
    }
    last_done = now;
    ++bursts;
  };
  submit_burst(&inflight[0]);
  while (SecondsSince(burst_start) < phase_s) {
    submit_burst(&inflight[submitted % 2]);
    wait_burst(&inflight[bursts % 2]);
  }
  wait_burst(&inflight[bursts % 2]);
  const serve::CfServerStats stats2 = server.stats();

  // ---- Saturation probe: single rows drawn as in the open loop, offered
  // with kSaturationInFlight outstanding, so the worker never runs dry.
  // Its completion rate is the highest open-loop rate the server sustains
  // on this traffic; kOpenRate is stated as a share of it (README). ----
  Verdict saturation;
  std::vector<std::pair<size_t, size_t>> sat_plan(kSaturationRequests);
  for (auto& p : sat_plan) {
    p.first = draw.UniformInt(kNumModels);
    p.second = draw.UniformInt(kPoolRows);
  }
  std::vector<std::future<CfResponse>> sat_futures(kSaturationInFlight);
  const Clock::time_point sat_start = Clock::now();
  for (size_t i = 0; i < kSaturationRequests + kSaturationInFlight; ++i) {
    std::future<CfResponse>& slot = sat_futures[i % kSaturationInFlight];
    if (i >= kSaturationInFlight) {
      const auto& p = sat_plan[i - kSaturationInFlight];
      saturation.Record(slot.get(), models[p.first].refs[p.second], false);
    }
    if (i < kSaturationRequests) {
      slot = server.Submit(
          MakeRequest(models[sat_plan[i].first], sat_plan[i].second));
    }
  }
  const double saturation_rows_per_s =
      kSaturationRequests / SecondsSince(sat_start);

  // ---- Stream: stop offering at a pass boundary, wait for the backlog. ----
  double ingest_s = 0.0;
  if (ingest) {
    producer.stop.store(true);
    producer_thread.join();
    const Clock::time_point give_up = Clock::now() + std::chrono::seconds(30);
    while (ingest->rows_ingested() < producer.rows_offered &&
           Clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    ingest_s = SecondsSince(producer.started);
  }
  const uint64_t spins = CounterValue("serve/submit_spins") - spins0;
  const uint64_t parks = CounterValue("serve/park_count") - parks0;
  const uint64_t rescores = CounterValue("drift/rescore/runs") - rescores0;
  const uint64_t matmuls = CounterValue("kernels.matmul.calls") - matmuls0;
  const uint64_t loops = CounterValue("threadpool.loops") - loops0;
  const uint64_t inlined = CounterValue("threadpool.inline_loops") - inline0;
  const double wait_ms_p50 = HistogramQuantile("serve/wait_ms", 0.5);
  const uint64_t rows_ingested = ingest ? ingest->rows_ingested() : 0;
  std::string error;
  if (ingest) {
    if (!ingest->status().ok()) {
      error = "stream: " + ingest->status().ToString();
    } else if (rows_ingested != producer.rows_offered) {
      error = StrFormat("stream: %llu rows ingested of %llu offered",
                        static_cast<unsigned long long>(rows_ingested),
                        static_cast<unsigned long long>(producer.rows_offered));
    } else {
      if (opt.corrupt == "stream_stats") payload->values.back()[0] += 1.0;
      error = CheckStreamStats(*ingest, *payload, ingest_config.stats.window,
                               producer.passes);
    }
  }
  server.Shutdown();

  // ---- Checks. ----
  const size_t resolved =
      warm.resolved + open.resolved + burst.resolved + saturation.resolved;
  const size_t failed =
      warm.failed + open.failed + burst.failed + saturation.failed;
  size_t resolved_counted = resolved - (opt.corrupt == "count" ? 1 : 0);
  const size_t mismatched =
      open.mismatched + burst.mismatched + saturation.mismatched;
  if (error.empty() && mismatched > 0) {
    error = StrFormat("%zu served responses differ from GenerateMany",
                      mismatched);
  }
  if (error.empty() && server.stats().completed != resolved_counted - failed) {
    error = StrFormat("stats().completed %zu != %zu resolved OK",
                      server.stats().completed, resolved_counted - failed);
  }
  if (opt.corrupt == "label") {
    models[0].refs[0].predicted = 1 - models[0].refs[0].predicted;
  }
  for (const Model& m : models) {
    BlackBoxClassifier* clf = m.handle->experiment()->classifier();
    nn::InferWorkspace ws;
    for (size_t r = 0; error.empty() && r < m.refs.size(); ++r) {
      const int on_input = clf->Predict(m.rows.SliceRows(r, r + 1), &ws)[0];
      const int on_cf = clf->Predict(m.refs[r].cf, &ws)[0];
      if (m.refs[r].desired != 1 - on_input || m.refs[r].predicted != on_cf) {
        error = m.id + ": desired/predicted disagree with the black box";
      }
    }
  }

  // ---- Direct per-layer probes, after every measured phase. ----
  double b1_us = 0.0, b32_us = 0.0, framer_rows_per_s = 0.0;
  {
    nn::InferWorkspace ws;
    constexpr size_t kCalls1 = 3000, kCalls32 = 300;
    Clock::time_point t = Clock::now();
    for (size_t i = 0; i < kCalls1; ++i) {
      const Model& m = models[i % kNumModels];
      const size_t r = (i / kNumModels) % kPoolRows;
      m.handle->generator()->GenerateMany(m.rows.SliceRows(r, r + 1), &ws);
    }
    b1_us = 1e6 * SecondsSince(t) / kCalls1;
    t = Clock::now();
    for (size_t i = 0; i < kCalls32; ++i) {
      const Model& m = models[i % kNumModels];
      const size_t r = (i * kBurst) % (kPoolRows - kBurst);
      m.handle->generator()->GenerateMany(m.rows.SliceRows(r, r + kBurst), &ws);
    }
    b32_us = 1e6 * SecondsSince(t) / kCalls32;
    if (payload) {
      stream::StreamFramer framer(
          stream_exp->schema(), stream::FramerConfig(),
          [](const std::vector<double>&, int) { return Status::OK(); });
      t = Clock::now();
      Status s = framer.Consume(payload->header);
      const std::string& body = payload->body;
      for (size_t at = 0; s.ok() && at < body.size(); at += kChunkBytes) {
        s = framer.Consume(body.data() + at,
                           std::min(kChunkBytes, body.size() - at));
      }
      if (s.ok()) s = framer.Finish();
      framer_rows_per_s = framer.rows_framed() / SecondsSince(t);
      if (!s.ok() && error.empty()) error = "framer: " + s.ToString();
    }
  }

  const auto per_batch = [](const serve::CfServerStats& a,
                            const serve::CfServerStats& b) {
    const size_t batches = b.batches - a.batches;
    return batches == 0 ? 0.0
                        : static_cast<double>(b.batched_rows - a.batched_rows) /
                              static_cast<double>(batches);
  };
  Json()
      .Num("setup_s", setup_s)
      .Num("train_s", train_s)
      .Num("registry_restore_ms", restore_ms)
      .Int("attempted", n_open + bursts * kBurst + kSaturationRequests)
      .Int("failed", open.failed + burst.failed + saturation.failed)
      .Num("open_p50_us", Percentile(latency_us, 0.5))
      .Num("open_p99_us",
           WindowedPercentile(latency_us,
                              static_cast<size_t>(kOpenRate * kWindowS), 0.99))
      .Int("open_requests", n_open)
      .Num("burst_rows_per_s", kBurst / Percentile(intervals, 0.5))
      .Num("saturation_rows_per_s", saturation_rows_per_s)
      .Num("submit_us", 1e6 * submit_s / std::max<size_t>(n_open, 1))
      .Num("generator_late_us", 1e6 * late_s / std::max<size_t>(n_open, 1))
      .Num("rows_per_batch_open", per_batch(stats0, stats1))
      .Num("rows_per_batch_burst", per_batch(stats1, stats2))
      .Num("wait_ms_p50", wait_ms_p50)
      .Int("park_count", parks)
      .Int("submit_spins", spins)
      .Num("generate_many_us_b1", b1_us)
      .Num("generate_many_us_b32", b32_us)
      .Num("ingest_rows_per_s", ingest_s > 0.0 ? rows_ingested / ingest_s : 0.0)
      .Int("rows_ingested", rows_ingested)
      .Num("offer_us",
           1e6 * producer.offer_s / std::max<uint64_t>(producer.offers, 1))
      .Int("backlog_rows_max", producer.backlog_max)
      .Num("framer_rows_per_s", framer_rows_per_s)
      .Int("rescore_runs", rescores)
      .Int("matmul_calls", matmuls)
      .Int("pool_loops", loops)
      .Int("pool_inline_loops", inlined)
      .Str("digest", Hex(open.digest ^ burst.digest))
      .Bool("correct", error.empty())
      .Str("error", error)
      .Emit("DONE");
  return 0;
}

}  // namespace perfbench
}  // namespace cfx
