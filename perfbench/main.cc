// lsbench_perf: the repository's end-to-end benchmark. Runs one of three
// LSBench workloads against the public Cluster API of an 8-node simulated
// deployment, times every operation with the wall clock, checks the results,
// and prints one JSON result line (see README.md in this directory).
//
//   lsbench_perf --workload <ls-continuous|ls-templates|ls-evolving>
//                --seed <n> --seconds <s> --trace <0|1>
//                [--disable delta_cache|mqo] [--revision <text>]
//                [--trace-file <path>]

#include <cpuid.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "harness.h"
#include "src/cluster/cluster.h"
#include "src/cluster/sources.h"
#include "src/cluster/worker_pool.h"
#include "src/engine/executor.h"
#include "src/sparql/parser.h"
#include "src/store/planner.h"
#include "src/testkit/reference_oracle.h"
#include "src/workloads/lsbench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using wukongs::Cluster;
using wukongs::ClusterConfig;
using wukongs::LsBench;
using wukongs::LsBenchConfig;
using wukongs::Query;
using wukongs::QueryExecution;
using wukongs::StreamTime;
using wukongs::StreamTupleVec;
using wukongs::StringServer;
using wukongs::TripleVec;
using wukongs::VertexId;
using StatusOrExec = wukongs::StatusOr<QueryExecution>;

// --- Workloads ---------------------------------------------------------------

enum class Kind { kContinuous, kTemplates, kEvolving };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  double rate_scale;   // Multiplies LSBench's 1/100-scale stream rates.
  int measured_steps;  // 100 ms intervals timed per round (whole seconds).
  // Rounds take turns over this many disjoint stretches of the generated
  // stream, so one run measures segments x measured_steps of input.
  int segments;
  size_t members;    // ls-templates: registrations per L1-L3 template.
  int oneshot_sets;  // ls-evolving: S1-S5 instantiations issued per step.
};

constexpr std::array<WorkloadSpec, 3> kWorkloads = {{
    {"ls-continuous", Kind::kContinuous, 1.0, 40, 6, 0, 0},
    {"ls-templates", Kind::kTemplates, 0.1, 80, 4, 500, 0},
    {"ls-evolving", Kind::kEvolving, 30.0, 20, 2, 0, 8},
}};

constexpr size_t kUsers = 20000;      // ~635k base triples.
constexpr uint32_t kNodes = 8;        // The paper's deployment.
constexpr uint32_t kPoolWorkers = 3;  // + the calling thread = 4 threads.
constexpr int kWarmSteps = 10;        // One stream-second fills every window.
constexpr StreamTime kStepMs = 100;   // One batch interval per step.
constexpr StreamTime kWindowMs = 1000;
// Query constants (users, tags, posts) come from this fixed seed, not from
// --seed: the seed varies the data, not which entities are asked about. A
// tag's Zipf rank alone moves S4's cost by two orders of magnitude.
constexpr uint64_t kTextSeed = 2017;
// Check rounds run over the first segments only; later segments' row counts
// are fixed by their first timed round and repeated by every other.
constexpr int kCheckedSegments = 2;
// Oracle comparisons per check step, at most (in query order).
constexpr int kOracleChecksPerStep = 12;
// Quantiles of a query's wall-time samples reported as its typical and tail
// latency (README.md gives the evidence for the choice).
constexpr double kTypical = 0.5;
constexpr double kTail = 0.9;

constexpr std::array<const char*, 5> kStreams = {"PO_Stream", "POL_Stream", "PH_Stream",
                                                 "PHL_Stream", "GPS_Stream"};

// One generated 100 ms interval: the tuples of each stream, in kStreams order.
struct Interval {
  StreamTime to = 0;
  std::array<StreamTupleVec, kStreams.size()> tuples;
  size_t size() const {
    size_t n = 0;
    for (const auto& t : tuples) {
      n += t.size();
    }
    return n;
  }
};

// A query the workload issues each step. The selectivity class follows the
// paper's groups by query name: L1-L3 and S2/S3/S5 are group (I).
struct QuerySpec {
  std::string text;
  std::string label;  // "L5", "S4", ...
  std::string key;    // Label plus instantiation, e.g. "S4#2": one sample set.
  bool selective = true;
  int segment = -1;     // Registered only in rounds over this segment; -1 = all.
  VertexId s4_tag = 0;  // S4: the tag whose posts it returns.
};

bool SelectiveLabel(const std::string& label) {
  return label == "L1" || label == "L2" || label == "L3" || label == "S2" ||
         label == "S3" || label == "S5";
}

// --- Arguments ----------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string disable;
  std::string revision = "unknown";
  std::string trace_file;
};

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "lsbench_perf: " << why << "\n"
            << "usage: lsbench_perf --workload <ls-continuous|ls-templates|"
               "ls-evolving> --seed <n> --seconds <s> --trace <0|1> "
               "[--disable delta_cache|mqo] [--revision <text>] "
               "[--trace-file <path>]\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') {
        Usage("bad --seed " + value);
      }
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0) || a.seconds > 3600.0) {
        Usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        Usage("bad --trace " + value);
      }
      a.trace = value == "1";
    } else if (flag == "--disable") {
      if (value != "delta_cache" && value != "mqo") {
        Usage("bad --disable " + value);
      }
      a.disable = value;
    } else if (flag == "--revision") {
      a.revision = value;
    } else if (flag == "--trace-file") {
      a.trace_file = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!have_workload) {
    Usage("--workload is required");
  }
  return a;
}

// The processor's brand string, read with CPUID (no file access).
std::string CpuModel() {
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) {
    return "unknown";
  }
  unsigned int regs[12] = {};
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002 + i, &regs[i * 4], &regs[i * 4 + 1], &regs[i * 4 + 2],
                &regs[i * 4 + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  const std::string s = brand;
  const size_t b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
}

// --- The benchmark ------------------------------------------------------------

class Bench {
 public:
  Bench(const WorkloadSpec& spec, const Args& args) : spec_(spec), args_(args) {}

  void Generate();
  void RunCheckRounds();
  void RunTimedRounds();
  int Report();

 private:
  enum class Mode { kCheck, kPlain, kTraced };

  // Samples of one round kind: plain rounds feed the end-to-end metrics.
  struct Samples {
    std::vector<double> setup_s;       // Per round.
    std::vector<double> round_ingest;  // Tuples per ingest wall-second, per round.
    std::vector<double> round_ops_s;   // Mean wall of a regular step, per round.
    std::vector<double> step_qps;      // Queries per wall-second, per step.
    // Query wall times by query key, one vector per round.
    std::map<std::string, std::vector<std::vector<double>>> wall_ms;
    std::vector<double> sel_cpu_ms, nonsel_cpu_ms;  // Engine-reported.
    std::vector<double> sel_net_ms, nonsel_net_ms;  // Engine-modeled.
    double memory_mb = 0.0;
  };

  // Geometric mean, over the class's query keys, of each key's q-quantile.
  static double ClassQuantile(const Samples& s, bool selective, double q);

  int SegmentBase(int segment) const {
    return segment * (kWarmSteps + spec_.measured_steps);
  }
  bool Continuous() const { return spec_.kind != Kind::kEvolving; }

  void RunRound(Mode mode, int segment);
  void SetUp(Mode mode, int segment);
  bool Ingest(const Interval& iv, double* ingest_wall);
  void ServeSequential(int step, Mode mode, Samples* s);
  void ServePool(int step);
  void Probe(StreamTime end);
  void CollectLayerCounts();
  void RecordQuery(int step, size_t op, const StatusOrExec& exec, double wall_s,
                   Samples* s);
  void CheckCount(int step, size_t op, size_t rows, const QueryExecution& exec);
  void CheckOracle(size_t op, const QueryExecution& exec, StreamTime end_ms);
  void Fail(const std::string& what);

  const WorkloadSpec spec_;
  const Args args_;
  StringServer strings_;
  LsBenchConfig config_;

  // Input, generated before any timing.
  TripleVec base_;
  std::vector<Interval> steps_;  // Every segment: warm-up + measured steps.
  std::vector<QuerySpec> queries_;
  std::vector<std::string> probe_texts_;  // Parsed, planned and executed by probes.
  std::vector<std::string> probe_registrations_;
  size_t tuples_per_round_ = 0;

  // Expected row counts from the generator's own log, per step.
  std::vector<uint64_t> l4_rows_, l5_rows_;
  struct TagCounts {
    uint64_t base = 0;
    std::vector<uint64_t> per_batch;  // Streamed tagged posts, per batch.
  };
  std::map<VertexId, TagCounts> tag_counts_;

  // Row counts per (step, query): the first round over a step records them,
  // and every later round must reproduce them.
  std::vector<std::vector<int64_t>> ref_rows_;

  // Live round state.
  int segment_ = 0;
  int last_step_ = 0;  // The round's last measured step.
  std::vector<bool> registered_;  // Per query: registered or issued this round.
  std::unique_ptr<wukongs::obs::MetricsRegistry> registry_;
  std::unique_ptr<wukongs::testkit::ReferenceOracle> oracle_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<wukongs::WorkerPool> pool_;
  std::vector<Cluster::ContinuousHandle> handles_;  // Per query.
  std::vector<Query> parsed_;                       // Per query (one-shots).
  std::vector<wukongs::StreamId> stream_ids_;

  // Results.
  Samples plain_, traced_;
  SpanLog spans_;
  bool correct_ = true;
  int failures_printed_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  double generate_s_ = 0.0, check_s_ = 0.0, measure_s_ = 0.0;
  int check_rounds_ = 0;
  int plain_rounds_ = 0;
  int traced_rounds_ = 0;
  uint64_t oracle_checks_ = 0;
  uint64_t count_checks_ = 0;
  uint64_t repeat_checks_ = 0;

  // Per-layer samples and counts (traced rounds).
  std::vector<double> load_s_, register_us_, parse_us_, plan_us_, pipeline_ms_;
  std::vector<double> cold_sel_ms_, cold_nonsel_ms_, member_serve_us_;
  std::vector<double> feed_ms_, advance_ms_, maintain_ms_;
  std::vector<double> pool_step_s_, calling_step_s_;
  double reported_sel_ms_ = 0.0, wall_sel_ms_ = 0.0;
  double reported_nonsel_ms_ = 0.0, wall_nonsel_ms_ = 0.0;
  uint64_t ops_ = 0, fork_join_ops_ = 0, rows_out_ = 0;
  double modeled_net_ms_ = 0.0;
  MetricSet layer_counts_;
};

void Bench::Fail(const std::string& what) {
  correct_ = false;
  if (failures_printed_++ < 10) {
    std::cerr << "CHECK FAILED: " << what << "\n";
  }
}

// Drives LSBench's generator against a throwaway one-node cluster and keeps
// every tuple it emits. The measured clusters share the string server, so
// they receive exactly these tuples, already interned.
void Bench::Generate() {
  const double start = NowSec();
  config_.users = kUsers;
  config_.seed = args_.seed;
  config_.rate_scale = spec_.rate_scale;
  ClusterConfig gen_config;
  gen_config.nodes = 1;
  Cluster gen(gen_config, &strings_);
  LsBench lsb(&gen, config_);
  Interval* current = nullptr;
  lsb.SetTee([&](const std::string& name, const StreamTupleVec& tuples) {
    for (size_t s = 0; s < kStreams.size(); ++s) {
      if (name == kStreams[s]) {
        current->tuples[s] = tuples;
      }
    }
  });
  if (!lsb.Setup().ok()) {
    Usage("input generation failed");
  }
  base_ = lsb.initial_graph();
  steps_.resize(static_cast<size_t>(SegmentBase(spec_.segments)));
  for (size_t i = 0; i < steps_.size(); ++i) {
    current = &steps_[i];
    current->to = static_cast<StreamTime>(i + 1) * kStepMs;
    if (!lsb.FeedInterval(current->to - kStepMs, current->to).ok()) {
      Usage("input generation failed");
    }
  }
  for (int i = 0; i < SegmentBase(1); ++i) {
    tuples_per_round_ += steps_[static_cast<size_t>(i)].size();
  }

  // Query texts, from LSBench's own templates with fixed constants.
  auto texts = [&](uint64_t k) {
    LsBenchConfig c = config_;
    c.seed = kTextSeed + k;
    return LsBench(nullptr, c);
  };
  wukongs::Rng rng(kTextSeed);
  std::set<std::string> used;
  auto fresh = [&](int number) {
    for (;;) {
      std::string t = lsb.ContinuousQueryText(number, &rng);
      if (used.insert(t).second) {
        return t;
      }
    }
  };
  auto add = [&](std::string text, int number, char kind, int instance, int segment) {
    QuerySpec q;
    q.text = std::move(text);
    q.label = kind + std::to_string(number);
    q.key = instance < 0 ? q.label : q.label + "#" + std::to_string(instance);
    q.selective = SelectiveLabel(q.label);
    q.segment = segment;
    used.insert(q.text);
    queries_.push_back(std::move(q));
  };
  switch (spec_.kind) {
    case Kind::kContinuous:
      // One registration of each of L1-L6 per round; L1-L3 ask about other
      // users in each segment.
      for (int seg = 0; seg < spec_.segments; ++seg) {
        for (int n = 1; n <= 3; ++n) {
          add(texts(static_cast<uint64_t>(seg)).ContinuousQueryText(n), n, 'L', seg, seg);
        }
      }
      for (int n = 4; n <= 6; ++n) {
        add(texts(0).ContinuousQueryText(n), n, 'L', -1, -1);
      }
      break;
    case Kind::kTemplates:
      // L5 is left out: its cost follows whether a celebrity posted in the
      // window, which swings a run's figures by seed.
      for (int n : {4, 6}) {
        add(texts(0).ContinuousQueryText(n), n, 'L', -1, -1);
      }
      for (size_t m = 0; m < spec_.members; ++m) {
        for (int n = 1; n <= 3; ++n) {
          add(fresh(n), n, 'L', -1, -1);
        }
      }
      break;
    case Kind::kEvolving:
      for (int k = 0; k < spec_.oneshot_sets; ++k) {
        for (int n = 1; n <= 5; ++n) {
          add(texts(static_cast<uint64_t>(k)).OneShotQueryText(n), n, 'S', k, -1);
        }
      }
      break;
  }
  for (int n = 1; n <= 5; ++n) {
    probe_texts_.push_back(texts(0).OneShotQueryText(n));
  }
  for (size_t i = 0; i < queries_.size() && i < 32; ++i) {
    probe_texts_.push_back(queries_[i].text);
  }
  probe_registrations_ = {fresh(1), fresh(1), texts(0).ContinuousQueryText(4)};

  // Expected row counts from the generator's log.
  const auto p_fo = strings_.FindPredicate("fo");
  const auto p_po = strings_.FindPredicate("po");
  const auto p_ph = strings_.FindPredicate("ph");
  const auto p_ht = strings_.FindPredicate("ht");
  std::unordered_map<VertexId, uint64_t> followers;
  for (const auto& t : base_) {
    if (t.predicate == *p_fo) {
      ++followers[t.object];
    }
  }
  for (QuerySpec& q : queries_) {
    if (q.label != "S4") {
      continue;
    }
    auto parsed = wukongs::ParseQuery(q.text, &strings_);
    for (const auto& p : parsed->patterns) {
      if (p.predicate == *p_ht && !p.object.is_var()) {
        q.s4_tag = p.object.constant;
      }
    }
    tag_counts_[q.s4_tag];
  }
  for (const auto& t : base_) {
    auto it = tag_counts_.find(t.object);
    if (t.predicate == *p_ht && it != tag_counts_.end()) {
      ++it->second.base;
    }
  }
  std::vector<uint64_t> ph_per_step, l5_per_step;
  for (const Interval& iv : steps_) {
    uint64_t ph = 0, l5 = 0;
    for (auto& [tag, counts] : tag_counts_) {
      counts.per_batch.push_back(0);
    }
    for (const auto& t : iv.tuples[0]) {  // PO_Stream
      if (t.triple.predicate == *p_po) {
        auto it = followers.find(t.triple.subject);
        l5 += it == followers.end() ? 0 : it->second;
      } else if (t.triple.predicate == *p_ht) {
        auto it = tag_counts_.find(t.triple.object);
        if (it != tag_counts_.end()) {
          ++it->second.per_batch.back();
        }
      }
    }
    for (const auto& t : iv.tuples[2]) {  // PH_Stream
      ph += t.triple.predicate == *p_ph ? 1 : 0;
    }
    ph_per_step.push_back(ph);
    l5_per_step.push_back(l5);
  }
  const size_t window_steps = static_cast<size_t>(kWindowMs / kStepMs);
  for (size_t i = 0; i < steps_.size(); ++i) {
    uint64_t l4 = 0, l5 = 0;
    for (size_t j = i + 1 >= window_steps ? i + 1 - window_steps : 0; j <= i; ++j) {
      l4 += ph_per_step[j];
      l5 += l5_per_step[j];
    }
    l4_rows_.push_back(l4);
    l5_rows_.push_back(l5);
  }
  ref_rows_.assign(steps_.size(), std::vector<int64_t>(queries_.size(), -1));
  generate_s_ = NowSec() - start;
}

void Bench::SetUp(Mode mode, int segment) {
  ClusterConfig config;
  config.nodes = kNodes;
  config.delta_cache_enabled = args_.disable != "delta_cache";
  config.mqo.enabled = args_.disable != "mqo";
  if (mode == Mode::kTraced) {
    registry_ = std::make_unique<wukongs::obs::MetricsRegistry>();
    config.metrics = registry_.get();
  }
  ++attempted_;
  ScopedSpan setup_span(&spans_, "SetUp");
  cluster_ = std::make_unique<Cluster>(config, &strings_);
  if (mode == Mode::kCheck) {
    oracle_ = std::make_unique<wukongs::testkit::ReferenceOracle>(
        &strings_, config.batch_interval_ms, config.batches_per_sn);
    oracle_->LoadBase(base_);
  }
  bool ok = true;
  stream_ids_.clear();
  for (const char* name : kStreams) {
    std::vector<std::string> timing;
    if (std::string(name) == "GPS_Stream") {
      timing.push_back("ga");
    }
    ScopedSpan span(&spans_, "DefineStream");
    auto sid = cluster_->DefineStream(name, timing);
    ok = ok && sid.ok();
    stream_ids_.push_back(sid.ok() ? *sid : 0);
    if (oracle_ != nullptr) {
      oracle_->DefineStream(name);
    }
  }
  if (oracle_ != nullptr) {
    cluster_->SetBatchLogger([this](const wukongs::StreamBatch& b) {
      oracle_->AddBatch(b.stream, b.seq, b.tuples);
    });
  }
  {
    ScopedSpan span(&spans_, "LoadBase");
    const double t0 = NowSec();
    cluster_->LoadBase(base_);
    if (mode == Mode::kTraced) {
      load_s_.push_back(NowSec() - t0);
    }
  }
  handles_.assign(queries_.size(), 0);
  parsed_.assign(queries_.size(), Query{});
  for (size_t k = 0; k < queries_.size(); ++k) {
    if (!registered_[k]) {
      continue;
    }
    if (!Continuous()) {
      auto parsed = wukongs::ParseQuery(queries_[k].text, &strings_);
      ok = ok && parsed.ok();
      if (parsed.ok()) {
        parsed_[k] = *std::move(parsed);
      }
      continue;
    }
    ScopedSpan span(&spans_, "RegisterContinuous");
    const double t0 = NowSec();
    auto h = cluster_->RegisterContinuous(queries_[k].text);
    if (mode == Mode::kTraced) {
      register_us_.push_back((NowSec() - t0) * 1e6);
    }
    ok = ok && h.ok();
    handles_[k] = h.ok() ? *h : 0;
  }
  if (spec_.kind == Kind::kTemplates && mode == Mode::kTraced) {
    pool_ = std::make_unique<wukongs::WorkerPool>(cluster_.get(), kPoolWorkers);
  }
  // Warm-up: one stream-second, so every window is full, then one trigger of
  // each registration (plans it and fills its caches) or one pass of the
  // one-shots.
  const int base = SegmentBase(segment);
  double ignored = 0.0;
  for (int i = base; i < base + kWarmSteps; ++i) {
    ok = Ingest(steps_[static_cast<size_t>(i)], &ignored) && ok;
  }
  const StreamTime end = steps_[static_cast<size_t>(base + kWarmSteps - 1)].to;
  cluster_->RunMaintenance(end - kWindowMs);
  for (size_t k = 0; k < queries_.size(); ++k) {
    if (registered_[k]) {
      auto exec = Continuous() ? cluster_->ExecuteContinuousAt(handles_[k], end)
                               : cluster_->OneShotParsed(parsed_[k]);
      ok = ok && exec.ok();
    }
  }
  if (!ok) {
    ++failed_;
    Fail("set-up: a stream definition, registration or warm-up query failed");
  }
}

bool Bench::Ingest(const Interval& iv, double* ingest_wall) {
  bool ok = true;
  double feed = 0.0;
  ScopedSpan span(&spans_, "Ingest");
  for (size_t k = 0; k < kStreams.size(); ++k) {
    ScopedSpan fs(&spans_, "FeedStream");
    const double t0 = NowSec();
    ok = cluster_->FeedStream(stream_ids_[k], iv.tuples[k]).ok() && ok;
    feed += NowSec() - t0;
  }
  ScopedSpan as(&spans_, "AdvanceStreams");
  const double t0 = NowSec();
  cluster_->AdvanceStreams(iv.to);
  const double advance = NowSec() - t0;
  *ingest_wall += feed + advance;
  if (spans_.enabled()) {
    feed_ms_.push_back(feed * 1e3);
    advance_ms_.push_back(advance * 1e3);
  }
  return ok;
}

// Records one query's outcome: its wall time under its key, the engine's
// self-reported cost by class, and the row-count checks.
void Bench::RecordQuery(int step, size_t op, const StatusOrExec& exec, double wall_s,
                        Samples* s) {
  const QuerySpec& q = queries_[op];
  ++attempted_;
  if (!exec.ok()) {
    ++failed_;
    Fail(q.key + " at step " + std::to_string(step) +
         " failed: " + exec.status().ToString());
    return;
  }
  auto& rounds = s->wall_ms[q.key];
  rounds.resize(std::max<size_t>(s->setup_s.size(), 1));
  rounds.back().push_back(wall_s * 1e3);
  (q.selective ? s->sel_cpu_ms : s->nonsel_cpu_ms).push_back(exec->cpu_ms);
  (q.selective ? s->sel_net_ms : s->nonsel_net_ms).push_back(exec->net_ms);
  const size_t rows = exec->result.rows.size();
  if (spans_.enabled()) {
    ++ops_;
    fork_join_ops_ += exec->fork_join ? 1 : 0;
    rows_out_ += rows;
    modeled_net_ms_ += exec->net_ms;
  }
  CheckCount(step, op, rows, *exec);
  int64_t& ref = ref_rows_[static_cast<size_t>(step)][op];
  if (ref < 0) {
    ref = static_cast<int64_t>(rows);
  } else if (ref != static_cast<int64_t>(rows)) {
    Fail(q.key + " at step " + std::to_string(step) + " returned " +
         std::to_string(rows) + " rows, an earlier round " + std::to_string(ref));
  } else {
    ++repeat_checks_;
  }
}

// Row counts the generator's log fixes: L4 = photos in the window, L5 = the
// posters' follower counts summed over the window's posts, S4 = posts with
// the tag visible at the execution's snapshot.
void Bench::CheckCount(int step, size_t op, size_t rows, const QueryExecution& exec) {
  const QuerySpec& q = queries_[op];
  uint64_t want = 0;
  if (q.label == "L4") {
    want = l4_rows_[static_cast<size_t>(step)];
  } else if (q.label == "L5") {
    want = l5_rows_[static_cast<size_t>(step)];
  } else if (q.label == "S4") {
    // Stored snapshot SN holds every timeless batch b <= SN - 1; this
    // round's cluster was fed from the segment's first batch on.
    const TagCounts& c = tag_counts_.at(q.s4_tag);
    want = c.base;
    for (size_t b = static_cast<size_t>(SegmentBase(segment_));
         b + 1 <= exec.snapshot && b < c.per_batch.size(); ++b) {
      want += c.per_batch[b];
    }
  } else {
    return;
  }
  ++count_checks_;
  if (rows != want) {
    Fail(q.key + " at step " + std::to_string(step) + " returned " +
         std::to_string(rows) + " rows, the generator log gives " +
         std::to_string(want));
  }
}

// Bag equality with the reference oracle, fed the same base graph and the
// batches the cluster logged.
void Bench::CheckOracle(size_t op, const QueryExecution& exec, StreamTime end_ms) {
  const QuerySpec& q = queries_[op];
  const Query& parsed =
      Continuous() ? cluster_->ContinuousQueryOf(handles_[op]) : parsed_[op];
  ++oracle_checks_;
  auto want = oracle_->Evaluate(parsed, exec.snapshot,
                                cluster_->coordinator()->StableVts(), end_ms);
  if (!want.ok()) {
    Fail(q.key + ": the oracle rejected the query: " + want.status().ToString());
    return;
  }
  if (wukongs::testkit::CanonicalBag(exec.result) !=
      wukongs::testkit::CanonicalBag(*want)) {
    Fail(q.key + " at end " + std::to_string(end_ms) + ": " +
         std::to_string(exec.result.rows.size()) + " rows, the oracle " +
         std::to_string(want->rows.size()) + " rows (bags differ)");
  }
}

// Check rounds compare with the oracle at the last step of their segment.
// Its nested-loop join is affordable for every query but S4, whose first
// pattern binds every post of the graph, and L5, which joins every post in
// the window with the poster's followers; both are checked by count instead.
bool OracleChecks(const QuerySpec& q) { return q.label != "S4" && q.label != "L5"; }

// The queries run one after another on the calling thread, each timed alone.
void Bench::ServeSequential(int step, Mode mode, Samples* s) {
  const StreamTime end = steps_[static_cast<size_t>(step)].to;
  double wall_total = 0.0;
  size_t issued = 0;
  int oracle_checks = 0;
  std::set<std::string> payers;
  for (size_t k = 0; k < queries_.size(); ++k) {
    if (!registered_[k]) {
      continue;
    }
    const QuerySpec& q = queries_[k];
    StatusOrExec exec = wukongs::Status::Ok();
    double wall = 0.0;
    {
      ScopedSpan span(&spans_, Continuous() ? "ExecuteContinuousAt" : "OneShot");
      const double t0 = NowSec();
      exec = Continuous() ? cluster_->ExecuteContinuousAt(handles_[k], end)
                          : cluster_->OneShotParsed(parsed_[k]);
      wall = NowSec() - t0;
    }
    // With MQO, the first member of a template group to trigger in a step
    // evaluates the shared probe; the others are served from its memo.
    if (mode == Mode::kTraced && spec_.kind == Kind::kTemplates && q.selective &&
        !payers.insert(q.label).second) {
      member_serve_us_.push_back(wall * 1e6);
    }
    wall_total += wall;
    ++issued;
    RecordQuery(step, k, exec, wall, s);
    if (exec.ok() && mode == Mode::kTraced) {
      (q.selective ? reported_sel_ms_ : reported_nonsel_ms_) += exec->latency_ms();
      (q.selective ? wall_sel_ms_ : wall_nonsel_ms_) += wall * 1e3;
    }
    if (exec.ok() && mode == Mode::kCheck && step == last_step_ && OracleChecks(q) &&
        oracle_checks++ < kOracleChecksPerStep) {
      CheckOracle(k, *exec, Continuous() ? end : 0);
    }
  }
  if (wall_total > 0.0) {
    s->step_qps.push_back(static_cast<double>(issued) / wall_total);
  }
  if (mode == Mode::kTraced) {
    calling_step_s_.push_back(wall_total);
  }
}

// ls-templates, traced rounds: every other step is served by the program's
// WorkerPool (three workers), for cluster.pool_speedup against the
// calling-thread steps. The step's group (II) singletons, then its members,
// are submitted at once and collected in submission order; this thread
// blocks on each result, leaving the fourth CPU to the pool.
void Bench::ServePool(int step) {
  const StreamTime end = steps_[static_cast<size_t>(step)].to;
  Samples discard;  // Pool steps feed only the speed-up.
  ScopedSpan span(&spans_, "ServePool");
  const double start = NowSec();
  for (const bool members : {false, true}) {
    std::vector<size_t> ops;
    for (size_t k = 0; k < queries_.size(); ++k) {
      if (registered_[k] && queries_[k].selective == members) {
        ops.push_back(k);
      }
    }
    std::vector<std::future<StatusOrExec>> futures;
    futures.reserve(ops.size());
    const double t0 = NowSec();
    for (size_t k : ops) {
      futures.push_back(pool_->SubmitContinuous(handles_[k], end));
    }
    for (size_t i = 0; i < ops.size(); ++i) {
      RecordQuery(step, ops[i], futures[i].get(), NowSec() - t0, &discard);
    }
  }
  pool_step_s_.push_back(NowSec() - start);
}

// Traced rounds end with direct calls into the layers below the Cluster
// facade: the parser, and the planner and executor over the stored graph at
// the stable snapshot; then registrations and cold triggers, so every
// workload measures them.
void Bench::Probe(StreamTime end) {
  ScopedSpan probe_span(&spans_, "Probe");
  constexpr int kRepeats = 20;
  for (int r = 0; r < kRepeats; ++r) {
    for (const std::string& text : probe_texts_) {
      ScopedSpan span(&spans_, "ParseQuery");
      const double t0 = NowSec();
      auto q = wukongs::ParseQuery(text, &strings_);
      parse_us_.push_back((NowSec() - t0) * 1e6);
      if (!q.ok()) {
        Fail("ParseQuery failed on a workload text");
      }
    }
  }
  std::vector<wukongs::GStore*> shards;
  for (uint32_t n = 0; n < cluster_->node_count(); ++n) {
    shards.push_back(cluster_->store(n));
  }
  wukongs::StoreSource source(shards, cluster_->fabric(), 0,
                              cluster_->coordinator()->StableSn(),
                              wukongs::ChargePolicy::kNoCharge);
  wukongs::ExecContext ctx;
  ctx.sources.push_back(&source);
  ctx.strings = &strings_;
  for (int r = 0; r < kRepeats; ++r) {
    for (size_t n = 0; n < 5; ++n) {
      auto q = wukongs::ParseQuery(probe_texts_[n], &strings_);
      if (!q.ok()) {
        continue;
      }
      std::vector<int> plan;
      {
        ScopedSpan span(&spans_, "PlanQuery");
        const double t0 = NowSec();
        plan = wukongs::PlanQuery(*q, ctx);
        plan_us_.push_back((NowSec() - t0) * 1e6);
      }
      ScopedSpan span(&spans_, "ExecutePipeline");
      const double t0 = NowSec();
      auto result = wukongs::ExecutePipeline(*q, plan, ctx);
      pipeline_ms_.push_back((NowSec() - t0) * 1e3);
      if (!result.ok()) {
        Fail("ExecutePipeline failed on S" + std::to_string(n + 1));
      }
    }
  }
  // Two fresh L1 instantiations join (or form) the L1 template group, so the
  // second one's trigger is served from the group's memo; L4 adds a group
  // (II) registration where the workload has none.
  std::vector<Cluster::ContinuousHandle> added;
  for (const std::string& text : probe_registrations_) {
    ScopedSpan span(&spans_, "RegisterContinuous");
    const double t0 = NowSec();
    auto h = cluster_->RegisterContinuous(text);
    register_us_.push_back((NowSec() - t0) * 1e6);
    if (!h.ok()) {
      Fail("probe registration failed: " + h.status().ToString());
      return;
    }
    added.push_back(*h);
  }
  for (size_t i = 0; i < 2; ++i) {
    const uint64_t served_before = cluster_->mqo_stats().fanout_served;
    ScopedSpan span(&spans_, "ExecuteContinuousAt");
    const double t0 = NowSec();
    auto exec = cluster_->ExecuteContinuousAt(added[i], end);
    const double wall = NowSec() - t0;
    if (!exec.ok()) {
      Fail("probe trigger failed: " + exec.status().ToString());
    } else if (cluster_->mqo_stats().fanout_served > served_before) {
      member_serve_us_.push_back(wall * 1e6);
    }
  }
  std::vector<std::pair<Cluster::ContinuousHandle, bool>> cold = {{added[0], true},
                                                                  {added[2], false}};
  for (size_t k = 0; k < queries_.size() && cold.size() < 14; ++k) {
    if (registered_[k] && Continuous()) {
      cold.push_back({handles_[k], queries_[k].selective});
    }
  }
  for (int r = 0; r < 3; ++r) {
    for (const auto& [h, selective] : cold) {
      ScopedSpan span(&spans_, "ExecuteContinuousColdAt");
      const double t0 = NowSec();
      auto exec = cluster_->ExecuteContinuousColdAt(h, end);
      (selective ? cold_sel_ms_ : cold_nonsel_ms_).push_back((NowSec() - t0) * 1e3);
      if (!exec.ok()) {
        Fail("cold trigger failed: " + exec.status().ToString());
      }
    }
  }
}

// Layer counts of the last traced round, read after its measured steps and
// before the probe.
void Bench::CollectLayerCounts() {
  constexpr double kMB = 1024.0 * 1024.0;
  const Cluster::MemoryReport mem = cluster_->Memory();
  MetricSet& m = layer_counts_;
  m.Set("rdf.strings_mb", static_cast<double>(mem.string_server_bytes) / kMB, "MB");
  m.Set("store.mb", static_cast<double>(mem.store_bytes) / kMB, "MB");
  m.Set("store.snapshot_meta_mb", static_cast<double>(mem.snapshot_meta_bytes) / kMB,
        "MB");
  m.Set("store.edges_appended", static_cast<double>(mem.stream_appended_edges),
        "count");
  m.Set("stream.index_mb", static_cast<double>(mem.stream_index_bytes) / kMB, "MB");
  m.Set("stream.transient_mb", static_cast<double>(mem.transient_bytes) / kMB, "MB");
  uint64_t batches = 0;
  for (wukongs::StreamId sid : stream_ids_) {
    batches += cluster_->injection_profile(sid).batches;
  }
  m.Set("stream.batches", static_cast<double>(batches), "count");

  // Stream-index lookups, from the MetricsRegistry attached to traced rounds.
  cluster_->UpdateScrapedMetrics();
  uint64_t hits = 0, lookups = 0;
  for (const char* name : kStreams) {
    for (const std::string result : {"hit", "miss"}) {
      const uint64_t v = registry_
                             ->GetCounter(wukongs::obs::MetricsRegistry::Labeled(
                                 "wukongs_stream_index_lookups_total",
                                 {{"stream", name}, {"result", result}}))
                             ->value();
      lookups += v;
      hits += result == "hit" ? v : 0;
    }
  }
  m.Set("stream.index_hit_ratio",
        lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups),
        "ratio");

  uint64_t delta_hits = 0, delta_lookups = 0, flushes = 0;
  for (size_t k = 0; k < queries_.size(); ++k) {
    if (!registered_[k] || !Continuous()) {
      continue;
    }
    const wukongs::DeltaCache::Stats d = cluster_->DeltaStatsOf(handles_[k]);
    delta_hits += d.hits;
    delta_lookups += d.hits + d.misses;
    flushes += d.epoch_flushes;
  }
  m.Set("engine.delta_hit_ratio",
        delta_lookups == 0
            ? 0.0
            : static_cast<double>(delta_hits) / static_cast<double>(delta_lookups),
        "ratio");
  m.Set("engine.delta_epoch_flushes", static_cast<double>(flushes), "count");

  const Cluster::MqoStats mqo = cluster_->mqo_stats();
  m.Set("cluster.mqo_shared_evals", static_cast<double>(mqo.shared_evals), "count");
  m.Set("cluster.mqo_fanout_served", static_cast<double>(mqo.fanout_served), "count");
  m.Set("cluster.mqo_fallbacks", static_cast<double>(mqo.independent_fallbacks),
        "count");

  const wukongs::FabricStats fs = cluster_->fabric()->stats();
  m.Set("rdma.reads", static_cast<double>(fs.one_sided_reads), "count");
  m.Set("rdma.read_bytes", static_cast<double>(fs.one_sided_read_bytes), "bytes");
  m.Set("rdma.messages", static_cast<double>(fs.messages), "count");
  m.Set("rdma.message_bytes", static_cast<double>(fs.message_bytes), "bytes");
}

double Bench::ClassQuantile(const Samples& s, bool selective, double q) {
  double log_sum = 0.0;
  int n = 0;
  for (const auto& [key, rounds] : s.wall_ms) {
    if (SelectiveLabel(key.substr(0, key.find('#'))) != selective) {
      continue;
    }
    std::vector<double> all;
    for (const auto& r : rounds) {
      all.insert(all.end(), r.begin(), r.end());
    }
    if (!all.empty()) {
      log_sum += std::log(Quantile(all, q));
      ++n;
    }
  }
  return n == 0 ? 0.0 : std::exp(log_sum / n);
}

void Bench::RunRound(Mode mode, int segment) {
  Samples check_samples;
  Samples* s = mode == Mode::kTraced ? &traced_
               : mode == Mode::kPlain ? &plain_
                                      : &check_samples;
  const bool traced = mode == Mode::kTraced;
  spans_.set_enabled(traced);
  if (traced) {
    ops_ = fork_join_ops_ = rows_out_ = 0;
    modeled_net_ms_ = 0.0;
  }
  segment_ = segment;
  registered_.assign(queries_.size(), false);
  for (size_t k = 0; k < queries_.size(); ++k) {
    registered_[k] = queries_[k].segment < 0 || queries_[k].segment == segment;
  }

  const double t_setup = NowSec();
  SetUp(mode, segment);
  s->setup_s.push_back(NowSec() - t_setup);

  double ingest_wall = 0.0;
  size_t ingest_tuples = 0;
  double regular_wall = 0.0;
  int regular_steps = 0;
  const int first = SegmentBase(segment) + kWarmSteps;
  const int last = first + spec_.measured_steps;
  last_step_ = last - 1;
  for (int step = first; step < last; ++step) {
    const Interval& iv = steps_[static_cast<size_t>(step)];
    ScopedSpan step_span(&spans_, "Step");
    const double t0 = NowSec();
    ++attempted_;
    if (!Ingest(iv, &ingest_wall)) {
      ++failed_;
      Fail("ingest failed at step " + std::to_string(step));
    }
    ingest_tuples += iv.size();
    // Traced ls-templates rounds serve every other step through the pool;
    // those steps are extra, not regular.
    const bool pooled = traced && spec_.kind == Kind::kTemplates && step % 2 == 0;
    if (pooled) {
      ServePool(step);
    } else {
      ServeSequential(step, mode, s);
    }
    if (iv.to % kWindowMs == 0) {
      ScopedSpan span(&spans_, "RunMaintenance");
      const double m0 = NowSec();
      cluster_->RunMaintenance(iv.to - kWindowMs);
      if (traced) {
        maintain_ms_.push_back((NowSec() - m0) * 1e3);
      }
    }
    if (!pooled) {
      regular_wall += NowSec() - t0;
      ++regular_steps;
    }
  }
  s->round_ingest.push_back(static_cast<double>(ingest_tuples) / ingest_wall);
  s->round_ops_s.push_back(regular_wall / regular_steps);
  const Cluster::MemoryReport mem = cluster_->Memory();
  s->memory_mb = static_cast<double>(mem.store_bytes + mem.snapshot_meta_bytes +
                                     mem.stream_index_bytes + mem.transient_bytes +
                                     mem.string_server_bytes) /
                 (1024.0 * 1024.0);
  if (spec_.kind == Kind::kTemplates) {
    // Exactly one shared probe per group and trigger step, and no fallbacks.
    const Cluster::MqoStats mqo = cluster_->mqo_stats();
    const uint64_t want =
        args_.disable == "mqo" ? 0 : 3 * (1 + static_cast<uint64_t>(spec_.measured_steps));
    if (mqo.shared_evals != want || mqo.independent_fallbacks != 0) {
      Fail("MQO shared evaluations " + std::to_string(mqo.shared_evals) + " (want " +
           std::to_string(want) + "), fallbacks " +
           std::to_string(mqo.independent_fallbacks));
    }
  }
  if (traced) {
    CollectLayerCounts();
    Probe(steps_[static_cast<size_t>(last - 1)].to);
  }
  spans_.set_enabled(false);
  pool_.reset();
  cluster_.reset();
  oracle_.reset();
  registry_.reset();
}

void Bench::RunCheckRounds() {
  const double start = NowSec();
  for (int seg = 0; seg < std::min(spec_.segments, kCheckedSegments); ++seg) {
    RunRound(Mode::kCheck, seg);
    ++check_rounds_;
  }
  check_s_ = NowSec() - start;
}

// Whole cycles of rounds, each segment once per cycle (the traced run pairs a
// plain and a traced round per segment, so the tracing overhead compares like
// with like). The first cycle's duration sets how many cycles fit --seconds,
// rounded to the nearest whole cycle and at least one.
void Bench::RunTimedRounds() {
  const int per_segment = args_.trace ? 2 : 1;
  const int per_cycle = spec_.segments * per_segment;
  const double start = NowSec();
  int cycles = 1;
  for (int round = 0; round < cycles * per_cycle; ++round) {
    const bool traced = args_.trace && round % 2 == 1;
    RunRound(traced ? Mode::kTraced : Mode::kPlain,
             (round / per_segment) % spec_.segments);
    (traced ? traced_rounds_ : plain_rounds_)++;
    if (round + 1 == per_cycle) {
      cycles = std::max(1, static_cast<int>(std::lround(args_.seconds /
                                                         (NowSec() - start))));
    }
  }
  measure_s_ = NowSec() - start;
}

int Bench::Report() {
  const Samples& p = plain_;
  // Statistics chosen for run-to-run steadiness on a shared host (README.md).
  MetricSet e2e;
  e2e.Set("setup_s", Median(p.setup_s), "s");
  e2e.Set("memory_mb", p.memory_mb, "MB");
  e2e.Set("ingest_tuples_per_s", Median(p.round_ingest), "tuples/s");
  e2e.Set("queries_per_s", Median(p.step_qps), "1/s");
  e2e.Set("query_sel_ms", ClassQuantile(p, true, kTypical), "ms");
  e2e.Set("query_sel_tail_ms", ClassQuantile(p, true, kTail), "ms");
  e2e.Set("query_nonsel_ms", ClassQuantile(p, false, kTypical), "ms");
  e2e.Set("query_nonsel_tail_ms", ClassQuantile(p, false, kTail), "ms");

  // Measured wall time next to the engine's own figures: measured CPU scaled
  // by a modeled fork-join speed-up (cpu_ms) and modeled network time (net_ms).
  const Samples& r = args_.trace ? traced_ : plain_;
  std::printf("workload %s seed %llu: %d check + %d plain + %d traced rounds\n",
              spec_.name, static_cast<unsigned long long>(args_.seed), check_rounds_,
              plain_rounds_, traced_rounds_);
  std::printf("%-7s %12s %12s %27s %22s\n", "class", "wall p50 ms", "wall p95 ms",
              "cpu_ms p50 (measured-scaled)", "net_ms p50 (modeled)");
  for (const bool sel : {true, false}) {
    std::printf("%-7s %12.4f %12.4f %27.4f %22.4f\n", sel ? "sel" : "nonsel",
                ClassQuantile(r, sel, 0.5), ClassQuantile(r, sel, 0.95),
                Median(sel ? r.sel_cpu_ms : r.nonsel_cpu_ms),
                Median(sel ? r.sel_net_ms : r.nonsel_net_ms));
  }
  std::printf("checks: %llu oracle bag comparisons, %llu generator-log row counts, "
              "%llu repeated row counts: %s\n",
              static_cast<unsigned long long>(oracle_checks_),
              static_cast<unsigned long long>(count_checks_),
              static_cast<unsigned long long>(repeat_checks_),
              correct_ ? "pass" : "FAIL");

  MetricSet out = e2e;
  if (args_.trace) {
    out = layer_counts_;
    out.Set("sparql.parse_us", Median(parse_us_), "us");
    out.Set("store.load_s", Median(load_s_), "s");
    out.Set("store.plan_us", Median(plan_us_), "us");
    out.Set("stream.feed_ms", Median(feed_ms_), "ms");
    out.Set("stream.advance_ms", Median(advance_ms_), "ms");
    out.Set("stream.maintain_ms", Median(maintain_ms_), "ms");
    out.Set("engine.pipeline_ms", Median(pipeline_ms_), "ms");
    out.Set("engine.cold_trigger_sel_ms", Median(cold_sel_ms_), "ms");
    out.Set("engine.cold_trigger_nonsel_ms", Median(cold_nonsel_ms_), "ms");
    out.Set("engine.rows_out", static_cast<double>(rows_out_), "count");
    out.Set("cluster.register_us", Median(register_us_), "us");
    out.Set("cluster.member_serve_us", Median(member_serve_us_), "us");
    out.Set("cluster.pool_speedup",
            pool_step_s_.empty() || calling_step_s_.empty()
                ? 0.0
                : Median(calling_step_s_) / Median(pool_step_s_),
            "x");
    out.Set("cluster.fork_join_share",
            ops_ == 0 ? 0.0
                      : static_cast<double>(fork_join_ops_) / static_cast<double>(ops_),
            "ratio");
    out.Set("cluster.reported_over_wall_sel",
            wall_sel_ms_ > 0.0 ? reported_sel_ms_ / wall_sel_ms_ : 0.0, "ratio");
    out.Set("cluster.reported_over_wall_nonsel",
            wall_nonsel_ms_ > 0.0 ? reported_nonsel_ms_ / wall_nonsel_ms_ : 0.0,
            "ratio");
    out.Set("rdma.modeled_net_ms", modeled_net_ms_, "ms");
    // Plain and traced rounds alternate over the same segments.
    std::vector<double> overhead;
    for (size_t i = 0; i < traced_.round_ops_s.size() && i < p.round_ops_s.size(); ++i) {
      overhead.push_back((traced_.round_ops_s[i] / p.round_ops_s[i] - 1.0) * 100.0);
    }
    out.Set("obs.overhead_pct", Median(overhead), "%");
    std::printf("spans of the traced rounds (count, total ms, self ms):\n");
    for (const auto& [name, t] : spans_.ByName()) {
      std::printf("  %-24s %8zu %12.3f %12.3f\n", name.c_str(), t.count,
                  t.total_s * 1e3, t.self_s * 1e3);
    }
    if (!args_.trace_file.empty() && !spans_.WriteChromeTrace(args_.trace_file)) {
      std::cerr << "could not write " << args_.trace_file << "\n";
    }
  }

  std::string meta = "{\"meta\": {";
  meta += "\"workload\": " + JsonString(spec_.name);
  meta += ", \"seed\": " + std::to_string(args_.seed);
  meta += ", \"data_seed\": " + std::to_string(config_.seed);
  meta += ", \"query_text_seed\": " + std::to_string(kTextSeed);
  meta += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  meta += ", \"cpu_model\": " + JsonString(CpuModel());
  meta += ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE);
  meta += ", \"revision\": " + JsonString(args_.revision);
  meta += ", \"disabled\": " + JsonString(args_.disable.empty() ? "none" : args_.disable);
  meta += ", \"base_triples\": " + std::to_string(base_.size());
  meta += ", \"stream_tuples_per_round\": " + std::to_string(tuples_per_round_);
  meta += ", \"segments\": " + std::to_string(spec_.segments);
  meta += ", \"generate_s\": " + std::to_string(generate_s_);
  meta += ", \"check_s\": " + std::to_string(check_s_);
  meta += ", \"measure_s\": " + std::to_string(measure_s_);
  meta += ", \"check_rounds\": " + std::to_string(check_rounds_);
  meta += ", \"plain_rounds\": " + std::to_string(plain_rounds_);
  meta += ", \"traced_rounds\": " + std::to_string(traced_rounds_);
  meta += ", \"attempted\": " + std::to_string(attempted_);
  meta += ", \"failed\": " + std::to_string(failed_);
  meta += "}}";
  std::printf("%s\n", meta.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct_ ? "true" : "false", static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_), out.ToJson().c_str());
  std::fflush(stdout);
  return correct_ ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::ParseArgs(argc, argv);
  const perfbench::WorkloadSpec* spec = nullptr;
  for (const auto& w : perfbench::kWorkloads) {
    if (args.workload == w.name) {
      spec = &w;
    }
  }
  if (spec == nullptr) {
    perfbench::Usage("unknown workload " + args.workload);
  }
  perfbench::Bench bench(*spec, args);
  bench.Generate();
  bench.RunCheckRounds();
  bench.RunTimedRounds();
  return bench.Report();
}
