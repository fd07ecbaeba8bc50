// g10_e2e — end-to-end and per-layer benchmark of the Grade10 pipeline.
//
//   g10_e2e --workload run-rmat18|analyze-wide|fleet-threads|fleet-procs
//           --seed N --seconds S --trace 0|1 --out DIR
//           --ensemble-bin PATH [--commit ID]
//
// One run builds the workload's inputs from the seed (set-up, repeated and
// timed), computes the reference outputs the checks compare against, then
// repeats rounds of operations until S seconds have passed. An operation
// is what a user of a tool waits for: a g10_run-equivalent run on an
// in-memory graph, a g10_analyze-equivalent analysis from a trace file, or
// a whole ensemble fleet. Each operation runs in a forked child, so a crash
// (the in-process fleet's SIGSEGV) becomes a failed operation instead of a
// dead benchmark; the child ships its timings, spans and check results
// back over a pipe.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the layers call
// by call under spans (alternate rounds stay untraced, to measure the
// tracing overhead) and prints the per-layer metrics, self time per layer
// and that overhead. The last stdout line is the result object; DIR
// receives result.json (with provenance) and, when traced, spans.jsonl.
// See README.md in this directory.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/programs.hpp"
#include "algorithms/reference.hpp"
#include "common/check.hpp"
#include "common/det_hash.hpp"
#include "common/json.hpp"
#include "common/mutex.hpp"
#include "common/strings.hpp"
#include "common/subprocess.hpp"
#include "common/thread_pool.hpp"
#include "engine/gas/gas_engine.hpp"
#include "engine/pregel/pregel_engine.hpp"
#include "ensemble/aggregate.hpp"
#include "ensemble/driver.hpp"
#include "ensemble/journal.hpp"
#include "ensemble/run_grade10.hpp"
#include "grade10/det_fold.hpp"
#include "grade10/lint/model_lint.hpp"
#include "grade10/lint/trace_lint.hpp"
#include "grade10/model/model_io.hpp"
#include "grade10/models/gas_model.hpp"
#include "grade10/models/pregel_model.hpp"
#include "grade10/pipeline.hpp"
#include "grade10/report/diagnostics.hpp"
#include "grade10/report/phase_profile.hpp"
#include "grade10/report/report.hpp"
#include "graph/generators.hpp"
#include "monitor/sampler.hpp"
#include "spans.hpp"
#include "trace/g10t_io.hpp"
#include "trace/log_io.hpp"
#include "trace/trace_reader.hpp"

#ifndef G10_E2E_BUILD_TYPE
#define G10_E2E_BUILD_TYPE "unknown"
#endif
#ifndef G10_E2E_CXX_ID
#define G10_E2E_CXX_ID "unknown"
#endif

namespace g10::e2e {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Options, metric catalog, small helpers.

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
  std::string ensemble_bin;
  std::string commit = "unknown";
};

struct MetricDef {
  const char* name;
  const char* unit;
};

// Printed by --trace 0, in this order.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"run_s", "s"},
    {"analyze_text_s", "s"},   {"analyze_bin_s", "s"},
    {"fleet_runs_per_s", "1/s"}, {"peak_rss_mb", "MB"},
};

// Printed by --trace 1, in this order. Metrics a workload never reaches
// print 0.
constexpr MetricDef kPerLayer[] = {
    {"graph.generate_s", "s"},
    {"graph.edges_per_s", "1/s"},
    {"engine.run_s", "s"},
    {"engine.phase_events", "count"},
    {"engine.remote_bytes", "bytes"},
    {"engine.channel_plans", "count"},
    {"engine.batch_flushes", "count"},
    {"monitor.sample_s", "s"},
    {"trace.write_text_s", "s"},
    {"trace.write_bin_s", "s"},
    {"trace.bytes_text", "bytes"},
    {"trace.bytes_bin", "bytes"},
    {"trace.parse_text_s", "s"},
    {"trace.read_bin_s", "s"},
    {"trace.records_per_s", "1/s"},
    {"trace.blocks_decoded", "count"},
    {"trace.cache_hit_ratio", "ratio"},
    {"grade10.model_parse_s", "s"},
    {"grade10.preflight_s", "s"},
    {"grade10.trace_build_s", "s"},
    {"grade10.resource_build_s", "s"},
    {"grade10.demand_s", "s"},
    {"grade10.attribute_s", "s"},
    {"grade10.bottleneck_s", "s"},
    {"grade10.issues_s", "s"},
    {"grade10.report_s", "s"},
    {"grade10.characterize_1t_s", "s"},
    {"grade10.characterize_nt_s", "s"},
    {"grade10.pool_speedup", "ratio"},
    {"ensemble.scenario_s", "s"},
    {"ensemble.busy_frac", "ratio"},
    {"ensemble.attempts_per_ok", "ratio"},
    {"ensemble.worker_spawns", "count"},
    {"ensemble.worker_crashes", "count"},
    {"self.graph_s", "s"},
    {"self.engine_s", "s"},
    {"self.monitor_s", "s"},
    {"self.trace_s", "s"},
    {"self.grade10_s", "s"},
    {"self.ensemble_s", "s"},
    {"self.common_s", "s"},
    {"self.bench_s", "s"},
    {"share.graph", "ratio"},
    {"share.engine", "ratio"},
    {"share.monitor", "ratio"},
    {"share.trace", "ratio"},
    {"share.grade10", "ratio"},
    {"share.ensemble", "ratio"},
    {"share.common", "ratio"},
    {"share.bench", "ratio"},
    {"tracing.overhead_frac", "ratio"},
    {"failed_frac", "ratio"},
};

constexpr const char* kLayers[] = {"graph",   "engine",   "monitor",
                                   "trace",   "grade10",  "ensemble",
                                   "common",  "bench"};

using Samples = std::map<std::string, std::vector<double>>;

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  G10_CHECK_MSG(static_cast<bool>(in), "cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

void spit(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  G10_CHECK_MSG(static_cast<bool>(out), "cannot write " + path);
}

double file_bytes(const std::string& path) {
  return static_cast<double>(fs::file_size(path));
}

std::string hex(std::uint64_t value) {
  std::ostringstream out;
  out << std::hex << value;
  return out.str();
}

/// The fold digest as one comparable string.
std::string digest_string(const DetSummary& summary) {
  return hex(summary.overall) + "/" + std::to_string(summary.total_folds) +
         "/" + std::to_string(summary.phases.size());
}

/// A failed output check: thrown inside an operation, it marks the
/// operation failed without killing the run.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void expect(bool condition, const std::string& what) {
  if (!condition) throw CheckFailure(what);
}

// ---------------------------------------------------------------------------
// Workload parameters.

/// One g10_run-equivalent invocation.
struct RunSpec {
  std::string engine = "pregel";
  int workers = 8;
  int cores = 8;
  int iterations = 20;
  DurationNs monitor_interval = 400 * kMillisecond;  // g10_run's default
  std::uint64_t seed = 1;
};

/// One ensemble fleet.
struct FleetSpec {
  ensemble::ScenarioMatrix matrix;
  bool supervised = false;  ///< g10_ensemble --jobs instead of in-process
};

/// Everything one operation ships back from its forked child.
struct OpMessage {
  Samples samples;
  std::vector<Span> spans;
  std::vector<std::string> failures;
  std::map<std::string, std::string> outputs;
};

// Objects lose their keys through JsonValue, so maps travel as arrays of
// {name, values} / {key, value} pairs.
std::string encode(const OpMessage& message) {
  std::ostringstream out;
  JsonWriter w(out);
  w.begin_object().key("samples").begin_array();
  for (const auto& [name, values] : message.samples) {
    w.begin_object().key("name").value(name).key("values").begin_array();
    for (const double v : values) w.value(v);
    w.end_array().end_object();
  }
  w.end_array().key("spans").begin_array();
  for (const Span& span : message.spans) {
    w.begin_object()
        .key("name").value(span.name)
        .key("start_s").value(span.start_s)
        .key("end_s").value(span.end_s)
        .key("parent").value(span.parent)
        .key("op").value(span.op)
        .end_object();
  }
  w.end_array().key("failures").begin_array();
  for (const std::string& failure : message.failures) w.value(failure);
  w.end_array().key("outputs").begin_array();
  for (const auto& [key, value] : message.outputs) {
    w.begin_object().key("key").value(key).key("value").value(value)
        .end_object();
  }
  w.end_array().end_object();
  return std::move(out).str();
}

std::optional<OpMessage> decode(const std::string& text) {
  const auto root = JsonValue::parse(text);
  if (!root || !root->is_object()) return std::nullopt;
  const JsonValue* samples = root->find("samples");
  const JsonValue* spans = root->find("spans");
  const JsonValue* failures = root->find("failures");
  const JsonValue* outputs = root->find("outputs");
  if (samples == nullptr || spans == nullptr || failures == nullptr ||
      outputs == nullptr) {
    return std::nullopt;
  }
  OpMessage message;
  for (const JsonValue& item : samples->items()) {
    std::vector<double>& values = message.samples[item.get_string("name")];
    for (const JsonValue& v : item.find("values")->items()) {
      values.push_back(v.as_double());
    }
  }
  for (const JsonValue& item : spans->items()) {
    Span span;
    span.name = item.get_string("name");
    span.start_s = item.get_double("start_s");
    span.end_s = item.get_double("end_s");
    span.parent = static_cast<int>(item.get_int("parent", -1));
    span.op = static_cast<int>(item.get_int("op"));
    message.spans.push_back(std::move(span));
  }
  for (const JsonValue& item : failures->items()) {
    message.failures.push_back(item.as_string());
  }
  for (const JsonValue& item : outputs->items()) {
    message.outputs[item.get_string("key")] = item.get_string("value");
  }
  return message;
}

ExitStatus decode_wait_status(int status) {
  ExitStatus out;
  if (WIFEXITED(status)) {
    out.exited = true;
    out.code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    out.signaled = true;
    out.signal_number = WTERMSIG(status);
  }
  return out;
}

/// What g10_analyze prints after ingestion, rendered to a string.
std::string render_report(const core::ModelDescription& model,
                          const core::CharacterizationResult& result) {
  std::ostringstream out;
  core::render_profile(out, result.trace, model.resources, result.usage,
                       result.grid);
  out << '\n';
  core::render_bottlenecks(out, model.resources, result.bottlenecks);
  out << '\n';
  core::render_issues(out, result.issues);
  out << '\n';
  const auto profile = core::build_phase_profile(
      result.trace, result.usage, result.bottlenecks, result.grid);
  core::render_phase_profile(out, model.execution, model.resources, profile);
  out << '\n';
  const core::ReplaySimulator simulator(model.execution, result.trace);
  const core::ReplaySchedule schedule =
      simulator.simulate(simulator.recorded_durations());
  core::render_critical_path(out, model.execution, result.trace, simulator,
                             schedule);
  out << '\n';
  core::render_diagnostics(out, model.resources,
                           core::compute_resource_diagnostics(result.usage),
                           core::compute_machine_skew(result.usage));
  return std::move(out).str();
}

/// Wall time of every RunFn call of a fleet, from the pool threads.
class ScenarioClock {
 public:
  void add(double seconds) {
    MutexLock lock(mutex_);
    seconds_.push_back(seconds);
  }
  std::vector<double> take() {
    MutexLock lock(mutex_);
    return std::move(seconds_);
  }

 private:
  Mutex mutex_;
  std::vector<double> seconds_ G10_GUARDED_BY(mutex_);
};

/// Reads `workers=N crashes=M` from g10_ensemble's supervisor summary.
std::pair<double, double> supervisor_counts(const std::string& stdout_text) {
  double workers = -1.0;
  double crashes = -1.0;
  std::istringstream lines(stdout_text);
  std::string line;
  while (std::getline(lines, line)) {
    if (!starts_with(line, "workers=")) continue;
    for (const std::string_view field : split(line, ' ')) {
      const std::size_t eq = field.find('=');
      if (eq == std::string_view::npos) continue;
      const auto value = parse_int(field.substr(eq + 1));
      if (!value) continue;
      const std::string_view name = field.substr(0, eq);
      if (name == "workers") workers = static_cast<double>(*value);
      if (name == "crashes") crashes = static_cast<double>(*value);
    }
  }
  return {workers, crashes};
}

// ---------------------------------------------------------------------------
// The benchmark.

constexpr int kSetupRepetitions = 3;
/// No new round starts after kRunBudgetSeconds of total run time, and a
/// hung operation is killed after kOpTimeoutSeconds, which keeps a run
/// inside the 180 s a benchmark run may take.
constexpr double kOpTimeoutSeconds = 60.0;
constexpr double kRunBudgetSeconds = 100.0;
/// PageRank values must match the serial reference to this relative error.
constexpr double kPageRankTolerance = 1e-9;

struct Analysis {
  std::string report;
  std::string digest;
};

class Bench {
 public:
  explicit Bench(Options options)
      : opts_(std::move(options)),
        spans_(opts_.trace),
        nproc_(std::max(1u, std::thread::hardware_concurrency())),
        started_(Clock::now()) {}

  int run();

 private:
  using Body = std::function<void(OpMessage&)>;

  void record(const std::string& name, double value) {
    samples_[name].push_back(value);
  }
  int new_op(const std::string& kind, bool traced);
  void fail(const std::string& what, bool check) {
    failures_.push_back(what);
    if (check) ++check_failures_;
  }
  void parent_op(const std::string& kind, const std::function<void()>& body);
  std::optional<OpMessage> contained(const std::string& kind, bool traced,
                                     bool counted, const Body& body);

  // Operations.
  std::vector<double> run_op(const RunSpec& spec);
  Analysis analyze_op(bool text, bool stagewise, int threads);
  core::CharacterizationResult characterize_stagewise(
      const core::CharacterizationInput& input);
  void pool_probe_op();
  std::string fleet_op(const FleetSpec& spec, std::size_t threads,
                       const std::string& dir);

  // Workload pieces.
  void setup(int scale, std::uint64_t rmat_seed, bool write_trace);
  void reference_analysis();
  void reference_fleet(const FleetSpec& spec);
  void check_pagerank(const std::vector<double>& values) const;
  std::vector<std::pair<std::string, Body>> round_ops(bool traced);

  void emit_result();

  Options opts_;
  SpanRecorder spans_;
  unsigned nproc_;
  Clock::time_point started_;

  Samples samples_;
  std::vector<std::string> failures_;
  std::size_t check_failures_ = 0;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  int rounds_ = 0;
  struct OpInfo {
    std::string kind;
    bool traced = false;
  };
  std::map<int, OpInfo> ops_;  ///< by operation id

  // Workload state.
  std::string trace_dir_;
  graph::Graph graph_;
  RunSpec run_spec_;
  FleetSpec fleet_spec_;
  std::vector<double> pagerank_reference_;
  std::string reference_report_;
  std::string reference_digest_;
  std::string reference_fleet_report_;
};

int Bench::new_op(const std::string& kind, bool traced) {
  const int op = static_cast<int>(ops_.size());
  ops_[op] = {kind, traced};
  spans_.set_op(op);
  return op;
}

void Bench::parent_op(const std::string& kind,
                      const std::function<void()>& body) {
  new_op(kind, spans_.enabled());
  ++attempted_;
  try {
    body();
  } catch (const std::exception& e) {
    ++failed_;
    fail(kind + ": " + e.what(), true);
  }
}

std::optional<OpMessage> Bench::contained(const std::string& kind,
                                          bool traced, bool counted,
                                          const Body& body) {
  const int op = new_op(kind, traced);
  if (counted) ++attempted_;
  Pipe pipe;
  std::cout.flush();
  std::cerr.flush();
  const pid_t pid = ::fork();
  G10_CHECK_MSG(pid >= 0, "fork failed");
  if (pid == 0) {
    ::setpgid(0, 0);
    pipe.close_read();
    samples_.clear();
    spans_.clear();
    spans_.enable(traced);
    spans_.set_op(op);
    OpMessage message;
    const Clock::time_point start = Clock::now();
    try {
      body(message);
      record("wall." + kind + (traced ? ".traced" : ".plain"),
             seconds_between(start, Clock::now()));
    } catch (const std::exception& e) {
      message.failures.push_back(kind + ": " + e.what());
    }
    message.samples = std::move(samples_);
    message.spans = spans_.spans();
    const std::string bytes = encode(message);
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::write(pipe.write_fd(), bytes.data() + sent, bytes.size() - sent);
      if (n <= 0) ::_exit(3);
      sent += static_cast<std::size_t>(n);
    }
    ::_exit(0);
  }
  ::setpgid(pid, pid);
  pipe.close_write();

  std::string bytes;
  bool timed_out = false;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kOpTimeoutSeconds));
  char buffer[1 << 16];
  for (;;) {
    const double left = seconds_between(Clock::now(), deadline);
    if (left <= 0.0) {
      timed_out = true;
      break;
    }
    pollfd pfd{pipe.read_fd(), POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left * 1e3) + 1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;
    const ssize_t n = ::read(pipe.read_fd(), buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    bytes.append(buffer, static_cast<std::size_t>(n));
  }
  // A hung operation dies with everything in its process group; the group
  // still exists here because the child is not reaped yet.
  if (timed_out) ::kill(-pid, SIGKILL);
  int raw_status = 0;
  while (::waitpid(pid, &raw_status, 0) < 0 && errno == EINTR) {
  }
  const ExitStatus status = decode_wait_status(raw_status);

  std::optional<OpMessage> message;
  if (timed_out) {
    fail(kind + " (op " + std::to_string(op) + "): timed out after " +
             std::to_string(static_cast<int>(kOpTimeoutSeconds)) + " s",
         false);
  } else if (!status.success()) {
    fail(kind + " (op " + std::to_string(op) + "): " + status.describe(),
         false);
  } else if (!(message = decode(bytes))) {
    fail(kind + " (op " + std::to_string(op) + "): unreadable result",
         false);
  } else if (!message->failures.empty()) {
    for (const std::string& failure : message->failures) fail(failure, true);
    message.reset();
  }
  if (!message) {
    if (counted) ++failed_;
    return std::nullopt;
  }
  if (counted) {
    for (const auto& [name, values] : message->samples) {
      std::vector<double>& into = samples_[name];
      into.insert(into.end(), values.begin(), values.end());
    }
    spans_.append(message->spans);
  }
  return message;
}

// --- Operations -----------------------------------------------------------

std::vector<double> Bench::run_op(const RunSpec& spec) {
  ScopedSpan op(spans_, "bench.run");
  const algorithms::PageRank pagerank(spec.iterations);
  trace::RunArtifacts artifacts;
  core::FrameworkModel framework;
  {
    ScopedSpan span(spans_, "engine.run");
    if (spec.engine == "pregel") {
      engine::PregelConfig cfg;
      cfg.cluster.machine_count = spec.workers;
      cfg.cluster.machine.cores = spec.cores;
      cfg.seed = spec.seed;
      artifacts = engine::PregelEngine(cfg).run(graph_, pagerank);
      core::PregelModelParams params;
      params.cores = spec.cores;
      params.threads = cfg.effective_threads();
      params.network_capacity = cfg.cluster.machine.nic_bytes_per_sec();
      framework = core::make_pregel_model(params);
    } else {
      engine::GasConfig cfg;
      cfg.cluster.machine_count = spec.workers;
      cfg.cluster.machine.cores = spec.cores;
      cfg.seed = spec.seed;
      artifacts = engine::GasEngine(cfg).run(graph_, pagerank);
      core::GasModelParams params;
      params.cores = spec.cores;
      params.threads = cfg.effective_threads();
      params.network_capacity = cfg.cluster.machine.nic_bytes_per_sec();
      framework = core::make_gas_model(params);
    }
    record("engine.run_s", span.seconds());
  }
  record("engine.phase_events",
         static_cast<double>(artifacts.phase_events.size()));
  record("engine.remote_bytes", artifacts.comm.remote_bytes_total);
  record("engine.channel_plans",
         static_cast<double>(artifacts.comm.channel_plans));
  record("engine.batch_flushes",
         static_cast<double>(artifacts.comm.batch_flushes));

  std::vector<trace::MonitoringSampleRecord> samples;
  {
    ScopedSpan span(spans_, "monitor.sample");
    samples = monitor::sample_ground_truth(
        artifacts.ground_truth, spec.monitor_interval, artifacts.makespan);
    record("monitor.sample_s", span.seconds());
  }
  const std::string log_path = trace_dir_ + "/run.log";
  const std::string bin_path = trace_dir_ + "/run.g10t";
  {
    ScopedSpan span(spans_, "trace.write_text");
    // The same 1 MiB stream buffer g10_run uses.
    std::vector<char> buffer(1 << 20);
    std::ofstream log;
    log.rdbuf()->pubsetbuf(buffer.data(),
                           static_cast<std::streamsize>(buffer.size()));
    log.open(log_path, std::ios::binary);
    trace::write_log(log, artifacts.phase_events, artifacts.blocking_events,
                     samples);
    log.close();
    expect(!log.fail(), "cannot write " + log_path);
    record("trace.write_text_s", span.seconds());
  }
  {
    ScopedSpan span(spans_, "trace.write_bin");
    trace::ParsedLog log;
    log.phase_events = artifacts.phase_events;
    log.blocking_events = artifacts.blocking_events;
    log.samples = samples;
    std::string error;
    expect(trace::write_g10t_file(bin_path, log, {}, &error), error);
    record("trace.write_bin_s", span.seconds());
  }
  {
    ScopedSpan span(spans_, "grade10.model_write");
    std::ofstream model(trace_dir_ + "/model.g10", std::ios::binary);
    core::write_model(model, framework.execution, framework.resources,
                      framework.tuned_rules);
  }
  record("run_s", op.seconds());
  record("trace.bytes_text", file_bytes(log_path));
  record("trace.bytes_bin", file_bytes(bin_path));
  return std::move(artifacts.vertex_values);
}

core::CharacterizationResult Bench::characterize_stagewise(
    const core::CharacterizationInput& input) {
  // The stages of core::characterize_checked, one span each.
  const TimesliceGrid grid(input.config.timeslice);
  core::CharacterizationResult result;
  result.grid = grid;
  {
    ScopedSpan span(spans_, "grade10.trace_build");
    result.trace = core::ExecutionTrace::build(
        *input.model, *input.resources, input.phase_events,
        input.blocking_events, input.trace_options);
    record("grade10.trace_build_s", span.seconds());
  }
  std::optional<ThreadPool> pool;
  {
    ScopedSpan span(spans_, "common.pool_start");
    pool.emplace(ThreadPool::Options{
        static_cast<std::size_t>(std::max(1, input.config.threads)), 4096});
  }
  ThreadPool* executor = pool->thread_count() > 1 ? &*pool : nullptr;
  {
    ScopedSpan span(spans_, "grade10.resource_build");
    result.monitored = core::ResourceTrace::build(*input.resources,
                                                  input.samples, {});
    record("grade10.resource_build_s", span.seconds());
  }
  {
    ScopedSpan span(spans_, "grade10.demand");
    result.demand = core::estimate_demand(*input.resources, *input.rules,
                                          result.trace, grid, executor);
    record("grade10.demand_s", span.seconds());
  }
  {
    ScopedSpan span(spans_, "grade10.attribute");
    result.usage = core::attribute_usage(result.demand, result.monitored,
                                         grid, false, executor);
    record("grade10.attribute_s", span.seconds());
  }
  {
    ScopedSpan span(spans_, "grade10.bottleneck");
    result.bottlenecks = core::detect_bottlenecks(
        result.usage, result.trace, grid, input.config, executor);
    record("grade10.bottleneck_s", span.seconds());
  }
  {
    ScopedSpan span(spans_, "grade10.issues");
    core::IssueDetector detector(*input.model, *input.resources,
                                 result.trace, grid, input.config);
    result.issues = detector.detect(result.usage, result.bottlenecks,
                                    executor);
    result.baseline_makespan = detector.baseline_makespan();
    record("grade10.issues_s", span.seconds());
  }
  {
    ScopedSpan span(spans_, "common.pool_stop");
    pool.reset();
  }
  return result;
}

/// Reads the model and the trace the way g10_analyze does.
struct AnalysisInput {
  std::string model_text;
  core::ModelParseResult model;
  trace::ParseResult log;
  trace::TraceReadStats stats;
};

core::CharacterizationInput characterization_input(const AnalysisInput& in,
                                                   int threads) {
  core::CharacterizationInput input;
  input.model = &in.model.model.execution;
  input.resources = &in.model.model.resources;
  input.rules = &in.model.model.rules;
  input.phase_events = in.log.log.phase_events;
  input.blocking_events = in.log.log.blocking_events;
  input.samples = in.log.log.samples;
  input.config.timeslice = 50 * kMillisecond;  // g10_analyze's defaults
  input.config.min_issue_impact = 0.01;
  input.config.threads = threads;
  return input;
}

core::CharacterizationResult characterize_plain(
    const core::CharacterizationInput& input) {
  core::CheckedCharacterization checked = core::characterize_checked(input);
  expect(checked.status.ok() && checked.result.has_value(),
         "characterization failed: " + join(checked.status.errors, "; "));
  return std::move(*checked.result);
}

Analysis Bench::analyze_op(bool text, bool stagewise, int threads) {
  const std::string model_path = trace_dir_ + "/model.g10";
  const std::string trace_path =
      trace_dir_ + (text ? "/run.log" : "/run.g10t");
  AnalysisInput in;
  std::optional<core::CharacterizationResult> result;
  std::string report;
  {
    ScopedSpan op(spans_, text ? "bench.analyze_text" : "bench.analyze_bin");
    {
      ScopedSpan span(spans_, "grade10.model_parse");
      in.model_text = slurp(model_path);
      std::istringstream stream(in.model_text);
      in.model = core::parse_model(stream);
      expect(in.model.ok(), model_path + ": model does not parse");
      record("grade10.model_parse_s", span.seconds());
    }
    {
      // A fresh reader per operation, as one CLI call opens.
      ScopedSpan span(spans_, text ? "trace.parse_text" : "trace.read_bin");
      trace::TraceReadOptions options;
      options.recover = true;
      options.threads = threads;
      auto opened = trace::TraceReader::open(trace_path, options);
      expect(opened.ok(), trace_path + ": " + opened.error.value_or("?"));
      expect(opened.reader->is_binary() != text,
             trace_path + ": unexpected format");
      in.log = opened.reader->read();
      in.stats = opened.reader->stats();
      record(text ? "trace.parse_text_s" : "trace.read_bin_s", span.seconds());
      expect(in.log.ok(), trace_path + ": " +
                              std::to_string(in.log.error_count) +
                              " malformed record(s)");
    }
    {
      ScopedSpan span(spans_, "grade10.preflight");
      lint::LintReport preflight =
          lint::lint_model_text(in.model_text, model_path);
      preflight.merge(lint::lint_trace(in.model.model, in.log.log, {},
                                       trace_path));
      expect(preflight.ok(), trace_path + ": preflight lint failed");
      record("grade10.preflight_s", span.seconds());
    }
    const core::CharacterizationInput input =
        characterization_input(in, threads);
    if (stagewise) {
      result = characterize_stagewise(input);
    } else {
      ScopedSpan span(spans_, "grade10.characterize");
      result = characterize_plain(input);
    }
    {
      ScopedSpan span(spans_, "grade10.report");
      report = render_report(in.model.model, *result);
      record("grade10.report_s", span.seconds());
    }
    record(text ? "analyze_text_s" : "analyze_bin_s", op.seconds());
  }
  if (!text) {
    const double records =
        static_cast<double>(in.log.log.phase_events.size() +
                            in.log.log.blocking_events.size() +
                            in.log.log.samples.size());
    record("trace.records_per_s",
           records / samples_["trace.read_bin_s"].back());
    record("trace.blocks_decoded",
           static_cast<double>(in.stats.blocks_decoded));
    const double lookups =
        static_cast<double>(in.stats.cache.hits + in.stats.cache.misses);
    record("trace.cache_hit_ratio",
           lookups > 0.0 ? static_cast<double>(in.stats.cache.hits) / lookups
                         : 0.0);
  }
  return {std::move(report),
          digest_string(core::fold_characterization(
              *result, in.model.model.resources))};
}

void Bench::pool_probe_op() {
  // Characterization of the binary trace at 1 thread and at nproc
  // threads; both digests must agree.
  AnalysisInput in;
  in.model_text = slurp(trace_dir_ + "/model.g10");
  std::istringstream stream(in.model_text);
  in.model = core::parse_model(stream);
  expect(in.model.ok(), "model does not parse");
  in.log = trace::read_trace_file(trace_dir_ + "/run.g10t");
  expect(in.log.ok(), "binary trace does not read");
  ScopedSpan op(spans_, "bench.pool_probe");
  std::string digests[2];
  double seconds[2] = {0.0, 0.0};
  const int threads[2] = {1, static_cast<int>(nproc_)};
  for (int i = 0; i < 2; ++i) {
    ScopedSpan span(spans_, i == 0 ? "grade10.characterize_1t"
                                   : "grade10.characterize_nt");
    const core::CharacterizationResult result =
        characterize_plain(characterization_input(in, threads[i]));
    seconds[i] = span.seconds();
    digests[i] = digest_string(
        core::fold_characterization(result, in.model.model.resources));
  }
  expect(digests[0] == digests[1],
         "characterization digest differs between 1 and " +
             std::to_string(nproc_) + " threads");
  record("grade10.characterize_1t_s", seconds[0]);
  record("grade10.characterize_nt_s", seconds[1]);
  record("grade10.pool_speedup", seconds[0] / seconds[1]);
}

std::string Bench::fleet_op(const FleetSpec& spec, std::size_t threads,
                            const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::vector<ensemble::Scenario> scenarios = spec.matrix.expand();
  double wall = 0.0;
  std::vector<double> scenario_seconds;
  if (!spec.supervised) {
    ScenarioClock clock;
    const ensemble::RunFn inner = ensemble::make_grade10_runner();
    const ensemble::RunFn timed = [&clock, &inner](
                                      const ensemble::Scenario& scenario,
                                      const ensemble::CancelToken& token) {
      const Clock::time_point start = Clock::now();
      ensemble::RunAttempt attempt = inner(scenario, token);
      clock.add(seconds_between(start, Clock::now()));
      return attempt;
    };
    ensemble::EnsembleOptions options;
    options.journal_path = dir + "/journal.jsonl";
    options.threads = threads;
    ScopedSpan op(spans_, "ensemble.fleet");
    const ensemble::EnsembleOutcome outcome =
        ensemble::run_ensemble(spec.matrix, timed, options);
    spit(dir + "/report.txt", ensemble::render_text(outcome.report));
    spit(dir + "/report.json", ensemble::render_json(outcome.report));
    wall = op.seconds();
    scenario_seconds = clock.take();
    record("ensemble.worker_spawns", 0.0);
    record("ensemble.worker_crashes", 0.0);
  } else {
    const ensemble::ScenarioMatrix& m = spec.matrix;
    std::vector<std::string> argv = {
        opts_.ensemble_bin, "--out", dir, "--engines", join(m.engines, ","),
        "--algorithm", m.algorithm, "--dataset", m.dataset,
        "--workers", std::to_string(m.workers),
        "--cores", std::to_string(m.cores),
        "--iterations", std::to_string(m.iterations),
        "--seeds", std::to_string(m.seeds.size()),
        "--seed-base", std::to_string(m.seeds.front()),
        "--jobs", std::to_string(threads), "--quiet"};
    const std::string stdout_path = dir + "/stdout.txt";
    const int fd = ::open(stdout_path.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    G10_CHECK_MSG(fd >= 0, "cannot open " + stdout_path);
    SpawnOptions spawn;
    spawn.new_process_group = false;  // stay in this operation's group
    spawn.dup_fds = {{fd, 1}};
    ExitStatus status;
    {
      ScopedSpan op(spans_, "ensemble.supervised_fleet");
      Subprocess child = Subprocess::spawn(argv, spawn);
      ::close(fd);
      status = child.wait();
      wall = op.seconds();
    }
    expect(status.success(), "g10_ensemble " + status.describe());
    const auto [workers, crashes] = supervisor_counts(slurp(stdout_path));
    expect(workers >= 0.0 && crashes >= 0.0,
           "g10_ensemble printed no supervisor summary");
    record("ensemble.worker_spawns", workers);
    record("ensemble.worker_crashes", crashes);
  }

  double ok = 0.0;
  double attempts = 0.0;
  for (const ensemble::JournalEntry& entry :
       ensemble::read_journal(dir + "/journal.jsonl").entries) {
    attempts += entry.attempts;
    if (entry.outcome == ensemble::RunOutcome::kOk) ok += 1.0;
    // Worker processes run the RunFn out of reach; their journaled wall
    // time stands in for it.
    if (spec.supervised) scenario_seconds.push_back(entry.wall_ms / 1e3);
  }
  expect(ok == static_cast<double>(scenarios.size()),
         "fleet finished " + std::to_string(static_cast<int>(ok)) + " of " +
             std::to_string(scenarios.size()) + " scenarios ok");
  double busy = 0.0;
  for (const double s : scenario_seconds) busy += s;
  record("fleet_runs_per_s", ok / wall);
  record("ensemble.scenario_s", median(scenario_seconds));
  record("ensemble.busy_frac", busy / (wall * static_cast<double>(threads)));
  record("ensemble.attempts_per_ok", attempts / ok);
  return slurp(dir + "/report.txt");
}

// --- Workload pieces ------------------------------------------------------

void Bench::check_pagerank(const std::vector<double>& values) const {
  expect(values.size() == pagerank_reference_.size(),
         "PageRank vector has the wrong length");
  for (std::size_t v = 0; v < values.size(); ++v) {
    const double want = pagerank_reference_[v];
    if (std::abs(values[v] - want) > kPageRankTolerance * std::abs(want)) {
      std::ostringstream what;
      what.precision(17);
      what << "PageRank of vertex " << v << " is " << values[v]
           << ", reference " << want;
      throw CheckFailure(what.str());
    }
  }
}

void Bench::setup(int scale, std::uint64_t rmat_seed, bool write_trace) {
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    graph_ = graph::Graph();
    parent_op("setup", [&] {
      std::vector<double> values;
      {
        ScopedSpan op(spans_, "bench.setup");
        graph::RmatParams params;
        params.scale = scale;
        params.seed = rmat_seed;
        {
          ScopedSpan span(spans_, "graph.generate");
          graph_ = graph::generate_rmat(params);
          const double seconds = span.seconds();
          record("graph.generate_s", seconds);
          record("graph.edges_per_s",
                 static_cast<double>(graph_.edge_count()) / seconds);
        }
        if (write_trace) values = run_op(run_spec_);
        record("setup_s", op.seconds());
      }
      if (pagerank_reference_.empty()) {
        pagerank_reference_ =
            algorithms::pagerank_reference(graph_, run_spec_.iterations);
      }
      if (write_trace) check_pagerank(values);
    });
  }
}

void Bench::reference_analysis() {
  // Serial, stage-by-stage analysis of the text trace: the report and the
  // digest every analysis operation must reproduce.
  const auto message =
      contained("reference", false, false, [&](OpMessage& out) {
        run_op(run_spec_);
        const Analysis analysis = analyze_op(true, true, 1);
        out.outputs["report"] = analysis.report;
        out.outputs["digest"] = analysis.digest;
      });
  G10_CHECK_MSG(message.has_value(), "reference analysis failed");
  reference_report_ = message->outputs.at("report");
  reference_digest_ = message->outputs.at("digest");
}

void Bench::reference_fleet(const FleetSpec& spec) {
  // The same matrix in-process on one thread: the report every fleet
  // operation must reproduce byte for byte.
  FleetSpec serial = spec;
  serial.supervised = false;
  const std::string dir = opts_.out_dir + "/fleet-reference";
  const auto message =
      contained("reference", false, false, [&](OpMessage& out) {
        out.outputs["report"] = fleet_op(serial, 1, dir);
      });
  G10_CHECK_MSG(message.has_value(), "reference fleet failed");
  reference_fleet_report_ = message->outputs.at("report");
  fs::remove_all(dir);
}

std::vector<std::pair<std::string, Bench::Body>> Bench::round_ops(
    bool traced) {
  std::vector<std::pair<std::string, Body>> ops;
  ops.emplace_back("run", [this](OpMessage&) {
    check_pagerank(run_op(run_spec_));
  });
  for (const bool text : {true, false}) {
    ops.emplace_back(text ? "analyze_text" : "analyze_bin",
                     [this, text, traced](OpMessage&) {
                       const Analysis analysis = analyze_op(
                           text, traced, static_cast<int>(nproc_));
                       expect(analysis.report == reference_report_,
                              std::string(text ? "text" : ".g10t") +
                                  " analysis report differs from the "
                                  "reference");
                       expect(analysis.digest == reference_digest_,
                              "characterization digest at " +
                                  std::to_string(nproc_) +
                                  " threads differs from the serial "
                                  "stage-by-stage reference");
                     });
  }
  if (traced) {
    ops.emplace_back("pool_probe", [this](OpMessage&) { pool_probe_op(); });
  }
  ops.emplace_back("fleet", [this](OpMessage&) {
    const std::string report =
        fleet_op(fleet_spec_, nproc_, opts_.out_dir + "/fleet");
    expect(report == reference_fleet_report_,
           "fleet report.txt differs from the in-process reference");
  });
  return ops;
}

int Bench::run() {
  fs::create_directories(opts_.out_dir);
  trace_dir_ = opts_.out_dir + "/trace";
  fs::create_directories(trace_dir_);

  const std::string& w = opts_.workload;
  run_spec_.seed = opts_.seed;
  if (w == "run-rmat18") {
    // Pregel PageRank, 8 workers x 8 cores, 20 iterations (RunSpec's
    // defaults); set-up is generating the graph.
    setup(18, opts_.seed, false);
  } else if (w == "analyze-wide") {
    // GAS PageRank on rmat:14 with 32 workers x 16 cores, 60 iterations and
    // 10 ms monitoring: a wide trace, which set-up writes in both formats.
    run_spec_.engine = "gas";
    run_spec_.workers = 32;
    run_spec_.cores = 16;
    run_spec_.iterations = 60;
    run_spec_.monitor_interval = 10 * kMillisecond;
    setup(14, opts_.seed, true);
  } else if (w == "fleet-threads" || w == "fleet-procs") {
    // The fleet's own dataset, generated as the runner's dataset cache
    // generates rmat:16 (generator seed fixed by the spec); the run and
    // analysis operations use it with the fleet's engine settings.
    run_spec_.workers = 4;
    run_spec_.iterations = 10;
    setup(16, graph::RmatParams{}.seed, false);
  } else {
    std::cerr << "unknown workload: " << w << '\n';
    return 2;
  }
  if (check_failures_ > 0) {
    for (const std::string& failure : failures_) std::cerr << failure << '\n';
    std::cerr << "set-up failed its checks\n";
    return 1;
  }

  FleetSpec fleet;
  if (w == "fleet-threads" || w == "fleet-procs") {
    fleet.matrix.engines = {"pregel", "gas"};
    fleet.matrix.dataset = "rmat:16";
    fleet.matrix.seed_range(opts_.seed, 8);
    fleet.supervised = w == "fleet-procs";
  } else {
    // A small Pregel fleet keeps fleet_runs_per_s (ensemble executor,
    // journal, dataset cache, concurrent engine runs) measured on the
    // single-run workloads.
    fleet.matrix.engines = {"pregel"};
    fleet.matrix.dataset = "rmat:14";
    fleet.matrix.seed_range(opts_.seed, 16);
  }
  fleet_spec_ = fleet;

  spans_.enable(false);
  reference_analysis();
  reference_fleet(fleet_spec_);
  spans_.enable(opts_.trace);

  const Clock::time_point loop_start = Clock::now();
  const int min_rounds = opts_.trace ? 4 : 3;
  while (rounds_ < min_rounds ||
         seconds_between(loop_start, Clock::now()) < opts_.seconds) {
    if (seconds_between(started_, Clock::now()) > kRunBudgetSeconds) break;
    const bool traced = opts_.trace && rounds_ % 2 == 0;
    for (const auto& [kind, body] : round_ops(traced)) {
      contained(kind, traced, true, body);
    }
    ++rounds_;
  }
  emit_result();
  fs::remove_all(trace_dir_);
  fs::remove_all(opts_.out_dir + "/fleet");
  return 0;
}

// --- Results --------------------------------------------------------------

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

void Bench::emit_result() {
  std::map<std::string, double> values;
  for (const auto& [name, list] : samples_) values[name] = median(list);
  values["peak_rss_mb"] = peak_rss_mb();
  values["failed_frac"] =
      static_cast<double>(failed_) / static_cast<double>(attempted_);

  // Self time per layer for one cycle: one set-up plus one of each round
  // operation, each the median over the traced operations of its kind.
  std::map<std::string, std::vector<std::map<std::string, double>>> by_kind;
  for (const auto& [op, info] : ops_) {
    if (!info.traced || info.kind == "reference" ||
        info.kind == "pool_probe") {
      continue;
    }
    by_kind[info.kind].push_back(spans_.self_seconds(op));
  }
  double cycle = 0.0;
  for (const char* layer : kLayers) {
    double self = 0.0;
    for (const auto& [kind, ops] : by_kind) {
      std::vector<double> per_op;
      for (const auto& layers : ops) {
        const auto it = layers.find(layer);
        per_op.push_back(it == layers.end() ? 0.0 : it->second);
      }
      self += median(per_op);
    }
    values[std::string("self.") + layer + "_s"] = self;
    cycle += self;
  }
  for (const char* layer : kLayers) {
    values[std::string("share.") + layer] =
        cycle > 0.0 ? values[std::string("self.") + layer + "_s"] / cycle
                    : 0.0;
  }
  // Tracing overhead: traced against untraced operations of the same kinds.
  double traced_sum = 0.0;
  double plain_sum = 0.0;
  for (const char* kind : {"run", "analyze_text", "analyze_bin", "fleet"}) {
    const auto traced = samples_.find(std::string("wall.") + kind + ".traced");
    const auto plain = samples_.find(std::string("wall.") + kind + ".plain");
    if (traced == samples_.end() || plain == samples_.end()) continue;
    traced_sum += median(traced->second);
    plain_sum += median(plain->second);
  }
  values["tracing.overhead_frac"] =
      plain_sum > 0.0 ? traced_sum / plain_sum - 1.0 : 0.0;

  const bool correct = check_failures_ == 0;
  const std::string compiler = G10_E2E_CXX_ID;
  const std::string build_type = G10_E2E_BUILD_TYPE;

  // Full record, with provenance, next to the run's spans.
  {
    std::ofstream out(opts_.out_dir + "/result.json", std::ios::binary);
    JsonWriter w(out);
    w.begin_object().key("provenance").begin_object()
        .key("commit").value(opts_.commit)
        .key("nproc").value(static_cast<std::int64_t>(nproc_))
        .key("compiler").value(compiler)
        .key("build_type").value(build_type)
        .key("workload").value(opts_.workload)
        .key("seed").value(opts_.seed)
        .key("traced").value(opts_.trace)
        .key("seconds").value(opts_.seconds)
        .key("rounds").value(rounds_)
        .end_object();
    w.key("correct").value(correct)
        .key("attempted").value(static_cast<std::uint64_t>(attempted_))
        .key("failed").value(static_cast<std::uint64_t>(failed_));
    w.key("failures").begin_array();
    for (const std::string& failure : failures_) w.value(failure);
    w.end_array().key("metrics").begin_object();
    for (const auto& [name, value] : values) w.key(name).value(value);
    w.end_object().key("samples").begin_object();
    for (const auto& [name, list] : samples_) {
      w.key(name).begin_array();
      for (const double v : list) w.value(v);
      w.end_array();
    }
    w.end_object().end_object();
    out << '\n';
  }
  if (opts_.trace) spans_.write_jsonl(opts_.out_dir + "/spans.jsonl");

  std::cout << "provenance: commit=" << opts_.commit << " nproc=" << nproc_
            << " compiler=\"" << compiler << "\" build_type=" << build_type
            << " workload=" << opts_.workload << " seed=" << opts_.seed
            << " traced=" << (opts_.trace ? 1 : 0) << " rounds=" << rounds_
            << '\n';
  for (const std::string& failure : failures_) {
    std::cout << "failed: " << failure << '\n';
  }
  std::cout << "operations: " << attempted_ << " attempted, " << failed_
            << " failed (failed_frac " << values["failed_frac"] << ")\n";

  std::ostringstream line;
  JsonWriter w(line);
  w.begin_object()
      .key("correct").value(correct)
      .key("attempted").value(static_cast<std::uint64_t>(attempted_))
      .key("failed").value(static_cast<std::uint64_t>(failed_))
      .key("metrics").begin_object();
  const auto emit = [&](const MetricDef& def) {
    const auto it = values.find(def.name);
    const double value = it == values.end() ? 0.0 : it->second;
    std::cout << "  " << def.name << " = " << value << ' ' << def.unit;
    const auto samples = samples_.find(def.name);
    if (samples != samples_.end()) {
      // The highest percentile with at least ten samples beyond it.
      std::vector<double> sorted = samples->second;
      std::sort(sorted.begin(), sorted.end());
      const std::size_t n = sorted.size();
      std::cout << " (median of " << n;
      if (n > 10) {
        std::cout << ", p" << 100 * (n - 10) / n << " " << sorted[n - 11];
      }
      std::cout << ')';
    }
    std::cout << '\n';
    w.key(def.name).begin_object()
        .key("value").value(value)
        .key("unit").value(def.unit)
        .end_object();
  };
  if (opts_.trace) {
    for (const MetricDef& def : kPerLayer) emit(def);
  } else {
    for (const MetricDef& def : kEndToEnd) emit(def);
  }
  w.end_object().end_object();
  std::cout << line.str() << std::endl;
}

int usage() {
  std::cerr << "usage: g10_e2e --workload "
               "run-rmat18|analyze-wide|fleet-threads|fleet-procs\n"
               "               --seed N --seconds S --trace 0|1 --out DIR\n"
               "               --ensemble-bin PATH [--commit ID]\n";
  return 2;
}

}  // namespace
}  // namespace g10::e2e

int main(int argc, char** argv) {
  using namespace g10;
  e2e::Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      const auto seed = parse_int(value);
      if (!seed || *seed < 0) return e2e::usage();
      opts.seed = static_cast<std::uint64_t>(*seed);
    } else if (flag == "--seconds") {
      const auto seconds = parse_double(value);
      if (!seconds || *seconds <= 0.0) return e2e::usage();
      opts.seconds = *seconds;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return e2e::usage();
      opts.trace = value == "1";
    } else if (flag == "--out") {
      opts.out_dir = value;
    } else if (flag == "--ensemble-bin") {
      opts.ensemble_bin = value;
    } else if (flag == "--commit") {
      opts.commit = value;
    } else {
      return e2e::usage();
    }
  }
  if (argc % 2 == 0 || opts.workload.empty() || opts.out_dir.empty() ||
      opts.ensemble_bin.empty()) {
    return e2e::usage();
  }
  try {
    e2e::Bench bench(std::move(opts));
    return bench.run();
  } catch (const std::exception& e) {
    std::cerr << "g10_e2e: " << e.what() << '\n';
    return 1;
  }
}
