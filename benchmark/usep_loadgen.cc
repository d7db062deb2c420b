// Load generator and in-process tracer behind benchmark/run.py.
//
// One process runs one workload from one seed on one thread:
//
//   solve-paper, solve-exact    closed loop, one client: exec usep_solve on a
//                               generated instance file, wait for it, check
//                               the planning it wrote, repeat.
//   serve-stream, serve-burst   arrival-trace streams through a
//                               StreamingService in the usep_serve shipping
//                               configuration (journal, snapshots, metrics,
//                               flight ring, bounded trace recorder), fed
//                               the way usep_serve feeds it: one mutation at
//                               a time, or in bursts of eight.
//
// The program under test receives only the generated inputs.  With
// --trace=1 a separate traced pass follows the timed run: it repeats the
// workload's request in-process, calling the same public functions the
// binary or the service calls, with spans from this file around each call.
// The timed run itself never records benchmark spans.
//
// Prints one JSON object on stdout: correctness counts, the end-to-end
// metrics and, with --trace=1, the per-layer metrics.  Per-span detail and
// the Perfetto trace go to --out_dir.

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "algo/candidate_index.h"
#include "algo/parallel.h"
#include "algo/planner_registry.h"
#include "common/flags.h"
#include "common/memhook.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/planning_stats.h"
#include "core/validation.h"
#include "gen/arrival_trace.h"
#include "gen/synthetic_generator.h"
#include "io/instance_io.h"
#include "io/planning_io.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "serve/replanner.h"
#include "serve/service.h"
#include "serve/snapshot.h"

extern char** environ;

namespace {

using namespace usep;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// --- Statistics -------------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Sum(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum;
}

// The highest percentile that still has at least ten samples beyond it.
// `quantile` is the share of samples at or below `value`; with fewer than
// eleven samples there is no such percentile and `samples_beyond` is 0.
struct Tail {
  double value = 0.0;
  double quantile = 0.0;
  int samples_beyond = 0;
};

Tail TailOf(std::vector<double> values) {
  Tail tail;
  if (values.size() < 11) return tail;
  std::sort(values.begin(), values.end());
  const size_t i = values.size() - 11;
  tail.value = values[i];
  tail.quantile = static_cast<double>(i + 1) / static_cast<double>(values.size());
  tail.samples_beyond = 10;
  return tail;
}

// Aggregate CPU time stolen by the hypervisor, from /proc/stat.
struct CpuTimes {
  double steal = 0.0;
  double total = 0.0;
};

CpuTimes ReadCpuTimes() {
  CpuTimes times;
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  if (label != "cpu") return times;
  // user nice system idle iowait irq softirq steal (guest columns are
  // already inside user/nice).
  for (int i = 0; i < 8; ++i) {
    double field = 0.0;
    if (!(stat >> field)) break;
    times.total += field;
    if (i == 7) times.steal = field;
  }
  return times;
}

double StealFraction(const CpuTimes& from, const CpuTimes& to) {
  const double total = to.total - from.total;
  return total > 0.0 ? (to.steal - from.steal) / total : 0.0;
}

// --- Result -----------------------------------------------------------------

// Everything one run reports.  `failed` counts requests that failed or
// returned a wrong result; `errors` says why, and also carries failed
// whole-run checks (which make the run incorrect without being requests).
struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::pair<std::string, double>> layers;
  // Share of CPU time the hypervisor stole during the timed window.
  double steal_frac = 0.0;

  void FailRequest(const std::string& why) {
    ++failed;
    if (errors.size() < 20) errors.push_back(why);
  }
  void Check(bool ok, const std::string& why) {
    if (!ok && errors.size() < 20) errors.push_back(why);
  }
  bool correct() const { return failed == 0 && errors.empty(); }
};

void WriteReport(const Report& report) {
  std::ostringstream out;
  obs::JsonWriter json(&out);
  json.BeginObject();
  json.KvBool("correct", report.correct());
  json.KvInt("attempted", report.attempted);
  json.KvInt("failed", report.failed);
  json.KvDouble("steal_frac", report.steal_frac);
  json.Key("errors");
  json.BeginArray();
  for (const std::string& error : report.errors) json.String(error);
  json.EndArray();
  for (const auto* section : {&report.metrics, &report.layers}) {
    json.Key(section == &report.metrics ? "metrics" : "layers");
    json.BeginObject();
    for (const auto& [name, value] : *section) json.KvDouble(name, value);
    json.EndObject();
  }
  json.EndObject();
  std::cout << out.str() << std::endl;
}

// --- Inputs -----------------------------------------------------------------

struct Scale {
  // solve-paper: the Table 7 bold defaults.
  int paper_events = 100;
  int paper_users = 5000;
  // solve-exact: see ExactInstance.
  int exact_users = 200;
  // Requests per traced pass (the per-stage numbers are their medians).
  int traced_requests = 3;
  // solve-*: first requests on fresh input copies; setup_s is their median.
  int setups = 3;
  // serve-*: mutations per stream (the m600 scenarios), distinct streams per
  // run (Omega sums them), and restarts per pass (setup_s is their median).
  int serve_mutations = 600;
  int stream_streams = 15;
  int burst_streams = 100;
  int restarts = 3;
};

Scale TinyScale() {
  Scale scale;
  scale.paper_events = 20;
  scale.paper_users = 400;
  scale.exact_users = 30;
  scale.traced_requests = 1;
  scale.setups = 2;
  scale.serve_mutations = 120;
  scale.stream_streams = 2;
  scale.burst_streams = 2;
  scale.restarts = 2;
  return scale;
}

StatusOr<Instance> PaperInstance(uint64_t seed, const Scale& scale) {
  GeneratorConfig config;  // Table 7 bold defaults.
  config.num_events = scale.paper_events;
  config.num_users = scale.paper_users;
  config.seed = seed;
  return GenerateSyntheticInstance(config);
}

// Five events of two seats each, one clique of mutually conflicting events,
// and budgets loose enough that every conflict-free schedule is affordable.
// Exact's work (states ~ 3^5 x |U|, dominance merges) then hardly depends on
// the seed; only the utilities do.  With the generator's random capacities
// and windows the state count swings 3x between seeds.
StatusOr<Instance> ExactInstance(uint64_t seed, const Scale& scale) {
  GeneratorConfig config;
  config.num_events = 5;
  config.num_users = scale.exact_users;
  config.capacity_mean = 2.0;
  config.conflict_strategy = ConflictStrategy::kClique;
  config.budget_factor = 100.0;
  config.seed = seed;
  StatusOr<Instance> instance = GenerateSyntheticInstance(config);
  if (!instance.ok()) return instance;
  for (EventId v = 0; v < instance->num_events(); ++v) {
    instance->set_event_capacity(v, 2);
  }
  return instance;
}

// An upper bound on Omega that ignores budgets and time conflicts: every
// event filled with its highest-utility users.  Omega as a share of it is a
// quality measure that hardly moves with the seed, where Omega itself moves
// with the drawn capacities and world size.
double UtilityBound(const Instance& instance) {
  double bound = 0.0;
  std::vector<double> row;
  for (EventId v = 0; v < instance.num_events(); ++v) {
    row.clear();
    for (UserId u = 0; u < instance.num_users(); ++u) {
      if (instance.utility(v, u) > 0.0) row.push_back(instance.utility(v, u));
    }
    const size_t seats =
        std::min(row.size(), static_cast<size_t>(instance.event(v).capacity));
    std::partial_sort(row.begin(), row.begin() + seats, row.end(),
                      std::greater<double>());
    for (size_t i = 0; i < seats; ++i) bound += row[i];
  }
  return bound;
}

// usep_solve's default planners.
std::vector<std::string> DefaultPlanners() {
  return {"DeDPO+RG", "DeGreedy+RG", "RatioGreedy"};
}

// The best Omega the default planners reach solving `instance` from
// scratch: the quality a streamed planning is compared with.
double FreshOmega(const Instance& instance) {
  double best = 0.0;
  for (const std::string& name : DefaultPlanners()) {
    const StatusOr<std::unique_ptr<Planner>> planner = MakePlannerByName(name);
    if (!planner.ok()) continue;
    best = std::max(best, (*planner)->Plan(instance).planning.total_utility());
  }
  return best;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::ostringstream content;
  content << file.rdbuf();
  return content.str();
}

// --- solve-* ----------------------------------------------------------------

struct ExecResult {
  bool ok = false;
  std::string error;
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  double max_rss_mb = 0.0;
};

// Runs usep_solve to completion, stdout and stderr to `log_path`.
ExecResult ExecSolve(const std::vector<std::string>& args,
                     const std::string& log_path) {
  ExecResult result;
  std::vector<std::string> full = {USEP_SOLVE_BIN};
  full.insert(full.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : full) argv.push_back(arg.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  const Clock::time_point start = Clock::now();
  pid_t pid = 0;
  const int spawned =
      posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (spawned != 0) {
    result.error = StrFormat("posix_spawn failed (%d)", spawned);
    return result;
  }
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      result.error = "wait4 failed";
      return result;
    }
  }
  result.wall_ms = MsBetween(start, Clock::now());
  result.cpu_ms = (usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) * 1e3 +
                  (usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-3;
  result.max_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  result.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  if (!result.ok) {
    result.error = StrFormat("usep_solve exited with status %d (log %s)",
                             status, log_path.c_str());
  }
  return result;
}

// One usep_solve request done in-process with the calls the binary makes:
// read the file, parse it, run the planners, check and summarize every
// planning, write the best.  Each call sits in its own benchmark span, so
// the program's own planner spans nest under "bench/plan".
struct InProcessSolve {
  Status status;
  std::string best_text;  // The best planning, serialized.
  PlannerStats stats;     // Merged over the planners.
  bool all_certified = true;
  double wall_ms = 0.0;
  double alloc_mb = 0.0;
  double allocs = 0.0;
  double output_bytes = 0.0;
  std::map<std::string, double> stage_ms;
};

InProcessSolve SolveInProcess(const std::string& instance_path,
                              const std::vector<std::string>& planner_names,
                              const std::string& output_path,
                              obs::TraceRecorder* trace) {
  InProcessSolve run;
  const size_t bytes0 = memhook::TotalAllocatedBytes();
  const size_t allocs0 = memhook::TotalAllocations();
  const Clock::time_point start = Clock::now();
  Clock::time_point mark = start;
  const auto lap = [&](const char* stage) {
    const Clock::time_point now = Clock::now();
    run.stage_ms[stage] += MsBetween(mark, now);
    mark = now;
  };

  obs::TraceSpan request(trace, "bench/request", "bench");
  std::string text;
  {
    obs::TraceSpan span(trace, "bench/receive", "bench");
    std::ifstream file(instance_path);
    std::ostringstream content;
    content << file.rdbuf();
    text = content.str();
  }
  lap("receive");
  StatusOr<Instance> instance = Status::Internal("not parsed");
  {
    obs::TraceSpan span(trace, "bench/decode", "bench");
    instance = DeserializeInstance(text);
  }
  lap("decode");
  if (!instance.ok()) {
    run.status = instance.status();
    return run;
  }

  std::vector<std::unique_ptr<Planner>> planners;
  std::vector<BatchJob> jobs;
  std::vector<PlanContext> contexts;
  for (const std::string& name : planner_names) {
    StatusOr<std::unique_ptr<Planner>> planner = MakePlannerByName(name);
    if (!planner.ok()) {
      run.status = planner.status();
      return run;
    }
    planners.push_back(std::move(*planner));
    PlanContext context;
    context.trace = trace;
    jobs.push_back(BatchJob{planners.back().get(), &*instance});
    contexts.push_back(context);
  }
  std::vector<PlannerResult> results;
  {
    obs::TraceSpan span(trace, "bench/plan", "bench");
    results = ParallelBatchSolver(ParallelConfig{}).Solve(jobs, contexts);
  }
  lap("plan");
  {
    obs::TraceSpan span(trace, "bench/check", "bench");
    for (const PlannerResult& result : results) {
      const Status feasible = CheckPlanningFeasible(*instance, result.planning);
      if (!feasible.ok()) run.status = feasible;
    }
  }
  lap("check");
  const PlannerResult* best = nullptr;
  {
    obs::TraceSpan span(trace, "bench/finalize", "bench");
    for (const PlannerResult& result : results) {
      const PlanningStats stats =
          ComputePlanningStats(*instance, result.planning);
      (void)stats;
      run.stats.MergeFrom(result.stats);
      if (!result.stats.exact_stop.empty() &&
          !result.stats.certified_optimal) {
        run.all_certified = false;
      }
      if (best == nullptr ||
          result.planning.total_utility() > best->planning.total_utility()) {
        best = &result;
      }
    }
  }
  lap("finalize");
  {
    obs::TraceSpan span(trace, "bench/write", "bench");
    const Status wrote = WritePlanningFile(best->planning, output_path);
    if (!wrote.ok()) run.status = wrote;
  }
  lap("write");
  request.End();
  run.wall_ms = MsBetween(start, Clock::now());
  run.alloc_mb =
      static_cast<double>(memhook::TotalAllocatedBytes() - bytes0) / 1e6;
  run.allocs = static_cast<double>(memhook::TotalAllocations() - allocs0);
  run.best_text = SerializePlanning(best->planning);
  run.output_bytes = static_cast<double>(run.best_text.size());
  return run;
}

// Total duration of every span named in `names`, from `events`.
double SpanTotalMs(const std::vector<obs::TraceEvent>& events,
                   std::initializer_list<std::string_view> names) {
  double total_us = 0.0;
  for (const obs::TraceEvent& event : events) {
    if (event.phase != 'X') continue;
    for (const std::string_view name : names) {
      if (event.name == name) total_us += event.dur_us;
    }
  }
  return total_us / 1e3;
}

// The share of the `root` spans' wall time that lands in a named phase: the
// self time of every span inside a root, except the containers whose self
// time is just the unexplained remainder between their children.
double NamedSpanShare(const std::vector<obs::TraceEvent>& events,
                      std::string_view root) {
  std::vector<const obs::TraceEvent*> roots;
  for (const obs::TraceEvent& event : events) {
    if (event.phase == 'X' && event.name == root) roots.push_back(&event);
  }
  std::vector<obs::TraceEvent> inside;
  double root_us = 0.0;
  for (const obs::TraceEvent* r : roots) root_us += r->dur_us;
  for (const obs::TraceEvent& event : events) {
    if (event.phase != 'X') continue;
    for (const obs::TraceEvent* r : roots) {
      if (event.tid == r->tid && event.ts_us >= r->ts_us &&
          event.ts_us + event.dur_us <= r->ts_us + r->dur_us) {
        inside.push_back(event);
        break;
      }
    }
  }
  double named_us = 0.0;
  for (const obs::PhaseProfile& phase : obs::Profile::FromEvents(inside).phases) {
    const std::string_view name = phase.name;
    const bool container = name == root || name == "bench/plan" ||
                           name == "bench/repair" || name == "batch/job" ||
                           name.starts_with("plan/");
    if (!container) named_us += phase.self_us;
  }
  return root_us > 0.0 ? named_us / root_us : 0.0;
}

void WriteTraceArtifacts(const std::string& out_dir,
                         const std::string& workload,
                         const obs::TraceRecorder& trace,
                         const std::vector<std::pair<std::string, double>>&
                             detail,
                         Report* report) {
  std::string error;
  const std::string trace_path = out_dir + "/" + workload + ".trace.json";
  report->Check(trace.WriteJsonFile(trace_path, &error),
                "writing " + trace_path + ": " + error);
  const std::string layers_path = out_dir + "/" + workload + ".layers.json";
  std::ofstream file(layers_path);
  obs::JsonWriter json(&file);
  json.BeginObject();
  json.KvString("workload", workload);
  json.Key("metrics");
  json.BeginObject();
  for (const auto& [name, value] : report->metrics) json.KvDouble(name, value);
  json.EndObject();
  json.Key("layers");
  json.BeginObject();
  for (const auto& [name, value] : report->layers) json.KvDouble(name, value);
  json.EndObject();
  json.Key("detail");
  json.BeginObject();
  for (const auto& [name, value] : detail) json.KvDouble(name, value);
  json.EndObject();
  json.Key("spans");
  obs::Profile::FromRecorder(trace).WriteJson(&json);
  json.EndObject();
  file << "\n";
  file.flush();
  report->Check(static_cast<bool>(file), "writing " + layers_path);
}

Report RunSolve(const std::string& workload, uint64_t seed, double seconds,
                bool traced, const Scale& scale, const std::string& work_dir,
                const std::string& out_dir) {
  Report report;
  const bool exact = workload == "solve-exact";
  const std::vector<std::string> planner_names =
      exact ? std::vector<std::string>{"Exact"} : DefaultPlanners();
  std::string planners_flag;
  for (const std::string& name : planner_names) {
    planners_flag += (planners_flag.empty() ? "" : ",") + name;
  }

  StatusOr<Instance> instance =
      exact ? ExactInstance(seed, scale) : PaperInstance(seed, scale);
  if (!instance.ok()) {
    report.Check(false, "generating the instance: " +
                            instance.status().ToString());
    return report;
  }
  const std::string instance_path = work_dir + "/instance.usep";
  const Status wrote = WriteInstanceFile(*instance, instance_path);
  if (!wrote.ok()) {
    report.Check(false, wrote.ToString());
    return report;
  }

  // The reference answer: the same request in-process.
  ++report.attempted;
  const InProcessSolve reference = SolveInProcess(
      instance_path, planner_names, work_dir + "/reference.out", nullptr);
  if (!reference.status.ok()) {
    report.FailRequest("in-process request: " + reference.status.ToString());
    return report;
  }
  report.Check(!exact || reference.all_certified,
               "Exact did not certify its planning optimal");

  // Every exec's output must be the reference planning byte for byte, load
  // back through ReadPlanningFile and pass the feasibility check.
  double omega = 0.0;
  const auto exec = [&](const std::string& input,
                        const std::string& output) -> ExecResult {
    ++report.attempted;
    ExecResult result = ExecSolve(
        {"--instance=" + input, "--planners=" + planners_flag,
         "--output=" + output},
        work_dir + "/solve.log");
    if (!result.ok) {
      report.FailRequest(result.error);
      return result;
    }
    if (ReadFileBytes(output) != reference.best_text) {
      result.ok = false;
      report.FailRequest("output " + output +
                         " differs from the in-process planning");
      return result;
    }
    const StatusOr<Planning> planning = ReadPlanningFile(*instance, output);
    const Status feasible =
        planning.ok() ? CheckPlanningFeasible(*instance, *planning)
                      : planning.status();
    if (!feasible.ok()) {
      result.ok = false;
      report.FailRequest("output " + output + ": " + feasible.ToString());
      return result;
    }
    omega = planning->total_utility();
    return result;
  };

  // Set-up: the first request on a fresh copy of the input, several times.
  std::vector<double> setup_s;
  for (int i = 0; i < scale.setups; ++i) {
    const std::string copy = StrFormat("%s/cold-%d.usep", work_dir.c_str(), i);
    fs::copy_file(instance_path, copy, fs::copy_options::overwrite_existing);
    const ExecResult cold = exec(copy, copy + ".out");
    if (cold.ok) setup_s.push_back(cold.wall_ms / 1e3);
    fs::remove(copy);
  }
  exec(instance_path, work_dir + "/warmup.out");

  std::vector<double> wall_ms;
  std::vector<double> cpu_ms;
  std::vector<double> rss_mb;
  const CpuTimes cpu0 = ReadCpuTimes();
  const Clock::time_point timed_start = Clock::now();
  while (MsBetween(timed_start, Clock::now()) < seconds * 1e3 ||
         wall_ms.size() < 5) {
    const ExecResult result = exec(instance_path, work_dir + "/timed.out");
    if (!result.ok) {
      if (report.failed > 3) break;
      continue;
    }
    wall_ms.push_back(result.wall_ms);
    cpu_ms.push_back(result.cpu_ms);
    rss_mb.push_back(result.max_rss_mb);
  }
  const double steal = StealFraction(cpu0, ReadCpuTimes());
  report.steal_frac = steal;

  report.metrics = {
      {"setup_s", Median(setup_s)},
      {"latency_ms_p50", Median(wall_ms)},
      {"cpu_ms_p50", Median(cpu_ms)},
      {"peak_mem_mb", Median(rss_mb)},
      {"omega_ratio", omega / UtilityBound(*instance)},
      // One client's request rate at the median request.  A mean over the
      // 11-25 requests of a run moves with every slow spell of the host.
      {"ops_per_s", wall_ms.empty() ? 0.0 : 1e3 / Median(wall_ms)},
  };
  if (!traced) return report;

  // Traced pass: the same request in-process, untraced and traced in turn
  // so host drift lands on both.
  std::vector<double> untraced_ms;
  std::vector<double> alloc_mb;
  std::vector<double> allocs;
  std::map<std::string, std::vector<double>> stages;
  std::vector<double> traced_ms;
  std::vector<double> coverage;
  std::unique_ptr<obs::TraceRecorder> trace;
  for (int i = 0; i < scale.traced_requests; ++i) {
    report.attempted += 2;
    const InProcessSolve plain = SolveInProcess(
        instance_path, planner_names, work_dir + "/untraced.out", nullptr);
    if (!plain.status.ok() || plain.best_text != reference.best_text) {
      report.FailRequest("untraced in-process request diverged");
      continue;
    }
    untraced_ms.push_back(plain.wall_ms);
    alloc_mb.push_back(plain.alloc_mb);
    allocs.push_back(plain.allocs);

    trace = std::make_unique<obs::TraceRecorder>();
    trace->NameCurrentThread("loadgen");
    trace->set_collect_alloc(true);
    const InProcessSolve run = SolveInProcess(
        instance_path, planner_names, work_dir + "/traced.out", trace.get());
    if (!run.status.ok() || run.best_text != reference.best_text) {
      report.FailRequest("traced in-process request diverged");
      continue;
    }
    const std::vector<obs::TraceEvent> events = trace->Events();
    const double build_ms =
        SpanTotalMs(events, {"rg/index-build", "exact/candidate-generation"});
    for (const char* stage :
         {"receive", "decode", "check", "finalize", "write"}) {
      stages[stage].push_back(run.stage_ms.at(stage));
    }
    stages["build"].push_back(build_ms);
    stages["search"].push_back(run.stage_ms.at("plan") - build_ms);
    coverage.push_back(NamedSpanShare(events, "bench/request"));
    traced_ms.push_back(run.wall_ms);
  }
  const PlannerStats& stats = reference.stats;
  const double probes =
      static_cast<double>(stats.cache_hits + stats.cache_misses);
  report.layers = {
      {"stage.receive_ms", Median(stages["receive"])},
      {"stage.decode_ms", Median(stages["decode"])},
      {"stage.build_ms", Median(stages["build"])},
      {"stage.search_ms", Median(stages["search"])},
      {"stage.check_ms", Median(stages["check"])},
      {"stage.finalize_ms", Median(stages["finalize"])},
      {"stage.write_ms", Median(stages["write"])},
      {"stage.other_ms", Median(wall_ms) - Median(untraced_ms)},
      {"stage.alloc_mb", Median(alloc_mb)},
      {"stage.allocs", Median(allocs)},
      {"stage.write_bytes", reference.output_bytes},
      {"trace.coverage_frac", Median(coverage)},
      {"trace.overhead_frac", Median(traced_ms) / Median(untraced_ms) - 1.0},
      {"request.samples", static_cast<double>(wall_ms.size())},
      {"request.wait_frac", 0.0},
      {"host.steal_frac", steal},
      {"algo.dp_cells", static_cast<double>(stats.dp_cells)},
      {"algo.heap_pushes", static_cast<double>(stats.heap_pushes)},
      {"algo.cache_hit_rate",
       probes > 0 ? static_cast<double>(stats.cache_hits) / probes : 0.0},
      {"algo.exact_states", static_cast<double>(stats.states)},
      {"algo.exact_merges", static_cast<double>(stats.merges)},
      {"serve.rebuild_frac", 0.0},
      {"serve.index_reuse_frac", 0.0},
      {"serve.tier_incremental_frac", 0.0},
      {"serve.shed_frac", 0.0},
  };
  const std::vector<std::pair<std::string, double>> detail = {
      {"solve.latency_ms_max",
       wall_ms.empty() ? 0.0 : *std::max_element(wall_ms.begin(), wall_ms.end())},
      {"solve.in_process_ms", Median(untraced_ms)},
      {"solve.traced_ms", Median(traced_ms)},
      {"solve.instance_bytes", static_cast<double>(fs::file_size(instance_path))},
      {"solve.omega", omega},
  };
  if (trace != nullptr) {
    WriteTraceArtifacts(out_dir, workload, *trace, detail, &report);
  }
  return report;
}

// --- serve-* ----------------------------------------------------------------

// How mutations reach the service.  Both shapes are the repository's own
// serving scenarios; the benchmark invents no rate and no mix.
//   serve-stream  bench row serve/stream.m600, `usep_serve --gen_mutations=600`:
//                 one mutation submitted, processed, then the next.
//   serve-burst   bench row serve/slo.m600.b8q8, `usep_serve
//                 --gen_mutations=600 --batch=8 --queue_capacity=8
//                 --shed_fraction=0.5`: eight mutations stay queued, so the
//                 queue sits above the shed threshold and nearly every
//                 mutation gets a validity-only repair (no ladder).
struct ServeShape {
  int batch = 1;
  int queue_capacity = 1024;
  double shed_fraction = 0.75;
};

ServeShape ShapeOf(const std::string& workload) {
  return workload == "serve-burst" ? ServeShape{8, 8, 0.5} : ServeShape{};
}

// Stream k of a run: the ArrivalTraceConfig defaults (the mix usep_serve
// --gen_mutations generates) at the length of the m600 scenarios.
StatusOr<gen::ArrivalTrace> StreamTrace(uint64_t seed, int k,
                                        const Scale& scale) {
  gen::ArrivalTraceConfig config;
  config.num_mutations = scale.serve_mutations;
  config.seed = seed * 1000000 + static_cast<uint64_t>(k);
  return gen::GenerateArrivalTrace(config);
}

// A StreamingService in the usep_serve shipping configuration, with the
// telemetry objects it borrows.  The service is declared last so it is
// destroyed (and closed) before what it points at.
struct ServeStack {
  obs::MetricsRegistry metrics;
  obs::FlightRecorder flight;
  obs::TraceRecorder trace;
  serve::ServiceOptions options;
  std::unique_ptr<serve::StreamingService> service;

  ServeStack(const serve::WorldConfig& world, const ServeShape& shape,
             const std::string& dir)
      : flight(obs::FlightRecorderOptions{8, 512}) {
    trace.set_max_events(8192);
    trace.AttachFlight(&flight);
    options.world = world;
    options.journal_path = dir + "/journal";
    options.snapshot_path = dir + "/snapshot";
    options.snapshot_every = 500;
    options.queue_capacity = shape.queue_capacity;
    options.shed_fraction = shape.shed_fraction;
    options.metrics = &metrics;
    options.trace = &trace;
    options.flight = &flight;
  }
};

bool IsStructural(serve::MutationKind kind) {
  return kind != serve::MutationKind::kCapacityChange;
}

// One served mutation.
struct Sample {
  serve::MutationKind kind = serve::MutationKind::kUserJoin;
  double latency_ms = 0.0;  // Submit to the return of its ProcessNext.
  double wait_ms = 0.0;     // Queued: Submit's return to ProcessNext.
  double submit_ms = 0.0;
  double service_ms = 0.0;  // Inside ProcessNext.
  double cpu_ms = 0.0;      // Thread CPU time of ProcessNext.
  double alloc_bytes = 0.0;
  double allocs = 0.0;
  serve::RepairOutcome repair;
  bool shed = false;
};

// usep_serve's serving loop: keep up to `batch` mutations queued, process
// the oldest, refill.  False (with a request failure) on the first mutation
// that is refused or does not commit.
bool ServeMutations(serve::StreamingService* service,
                    const std::vector<serve::Mutation>& mutations, int batch,
                    Report* report, std::vector<Sample>* samples) {
  std::vector<Clock::time_point> submitted_at(mutations.size());
  std::vector<double> submit_ms(mutations.size());
  size_t submitted = 0;
  for (size_t i = 0; i < mutations.size(); ++i) {
    while (submitted < mutations.size() &&
           submitted - i < static_cast<size_t>(batch)) {
      ++report->attempted;
      submitted_at[submitted] = Clock::now();
      const Status ok = service->Submit(mutations[submitted]);
      submit_ms[submitted] = MsBetween(submitted_at[submitted], Clock::now());
      if (!ok.ok()) {
        report->FailRequest("Submit: " + ok.ToString());
        return false;
      }
      ++submitted;
    }
    Sample sample;
    sample.kind = mutations[i].kind;
    const size_t bytes0 = memhook::TotalAllocatedBytes();
    const size_t allocs0 = memhook::TotalAllocations();
    const double cpu_start = ThreadCpuSeconds();
    const Clock::time_point begin = Clock::now();
    const StatusOr<serve::ProcessResult> step = service->ProcessNext();
    const Clock::time_point end = Clock::now();
    sample.cpu_ms = (ThreadCpuSeconds() - cpu_start) * 1e3;
    sample.alloc_bytes =
        static_cast<double>(memhook::TotalAllocatedBytes() - bytes0);
    sample.allocs = static_cast<double>(memhook::TotalAllocations() - allocs0);
    sample.latency_ms = MsBetween(submitted_at[i], end);
    sample.submit_ms = submit_ms[i];
    sample.wait_ms = MsBetween(submitted_at[i], begin) - submit_ms[i];
    sample.service_ms = MsBetween(begin, end);
    if (!step.ok() || step->seq == 0) {
      report->FailRequest(
          StrFormat("mutation %zu: %s", i,
                    step.ok() ? step->apply_status.ToString().c_str()
                              : step.status().ToString().c_str()));
      return false;
    }
    sample.repair = step->repair;
    sample.shed = step->shed;
    samples->push_back(sample);
  }
  return true;
}

// What one pass leaves besides its samples.
struct PassResult {
  double omega = 0.0;
  double omega_fresh = 0.0;   // FreshOmega of the final world, when scored.
  double peak_heap_mb = 0.0;  // Heap high-water mark while serving.
};

// One pass over a stream in a fresh service: Open on an empty directory,
// then every mutation through ServeMutations.  The final planning must be
// feasible, and every restart (Abandon, then Open from the journal and
// snapshot) must recover the live fingerprint; the restarts are the set-up
// samples.  With `score`, the final world is also solved from scratch.
// False when the run cannot go on.
bool ServePass(const gen::ArrivalTrace& trace, const ServeShape& shape,
               const Scale& scale, const std::string& dir, bool score,
               Report* report, std::vector<Sample>* samples,
               std::vector<double>* restart_s, PassResult* result) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  // Reserved first, so the samples' own storage stays out of the peak.
  samples->reserve(samples->size() + trace.mutations.size());
  memhook::ResetPeak();
  const size_t heap0 = memhook::CurrentBytes();
  ServeStack stack(trace.world, shape, dir);
  StatusOr<std::unique_ptr<serve::StreamingService>> opened =
      serve::StreamingService::Open(stack.options);
  if (!opened.ok()) {
    report->Check(false, "Open: " + opened.status().ToString());
    return false;
  }
  stack.service = std::move(*opened);
  if (!ServeMutations(stack.service.get(), trace.mutations, shape.batch,
                      report, samples)) {
    return false;
  }
  result->peak_heap_mb =
      static_cast<double>(memhook::PeakBytes() - heap0) / (1024.0 * 1024.0);

  const Planning* planning = stack.service->planning();
  if (planning == nullptr) {
    report->Check(false, "no planning after the stream");
    return false;
  }
  const Status feasible =
      CheckPlanningFeasible(*stack.service->instance(), *planning);
  report->Check(feasible.ok(), "final planning: " + feasible.ToString());
  result->omega = planning->total_utility();
  if (score) result->omega_fresh = FreshOmega(*stack.service->instance());
  const uint64_t fingerprint = stack.service->Fingerprint();
  for (int i = 0; i < scale.restarts; ++i) {
    ++report->attempted;
    stack.service->Abandon();
    const Clock::time_point begin = Clock::now();
    StatusOr<std::unique_ptr<serve::StreamingService>> reopened =
        serve::StreamingService::Open(stack.options);
    const Clock::time_point end = Clock::now();
    if (!reopened.ok()) {
      report->FailRequest("restart: " + reopened.status().ToString());
      return false;
    }
    stack.service = std::move(*reopened);
    if (stack.service->Fingerprint() != fingerprint) {
      report->FailRequest("restarted fingerprint differs from the live one");
    }
    restart_s->push_back(MsBetween(begin, end) / 1e3);
  }
  return true;
}

// The body of StreamingService::ProcessNext, one public call at a time, over
// a private world / plan state / replanner / journal.
struct Mirror {
  serve::World world{serve::WorldConfig{}};
  serve::PlanState state;
  std::unique_ptr<serve::Replanner> replanner;
  std::unique_ptr<serve::JournalWriter> journal;
  uint64_t next_seq = 1;
  obs::TraceRecorder* trace = nullptr;

  // One entry per mirrored mutation: each step's time, the whole step, the
  // feasibility check after it and the journal record's size.
  std::map<std::string, std::vector<double>> step_ms;
  std::vector<double> total_ms;
  std::vector<double> check_ms;
  std::vector<double> journal_bytes;
  double cache_hits = 0.0;
  double cache_probes = 0.0;

  Status Start(const serve::WorldConfig& config,
               const std::string& journal_path, obs::TraceRecorder* recorder) {
    world = serve::World(config);
    trace = recorder;
    replanner = std::make_unique<serve::Replanner>(
        serve::LadderOptions{}, nullptr, recorder, nullptr);
    USEP_RETURN_IF_ERROR(replanner->Reset(world, state));
    StatusOr<serve::JournalWriter> opened =
        serve::JournalWriter::Open(journal_path);
    if (!opened.ok()) return opened.status();
    journal = std::make_unique<serve::JournalWriter>(std::move(*opened));
    return Status::Ok();
  }

  // `shed` is the decision the service made for this mutation.
  Status Step(const serve::Mutation& mutation, bool shed) {
    const CandidateIndex* index = replanner->index();
    const double hits0 = index != nullptr ? index->hits() : 0.0;
    const double probes0 =
        index != nullptr ? index->hits() + index->misses() : 0.0;
    obs::TraceSpan span(trace, "bench/mutation", "bench");
    Clock::time_point mark = Clock::now();
    const Clock::time_point start = mark;
    const auto lap = [&](const char* step) {
      const Clock::time_point now = Clock::now();
      step_ms[step].push_back(MsBetween(mark, now));
      mark = now;
    };
    {
      obs::TraceSpan step(trace, "bench/apply", "bench");
      USEP_RETURN_IF_ERROR(world.Apply(mutation));
    }
    lap("apply");
    serve::PlanState before;
    {
      obs::TraceSpan step(trace, "bench/state-copy", "bench");
      before = state;
    }
    lap("state_copy");
    StatusOr<serve::RepairOutcome> repair = Status::Internal("not run");
    {
      obs::TraceSpan step(trace, "bench/repair", "bench");
      repair = replanner->Repair(world, mutation, &state, shed);
    }
    lap("repair");
    if (!repair.ok()) return repair.status();
    world.ClearDirty();
    serve::JournalRecord record;
    record.seq = next_seq;
    record.mutation = mutation;
    {
      obs::TraceSpan step(trace, "bench/diff", "bench");
      record.ops = serve::PlanState::Diff(before, state);
    }
    lap("diff");
    {
      obs::TraceSpan step(trace, "bench/journal-append", "bench");
      USEP_RETURN_IF_ERROR(journal->Append(record));
    }
    lap("journal_append");
    span.End();
    total_ms.push_back(MsBetween(start, mark));
    ++next_seq;
    journal_bytes.push_back(static_cast<double>(record.ToLine().size() + 1));

    const CandidateIndex* after = replanner->index();
    if (after != nullptr) {
      const bool fresh = repair->instance_rebuilt;
      cache_hits += after->hits() - (fresh ? 0.0 : hits0);
      cache_probes += after->hits() + after->misses() - (fresh ? 0.0 : probes0);
    }
    // Not part of ProcessNext: the feasibility check of the live planning.
    const Clock::time_point check_start = Clock::now();
    const Status feasible = replanner->planning() == nullptr
                                ? Status::Ok()
                                : CheckPlanningFeasible(*replanner->instance(),
                                                        *replanner->planning());
    check_ms.push_back(MsBetween(check_start, Clock::now()));
    return feasible;
  }

  uint64_t Fingerprint() const {
    return serve::Fnv1a64(world.Serialize() + state.Serialize());
  }
};

// Times the three steps of Replanner::Reset on the current world, the way
// every structural mutation pays for them.
void TimeRebuild(const serve::World& world, const serve::PlanState& state,
                 obs::TraceRecorder* trace,
                 std::map<std::string, std::vector<double>>* out) {
  const size_t bytes0 = memhook::TotalAllocatedBytes();
  Clock::time_point mark = Clock::now();
  const auto lap = [&](const char* step) {
    const Clock::time_point now = Clock::now();
    (*out)[step].push_back(MsBetween(mark, now));
    mark = now;
  };
  obs::TraceSpan span(trace, "bench/rebuild", "bench");
  StatusOr<Instance> instance = Status::Internal("not built");
  {
    obs::TraceSpan step(trace, "bench/materialize", "bench");
    instance = world.Materialize();
  }
  lap("rebuild.materialize");
  if (!instance.ok()) return;
  {
    obs::TraceSpan step(trace, "bench/to-planning", "bench");
    const StatusOr<Planning> planning = state.ToPlanning(world, *instance);
    (void)planning;
  }
  lap("rebuild.to_planning");
  {
    obs::TraceSpan step(trace, "bench/index-build", "bench");
    const CandidateIndex index(*instance);
  }
  lap("rebuild.index_build");
  (*out)["rebuild.alloc_mb"].push_back(
      static_cast<double>(memhook::TotalAllocatedBytes() - bytes0) / 1e6);
}

Report RunServe(const std::string& workload, uint64_t seed, double seconds,
                bool traced, const Scale& scale, const std::string& work_dir,
                const std::string& out_dir) {
  Report report;
  const ServeShape shape = ShapeOf(workload);
  const int streams = workload == "serve-burst" ? scale.burst_streams
                                                : scale.stream_streams;

  // A new stream every pass until the window closes, and at least
  // `streams` of them.  Omega and memory come from the first `streams`
  // passes only, so they do not depend on how many passes fit.  Streams
  // differ in the world they grow, and so in cost and quality; the more a
  // run serves, the less its numbers depend on the seed.
  std::vector<Sample> samples;
  std::vector<double> restart_s;
  double omega = 0.0;
  double omega_fresh = 0.0;
  std::vector<double> peak_heap_mb;
  const std::string dir = work_dir + "/service";
  const CpuTimes cpu0 = ReadCpuTimes();
  const Clock::time_point start = Clock::now();
  for (int pass = 0;
       pass < streams || MsBetween(start, Clock::now()) < seconds * 1e3;
       ++pass) {
    const StatusOr<gen::ArrivalTrace> trace =
        StreamTrace(seed, pass, scale);
    if (!trace.ok()) {
      report.Check(false, trace.status().ToString());
      return report;
    }
    PassResult result;
    if (!ServePass(*trace, shape, scale, dir, pass < streams, &report,
                   &samples, &restart_s, &result)) {
      return report;
    }
    if (pass < streams) {
      omega += result.omega;
      omega_fresh += result.omega_fresh;
      peak_heap_mb.push_back(result.peak_heap_mb);
    }
  }
  fs::remove_all(dir);
  const double steal = StealFraction(cpu0, ReadCpuTimes());
  report.steal_frac = steal;

  std::vector<double> latency;
  std::vector<double> cpu;
  std::vector<double> service_ms;
  std::vector<double> wait;
  for (const Sample& sample : samples) {
    latency.push_back(sample.latency_ms);
    cpu.push_back(sample.cpu_ms);
    service_ms.push_back(sample.service_ms);
    wait.push_back(sample.wait_ms);
  }
  report.metrics = {
      {"setup_s", Median(restart_s)},
      {"latency_ms_p50", Median(latency)},
      {"cpu_ms_p50", Median(cpu)},
      {"peak_mem_mb", Median(peak_heap_mb)},
      {"omega_ratio", omega / omega_fresh},
      {"ops_per_s", samples.size() / Sum(service_ms) * 1e3},
  };
  if (!traced) return report;

  // --- Traced pass: stream 0 again -----------------------------------------
  std::vector<std::pair<std::string, double>> detail;
  for (const serve::MutationKind kind :
       {serve::MutationKind::kUserJoin, serve::MutationKind::kUserLeave,
        serve::MutationKind::kEventPost, serve::MutationKind::kEventCancel,
        serve::MutationKind::kCapacityChange}) {
    std::vector<double> values;
    for (const Sample& sample : samples) {
      if (sample.kind == kind) values.push_back(sample.latency_ms);
    }
    detail.emplace_back(
        StrFormat("serve.mut_ms_p50.%s", serve::MutationKindName(kind)),
        Median(values));
    detail.emplace_back(
        StrFormat("serve.mutations.%s", serve::MutationKindName(kind)),
        static_cast<double>(values.size()));
  }
  const Tail wall_tail = TailOf(latency);
  detail.insert(detail.end(),
                {{"serve.mut_ms_tail", wall_tail.value},
                 {"serve.mut_cpu_ms_tail", TailOf(cpu).value},
                 {"serve.tail_quantile", wall_tail.quantile},
                 {"serve.queue_wait_ms_p50", Median(wait)},
                 {"serve.service_ms_p50", Median(service_ms)},
                 {"serve.omega", omega}});

  // Reference: stream 0 once more through the untraced shipping stack, warm.
  // Its shed decisions drive the mirrors, its fingerprint checks them, its
  // service time is what the mirrors must explain, and its journal and
  // snapshot feed the recovery split.
  const StatusOr<gen::ArrivalTrace> trace0 = StreamTrace(seed, 0, scale);
  if (!trace0.ok()) {
    report.Check(false, trace0.status().ToString());
    return report;
  }
  const std::vector<serve::Mutation>& mutations = trace0->mutations;
  const std::string reference_dir = work_dir + "/reference";
  fs::remove_all(reference_dir);
  fs::create_directories(reference_dir);
  ServeStack stack(trace0->world, shape, reference_dir);
  StatusOr<std::unique_ptr<serve::StreamingService>> opened =
      serve::StreamingService::Open(stack.options);
  if (!opened.ok()) {
    report.Check(false, "reference Open: " + opened.status().ToString());
    return report;
  }
  stack.service = std::move(*opened);
  const serve::StreamingService* reference = stack.service.get();
  std::vector<Sample> reference_samples;
  if (!ServeMutations(stack.service.get(), mutations, shape.batch, &report,
                      &reference_samples)) {
    return report;
  }

  auto trace = std::make_unique<obs::TraceRecorder>();
  trace->NameCurrentThread("loadgen");
  trace->set_collect_alloc(true);
  // Untraced and traced mirrors take turns, mutation by mutation, so host
  // drift lands on both.
  Mirror untraced;
  Mirror traced_mirror;
  fs::remove(work_dir + "/mirror.journal");
  fs::remove(work_dir + "/mirror-traced.journal");
  Status status = untraced.Start(trace0->world, work_dir + "/mirror.journal",
                                 nullptr);
  if (status.ok()) {
    status = traced_mirror.Start(trace0->world,
                                 work_dir + "/mirror-traced.journal",
                                 trace.get());
  }
  std::map<std::string, std::vector<double>> rebuild;
  for (size_t i = 0; i < mutations.size() && status.ok(); ++i) {
    report.attempted += 2;
    const bool shed = reference_samples[i].shed;
    status = untraced.Step(mutations[i], shed);
    if (status.ok()) status = traced_mirror.Step(mutations[i], shed);
    if (status.ok() && IsStructural(mutations[i].kind)) {
      TimeRebuild(traced_mirror.world, traced_mirror.state, trace.get(),
                  &rebuild);
    }
  }
  if (!status.ok()) {
    report.FailRequest("mirror: " + status.ToString());
    return report;
  }
  report.Check(untraced.Fingerprint() == reference->Fingerprint(),
               "untraced mirror diverged from ProcessNext");
  report.Check(traced_mirror.Fingerprint() == reference->Fingerprint(),
               "traced mirror diverged from ProcessNext");

  // Recovery, step by step, from the reference service's files.
  std::map<std::string, std::vector<double>> recovery;
  for (int i = 0; i < 5; ++i) {
    Clock::time_point mark = Clock::now();
    const auto lap = [&](const char* step) {
      const Clock::time_point now = Clock::now();
      recovery[step].push_back(MsBetween(mark, now));
      mark = now;
    };
    obs::TraceSpan span(trace.get(), "bench/recover", "bench");
    StatusOr<serve::Snapshot> snapshot = Status::Internal("not read");
    {
      obs::TraceSpan step(trace.get(), "bench/read-snapshot", "bench");
      snapshot = serve::ReadSnapshotFile(stack.options.snapshot_path);
    }
    lap("recover.read_snapshot");
    const uint64_t min_seq = snapshot.ok() ? snapshot->seq : 0;
    StatusOr<serve::JournalReplay> tail = Status::Internal("not read");
    {
      obs::TraceSpan step(trace.get(), "bench/read-journal", "bench");
      tail = serve::ReadJournal(stack.options.journal_path, min_seq);
    }
    lap("recover.read_journal");
    {
      obs::TraceSpan step(trace.get(), "bench/reset", "bench");
      serve::Replanner replanner(serve::LadderOptions{}, nullptr, nullptr);
      const Status reset =
          replanner.Reset(reference->world(), reference->plan_state());
      report.Check(reset.ok(), "Reset: " + reset.ToString());
    }
    lap("recover.reset");
  }
  std::vector<double> snapshot_ms;
  for (int i = 0; i < 5; ++i) {
    serve::Snapshot snapshot;
    snapshot.seq = reference->last_seq();
    snapshot.world = reference->world();
    snapshot.plan = reference->plan_state();
    obs::TraceSpan span(trace.get(), "bench/snapshot", "bench");
    const Clock::time_point begin = Clock::now();
    const Status written =
        serve::WriteSnapshotFile(snapshot, work_dir + "/probe.snapshot");
    snapshot_ms.push_back(MsBetween(begin, Clock::now()));
    report.Check(written.ok(), "snapshot: " + written.ToString());
  }

  const std::vector<obs::TraceEvent> events = trace->Events();
  const double m = static_cast<double>(mutations.size());
  const double tier_ms =
      SpanTotalMs(events, {"serve/tier-incremental", "serve/tier-regional",
                           "serve/tier-admission"}) / m;
  const auto mean_step = [&](const Mirror& mirror, const char* step) {
    return Mean(mirror.step_ms.at(step));
  };
  const double untraced_step_ms = Mean(untraced.total_ms);
  const double traced_step_ms = Mean(traced_mirror.total_ms);
  std::vector<double> reference_service;
  for (const Sample& sample : reference_samples) {
    reference_service.push_back(sample.service_ms);
  }
  const auto fraction = [&](auto predicate) {
    double count = 0.0;
    for (const Sample& sample : samples) count += predicate(sample) ? 1 : 0;
    return count / static_cast<double>(samples.size());
  };
  std::vector<double> submit_ms;
  std::vector<double> alloc_bytes;
  std::vector<double> allocs;
  for (const Sample& sample : samples) {
    submit_ms.push_back(sample.submit_ms);
    alloc_bytes.push_back(sample.alloc_bytes);
    allocs.push_back(sample.allocs);
  }
  report.layers = {
      {"stage.receive_ms", Mean(submit_ms)},
      {"stage.decode_ms", mean_step(traced_mirror, "apply")},
      {"stage.build_ms", mean_step(traced_mirror, "repair") - tier_ms},
      {"stage.search_ms", tier_ms},
      {"stage.check_ms", Mean(traced_mirror.check_ms)},
      {"stage.finalize_ms", mean_step(traced_mirror, "state_copy") +
                                mean_step(traced_mirror, "diff")},
      {"stage.write_ms", mean_step(traced_mirror, "journal_append")},
      {"stage.other_ms", Mean(reference_service) - untraced_step_ms},
      {"stage.alloc_mb", Mean(alloc_bytes) / 1e6},
      {"stage.allocs", Mean(allocs)},
      {"stage.write_bytes", Mean(traced_mirror.journal_bytes)},
      {"trace.coverage_frac", NamedSpanShare(events, "bench/mutation")},
      {"trace.overhead_frac", traced_step_ms / untraced_step_ms - 1.0},
      {"request.samples", static_cast<double>(samples.size())},
      {"request.wait_frac", Sum(wait) / Sum(latency)},
      {"host.steal_frac", steal},
      {"algo.dp_cells", 0.0},
      {"algo.heap_pushes", 0.0},
      {"algo.cache_hit_rate",
       traced_mirror.cache_probes > 0
           ? traced_mirror.cache_hits / traced_mirror.cache_probes
           : 0.0},
      {"algo.exact_states", 0.0},
      {"algo.exact_merges", 0.0},
      {"serve.rebuild_frac",
       fraction([](const Sample& s) { return s.repair.instance_rebuilt; })},
      {"serve.index_reuse_frac",
       fraction([](const Sample& s) { return s.repair.index_reused; })},
      {"serve.tier_incremental_frac", fraction([](const Sample& s) {
         return s.repair.tier == serve::RepairTier::kIncremental;
       })},
      {"serve.shed_frac", fraction([](const Sample& s) { return s.shed; })},
  };
  for (const auto& [step, values] : traced_mirror.step_ms) {
    detail.emplace_back("serve." + step + "_ms", Mean(values));
  }
  for (const auto& [step, values] : rebuild) {
    detail.emplace_back("serve." + step + (step.ends_with("_mb") ? "" : "_ms"),
                        Median(values));
  }
  for (const auto& [step, values] : recovery) {
    detail.emplace_back("serve." + step + "_ms", Median(values));
  }
  detail.insert(detail.end(),
                {{"serve.snapshot_ms", Median(snapshot_ms)},
                 {"serve.mirror_step_ms", untraced_step_ms},
                 {"serve.mirror_traced_step_ms", traced_step_ms},
                 {"serve.mirrored_mutations", m},
                 {"serve.world_users",
                  static_cast<double>(reference->world().num_users())},
                 {"serve.world_events",
                  static_cast<double>(reference->world().num_events())}});
  WriteTraceArtifacts(out_dir, workload, *trace, detail, &report);
  return report;
}

// Unit checks of the statistics above; returns the number of failures.
int SelfTest() {
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "self-test failed: %s\n", what);
      ++failures;
    }
  };
  expect(Median({}) == 0.0, "median of nothing");
  expect(Median({3.0, 1.0, 2.0}) == 2.0, "median of an odd count");
  expect(Median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of an even count");
  expect(TailOf(std::vector<double>(10, 1.0)).samples_beyond == 0,
         "ten samples support no tail");
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  const Tail tail = TailOf(hundred);
  expect(tail.value == 90.0 && tail.quantile == 0.9 && tail.samples_beyond == 10,
         "tail of 1..100 is 90, with 91..100 beyond");
  const Tail eleven = TailOf({5, 1, 9, 2, 8, 3, 7, 4, 6, 11, 10});
  expect(eleven.value == 1.0, "tail of eleven samples is the minimum");
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags("usep_loadgen");
  std::string* workload = flags.AddString(
      "workload", "", "solve-paper | solve-exact | serve-stream | serve-burst");
  int64_t* seed = flags.AddInt64("seed", 41, "input seed");
  double* seconds = flags.AddDouble("seconds", 15.0, "measured seconds");
  int64_t* trace = flags.AddInt64("trace", 0, "1 = add the traced pass");
  std::string* scale_name =
      flags.AddString("scale", "paper", "paper | tiny (smoke test sizes)");
  std::string* work_dir =
      flags.AddString("work_dir", "", "scratch directory for inputs/outputs");
  std::string* out_dir =
      flags.AddString("out_dir", "", "where traced runs write their artifacts");
  bool* self_test =
      flags.AddBool("self_test", false, "check the statistics and exit");
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    return parsed.code() == StatusCode::kFailedPrecondition ? 0 : 2;
  }
  if (*self_test) return SelfTest() == 0 ? 0 : 1;
  if (work_dir->empty() || out_dir->empty() ||
      (*scale_name != "paper" && *scale_name != "tiny")) {
    std::fprintf(stderr, "need --work_dir, --out_dir and a known --scale\n");
    return 2;
  }
  const Scale scale = *scale_name == "tiny" ? TinyScale() : Scale{};
  fs::create_directories(*work_dir);
  fs::create_directories(*out_dir);

  Report report;
  if (*workload == "solve-paper" || *workload == "solve-exact") {
    report = RunSolve(*workload, static_cast<uint64_t>(*seed), *seconds,
                      *trace != 0, scale, *work_dir, *out_dir);
  } else if (*workload == "serve-stream" || *workload == "serve-burst") {
    report = RunServe(*workload, static_cast<uint64_t>(*seed), *seconds,
                      *trace != 0, scale, *work_dir, *out_dir);
  } else {
    std::fprintf(stderr, "unknown --workload '%s'\n", workload->c_str());
    return 2;
  }
  WriteReport(report);
  return 0;
}
