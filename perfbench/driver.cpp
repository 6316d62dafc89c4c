// perfbench_driver: one benchmark configuration per fresh process.
//
// run.py drives this binary; every subcommand calls only the library's
// public functions, so the benchmark measures the code a user links.
//
//   perfbench_driver gen   --workload W --seed N [--size full|tiny]
//                          --out FILE.csv
//   perfbench_driver run   --workload W --seed N [--size full|tiny]
//                          --mode plain|observed|traced [--in FILE.csv]
//                          --out RESULT.json [--predict-micro]
//                          [--inject corrupt-snapshot|perturb-snapshot|
//                                    perturb-outcome]
//   perfbench_driver check --workload W --seed N [--size full|tiny]
//                          --plain P.json --observed O.json
//                          [--traced T.json]
//
// `gen` is input generation (never timed). `run` sets the workload up,
// simulates it once in the requested mode and writes one result object:
//   plain     no recorder attached (sim_group_steps_per_s);
//   observed  Recorder + profiler (+ audit trail when checkpointing), then
//             make_run_report and to_json, as mmog_simulate --report-out
//             does (sim_observed_group_steps_per_s, pipeline_s);
//   traced    observed, plus in-memory spans around every layer call this
//             file makes, written to RESULT.json.spans at exit.
// --predict-micro then drives fresh predictors from the workload's factory
// over its group series (the predict.* per-layer metrics).
// `run` writes RESULT.json plus the RunReport in RESULT.json.report.json
// (and the resumed run's in RESULT.json.resume.json). `check` compares the
// outcomes of a round's processes with obs::diff_reports, checks the step
// and prediction counts, and exits 1 on any failure.
//
// --inject exists for the benchmark's negative tests: it damages the
// serialized resume snapshot, alters the parsed one before the restore, or
// perturbs the reported outcome, so the checks must fire.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "core/run_report.hpp"
#include "core/simulation.hpp"
#include "fault/parse.hpp"
#include "obs/jsonio.hpp"
#include "obs/profiler.hpp"
#include "obs/recorder.hpp"
#include "obs/report.hpp"
#include "predict/holt_winters.hpp"
#include "predict/simple.hpp"
#include "trace/io.hpp"
#include "trace/runescape_model.hpp"
#include "util/alloccount.hpp"
#include "util/args.hpp"
#include "util/atomic_file.hpp"

using namespace mmog;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The paper_default() world size the fleet's machine counts scale from.
constexpr double kPaperGroups = 120.0;

enum class PredictorKind { kNeural, kHoltWinters, kLastValue };

/// One benchmark workload at one size. The full sizes are the benchmark;
/// the tiny sizes exist for the benchmark's own smoke tests.
struct Workload {
  std::string name;
  bool from_csv = true;         ///< input reaches the process as a CSV file
  std::size_t groups = 0;       ///< 0 = the paper's 120-group world
  std::size_t steps = 0;        ///< trace horizon in 2-minute steps
  PredictorKind predictor = PredictorKind::kLastValue;
  bool faulted = false;         ///< fault mix + resilience
  std::size_t checkpoint_every = 0;  ///< 0 = no checkpoint sink
};

Workload workload_by_name(const std::string& name, const std::string& size) {
  if (size != "full" && size != "tiny") {
    throw std::invalid_argument("unknown --size " + size + " (full|tiny)");
  }
  const bool tiny = size == "tiny";
  Workload w;
  w.name = name;
  if (name == "paper-neural") {
    w.steps = util::samples_per_days(tiny ? 2.0 : 16.0);
    w.predictor = PredictorKind::kNeural;
  } else if (name == "paper-checkpointed") {
    w.steps = util::samples_per_days(tiny ? 1.0 : 4.0);
    w.predictor = PredictorKind::kHoltWinters;
    w.checkpoint_every = 30;  // mmog_simulate's --checkpoint-every default
  } else if (name == "fleet-faulted") {
    w.from_csv = false;
    w.groups = tiny ? 600 : 10000;
    w.steps = tiny ? 240 : 720;
    w.predictor = PredictorKind::kLastValue;
    w.faulted = true;
  } else {
    throw std::invalid_argument(
        "unknown --workload " + name +
        " (paper-neural|fleet-faulted|paper-checkpointed)");
  }
  return w;
}

trace::RuneScapeModelConfig trace_config(const Workload& w,
                                         std::uint64_t seed) {
  auto cfg = trace::RuneScapeModelConfig::paper_default();
  if (w.groups > 0) cfg.scale_to_groups(w.groups);
  cfg.steps = w.steps;
  cfg.seed = seed;
  return cfg;
}

std::size_t total_groups(const trace::WorldTrace& world) {
  std::size_t n = 0;
  for (const auto& region : world.regions) n += region.groups.size();
  return n;
}

/// Sixteen fixed fault windows spread over the horizon: outages, grant
/// flaps and half-capacity losses on the busiest Table-3 centers. Fixed
/// windows keep the fault load identical across seeds, so seeds vary only
/// the player trace.
std::string fault_plan(std::size_t steps) {
  static constexpr struct {
    const char* kind;
    int dc;
    const char* extra;
  } kWindows[] = {
      {"outage", 4, ""},          {"flap", 8, ""},
      {"capacity", 12, ",keep=0.5"}, {"outage", 9, ""},
      {"flap", 13, ""},           {"capacity", 5, ",keep=0.5"},
      {"outage", 12, ""},         {"flap", 6, ""},
      {"capacity", 8, ",keep=0.5"},  {"outage", 14, ""},
      {"flap", 10, ""},           {"capacity", 11, ",keep=0.5"},
      {"outage", 7, ""},          {"flap", 4, ""},
      {"capacity", 9, ",keep=0.5"},  {"outage", 13, ""},
  };
  constexpr std::size_t kCount = std::size(kWindows);
  std::string plan;
  for (std::size_t k = 0; k < kCount; ++k) {
    const std::size_t from = (2 * k + 1) * steps / (2 * kCount + 2);
    const std::size_t len = std::max<std::size_t>(2, steps / 24);
    if (!plan.empty()) plan += ';';
    plan += std::string(kWindows[k].kind) + ":dc=" +
            std::to_string(kWindows[k].dc) + ",from=" + std::to_string(from) +
            ",to=" + std::to_string(from + len) + kWindows[k].extra;
  }
  return plan;
}

predict::PredictorFactory simple_factory(PredictorKind kind) {
  if (kind == PredictorKind::kHoltWinters) {
    return [] { return std::make_unique<predict::HoltWintersPredictor>(); };
  }
  return [] { return std::make_unique<predict::LastValuePredictor>(); };
}

/// Everything but the predictor of a workload's SimulationConfig; the
/// same knobs mmog_simulate derives from its defaults (Table-3 world, n2
/// update model, tolerance 4, safety 0.5), threads fixed at 1.
core::SimulationConfig build_config(const Workload& w,
                                    trace::WorldTrace workload) {
  core::SimulationConfig cfg;
  cfg.datacenters = dc::paper_ecosystem();
  const double factor =
      static_cast<double>(total_groups(workload)) / kPaperGroups;
  if (factor > 1.0) {
    for (auto& d : cfg.datacenters) {
      d.machines = static_cast<std::size_t>(
          std::ceil(static_cast<double>(d.machines) * factor));
    }
  }
  core::GameSpec game;
  game.name = "perfbench";
  game.load = core::LoadModel{core::UpdateModel::kQuadratic, 2000.0};
  game.latency_tolerance = dc::DistanceClass::kVeryFar;
  game.workload = std::move(workload);
  cfg.games.push_back(std::move(game));
  cfg.safety_factor = 0.5;
  cfg.threads = 1;
  if (w.faulted) {
    cfg.faults = fault::parse_fault_specs(fault_plan(w.steps));
    cfg.resilience.enabled = true;
  }
  if (w.predictor != PredictorKind::kNeural) {
    cfg.predictor = simple_factory(w.predictor);
  }
  return cfg;
}

/// In-memory span log for the traced run: name, parent, start/end and the
/// heap allocations (util::alloccount) inside each layer call. Disabled
/// logs record nothing, so untraced processes pay one branch per scope.
class SpanLog {
 public:
  struct Span {
    std::string name;
    long parent = -1;
    double start_s = 0.0;
    double end_s = 0.0;
    std::uint64_t allocs_begin = 0;
    std::uint64_t allocs_end = 0;
  };

  class Scope {
   public:
    Scope(SpanLog* log, std::string_view name) : log_(log) {
      if (log_ != nullptr) index_ = log_->open(name);
    }
    ~Scope() {
      if (log_ != nullptr) log_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    std::size_t index_ = 0;
  };

  explicit SpanLog(Clock::time_point origin) : origin_(origin) {
    spans_.reserve(4096);
    open_.reserve(16);
  }

  std::size_t open(std::string_view name) {
    Span span;
    span.name = std::string(name);
    span.parent = open_.empty() ? -1 : static_cast<long>(open_.back());
    span.allocs_begin = util::alloccount::totals().allocs;
    span.start_s = seconds_since(origin_);
    spans_.push_back(std::move(span));
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void close(std::size_t index) {
    Span& span = spans_[index];
    span.end_s = seconds_since(origin_);
    span.allocs_end = util::alloccount::totals().allocs;
    open_.pop_back();
  }

  std::string to_json() const {
    std::string out = "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (i > 0) out += ",\n";
      out += "{\"id\":" + std::to_string(i) +
             ",\"parent\":" + std::to_string(s.parent) + ",\"name\":\"";
      obs::append_json_escaped(out, s.name);
      out += "\",\"start_s\":" + obs::json_double(s.start_s) +
             ",\"end_s\":" + obs::json_double(s.end_s) + ",\"allocs\":" +
             std::to_string(s.allocs_end - s.allocs_begin) + "}";
    }
    out += "]\n";
    return out;
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

std::uint64_t file_bytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw std::runtime_error("cannot open " + path);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return size > 0 ? static_cast<std::uint64_t>(size) : 0;
}

std::string slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw std::runtime_error("cannot open " + path);
  std::string text;
  char buf[65536];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;) {
    text.append(buf, n);
  }
  std::fclose(f);
  return text;
}

void write_file(const std::string& path, const std::string& text) {
  util::AtomicFileWriter out(path);
  out.stream() << text;
  out.commit();
}

/// Checkpoint sink state: every capture is serialized in memory (no file
/// I/O), sized and timed; only the snapshot nearest the midpoint is kept
/// for the resume check.
struct CaptureLog {
  std::size_t keep_step = 0;
  std::string kept;
  std::uint64_t captures = 0;
  std::uint64_t bytes_last = 0;
  std::uint64_t bytes_total = 0;
  double serialize_s = 0.0;
};

/// Mean per-step duration (µs) and heap allocations of the profiler's
/// simulate phases, as a JSON object.
std::string phase_means_json(const obs::Snapshot& snap) {
  const auto mean = [&snap](const std::string& name) {
    const auto it = snap.histograms.find(name);
    return it == snap.histograms.end() ? 0.0 : it->second.mean();
  };
  std::string out;
  for (const std::string phase : {"step", "predict", "pad", "match",
                                  "match_commit", "replace", "account"}) {
    out += out.empty() ? "{" : ",";
    out += "\"" + phase + "_us\":" +
           obs::json_double(mean("phase." + phase + "_us")) + ",\"" + phase +
           "_allocs\":" + obs::json_double(mean("phase." + phase + "_allocs"));
  }
  return out + "}";
}

/// Drives fresh factory predictors over the workload's group series, in
/// two passes (observe only; observe then predict) so the per-call cost of
/// each comes out without a clock read per call. The sample budget bounds
/// the neural pass to about a second.
std::string predict_micro(const predict::PredictorFactory& factory,
                          const trace::WorldTrace& world) {
  constexpr std::size_t kSampleBudget = 200000;
  std::vector<std::span<const double>> series;
  std::size_t samples = 0;
  for (const auto& region : world.regions) {
    for (const auto& group : region.groups) {
      if (samples >= kSampleBudget) break;
      series.push_back(group.players.values());
      samples += group.players.size();
    }
  }
  const util::alloccount::Scope counting;
  double sink = 0.0;
  auto pass = [&](bool with_predict, double* seconds, std::uint64_t* allocs) {
    const auto a0 = util::alloccount::totals().allocs;
    const auto t0 = Clock::now();
    for (const auto s : series) {
      auto p = factory();
      for (const double v : s) {
        p->observe(v);
        if (with_predict) sink += p->predict();
      }
    }
    *seconds = seconds_since(t0);
    *allocs = util::alloccount::totals().allocs - a0;
  };
  double observe_s = 0.0;
  double both_s = 0.0;
  std::uint64_t observe_allocs = 0;
  std::uint64_t both_allocs = 0;
  pass(false, &observe_s, &observe_allocs);
  pass(true, &both_s, &both_allocs);
  if (!std::isfinite(sink)) throw std::runtime_error("non-finite prediction");
  const double calls = static_cast<double>(samples);
  const double predict_ns = std::max(0.0, both_s - observe_s) * 1e9 / calls;
  const double predict_allocs =
      static_cast<double>(both_allocs >= observe_allocs
                              ? both_allocs - observe_allocs
                              : 0) /
      calls;
  return "{\"calls\":" + std::to_string(samples) +
         ",\"observe_ns\":" + obs::json_double(observe_s * 1e9 / calls) +
         ",\"predict_ns\":" + obs::json_double(predict_ns) +
         ",\"observe_allocs_per_call\":" +
         obs::json_double(static_cast<double>(observe_allocs) / calls) +
         ",\"allocs_per_call\":" + obs::json_double(predict_allocs) + "}";
}

int cmd_gen(const util::Args& args) {
  const Workload w = workload_by_name(args.get("workload", ""),
                                      args.get("size", "full"));
  const auto out = args.get("out", "");
  if (out.empty()) throw std::invalid_argument("gen needs --out");
  if (!w.from_csv) {
    throw std::invalid_argument(w.name + " takes its trace in memory");
  }
  const auto seed = static_cast<std::uint64_t>(args.get_long("seed", 1));
  trace::write_world_csv_file(out, trace::generate(trace_config(w, seed)));
  return 0;
}

int cmd_run(const util::Args& args) {
  const auto process_start = Clock::now();
  const Workload w = workload_by_name(args.get("workload", ""),
                                      args.get("size", "full"));
  const auto seed = static_cast<std::uint64_t>(args.get_long("seed", 1));
  const auto mode = args.get("mode", "");
  if (mode != "plain" && mode != "observed" && mode != "traced") {
    throw std::invalid_argument("unknown --mode " + mode);
  }
  const auto out_path = args.get("out", "");
  if (out_path.empty()) throw std::invalid_argument("run needs --out");
  const auto inject = args.get("inject", "");
  if (!inject.empty() && inject != "corrupt-snapshot" &&
      inject != "perturb-snapshot" && inject != "perturb-outcome") {
    throw std::invalid_argument("unknown --inject " + inject);
  }
  const bool observed = mode != "plain";
  const bool traced = mode == "traced";

  // Spans need allocation counts, so the traced process counts from start.
  std::unique_ptr<util::alloccount::Scope> counting;
  if (traced) counting = std::make_unique<util::alloccount::Scope>();
  SpanLog log(process_start);
  SpanLog* spans = traced ? &log : nullptr;
  auto root = std::make_unique<SpanLog::Scope>(spans, "bench.process");

  // Input generation: untimed, outside every measured quantity. The
  // generated trace is handed to the config by move, never copied.
  trace::WorldTrace world;
  if (!w.from_csv) {
    const SpanLog::Scope span(spans, "input.generate");
    world = trace::generate(trace_config(w, seed));
  }

  // ---- setup: ingest, training, config build --------------------------
  double read_s = 0.0;
  double train_s = 0.0;
  std::uint64_t read_bytes = 0;
  std::uint64_t read_rss_rise_kb = 0;
  const auto setup_start = Clock::now();
  if (w.from_csv) {
    const auto in_path = args.get("in", "");
    if (in_path.empty()) throw std::invalid_argument(w.name + " needs --in");
    const std::uint64_t rss_before = obs::current_rss_kb();
    const auto t0 = Clock::now();
    {
      const SpanLog::Scope span(spans, "trace.read");
      world = trace::read_world_csv_file(in_path);
    }
    read_s = seconds_since(t0);
    const std::uint64_t peak = obs::current_peak_rss_kb();
    read_rss_rise_kb = peak > rss_before ? peak - rss_before : 0;
    read_bytes = file_bytes(in_path);
  }
  core::SimulationConfig cfg = build_config(w, std::move(world));
  if (w.predictor == PredictorKind::kNeural) {
    // As mmog_simulate trains it: 1-day lead-in, 6 groups, 40 eras,
    // patience 8.
    predict::NeuralConfig ncfg;
    ncfg.train.max_eras = 40;
    ncfg.train.patience = 8;
    const auto t0 = Clock::now();
    std::shared_ptr<const predict::NeuralModel> model;
    {
      const SpanLog::Scope span(spans, "nn.train");
      model = core::neural_model_from_workload(
          cfg.games[0].workload, util::samples_per_days(1.0), ncfg, 6);
    }
    train_s = seconds_since(t0);
    cfg.predictor = core::neural_factory_from_model(std::move(model));
  }
  const double setup_s = seconds_since(setup_start);
  const std::size_t groups = total_groups(cfg.games[0].workload);
  const std::size_t steps_expected = cfg.games[0].workload.steps();

  // ---- simulate ---------------------------------------------------------
  std::unique_ptr<obs::Recorder> recorder;
  if (observed) {
    recorder = std::make_unique<obs::Recorder>(obs::TraceLevel::kOff);
    recorder->enable_profiler();
    // mmog_simulate keeps the audit trail on whenever it checkpoints.
    if (w.checkpoint_every > 0) recorder->enable_audit();
    cfg.recorder = recorder.get();
  }
  CaptureLog captures;
  if (w.checkpoint_every > 0) {
    const std::size_t every = w.checkpoint_every;
    captures.keep_step = std::max<std::size_t>(
        every, (steps_expected / 2 + every / 2) / every * every);
    cfg.checkpoint_every_steps = every;
    obs::Recorder* rec = recorder.get();
    cfg.checkpoint_sink = [&captures, rec,
                           spans](const core::CheckpointState& st) {
      const auto t0 = Clock::now();
      std::string text;
      {
        const SpanLog::Scope span(spans, "ckpt.serialize");
        ckpt::CheckpointFile file;
        file.state = st;
        text = ckpt::to_jsonl(file);
      }
      captures.serialize_s += seconds_since(t0);
      ++captures.captures;
      captures.bytes_last = text.size();
      captures.bytes_total += text.size();
      if (st.next_step == captures.keep_step) captures.kept = std::move(text);
      if (rec != nullptr) rec->note_checkpoint(st.next_step);
    };
  }

  const auto sim_start = Clock::now();
  core::SimulationResult result;
  {
    const SpanLog::Scope span(spans, "core.simulate");
    result = core::simulate(cfg);
  }
  const double sim_s = seconds_since(sim_start);

  const std::map<std::string, std::string> echo = {
      {"workload", w.name}, {"seed", std::to_string(seed)}};
  const auto report_start = Clock::now();
  obs::RunReport report;
  std::string report_json;
  {
    const SpanLog::Scope span(spans, "obs.report");
    report = core::make_run_report(cfg, result, "perfbench", mode, sim_s,
                                   echo);
    report_json = report.to_json();
  }
  const double report_s = seconds_since(report_start);
  const double pipeline_s = setup_s + sim_s + report_s;
  std::string profile_json = "{}";
  if (recorder) profile_json = phase_means_json(recorder->snapshot());
  if (inject == "perturb-outcome" && mode == "observed") {
    report.outcome.total_cost = std::nextafter(report.outcome.total_cost, 0.0);
    report_json = report.to_json();
  }

  // ---- resume from the snapshot nearest the midpoint -------------------
  std::string resume_json;
  double parse_s = 0.0;
  double restore_s = 0.0;
  if (w.checkpoint_every > 0) {
    if (captures.kept.empty()) {
      throw std::runtime_error("no snapshot captured at step " +
                               std::to_string(captures.keep_step));
    }
    if (inject == "corrupt-snapshot") {
      captures.kept[captures.kept.size() / 2] ^= 0x01;
    }
    const auto t0 = Clock::now();
    ckpt::CheckpointFile loaded;
    {
      const SpanLog::Scope span(spans, "ckpt.parse");
      loaded = ckpt::parse_jsonl(captures.kept);
    }
    parse_s = seconds_since(t0);
    if (inject == "perturb-snapshot") loaded.state.total_cost += 1.0;
    std::unique_ptr<obs::Recorder> resume_recorder;
    if (observed) {
      resume_recorder = std::make_unique<obs::Recorder>(obs::TraceLevel::kOff);
      resume_recorder->enable_profiler();
      resume_recorder->enable_audit();
    }
    cfg.recorder = resume_recorder.get();
    cfg.checkpoint_every_steps = 0;
    cfg.checkpoint_sink = nullptr;
    cfg.restore_from = &loaded.state;
    const auto t1 = Clock::now();
    {
      const SpanLog::Scope span(spans, "core.resume");
      const auto resumed = core::simulate(cfg);
      resume_json = core::make_run_report(cfg, resumed, "perfbench", mode,
                                          0.0, echo)
                        .to_json();
    }
    restore_s = seconds_since(t1);
    cfg.restore_from = nullptr;
    // A restore that silently did nothing would re-simulate from step 0
    // and still match the uninterrupted outcome; the resumed run must
    // have stepped exactly the steps after the snapshot.
    if (resume_recorder) {
      const auto snap = resume_recorder->snapshot();
      const auto it = snap.histograms.find("phase.step_us");
      const std::uint64_t stepped =
          it == snap.histograms.end() ? 0 : it->second.count;
      if (stepped != steps_expected - captures.keep_step) {
        throw std::runtime_error(
            "resume stepped " + std::to_string(stepped) + " steps, expected " +
            std::to_string(steps_expected - captures.keep_step) +
            " after the snapshot at step " +
            std::to_string(captures.keep_step));
      }
    }
  }

  std::string micro_json = "null";
  if (args.has("predict-micro")) {
    micro_json = predict_micro(cfg.predictor, cfg.games[0].workload);
  }
  root.reset();

  std::string out = "{\"workload\":\"" + w.name + "\",\"mode\":\"" + mode +
                    "\",\"seed\":" + std::to_string(seed) +
                    ",\"groups\":" + std::to_string(groups) +
                    ",\"steps_expected\":" + std::to_string(steps_expected) +
                    ",\"setup_s\":" + obs::json_double(setup_s) +
                    ",\"read_s\":" + obs::json_double(read_s) +
                    ",\"read_bytes\":" + std::to_string(read_bytes) +
                    ",\"read_rss_rise_kib\":" +
                    std::to_string(read_rss_rise_kb) +
                    ",\"train_s\":" + obs::json_double(train_s) +
                    ",\"sim_s\":" + obs::json_double(sim_s) +
                    ",\"report_s\":" + obs::json_double(report_s) +
                    ",\"pipeline_s\":" + obs::json_double(pipeline_s) +
                    ",\"peak_rss_kib\":" +
                    std::to_string(obs::current_peak_rss_kb()) +
                    ",\"ckpt\":{\"captures\":" +
                    std::to_string(captures.captures) +
                    ",\"bytes_last\":" + std::to_string(captures.bytes_last) +
                    ",\"bytes_total\":" +
                    std::to_string(captures.bytes_total) +
                    ",\"serialize_s\":" +
                    obs::json_double(captures.serialize_s) +
                    ",\"parse_s\":" + obs::json_double(parse_s) +
                    ",\"restore_s\":" + obs::json_double(restore_s) +
                    "},\"profile\":" + profile_json +
                    ",\"predict\":" + micro_json + "}\n";
  write_file(out_path, out);
  write_file(out_path + ".report.json", report_json + "\n");
  if (!resume_json.empty()) {
    write_file(out_path + ".resume.json", resume_json + "\n");
  }
  if (traced) write_file(out_path + ".spans", log.to_json());
  return 0;
}

obs::RunReport read_report(const std::string& path) {
  return obs::RunReport::parse(slurp(path));
}

/// Fails (returns false) with the differences on stderr.
bool same_outcome(const char* what, const obs::RunReport& a,
                  const obs::RunReport& b) {
  const obs::DiffResult diff = obs::diff_reports(a, b);
  if (diff.outcome_identical) return true;
  std::fprintf(stderr, "perfbench check: %s differ:\n", what);
  for (const auto& note : diff.notes) {
    std::fprintf(stderr, "  %s\n", note.c_str());
  }
  return false;
}

/// Counters and the audit-record count only exist with a recorder
/// attached; comparing a plain run against an observed one leaves them out.
obs::RunReport without_observation(obs::RunReport report) {
  report.outcome.counters.clear();
  report.outcome.audit_records = 0;
  return report;
}

int cmd_check(const util::Args& args) {
  const Workload w = workload_by_name(args.get("workload", ""),
                                      args.get("size", "full"));
  const auto plain_path = args.get("plain", "");
  const auto observed_path = args.get("observed", "");
  const auto traced_path = args.get("traced", "");
  if (plain_path.empty() || observed_path.empty()) {
    throw std::invalid_argument("check needs --plain and --observed");
  }
  const auto plain = read_report(plain_path + ".report.json");
  const auto observed = read_report(observed_path + ".report.json");
  bool ok = same_outcome("plain and observed outcomes",
                         without_observation(plain),
                         without_observation(observed));
  for (const auto* r : {&plain, &observed}) {
    if (r->outcome.steps != w.steps) {
      std::fprintf(stderr, "perfbench check: %llu steps simulated, %zu "
                   "expected\n",
                   static_cast<unsigned long long>(r->outcome.steps),
                   w.steps);
      ok = false;
    }
  }
  // Every group is predicted once per step, and the under-allocation
  // counter agrees with the outcome's significant-event count.
  const auto counter = [&observed](const char* name) {
    const auto it = observed.outcome.counters.find(name);
    return it == observed.outcome.counters.end() ? 0.0 : it->second;
  };
  const double groups = static_cast<double>(
      trace_config(w, static_cast<std::uint64_t>(args.get_long("seed", 1)))
          .total_groups());
  if (counter("predict.issued") != groups * static_cast<double>(w.steps)) {
    std::fprintf(stderr, "perfbench check: predict.issued %.0f, expected "
                 "%.0f groups x %zu steps\n",
                 counter("predict.issued"), groups, w.steps);
    ok = false;
  }
  const double events = static_cast<double>(observed.outcome.significant_events);
  if (counter("event.under_allocation") != events) {
    std::fprintf(stderr, "perfbench check: event.under_allocation %.0f != "
                 "%.0f significant events\n",
                 counter("event.under_allocation"), events);
    ok = false;
  }
  std::vector<std::string> runs = {plain_path, observed_path};
  if (!traced_path.empty()) {
    ok = same_outcome("observed and traced outcomes", observed,
                      read_report(traced_path + ".report.json")) && ok;
    runs.push_back(traced_path);
  }
  if (w.checkpoint_every > 0) {
    for (const auto& path : runs) {
      ok = same_outcome("resumed and uninterrupted outcomes",
                        read_report(path + ".report.json"),
                        read_report(path + ".resume.json")) && ok;
    }
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const std::string cmd =
      args.positional().empty() ? std::string() : args.positional().front();
  try {
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "run") return cmd_run(args);
    if (cmd == "check") return cmd_check(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "usage: %s gen|run|check [options]\n",
               args.program().c_str());
  return 2;
}
