// perfbench_runner: runs one benchmark workload against the simulator
// library and prints one JSON result line.  perfbench/run.py builds this
// binary, generates the seeded inputs and forwards the result; see
// perfbench/README.md for the workloads and metrics.
//
//   perfbench_runner --workload paper_suite --root . --seed 1 --seconds 15
//                    --trace 0 [--inputs DIR] [--trace-out FILE]
//                    [--git-describe STR] [--expected-dir DIR]
//                    [--only a,b] [--max-cases N]
//
// Closed loop, one client: every case runs alone, one after another, at one
// job and solver_threads 1.  Each case (each spec on paper_suite) runs in a
// forked process under a budget (budget.hpp); a case that fails, checks
// wrong or overruns is counted failed and charged the full budget.  A wrong
// output makes the result incorrect and the exit code 1.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "budget.hpp"
#include "drivers.hpp"
#include "metrics/experiment.hpp"
#include "obs/profiler.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "spans.hpp"
#include "util/json.hpp"
#include "util/rss.hpp"
#include "workflow/simulation.hpp"
#include "workload/workload.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using pcs::util::Json;
using pcs::util::JsonArray;
using pcs::util::JsonObject;

constexpr double kHardLimitS = 150.0;  ///< the whole run stays well under 180 s

struct Options {
  std::string workload;
  std::string root = ".";
  std::string inputs;
  std::string trace_out;
  std::string git_describe = "unknown";
  std::string expected_dir;
  std::set<std::string> only;
  std::size_t max_cases = 0;  ///< 0 = all
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::string fnv1a_hex(const std::string& data) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : data) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// The layer that owns a case's host time, by simulator kind.
std::string layer_of(const std::string& simulator) {
  if (simulator == "wrench_cache") return "pagecache";
  if (simulator == "reference") return "refmodel";
  if (simulator == "prototype") return "proto";
  return "workflow";  // cacheless wrench: workflow + storage over the engine
}

double last_gauge(const Json& timeline, const std::string& name) {
  if (!timeline.is_object() || !timeline.contains("metrics")) return 0.0;
  const Json& metrics = timeline.at("metrics");
  if (!metrics.contains(name)) return 0.0;
  const JsonArray& column = metrics.at(name).as_array();
  return column.empty() ? 0.0 : column.back().as_number();
}

/// Aggregate engine sections laid out as child spans of a case span.
void add_profile_spans(SpanRecorder& rec, const pcs::obs::EngineProfile& p, double start,
                       int parent) {
  const int rr = rec.add({"simcore.recompute_rates", "simcore", start,
                          start + p.recompute_rates.seconds, parent, true});
  double t = start;
  for (const auto& [name, section] :
       {std::pair{"simcore.bfs", &p.bfs}, std::pair{"simcore.solve", &p.solve},
        std::pair{"simcore.merge", &p.merge}}) {
    rec.add({name, "simcore", t, t + section->seconds, rr, true});
    t += section->seconds;
  }
}

Json profile_json(const pcs::obs::EngineProfile& p) {
  Json j(JsonObject{});
  j.set("recompute_rates", p.recompute_rates.seconds);
  j.set("bfs", p.bfs.seconds);
  j.set("solve", p.solve.seconds);
  j.set("dispatch", p.dispatch.seconds);
  return j;
}

// --- per-pass bookkeeping ----------------------------------------------------

struct Pass {
  double real_s = 0.0;     ///< parent-observed
  double work = 0.0;       ///< workflow tasks completed
  /// Per unit (case, or spec on paper_suite): charged seconds and work.
  std::map<std::string, std::pair<double, double>> units;
  std::map<std::string, bool> cases;  ///< case -> completed correctly in budget
  std::vector<std::string> wrong;  ///< correctness violations
  std::map<std::string, double> sum;  ///< per-layer counters and times
  std::vector<double> err_samples;    ///< model_err_pct inputs
  std::map<std::string, std::pair<std::string, double>> case_times;  ///< label -> (sim, s)
  int root_span = -1;

  void charge(const std::string& unit, double seconds, double done) {
    work += done;
    units[unit].first += seconds;
    units[unit].second += done;
  }

  void fail(const std::string& name, const std::string& why, double charged) {
    cases[name] = false;
    charge(name, charged, 0.0);
    sum["charged_s"] += charged;
    std::cerr << "[perfbench] case failed: " << name << why << "\n";
  }
};

class Workload {
 public:
  explicit Workload(const Options& o) : opt_(o) {}
  virtual ~Workload() = default;
  /// Parse and validate the inputs (the timed set-up phase).
  virtual void setup() = 0;
  /// One measured pass over every case.
  virtual Pass pass(SpanRecorder& rec, bool traced) = 0;
  /// Inputs for the manifest: name -> content hash.
  virtual Json input_hashes() const = 0;
  /// Work done between passes in a traced run, outside the pass (twins).
  virtual void after_traced_pass(Pass&) {}

 protected:
  /// A unit without a result (over budget or crashed) still spent its time
  /// in the layer it was driving: charge the whole unit interval to it.
  static void charge_unit(SpanRecorder& rec, int unit, const std::string& name,
                          const std::string& layer) {
    if (unit < 0) return;
    const Span& u = rec.spans()[static_cast<std::size_t>(unit)];
    rec.add({name + " (no result)", layer, u.start, u.end, unit, false});
  }

  /// Budget left before the run's hard limit, capped at `budget`.
  double budget_left(double budget) const {
    return std::max(0.0, std::min(budget, start_ + kHardLimitS - now_s()));
  }
  const Options& opt_;
  double start_ = now_s();
};

// --- paper_suite ---------------------------------------------------------------

class PaperSuite : public Workload {
 public:
  static constexpr double kCaseBudgetS = 10.0;

  explicit PaperSuite(const Options& o) : Workload(o) {
    for (const auto& entry : fs::directory_iterator(fs::path(o.root) / "experiments")) {
      const std::string name = entry.path().filename().string();
      if (entry.path().extension() != ".json" || name.find(".expected.") != std::string::npos) {
        continue;
      }
      const std::string stem = entry.path().stem().string();
      if (!o.only.empty() && o.only.count(stem) == 0) continue;
      Spec s;
      s.name = stem;
      s.path = entry.path().string();
      const std::string expected =
          o.expected_dir.empty()
              ? pcs::metrics::ExperimentSpec::expected_path_for(s.path)
              : (fs::path(o.expected_dir) / (stem + ".expected.json")).string();
      s.expected = read_file(expected);
      specs_.push_back(std::move(s));
    }
    std::sort(specs_.begin(), specs_.end(),
              [](const Spec& a, const Spec& b) { return a.name < b.name; });
    if (specs_.empty()) throw std::runtime_error("no experiment specs found");
    setup();
    count_tasks();
  }

  void setup() override {
    for (Spec& s : specs_) {
      s.spec = pcs::metrics::ExperimentSpec::from_file(s.path);
      s.simulator.clear();
      for (const pcs::scenario::SweepCase& c : s.spec.sweep.expand()) {
        s.simulator[c.label] =
            pcs::scenario::ScenarioSpec::parse(c.doc, s.spec.sweep.base_dir).simulator;
      }
    }
  }

  Json input_hashes() const override {
    Json j(JsonObject{});
    for (const Spec& s : specs_) {
      j.set("experiments/" + s.name + ".json", fnv1a_hex(read_file(s.path)));
      j.set("experiments/" + s.name + ".expected.json", fnv1a_hex(s.expected));
    }
    return j;
  }

  Pass pass(SpanRecorder& rec, bool traced) override {
    Pass p;
    const double t0 = now_s();
    p.root_span = rec.open("pass:paper_suite", "bench", -1);
    for (const Spec& s : specs_) {
      const std::size_t n_cases = s.simulator.size();
      p.sum["scenario.cases"] += static_cast<double>(n_cases);
      const double budget = kCaseBudgetS * static_cast<double>(n_cases);
      const int unit = rec.open("unit:" + s.name, "bench", p.root_span);
      const UnitResult r =
          run_budgeted(budget_left(budget), [&] { return run_spec(s, traced); });
      rec.close(unit);
      if (!r.ok()) {
        charge_unit(rec, unit, "spec:" + s.name, "metrics");
        const std::string why = r.status == UnitResult::Status::Timeout ? " (over budget)" : ": " + r.error;
        for (const auto& [label, sim] : s.simulator) {
          p.fail(s.name + "/" + label, why, kCaseBudgetS);
        }
        continue;
      }
      const Json& b = r.body;
      rec.adopt(b.at("spans"), unit);
      // Units are the cases plus the spec's report step, so the per-unit
      // minimum works at case granularity.
      p.charge(s.name + "#report", b.at("report_s").as_number(), 0.0);
      p.sum["metrics.report_s"] += b.at("report_s").as_number();
      // A report that differs from its expected file fails every case of
      // the spec: the report is their joint output.
      const bool match = b.at("match").as_bool();
      if (!match) p.wrong.push_back(s.name + ": report differs from its expected file");
      for (const Json& c : b.at("cases").as_array()) {
        const std::string& label = c.at("label").as_string();
        const std::string& sim = s.simulator.at(label);
        const double t = c.at("wall").as_number();
        const std::string name = s.name + "/" + label;
        if (!match || !c.at("ok").as_bool() || t > kCaseBudgetS) {
          p.fail(name, match ? "" : " (report mismatch)", std::max(t, kCaseBudgetS));
          continue;
        }
        p.cases[name] = true;
        p.charge(name, t, static_cast<double>(s.tasks.at(label)));
        p.sum[layer_of(sim) + ".case_s"] += t;
        p.case_times[name] = {sim, t};
      }
      for (const Json& e : b.at("err_samples").as_array()) p.err_samples.push_back(e.as_number());
    }
    rec.close(p.root_span);
    p.real_s = now_s() - t0;
    p.sum["pagecache.overhead_s"] = cache_overhead(p);
    p.sum["workflow.tasks_completed"] = p.work;
    return p;
  }

 private:
  struct Spec {
    std::string name;
    std::string path;
    std::string expected;
    pcs::metrics::ExperimentSpec spec;
    std::map<std::string, std::string> simulator;  ///< case label -> simulator
    std::map<std::string, std::size_t> tasks;      ///< case label -> workflow tasks
  };

  /// Workflow tasks per case, from the case's workload document (work
  /// size bookkeeping, outside every timed phase).
  void count_tasks() {
    for (Spec& s : specs_) {
      for (const pcs::scenario::SweepCase& c : s.spec.sweep.expand()) {
        const auto spec = pcs::scenario::ScenarioSpec::parse(c.doc, s.spec.sweep.base_dir);
        pcs::wf::Simulation sim;
        std::size_t n = 0;
        for (auto& inst : pcs::workload::build_workload(sim, spec.workload, "", spec.base_dir)) {
          pcs::wf::Workflow* wf = inst.workflow != nullptr ? inst.workflow : inst.materialize();
          n += wf->task_count();
        }
        s.tasks[c.label] = n;
      }
    }
  }

  /// Runs in the case process: the experiment, its report bytes and the
  /// byte-compare against the expected file.
  Json run_spec(const Spec& s, bool traced) const {
    SpanRecorder rec(traced);
    Json cases(JsonArray{});
    const int root = rec.open("spec:" + s.name, "metrics", -1);
    double mark = now_s();  // after the open, so the first case nests in it
    pcs::metrics::ExperimentOptions eo;
    eo.jobs = 1;
    eo.progress = [&](std::size_t, std::size_t, const std::string& label) {
      const double t = now_s();
      Json c(JsonObject{});
      c.set("label", label);
      c.set("wall", t - mark);
      c.set("ok", true);
      cases.push_back(std::move(c));
      rec.add({"case:" + label, layer_of(s.simulator.at(label)), mark, t, root, false});
      mark = t;
    };
    const pcs::metrics::ExperimentReport report = pcs::metrics::run_experiment(s.spec, eo);
    const int rep = rec.open("metrics.report", "metrics", root);
    const double r0 = mark;
    const std::string text = report.json.dump(2) + "\n";
    const bool match = text == s.expected && report.cases_ok && report.checks_ok;
    rec.close(rep);
    rec.close(root);
    const double t1 = now_s();

    // A case the experiment layer recorded as errored is a failed case.
    std::set<std::string> errored;
    for (const Json& c : report.json.at("cases").as_array()) {
      if (c.contains("error")) errored.insert(c.at("label").as_string());
    }
    for (Json& c : cases.as_array()) {
      if (errored.count(c.at("label").as_string()) != 0) c.set("ok", false);
    }
    Json out(JsonObject{});
    out.set("report_s", t1 - r0);
    out.set("match", match);
    out.set("cases", std::move(cases));
    out.set("err_samples", model_errors(s.name, report.json));
    out.set("spans", rec.to_json());
    return out;
  }

  /// |wrench_cache - reference| / reference over the phase times of the
  /// accuracy figures, pairing cases that differ only in the simulator.
  static Json model_errors(const std::string& name, const Json& report) {
    Json out(JsonArray{});
    if (name != "fig4a" && name != "fig5" && name != "fig7") return out;
    std::map<std::string, const Json*> reference;
    for (const Json& c : report.at("cases").as_array()) {
      const std::string& label = c.at("label").as_string();
      if (label.rfind("reference,", 0) == 0) reference[label.substr(10)] = &c.at("values");
    }
    for (const Json& c : report.at("cases").as_array()) {
      const std::string& label = c.at("label").as_string();
      if (label.rfind("wrench_cache,", 0) != 0) continue;
      auto ref = reference.find(label.substr(13));
      if (ref == reference.end()) continue;
      for (const auto& [key, v] : c.at("values").as_object()) {
        const bool phase = (key.rfind("read", 0) == 0 || key.rfind("write", 0) == 0) &&
                           key.size() > 2 && key.compare(key.size() - 2, 2, "_s") == 0;
        if (!phase || !v.is_number() || !ref->second->contains(key)) continue;
        const double r = ref->second->at(key).as_number();
        if (r != 0.0) out.push_back(std::abs(v.as_number() - r) / std::abs(r) * 100.0);
      }
    }
    return out;
  }

  /// Fig 8 from outside: wrench_cache case time minus its cacheless twin
  /// (same label with the simulator part swapped).
  static double cache_overhead(const Pass& p) {
    double total = 0.0;
    for (const auto& [key, v] : p.case_times) {
      if (v.first != "wrench_cache") continue;
      const std::size_t at = key.find("wrench_cache");
      if (at == std::string::npos) continue;
      std::string twin = key;
      twin.replace(at, 12, "wrench");
      auto it = p.case_times.find(twin);
      if (it != p.case_times.end() && it->second.first == "wrench") total += v.second - it->second.second;
    }
    return total;
  }

  std::vector<Spec> specs_;
};

// --- cache_reread / cache_writeback ---------------------------------------------

class CacheWorkload : public Workload {
 public:
  CacheWorkload(const Options& o, double case_budget_s) : Workload(o), budget_(case_budget_s) {
    if (o.inputs.empty()) throw std::runtime_error(o.workload + " needs --inputs");
    std::vector<fs::path> files;
    for (const auto& entry : fs::directory_iterator(o.inputs)) {
      if (entry.path().extension() == ".json") files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    // Quick mode keeps the last (largest) cases.
    if (o.max_cases > 0 && files.size() > o.max_cases) {
      files.erase(files.begin(), files.end() - static_cast<std::ptrdiff_t>(o.max_cases));
    }
    if (files.empty()) throw std::runtime_error("no generated inputs in " + o.inputs);
    for (const fs::path& f : files) {
      Case c;
      c.name = f.stem().string();
      c.text = read_file(f);
      const Json doc = Json::parse(c.text);
      for (const Json& t : doc.at("workload").at("workflow").at("tasks").as_array()) {
        ++c.tasks;
        for (const Json& in : t.at("inputs").as_array()) c.read_bytes += in.at("size").as_number();
        for (const Json& out : t.at("outputs").as_array()) {
          c.write_bytes += out.at("size").as_number();
        }
      }
      cases_.push_back(std::move(c));
    }
    setup();
  }

  void setup() override {
    for (Case& c : cases_) {
      c.spec = pcs::scenario::ScenarioSpec::parse(Json::parse(c.text), opt_.root);
    }
  }

  Json input_hashes() const override {
    Json j(JsonObject{});
    for (const Case& c : cases_) j.set(c.name + ".json", fnv1a_hex(c.text));
    return j;
  }

  Pass pass(SpanRecorder& rec, bool traced) override {
    Pass p;
    const double t0 = now_s();
    p.root_span = rec.open("pass:" + opt_.workload, "bench", -1);
    for (Case& c : cases_) {
      p.sum["scenario.cases"] += 1.0;
      const int unit = rec.open("unit:" + c.name, "bench", p.root_span);
      const UnitResult r = run_budgeted(budget_left(budget_), [&] { return run_case(c.spec, traced); });
      rec.close(unit);
      c.charged = budget_;
      if (!r.ok()) {
        charge_unit(rec, unit, "case:" + c.name, layer_of(c.spec.simulator));
        p.fail(c.name, r.status == UnitResult::Status::Timeout ? " (over budget)" : ": " + r.error,
               budget_);
        continue;
      }
      const Json& b = r.body;
      rec.adopt(b.at("spans"), unit);
      const double wall = b.at("wall").as_number();
      // Correctness: every task completed and the storage service saw
      // exactly the generated traffic.
      const bool complete = b.at("tasks").as_number() == static_cast<double>(c.tasks) &&
                            b.at("failed_tasks").as_number() == 0.0;
      const bool traffic = near(b.at("read_bytes").as_number(), c.read_bytes) &&
                           near(b.at("write_bytes").as_number(), c.write_bytes);
      if (!complete || !traffic) {
        p.wrong.push_back(c.name + (complete ? ": storage traffic differs from the generated totals"
                                             : ": not every task completed"));
        p.fail(c.name, " (wrong output)", budget_);
        continue;
      }
      c.charged = wall;
      p.cases[c.name] = true;
      p.charge(c.name, wall, static_cast<double>(c.tasks));
      p.sum["pagecache.case_s"] += wall;
      for (const char* key : {"hit_bytes", "miss_bytes", "flushed_bytes", "evicted_bytes"}) {
        p.sum[std::string("pagecache.") + key] += b.at(key).as_number();
      }
      p.sum["storage.read_bytes"] += b.at("read_bytes").as_number();
      p.sum["storage.write_bytes"] += b.at("write_bytes").as_number();
      p.sum["simcore.scheduling_points"] += b.at("points").as_number();
      p.sum["simcore.fair_share_solves"] += b.at("solves").as_number();
      p.sum["simcore.components_solved"] += b.at("components").as_number();
      p.sum["pagecache.max_blocks"] =
          std::max(p.sum["pagecache.max_blocks"], b.at("blocks").as_number());
      if (traced) {
        const Json& prof = b.at("profile");
        p.sum["simcore.recompute_rates_s"] += prof.at("recompute_rates").as_number();
        p.sum["simcore.bfs_s"] += prof.at("bfs").as_number();
        p.sum["simcore.solve_s"] += prof.at("solve").as_number();
        p.sum["simcore.dispatch_s"] += prof.at("dispatch").as_number();
      }
    }
    rec.close(p.root_span);
    p.real_s = now_s() - t0;
    p.sum["workflow.tasks_completed"] = p.work;
    return p;
  }

  /// The cacheless twin of every case, for pagecache.overhead_s.
  void after_traced_pass(Pass& p) override {
    double overhead = 0.0;
    for (const Case& c : cases_) {
      Json doc = Json::parse(c.text);
      doc.set("simulator", "wrench");
      const auto twin = pcs::scenario::ScenarioSpec::parse(doc, opt_.root);
      const UnitResult r = run_budgeted(budget_left(budget_), [&] { return run_case(twin, false); });
      overhead += c.charged - (r.ok() ? r.body.at("wall").as_number() : budget_);
    }
    p.sum["pagecache.overhead_s"] = overhead;
  }

 private:
  struct Case {
    std::string name;
    std::string text;
    pcs::scenario::ScenarioSpec spec;
    std::size_t tasks = 0;
    double read_bytes = 0.0;
    double write_bytes = 0.0;
    double charged = 0.0;  ///< last traced pass: case time or the budget
  };

  static bool near(double a, double b) { return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b)); }

  /// Runs in the case process.
  static Json run_case(const pcs::scenario::ScenarioSpec& spec, bool traced) {
    SpanRecorder rec(traced);
    pcs::obs::EngineProfile prof;
    pcs::scenario::RunOptions ro;
    if (traced) ro.profile = &prof;
    const double t0 = now_s();
    const pcs::scenario::RunResult res = pcs::scenario::run_scenario(spec, ro);
    const double t1 = now_s();
    const int span = rec.add({"case:" + spec.name, layer_of(spec.simulator), t0, t1, -1, false});
    if (traced) add_profile_spans(rec, prof, t0, span);
    const std::string svc = spec.default_service + "/";
    Json out(JsonObject{});
    out.set("wall", t1 - t0);
    out.set("tasks", static_cast<unsigned long>(res.tasks.size()));
    out.set("failed_tasks", static_cast<unsigned long>(res.failed.size()));
    out.set("read_bytes", last_gauge(res.timeline, svc + "read_bytes"));
    out.set("write_bytes", last_gauge(res.timeline, svc + "write_bytes"));
    out.set("hit_bytes", last_gauge(res.timeline, svc + "hit_bytes"));
    out.set("miss_bytes", last_gauge(res.timeline, svc + "miss_bytes"));
    out.set("flushed_bytes", last_gauge(res.timeline, svc + "flushed_bytes"));
    out.set("evicted_bytes", last_gauge(res.timeline, svc + "evicted_bytes"));
    out.set("points", static_cast<unsigned long>(res.scheduling_points));
    out.set("solves", static_cast<unsigned long>(res.fair_share_solves));
    out.set("components", static_cast<unsigned long>(res.components_solved));
    out.set("blocks", static_cast<unsigned long>(res.final_inactive_blocks + res.final_active_blocks));
    out.set("profile", profile_json(prof));
    out.set("spans", rec.to_json());
    return out;
  }

  double budget_;
  std::vector<Case> cases_;
};

// --- metrics -------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
};

const std::vector<Metric>& end_to_end_metrics() {
  static const std::vector<Metric> m = {
      {"wall_s", "s"}, {"ops_per_s", "1/s"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"}};
  return m;
}

const std::vector<Metric>& per_layer_metrics() {
  static const std::vector<Metric> m = {
      {"fail_ratio", "ratio"},
      {"charged_s", "s"},
      {"model_err_pct", "%"},
      {"scenario.parse_s", "s"},
      {"scenario.cases", "count"},
      {"metrics.report_s", "s"},
      {"metrics.self_s", "s"},
      {"simcore.scheduling_points", "count"},
      {"simcore.fair_share_solves", "count"},
      {"simcore.components_solved", "count"},
      {"simcore.solves_per_point", "ratio"},
      {"simcore.recompute_rates_s", "s"},
      {"simcore.bfs_s", "s"},
      {"simcore.solve_s", "s"},
      {"simcore.dispatch_s", "s"},
      {"simcore.self_s", "s"},
      {"pagecache.case_s", "s"},
      {"pagecache.overhead_s", "s"},
      {"pagecache.hit_bytes", "bytes"},
      {"pagecache.miss_bytes", "bytes"},
      {"pagecache.flushed_bytes", "bytes"},
      {"pagecache.evicted_bytes", "bytes"},
      {"pagecache.hit_ratio", "ratio"},
      {"pagecache.lru_ops_per_s", "1/s"},
      {"pagecache.lru_large_ops_per_s", "1/s"},
      {"pagecache.lru_large_blocks", "count"},
      {"pagecache.read_ops_per_s", "1/s"},
      {"pagecache.write_ops_per_s", "1/s"},
      {"pagecache.self_s", "s"},
      {"refmodel.case_s", "s"},
      {"refmodel.kernel_ops_per_s", "1/s"},
      {"refmodel.self_s", "s"},
      {"proto.case_s", "s"},
      {"proto.self_s", "s"},
      {"workflow.case_s", "s"},
      {"workflow.tasks_completed", "count"},
      {"workflow.self_s", "s"},
      {"storage.read_bytes", "bytes"},
      {"storage.write_bytes", "bytes"},
      {"trace.wall_s", "s"},
      {"trace.remainder_s", "s"},
      {"trace.overhead_s", "s"},
  };
  return m;
}

double peak_rss_mb() {
  return static_cast<double>(std::max(pcs::util::peak_rss_kb(), children_peak_rss_kb())) / 1024.0;
}

/// Timed set-ups, `runs` samples at a time, interleaved with the passes so
/// the samples spread over the whole run.  A sample is the fastest of
/// kSetupRepeats back-to-back set-ups.
constexpr int kSetupRepeats = 10;

void time_setup(Workload& w, int runs, SpanRecorder& rec, std::vector<double>& samples) {
  for (int i = 0; i < runs; ++i) {
    double best = 0.0;
    for (int r = 0; r < kSetupRepeats; ++r) {
      ScopedSpan span(rec, "scenario.parse", "scenario", -1);
      const double t0 = now_s();
      w.setup();
      const double t = now_s() - t0;
      best = r == 0 ? t : std::min(best, t);
    }
    samples.push_back(best);
  }
}

/// setup_s: the samples, in the order taken, are cut into kSetupWindows
/// consecutive windows; each window contributes its fastest sample and the
/// result is the median of those.  The host's noise only ever adds time and
/// its slow spells last seconds, so a plain median of samples follows the
/// host's load from one batch of runs to the next; a window of several
/// seconds nearly always holds a quiet moment.
constexpr std::size_t kSetupWindows = 5;

double setup_seconds(const std::vector<double>& samples) {
  const std::size_t windows = std::min(kSetupWindows, samples.size());
  std::vector<double> fastest;
  for (std::size_t k = 0; k < windows; ++k) {
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(k * samples.size() / windows);
    const auto last =
        samples.begin() + static_cast<std::ptrdiff_t>((k + 1) * samples.size() / windows);
    fastest.push_back(*std::min_element(first, last));
  }
  return median(fastest);
}

/// Direct drivers, each timed as the median of three repetitions.
void run_drivers(const Options& opt, std::map<std::string, double>& m, std::size_t large_blocks,
                 SpanRecorder& rec) {
  auto rate = [&](const char* name, const char* layer, auto fn) {
    ScopedSpan span(rec, name, layer, -1);
    std::vector<double> r;
    for (int i = 0; i < 3; ++i) r.push_back(fn(opt.seed + static_cast<std::uint64_t>(i)).per_s());
    return median(r);
  };
  m["pagecache.lru_ops_per_s"] =
      rate("driver.lru", "pagecache", [](std::uint64_t s) { return drive_lru(4096, 200000, s); });
  m["pagecache.lru_large_blocks"] = static_cast<double>(large_blocks);
  m["pagecache.lru_large_ops_per_s"] = rate("driver.lru_large", "pagecache", [&](std::uint64_t s) {
    return drive_lru(large_blocks, 100000, s);
  });
  m["pagecache.read_ops_per_s"] = rate("driver.mm_reads", "pagecache", [](std::uint64_t s) {
    return drive_mm_reads(4096, 20000, s);
  });
  m["pagecache.write_ops_per_s"] = rate("driver.mm_writes", "pagecache", [](std::uint64_t s) {
    return drive_mm_writes(4096, 500000, s);
  });
  m["refmodel.kernel_ops_per_s"] = rate("driver.ref_kernel", "refmodel", [](std::uint64_t s) {
    return drive_ref_kernel(4096, 20000, s);
  });
}

/// The traced run's shape assertions: each workload exercises the layer it
/// was chosen for.
std::vector<std::string> shape_violations(const std::string& workload,
                                          std::map<std::string, double>& m) {
  std::vector<std::string> v;
  const double hit = m["pagecache.hit_bytes"];
  const double flushed = m["pagecache.flushed_bytes"];
  const double evicted = m["pagecache.evicted_bytes"];
  if (workload == "cache_reread") {
    if (m["pagecache.hit_ratio"] < 0.5) v.push_back("cache_reread: hit_ratio below 0.5");
    if (flushed > 0.01 * hit) v.push_back("cache_reread: flushed bytes above 1% of hit bytes");
  } else if (workload == "cache_writeback") {
    if (hit != 0.0) v.push_back("cache_writeback: nonzero hit bytes");
    if (flushed <= 0.0 || evicted <= 0.0) v.push_back("cache_writeback: no flush or no eviction");
  } else if (workload == "paper_suite") {
    if (m["refmodel.case_s"] <= 0.5 * m["trace.wall_s"]) {
      v.push_back("paper_suite: refmodel.case_s is not most of the traced wall time");
    }
  }
  return v;
}

Json metric_json(const std::vector<Metric>& names, std::map<std::string, double>& values) {
  Json out(JsonObject{});
  for (const Metric& m : names) {
    Json v(JsonObject{});
    v.set("value", values[m.name]);
    v.set("unit", m.unit);
    out.set(m.name, std::move(v));
  }
  return out;
}

int run(const Options& opt) {
#if defined(PCS_DEBUG_INVARIANTS)
  std::cerr << "perfbench: refusing to report from a PCS_DEBUG_INVARIANTS build\n";
  return 2;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "perfbench: refusing to report from a " << PERFBENCH_BUILD_TYPE
              << " build (Release required)\n";
    return 2;
  }

  std::unique_ptr<Workload> w;
  if (opt.workload == "paper_suite") {
    w = std::make_unique<PaperSuite>(opt);
  } else if (opt.workload == "cache_reread") {
    w = std::make_unique<CacheWorkload>(opt, 0.5);
  } else if (opt.workload == "cache_writeback") {
    w = std::make_unique<CacheWorkload>(opt, 2.0);
  } else {
    std::cerr << "perfbench: unknown workload '" << opt.workload << "'\n";
    return 2;
  }

  SpanRecorder rec(opt.trace);
  SpanRecorder off(false);
  std::vector<double> setup_samples;
  time_setup(*w, 3, rec, setup_samples);

  std::vector<Pass> passes;
  std::map<std::string, double> m;
  if (!opt.trace) {
    const double deadline = now_s() + opt.seconds;
    do {
      passes.push_back(w->pass(off, false));
      time_setup(*w, 3, off, setup_samples);
    } while (now_s() + passes.back().real_s < deadline);
  } else {
    // One untraced pass as the overhead baseline, then the traced pass
    // every per-layer figure comes from.
    const Pass plain = w->pass(off, false);
    passes.push_back(w->pass(rec, true));
    Pass& p = passes.back();
    w->after_traced_pass(p);
    m = p.sum;
    const double traced_wall = rec.spans()[static_cast<std::size_t>(p.root_span)].end -
                               rec.spans()[static_cast<std::size_t>(p.root_span)].start;
    m["trace.wall_s"] = traced_wall;
    m["trace.overhead_s"] = p.real_s - plain.real_s;
    // Self times sum to the traced wall time by construction; they mean
    // something only if every span nests inside its parent.
    for (const std::string& v : rec.nesting_violations(p.root_span, 1e-6)) {
      p.wrong.push_back("span nesting: " + v);
    }
    for (const auto& [layer, self] : rec.layer_self_times(p.root_span)) {
      m[layer == "bench" ? "trace.remainder_s" : layer + ".self_s"] = self;
    }
    const double points = m["simcore.scheduling_points"];
    m["simcore.solves_per_point"] = points > 0.0 ? m["simcore.fair_share_solves"] / points : 0.0;
    const double hit = m["pagecache.hit_bytes"];
    const double miss = m["pagecache.miss_bytes"];
    m["pagecache.hit_ratio"] = hit + miss > 0.0 ? hit / (hit + miss) : 0.0;
    m["scenario.parse_s"] = setup_seconds(setup_samples);
    if (!p.err_samples.empty()) {
      m["model_err_pct"] = std::accumulate(p.err_samples.begin(), p.err_samples.end(), 0.0) /
                           static_cast<double>(p.err_samples.size());
    }
    const std::size_t large =
        std::max<std::size_t>(4096, static_cast<std::size_t>(m["pagecache.max_blocks"]));
    run_drivers(opt, m, opt.workload == "cache_reread" ? large : 32768, rec);
    for (const std::string& v : shape_violations(opt.workload, m)) p.wrong.push_back(v);
  }

  std::vector<std::string> wrong;
  // Each unit is charged its fastest pass: host noise is one-sided (a fixed
  // CPU loop swings between 35 and 65 ms from moment to moment), so the
  // per-unit minimum over passes is the steadiest estimate of a unit's
  // cost.  A failed unit is charged its budget in that pass; a case counts
  // as failed when no pass completed it correctly in budget.
  std::map<std::string, double> unit_s, unit_work;
  std::map<std::string, bool> case_ok;
  for (const Pass& p : passes) {
    wrong.insert(wrong.end(), p.wrong.begin(), p.wrong.end());
    for (const auto& [name, charged] : p.units) {
      auto [it, fresh] = unit_s.emplace(name, charged.first);
      if (fresh || charged.first < it->second) {
        it->second = charged.first;
        unit_work[name] = charged.second;
      }
    }
    for (const auto& [name, ok] : p.cases) case_ok[name] = case_ok[name] || ok;
  }
  double wall = 0.0;
  double work = 0.0;
  for (const auto& [name, t] : unit_s) {
    wall += t;
    work += unit_work[name];
  }
  const int attempted = static_cast<int>(case_ok.size());
  const int failed = static_cast<int>(
      std::count_if(case_ok.begin(), case_ok.end(), [](const auto& c) { return !c.second; }));
  m["fail_ratio"] = attempted > 0 ? static_cast<double>(failed) / attempted : 0.0;
  m["wall_s"] = wall;
  m["ops_per_s"] = wall > 0.0 ? work / wall : 0.0;
  m["setup_s"] = setup_seconds(setup_samples);
  m["peak_rss_mb"] = peak_rss_mb();

  Json manifest(JsonObject{});
  manifest.set("workload", opt.workload);
  manifest.set("seed", static_cast<double>(opt.seed));
  manifest.set("git_describe", opt.git_describe);
  manifest.set("build_type", PERFBENCH_BUILD_TYPE);
#if defined(PCS_DEBUG_INVARIANTS)
  manifest.set("pcs_debug_invariants", true);
#else
  manifest.set("pcs_debug_invariants", false);
#endif
  manifest.set("hardware_concurrency", static_cast<int>(std::thread::hardware_concurrency()));
  manifest.set("passes", static_cast<int>(passes.size()));
  manifest.set("inputs", w->input_hashes());

  if (opt.trace && !opt.trace_out.empty()) {
    std::ofstream out(opt.trace_out);
    out << rec.chrome_trace(manifest).dump(1) << "\n";
    manifest.set("trace_file", opt.trace_out);
  }

  for (const std::string& v : wrong) std::cerr << "[perfbench] WRONG: " << v << "\n";
  Json result(JsonObject{});
  result.set("correct", wrong.empty());
  result.set("attempted", attempted);
  result.set("failed", failed);
  result.set("metrics", metric_json(opt.trace ? per_layer_metrics() : end_to_end_metrics(), m));
  result.set("manifest", std::move(manifest));
  std::cout << result.dump() << "\n";
  return wrong.empty() ? 0 : 1;
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + arg);
    const std::string v = argv[++i];
    if (arg == "--workload") o.workload = v;
    else if (arg == "--root") o.root = v;
    else if (arg == "--inputs") o.inputs = v;
    else if (arg == "--trace-out") o.trace_out = v;
    else if (arg == "--git-describe") o.git_describe = v;
    else if (arg == "--expected-dir") o.expected_dir = v;
    else if (arg == "--seed") o.seed = std::stoull(v);
    else if (arg == "--seconds") o.seconds = std::stod(v);
    else if (arg == "--trace") o.trace = v == "1";
    else if (arg == "--max-cases") o.max_cases = std::stoul(v);
    else if (arg == "--only") {
      std::stringstream ss(v);
      for (std::string item; std::getline(ss, item, ',');) o.only.insert(item);
    } else {
      throw std::runtime_error("unknown argument " + arg);
    }
  }
  if (o.workload.empty()) throw std::runtime_error("--workload is required");
  return o;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
