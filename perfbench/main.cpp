// perfbench: the measuring binary behind perfbench/run.py.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one named workload through the library's public API, checks
// every result against a known answer, and prints one JSON object on
// stdout. Plain mode (--trace 0) keeps the metric registry off and
// repeats the workload's fixed job for the measurement window; the
// end-to-end timings are medians over those repetitions. Traced mode
// (--trace 1) alternates a plain repetition with a traced one: the
// traced repetition turns obs::MetricRegistry on, times the
// benchmark's own calls into each layer's public functions, and reads
// the registry's counters after a reset. README.md in this directory
// defines every metric.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/combinators.h"
#include "core/constructions.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "petri/coverability.h"
#include "petri/petri_net.h"
#include "petri/reachability.h"
#include "sim/parallel.h"
#include "sim/scheduler.h"
#include "verify/stable.h"
#include "verify/stabilized.h"

namespace {

using namespace ppsc;
using Clock = std::chrono::steady_clock;

// Every sweep runs on two worker threads, from this single process.
constexpr unsigned kSweepThreads = 2;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid]
                           : 0.5 * (values[mid - 1] + values[mid]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Per-layer numbers of one traced repetition, keyed by metric name.
using Metrics = std::map<std::string, double>;

// Operations of one job, each checked against its known answer, and
// the job's work in the workload's own unit.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double work = 0.0;
};

double counter(const obs::MetricSnapshot& snap, const char* name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
}

double histogram_max(const obs::MetricSnapshot& snap, const char* name) {
  const auto it = snap.histograms.find(name);
  return it == snap.histograms.end() ? 0.0
                                     : static_cast<double>(it->second.max);
}

// Clears the registry and turns it on; adds the time taken to *obs_s.
void obs_begin(double* obs_s) {
  const auto start = Clock::now();
  obs::MetricRegistry& registry = obs::MetricRegistry::global();
  registry.reset();
  registry.set_enabled(true);
  *obs_s += since(start);
}

// Reads the registry and turns it off; adds the time taken to *obs_s.
obs::MetricSnapshot obs_end(double* obs_s) {
  const auto start = Clock::now();
  obs::MetricRegistry& registry = obs::MetricRegistry::global();
  obs::MetricSnapshot snap = registry.snapshot();
  registry.set_enabled(false);
  *obs_s += since(start);
  return snap;
}

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds what the job needs: protocol construction, pair-table
  // compile, net conversion, initial configurations. Stores the time
  // of each piece in `parts` under its per-layer metric name. Entry
  // points that take the protocol (measure_convergence_parallel,
  // check_up_to) redo some of these steps inside the job; set-up times
  // each once all the same.
  virtual void setup(Metrics& parts) = 0;
  // The fixed job, metric registry off.
  virtual Outcome job() = 0;
  // A set-up, then the job with the registry on. Fills the per-layer
  // metrics, each layer's self time (self.<layer>_s) and traced_wall_s.
  virtual Outcome traced(Metrics& m) = 0;
  // The last traced repetition's full registry snapshot.
  obs::MetricSnapshot last_snapshot;
};

// --- simulator workloads ----------------------------------------------

class SimWorkload : public Workload {
 public:
  // kConverge: every run must converge to the correct consensus.
  // kBudget: converged runs must be correct and every other run must
  // have spent exactly its step budget.
  enum class Expect { kConverge, kBudget };

  SimWorkload(std::function<core::ConstructedProtocol()> make, core::Count x,
              std::size_t runs, std::uint64_t max_steps, Expect expect,
              std::uint64_t seed)
      : make_(std::move(make)), input_{x}, runs_(runs), expect_(expect) {
    options_.max_steps = max_steps;
    options_.seed = seed;
  }

  void setup(Metrics& parts) override {
    auto start = Clock::now();
    cp_.emplace(make_());
    parts["core.construct_s"] = since(start);
    start = Clock::now();
    // The sweep compiles its own table and initial configuration; these
    // feed only the dispatch choice, and set-up times them once.
    has_table_ = sim::PairRuleTable::build(cp_->protocol).has_value();
    population_ =
        core::Protocol::population(cp_->protocol.initial_config(input_));
    parts["sim.table_build_s"] = since(start);
  }

  Outcome job() override {
    return check(sim::measure_convergence_parallel(*cp_, input_, runs_,
                                                   options_, kSweepThreads));
  }

  Outcome traced(Metrics& m) override {
    const auto wall_start = Clock::now();
    Metrics parts;
    setup(parts);
    auto start = Clock::now();
    const sim::SchedulerChoice choice = sim::planned_scheduler(
        options_, has_table_, cp_->protocol.num_states(), population_);
    const double dispatch_s = since(start);
    double obs_s = 0.0;
    obs_begin(&obs_s);
    start = Clock::now();
    const sim::ConvergenceStats stats = sim::measure_convergence_parallel(
        *cp_, input_, runs_, options_, kSweepThreads);
    const double sweep_s = since(start);
    last_snapshot = obs_end(&obs_s);
    const Outcome outcome = check(stats);
    m["traced_wall_s"] = since(wall_start);
    m["self.core_s"] = parts["core.construct_s"];
    m["self.sim_s"] = parts["sim.table_build_s"] + dispatch_s + sweep_s;
    m["self.obs_s"] = obs_s;

    const obs::MetricSnapshot& s = last_snapshot;
    m["sim.dispatch"] = static_cast<double>(choice);
    m["sim.sweep_s"] = sweep_s;
    m["sim.mean_steps"] = stats.mean_steps;
    const double draws = counter(s, "sim.agent.draws");
    m["sim.agent.draws"] = draws;
    m["sim.agent.productive"] = counter(s, "sim.agent.productive");
    m["sim.agent.productive_ratio"] =
        ratio(counter(s, "sim.agent.productive"), draws);
    m["sim.agent.draws_per_s"] = ratio(draws, sweep_s);
    m["sim.agent.scan_work"] = counter(s, "sim.agent.scan_work");
    const double census_steps = counter(s, "sim.census.productive");
    m["sim.census.productive"] = census_steps;
    m["sim.census.rebuilds"] = counter(s, "sim.census.rebuilds");
    m["sim.census.null_skipped"] = counter(s, "sim.census.null_skipped");
    m["sim.census.ns_per_step"] = ratio(sweep_s * 1e9, census_steps);
    return outcome;
  }

 private:
  Outcome check(const sim::ConvergenceStats& stats) const {
    Outcome outcome;
    outcome.attempted = runs_;
    const auto total = static_cast<std::uint64_t>(
        stats.mean_steps * static_cast<double>(stats.runs) + 0.5);
    outcome.work = static_cast<double>(total);
    if (stats.runs != runs_) {
      outcome.failed = runs_;
    } else if (expect_ == Expect::kConverge) {
      outcome.failed = runs_ - stats.correct;
    } else {
      outcome.failed = stats.converged - stats.correct;
      // Converged runs stop below the budget, the rest spend it all.
      const std::uint64_t open = runs_ - stats.converged;
      const std::uint64_t floor = open * options_.max_steps;
      const bool budget_ok =
          stats.converged == 0 ? total == floor
                               : total >= floor &&
                                     total < floor + stats.converged *
                                                         options_.max_steps;
      if (!budget_ok) outcome.failed += open;
    }
    if (outcome.failed > 0) {
      std::fprintf(stderr,
                   "sim: runs=%zu converged=%zu correct=%zu steps=%llu\n",
                   stats.runs, stats.converged, stats.correct,
                   static_cast<unsigned long long>(total));
    }
    return outcome;
  }

  std::function<core::ConstructedProtocol()> make_;
  std::vector<core::Count> input_;
  std::size_t runs_;
  Expect expect_;
  sim::RunOptions options_;
  std::optional<core::ConstructedProtocol> cp_;
  bool has_table_ = false;
  core::Count population_ = 0;
};

// --- exhaustive checker: verify_product ---------------------------------

core::ConstructedProtocol make_product() {
  return core::disjunction(core::unary_counting(4),
                           core::modulo_counting(3, 0));
}

class VerifyProduct : public Workload {
 public:
  static constexpr core::Count kBound = 6;
  // Reachable configurations per input x = 0..6 (1 for the empty
  // population). The reachability set is fixed by the protocol, so any
  // correct engine finds these sizes.
  static constexpr std::size_t kConfigs[kBound + 1] = {1,   1,    5,    29,
                                                       285, 2141, 15449};

  void setup(Metrics& parts) override {
    auto start = Clock::now();
    cp_.emplace(make_product());
    parts["core.construct_s"] = since(start);
    start = Clock::now();
    net_.emplace(cp_->protocol.net());
    roots_.clear();
    for (core::Count x = 0; x <= kBound; ++x) {
      roots_.emplace_back(cp_->protocol.initial_config({x}));
    }
    parts["petri.net_s"] = since(start);
  }

  Outcome job() override {
    return check(verify::check_up_to(cp_->protocol, cp_->predicate, kBound));
  }

  Outcome traced(Metrics& m) override {
    const auto wall_start = Clock::now();
    Metrics parts;
    setup(parts);
    double obs_s = 0.0;
    obs_begin(&obs_s);
    auto start = Clock::now();
    const verify::CheckResult result =
        verify::check_up_to(cp_->protocol, cp_->predicate, kBound);
    const double check_s = since(start);
    last_snapshot = obs_end(&obs_s);
    const Outcome outcome = check(result);
    m["traced_wall_s"] = since(wall_start);

    // Attribution, outside the traced wall: the checker's two petri
    // calls repeated from each input's root (the checker skips the
    // empty population x = 0, and so does this loop).
    double explore_s = 0.0;
    double scc_s = 0.0;
    for (std::size_t x = 1; x < roots_.size(); ++x) {
      start = Clock::now();
      const petri::ReachabilityGraph graph = petri::explore(*net_, {roots_[x]});
      explore_s += since(start);
      start = Clock::now();
      const petri::SccDecomposition scc = petri::scc_decompose(graph);
      scc_s += since(start);
      if (scc.count == 0) throw std::logic_error("empty SCC decomposition");
    }
    const double verify_self_s = check_s - explore_s - scc_s;
    m["self.core_s"] = parts["core.construct_s"];
    m["self.petri_s"] = parts["petri.net_s"] + explore_s + scc_s;
    m["self.verify_s"] = verify_self_s;
    m["self.obs_s"] = obs_s;

    const obs::MetricSnapshot& s = last_snapshot;
    const double edges = counter(s, "explore.edges");
    m["petri.explore_s"] = explore_s;
    m["explore.configs"] = counter(s, "explore.configs");
    m["explore.edges"] = edges;
    m["explore.probes"] = counter(s, "explore.probes");
    m["explore.collisions"] = counter(s, "explore.collisions");
    m["explore.frontier_peak"] = histogram_max(s, "explore.frontier_peak");
    m["petri.explore_ns_per_edge"] = ratio(explore_s * 1e9, edges);
    m["petri.scc_s"] = scc_s;
    m["verify.check_s"] = check_s;
    m["verify.self_s"] = verify_self_s;
    m["verify.reachable_configs"] = counter(s, "verify.reachable_configs");
    m["verify.bottom_configs"] = counter(s, "verify.bottom_configs");
    return outcome;
  }

 private:
  static Outcome check(const verify::CheckResult& result) {
    Outcome outcome;
    outcome.attempted = kBound + 1;
    if (result.verdicts.size() != outcome.attempted) {
      outcome.failed = outcome.attempted;
      return outcome;
    }
    for (std::size_t x = 0; x < result.verdicts.size(); ++x) {
      const verify::Verdict& v = result.verdicts[x];
      outcome.work += static_cast<double>(v.reachable_configs);
      if (!v.ok || v.reachable_configs != kConfigs[x]) {
        ++outcome.failed;
        std::fprintf(stderr,
                     "verify_product: x=%zu ok=%d configs=%zu (want %zu) %s\n",
                     x, v.ok ? 1 : 0, v.reachable_configs, kConfigs[x],
                     v.detail.c_str());
      }
    }
    return outcome;
  }

  std::optional<core::ConstructedProtocol> cp_;
  std::optional<petri::PetriNet> net_;
  std::vector<petri::Config> roots_;
};

// --- stabilization certificate: certify_unary ---------------------------

class CertifyUnary : public Workload {
 public:
  static constexpr core::Count kN = 20;
  // Minimal-basis size of each of the 21 non-accepting states, in
  // ascending state order: value 0, values 1..19 without the witness
  // bit, value 20 without it. A minimal basis of an upward-closed set
  // is unique, so every correct backward engine returns exactly these.
  // Values 1..19 give the partition numbers p(1..19): value v is
  // covered by merging bit-free agents whose values sum to v. 2,178
  // elements in all.
  static constexpr std::size_t kBasisSizes[] = {
      91, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231, 297,
      385, 490, 1};
  static constexpr std::size_t kRandomProbes = 512;

  explicit CertifyUnary(std::uint64_t seed) {
    // Probes are built from the seed before set-up. In unary_counting
    // the witness bit '!' is sticky and is the output, so a
    // configuration is stabilized for F = {1-output states} exactly
    // when every agent already carries the bit.
    const core::ConstructedProtocol cp = core::unary_counting(kN);
    const std::size_t d = cp.protocol.num_states();
    const auto add = [&](petri::Config c) {
      bool all_one = true;
      for (std::size_t q = 0; q < d; ++q) {
        if (c[q] > 0 && !cp.protocol.output(q)) all_one = false;
      }
      probes_.push_back(std::move(c));
      expected_.push_back(all_one);
    };
    petri::Config witnesses(d);
    witnesses[cp.protocol.states().at(std::to_string(kN) + "!")] = 40;
    add(witnesses);
    add(petri::Config(cp.protocol.initial_config({21})));
    add(petri::Config(cp.protocol.initial_config({30})));
    std::mt19937_64 rng(seed);
    for (std::size_t i = 0; i < kRandomProbes; ++i) {
      // Half the probes draw only witness states, so both verdicts
      // occur about equally often.
      const bool witness_only = (rng() & 1) != 0;
      petri::Config c(d);
      const std::uint64_t agents = 1 + rng() % 40;
      for (std::uint64_t a = 0; a < agents; ++a) {
        const std::uint64_t v = rng() % (kN + 1);
        const bool bit = witness_only || (rng() & 1) != 0;
        ++c[cp.protocol.states().at(std::to_string(v) + (bit ? "!" : ""))];
      }
      add(std::move(c));
    }
  }

  void setup(Metrics& parts) override {
    auto start = Clock::now();
    cp_.emplace(core::unary_counting(kN));
    parts["core.construct_s"] = since(start);
    start = Clock::now();
    net_.emplace(cp_->protocol.net());
    f_mask_.assign(cp_->protocol.num_states(), false);
    for (std::size_t q = 0; q < f_mask_.size(); ++q) {
      f_mask_[q] = cp_->protocol.output(q);
    }
    parts["petri.net_s"] = since(start);
  }

  Outcome job() override {
    return probe(verify::stabilization_certificate(*net_, f_mask_));
  }

  Outcome traced(Metrics& m) override {
    const auto wall_start = Clock::now();
    Metrics parts;
    setup(parts);
    double obs_s = 0.0;
    obs_begin(&obs_s);
    auto start = Clock::now();
    const verify::StabilizationCertificate certificate =
        verify::stabilization_certificate(*net_, f_mask_);
    const double certificate_s = since(start);
    start = Clock::now();
    const Outcome outcome = probe(certificate);
    const double probe_s = since(start);
    last_snapshot = obs_end(&obs_s);
    m["traced_wall_s"] = since(wall_start);

    // Attribution, outside the traced wall: the certificate's backward
    // fixpoints repeated, one per non-accepting target.
    start = Clock::now();
    for (const std::size_t q : certificate.bad_states) {
      const std::vector<petri::Config> basis = petri::backward_basis(
          *net_, petri::Config::unit(net_->num_states(), q));
      if (basis.empty()) throw std::logic_error("empty backward basis");
    }
    const double backward_s = since(start);
    m["self.core_s"] = parts["core.construct_s"];
    m["self.petri_s"] = parts["petri.net_s"] + backward_s;
    m["self.verify_s"] = certificate_s - backward_s + probe_s;
    m["self.obs_s"] = obs_s;

    const obs::MetricSnapshot& s = last_snapshot;
    const double comparisons = counter(s, "coverability.comparisons");
    m["petri.backward_basis_s"] = backward_s;
    m["coverability.predecessors"] = counter(s, "coverability.predecessors");
    m["coverability.comparisons"] = comparisons;
    m["coverability.pruned_dominated"] =
        counter(s, "coverability.pruned_dominated");
    m["coverability.basis_peak"] = histogram_max(s, "coverability.basis_peak");
    m["petri.comparisons_per_s"] = ratio(comparisons, backward_s);
    m["verify.certificate_s"] = certificate_s;
    m["verify.certificate_self_s"] = certificate_s - backward_s;
    m["verify.stabilized.basis_total"] =
        counter(s, "verify.stabilized.basis_total");
    return outcome;
  }

 private:
  // One operation per probe, plus one per non-accepting state's basis
  // size. The pinned sizes are the discriminating check; the probes
  // are a sanity check of stabilized(), since each one's verdict
  // follows from its own states.
  Outcome probe(const verify::StabilizationCertificate& certificate) const {
    constexpr std::size_t kBad = std::size(kBasisSizes);
    Outcome outcome;
    outcome.attempted = probes_.size() + kBad;
    if (certificate.bases.size() != kBad) {
      outcome.failed += kBad;
      std::fprintf(stderr, "certify_unary: %zu bases (want %zu)\n",
                   certificate.bases.size(), kBad);
    }
    for (std::size_t i = 0; i < certificate.bases.size(); ++i) {
      const std::size_t size = certificate.bases[i].size();
      outcome.work += static_cast<double>(size);
      if (i < kBad && size != kBasisSizes[i]) {
        ++outcome.failed;
        std::fprintf(stderr, "certify_unary: basis %zu has %zu (want %zu)\n",
                     i, size, kBasisSizes[i]);
      }
    }
    for (std::size_t i = 0; i < probes_.size(); ++i) {
      if (certificate.stabilized(probes_[i]) != expected_[i]) {
        ++outcome.failed;
        std::fprintf(stderr, "certify_unary: probe %zu verdict differs\n", i);
      }
    }
    return outcome;
  }

  std::vector<petri::Config> probes_;
  std::vector<bool> expected_;
  std::optional<core::ConstructedProtocol> cp_;
  std::optional<petri::PetriNet> net_;
  std::vector<bool> f_mask_;
};

// --- measurement ----------------------------------------------------------

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  using Expect = SimWorkload::Expect;
  const std::uint64_t run_seed = splitmix64(seed);
  // Many short runs: the sweep's wall time is the makespan of two
  // threads, so finer runs keep one slowed thread from setting it.
  if (name == "sim_boundary") {
    return std::make_unique<SimWorkload>(
        [] { return core::example_4_2(16); }, 15, 32, 625000,
        Expect::kBudget, run_seed);
  }
  if (name == "sim_census") {
    return std::make_unique<SimWorkload>(
        [] { return core::unary_counting(8); }, 1000000, 2, 20000000,
        Expect::kConverge, run_seed);
  }
  if (name == "verify_product") return std::make_unique<VerifyProduct>();
  if (name == "certify_unary") return std::make_unique<CertifyUnary>(seed);
  return nullptr;
}

// Set-up is timed in batches of setup_per_batch(name) set-ups, sized
// to about 15 ms each. kSetupWarmup batches are discarded (cold heap
// and caches) and kSetupFirstBatches are timed before the window.
// Before every repetition, batches are timed until they add up to
// kSetupShare of the previous repetition's wall time, so the samples
// spread over the whole window as the repetitions do and see the same
// drift of the machine's speed. Set-up time is the median batch time
// divided by the batch size.
constexpr int kSetupWarmup = 2;
constexpr int kSetupFirstBatches = 4;
constexpr double kSetupShare = 0.05;

int setup_per_batch(const std::string& name) {
  if (name == "sim_boundary") return 4096;
  if (name == "sim_census") return 256;
  return 16;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_metrics(const std::map<std::string, double>& values) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : values) {
    if (!first) out += ",";
    first = false;
    out += "\"" + key + "\":" + json_number(value);
  }
  return out + "}";
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ",";
    out += json_number(values[i]);
  }
  return out + "]";
}

// Peak resident memory of this process image. VmHWM, not getrusage's
// ru_maxrss: Linux carries ru_maxrss across exec, so under run.py it
// would report the Python parent's peak whenever that is larger.
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
    }
  }
  std::fclose(status);
  return kib / 1024.0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      name = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      trace = std::atoi(value);
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || seconds <= 0.0 || (trace != 0 && trace != 1)) {
    return usage();
  }
  std::unique_ptr<Workload> workload = make_workload(name, seed);
  if (!workload) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", name.c_str());
    return 2;
  }
  obs::MetricRegistry::global().set_enabled(false);
  obs::TraceRegistry::global().set_enabled(false);

  const int per_batch = setup_per_batch(name);
  std::vector<double> setup_samples;
  std::map<std::string, std::vector<double>> part_samples;
  // The last set-up's objects feed the job.
  // Returns the batch's wall time.
  const auto setup_batch = [&] {
    Metrics sums;
    const auto start = Clock::now();
    for (int r = 0; r < per_batch; ++r) {
      Metrics parts;
      workload->setup(parts);
      for (const auto& [key, value] : parts) sums[key] += value;
    }
    const double batch_s = since(start);
    setup_samples.push_back(batch_s / per_batch);
    for (const auto& [key, value] : sums) {
      part_samples[key].push_back(value / per_batch);
    }
    return batch_s;
  };
  for (int b = 0; b < kSetupWarmup; ++b) setup_batch();
  setup_samples.clear();
  part_samples.clear();
  for (int b = 0; b < kSetupFirstBatches; ++b) setup_batch();

  // Measurement window: repeat until the next iteration would end past
  // --seconds, with at least one iteration.
  std::vector<double> walls;
  std::vector<double> rates;
  std::vector<Metrics> traced_reps;
  Outcome total;
  const auto window = Clock::now();
  while (true) {
    const double setup_budget =
        walls.empty() ? 0.0 : kSetupShare * walls.back();
    for (double spent = 0.0; spent <= setup_budget;) spent += setup_batch();
    const auto start = Clock::now();
    const Outcome plain = workload->job();
    const double wall = since(start);
    walls.push_back(wall);
    rates.push_back(plain.work / wall);
    total.attempted += plain.attempted;
    total.failed += plain.failed;
    if (trace == 1) {
      Metrics m = {{"self.core_s", 0.0},  {"self.sim_s", 0.0},
                   {"self.petri_s", 0.0}, {"self.verify_s", 0.0},
                   {"self.obs_s", 0.0}};
      const Outcome traced = workload->traced(m);
      total.attempted += traced.attempted;
      total.failed += traced.failed;
      double accounted = 0.0;
      for (const auto& [key, value] : m) {
        if (key.rfind("self.", 0) == 0) accounted += value;
      }
      m["self.unaccounted_s"] = m["traced_wall_s"] - accounted;
      traced_reps.push_back(std::move(m));
    }
    const double elapsed = since(window);
    const double per_iteration = elapsed / static_cast<double>(walls.size());
    if (elapsed + per_iteration > seconds) break;
  }

  std::map<std::string, double> end_to_end = {
      {"setup_s", median(setup_samples)},
      {"wall_s", median(walls)},
      {"work_per_s", median(rates)},
      {"peak_rss_mb", peak_rss_mb()},
  };
  std::map<std::string, double> per_layer;
  for (const auto& [key, samples] : part_samples) {
    per_layer[key] = median(samples);
  }
  // Per-layer timings all come from one traced repetition, the one
  // with the (lower) median traced wall, so its self-time rows add up
  // to its wall. Counts are the same in every repetition.
  if (trace == 1) {
    std::sort(traced_reps.begin(), traced_reps.end(),
              [](const Metrics& a, const Metrics& b) {
                return a.at("traced_wall_s") < b.at("traced_wall_s");
              });
    const Metrics& middle = traced_reps[(traced_reps.size() - 1) / 2];
    for (const auto& [key, value] : middle) per_layer[key] = value;
    per_layer["obs.trace_overhead"] =
        per_layer["traced_wall_s"] / end_to_end["wall_s"] - 1.0;
  }

  std::map<std::string, double> counters;
  for (const auto& [key, value] : workload->last_snapshot.counters) {
    counters[key] = static_cast<double>(value);
  }
  std::printf(
      "{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,\"reps\":%zu,"
      "\"attempted\":%llu,\"failed\":%llu,\"wall_samples\":%s,"
      "\"setup_samples\":%s,"
      "\"end_to_end\":%s,"
      "\"per_layer\":%s,\"counters\":%s,\"build\":{\"compiler\":\"%s\","
      "\"build_type\":\"%s\",\"flags\":\"%s\",\"obs_compiled\":%d}}\n",
      name.c_str(), static_cast<unsigned long long>(seed), trace,
      walls.size(), static_cast<unsigned long long>(total.attempted),
      static_cast<unsigned long long>(total.failed), json_array(walls).c_str(),
      json_array(setup_samples).c_str(), json_metrics(end_to_end).c_str(), json_metrics(per_layer).c_str(),
      json_metrics(counters).c_str(), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, PERFBENCH_FLAGS, PPSC_OBS_ENABLED);
  return 0;
}
