#include "layers.hpp"

#include <cmath>
#include <cstring>
#include <filesystem>
#include <numbers>

#include "core/evaluation_pipeline.hpp"
#include "faults/fault_universe.hpp"
#include "faults/simulation_engine.hpp"
#include "ga/genetic_algorithm.hpp"
#include "mna/sweep_solver.hpp"
#include "mna/system.hpp"
#include "net/wire.hpp"
#include "service/dictionary_store.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace ftbench {

namespace {
const char* const kLayers[] = {"net", "service", "core", "ga",
                               "faults", "linalg", "io"};
}  // namespace

LayerSheet::LayerSheet()
    : order_{{"net.send_us", "us"},
             {"net.codec_us", "us"},
             {"net.overhead_us", "us"},
             {"net.requests_received", "count"},
             {"net.replies_sent", "count"},
             {"net.error_frames", "count"},
             {"gen.lag_us", "us"},
             {"service.latency_us", "us"},
             {"service.mean_batch", "count"},
             {"service.batches", "count"},
             {"service.queue_full_waits", "count"},
             {"service.shed", "count"},
             {"service.deadline_expired", "count"},
             {"core.diagnose_us", "us"},
             {"core.fitness_us", "us"},
             {"core.column_hit_rate", "ratio"},
             {"core.genome_hit_rate", "ratio"},
             {"core.evaluate_ms", "ms"},
             {"ga.search_ms", "ms"},
             {"ga.evaluations", "count"},
             {"faults.build_ms", "ms"},
             {"faults.rank1_solves", "count"},
             {"faults.full_solves", "count"},
             {"linalg.analyze_ms", "ms"},
             {"linalg.factor_us", "us"},
             {"linalg.solve_us", "us"},
             {"linalg.factor_nnz", "count"},
             {"io.persist_ms", "ms"},
             {"io.reload_ms", "ms"},
             {"io.fdx_bytes", "bytes"},
             {"store.builds", "count"},
             {"store.disk_hits", "count"},
             {"store.memory_hits", "count"},
             {"trace.overhead_pct", "%"}} {}

void LayerSheet::set(const std::string& name, double value) {
  values_[name] = value;
}

void LayerSheet::emit(const Tracer& tracer, Result& result) const {
  for (const auto& [name, unit] : order_) {
    const auto it = values_.find(name);
    result.metric(name, it == values_.end() ? 0.0 : it->second, unit);
  }
  const auto self = tracer.self_ms_by_layer();
  for (const char* layer : kLayers) {
    const auto it = self.find(layer);
    result.metric(std::string(layer) + ".self_ms",
                  it == self.end() ? 0.0 : it->second, "ms");
  }
}

void probe_linalg(const std::vector<ftdiag::circuits::CircuitUnderTest>& cuts,
                  LayerSheet& sheet, Tracer& tracer) {
  using ftdiag::mna::Complex;
  std::vector<double> analyze_ms;
  std::vector<double> factor_us;
  std::vector<double> solve_us;
  double nnz = 0.0;
  for (const auto& cut : cuts) {
    const ftdiag::mna::SweepAssembler assembler =
        ftdiag::mna::MnaSystem(cut.circuit).prepare_sweep();
    Clock::time_point t0 = Clock::now();
    std::shared_ptr<const ftdiag::mna::SweepSolver::Context> context;
    {
      auto span = tracer.span("linalg.analyze");
      context = ftdiag::mna::SweepSolver::analyze(
          assembler, ftdiag::mna::SolverBackend::kAuto);
    }
    analyze_ms.push_back(us_between(t0, Clock::now()) / 1000.0);
    const std::size_t n = assembler.size();
    nnz += context->sparse ? static_cast<double>(context->prototype.factor_nnz())
                           : static_cast<double>(n * n);
    ftdiag::mna::SweepSolver solver(assembler, context);
    std::vector<Complex> x(n);
    for (double f : cut.dictionary_grid.frequencies()) {
      const Complex s(0.0, 2.0 * std::numbers::pi * f);
      t0 = Clock::now();
      {
        auto span = tracer.span("linalg.factor");
        solver.factor(s);
      }
      const Clock::time_point t1 = Clock::now();
      {
        auto span = tracer.span("linalg.solve");
        solver.solve_into(assembler.rhs(), x);
      }
      factor_us.push_back(us_between(t0, t1));
      solve_us.push_back(us_between(t1, Clock::now()));
    }
  }
  sheet.set("linalg.analyze_ms", median(analyze_ms));
  sheet.set("linalg.factor_us", median(factor_us));
  sheet.set("linalg.solve_us", median(solve_us));
  sheet.set("linalg.factor_nnz", nnz);
}

void probe_faults(const std::vector<ftdiag::circuits::CircuitUnderTest>& cuts,
                  LayerSheet& sheet, Tracer& tracer) {
  std::vector<double> build_ms;
  double rank1 = 0.0;
  double full = 0.0;
  for (const auto& cut : cuts) {
    ftdiag::faults::SimOptions sim;
    sim.threads = 1;
    const ftdiag::faults::SimulationEngine engine(cut, sim);
    const auto faults =
        ftdiag::faults::FaultUniverse::over_testable(cut).enumerate();
    const Clock::time_point t0 = Clock::now();
    auto span = tracer.span("faults.simulate_all");
    const auto batch =
        engine.simulate_all(faults, cut.dictionary_grid.frequencies());
    build_ms.push_back(us_between(t0, Clock::now()) / 1000.0);
    rank1 += static_cast<double>(batch.stats.rank1_solves);
    full += static_cast<double>(batch.stats.full_solves);
  }
  sheet.set("faults.build_ms", median(build_ms));
  sheet.set("faults.rank1_solves", rank1);
  sheet.set("faults.full_solves", full);
}

namespace {

bool same_response(const ftdiag::mna::AcResponse& a,
                   const ftdiag::mna::AcResponse& b) {
  return a.size() == b.size() &&
         std::memcmp(a.frequencies().data(), b.frequencies().data(),
                     a.size() * sizeof(double)) == 0 &&
         std::memcmp(a.values().data(), b.values().data(),
                     a.size() * sizeof(ftdiag::mna::Complex)) == 0;
}

bool same_bits(const ftdiag::faults::FaultDictionary& a,
               const ftdiag::faults::FaultDictionary& b) {
  if (a.fault_count() != b.fault_count() ||
      !same_response(a.golden(), b.golden())) {
    return false;
  }
  for (std::size_t i = 0; i < a.fault_count(); ++i) {
    if (!(a.entries()[i].fault == b.entries()[i].fault) ||
        !same_response(a.entries()[i].response, b.entries()[i].response)) {
      return false;
    }
  }
  return true;
}

}  // namespace

void probe_store(const std::vector<ftdiag::circuits::CircuitUnderTest>& cuts,
                 const std::string& root_dir, LayerSheet& sheet,
                 Tracer& tracer, Result& result) {
  namespace fs = std::filesystem;
  using ftdiag::faults::FaultDictionary;
  ftdiag::service::StoreOptions options;
  options.root_dir = root_dir;
  fs::create_directories(root_dir);
  const auto spec = ftdiag::faults::DeviationSpec::paper();
  ftdiag::faults::SimOptions sim;
  sim.threads = kSimThreads;

  std::vector<double> persist_ms;
  std::vector<double> reload_ms;
  double bytes = 0.0;
  std::size_t builds = 0;
  std::size_t disk_hits = 0;
  std::size_t memory_hits = 0;
  for (std::size_t i = 0; i < cuts.size(); ++i) {
    ftdiag::service::DictionaryStore build_store(options);
    const fs::path path =
        build_store.path_for(ftdiag::dictionary_cache_key(cuts[i], spec, sim));
    fs::remove(path);
    ftdiag::service::DictionaryStore reload_store(options);
    std::shared_ptr<const FaultDictionary> built;
    std::shared_ptr<const FaultDictionary> reloaded;
    std::shared_ptr<const FaultDictionary> again;
    Clock::time_point t0 = Clock::now();
    {
      auto span = tracer.span("io.persist", i);
      built = build_store.get(cuts[i], spec, sim);
    }
    const Clock::time_point t1 = Clock::now();
    {
      auto span = tracer.span("io.reload", i);
      reloaded = reload_store.get(cuts[i], spec, sim);
    }
    reload_ms.push_back(us_between(t1, Clock::now()) / 1000.0);
    persist_ms.push_back(us_between(t0, t1) / 1000.0);
    {
      auto span = tracer.span("io.memory_get", i);
      again = reload_store.get(cuts[i], spec, sim);
    }
    bytes += static_cast<double>(fs::file_size(path));

    const auto built_stats = build_store.stats();
    const auto reload_stats = reload_store.stats();
    builds += built_stats.builds;
    disk_hits += reload_stats.disk_hits;
    memory_hits += reload_stats.memory_hits;
    result.attempted();
    if (built_stats.builds != 1 || built_stats.persisted != 1 ||
        reload_stats.disk_hits != 1 || reload_stats.memory_hits != 1) {
      result.failed("store tiers were not build -> disk -> memory");
    } else if (!same_bits(*built, *reloaded) || again != reloaded) {
      result.failed("reloaded .fdx differs from the dictionary that was built");
    }
  }
  sheet.set("io.persist_ms", median(persist_ms));
  sheet.set("io.reload_ms", median(reload_ms));
  sheet.set("io.fdx_bytes", bytes);
  sheet.set("store.builds", static_cast<double>(builds));
  sheet.set("store.disk_hits", static_cast<double>(disk_hits));
  sheet.set("store.memory_hits", static_cast<double>(memory_hits));
}

std::vector<ftdiag::service::DiagnosisReply> probe_core(
    const std::vector<ServedCircuit>& circuits, const Deck& deck,
    LayerSheet& sheet, Tracer& tracer) {
  std::map<std::string, const ftdiag::Session*> by_key;
  for (const ServedCircuit& c : circuits) by_key[c.key] = &c.session;
  std::vector<ftdiag::service::DiagnosisReply> replies(deck.requests.size());
  std::size_t points = 0;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < deck.requests.size(); ++i) {
    const auto& request = deck.requests[i];
    auto span = tracer.span("core.diagnose_batch", i);
    replies[i].results =
        by_key.at(request.circuit)->diagnose_batch(request.points, 1);
    points += request.points.size();
  }
  sheet.set("core.diagnose_us",
            us_between(t0, Clock::now()) / static_cast<double>(points));
  return replies;
}

void probe_codec(const Deck& deck,
                 const std::vector<ftdiag::service::DiagnosisReply>& replies,
                 LayerSheet& sheet, Tracer& tracer, Result& result) {
  std::size_t mismatches = 0;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < deck.requests.size(); ++i) {
    auto span = tracer.span("net.codec", i);
    const auto request = ftdiag::net::decode_diagnose(
        ftdiag::net::encode_diagnose(i, deck.requests[i]));
    const auto reply = ftdiag::net::decode_reply(
        ftdiag::net::encode_reply(request.request_id, replies[i]));
    if (request.request.points != deck.requests[i].points ||
        reply.reply.results.size() != replies[i].results.size()) {
      ++mismatches;
    }
  }
  sheet.set("net.codec_us", us_between(t0, Clock::now()) /
                                static_cast<double>(deck.requests.size()));
  result.check(mismatches == 0, "wire codec round trip changed a request");
}

namespace {
/// Forwards to the pipeline and times each generation's batch.
class TimedObjective final : public ftdiag::ga::BatchObjective {
public:
  TimedObjective(const ftdiag::core::EvaluationPipeline& pipeline,
                 Tracer& tracer)
      : pipeline_(pipeline), tracer_(tracer) {}

  std::vector<double> evaluate(
      const std::vector<std::vector<double>>& genomes) const override {
    const Clock::time_point t0 = Clock::now();
    auto span = tracer_.span("core.fitness");
    std::vector<double> scores = pipeline_.evaluate(genomes);
    busy_us_ += us_between(t0, Clock::now());
    genomes_ += genomes.size();
    return scores;
  }

  double busy_us() const { return busy_us_; }
  std::size_t genomes() const { return genomes_; }

private:
  const ftdiag::core::EvaluationPipeline& pipeline_;
  Tracer& tracer_;
  mutable double busy_us_ = 0.0;
  mutable std::size_t genomes_ = 0;
};
}  // namespace

ftdiag::ga::Candidate probe_search(const ftdiag::Session& session,
                                   SearchTotals& totals, Tracer& tracer) {
  const ftdiag::SearchOptions& search = session.options().search;
  ftdiag::core::PipelineOptions options;
  options.threads = search.resolved_threads();
  options.cache_signatures = search.eval_cache;
  const ftdiag::core::EvaluationPipeline pipeline(session.evaluator(), options);
  const TimedObjective objective(pipeline, tracer);
  const ftdiag::ga::GeneticAlgorithm ga(search.ga);
  ftdiag::Rng rng(search.seed);
  ftdiag::ga::OptimizerResult result;
  {
    auto span = tracer.span("ga.search");
    result = ga.optimize(objective, search.n_frequencies, session.bounds(), rng);
  }
  const auto stats = pipeline.stats();
  totals.fitness_us += objective.busy_us();
  totals.genomes += objective.genomes();
  totals.genomes_evaluated += stats.genomes_evaluated;
  totals.genome_hits += stats.genome_hits;
  totals.column_hits += stats.column_hits;
  totals.column_misses += stats.column_misses;
  totals.evaluations += result.evaluations;
  return result.best;
}

void SearchTotals::report(LayerSheet& sheet) const {
  auto ratio = [](std::size_t a, std::size_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  sheet.set("core.fitness_us", genomes == 0 ? 0.0 : fitness_us / static_cast<double>(genomes));
  sheet.set("core.column_hit_rate", ratio(column_hits, column_hits + column_misses));
  sheet.set("core.genome_hit_rate", ratio(genome_hits, genomes_evaluated));
  sheet.set("ga.evaluations", static_cast<double>(evaluations));
}

}  // namespace ftbench
