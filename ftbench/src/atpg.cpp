// atpg: the paper's test-generation flow over a fixed list of (registry
// circuit, GA seed) pairs, run in a closed loop by one caller.
#include <algorithm>
#include <cstring>

#include "circuits/registry.hpp"
#include "serving.hpp"
#include "workloads.hpp"

namespace ftbench {

namespace {

struct Item {
  std::string circuit;
  std::uint64_t ga_seed = 0;
  std::uint64_t eval_seed = 0;
};

/// 15 items over the registry circuits in turn.  The GA seeds are fixed,
/// so every run searches the same way; the workload seed draws the
/// Monte-Carlo boards each evaluate() diagnoses, and the item order.  With
/// an odd multiple of 5 items, the p50 and p90 ranks of whole passes fall
/// inside one item's samples rather than on the edge between two items.
std::vector<Item> work_list(std::uint64_t seed) {
  constexpr std::size_t kItems = 15;
  const std::vector<std::string> names = ftdiag::circuits::registry_names();
  Stream ga_seeds(0, 0xa7b9);
  Stream stream(seed, 0xa7b9);
  std::vector<Item> items;
  for (std::size_t k = 0; k < kItems; ++k) {
    items.push_back({names[k % names.size()], ga_seeds.next() % 1000000,
                     stream.next() % 1000000});
  }
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[stream.below(i)]);
  }
  return items;
}

ftdiag::Session make_session(const Item& item, std::size_t search_threads) {
  ftdiag::SearchOptions search;
  search.seed = item.ga_seed;
  search.threads = search_threads;
  ftdiag::SimOptions sim;
  sim.threads = kSimThreads;
  return ftdiag::SessionBuilder::from_registry(item.circuit)
      .search(search)
      .sim(sim)
      .build();
}

ftdiag::core::EvaluationOptions eval_options(const Item& item) {
  ftdiag::core::EvaluationOptions options;
  options.trials = 100;
  options.seed = item.eval_seed;
  return options;
}

struct ItemOutcome {
  ftdiag::Session session;
  ftdiag::ga::Candidate best;
  std::size_t correct_site = 0;
};

/// One work item: cold dictionary, GA search, score, Monte-Carlo evaluate.
ItemOutcome run_item(const Item& item, std::uint64_t id, Tracer& tracer,
                     Result& result) {
  auto span = tracer.span("atpg.item", id);
  ftdiag::Session::clear_dictionary_cache();
  ftdiag::Session session = make_session(item, kSearchThreads);
  {
    auto s = tracer.span("faults.dictionary", id);
    (void)session.dictionary();
  }
  ftdiag::TestGenResult found;
  {
    auto s = tracer.span("ga.run_search", id);
    found = session.run_search();
  }
  ftdiag::core::TestVectorScore score;
  {
    auto s = tracer.span("core.score", id);
    score = session.score(found.best.vector);
  }
  ftdiag::core::AccuracyReport report;
  {
    auto s = tracer.span("core.evaluate", id);
    session.use_vector(found.best.vector);
    report = session.evaluate(eval_options(item));
  }
  result.check(std::memcmp(&score.fitness, &found.best.fitness,
                           sizeof score.fitness) == 0,
               "score() of the GA winner differs from the search's score");
  return {std::move(session), found.search.best, report.correct_site};
}

/// Runs every item once; checks winners against the 1-thread references
/// and the evaluations against the first pass.  Returns per-item seconds.
std::vector<double> run_pass(const std::vector<Item>& items,
                             const std::vector<ftdiag::ga::Candidate>& reference,
                             std::vector<std::size_t>& correct_sites,
                             std::vector<ItemOutcome>* keep, Tracer& tracer,
                             Result& result) {
  std::vector<double> seconds;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const Clock::time_point t0 = Clock::now();
    ItemOutcome outcome = run_item(items[i], i, tracer, result);
    seconds.push_back(seconds_between(t0, Clock::now()));
    result.attempted();
    if (!(outcome.best == reference[i])) {
      result.failed("GA winner differs from the 1-thread run with the same seed");
    } else if (correct_sites.size() == i) {
      correct_sites.push_back(outcome.correct_site);
    } else if (correct_sites[i] != outcome.correct_site) {
      result.failed("evaluate() differs between identical passes");
    }
    if (keep != nullptr) keep->push_back(std::move(outcome));
  }
  return seconds;
}

ServeSpec serving_spec(double factor) {
  ServeSpec spec;
  spec.points_per_request = 8;
  spec.pool_per_circuit = 64;
  spec.accuracy_per_circuit = 200;
  spec.deck_size = 2048;
  spec.warmup_requests = 300;
  spec.plan.light_rps = 2000;
  spec.plan.light_requests = static_cast<std::size_t>(10000 * factor);
  spec.plan.heavy_rps = 20000;
  spec.plan.heavy_requests = static_cast<std::size_t>(11000 * factor);
  spec.plan.ladder_low_rps = 5000;
  spec.plan.ladder_high_rps = 300000;
  spec.plan.probe_seconds = 0.3 * factor;
  return spec;
}

}  // namespace

void run_atpg(const Args& args, Result& result) {
  const double factor = args.seconds / 20.0;
  const std::vector<Item> items = work_list(args.seed);
  Tracer tracer(args.trace);
  Tracer off(false);

  // Set-up: every item's reference winner from a 1-thread search.
  std::vector<double> setup_s;
  std::vector<ftdiag::ga::Candidate> reference;
  for (int s = 0; s < kSetups; ++s) {
    ftdiag::Session::clear_dictionary_cache();
    const Clock::time_point t0 = Clock::now();
    std::vector<ftdiag::ga::Candidate> winners;
    for (const Item& item : items) {
      winners.push_back(make_session(item, 1).run_search().search.best);
    }
    setup_s.push_back(seconds_between(t0, Clock::now()));
    result.check(reference.empty() || winners == reference,
                 "1-thread GA winners differ between set-ups");
    reference = std::move(winners);
  }

  std::vector<std::size_t> correct_sites;
  std::vector<ItemOutcome> last;
  LayerSheet sheet;
  if (args.trace) {
    // Untraced and traced passes alternate twice so warm-up does not fall
    // on one side; the last traced pass supplies the sessions.
    double plain_s = 0.0;
    double traced_s = 0.0;
    for (int round = 0; round < 2; ++round) {
      for (double s : run_pass(items, reference, correct_sites, nullptr, off, result)) {
        plain_s += s;
      }
      last.clear();
      for (double s : run_pass(items, reference, correct_sites, &last, tracer, result)) {
        traced_s += s;
      }
    }
    sheet.set("trace.overhead_pct", 100.0 * (traced_s - plain_s) / plain_s);
    sheet.set("ga.search_ms", median(tracer.durations_us("ga.run_search")) / 1000.0);
    sheet.set("core.evaluate_ms", median(tracer.durations_us("core.evaluate")) / 1000.0);
    SearchTotals totals;
    for (std::size_t i = 0; i < last.size(); ++i) {
      result.check(probe_search(last[i].session, totals, tracer) == reference[i],
                   "re-run GA search differs from Session::run_search");
    }
    totals.report(sheet);
    std::vector<ftdiag::circuits::CircuitUnderTest> cuts;
    for (const std::string& name : ftdiag::circuits::registry_names()) {
      cuts.push_back(ftdiag::circuits::make_by_name(name));
    }
    probe_faults(cuts, sheet, tracer);
    probe_linalg(cuts, sheet, tracer);
    probe_store(cuts, args.work_dir + "/store", sheet, tracer, result);
  } else {
    // Whole passes over the fixed list until the item budget is spent.
    std::vector<double> item_s;
    const Clock::time_point t0 = Clock::now();
    while (seconds_between(t0, Clock::now()) < 10.0 * factor || item_s.size() < 100) {
      last.clear();
      const auto pass = run_pass(items, reference, correct_sites, &last, off, result);
      item_s.insert(item_s.end(), pass.begin(), pass.end());
    }
    const double elapsed = seconds_between(t0, Clock::now());
    for (double& s : item_s) s *= 1e6;
    result.metric("p50_us", percentile(item_s, 0.5), "us");
    result.metric("p90_us", percentile(item_s, 0.9), "us");
    result.metric("throughput_ops", static_cast<double>(item_s.size()) / elapsed,
                  "1/s");
  }

  // The generated test programs go into service, in process.
  std::vector<ServedCircuit> circuits;
  for (std::size_t i = 0; i < last.size(); ++i) {
    circuits.push_back({items[i].circuit + "#" + std::to_string(i), last[i].session});
  }
  serve_in_process(circuits, serving_spec(factor), args, result, sheet, tracer);

  if (args.trace) {
    sheet.emit(tracer, result);
    tracer.write(args.trace_path);
  } else {
    result.metric("success_rate",
                  1.0 - static_cast<double>(result.failed_count()) /
                            static_cast<double>(result.attempted_count()),
                  "ratio");
    result.metric("setup_s", median(setup_s), "s");
    result.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  }
}

}  // namespace ftbench
