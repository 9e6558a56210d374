// Per-layer metrics of the traced run, and the probes that time calls
// into single layers (linalg, faults, core, ga, net codec) directly.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "circuits/cut.hpp"
#include "common.hpp"
#include "ga/optimizer.hpp"
#include "load.hpp"
#include "session.hpp"
#include "trace.hpp"

namespace ftbench {

/// Every per-layer metric, in a fixed order with fixed units.  A layer a
/// workload never executes reports 0.
class LayerSheet {
public:
  LayerSheet();
  void set(const std::string& name, double value);
  /// Emit every metric plus "<layer>.self_ms" from the tracer's spans.
  void emit(const Tracer& tracer, Result& result) const;

private:
  std::vector<std::pair<std::string, std::string>> order_;  ///< name, unit
  std::map<std::string, double> values_;
};

/// SweepSolver::analyze / factor / solve_into over the CUT's dictionary
/// grid: linalg.analyze_ms, linalg.factor_us, linalg.solve_us,
/// linalg.factor_nnz (summed over the circuits probed).
void probe_linalg(const std::vector<ftdiag::circuits::CircuitUnderTest>& cuts,
                  LayerSheet& sheet, Tracer& tracer);

/// SimulationEngine::simulate_all, one thread: faults.build_ms (median
/// per circuit), faults.rank1_solves, faults.full_solves.
void probe_faults(const std::vector<ftdiag::circuits::CircuitUnderTest>& cuts,
                  LayerSheet& sheet, Tracer& tracer);

/// Session::diagnose_batch on one thread over the deck's requests:
/// core.diagnose_us per point.  Returns the replies for probe_codec.
std::vector<ftdiag::service::DiagnosisReply> probe_core(
    const std::vector<ServedCircuit>& circuits, const Deck& deck,
    LayerSheet& sheet, Tracer& tracer);

/// wire::encode_/decode_diagnose and encode_/decode_reply round trips of
/// the deck's requests and their replies: net.codec_us per request.
void probe_codec(const Deck& deck,
                 const std::vector<ftdiag::service::DiagnosisReply>& replies,
                 LayerSheet& sheet, Tracer& tracer, Result& result);

/// DictionaryStore round trip of each CUT's dictionary under \p root_dir:
/// a cold build that persists the `.fdx`, a reload by a fresh store, and a
/// memory hit.  io.persist_ms and io.reload_ms (medians), io.fdx_bytes and
/// store.builds / disk_hits / memory_hits; a reload that is not
/// bit-identical to the build is a failed operation.
void probe_store(const std::vector<ftdiag::circuits::CircuitUnderTest>& cuts,
                 const std::string& root_dir, LayerSheet& sheet,
                 Tracer& tracer, Result& result);

/// Fitness-pipeline counters summed over the searches probed.
struct SearchTotals {
  double fitness_us = 0.0;
  std::size_t genomes = 0;
  std::size_t genomes_evaluated = 0;
  std::size_t genome_hits = 0;
  std::size_t column_hits = 0;
  std::size_t column_misses = 0;
  std::size_t evaluations = 0;

  /// core.fitness_us, core.column_hit_rate, core.genome_hit_rate,
  /// ga.evaluations.
  void report(LayerSheet& sheet) const;
};

/// The GA search of Session::run_search, re-run with an EvaluationPipeline
/// the benchmark owns so its counters are readable.  Returns the winner
/// so the caller can compare it with run_search's.
ftdiag::ga::Candidate probe_search(const ftdiag::Session& session,
                                   SearchTotals& totals, Tracer& tracer);

}  // namespace ftbench
