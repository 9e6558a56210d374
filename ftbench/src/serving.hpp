// Serving phases common to the workloads: the TCP phases of serve_mix and
// serve_wide, and the in-process phases the offline workload runs on the
// artifacts it produced.
#pragma once

#include <vector>

#include "layers.hpp"
#include "load.hpp"

namespace ftbench {

/// Fixed serving inputs of one workload.
struct ServeSpec {
  std::size_t points_per_request = 1;
  std::size_t pool_per_circuit = 0;
  std::size_t accuracy_per_circuit = 0;
  std::size_t deck_size = 0;
  std::size_t warmup_requests = 0;
  ServingPlan plan;
};

/// The default ServiceOptions with only the thread counts pinned.
[[nodiscard]] ftdiag::service::ServiceOptions pinned_service_options();

/// Open-loop light then heavy traffic with spans, folding ServiceStats
/// deltas into service.* and returning the light phase's outcome.
/// \p reply_span names the due-to-reply span.
LoadOutcome trace_service_phases(Transport& transport,
                                 const ftdiag::service::DiagnosisService& service,
                                 const Deck& deck, const ServeSpec& spec,
                                 std::uint64_t seed, const char* send_span,
                                 const char* reply_span, LayerSheet& sheet,
                                 Tracer& tracer, Result& result);

/// In-process serving of \p circuits: accuracy plus the light, heavy and
/// ladder phases when untraced; service.*, core.diagnose_us and
/// gen.lag_us when traced.
void serve_in_process(const std::vector<ServedCircuit>& circuits,
                      const ServeSpec& spec, const Args& args, Result& result,
                      LayerSheet& sheet, Tracer& tracer);

}  // namespace ftbench
