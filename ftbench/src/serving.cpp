#include "serving.hpp"

#include "workloads.hpp"

namespace ftbench {

ftdiag::service::ServiceOptions pinned_service_options() {
  ftdiag::service::ServiceOptions options;
  options.workers = kServiceWorkers;
  options.batch_threads = kBatchThreads;
  return options;
}

LoadOutcome trace_service_phases(Transport& transport,
                                 const ftdiag::service::DiagnosisService& service,
                                 const Deck& deck, const ServeSpec& spec,
                                 std::uint64_t seed, const char* send_span,
                                 const char* reply_span, LayerSheet& sheet,
                                 Tracer& tracer, Result& result) {
  const auto before = service.stats();
  Stream light_stream(seed, 0x11647);
  LoadOutcome light = run_open_loop(
      transport, deck, 0,
      poisson_schedule(spec.plan.light_rps, spec.plan.light_requests,
                       light_stream),
      tracer, send_span, reply_span);
  light.account(result);
  Stream heavy_stream(seed, 0x4eabe);
  const LoadOutcome heavy = run_open_loop(
      transport, deck, spec.plan.light_requests,
      poisson_schedule(spec.plan.heavy_rps, spec.plan.heavy_requests,
                       heavy_stream),
      tracer, send_span, reply_span);
  heavy.account(result);
  const auto after = service.stats();

  auto delta = [](std::size_t a, std::size_t b) {
    return static_cast<double>(a - b);
  };
  const double batches = delta(after.batches, before.batches);
  sheet.set("service.batches", batches);
  sheet.set("service.mean_batch",
            batches > 0
                ? delta(after.batched_requests, before.batched_requests) / batches
                : 0.0);
  sheet.set("service.queue_full_waits",
            delta(after.queue_full_waits, before.queue_full_waits));
  sheet.set("service.shed", delta(after.shed, before.shed));
  sheet.set("service.deadline_expired",
            delta(after.deadline_expired, before.deadline_expired));

  std::vector<double> lag = light.lag_us;
  lag.insert(lag.end(), heavy.lag_us.begin(), heavy.lag_us.end());
  sheet.set("gen.lag_us", percentile(lag, 0.99).value_or(0.0));
  return light;
}

void serve_in_process(const std::vector<ServedCircuit>& circuits,
                      const ServeSpec& spec, const Args& args, Result& result,
                      LayerSheet& sheet, Tracer& tracer) {
  ftdiag::service::DiagnosisService service(pinned_service_options());
  for (const ServedCircuit& c : circuits) service.add_session(c.key, c.session);
  LocalTransport local(service);

  Stream deck_stream(args.seed, 0xdec4);
  const Deck deck = make_deck(circuits, spec.pool_per_circuit,
                              spec.points_per_request, spec.deck_size,
                              deck_stream);
  Tracer off(false);
  Stream warm_stream(args.seed, 0x3a43);
  run_open_loop(local, deck, 0,
                poisson_schedule(spec.plan.light_rps, spec.warmup_requests,
                                 warm_stream),
                off)
      .account(result);

  if (!tracer.enabled()) {
    Stream board_stream(args.seed, 0xb0a4d);
    measure_accuracy(
        local, draw_boards(circuits, spec.accuracy_per_circuit, board_stream),
        circuits, result);
    measure_serving(local, deck, spec.plan, args.seed, result, off);
    return;
  }
  const LoadOutcome light = trace_service_phases(
      local, service, deck, spec, args.seed, nullptr, "service.request", sheet,
      tracer, result);
  sheet.set("service.latency_us",
            percentile(light.latency_us, 0.5).value_or(0.0));
  (void)probe_core(circuits, deck, sheet, tracer);
}

}  // namespace ftbench
