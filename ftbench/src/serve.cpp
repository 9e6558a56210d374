// serve_mix and serve_wide: open-loop diagnosis traffic over loopback TCP
// against a net::Server in this process.
#include <memory>
#include <thread>

#include "circuits/ladders.hpp"
#include "circuits/registry.hpp"
#include "net/server.hpp"
#include "serving.hpp"
#include "workloads.hpp"

namespace ftbench {

namespace {

/// serve_mix: every registry circuit, one point per request.
ServeSpec mix_spec() {
  ServeSpec spec;
  spec.points_per_request = 1;
  spec.pool_per_circuit = 256;
  spec.accuracy_per_circuit = 400;
  spec.deck_size = 4096;
  spec.warmup_requests = 500;
  spec.plan.light_rps = 1000;
  spec.plan.light_requests = 10000;
  spec.plan.heavy_rps = 15000;
  spec.plan.heavy_requests = 11000;
  spec.plan.ladder_low_rps = 10000;
  spec.plan.ladder_high_rps = 200000;
  return spec;
}

/// serve_wide: one ~800-fault random RC network, four points per request.
ServeSpec wide_spec() {
  ServeSpec spec;
  spec.points_per_request = 4;
  spec.pool_per_circuit = 1024;
  spec.accuracy_per_circuit = 3000;
  spec.deck_size = 2048;
  spec.warmup_requests = 300;
  spec.plan.light_rps = 1000;
  spec.plan.light_requests = 10000;
  spec.plan.heavy_rps = 3000;
  spec.plan.heavy_requests = 10500;
  spec.plan.ladder_low_rps = 1500;
  spec.plan.ladder_high_rps = 30000;
  return spec;
}

ftdiag::circuits::CircuitUnderTest wide_circuit() {
  ftdiag::circuits::RandomNetworkDesign design;
  design.nodes = 100;
  design.chords = 150;
  design.seed = 1;
  return ftdiag::circuits::make_random_network(design);
}

/// Sessions with dictionaries and GA vectors ready, a service and a
/// listening server.  Members are declared so the server stops before the
/// service it references.
struct Stack {
  std::vector<ServedCircuit> circuits;
  std::unique_ptr<ftdiag::service::DiagnosisService> service;
  std::unique_ptr<ftdiag::net::Server> server;
};

std::unique_ptr<Stack> start_stack(bool wide, Tracer& tracer) {
  ftdiag::Session::clear_dictionary_cache();
  auto stack = std::make_unique<Stack>();
  auto add = [&](ftdiag::SessionBuilder builder) {
    ftdiag::Session session = builder.build();
    {
      auto span = tracer.span("faults.dictionary");
      (void)session.dictionary();
    }
    {
      auto span = tracer.span("ga.generate_tests");
      (void)session.generate_tests();
    }
    stack->circuits.push_back({session.cut().name, std::move(session)});
  };
  ftdiag::SearchOptions search;
  search.threads = kSearchThreads;
  ftdiag::SimOptions sim;
  sim.threads = kSimThreads;
  if (wide) {
    // A short GA: the paper's 128 x 15 search costs seconds on 99 sites.
    search.ga.population_size = 16;
    search.ga.generations = 4;
    add(ftdiag::SessionBuilder(wide_circuit()).search(search).sim(sim));
  } else {
    for (const std::string& name : ftdiag::circuits::registry_names()) {
      add(ftdiag::SessionBuilder::from_registry(name).search(search).sim(sim));
    }
  }
  stack->service = std::make_unique<ftdiag::service::DiagnosisService>(
      pinned_service_options());
  for (const ServedCircuit& c : stack->circuits) {
    stack->service->add_session(c.key, c.session);
  }
  stack->server = std::make_unique<ftdiag::net::Server>(*stack->service);
  return stack;
}

/// The synchronous caller's call count in a run of \p seconds.
std::size_t sync_calls(double seconds) {
  return static_cast<std::size_t>(static_cast<double>(kSyncCalls) * seconds /
                                  20.0);
}

ServeSpec scaled(ServeSpec spec, double factor) {
  auto scale = [&](std::size_t& n) {
    n = static_cast<std::size_t>(static_cast<double>(n) * factor);
  };
  scale(spec.plan.light_requests);
  scale(spec.plan.heavy_requests);
  spec.plan.probe_seconds *= factor;
  return spec;
}

/// The server's counter identity once the client is gone.
void check_counters(const ftdiag::net::Server& server, Result& result) {
  for (int i = 0; i < 200 && server.stats().connections_open > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const auto stats = server.stats();
  result.check(stats.connections_open == 0, "connection did not close");
  result.check(stats.requests_received ==
                   stats.replies_sent + stats.error_frames_sent,
               "requests_received != replies_sent + error_frames_sent");
}

void traced_serve(Stack& stack, ftdiag::net::Client& client,
                  TcpTransport& tcp, const Deck& deck, const ServeSpec& spec,
                  const Args& args, Tracer& tracer, Result& result) {
  LayerSheet sheet;
  Tracer off(false);

  // Tracing overhead: the same closed-loop slice untraced and traced,
  // alternated twice so warm-up does not fall on one side.
  double plain_s = 0.0;
  double traced_s = 0.0;
  for (int round = 0; round < 2; ++round) {
    const LoadOutcome plain =
        run_sync_caller(client, deck, 0, sync_calls(args.seconds) / 2, off);
    const LoadOutcome traced =
        run_sync_caller(client, deck, 0, sync_calls(args.seconds) / 2, tracer);
    plain.account(result);
    traced.account(result);
    plain_s += plain.seconds;
    traced_s += traced.seconds;
  }
  sheet.set("trace.overhead_pct", 100.0 * (traced_s - plain_s) / plain_s);

  const auto net_before = stack.server->stats();
  const LoadOutcome light =
      trace_service_phases(tcp, *stack.service, deck, spec, args.seed,
                           "net.send", "net.reply", sheet, tracer, result);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto net_after = stack.server->stats();
  sheet.set("net.send_us", median(tracer.durations_us("net.send")));
  sheet.set("net.requests_received",
            static_cast<double>(net_after.requests_received -
                                net_before.requests_received));
  sheet.set("net.replies_sent", static_cast<double>(net_after.replies_sent -
                                                    net_before.replies_sent));
  sheet.set("net.error_frames",
            static_cast<double>(net_after.error_frames_sent -
                                net_before.error_frames_sent));

  // The same light schedule straight into the service, no network.
  LocalTransport local(*stack.service);
  Stream light_stream(args.seed, 0x11647);
  const LoadOutcome in_process = run_open_loop(
      local, deck, 0,
      poisson_schedule(spec.plan.light_rps, spec.plan.light_requests,
                       light_stream),
      tracer, nullptr, "service.request");
  in_process.account(result);
  const double service_p50 = percentile(in_process.latency_us, 0.5).value_or(0);
  sheet.set("service.latency_us", service_p50);
  sheet.set("net.overhead_us",
            percentile(light.latency_us, 0.5).value_or(0) - service_p50);

  const auto replies = probe_core(stack.circuits, deck, sheet, tracer);
  probe_codec(deck, replies, sheet, tracer, result);
  std::vector<ftdiag::circuits::CircuitUnderTest> cuts;
  for (const ServedCircuit& c : stack.circuits) cuts.push_back(c.session.cut());
  probe_faults(cuts, sheet, tracer);
  probe_linalg(cuts, sheet, tracer);
  sheet.set("ga.search_ms",
            median(tracer.durations_us("ga.generate_tests")) / 1000.0);
  sheet.emit(tracer, result);
}

}  // namespace

void run_serve(const Args& args, bool wide, Result& result) {
  const ServeSpec spec = scaled(wide ? wide_spec() : mix_spec(), args.seconds / 20.0);
  Tracer tracer(args.trace);
  Tracer off(false);

  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < kSetups; ++i) {
    stack.reset();
    const Clock::time_point t0 = Clock::now();
    stack = start_stack(wide, i == 0 ? tracer : off);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  Stream deck_stream(args.seed, 0xdec4);
  const Deck deck = make_deck(stack->circuits, spec.pool_per_circuit,
                              spec.points_per_request, spec.deck_size,
                              deck_stream);
  ftdiag::net::Client client("127.0.0.1", stack->server->port());
  TcpTransport tcp(client);
  Stream warm_stream(args.seed, 0x3a43);
  run_open_loop(tcp, deck, 0,
                poisson_schedule(spec.plan.light_rps, spec.warmup_requests,
                                 warm_stream),
                off)
      .account(result);

  if (args.trace) {
    traced_serve(*stack, client, tcp, deck, spec, args, tracer, result);
  } else {
    Stream board_stream(args.seed, 0xb0a4d);
    measure_accuracy(tcp,
                     draw_boards(stack->circuits, spec.accuracy_per_circuit,
                                 board_stream),
                     stack->circuits, result);
    // The synchronous caller runs in the serving slices too, and reports
    // the best slice, for the reason measure_serving gives.
    const std::size_t calls = sync_calls(args.seconds) / kSlices;
    std::vector<double> sync_p50;
    std::vector<double> sync_p90;
    std::vector<double> sync_rate;
    measure_serving(tcp, deck, spec.plan, args.seed, result, off,
                    [&](std::size_t i) {
                      const LoadOutcome sync =
                          run_sync_caller(client, deck, i * calls, calls, off);
                      sync.account(result);
                      const auto p90 = percentile(sync.latency_us, 0.9);
                      result.check(p90.has_value(),
                                   "a slice has too few samples for its p90");
                      sync_p50.push_back(median(sync.latency_us));
                      sync_p90.push_back(p90.value_or(0.0));
                      sync_rate.push_back(
                          static_cast<double>(sync.latency_us.size()) /
                          sync.seconds);
                    });
    result.metric("p50_us", lowest(sync_p50), "us");
    result.metric("p90_us", lowest(sync_p90), "us");
    result.metric("throughput_ops", highest(sync_rate), "1/s");
  }
  client.close();
  check_counters(*stack->server, result);

  if (args.trace) {
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
