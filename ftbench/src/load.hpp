// Serving harness shared by every workload: seeded boards and request
// decks, the open-loop generator, the synchronous caller and the rate
// ladder, over either a TCP connection or an in-process service.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"
#include "net/client.hpp"
#include "service/diagnosis_service.hpp"
#include "session.hpp"
#include "trace.hpp"

namespace ftbench {

/// A session under a service key, with its test vector installed.
struct ServedCircuit {
  std::string key;
  ftdiag::Session session;
};

/// One emulated faulty board: the injected site and its observed point.
struct Board {
  std::string circuit;
  std::string site;
  ftdiag::core::Point point;
};

/// \p count boards per circuit, each a fault site deviated by +-[5%, 40%]
/// and measured at the circuit's active test vector.  The boards are
/// stratified so the seed moves accuracy little: the sites take turns,
/// round k of the turns covers the k-th equal stratum of the magnitude
/// range, signs alternate, and \p stream draws only each magnitude's
/// place inside its stratum.
[[nodiscard]] std::vector<Board> draw_boards(
    const std::vector<ServedCircuit>& circuits, std::size_t count,
    Stream& stream);

/// Seeded requests plus what a direct Session::diagnose gives for each of
/// their points: expected[r][p] indexes the answer in `answers`.
struct Deck {
  std::vector<ftdiag::service::DiagnosisRequest> requests;
  std::vector<ftdiag::core::Diagnosis> answers;
  std::vector<std::vector<std::size_t>> expected;
};

/// \p size requests of \p points_per_request points each, drawn from a
/// pool of \p pool_per_circuit boards per circuit; circuits interleave.
[[nodiscard]] Deck make_deck(const std::vector<ServedCircuit>& circuits,
                             std::size_t pool_per_circuit,
                             std::size_t points_per_request, std::size_t size,
                             Stream& stream);

/// Where requests go.  send() runs on the generator thread, receive() on
/// the collector thread; replies come back in send order.
class Transport {
public:
  virtual ~Transport() = default;
  virtual void send(const ftdiag::service::DiagnosisRequest& request) = 0;
  /// \throws ftdiag::Error when the request failed.
  virtual ftdiag::service::DiagnosisReply receive() = 0;
};

/// One pipelined connection to a net::Server.
class TcpTransport final : public Transport {
public:
  explicit TcpTransport(ftdiag::net::Client& client) : client_(client) {}
  void send(const ftdiag::service::DiagnosisRequest& request) override {
    (void)client_.send(request);
  }
  ftdiag::service::DiagnosisReply receive() override {
    return client_.receive().reply;
  }

private:
  ftdiag::net::Client& client_;
};

/// Straight into a DiagnosisService in this process: submit on send,
/// future.get() on receive.
class LocalTransport final : public Transport {
public:
  explicit LocalTransport(ftdiag::service::DiagnosisService& service)
      : service_(service) {}
  void send(const ftdiag::service::DiagnosisRequest& request) override;
  ftdiag::service::DiagnosisReply receive() override;

private:
  ftdiag::service::DiagnosisService& service_;
  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<std::future<ftdiag::service::DiagnosisReply>> futures_;
};

/// Outcome of a batch of requests.
struct LoadOutcome {
  std::vector<double> latency_us;  ///< per answered request
  std::vector<double> lag_us;      ///< generator lateness per send
  std::size_t sent = 0;
  std::size_t failed = 0;          ///< errors, wrong answers, unsent
  /// Open loop: first due time to last reply; synchronous: time in calls.
  double seconds = 0.0;
  double tail_us = 0.0;            ///< median latency of the last 1%
  std::string first_problem;

  /// Fold into the run's counts.
  void account(Result& result) const;
};

/// Open loop: request i of the deck (cyclic from \p offset) is due at
/// due_us[i] after the start; latency counts from that due time.  When
/// named, a \p send_span covers each send and a \p reply_span runs from
/// each due time to its reply.
[[nodiscard]] LoadOutcome run_open_loop(Transport& transport, const Deck& deck,
                                        std::size_t offset,
                                        const std::vector<double>& due_us,
                                        Tracer& tracer,
                                        const char* send_span = nullptr,
                                        const char* reply_span = nullptr);

/// Poisson arrival offsets (microseconds) for \p count requests at \p rps.
[[nodiscard]] std::vector<double> poisson_schedule(double rps,
                                                   std::size_t count,
                                                   Stream& stream);

/// Closed loop: one Client::diagnose at a time (span "net.call").
[[nodiscard]] LoadOutcome run_sync_caller(ftdiag::net::Client& client,
                                          const Deck& deck, std::size_t offset,
                                          std::size_t calls, Tracer& tracer);

/// Fixed serving plan of one workload.
struct ServingPlan {
  double light_rps = 0;
  std::size_t light_requests = 0;
  double heavy_rps = 0;
  std::size_t heavy_requests = 0;
  /// Rate ladder: low * kLadderStep^k up to high; each try of a step
  /// lasts probe_seconds.
  double ladder_low_rps = 0;
  double ladder_high_rps = 0;
  double probe_seconds = 0.3;
};

/// Light, heavy and ladder phases: reports p50_us.low, p99_us.low,
/// p50_us.high, p99_us.high and max_rate_rps.  \p each_slice, when given,
/// runs after the light and heavy traffic of each slice i.
void measure_serving(Transport& transport, const Deck& deck,
                     const ServingPlan& plan, std::uint64_t seed,
                     Result& result, Tracer& tracer,
                     const std::function<void(std::size_t i)>& each_slice = {});

/// Serve every board once through \p transport (pipelined), check each
/// answer against a direct diagnosis, and report `accuracy`.
void measure_accuracy(Transport& transport, const std::vector<Board>& boards,
                      const std::vector<ServedCircuit>& circuits,
                      Result& result);

}  // namespace ftbench
