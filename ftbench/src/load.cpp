#include "load.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <thread>

#include "workloads.hpp"

namespace ftbench {

using ftdiag::service::DiagnosisReply;
using ftdiag::service::DiagnosisRequest;

std::vector<Board> draw_boards(const std::vector<ServedCircuit>& circuits,
                               std::size_t count, Stream& stream) {
  constexpr double kLow = 0.05;
  constexpr double kHigh = 0.40;
  std::vector<Board> boards;
  for (const ServedCircuit& circuit : circuits) {
    const auto dictionary = circuit.session.dictionary();
    const auto& labels = dictionary->site_labels();
    const std::size_t rounds = (count + labels.size() - 1) / labels.size();
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t site = i % labels.size();
      const std::size_t round = i / labels.size();
      const std::string& label = labels[site];
      ftdiag::faults::ParametricFault fault =
          dictionary->entries()[dictionary->entries_for(label).front()].fault;
      const double magnitude =
          kLow + (kHigh - kLow) *
                     (static_cast<double>(round) + stream.uniform()) /
                     static_cast<double>(rounds);
      fault.deviation = (site + round) % 2 == 0 ? -magnitude : magnitude;
      boards.push_back({circuit.key, label,
                        circuit.session.observe(circuit.session.measure(fault))});
    }
  }
  return boards;
}

Deck make_deck(const std::vector<ServedCircuit>& circuits,
               std::size_t pool_per_circuit, std::size_t points_per_request,
               std::size_t size, Stream& stream) {
  const std::vector<Board> pool = draw_boards(circuits, pool_per_circuit, stream);
  Deck deck;
  deck.answers.reserve(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const ServedCircuit& circuit = circuits[i / pool_per_circuit];
    deck.answers.push_back(circuit.session.diagnose(pool[i].point));
  }
  deck.requests.reserve(size);
  deck.expected.reserve(size);
  for (std::size_t r = 0; r < size; ++r) {
    const std::size_t c = stream.below(circuits.size());
    DiagnosisRequest request;
    request.circuit = circuits[c].key;
    std::vector<std::size_t> expected;
    for (std::size_t p = 0; p < points_per_request; ++p) {
      const std::size_t index =
          c * pool_per_circuit + stream.below(pool_per_circuit);
      request.points.push_back(pool[index].point);
      expected.push_back(index);
    }
    deck.requests.push_back(std::move(request));
    deck.expected.push_back(std::move(expected));
  }
  return deck;
}

void LocalTransport::send(const DiagnosisRequest& request) {
  // A refused submit becomes a failed reply, so the collector, which waits
  // for one future per send, never waits for a reply that cannot come.
  std::future<DiagnosisReply> future;
  try {
    future = service_.submit(request);
  } catch (...) {
    std::promise<DiagnosisReply> refused;
    refused.set_exception(std::current_exception());
    future = refused.get_future();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  futures_.push_back(std::move(future));
  ready_.notify_one();
}

DiagnosisReply LocalTransport::receive() {
  std::future<DiagnosisReply> future;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [&] { return !futures_.empty(); });
    future = std::move(futures_.front());
    futures_.pop_front();
  }
  return future.get();
}

void LoadOutcome::account(Result& result) const {
  result.attempted(sent);
  if (failed > 0) result.failed(first_problem, failed);
}

namespace {

/// Compare a reply to request \p slot of \p deck with the deck's expected
/// answers; returns a problem or "".
std::string verify(const DiagnosisReply& reply, const Deck& deck,
                   std::size_t slot) {
  const std::vector<std::size_t>& expected = deck.expected[slot];
  if (reply.results.size() != expected.size()) return "reply has wrong size";
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (!identical(reply.results[i], deck.answers[expected[i]])) {
      return "served diagnosis differs from Session::diagnose";
    }
  }
  return "";
}

double tail_median(const std::vector<double>& latency_us) {
  if (latency_us.empty()) return 0.0;
  const std::size_t n = std::max<std::size_t>(10, latency_us.size() / 100);
  const std::size_t from = latency_us.size() > n ? latency_us.size() - n : 0;
  return median({latency_us.begin() + static_cast<std::ptrdiff_t>(from),
                 latency_us.end()});
}

}  // namespace

std::vector<double> poisson_schedule(double rps, std::size_t count,
                                     Stream& stream) {
  std::vector<double> due(count);
  double t = 0.0;
  for (double& d : due) {
    t += stream.exponential(1e6 / rps);
    d = t;
  }
  return due;
}

LoadOutcome run_open_loop(Transport& transport, const Deck& deck,
                          std::size_t offset, const std::vector<double>& due_us,
                          Tracer& tracer, const char* send_span,
                          const char* reply_span) {
  const std::size_t n = due_us.size();
  LoadOutcome out;
  out.latency_us.reserve(n);
  out.lag_us.reserve(n);
  std::atomic<std::size_t> expected_replies{n};

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  auto due_at = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::micro>(due_us[i]));
  };

  // The collector only stamps each reply as it arrives.  The generator
  // checks the stamped replies in its idle time before each due send, and
  // after its last send, so no reply's stamp waits for the checking of
  // the replies ahead of it.
  struct Stamped {
    std::size_t index;
    Clock::time_point at;
    DiagnosisReply reply;
  };
  std::mutex stamped_mutex;
  std::condition_variable stamped_ready;
  std::deque<Stamped> stamped;
  bool collected = false;
  std::size_t receive_failures = 0;
  std::string receive_problem;

  std::thread collector([&] {
    for (std::size_t i = 0; i < expected_replies.load(); ++i) {
      try {
        DiagnosisReply reply = transport.receive();
        const Clock::time_point now = Clock::now();
        std::lock_guard<std::mutex> lock(stamped_mutex);
        stamped.push_back({i, now, std::move(reply)});
        stamped_ready.notify_one();
      } catch (const ftdiag::net::NetError& e) {
        // The connection is gone: nothing more will arrive.
        receive_failures += expected_replies.load() - i;
        if (receive_problem.empty()) receive_problem = e.what();
        break;
      } catch (const std::exception& e) {
        ++receive_failures;
        if (receive_problem.empty()) receive_problem = e.what();
      }
    }
    std::lock_guard<std::mutex> lock(stamped_mutex);
    collected = true;
    stamped_ready.notify_one();
  });

  std::size_t reply_failures = 0;
  std::string reply_problem;
  Clock::time_point last_reply;
  // A check starts only while twice the cheapest check so far, plus a
  // microsecond, remains before the deadline (5 us before the first).
  // The cheapest, not the latest: a check the host preempted would stop
  // all checking at high rates.  Past kMaxUnchecked waiting replies the
  // generator checks regardless, which only a rate far past capacity
  // reaches; it bounds the memory the waiting replies take.
  constexpr std::size_t kMaxUnchecked = 64;
  Clock::duration check_cost{};
  auto check_until = [&](Clock::time_point deadline) {
    for (;;) {
      const Clock::time_point begin = Clock::now();
      const Clock::duration slack =
          check_cost == Clock::duration{}
              ? Clock::duration(std::chrono::microseconds(5))
              : 2 * check_cost + std::chrono::microseconds(1);
      Stamped reply;
      {
        std::lock_guard<std::mutex> lock(stamped_mutex);
        if (stamped.empty()) return;
        if (stamped.size() <= kMaxUnchecked && begin + slack >= deadline) {
          return;
        }
        reply = std::move(stamped.front());
        stamped.pop_front();
      }
      const std::size_t slot = (offset + reply.index) % deck.requests.size();
      std::string problem = verify(reply.reply, deck, slot);
      if (problem.empty()) {
        out.latency_us.push_back(us_between(due_at(reply.index), reply.at));
        last_reply = std::max(last_reply, reply.at);
        if (reply_span != nullptr) {
          tracer.record(reply_span, due_at(reply.index), reply.at, reply.index);
        }
      } else {
        ++reply_failures;
        if (reply_problem.empty()) reply_problem = std::move(problem);
      }
      const Clock::duration took = Clock::now() - begin;
      check_cost = check_cost == Clock::duration{} ? took
                                                   : std::min(check_cost, took);
    }
  };

  std::size_t sent = 0;
  try {
    for (; sent < n; ++sent) {
      const Clock::time_point due = due_at(sent);
      check_until(due);
      if (Clock::now() < due) std::this_thread::sleep_until(due);
      const Clock::time_point begin = Clock::now();
      out.lag_us.push_back(us_between(due, begin));
      const auto& request = deck.requests[(offset + sent) % deck.requests.size()];
      if (send_span != nullptr) {
        auto span = tracer.span(send_span, sent);
        transport.send(request);
      } else {
        transport.send(request);
      }
    }
  } catch (const std::exception& e) {
    out.first_problem = e.what();
    expected_replies.store(sent);
  }
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(stamped_mutex);
      stamped_ready.wait(lock, [&] { return !stamped.empty() || collected; });
      if (stamped.empty()) break;
    }
    check_until(Clock::time_point::max());
  }
  collector.join();

  out.sent = n;
  out.failed = (n - sent) + receive_failures + reply_failures;
  if (out.first_problem.empty()) out.first_problem = receive_problem;
  if (out.first_problem.empty()) out.first_problem = reply_problem;
  out.seconds = out.latency_us.empty() ? 0.0 : seconds_between(start, last_reply);
  out.tail_us = tail_median(out.latency_us);
  return out;
}

LoadOutcome run_sync_caller(ftdiag::net::Client& client, const Deck& deck,
                            std::size_t offset, std::size_t calls,
                            Tracer& tracer) {
  LoadOutcome out;
  out.latency_us.reserve(calls);
  for (std::size_t i = 0; i < calls; ++i) {
    const std::size_t slot = (offset + i) % deck.requests.size();
    const Clock::time_point begin = Clock::now();
    try {
      DiagnosisReply reply;
      {
        auto span = tracer.span("net.call", i);
        reply = client.diagnose(deck.requests[slot]);
      }
      const Clock::time_point end = Clock::now();
      out.seconds += seconds_between(begin, end);
      std::string problem = verify(reply, deck, slot);
      if (!problem.empty()) {
        ++out.failed;
        if (out.first_problem.empty()) out.first_problem = std::move(problem);
        continue;
      }
      out.latency_us.push_back(us_between(begin, end));
    } catch (const std::exception& e) {
      out.seconds += seconds_between(begin, Clock::now());
      ++out.failed;
      if (out.first_problem.empty()) out.first_problem = e.what();
    }
  }
  out.sent = calls;
  return out;
}

namespace {

/// One try of a ladder step: does \p rps meet the p99 limit with no
/// backlog and a success rate of at least 0.999?
bool try_step(Transport& transport, const Deck& deck, const ServingPlan& plan,
              double rps, Stream& stream, Tracer& tracer, Result& result) {
  const auto count = static_cast<std::size_t>(
      std::max(1000.0, std::ceil(rps * plan.probe_seconds)));
  const LoadOutcome out = run_open_loop(
      transport, deck, stream.below(deck.requests.size()),
      poisson_schedule(rps, count, stream), tracer);
  out.account(result);
  const auto p99 = percentile(out.latency_us, 0.99);
  const double success =
      1.0 - static_cast<double>(out.failed) / static_cast<double>(out.sent);
  // Let the server settle before the next step.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  return p99 && *p99 <= kP99LimitUs && out.tail_us <= kP99LimitUs &&
         success >= 0.999;
}

/// A ladder step passes when any of \p tries tries does: host
/// interference only ever fails a try.
bool probe(Transport& transport, const Deck& deck, const ServingPlan& plan,
           double rps, Stream& stream, Tracer& tracer, Result& result,
           int tries = 3) {
  for (int t = 0; t < tries; ++t) {
    if (try_step(transport, deck, plan, rps, stream, tracer, result)) return true;
  }
  return false;
}

}  // namespace

void measure_serving(Transport& transport, const Deck& deck,
                     const ServingPlan& plan, std::uint64_t seed,
                     Result& result, Tracer& tracer,
                     const std::function<void(std::size_t i)>& each_slice) {
  // Light and heavy traffic alternate in slices, and each percentile is
  // the lowest any slice saw.  On a shared virtual machine the host steals
  // the vCPUs for milliseconds at a varying rate; a slice it hits reads
  // high, while the program's own tail shows in every slice.
  std::vector<double> light_p50;
  std::vector<double> light_p99;
  std::vector<double> heavy_p50;
  std::vector<double> heavy_p99;
  std::size_t offset = 0;
  auto slice = [&](double rps, std::size_t count, std::uint64_t tag,
                   std::vector<double>& p50, std::vector<double>& p99) {
    Stream stream(seed, tag);
    const LoadOutcome out = run_open_loop(
        transport, deck, offset, poisson_schedule(rps, count, stream), tracer);
    out.account(result);
    offset += out.sent;
    const auto tail = percentile(out.latency_us, 0.99);
    result.check(tail.has_value(), "a slice has too few samples for its p99");
    p50.push_back(percentile(out.latency_us, 0.5).value_or(0.0));
    p99.push_back(tail.value_or(0.0));
  };
  for (std::size_t i = 0; i < kSlices; ++i) {
    slice(plan.light_rps, plan.light_requests / kSlices, 0x11647 + i,
          light_p50, light_p99);
    slice(plan.heavy_rps, plan.heavy_requests / kSlices, 0x4eabe + i,
          heavy_p50, heavy_p99);
    if (each_slice) each_slice(i);
  }
  result.metric("p50_us.low", lowest(light_p50), "us");
  result.metric("p99_us.low", lowest(light_p99), "us");
  result.metric("p50_us.high", lowest(heavy_p50), "us");
  result.metric("p99_us.high", lowest(heavy_p99), "us");

  // The ladder: binary search for the highest passing step, repeated; the
  // highest result stands, for the same reason as the lowest slice above
  // (host interference only ever fails a step).
  const auto steps = static_cast<std::size_t>(std::ceil(
      std::log(plan.ladder_high_rps / plan.ladder_low_rps) /
      std::log(kLadderStep)));
  auto rate = [&](std::size_t k) {
    return plan.ladder_low_rps * std::pow(kLadderStep, static_cast<double>(k));
  };
  Stream ladder_stream(seed, 0x1add3);
  // The bottom step is far below capacity; it gets more tries, so that
  // only a ladder set too high, not a burst of host stalls, fails it.
  result.check(probe(transport, deck, plan, rate(0), ladder_stream, tracer,
                     result, 10),
               "rate ladder bottom step fails");
  result.check(!probe(transport, deck, plan, rate(steps), ladder_stream, tracer,
                      result),
               "rate ladder top step passes: the ladder is below capacity");
  std::vector<double> found;
  for (std::size_t search = 0; search < kLadderSearches; ++search) {
    std::size_t lo = 0;
    std::size_t hi = steps;
    while (hi - lo > 1) {
      const std::size_t mid = (lo + hi) / 2;
      if (probe(transport, deck, plan, rate(mid), ladder_stream, tracer, result)) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    found.push_back(rate(lo));
  }
  result.metric("max_rate_rps", highest(found), "1/s");
}

void measure_accuracy(Transport& transport, const std::vector<Board>& boards,
                      const std::vector<ServedCircuit>& circuits,
                      Result& result) {
  std::map<std::string, const ftdiag::Session*> by_key;
  for (const ServedCircuit& c : circuits) by_key[c.key] = &c.session;

  constexpr std::size_t kWindow = 16;
  std::size_t sent = 0;
  std::size_t correct_site = 0;
  std::size_t failures = 0;
  std::string problem;
  for (std::size_t received = 0; received < boards.size(); ++received) {
    while (sent < boards.size() && sent - received < kWindow) {
      DiagnosisRequest request;
      request.circuit = boards[sent].circuit;
      request.points.push_back(boards[sent].point);
      transport.send(request);
      ++sent;
    }
    const Board& board = boards[received];
    try {
      const DiagnosisReply reply = transport.receive();
      const auto direct = by_key.at(board.circuit)->diagnose(board.point);
      if (reply.results.size() != 1 || !identical(reply.results[0], direct)) {
        ++failures;
        problem = "served diagnosis differs from Session::diagnose";
        continue;
      }
      if (reply.results[0].best().site == board.site) ++correct_site;
    } catch (const std::exception& e) {
      ++failures;
      problem = e.what();
    }
  }
  result.attempted(boards.size());
  if (failures > 0) result.failed(problem, failures);
  result.metric("accuracy",
                static_cast<double>(correct_site) /
                    static_cast<double>(boards.size()),
                "ratio");
}

}  // namespace ftbench
