/// \file per_genome.hpp
/// \brief Test-side ga::BatchObjective over a plain per-genome function,
/// so optimizer tests can score a batch with a closed-form landscape.
#pragma once

#include <utility>
#include <vector>

#include "ga/optimizer.hpp"

namespace ftdiag::ga {

/// Scores genome i of every batch as f(genome i), serially and in order.
template <typename F>
class PerGenome final : public BatchObjective {
public:
  explicit PerGenome(F f) : f_(std::move(f)) {}

  [[nodiscard]] std::vector<double> evaluate(
      const std::vector<std::vector<double>>& genomes) const override {
    std::vector<double> scores;
    scores.reserve(genomes.size());
    for (const auto& genome : genomes) scores.push_back(f_(genome));
    return scores;
  }

private:
  F f_;
};

}  // namespace ftdiag::ga
