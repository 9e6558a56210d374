// Automatic test-pattern generation: the paper's GA search for a test
// vector on its CUT, and scoring of given vectors, through `Session`.
#include "session.hpp"

#include <gtest/gtest.h>

#include "circuits/nf_biquad.hpp"
#include "ga/baselines.hpp"

namespace ftdiag {
namespace {

TEST(SessionSearch, ToTestVectorConvertsAndSorts) {
  const auto tv = Session::to_test_vector({4.0, 2.0});  // 10^4, 10^2
  ASSERT_EQ(tv.frequencies_hz.size(), 2u);
  EXPECT_NEAR(tv.frequencies_hz[0], 100.0, 1e-9);
  EXPECT_NEAR(tv.frequencies_hz[1], 10000.0, 1e-6);
}

/// The paper's nf_biquad CUT under the paper's default options.
class PaperSearch : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    session_ = new Session(SessionBuilder(circuits::make_paper_cut()).build());
  }
  static void TearDownTestSuite() {
    delete session_;
    session_ = nullptr;
  }
  static Session* session_;
};

Session* PaperSearch::session_ = nullptr;

TEST_F(PaperSearch, BoundsDerivedFromBand) {
  const auto bounds = session_->bounds();
  EXPECT_NEAR(bounds.lo, 1.0, 1e-12);  // 10 Hz
  EXPECT_NEAR(bounds.hi, 5.0, 1e-12);  // 100 kHz
}

TEST_F(PaperSearch, DictionaryCoversTheSevenComponents) {
  EXPECT_EQ(session_->dictionary()->fault_count(), 56u);
  EXPECT_EQ(session_->cut().name, "nf_biquad");
}

TEST_F(PaperSearch, PaperGaFindsNonIntersectingVector) {
  const TestGenResult result = session_->run_search();
  // The headline reproduction: the GA must find a frequency pair whose
  // seven trajectories do not intersect (fitness 1 = zero intersections).
  EXPECT_DOUBLE_EQ(result.best.fitness, 1.0);
  EXPECT_EQ(result.best.intersections, 0u);
  EXPECT_EQ(result.best.vector.frequencies_hz.size(), 2u);
  EXPECT_EQ(result.dictionary_faults, 56u);
  // Paper parameters: 128 individuals, 15 generations.
  EXPECT_EQ(result.search.history.front().evaluations, 128u);
  EXPECT_EQ(result.search.history.size(), 16u);  // gen 0..15
}

TEST_F(PaperSearch, ConvergenceHistoryIsMonotoneInBest) {
  const TestGenResult result = session_->run_search();
  double prev = 0.0;
  for (const auto& g : result.search.history) {
    EXPECT_GE(g.best + 1e-12, prev);  // elitism forbids regression
    prev = g.best;
    EXPECT_LE(g.worst, g.mean + 1e-12);
    EXPECT_LE(g.mean, g.best + 1e-12);
  }
}

TEST_F(PaperSearch, DeterministicForFixedSeed) {
  const TestGenResult a = session_->run_search();
  const TestGenResult b = session_->run_search();
  EXPECT_EQ(a.best.vector.frequencies_hz, b.best.vector.frequencies_hz);
  EXPECT_EQ(a.search.evaluations, b.search.evaluations);
}

TEST_F(PaperSearch, RunWithBaselineOptimizer) {
  const ga::RandomSearch random(512);
  const TestGenResult result = session_->run_search(random, 7);
  EXPECT_GT(result.best.fitness, 0.0);
  EXPECT_EQ(result.search.evaluations, 512u);
}

TEST_F(PaperSearch, ScoreExternalVector) {
  const auto score = session_->score({{700.0, 1600.0}});
  EXPECT_GT(score.fitness, 0.0);
  EXPECT_EQ(score.vector.frequencies_hz.size(), 2u);
}

TEST(SessionSearch, SeparationFitnessAlsoConverges) {
  SearchOptions search;
  search.fitness = FitnessKind::kSeparation;
  search.ga.generations = 8;
  const Session session =
      SessionBuilder(circuits::make_paper_cut()).search(search).build();
  const TestGenResult result = session.run_search();
  EXPECT_GT(result.best.fitness, 0.1);
  // A good separation vector should also have zero intersections here.
  EXPECT_EQ(result.best.intersections, 0u);
}

TEST(SessionSearch, SensitivitySeededSearchStartsStrong) {
  // Seeded with screened frequency pairs, the very first generation's best
  // must already be high on the continuous hybrid objective.
  SearchOptions search;
  search.fitness = FitnessKind::kHybrid;
  search.seed_with_sensitivity = true;
  search.ga.generations = 3;
  const Session session =
      SessionBuilder(circuits::make_paper_cut()).search(search).build();
  const TestGenResult result = session.run_search();
  EXPECT_GT(result.search.history.front().best, 0.70);
  EXPECT_EQ(result.best.intersections, 0u);
}

TEST(SessionSearch, ThreeFrequencySearch) {
  SearchOptions search;
  search.n_frequencies = 3;
  search.ga.generations = 5;
  search.ga.population_size = 32;
  const Session session =
      SessionBuilder(circuits::make_paper_cut()).search(search).build();
  const TestGenResult result = session.run_search();
  EXPECT_EQ(result.best.vector.frequencies_hz.size(), 3u);
  EXPECT_GT(result.best.fitness, 0.0);
}

}  // namespace
}  // namespace ftdiag
