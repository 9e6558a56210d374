/// End-to-end reproduction of the paper's flow, asserted quantitatively:
/// fault simulation -> dictionary -> GA (paper parameters) -> trajectory
/// separation -> diagnosis of unknown faults.
#include <gtest/gtest.h>

#include <cmath>

#include "circuits/nf_biquad.hpp"
#include "circuits/registry.hpp"
#include "core/ambiguity.hpp"
#include "core/evaluation.hpp"
#include "faults/fault_injector.hpp"
#include "mna/ac_analysis.hpp"
#include "session.hpp"

namespace ftdiag {
namespace {

class PaperFlowTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    session_ = new Session(SessionBuilder(circuits::make_paper_cut()).build());
    result_ = new TestGenResult(session_->run_search());
  }
  static void TearDownTestSuite() {
    delete result_;
    delete session_;
    result_ = nullptr;
    session_ = nullptr;
  }
  static Session* session_;
  static TestGenResult* result_;
};

Session* PaperFlowTest::session_ = nullptr;
TestGenResult* PaperFlowTest::result_ = nullptr;

TEST_F(PaperFlowTest, DictionaryMatchesPaperSpec) {
  // 7 passives x 8 deviations (60%..140% in 10% steps, nominal excluded).
  EXPECT_EQ(session_->dictionary()->fault_count(), 56u);
  EXPECT_EQ(session_->dictionary()->site_labels().size(), 7u);
}

TEST_F(PaperFlowTest, GaAchievesZeroIntersections) {
  EXPECT_EQ(result_->best.intersections, 0u);
  EXPECT_DOUBLE_EQ(result_->best.fitness, 1.0);
}

TEST_F(PaperFlowTest, TestVectorHasTwoFrequenciesInBand) {
  ASSERT_EQ(result_->best.vector.frequencies_hz.size(), 2u);
  for (double f : result_->best.vector.frequencies_hz) {
    EXPECT_GE(f, session_->cut().band_low_hz);
    EXPECT_LE(f, session_->cut().band_high_hz);
  }
}

TEST_F(PaperFlowTest, CleanDiagnosisAccuracyAboveNinetyPercent) {
  core::EvaluationOptions options;
  options.trials = 300;
  const auto report = core::evaluate_diagnosis(
      session_->cut(), *session_->dictionary(), result_->best.vector,
      core::SamplingPolicy{}, options);
  EXPECT_GT(report.site_accuracy, 0.90);
  EXPECT_GT(report.top2_accuracy, 0.97);
  EXPECT_LT(report.mean_deviation_error, 0.03);
}

TEST_F(PaperFlowTest, OptimizedVectorBeatsNaiveVector) {
  // A naive vector (two near-identical low frequencies) must not out-score
  // the GA's choice, and should diagnose worse.
  const auto naive_score = session_->score({{15.0, 18.0}});
  EXPECT_LE(naive_score.fitness, result_->best.fitness);

  core::EvaluationOptions options;
  options.trials = 200;
  options.noise_sigma = 0.005;
  const auto naive_report = core::evaluate_diagnosis(
      session_->cut(), *session_->dictionary(), {{15.0, 18.0}},
      core::SamplingPolicy{}, options);
  const auto best_report = core::evaluate_diagnosis(
      session_->cut(), *session_->dictionary(), result_->best.vector,
      core::SamplingPolicy{}, options);
  EXPECT_GT(best_report.site_accuracy, naive_report.site_accuracy);
}

TEST_F(PaperFlowTest, UnknownOffGridFaultDiagnosedLikeFig3) {
  // The paper's Fig. 3 demo: an unknown fault (off the 10% grid) lands
  // nearest to its own component's trajectory.
  const auto engine = session_->evaluator().make_engine(result_->best.vector);
  const faults::ParametricFault unknown{faults::FaultSite::value_of("R3"),
                                        0.23};
  const auto faulty = faults::inject(session_->cut().circuit, unknown);
  mna::AcAnalysis analysis(faulty);
  const auto measured =
      analysis.sweep(result_->best.vector.frequencies_hz,
                     session_->cut().output_node);
  const auto observed = session_->evaluator().sampler().sample(
      measured, result_->best.vector.frequencies_hz);
  const auto diagnosis = engine.diagnose(observed);
  EXPECT_EQ(diagnosis.best().site, "R3");
  EXPECT_NEAR(diagnosis.best().estimated_deviation, 0.23, 0.05);
}

TEST_F(PaperFlowTest, TrajectoriesSmoothAndThroughOrigin) {
  const auto trajectories =
      session_->evaluator().trajectories(result_->best.vector);
  for (const auto& t : trajectories) {
    EXPECT_EQ(t.point_count(), 9u);
    bool has_origin = false;
    for (const auto& p : t.points()) {
      has_origin |= p.deviation == 0.0 && core::norm(p.coords) < 1e-12;
    }
    EXPECT_TRUE(has_origin) << t.site();
  }
}

TEST(RegistryFlow, EveryCircuitSupportsTheFullPipeline) {
  // The method must run end-to-end on every registry circuit (a smaller GA
  // keeps this test quick).  Fitness saturation differs per topology.
  SearchOptions search;
  search.ga.population_size = 24;
  search.ga.generations = 4;
  for (const auto& name : circuits::registry_names()) {
    SCOPED_TRACE(name);
    const Session session =
        SessionBuilder(circuits::make_by_name(name)).search(search).build();
    const auto result = session.run_search();
    EXPECT_GT(result.best.fitness, 0.0);
    EXPECT_EQ(result.best.vector.frequencies_hz.size(), 2u);
    const auto dictionary = session.dictionary();
    const auto groups = core::find_ambiguity_groups(*dictionary);
    EXPECT_GE(groups.size(), 1u);
    EXPECT_LE(groups.size(), dictionary->site_labels().size());
  }
}

}  // namespace
}  // namespace ftdiag
