#include "stats/temporal.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/prng.hpp"
#include "modified_cauchy_reference.hpp"

namespace obscorr::stats {
namespace {

TEST(ModifiedCauchyTest, PeaksAtZeroOffset) {
  const ModifiedCauchy m{1.0, 2.0};
  EXPECT_DOUBLE_EQ(m.value(0.0), 1.0);
  EXPECT_LT(m.value(1.0), 1.0);
  EXPECT_LT(m.value(5.0), m.value(1.0));
}

TEST(ModifiedCauchyTest, SymmetricInOffset) {
  const ModifiedCauchy m{1.3, 0.7};
  for (double dt : {0.5, 1.0, 3.0, 10.0}) {
    EXPECT_DOUBLE_EQ(m.value(dt), m.value(-dt));
  }
}

TEST(ModifiedCauchyTest, ReducesToStandardCauchyAtAlphaTwo) {
  // Paper: alpha = 2, beta = gamma^2 gives the standard Cauchy.
  const double gamma = 1.7;
  const ModifiedCauchy m{2.0, gamma * gamma};
  const Cauchy c{gamma};
  for (double dt : {0.0, 0.5, 1.0, 2.0, 8.0}) {
    EXPECT_NEAR(m.value(dt), c.value(dt), 1e-12);
  }
}

TEST(ModifiedCauchyTest, OneMonthDropFormula) {
  // f(0)/f(0) - f(1)/f(0) = 1 - beta/(beta+1) = 1/(beta+1) (Fig. 8).
  const ModifiedCauchy m{1.0, 4.0};
  EXPECT_DOUBLE_EQ(m.one_month_drop(), 0.2);
  EXPECT_NEAR(1.0 - m.value(1.0) / m.value(0.0), m.one_month_drop(), 1e-12);
}

TEST(ModifiedCauchyTest, PaperTypicalForms) {
  // Paper §IV: d ~ 10^3 sources follow 1/(1+|dt|); others 4/(4+|dt|).
  const ModifiedCauchy churny{1.0, 1.0};
  EXPECT_DOUBLE_EQ(churny.one_month_drop(), 0.5);  // 50% one-month drop
  const ModifiedCauchy stable{1.0, 4.0};
  EXPECT_DOUBLE_EQ(stable.one_month_drop(), 0.2);  // 20% one-month drop
}

TEST(GaussianTest, ValueAndSymmetry) {
  const Gaussian g{2.0};
  EXPECT_DOUBLE_EQ(g.value(0.0), 1.0);
  EXPECT_NEAR(g.value(2.0), std::exp(-0.5), 1e-12);
  EXPECT_DOUBLE_EQ(g.value(-3.0), g.value(3.0));
}

TemporalSeries synth_series(const ModifiedCauchy& truth, double amplitude, double noise,
                            std::uint64_t seed) {
  // 15 months with the peak at index 4 (like the 2020-06 snapshot).
  TemporalSeries s;
  Rng rng(seed);
  for (int m = 0; m < 15; ++m) {
    const double dt = m - 4;
    s.dt.push_back(dt);
    s.fraction.push_back(amplitude * truth.value(dt) + noise * (rng.uniform() - 0.5));
  }
  return s;
}

struct RecoveryCase {
  double alpha;
  double beta;
};

class ModifiedCauchyRecoveryTest : public ::testing::TestWithParam<RecoveryCase> {};

TEST_P(ModifiedCauchyRecoveryTest, RecoversNoiselessParameters) {
  const auto p = GetParam();
  const ModifiedCauchy truth{p.alpha, p.beta};
  const auto series = synth_series(truth, 0.9, 0.0, 1);
  const auto fit = fit_modified_cauchy(series);
  EXPECT_NEAR(fit.model.alpha, truth.alpha, 0.05);
  EXPECT_NEAR(fit.model.beta, truth.beta, truth.beta * 0.1 + 0.05);
  EXPECT_NEAR(fit.amplitude, 0.9, 1e-12);
  // The | |^{1/2} norm is extremely sensitive near zero: 15 points with
  // ~1e-5 residual each already sum to ~0.05, so "essentially exact"
  // means well under one point's worth of visible error.
  EXPECT_LT(fit.residual, 0.3);
}

INSTANTIATE_TEST_SUITE_P(ParameterSweep, ModifiedCauchyRecoveryTest,
                         ::testing::Values(RecoveryCase{1.0, 1.0}, RecoveryCase{1.0, 4.0},
                                           RecoveryCase{0.5, 2.0}, RecoveryCase{2.0, 4.0},
                                           RecoveryCase{1.5, 0.5}));

TEST(ModifiedCauchyRecoveryTest, ToleratesModerateNoise) {
  const ModifiedCauchy truth{1.0, 2.0};
  const auto series = synth_series(truth, 0.8, 0.05, 7);
  const auto fit = fit_modified_cauchy(series);
  EXPECT_NEAR(fit.model.alpha, 1.0, 0.5);
  EXPECT_NEAR(fit.model.beta, 2.0, 1.5);
}

TEST(CauchyFitTest, RecoversGamma) {
  const Cauchy truth{2.5};
  TemporalSeries s;
  for (int m = 0; m < 15; ++m) {
    s.dt.push_back(m - 7);
    s.fraction.push_back(0.7 * truth.value(m - 7));
  }
  const auto fit = fit_cauchy(s);
  EXPECT_NEAR(fit.model.gamma, 2.5, 0.08);
}

TEST(GaussianFitTest, RecoversSigma) {
  const Gaussian truth{3.0};
  TemporalSeries s;
  for (int m = 0; m < 15; ++m) {
    s.dt.push_back(m - 7);
    s.fraction.push_back(0.6 * truth.value(m - 7));
  }
  const auto fit = fit_gaussian(s);
  EXPECT_NEAR(fit.model.sigma, 3.0, 0.1);
}

TEST(TemporalFitTest, ModifiedCauchyBeatsRigidModelsOnHeavyTails) {
  // The paper's observation: correlation curves with a sharp peak plus a
  // slow tail are fit better by the modified Cauchy than by Gaussian or
  // standard Cauchy.
  const ModifiedCauchy truth{0.8, 1.5};
  const auto series = synth_series(truth, 0.9, 0.0, 3);
  const auto mc = fit_modified_cauchy(series);
  const auto c = fit_cauchy(series);
  const auto g = fit_gaussian(series);
  EXPECT_LT(mc.residual, c.residual);
  EXPECT_LT(c.residual, g.residual);
}

TEST(TemporalFitTest, ValidationRejectsBadSeries) {
  TemporalSeries mismatched;
  mismatched.dt = {0.0, 1.0};
  mismatched.fraction = {1.0};
  EXPECT_THROW(fit_modified_cauchy(mismatched), std::invalid_argument);
  TemporalSeries tiny;
  tiny.dt = {0.0, 1.0};
  tiny.fraction = {1.0, 0.5};
  EXPECT_THROW(fit_modified_cauchy(tiny), std::invalid_argument);
  EXPECT_THROW(fit_cauchy(tiny), std::invalid_argument);
  EXPECT_THROW(fit_gaussian(tiny), std::invalid_argument);
}

TEST(TemporalFitTest, AmplitudeTakenFromSmallestAbsoluteOffset) {
  TemporalSeries s;
  s.dt = {-2.0, -1.0, 0.0, 1.0, 2.0};
  s.fraction = {0.2, 0.5, 0.93, 0.5, 0.2};
  const auto fit = fit_modified_cauchy(s);
  EXPECT_DOUBLE_EQ(fit.amplitude, 0.93);
}

TEST(TemporalFitTest, BetaMixtureIdentityMatchesDriftingBeam) {
  // E[s^k] = a/(a+k) for s ~ Beta(a,1): a Monte-Carlo estimate of the
  // overlap curve must match the modified Cauchy with alpha=1, beta=a —
  // the identity the whole generator design rests on.
  Rng rng(11);
  const double a = 3.0;
  const int n = 200000;
  std::vector<double> overlap(9, 0.0);
  for (int i = 0; i < n; ++i) {
    const double s = rng.beta_a1(a);
    double sk = 1.0;
    for (std::size_t k = 0; k < overlap.size(); ++k) {
      overlap[k] += sk;
      sk *= s;
    }
  }
  const ModifiedCauchy expected{1.0, a};
  for (std::size_t k = 0; k < overlap.size(); ++k) {
    EXPECT_NEAR(overlap[k] / n, expected.value(static_cast<double>(k)), 0.005) << "k=" << k;
  }
}

/// Months around a coeval month at index `peak`, with the given fractions.
TemporalSeries series_of(int peak, const std::vector<double>& fraction) {
  TemporalSeries s;
  for (std::size_t m = 0; m < fraction.size(); ++m) {
    s.dt.push_back(static_cast<double>(static_cast<int>(m) - peak));
  }
  s.fraction = fraction;
  return s;
}

TEST(ModifiedCauchyReferenceTest, HandBuiltSeriesFitBitIdentically) {
  // The grid shares |dt|^alpha across each alpha's beta row; these
  // degenerate shapes must still take the reference's exact path.
  std::vector<double> one_month(15, 0.0);
  one_month[4] = 0.37;
  std::vector<double> off_peak(15, 0.0);
  off_peak[9] = 0.5;
  std::vector<double> decaying(15);
  for (std::size_t m = 0; m < decaying.size(); ++m) {
    decaying[m] = 0.8 / (1.0 + static_cast<double>(14 - m));
  }
  const std::vector<std::pair<std::string, TemporalSeries>> cases = {
      {"all zero", series_of(4, std::vector<double>(15, 0.0))},
      {"all one", series_of(4, std::vector<double>(15, 1.0))},
      {"one nonzero month at the peak", series_of(4, one_month)},
      {"one nonzero month off the peak", series_of(4, off_peak)},
      {"dt = 0 only at the last month", series_of(14, decaying)},
      {"three months", series_of(1, {0.2, 0.6, 0.3})},
  };
  for (const auto& [name, series] : cases) {
    reference::expect_reference_fit(fit_modified_cauchy(series), series, name);
  }
  for (const auto& params : {ModifiedCauchy{0.4, 0.3}, ModifiedCauchy{1.0, 4.0}}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      const TemporalSeries noisy = synth_series(params, 0.7, 0.05, seed);
      reference::expect_reference_fit(fit_modified_cauchy(noisy), noisy,
                                       "synthetic seed " + std::to_string(seed));
    }
  }
}

}  // namespace
}  // namespace obscorr::stats
