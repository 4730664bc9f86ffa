#pragma once
/// \file modified_cauchy_reference.hpp
/// Reference modified-Cauchy fit for bit-identity tests: the grid search
/// and coordinate refinement in their direct form, where every grid
/// point calls `ModifiedCauchy::value` for each month, fills a vector of
/// predictions and sums the | |^{1/2} norm with `half_norm_residual`.
/// `stats::fit_modified_cauchy` shares |dt|^α across a grid row and
/// evaluates without the vector; it must return these exact bits.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "stats/norms.hpp"
#include "stats/temporal.hpp"

namespace obscorr::stats::reference {

inline double residual_for(const TemporalSeries& series, const ModifiedCauchy& model,
                           double amplitude) {
  std::vector<double> predicted(series.dt.size());
  for (std::size_t i = 0; i < series.dt.size(); ++i) {
    predicted[i] = amplitude * model.value(series.dt[i]);
  }
  return half_norm_residual(predicted, series.fraction);
}

inline TemporalFit<ModifiedCauchy> fit_modified_cauchy(const TemporalSeries& series) {
  double best_abs = std::abs(series.dt[0]);
  double amp = series.fraction[0];
  for (std::size_t i = 1; i < series.dt.size(); ++i) {
    if (std::abs(series.dt[i]) < best_abs) {
      best_abs = std::abs(series.dt[i]);
      amp = series.fraction[i];
    }
  }
  TemporalFit<ModifiedCauchy> fit;
  fit.amplitude = amp;
  fit.residual = std::numeric_limits<double>::infinity();
  for (double alpha = 0.05; alpha <= 4.0; alpha += 0.05) {
    for (double log_beta = std::log(0.02); log_beta <= std::log(100.0); log_beta += 0.1) {
      const ModifiedCauchy m{alpha, std::exp(log_beta)};
      const double r = residual_for(series, m, amp);
      if (r < fit.residual) {
        fit.residual = r;
        fit.model = m;
      }
    }
  }
  double alpha_step = 0.05;
  double beta_factor = 1.1;
  for (int iter = 0; iter < 80; ++iter) {
    bool improved = false;
    for (const double a : {fit.model.alpha - alpha_step, fit.model.alpha + alpha_step}) {
      if (a <= 0.01) continue;
      const ModifiedCauchy m{a, fit.model.beta};
      const double r = residual_for(series, m, amp);
      if (r < fit.residual) {
        fit.residual = r;
        fit.model = m;
        improved = true;
      }
    }
    for (const double b : {fit.model.beta / beta_factor, fit.model.beta * beta_factor}) {
      const ModifiedCauchy m{fit.model.alpha, b};
      const double r = residual_for(series, m, amp);
      if (r < fit.residual) {
        fit.residual = r;
        fit.model = m;
        improved = true;
      }
    }
    if (!improved) {
      alpha_step *= 0.5;
      beta_factor = 1.0 + (beta_factor - 1.0) * 0.5;
      if (alpha_step < 1e-4 && beta_factor - 1.0 < 1e-4) break;
    }
  }
  return fit;
}

/// Same bits, so NaN equals the same NaN and 0.0 differs from -0.0.
inline void expect_same_bits(double actual, double expected, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual), std::bit_cast<std::uint64_t>(expected))
      << what << ": " << actual << " vs reference " << expected;
}

/// `fit` must be the reference fit of `series`, bit for bit.
inline void expect_reference_fit(const TemporalFit<ModifiedCauchy>& fit,
                                 const TemporalSeries& series, const std::string& what) {
  const TemporalFit<ModifiedCauchy> ref = reference::fit_modified_cauchy(series);
  expect_same_bits(fit.model.alpha, ref.model.alpha, what + " alpha");
  expect_same_bits(fit.model.beta, ref.model.beta, what + " beta");
  expect_same_bits(fit.amplitude, ref.amplitude, what + " amplitude");
  expect_same_bits(fit.residual, ref.residual, what + " residual");
}

}  // namespace obscorr::stats::reference
