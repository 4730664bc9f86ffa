#include "stats/temporal.hpp"

#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "common/error.hpp"

namespace obscorr::stats {

double ModifiedCauchy::value(double dt) const {
  return beta / (beta + std::pow(std::abs(dt), alpha));
}

double Cauchy::value(double dt) const {
  return gamma * gamma / (gamma * gamma + dt * dt);
}

double Gaussian::value(double dt) const {
  return std::exp(-0.5 * (dt / sigma) * (dt / sigma));
}

namespace {

void validate(const TemporalSeries& series) {
  OBSCORR_REQUIRE(series.dt.size() == series.fraction.size(),
                  "temporal fit: dt/fraction size mismatch");
  OBSCORR_REQUIRE(series.dt.size() >= 3, "temporal fit: need at least 3 observations");
}

/// Peak amplitude: the observed value at the smallest |dt| (the paper
/// normalizes model curves "to the peak in the data").
double peak_amplitude(const TemporalSeries& series) {
  double best_abs = std::abs(series.dt[0]);
  double amp = series.fraction[0];
  for (std::size_t i = 1; i < series.dt.size(); ++i) {
    if (std::abs(series.dt[i]) < best_abs) {
      best_abs = std::abs(series.dt[i]);
      amp = series.fraction[i];
    }
  }
  return amp;
}

/// The | |^{1/2} residual of the predictions `predict(i)` against the
/// observed fractions: half_norm_residual's terms, summed in its order,
/// without materializing the predictions.
template <typename Predict>
double half_norm_of(const TemporalSeries& series, const Predict& predict) {
  double total = 0.0;
  for (std::size_t i = 0; i < series.dt.size(); ++i) {
    total += std::pow(std::abs(predict(i) - series.fraction[i]), 0.5);
  }
  return total;
}

template <typename Model>
double residual_for(const TemporalSeries& series, const Model& model, double amplitude) {
  return half_norm_of(series,
                      [&](std::size_t i) { return amplitude * model.value(series.dt[i]); });
}

}  // namespace

TemporalFit<ModifiedCauchy> fit_modified_cauchy(const TemporalSeries& series) {
  validate(series);
  const double amp = peak_amplitude(series);

  TemporalFit<ModifiedCauchy> fit;
  fit.amplitude = amp;
  fit.residual = std::numeric_limits<double>::infinity();

  // Coarse grid: α linear, β logarithmic (it is a scale parameter). The
  // β row of one α shares its |dt|^α, and each evaluation repeats
  // ModifiedCauchy::value's arithmetic, so the fit is bit-identical to
  // calling residual_for at every grid point.
  std::vector<double> dt_pow(series.dt.size());
  for (double alpha = 0.05; alpha <= 4.0; alpha += 0.05) {
    for (std::size_t i = 0; i < dt_pow.size(); ++i) {
      dt_pow[i] = std::pow(std::abs(series.dt[i]), alpha);
    }
    for (double log_beta = std::log(0.02); log_beta <= std::log(100.0); log_beta += 0.1) {
      const ModifiedCauchy m{alpha, std::exp(log_beta)};
      const double r = half_norm_of(
          series, [&](std::size_t i) { return amp * (m.beta / (m.beta + dt_pow[i])); });
      if (r < fit.residual) {
        fit.residual = r;
        fit.model = m;
      }
    }
  }

  // Coordinate refinement.
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

double FlooredModifiedCauchy::value(double dt) const {
  return (1.0 - floor) * beta / (beta + std::pow(std::abs(dt), alpha)) + floor;
}

double FlooredModifiedCauchy::one_month_drop() const {
  return 1.0 - value(1.0) / value(0.0);
}

TemporalFit<FlooredModifiedCauchy> fit_floored_modified_cauchy(const TemporalSeries& series) {
  validate(series);
  const double amp = peak_amplitude(series);

  TemporalFit<FlooredModifiedCauchy> fit;
  fit.amplitude = amp;
  fit.residual = std::numeric_limits<double>::infinity();

  for (double alpha = 0.1; alpha <= 3.0; alpha += 0.1) {
    for (double log_beta = std::log(0.05); log_beta <= std::log(50.0); log_beta += 0.2) {
      for (double floor = 0.0; floor < 0.9; floor += 0.05) {
        const FlooredModifiedCauchy m{alpha, std::exp(log_beta), floor};
        const double r = residual_for(series, m, amp);
        if (r < fit.residual) {
          fit.residual = r;
          fit.model = m;
        }
      }
    }
  }

  double alpha_step = 0.1;
  double beta_factor = 1.2;
  double floor_step = 0.05;
  for (int iter = 0; iter < 100; ++iter) {
    bool improved = false;
    const auto consider = [&](const FlooredModifiedCauchy& m) {
      if (m.alpha <= 0.01 || m.beta <= 0.0 || m.floor < 0.0 || m.floor >= 0.95) return;
      const double r = residual_for(series, m, amp);
      if (r < fit.residual) {
        fit.residual = r;
        fit.model = m;
        improved = true;
      }
    };
    consider({fit.model.alpha - alpha_step, fit.model.beta, fit.model.floor});
    consider({fit.model.alpha + alpha_step, fit.model.beta, fit.model.floor});
    consider({fit.model.alpha, fit.model.beta / beta_factor, fit.model.floor});
    consider({fit.model.alpha, fit.model.beta * beta_factor, fit.model.floor});
    consider({fit.model.alpha, fit.model.beta, fit.model.floor - floor_step});
    consider({fit.model.alpha, fit.model.beta, fit.model.floor + floor_step});
    if (!improved) {
      alpha_step *= 0.5;
      beta_factor = 1.0 + (beta_factor - 1.0) * 0.5;
      floor_step *= 0.5;
      if (alpha_step < 1e-4 && floor_step < 1e-4) break;
    }
  }
  return fit;
}

TemporalFit<Cauchy> fit_cauchy(const TemporalSeries& series) {
  validate(series);
  const double amp = peak_amplitude(series);
  TemporalFit<Cauchy> fit;
  fit.amplitude = amp;
  fit.residual = std::numeric_limits<double>::infinity();
  for (double log_g = std::log(0.05); log_g <= std::log(50.0); log_g += 0.02) {
    const Cauchy m{std::exp(log_g)};
    const double r = residual_for(series, m, amp);
    if (r < fit.residual) {
      fit.residual = r;
      fit.model = m;
    }
  }
  return fit;
}

TemporalFit<Gaussian> fit_gaussian(const TemporalSeries& series) {
  validate(series);
  const double amp = peak_amplitude(series);
  TemporalFit<Gaussian> fit;
  fit.amplitude = amp;
  fit.residual = std::numeric_limits<double>::infinity();
  for (double log_s = std::log(0.05); log_s <= std::log(50.0); log_s += 0.02) {
    const Gaussian m{std::exp(log_s)};
    const double r = residual_for(series, m, amp);
    if (r < fit.residual) {
      fit.residual = r;
      fit.model = m;
    }
  }
  return fit;
}

}  // namespace obscorr::stats
