#pragma once
// Finite-shot uncertainty of reconstructed quantities.
//
// The reconstruction is a multilinear function of independently-sampled
// fragment distributions, so its sampling distribution can be estimated by
// a parametric bootstrap: resample each variant's histogram from its
// empirical distribution (multinomial, same shot count), re-reconstruct,
// and read quantiles / standard errors off the replicas. The paper's
// Section IV notes that acting on statistical estimates requires exactly
// this kind of error analysis ("amplification of error through tensor
// contraction").

#include "cutting/observables.hpp"
#include "cutting/reconstructor.hpp"

namespace qcut::cutting {

struct BootstrapOptions {
  std::size_t replicas = 200;
  double confidence = 0.95;
  std::uint64_t seed = 1234;
  parallel::ThreadPool* pool = nullptr;
};

/// Throws qcut::Error unless replicas >= 2 and confidence is finite and in
/// (0, 1). Both bootstrap functions and CutRequest validation call it.
void check_bootstrap_options(const BootstrapOptions& options);

/// Per-outcome uncertainty of the reconstructed raw distribution.
struct DistributionUncertainty {
  std::vector<double> mean;            // bootstrap mean per outcome
  std::vector<double> standard_error;  // bootstrap SE per outcome
  std::vector<double> ci_lower;        // per-outcome confidence band
  std::vector<double> ci_upper;
};

/// Bootstraps the reconstructed distribution. `data` must be sampled
/// (shots_per_variant > 0); exact data has no sampling error. Each replica
/// resamples every variant in `data` with the shots recorded for it in
/// PerFragment::shots (shots_per_variant where none is), fragment by
/// fragment and each fragment's variants in ascending packed key, so the
/// replicas are a pure function of (data, seed).
[[nodiscard]] DistributionUncertainty bootstrap_distribution(
    const FragmentGraph& graph, const ChainFragmentData& data, const ChainNeglectSpec& spec,
    const BootstrapOptions& options = {});

/// Uncertainty of one diagonal-observable expectation.
struct ExpectationUncertainty {
  double estimate = 0.0;  // from the original data
  double standard_error = 0.0;
  double ci_lower = 0.0;
  double ci_upper = 0.0;
};

/// Bootstraps <observable> over the raw reconstruction; `estimate` is the
/// same fold over the reconstruction of `data` itself.
[[nodiscard]] ExpectationUncertainty bootstrap_expectation(
    const FragmentGraph& graph, const ChainFragmentData& data, const ChainNeglectSpec& spec,
    const DiagonalObservable& observable, const BootstrapOptions& options = {});

}  // namespace qcut::cutting
