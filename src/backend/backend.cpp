#include "backend/backend.hpp"

namespace qcut::backend {

BatchResult Backend::run_batch(const BatchRequest& request) {
  BatchResult result;
  result.probabilities.resize(request.jobs.size());

  const auto run_one = [&](std::size_t j) {
    const BatchJob& job = request.jobs[j];
    result.probabilities[j] = request.exact
                                  ? exact_probabilities(job.circuit)
                                  : run(job.circuit, job.shots, job.seed_stream).to_probabilities();
  };

  // The prefix plan is advisory; the fallback ignores it. Jobs are
  // independent (per-job seed streams) and write disjoint slots, so the
  // fan-out preserves the per-job determinism contract.
  if (request.pool != nullptr) {
    parallel::parallel_for(*request.pool, 0, request.jobs.size(), run_one);
  } else {
    for (std::size_t j = 0; j < request.jobs.size(); ++j) run_one(j);
  }
  return result;
}

}  // namespace qcut::backend
