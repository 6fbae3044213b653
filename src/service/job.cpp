#include "service/job.hpp"

#include "cutting/fragment_executor.hpp"

namespace qcut::service {

std::uint32_t priority_multiplier(cutting::PriorityClass priority) noexcept {
  switch (priority) {
    case cutting::PriorityClass::Interactive: return 4;
    case cutting::PriorityClass::Standard: return 2;
    case cutting::PriorityClass::Batch: return 1;
  }
  return 2;
}

std::string tenant_dispatch_key(const cutting::CutRequest& request) {
  const char* suffix = "/standard";
  switch (request.priority) {
    case cutting::PriorityClass::Interactive: suffix = "/interactive"; break;
    case cutting::PriorityClass::Standard: suffix = "/standard"; break;
    case cutting::PriorityClass::Batch: suffix = "/batch"; break;
  }
  return request.tenant_id + suffix;
}

WavePlan plan_wave(const std::vector<WaveVariant>& variants, std::size_t shots_per_variant,
                   std::size_t total_shot_budget, bool exact) {
  const std::vector<std::size_t> shots_for =
      cutting::plan_variant_shots(shots_per_variant, total_shot_budget, exact, variants.size());

  WavePlan plan;
  plan.slots.reserve(variants.size());
  for (std::size_t i = 0; i < variants.size(); ++i) {
    plan.slots.push_back(VariantSlot{variants[i].fragment, variants[i].key,
                                     exact ? 0 : shots_for[i], nullptr});
  }
  if (!exact) {
    plan.smallest_share = shots_for.empty() ? 0 : shots_for.back();
    for (std::size_t s : shots_for) plan.planned_total_shots += s;
  }
  return plan;
}

}  // namespace qcut::service
