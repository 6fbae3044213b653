#include "service/fair_dispatcher.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace qcut::service {

FairDispatcher::FairDispatcher(parallel::ThreadPool& pool, telemetry::MetricsRegistry* metrics)
    : pool_(pool), width_(std::max(1u, pool.size())) {
  if (metrics != nullptr) {
    dispatches_ = metrics->counter("service.fair_dispatches");
    staged_gauge_ = metrics->gauge("service.staged_tasks");
  }
}

FairDispatcher::~FairDispatcher() { drain(); }

void FairDispatcher::submit(const std::string& tenant_key, std::uint32_t weight,
                            Thunk task) {
  QCUT_CHECK(weight > 0, "FairDispatcher: weight must be >= 1");
  std::unique_lock<std::mutex> lock(mutex_);
  Tenant& tenant = tenants_[tenant_key];
  if (tenant.queue.empty()) {
    // (Re)activation: no banked credit from idle time (see header).
    tenant.pass = std::max(tenant.pass, virtual_time_);
  }
  tenant.weight = weight;
  tenant.queue.emplace_back(next_sequence_++, std::move(task));
  ++staged_;
  if (staged_gauge_) staged_gauge_->set(static_cast<std::int64_t>(staged_));
  pump(lock);
}

void FairDispatcher::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  drained_.wait(lock, [this] { return staged_ == 0 && in_pool_ == 0; });
}

void FairDispatcher::pump(std::unique_lock<std::mutex>& lock) {
  QCUT_ASSERT(lock.owns_lock(), "FairDispatcher::pump: caller must hold the lock");
  while (in_pool_ < width_ && staged_ > 0) {
    // Min-(pass, head sequence) over tenants with staged work. The map's
    // ordered scan plus the sequence tie-break make selection a pure
    // function of submission history.
    Tenant* best = nullptr;
    for (auto& [key, tenant] : tenants_) {
      if (tenant.queue.empty()) continue;
      if (best == nullptr || tenant.pass < best->pass ||
          (tenant.pass == best->pass &&
           tenant.queue.front().first < best->queue.front().first)) {
        best = &tenant;
      }
    }
    QCUT_ASSERT(best != nullptr, "FairDispatcher: staged count out of sync");

    Thunk task = std::move(best->queue.front().second);
    best->queue.pop_front();
    --staged_;
    virtual_time_ = best->pass;
    best->pass += kStrideScale / std::max<std::uint32_t>(1, best->weight);
    ++in_pool_;
    if (dispatches_) dispatches_->add();
    if (staged_gauge_) staged_gauge_->set(static_cast<std::int64_t>(staged_));

    // Submitted with the lock held: a finishing task pumps from inside its
    // wrapper after giving up its own in_pool_ count, so if the lock were
    // released here, the task submitted now could run and finish, drain()
    // could see nothing in flight and destroy this object, and the wrapper
    // would then re-lock and notify through freed memory. The pool's own
    // lock is only ever taken after this one. Discarded future: completion
    // is tracked by the wrapper below, and the task itself owns error
    // delivery (group tasks route failures into their job's promise).
    auto ignored = pool_.submit([this, task = std::move(task)]() {
      try {
        task();
      } catch (...) {
        // Group tasks never throw (they capture into promises); swallow
        // anything else so a stray exception cannot wedge the slot count.
      }
      std::unique_lock<std::mutex> inner(mutex_);
      --in_pool_;
      pump(inner);
      // Notify while holding the lock: a drain()er (possibly the
      // destructor) may otherwise observe the drained state and free this
      // object between our unlock and the notify.
      drained_.notify_all();
    });
    (void)ignored;
  }
}

}  // namespace qcut::service
