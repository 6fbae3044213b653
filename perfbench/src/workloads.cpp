#include "workloads.hpp"

#include <stdexcept>

#include "circuit/random.hpp"
#include "common/rng.hpp"
#include "cutting/golden.hpp"

namespace perfbench {

using qcut::Rng;
using qcut::circuit::Circuit;
using qcut::circuit::WirePoint;
using qcut::cutting::CutRequest;
using qcut::cutting::GoldenMode;

namespace {

// Request streams: the timed and warm-up requests of a workload draw from
// disjoint child generators of the seed.
constexpr std::uint64_t kTimedStream = 0;
constexpr std::uint64_t kWarmupStream = 1;

// sweep_warm: the QAOA circuit of bench/service_throughput.cpp.
constexpr int kSweepQubits = 12;
constexpr int kSweepDepth = 3;
constexpr int kSweepGammas = 8;
constexpr int kSweepBetas = 4;
constexpr std::uint64_t kSweepGrid = kSweepGammas * kSweepBetas;

/// Depth-p QAOA ansatz for MaxCut on the path graph.
Circuit qaoa_path(double gamma, double beta) {
  Circuit c(kSweepQubits);
  for (int q = 0; q < kSweepQubits; ++q) c.h(q);
  for (int layer = 0; layer < kSweepDepth; ++layer) {
    for (int q = 0; q + 1 < kSweepQubits; ++q) {
      c.append(qcut::circuit::GateKind::RZZ, {q, q + 1}, {gamma * (1.0 + 0.1 * layer)});
    }
    for (int q = 0; q < kSweepQubits; ++q) c.rx(2.0 * beta, q);
  }
  return c;
}

/// The middle wire, cut after its last cost-layer interaction.
WirePoint middle_cut(const Circuit& c) {
  const int wire = kSweepQubits / 2;
  std::size_t cut_after = 0;
  for (std::size_t i = 0; i < c.num_ops(); ++i) {
    const auto& op = c.op(i);
    if (op.kind == qcut::circuit::GateKind::RZZ && op.acts_on(wire)) cut_after = i;
  }
  return WirePoint{wire, cut_after};
}

qcut::cutting::NeglectSpec golden_y_spec() {
  qcut::cutting::NeglectSpec spec(1);
  spec.neglect(0, qcut::cutting::Pauli::Y);
  return spec;
}

/// paper_mixed: the paper's Fig. 2 circuits at 5-7 qubits, four request
/// kinds in rotation, two tenants at weights 3:1. Kind and width rotate
/// with the index, never with the seed, so every seed runs the same mix.
CutRequest paper_mixed_request(Rng& rng, std::uint64_t index) {
  qcut::circuit::GoldenAnsatzOptions options;
  options.num_qubits = 5 + static_cast<int>((index / 4) % 3);
  const qcut::circuit::GoldenAnsatz ansatz = qcut::circuit::make_golden_ansatz(options, rng);

  CutRequest request(ansatz.circuit);
  switch (index % 4) {
    case 0:
      request.with_auto_plan().with_golden(GoldenMode::DetectOnline);
      break;
    case 1:
      request.with_cut(ansatz.cut).with_provided_spec(golden_y_spec());
      break;
    case 2: {
      qcut::cutting::ChainPlannerOptions planner;
      planner.max_fragment_width = options.num_qubits / 2 + 1;
      request.with_chain_plan(planner).with_golden(GoldenMode::DetectExact);
      break;
    }
    default:
      request.with_cut(ansatz.cut).with_golden(GoldenMode::DetectOnline);
      break;
  }
  const bool minor_tenant = (index / 4) % 4 == 3;
  request.with_tenant(minor_tenant ? "tenant-b" : "tenant-a", minor_tenant ? 1 : 3);
  request.with_shots(4000).with_seed(rng.next_u64());
  return request;
}

/// wide_cold: an 18-qubit Fig. 2 circuit cut into a 16-qubit upstream and
/// a 3-qubit downstream fragment, golden basis known a priori.
CutRequest wide_cold_request(Rng& rng) {
  qcut::circuit::GoldenAnsatzOptions options;
  options.num_qubits = 18;
  options.cut_qubit = 15;
  options.upstream_depth = 12;
  const qcut::circuit::GoldenAnsatz ansatz = qcut::circuit::make_golden_ansatz(options, rng);
  CutRequest request(ansatz.circuit);
  request.with_cut(ansatz.cut).with_provided_spec(golden_y_spec());
  request.with_shots(20000).with_seed(rng.next_u64());
  return request;
}

/// sweep_warm: grid point `point` of an 8 x 4 (gamma, beta) grid over a
/// fixed region, each point jittered by the seed. Fixed seed stream, so a
/// revisit is byte-for-byte the same request and every variant is a cache
/// hit.
CutRequest sweep_request(Rng& rng, std::uint64_t point) {
  const double gamma = 0.25 + 0.06 * static_cast<double>(point % kSweepGammas) +
                       rng.uniform(0.0, 0.03);
  const double beta = 0.15 + 0.09 * static_cast<double>(point / kSweepGammas) +
                      rng.uniform(0.0, 0.03);
  const Circuit circuit = qaoa_path(gamma, beta);
  CutRequest request(circuit);
  request.with_cut(middle_cut(circuit)).with_golden(GoldenMode::None);
  request.with_shots(20000).with_seed(0);
  return request;
}

std::vector<Workload> make_workloads() {
  std::vector<Workload> out(3);

  Workload& mixed = out[0];
  mixed.name = "paper_mixed";
  mixed.clients = 16;
  mixed.inline_reconstruction = true;
  mixed.jobs_per_second = 2100.0;
  mixed.segments = 80;
  mixed.warmup_jobs = 256;
  mixed.accuracy_jobs = 192;
  mixed.tvd_ceiling = 0.15;
  mixed.replay_jobs = 12;

  Workload& wide = out[1];
  wide.name = "wide_cold";
  wide.clients = 4;
  wide.jobs_per_second = 32.0;
  wide.segments = 6;
  wide.warmup_jobs = 8;
  wide.accuracy_jobs = 32;
  wide.tvd_ceiling = 0.6;
  wide.replay_jobs = 3;

  Workload& sweep = out[2];
  sweep.name = "sweep_warm";
  sweep.clients = 16;
  sweep.inline_reconstruction = true;
  sweep.jobs_per_second = 1400.0;
  sweep.segments = 80;
  sweep.warmup_jobs = 64;
  sweep.accuracy_jobs = static_cast<int>(kSweepGrid);
  sweep.tvd_ceiling = 0.3;
  sweep.replay_jobs = 16;
  sweep.primed = true;
  return out;
}

}  // namespace

const Workload& find_workload(std::string_view name) {
  static const std::vector<Workload> workloads = make_workloads();
  for (const Workload& workload : workloads) {
    if (workload.name == name) return workload;
  }
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

RequestSource::RequestSource(const Workload& workload, std::uint64_t seed)
    : workload_(workload), seed_(seed) {}

CutRequest RequestSource::make(std::uint64_t stream, std::uint64_t index) const {
  const Rng stream_rng = Rng(seed_).child(stream);
  if (workload_.name == "paper_mixed") {
    Rng rng = stream_rng.child(index);
    return paper_mixed_request(rng, index);
  }
  if (workload_.name == "wide_cold") {
    Rng rng = stream_rng.child(index);
    return wide_cold_request(rng);
  }
  const std::uint64_t point = index % kSweepGrid;
  Rng rng = stream_rng.child(point);
  return sweep_request(rng, point);
}

CutRequest RequestSource::timed(std::uint64_t index) const { return make(kTimedStream, index); }

CutRequest RequestSource::warmup(std::uint64_t index) const {
  return make(kWarmupStream, index);
}

std::vector<CutRequest> RequestSource::priming() const {
  std::vector<CutRequest> out;
  if (!workload_.primed) return out;
  for (std::uint64_t point = 0; point < kSweepGrid; ++point) out.push_back(timed(point));
  return out;
}

}  // namespace perfbench
