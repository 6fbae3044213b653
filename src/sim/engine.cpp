#include "sim/engine.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <future>
#include <utility>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "linalg/ops.hpp"
#include "sim/simd_kernels.hpp"
#include "sim/soa_state.hpp"
#include "telemetry/metrics.hpp"

namespace qcut::sim {

using circuit::Operation;
using linalg::CMat;

namespace {

constexpr std::size_t kNumKernelClasses = 6;

/// Process-wide engine instruments on the global registry, one counter pair
/// per kernel class. Gate counts are recorded at compile time (once per
/// circuit); per-class kernel time is recorded by apply() only when
/// telemetry is enabled (it needs two clock reads per op).
struct EngineMetrics {
  std::array<std::shared_ptr<telemetry::Counter>, kNumKernelClasses> ops;
  std::array<std::shared_ptr<telemetry::Counter>, kNumKernelClasses> kernel_ns;
  std::shared_ptr<telemetry::Counter> applies;
  std::shared_ptr<telemetry::Counter> fusion_gates_in;
  std::shared_ptr<telemetry::Counter> fusion_gates_absorbed;
  // Cache-blocked segments interleave ops per amplitude block, so their
  // time cannot be attributed to a single kernel class; it lands here.
  std::shared_ptr<telemetry::Counter> blocked_segments;
  std::shared_ptr<telemetry::Counter> blocked_segment_ns;

  static EngineMetrics& get() {
    static EngineMetrics metrics;
    return metrics;
  }

 private:
  EngineMetrics() {
    telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::global();
    for (std::size_t c = 0; c < kNumKernelClasses; ++c) {
      const std::string name = kernel_class_name(static_cast<KernelClass>(c));
      ops[c] = registry.counter("sim.ops." + name);
      kernel_ns[c] = registry.counter("sim.kernel_ns." + name);
    }
    applies = registry.counter("sim.applies");
    fusion_gates_in = registry.counter("sim.fusion.gates_in");
    fusion_gates_absorbed = registry.counter("sim.fusion.gates_absorbed");
    blocked_segments = registry.counter("sim.blocked_segments");
    blocked_segment_ns = registry.counter("sim.blocked_segment_ns");
  }
};

}  // namespace

std::string kernel_class_name(KernelClass cls) {
  switch (cls) {
    case KernelClass::Diagonal: return "diagonal";
    case KernelClass::Permutation: return "permutation";
    case KernelClass::Controlled1Q: return "controlled_1q";
    case KernelClass::Generic1Q: return "generic_1q";
    case KernelClass::Generic2Q: return "generic_2q";
    case KernelClass::GenericKQ: return "generic_kq";
  }
  QCUT_CHECK(false, "kernel_class_name: invalid class");
}

std::string isa_level_name(IsaLevel isa) {
  switch (isa) {
    case IsaLevel::Scalar: return "scalar";
    case IsaLevel::Avx2: return "avx2";
    case IsaLevel::Avx512: return "avx512";
  }
  QCUT_CHECK(false, "isa_level_name: invalid level");
}

namespace {

// Exact structural tests. Gate matrices build their zeros and ones exactly
// (matrices zero-initialize; identity blocks are literal 1.0), so exact
// comparison recognizes every structured gate in the library while never
// misclassifying a dense matrix that merely comes close.
bool is_zero(cx v) noexcept { return v == cx{0.0, 0.0}; }
bool is_one(cx v) noexcept { return v == cx{1.0, 0.0}; }

/// Diagonal: every off-diagonal entry exactly 0. Dropping a term whose
/// coefficient is exactly 0 (or skipping a multiply by exactly 1) cannot
/// change the VALUE of any amplitude, so the kernel matches the generic
/// dense loop bit for bit.
bool try_diagonal(linalg::SquareView m, std::span<const int> qubits, CompiledOp& op) {
  const index_t block = m.dim;
  std::size_t factors = 0;
  for (index_t r = 0; r < block; ++r) {
    for (index_t c = 0; c < block; ++c) {
      if (r != c && !is_zero(m(r, c))) return false;
    }
    if (!is_one(m(r, r))) ++factors;
  }
  op.diag_factors = circuit::InlineList<DiagFactor, 8>(factors);
  std::size_t i = 0;
  for (index_t p = 0; p < block; ++p) {
    const cx d = m(p, p);
    if (!is_one(d)) op.diag_factors[i++] = {scatter_bits(p, qubits), d};
  }
  op.cls = KernelClass::Diagonal;
  return true;
}

constexpr std::size_t kMaxMoves = 8;  // permutation moves use 8-slot buffers (k <= 3)

/// The first `count` entries of `values` as a kernel list.
template <typename T>
circuit::InlineList<T, kMaxMoves> first(const std::array<T, kMaxMoves>& values,
                                        std::size_t count) {
  return circuit::InlineList<T, kMaxMoves>(std::span<const T>(values.data(), count));
}

/// Permutation (optionally phased): exactly one nonzero per row and per
/// column (linalg::is_phased_permutation — the same predicate the fusion
/// pass uses to decide what it must never densify). The kernel records
/// only the local patterns that move or pick up a phase; fixed points
/// with phase exactly 1 are untouched.
bool try_permutation(linalg::SquareView m, std::span<const int> qubits, CompiledOp& op) {
  const index_t block = m.dim;
  if (block > kMaxMoves) return false;
  if (!linalg::is_phased_permutation(m)) return false;
  std::array<index_t, kMaxMoves> dst{};
  std::array<index_t, kMaxMoves> src{};
  std::array<cx, kMaxMoves> phase{};
  std::array<char, kMaxMoves> phase_is_one{};
  std::size_t moves = 0;
  for (index_t r = 0; r < block; ++r) {
    index_t c = 0;
    while (is_zero(m(r, c))) ++c;  // the row's single nonzero
    const cx v = m(r, c);
    if (r == c && is_one(v)) continue;
    dst[moves] = scatter_bits(r, qubits);
    src[moves] = scatter_bits(c, qubits);
    phase[moves] = v;
    phase_is_one[moves] = is_one(v) ? 1 : 0;
    ++moves;
  }
  op.perm_dst = first(dst, moves);
  op.perm_src = first(src, moves);
  op.perm_phase = first(phase, moves);
  op.perm_phase_is_one = first(phase_is_one, moves);
  op.cls = KernelClass::Permutation;
  return true;
}

/// Controlled-1q (two-qubit only): identity on the control-0 subspace, an
/// arbitrary 2x2 on the control-1 subspace. Both orientations (control =
/// local bit 0 or bit 1) are recognized.
bool try_controlled_1q(linalg::SquareView m, std::span<const int> qubits, CompiledOp& op) {
  for (int control_local = 0; control_local < 2; ++control_local) {
    const index_t cmask_local = control_local == 0 ? 1 : 2;
    bool matches = true;
    for (index_t r = 0; r < 4 && matches; ++r) {
      for (index_t c = 0; c < 4 && matches; ++c) {
        if ((r & cmask_local) != 0 && (c & cmask_local) != 0) continue;  // the u block
        const cx want = r == c ? cx{1.0, 0.0} : cx{0.0, 0.0};
        if (m(r, c) != want) matches = false;
      }
    }
    if (!matches) continue;
    const index_t t_local = cmask_local == 1 ? 2 : 1;
    linalg::Mat2 u;
    u(0, 0) = m(cmask_local, cmask_local);
    u(0, 1) = m(cmask_local, cmask_local | t_local);
    u(1, 0) = m(cmask_local | t_local, cmask_local);
    u(1, 1) = m(cmask_local | t_local, cmask_local | t_local);
    op.cls = KernelClass::Controlled1Q;
    op.matrix = KernelMatrix(u.view());
    op.control_mask = pow2(qubits[static_cast<std::size_t>(control_local)]);
    op.target_mask = pow2(qubits[static_cast<std::size_t>(1 - control_local)]);
    return true;
  }
  return false;
}

/// Classifies the unitary `m` on `qubits` into `op`.
void classify(const circuit::QubitList& qubits, linalg::SquareView m, bool specialize,
              CompiledOp& op) {
  op.qubits = qubits;
  op.sorted_qubits = qubits;
  std::sort(op.sorted_qubits.begin(), op.sorted_qubits.end());
  const int k = static_cast<int>(qubits.size());

  if (specialize) {
    if (try_diagonal(m, op.qubits, op)) return;
    if (try_permutation(m, op.qubits, op)) return;
    if (k == 2 && try_controlled_1q(m, op.qubits, op)) return;
  }

  op.cls = k == 1 ? KernelClass::Generic1Q
                  : (k == 2 ? KernelClass::Generic2Q : KernelClass::GenericKQ);
  op.matrix = KernelMatrix(m);
  if (op.cls == KernelClass::GenericKQ) {
    const index_t block = pow2(k);
    op.perm_dst = circuit::InlineList<index_t, 8>(block);  // scatter offsets of every pattern
    for (index_t p = 0; p < block; ++p) op.perm_dst[p] = scatter_bits(p, op.qubits);
  }
}

/// Classifies a source op: named gates through their inline matrices,
/// Custom blocks in place.
void classify(const Operation& source, bool specialize, CompiledOp& op) {
  if (source.kind == circuit::GateKind::Custom) {
    classify(source.qubits, source.custom.view(), specialize, op);
    return;
  }
  switch (source.num_qubits()) {
    case 1:
      classify(source.qubits, circuit::gate_matrix_1q(source.kind, source.params).view(),
               specialize, op);
      return;
    case 2:
      classify(source.qubits, circuit::gate_matrix_2q(source.kind, source.params).view(),
               specialize, op);
      return;
    default:
      classify(source.qubits, circuit::gate_matrix_3q(source.kind).view(), specialize, op);
  }
}

void check_qubits(const circuit::QubitList& qubits, int num_qubits) {
  for (int q : qubits) {
    QCUT_CHECK(q >= 0 && q < num_qubits, "compile_ops: qubit out of range");
  }
}

// ---- Kernel application -----------------------------------------------------

/// Runs fn(lo, hi) over [0, count) either inline or as pool chunks of at
/// least `min_chunk_items`. Every chunk bound is a multiple of
/// min_chunk_items (or count), which keeps the kernels' group bounds on
/// whole registers (simd::KernelFn). Chunk boundaries cannot affect
/// results: every kernel body is element-wise independent (each iteration
/// reads and writes only its own amplitude group), so any thread count —
/// and any chunking — is bit-for-bit identical to the serial loop.
template <typename Fn>
void chunked_over(parallel::ThreadPool* pool, bool threaded, index_t count,
                  index_t min_chunk_items, const Fn& fn) {
  if (!threaded || count < 2 * min_chunk_items) {
    fn(index_t{0}, count);
    return;
  }
  const index_t max_chunks = static_cast<index_t>(pool->size()) * 4;
  const index_t chunks = std::min(count / min_chunk_items, std::max<index_t>(max_chunks, 1));
  const index_t items = (count + chunks - 1) / chunks;
  const index_t step = (items + min_chunk_items - 1) / min_chunk_items * min_chunk_items;
  std::vector<std::future<void>> futures;
  futures.reserve(static_cast<std::size_t>(chunks));
  for (index_t lo = step; lo < count; lo += step) {
    const index_t hi = std::min(count, lo + step);
    futures.push_back(pool->submit([&fn, lo, hi] { fn(lo, hi); }));
  }
  fn(index_t{0}, std::min(count, step));  // the caller works too
  for (auto& f : futures) f.get();
}

/// Applies one op to `span` through `table`, its groups chunked over the
/// pool when threaded, at least 1024 groups per chunk.
void run_op(const simd::KernelTable& table, const simd::SoaSpan& span, const CompiledOp& op,
            parallel::ThreadPool* pool, bool threaded) {
  const simd::KernelFn fn = table.fns[static_cast<std::size_t>(op.cls)];
  chunked_over(pool, threaded, simd::group_count(op, span.dim), index_t{1024},
               [&](index_t lo, index_t hi) { fn(span, op, lo, hi); });
}

/// Runs `body` and, when telemetry is on, attributes the elapsed
/// nanoseconds via `record`.
template <typename Body, typename Record>
void timed_if_enabled(const Body& body, const Record& record) {
  if (!telemetry::enabled()) {
    body();
    return;
  }
  const auto start = std::chrono::steady_clock::now();
  body();
  const auto end = std::chrono::steady_clock::now();
  record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count()));
}

}  // namespace

void CompiledCircuit::apply(SoAState& state) const {
  QCUT_CHECK(state.num_qubits() == num_qubits_,
             "CompiledCircuit::apply: state width must match the compiled circuit");
  parallel::ThreadPool* pool =
      options_.pool != nullptr ? options_.pool : &parallel::ThreadPool::global();
  const simd::SoaSpan whole{state.re(), state.im(), state.dim()};
  const bool threaded = num_qubits_ >= options_.threading_threshold_qubits &&
                        pool->size() > 1 && !parallel::in_pool_worker();
  const simd::KernelTable& table = simd::kernel_table(isa_);
  EngineMetrics& metrics = EngineMetrics::get();
  metrics.applies->add();
  // The pool engages only when a segment's work estimate (ops x amplitudes)
  // clears min_parallel_work: small-state/many-gate circuits would pay a
  // pool dispatch per op for kernels that finish faster than the submit.
  // Bit-for-bit neutral — threading never affects results at any grain.
  const bool op_threaded = threaded && whole.dim >= options_.min_parallel_work;
  for (const Segment& seg : segments_) {
    if (seg.blocked) {
      const std::span<const CompiledOp> run{ops_.data() + seg.begin, seg.end - seg.begin};
      const int bq = options_.cache_block_qubits;
      const std::uint64_t work = static_cast<std::uint64_t>(run.size()) * whole.dim;
      const bool seg_threaded = threaded && work >= options_.min_parallel_work;
      metrics.blocked_segments->add();
      timed_if_enabled(
          [&] {
            chunked_over(pool, seg_threaded, whole.dim >> bq, index_t{1},
                         [&](index_t t_lo, index_t t_hi) {
                           for (index_t t = t_lo; t < t_hi; ++t) {
                             const simd::SoaSpan block{whole.re + (t << bq),
                                                       whole.im + (t << bq), pow2(bq)};
                             for (const CompiledOp& op : run) {
                               run_op(table, block, op, pool, false);
                             }
                           }
                         });
          },
          [&](std::uint64_t ns) { metrics.blocked_segment_ns->add(ns); });
    } else {
      const CompiledOp& op = ops_[seg.begin];
      timed_if_enabled(
          [&] { run_op(table, whole, op, pool, op_threaded); },
          [&](std::uint64_t ns) {
            metrics.kernel_ns[static_cast<std::size_t>(op.cls)]->add(ns);
          });
    }
  }
}

template <typename Classify>
CompiledCircuit CompiledCircuit::build(std::size_t count, int num_qubits,
                                       const EngineOptions& options, const Classify& classify) {
  QCUT_CHECK(num_qubits >= 1, "compile_ops: need at least one qubit");
  CompiledCircuit compiled;
  compiled.num_qubits_ = num_qubits;
  compiled.options_ = options;
  compiled.isa_ = options.simd ? simd::best_isa() : IsaLevel::Scalar;
  compiled.ops_.resize(count);
  std::array<std::uint64_t, kNumKernelClasses> class_counts{};
  for (std::size_t i = 0; i < count; ++i) {
    classify(i, compiled.ops_[i]);
    ++class_counts[static_cast<std::size_t>(compiled.ops_[i].cls)];
  }
  EngineMetrics& metrics = EngineMetrics::get();
  for (std::size_t c = 0; c < kNumKernelClasses; ++c) {
    if (class_counts[c] > 0) metrics.ops[c]->add(class_counts[c]);
  }

  // Apply plan: fold maximal runs of >= 2 ops whose qubits all lie below
  // cache_block_qubits into blocked segments (each 2^B-amplitude block is
  // walked through the whole run while cache-resident); everything else is
  // one full-state sweep per op. Blocking never changes the per-amplitude
  // arithmetic sequence — every op's groups fall entirely inside one block
  // — so the plan is bit-for-bit neutral.
  const int bq = options.cache_block_qubits;
  const bool blocking = bq > 0 && num_qubits > bq;
  const auto blockable = [&](const CompiledOp& op) { return op.sorted_qubits.back() < bq; };
  compiled.segments_.reserve(count);
  std::size_t i = 0;
  while (i < count) {
    if (blocking && blockable(compiled.ops_[i])) {
      std::size_t j = i + 1;
      while (j < count && blockable(compiled.ops_[j])) ++j;
      if (j - i >= 2) {
        compiled.segments_.push_back(Segment{i, j, true});
        i = j;
        continue;
      }
    }
    compiled.segments_.push_back(Segment{i, i + 1, false});
    ++i;
  }
  return compiled;
}

CompiledCircuit compile_ops(std::span<const Operation> ops, int num_qubits,
                            const EngineOptions& options) {
  return CompiledCircuit::build(ops.size(), num_qubits, options,
                                [&](std::size_t i, CompiledOp& op) {
                                  check_qubits(ops[i].qubits, num_qubits);
                                  classify(ops[i], options.specialize, op);
                                });
}

CompiledCircuit compile_fused(std::span<const circuit::FusedOp> stream,
                              std::span<const Operation> source, int num_qubits,
                              const EngineOptions& options, const circuit::FusionStats* fusion) {
  CompiledCircuit compiled = CompiledCircuit::build(
      stream.size(), num_qubits, options, [&](std::size_t i, CompiledOp& op) {
        const circuit::FusedOp& entry = stream[i];
        check_qubits(entry.qubits, num_qubits);
        if (entry.qubits.size() <= 2) {
          classify(entry.qubits, entry.unitary(), options.specialize, op);
        } else {
          classify(source[entry.source], options.specialize, op);
        }
      });
  if (fusion != nullptr) {
    compiled.fusion_stats_ = *fusion;
    EngineMetrics& metrics = EngineMetrics::get();
    metrics.fusion_gates_in->add(source.size());
    metrics.fusion_gates_absorbed->add(fusion->absorbed());
  }
  return compiled;
}

CompiledCircuit compile_circuit(const circuit::Circuit& circuit, const EngineOptions& options) {
  if (!options.fuse) return compile_ops(circuit.ops(), circuit.num_qubits(), options);
  circuit::GateFusion scan(circuit.num_qubits());
  std::vector<circuit::FusedOp> stream;
  stream.reserve(circuit.num_ops());
  for (const Operation& op : circuit.ops()) scan.push(op, stream);
  scan.flush(stream);
  return compile_fused(stream, circuit.ops(), circuit.num_qubits(), options, &scan.stats());
}

}  // namespace qcut::sim
