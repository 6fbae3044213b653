#include "sim/device.hpp"

#include <optional>
#include <span>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "sim/simd_kernels.hpp"
#include "sim/soa_state.hpp"

namespace qcut::sim {

std::string ProgramSummary::to_string() const {
  std::ostringstream os;
  os << "compiled " << source_ops << " -> " << compiled_ops << " ops (fused "
     << fused_absorbed << ", " << static_cast<int>(fused_fraction() * 100.0 + 0.5)
     << "%) | kernels:";
  for (std::size_t c = 0; c < class_counts.size(); ++c) {
    if (class_counts[c] == 0) continue;
    os << ' ' << kernel_class_name(static_cast<KernelClass>(c)) << '=' << class_counts[c];
  }
  os << " | blocked=" << blocked_ops << " | isa=" << isa_level_name(isa);
  return os.str();
}

namespace {

class CpuDeviceState final : public DeviceState {
 public:
  explicit CpuDeviceState(int num_qubits) : soa(num_qubits) {}

  [[nodiscard]] int num_qubits() const noexcept override { return soa.num_qubits(); }
  [[nodiscard]] index_t dim() const noexcept override { return soa.dim(); }

  SoAState soa;
};

class CpuCompiledProgram : public CompiledProgram {
 public:
  [[nodiscard]] int num_qubits() const noexcept override { return compiled.num_qubits(); }

  [[nodiscard]] ProgramSummary summary() const override {
    ProgramSummary s;
    s.source_ops = source_ops;
    s.compiled_ops = compiled.num_ops();
    for (const CompiledOp& op : compiled.compiled_ops()) {
      ++s.class_counts[static_cast<std::size_t>(op.cls)];
    }
    s.fused_absorbed = compiled.fusion_stats().absorbed();
    for (const CompiledCircuit::Segment& seg : compiled.segments()) {
      if (seg.blocked) s.blocked_ops += seg.end - seg.begin;
    }
    s.isa = compiled.isa();
    return s;
  }

  CompiledCircuit compiled;
  std::size_t source_ops = 0;
};

/// A compile_prefix program: its first source_ops ops and, under fusion,
/// the scan at their fusion frontier, which compile_suffix clones per
/// member (the GateFusion stream property). Only these programs carry the
/// scan's few kilobytes of inline storage; the user-provided constructor
/// keeps make_unique from zero-filling it.
class CpuPrefixProgram final : public CpuCompiledProgram {
 public:
  explicit CpuPrefixProgram(std::size_t prefix_ops) { source_ops = prefix_ops; }

  std::optional<circuit::GateFusion> scan;
};

const CpuCompiledProgram& checked_program(const CompiledProgram& program) {
  const auto* p = dynamic_cast<const CpuCompiledProgram*>(&program);
  QCUT_CHECK(p != nullptr, "cpu device: program was compiled by a different device");
  return *p;
}

class CpuDevice final : public Device {
 public:
  explicit CpuDevice(EngineOptions options) : options_(options) {
    caps_.name = "cpu";
    caps_.isa = options_.simd ? simd::best_isa() : IsaLevel::Scalar;
  }

  [[nodiscard]] const DeviceCaps& caps() const noexcept override { return caps_; }

  [[nodiscard]] std::string identity_token() const override {
    std::string token = options_.fuse ? "+fusion" : "";
    // The dispatched ISA, not just the flag: AVX2 and AVX-512 split the
    // ops between their run and lane bodies at different qubits, which
    // round differently, so equal tokens require equal dispatch.
    if (caps_.isa != IsaLevel::Scalar) {
      token += "+simd(" + isa_level_name(caps_.isa) + ")";
    }
    return token;
  }

  [[nodiscard]] std::unique_ptr<CompiledProgram> compile(
      const circuit::Circuit& circuit) const override {
    auto program = std::make_unique<CpuCompiledProgram>();
    program->source_ops = circuit.num_ops();
    program->compiled = compile_circuit(circuit, options_);
    return program;
  }

  [[nodiscard]] std::unique_ptr<CompiledProgram> compile_prefix(
      const circuit::Circuit& rep, std::size_t prefix_ops) const override {
    QCUT_CHECK(prefix_ops <= rep.num_ops(), "compile_prefix: prefix_ops out of range");
    auto program = std::make_unique<CpuPrefixProgram>(prefix_ops);
    const std::span<const circuit::Operation> ops = std::span(rep.ops()).first(prefix_ops);
    if (options_.fuse) {
      // Only the settled operations are compiled (and later applied) before
      // a fork; the scan state rides along for compile_suffix to clone.
      circuit::GateFusion& scan = program->scan.emplace(rep.num_qubits());
      std::vector<circuit::FusedOp> settled;
      settled.reserve(prefix_ops);
      for (const circuit::Operation& op : ops) scan.push(op, settled);
      program->compiled = compile_fused(settled, ops, rep.num_qubits(), options_, nullptr);
    } else {
      program->compiled = compile_ops(ops, rep.num_qubits(), options_);
    }
    return program;
  }

  [[nodiscard]] std::unique_ptr<CompiledProgram> compile_suffix(
      const CompiledProgram& prefix, const circuit::Circuit& full) const override {
    const auto* p = dynamic_cast<const CpuPrefixProgram*>(&prefix);
    QCUT_CHECK(p != nullptr, "compile_suffix: program was not built by compile_prefix");
    const std::size_t prefix_ops = p->source_ops;
    QCUT_CHECK(prefix_ops <= full.num_ops(),
               "compile_suffix: circuit shorter than the compiled prefix");
    QCUT_CHECK(p->scan.has_value() == options_.fuse,
               "compile_suffix: prefix was compiled with another fusion setting");
    // The member's program accounts for its whole circuit, as compile(full)
    // would: every op it sees, and by the stream property the clone's final
    // stats are exactly a whole-circuit fusion's.
    auto program = std::make_unique<CpuCompiledProgram>();
    program->source_ops = full.num_ops();
    const std::span<const circuit::Operation> ops = std::span(full.ops());
    if (options_.fuse) {
      circuit::GateFusion scan = *p->scan;  // the per-member clone
      std::vector<circuit::FusedOp> tail;
      // Every op still pending at the frontier sits on its own wires.
      tail.reserve(full.num_ops() - prefix_ops + static_cast<std::size_t>(full.num_qubits()));
      for (const circuit::Operation& op : ops.subspan(prefix_ops)) scan.push(op, tail);
      scan.flush(tail);
      program->compiled = compile_fused(tail, ops, full.num_qubits(), options_, &scan.stats());
    } else {
      program->compiled = compile_ops(ops.subspan(prefix_ops), full.num_qubits(), options_);
    }
    return program;
  }

  [[nodiscard]] std::unique_ptr<DeviceState> create_state(int num_qubits) const override {
    return std::make_unique<CpuDeviceState>(num_qubits);
  }

  void copy_state(const DeviceState& src, DeviceState& dst) const override {
    const auto& s = checked_state(src);
    auto& d = checked_state(dst);
    QCUT_CHECK(s.num_qubits() == d.num_qubits(), "copy_state: states have different shapes");
    d.soa = s.soa;  // copy-assignment reuses the destination buffers
  }

  void apply(const CompiledProgram& program, DeviceState& state) const override {
    checked_program(program).compiled.apply(checked_state(state).soa);
  }

  void probabilities(const DeviceState& state, std::vector<double>& out) const override {
    checked_state(state).soa.probabilities_into(out);
  }

  [[nodiscard]] linalg::CVec amplitudes(const DeviceState& state) const override {
    const SoAState& soa = checked_state(state).soa;
    linalg::CVec out(soa.dim());
    for (index_t i = 0; i < soa.dim(); ++i) out[i] = soa.amplitude(i);
    return out;
  }

 private:
  static const CpuDeviceState& checked_state(const DeviceState& state) {
    const auto* s = dynamic_cast<const CpuDeviceState*>(&state);
    QCUT_CHECK(s != nullptr, "cpu device: state belongs to a different device");
    return *s;
  }

  static CpuDeviceState& checked_state(DeviceState& state) {
    auto* s = dynamic_cast<CpuDeviceState*>(&state);
    QCUT_CHECK(s != nullptr, "cpu device: state belongs to a different device");
    return *s;
  }

  EngineOptions options_;
  DeviceCaps caps_;
};

}  // namespace

std::unique_ptr<Device> make_cpu_device(const EngineOptions& options) {
  return std::make_unique<CpuDevice>(options);
}

const CompiledCircuit& cpu_compiled_circuit(const CompiledProgram& program) {
  return checked_program(program).compiled;
}

}  // namespace qcut::sim
