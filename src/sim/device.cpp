#include "sim/device.hpp"

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
  /// Representation follows the device's dispatch: SoA split re/im when the
  /// SIMD kernels are active (their native layout), interleaved StateVector
  /// otherwise. Both are exact containers; the choice never affects values.
  CpuDeviceState(int num_qubits, bool soa)
      : sv_(soa ? 1 : num_qubits), soa_(soa ? num_qubits : 1), is_soa_(soa) {}

  [[nodiscard]] int num_qubits() const noexcept override {
    return is_soa_ ? soa_.num_qubits() : sv_.num_qubits();
  }
  [[nodiscard]] index_t dim() const noexcept override {
    return is_soa_ ? soa_.dim() : sv_.dim();
  }

  StateVector sv_;
  SoAState soa_;
  bool is_soa_ = false;
};

class CpuCompiledProgram final : public CompiledProgram {
 public:
  [[nodiscard]] int num_qubits() const noexcept override { return compiled.num_qubits(); }

  [[nodiscard]] ProgramSummary summary() const override {
    ProgramSummary s;
    s.source_ops = source_ops;
    s.compiled_ops = compiled.num_ops();
    for (const CompiledOp& op : compiled.compiled_ops()) {
      ++s.class_counts[static_cast<std::size_t>(op.cls)];
    }
    const circuit::FusionStats& fs = compiled.fusion_stats();
    s.fused_absorbed = fs.merged_1q_gates + fs.folded_1q_gates + fs.merged_2q_gates;
    for (const CompiledCircuit::Segment& seg : compiled.segments()) {
      if (seg.blocked) s.blocked_ops += seg.end - seg.begin;
    }
    s.isa = compiled.isa();
    return s;
  }

  CompiledCircuit compiled;
  std::size_t source_ops = 0;
  // Prefix programs remember their fusion frontier so compile_suffix can
  // clone it per member (the GateFusion stream property).
  bool is_prefix = false;
  std::size_t prefix_ops = 0;
  circuit::GateFusion scan{1};
};

class CpuDevice final : public Device {
 public:
  explicit CpuDevice(EngineOptions options) : options_(options) {
    caps_.name = "cpu";
    caps_.isa = options_.simd ? simd::best_isa() : IsaLevel::Scalar;
  }

  [[nodiscard]] const DeviceCaps& caps() const noexcept override { return caps_; }

  [[nodiscard]] std::string identity_token() const override {
    std::string token = options_.fuse ? "+fusion" : "";
    // The dispatched ISA, not just the flag: AVX2 and AVX-512 tiers place
    // different runs in the scalar tail (uncontracted rounding), so equal
    // tokens require equal dispatch.
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
    const EngineOptions& engine = options_;
    auto program = std::make_unique<CpuCompiledProgram>();
    program->source_ops = prefix_ops;
    program->is_prefix = true;
    program->prefix_ops = prefix_ops;
    if (engine.fuse) {
      // Only the settled operations are compiled (and later applied) before
      // a fork; the scan state rides along for compile_suffix to clone.
      circuit::GateFusion scan(rep.num_qubits());
      std::vector<circuit::Operation> settled;
      for (std::size_t i = 0; i < prefix_ops; ++i) scan.push(rep.op(i), settled);
      program->compiled = compile_ops(settled, rep.num_qubits(), engine);
      program->scan = std::move(scan);
    } else {
      program->compiled =
          compile_ops(std::span(rep.ops()).first(prefix_ops), rep.num_qubits(), engine);
    }
    return program;
  }

  [[nodiscard]] std::unique_ptr<CompiledProgram> compile_suffix(
      const CompiledProgram& prefix, const circuit::Circuit& full) const override {
    const auto& p = checked_program(prefix);
    QCUT_CHECK(p.is_prefix, "compile_suffix: program was not built by compile_prefix");
    QCUT_CHECK(p.prefix_ops <= full.num_ops(),
               "compile_suffix: circuit shorter than the compiled prefix");
    const EngineOptions& engine = options_;
    auto program = std::make_unique<CpuCompiledProgram>();
    program->source_ops = full.num_ops() - p.prefix_ops;
    if (engine.fuse) {
      circuit::GateFusion scan = p.scan;  // the per-member clone
      std::vector<circuit::Operation> tail;
      for (std::size_t i = p.prefix_ops; i < full.num_ops(); ++i) scan.push(full.op(i), tail);
      scan.flush(tail);
      program->compiled = compile_ops(tail, full.num_qubits(), engine);
    } else {
      program->compiled = compile_ops(std::span(full.ops()).subspan(p.prefix_ops),
                                      full.num_qubits(), engine);
    }
    return program;
  }

  [[nodiscard]] std::unique_ptr<DeviceState> create_state(int num_qubits) const override {
    return std::make_unique<CpuDeviceState>(num_qubits, caps_.isa != IsaLevel::Scalar);
  }

  void copy_state(const DeviceState& src, DeviceState& dst) const override {
    const auto& s = checked_state(src);
    auto& d = checked_state(dst);
    QCUT_CHECK(s.is_soa_ == d.is_soa_ && s.num_qubits() == d.num_qubits(),
               "copy_state: states have different shapes");
    if (s.is_soa_) {
      d.soa_ = s.soa_;
    } else {
      d.sv_ = s.sv_;  // copy-assignment reuses the destination buffer
    }
  }

  void apply(const CompiledProgram& program, DeviceState& state) const override {
    const auto& p = checked_program(program);
    auto& s = checked_state(state);
    if (s.is_soa_) {
      p.compiled.apply(s.soa_);
    } else {
      p.compiled.apply(s.sv_);
    }
  }

  void probabilities(const DeviceState& state, std::vector<double>& out) const override {
    const auto& s = checked_state(state);
    if (s.is_soa_) {
      s.soa_.probabilities_into(out);
    } else {
      s.sv_.probabilities_into(out);
    }
  }

  [[nodiscard]] linalg::CVec amplitudes(const DeviceState& state) const override {
    const auto& s = checked_state(state);
    if (!s.is_soa_) return s.sv_.amplitudes();
    linalg::CVec out(s.soa_.dim());
    for (index_t i = 0; i < s.soa_.dim(); ++i) out[i] = s.soa_.amplitude(i);
    return out;
  }

 private:
  static const CpuCompiledProgram& checked_program(const CompiledProgram& program) {
    const auto* p = dynamic_cast<const CpuCompiledProgram*>(&program);
    QCUT_CHECK(p != nullptr, "cpu device: program was compiled by a different device");
    return *p;
  }

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

}  // namespace qcut::sim
