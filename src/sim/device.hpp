#pragma once
// Device-agnostic compiled-circuit execution interface.
//
// The gate-kernel engine (sim/engine.hpp) is one implementation of a more
// general compile-then-apply contract shaped after GPU statevector APIs
// (cuStateVec and friends): a Device compiles circuits into opaque
// CompiledPrograms, owns opaque DeviceStates, and applies programs to
// states. Layers above the simulator — backends, the cutting pipeline, the
// cut service — talk to this interface only, so an accelerator device can
// slot in without touching them:
//
//   auto device = sim::make_cpu_device(engine_options);
//   auto program = device->compile(circuit);
//   auto state = device->create_state(circuit.num_qubits());
//   device->apply(*program, *state);
//   device->probabilities(*state, probs);
//
// Determinism contract: a Device's identity_token() must encode every
// result-affecting configuration (gate fusion, the dispatched SIMD
// ISA); two devices with equal caps().name and identity_token() return
// bit-for-bit equal results for every program/state sequence. Knobs that
// are bit-for-bit neutral (specialization, threading, cache blocking) must
// NOT appear in the token.

#include <array>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "sim/engine.hpp"

namespace qcut::sim {

/// Static capabilities of a device, queryable before any compilation.
struct DeviceCaps {
  std::string name;  // "cpu"
  /// ISA the SIMD path would dispatch to (Scalar when the device was built
  /// without SIMD, the host lacks AVX2, or EngineOptions::simd is off).
  IsaLevel isa = IsaLevel::Scalar;
};

/// Compile-time profile of a program: what the op stream became. A
/// compile_suffix program describes its member's whole circuit, as
/// compile(full) would (source_ops, fused_absorbed); a compile_prefix
/// program records its prefix's ops and no fusion.
struct ProgramSummary {
  std::size_t source_ops = 0;    // ops entering the compile (pre-fusion)
  std::size_t compiled_ops = 0;  // ops after fusion + classification
  std::array<std::size_t, 6> class_counts{};  // indexed by KernelClass
  std::size_t fused_absorbed = 0;  // source gates absorbed by fusion
  std::size_t blocked_ops = 0;     // compiled ops inside cache-blocked segments
  IsaLevel isa = IsaLevel::Scalar;

  /// Fraction of source ops fusion absorbed (0 when fusion is off).
  [[nodiscard]] double fused_fraction() const noexcept {
    return source_ops == 0 ? 0.0
                           : static_cast<double>(fused_absorbed) /
                                 static_cast<double>(source_ops);
  }

  /// One-line human-readable rendering (examples/quickstart prints this).
  [[nodiscard]] std::string to_string() const;
};

/// Opaque device-resident statevector, created and manipulated only through
/// its owning Device. Always initialized to |0...0>.
class DeviceState {
 public:
  virtual ~DeviceState() = default;
  [[nodiscard]] virtual int num_qubits() const noexcept = 0;
  [[nodiscard]] virtual index_t dim() const noexcept = 0;
};

/// Opaque compiled circuit, immutable and safe to apply concurrently to
/// distinct states of the same width.
class CompiledProgram {
 public:
  virtual ~CompiledProgram() = default;
  [[nodiscard]] virtual int num_qubits() const noexcept = 0;
  [[nodiscard]] virtual ProgramSummary summary() const = 0;
};

class Device {
 public:
  virtual ~Device() = default;

  [[nodiscard]] virtual const DeviceCaps& caps() const noexcept = 0;

  /// Every result-affecting device configuration, rendered as a token a
  /// backend appends to its cache identity ("" when the device is bit-exact
  /// with the generic reference; "+fusion", "+simd(avx2)" otherwise).
  [[nodiscard]] virtual std::string identity_token() const = 0;

  /// Compiles a whole circuit (fusion + classification as configured).
  [[nodiscard]] virtual std::unique_ptr<CompiledProgram> compile(
      const circuit::Circuit& circuit) const = 0;

  /// Compiles the first `prefix_ops` operations of `rep` into a program that
  /// remembers its fusion frontier, so compile_suffix can continue it.
  [[nodiscard]] virtual std::unique_ptr<CompiledProgram> compile_prefix(
      const circuit::Circuit& rep, std::size_t prefix_ops) const = 0;

  /// Compiles the remainder of `full` after a compile_prefix of its first
  /// ops. The guarantee mirrors circuit::GateFusion's stream property:
  /// apply(prefix) then apply(suffix) is bit-for-bit identical to applying
  /// compile(full).
  [[nodiscard]] virtual std::unique_ptr<CompiledProgram> compile_suffix(
      const CompiledProgram& prefix, const circuit::Circuit& full) const = 0;

  /// Fresh |0...0> state of the given width.
  [[nodiscard]] virtual std::unique_ptr<DeviceState> create_state(int num_qubits) const = 0;

  /// Overwrites `dst` with `src` (exact; both from this device, same width).
  virtual void copy_state(const DeviceState& src, DeviceState& dst) const = 0;

  /// Applies every compiled operation in order.
  virtual void apply(const CompiledProgram& program, DeviceState& state) const = 0;

  /// Measurement distribution of `state` (|amp|^2, resized to dim()).
  virtual void probabilities(const DeviceState& state, std::vector<double>& out) const = 0;

  /// Dense amplitude readback (row-major basis order).
  [[nodiscard]] virtual linalg::CVec amplitudes(const DeviceState& state) const = 0;
};

/// CPU device over the gate-kernel engine. `options` fixes the
/// result-affecting configuration (fusion, SIMD) and the execution defaults
/// (threading, cache blocking) for every program the device compiles.
[[nodiscard]] std::unique_ptr<Device> make_cpu_device(const EngineOptions& options = {});

/// The engine circuit behind a program a CPU device compiled: its
/// classified ops and segment plan. Throws if another device compiled it.
[[nodiscard]] const CompiledCircuit& cpu_compiled_circuit(const CompiledProgram& program);

}  // namespace qcut::sim
