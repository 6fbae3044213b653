#include "circuit/qasm.hpp"

#include <cstdio>
#include <cstdlib>
#include <numbers>
#include <sstream>

#include "common/error.hpp"

namespace qcut::circuit {

namespace {

constexpr double kHalfPi = std::numbers::pi / 2.0;

Operation make_op(GateKind kind, std::vector<int> qubits, std::vector<double> params = {}) {
  Operation op;
  op.kind = kind;
  op.qubits = std::move(qubits);
  op.params = std::move(params);
  return op;
}

std::string format_param(double value) {
  // Shortest representation that round-trips exactly.
  char buffer[40];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) break;
  }
  return buffer;
}

/// The qelib1 statement for a directly-representable operation.
std::string qasm_statement(const Operation& op) {
  const auto q = [&](int slot) {
    return "q[" + std::to_string(op.qubits[static_cast<std::size_t>(slot)]) + "]";
  };
  const auto params = [&]() {
    std::string out = "(";
    for (std::size_t i = 0; i < op.params.size(); ++i) {
      if (i > 0) out += ",";
      out += format_param(op.params[i]);
    }
    return out + ")";
  };

  switch (op.kind) {
    case GateKind::I: return "id " + q(0) + ";";
    case GateKind::X: return "x " + q(0) + ";";
    case GateKind::Y: return "y " + q(0) + ";";
    case GateKind::Z: return "z " + q(0) + ";";
    case GateKind::H: return "h " + q(0) + ";";
    case GateKind::S: return "s " + q(0) + ";";
    case GateKind::Sdg: return "sdg " + q(0) + ";";
    case GateKind::T: return "t " + q(0) + ";";
    case GateKind::Tdg: return "tdg " + q(0) + ";";
    case GateKind::RX: return "rx" + params() + " " + q(0) + ";";
    case GateKind::RY: return "ry" + params() + " " + q(0) + ";";
    case GateKind::RZ: return "rz" + params() + " " + q(0) + ";";
    case GateKind::P: return "u1" + params() + " " + q(0) + ";";
    case GateKind::U: return "u3" + params() + " " + q(0) + ";";
    case GateKind::CX: return "cx " + q(0) + "," + q(1) + ";";
    case GateKind::CY: return "cy " + q(0) + "," + q(1) + ";";
    case GateKind::CZ: return "cz " + q(0) + "," + q(1) + ";";
    case GateKind::CH: return "ch " + q(0) + "," + q(1) + ";";
    case GateKind::SWAP: return "swap " + q(0) + "," + q(1) + ";";
    case GateKind::CRZ: return "crz" + params() + " " + q(0) + "," + q(1) + ";";
    case GateKind::CP: return "cu1" + params() + " " + q(0) + "," + q(1) + ";";
    case GateKind::CRX:
      // CRX(theta) == CU3(theta, -pi/2, pi/2)
      return "cu3(" + format_param(op.params[0]) + "," + format_param(-kHalfPi) + "," +
             format_param(kHalfPi) + ") " + q(0) + "," + q(1) + ";";
    case GateKind::CRY:
      return "cu3(" + format_param(op.params[0]) + ",0,0) " + q(0) + "," + q(1) + ";";
    case GateKind::CCX: return "ccx " + q(0) + "," + q(1) + "," + q(2) + ";";
    default:
      break;
  }
  QCUT_CHECK(false, "qasm_statement: gate " + gate_name(op.kind) +
                        " must be decomposed before export");
}

}  // namespace

std::vector<Operation> decompose_for_qasm(const Operation& op) {
  QCUT_CHECK(op.kind != GateKind::Custom,
             "decompose_for_qasm: Custom matrix gates cannot be exported to QASM");
  const QubitList& qs = op.qubits;
  switch (op.kind) {
    case GateKind::SX:
      // SX == e^{i pi/4} RX(pi/2)
      return {make_op(GateKind::RX, {qs[0]}, {kHalfPi})};
    case GateKind::SXdg:
      return {make_op(GateKind::RX, {qs[0]}, {-kHalfPi})};
    case GateKind::ISwap:
      // iSWAP = SWAP * (S x S) * CZ (exact, no phase).
      return {make_op(GateKind::CZ, {qs[0], qs[1]}), make_op(GateKind::S, {qs[0]}),
              make_op(GateKind::S, {qs[1]}), make_op(GateKind::SWAP, {qs[0], qs[1]})};
    case GateKind::RZZ:
      return {make_op(GateKind::CX, {qs[0], qs[1]}),
              make_op(GateKind::RZ, {qs[1]}, {op.params[0]}),
              make_op(GateKind::CX, {qs[0], qs[1]})};
    case GateKind::RXX:
      return {make_op(GateKind::H, {qs[0]}),
              make_op(GateKind::H, {qs[1]}),
              make_op(GateKind::CX, {qs[0], qs[1]}),
              make_op(GateKind::RZ, {qs[1]}, {op.params[0]}),
              make_op(GateKind::CX, {qs[0], qs[1]}),
              make_op(GateKind::H, {qs[0]}),
              make_op(GateKind::H, {qs[1]})};
    case GateKind::RYY:
      return {make_op(GateKind::RX, {qs[0]}, {kHalfPi}),
              make_op(GateKind::RX, {qs[1]}, {kHalfPi}),
              make_op(GateKind::CX, {qs[0], qs[1]}),
              make_op(GateKind::RZ, {qs[1]}, {op.params[0]}),
              make_op(GateKind::CX, {qs[0], qs[1]}),
              make_op(GateKind::RX, {qs[0]}, {-kHalfPi}),
              make_op(GateKind::RX, {qs[1]}, {-kHalfPi})};
    case GateKind::CSWAP:
      // Fredkin via Toffoli: cswap(c,a,b) = cx(b,a) ccx(c,a,b) cx(b,a).
      return {make_op(GateKind::CX, {qs[2], qs[1]}),
              make_op(GateKind::CCX, {qs[0], qs[1], qs[2]}),
              make_op(GateKind::CX, {qs[2], qs[1]})};
    default:
      return {op};
  }
}

std::string to_qasm(const Circuit& circuit, bool measure_all) {
  std::ostringstream oss;
  oss << "OPENQASM 2.0;\n";
  oss << "include \"qelib1.inc\";\n";
  oss << "qreg q[" << circuit.num_qubits() << "];\n";
  if (measure_all) {
    oss << "creg c[" << circuit.num_qubits() << "];\n";
  }
  for (const Operation& op : circuit.ops()) {
    for (const Operation& piece : decompose_for_qasm(op)) {
      oss << qasm_statement(piece) << '\n';
    }
  }
  if (measure_all) {
    for (int q = 0; q < circuit.num_qubits(); ++q) {
      oss << "measure q[" << q << "] -> c[" << q << "];\n";
    }
  }
  return oss.str();
}

}  // namespace qcut::circuit
