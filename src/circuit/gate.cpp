#include "circuit/gate.hpp"

#include <cmath>
#include <numbers>
#include <string>

#include "common/error.hpp"

namespace qcut::circuit {

namespace {

constexpr cx kI{0.0, 1.0};

Mat2 mat_1q(cx a, cx b, cx c, cx d) {
  Mat2 m;
  m(0, 0) = a;
  m(0, 1) = b;
  m(1, 0) = c;
  m(1, 1) = d;
  return m;
}

/// 4x4 matrix applying `u` to the target (bit 1) when the control (bit 0)
/// is 1. Index = target*2 + control.
Mat4 controlled_1q(const Mat2& u) {
  Mat4 m = Mat4::identity();
  m(1, 1) = u(0, 0);
  m(1, 3) = u(0, 1);
  m(3, 1) = u(1, 0);
  m(3, 3) = u(1, 1);
  return m;
}

void check_params(GateKind kind, std::span<const double> params) {
  QCUT_CHECK(kind != GateKind::Custom, "gate_matrix: Custom gates carry their own matrix");
  QCUT_CHECK(static_cast<int>(params.size()) == gate_num_params(kind),
             "gate_matrix: wrong number of parameters for " + gate_name(kind));
}

[[noreturn]] void wrong_arity(GateKind kind, int num_qubits) {
  QCUT_CHECK(false, "gate_matrix: " + gate_name(kind) + " is not a " +
                        std::to_string(num_qubits) + "-qubit gate");
}

}  // namespace

std::string gate_name(GateKind kind) {
  switch (kind) {
    case GateKind::I: return "id";
    case GateKind::X: return "x";
    case GateKind::Y: return "y";
    case GateKind::Z: return "z";
    case GateKind::H: return "h";
    case GateKind::S: return "s";
    case GateKind::Sdg: return "sdg";
    case GateKind::T: return "t";
    case GateKind::Tdg: return "tdg";
    case GateKind::SX: return "sx";
    case GateKind::SXdg: return "sxdg";
    case GateKind::RX: return "rx";
    case GateKind::RY: return "ry";
    case GateKind::RZ: return "rz";
    case GateKind::P: return "p";
    case GateKind::U: return "u";
    case GateKind::CX: return "cx";
    case GateKind::CY: return "cy";
    case GateKind::CZ: return "cz";
    case GateKind::CH: return "ch";
    case GateKind::SWAP: return "swap";
    case GateKind::ISwap: return "iswap";
    case GateKind::CRX: return "crx";
    case GateKind::CRY: return "cry";
    case GateKind::CRZ: return "crz";
    case GateKind::CP: return "cp";
    case GateKind::RXX: return "rxx";
    case GateKind::RYY: return "ryy";
    case GateKind::RZZ: return "rzz";
    case GateKind::CCX: return "ccx";
    case GateKind::CSWAP: return "cswap";
    case GateKind::Custom: return "unitary";
  }
  QCUT_CHECK(false, "gate_name: invalid kind");
}

int gate_num_qubits(GateKind kind) {
  switch (kind) {
    case GateKind::I:
    case GateKind::X:
    case GateKind::Y:
    case GateKind::Z:
    case GateKind::H:
    case GateKind::S:
    case GateKind::Sdg:
    case GateKind::T:
    case GateKind::Tdg:
    case GateKind::SX:
    case GateKind::SXdg:
    case GateKind::RX:
    case GateKind::RY:
    case GateKind::RZ:
    case GateKind::P:
    case GateKind::U:
      return 1;
    case GateKind::CX:
    case GateKind::CY:
    case GateKind::CZ:
    case GateKind::CH:
    case GateKind::SWAP:
    case GateKind::ISwap:
    case GateKind::CRX:
    case GateKind::CRY:
    case GateKind::CRZ:
    case GateKind::CP:
    case GateKind::RXX:
    case GateKind::RYY:
    case GateKind::RZZ:
      return 2;
    case GateKind::CCX:
    case GateKind::CSWAP:
      return 3;
    case GateKind::Custom:
      break;
  }
  QCUT_CHECK(false, "gate_num_qubits: Custom gates carry their own arity");
}

int gate_num_params(GateKind kind) {
  switch (kind) {
    case GateKind::RX:
    case GateKind::RY:
    case GateKind::RZ:
    case GateKind::P:
    case GateKind::CRX:
    case GateKind::CRY:
    case GateKind::CRZ:
    case GateKind::CP:
    case GateKind::RXX:
    case GateKind::RYY:
    case GateKind::RZZ:
      return 1;
    case GateKind::U:
      return 3;
    default:
      return 0;
  }
}

CMat gate_matrix(GateKind kind, std::span<const double> params) {
  check_params(kind, params);
  switch (gate_num_qubits(kind)) {
    case 1: return CMat(gate_matrix_1q(kind, params).view());
    case 2: return CMat(gate_matrix_2q(kind, params).view());
    default: return CMat(gate_matrix_3q(kind).view());
  }
}

Mat2 gate_matrix_1q(GateKind kind, std::span<const double> params) {
  check_params(kind, params);
  const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
  switch (kind) {
    case GateKind::I:
      return Mat2::identity();
    case GateKind::X:
      return mat_1q(0, 1, 1, 0);
    case GateKind::Y:
      return mat_1q(0, -kI, kI, 0);
    case GateKind::Z:
      return mat_1q(1, 0, 0, -1);
    case GateKind::H:
      return mat_1q(inv_sqrt2, inv_sqrt2, inv_sqrt2, -inv_sqrt2);
    case GateKind::S:
      return mat_1q(1, 0, 0, kI);
    case GateKind::Sdg:
      return mat_1q(1, 0, 0, -kI);
    case GateKind::T:
      return mat_1q(1, 0, 0, std::polar(1.0, std::numbers::pi / 4));
    case GateKind::Tdg:
      return mat_1q(1, 0, 0, std::polar(1.0, -std::numbers::pi / 4));
    case GateKind::SX:
      return mat_1q(cx{0.5, 0.5}, cx{0.5, -0.5}, cx{0.5, -0.5}, cx{0.5, 0.5});
    case GateKind::SXdg:
      return mat_1q(cx{0.5, -0.5}, cx{0.5, 0.5}, cx{0.5, 0.5}, cx{0.5, -0.5});
    case GateKind::RX: {
      const double c = std::cos(params[0] / 2), s = std::sin(params[0] / 2);
      return mat_1q(c, -kI * s, -kI * s, c);
    }
    case GateKind::RY: {
      const double c = std::cos(params[0] / 2), s = std::sin(params[0] / 2);
      return mat_1q(c, -s, s, c);
    }
    case GateKind::RZ: {
      const cx e_minus = std::polar(1.0, -params[0] / 2);
      const cx e_plus = std::polar(1.0, params[0] / 2);
      return mat_1q(e_minus, 0, 0, e_plus);
    }
    case GateKind::P:
      return mat_1q(1, 0, 0, std::polar(1.0, params[0]));
    case GateKind::U: {
      const double theta = params[0], phi = params[1], lambda = params[2];
      const double c = std::cos(theta / 2), s = std::sin(theta / 2);
      // r e^{ia} spelled out: std::polar leaves a negative magnitude
      // undefined, and c or s is negative for half of all theta. This is
      // the formula libstdc++'s polar evaluates, so every entry keeps its bits.
      const auto phasor = [](double r, double a) { return cx{r * std::cos(a), r * std::sin(a)}; };
      return mat_1q(c, -phasor(s, lambda), phasor(s, phi), phasor(c, phi + lambda));
    }
    default:
      wrong_arity(kind, 1);
  }
}

Mat4 gate_matrix_2q(GateKind kind, std::span<const double> params) {
  check_params(kind, params);
  switch (kind) {
    case GateKind::CX:
      return controlled_1q(gate_matrix_1q(GateKind::X, {}));
    case GateKind::CY:
      return controlled_1q(gate_matrix_1q(GateKind::Y, {}));
    case GateKind::CZ:
      return controlled_1q(gate_matrix_1q(GateKind::Z, {}));
    case GateKind::CH:
      return controlled_1q(gate_matrix_1q(GateKind::H, {}));
    case GateKind::SWAP: {
      Mat4 m;
      m(0, 0) = 1;
      m(1, 2) = 1;
      m(2, 1) = 1;
      m(3, 3) = 1;
      return m;
    }
    case GateKind::ISwap: {
      Mat4 m;
      m(0, 0) = 1;
      m(1, 2) = kI;
      m(2, 1) = kI;
      m(3, 3) = 1;
      return m;
    }
    case GateKind::CRX:
      return controlled_1q(gate_matrix_1q(GateKind::RX, params));
    case GateKind::CRY:
      return controlled_1q(gate_matrix_1q(GateKind::RY, params));
    case GateKind::CRZ:
      return controlled_1q(gate_matrix_1q(GateKind::RZ, params));
    case GateKind::CP:
      return controlled_1q(gate_matrix_1q(GateKind::P, params));
    case GateKind::RXX: {
      const double c = std::cos(params[0] / 2), s = std::sin(params[0] / 2);
      Mat4 m;
      m(0, 0) = c;
      m(0, 3) = -kI * s;
      m(1, 1) = c;
      m(1, 2) = -kI * s;
      m(2, 2) = c;
      m(2, 1) = -kI * s;
      m(3, 3) = c;
      m(3, 0) = -kI * s;
      return m;
    }
    case GateKind::RYY: {
      const double c = std::cos(params[0] / 2), s = std::sin(params[0] / 2);
      Mat4 m;
      m(0, 0) = c;
      m(0, 3) = kI * s;
      m(1, 1) = c;
      m(1, 2) = -kI * s;
      m(2, 2) = c;
      m(2, 1) = -kI * s;
      m(3, 3) = c;
      m(3, 0) = kI * s;
      return m;
    }
    case GateKind::RZZ: {
      const cx e_minus = std::polar(1.0, -params[0] / 2);
      const cx e_plus = std::polar(1.0, params[0] / 2);
      Mat4 m;
      m(0, 0) = e_minus;
      m(1, 1) = e_plus;
      m(2, 2) = e_plus;
      m(3, 3) = e_minus;
      return m;
    }
    default:
      wrong_arity(kind, 2);
  }
}

Mat8 gate_matrix_3q(GateKind kind) {
  check_params(kind, {});
  switch (kind) {
    case GateKind::CCX: {
      // Controls are bits 0 and 1, target is bit 2.
      Mat8 m = Mat8::identity();
      m(3, 3) = 0;
      m(3, 7) = 1;
      m(7, 7) = 0;
      m(7, 3) = 1;
      return m;
    }
    case GateKind::CSWAP: {
      // Control is bit 0; bits 1 and 2 are swapped when it is set.
      Mat8 m = Mat8::identity();
      m(3, 3) = 0;
      m(3, 5) = 1;
      m(5, 5) = 0;
      m(5, 3) = 1;
      return m;
    }
    default:
      wrong_arity(kind, 3);
  }
}

bool gate_inverse(GateKind kind, std::span<const double> params, GateInverse& out) {
  switch (kind) {
    // Self-inverse gates.
    case GateKind::I:
    case GateKind::X:
    case GateKind::Y:
    case GateKind::Z:
    case GateKind::H:
    case GateKind::CX:
    case GateKind::CY:
    case GateKind::CZ:
    case GateKind::CH:
    case GateKind::SWAP:
    case GateKind::CCX:
    case GateKind::CSWAP:
      out = {kind, ParamList(params)};
      return true;
    case GateKind::S:
      out = {GateKind::Sdg, {}};
      return true;
    case GateKind::Sdg:
      out = {GateKind::S, {}};
      return true;
    case GateKind::T:
      out = {GateKind::Tdg, {}};
      return true;
    case GateKind::Tdg:
      out = {GateKind::T, {}};
      return true;
    case GateKind::SX:
      out = {GateKind::SXdg, {}};
      return true;
    case GateKind::SXdg:
      out = {GateKind::SX, {}};
      return true;
    // Rotation gates invert by negating the angle.
    case GateKind::RX:
    case GateKind::RY:
    case GateKind::RZ:
    case GateKind::P:
    case GateKind::CRX:
    case GateKind::CRY:
    case GateKind::CRZ:
    case GateKind::CP:
    case GateKind::RXX:
    case GateKind::RYY:
    case GateKind::RZZ:
      out = {kind, {-params[0]}};
      return true;
    case GateKind::U:
      out = {GateKind::U, {-params[0], -params[2], -params[1]}};
      return true;
    case GateKind::ISwap:
    case GateKind::Custom:
      return false;
  }
  return false;
}

}  // namespace qcut::circuit
