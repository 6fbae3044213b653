#include "service/circuit_hash.hpp"

#include <bit>
#include <cstring>
#include <vector>

namespace qcut::service {

namespace {
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;
}  // namespace

std::string Hash128::to_string() const {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    out[15 - i] = kHex[(hi >> (4 * i)) & 0xF];
    out[31 - i] = kHex[(lo >> (4 * i)) & 0xF];
  }
  return out;
}

HashStream& HashStream::write_bytes(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hi_ = (hi_ ^ bytes[i]) * kFnvPrime;
    // Second lane: same FNV-1a step over the byte rotated by the running
    // first-lane state, so the lanes decorrelate.
    lo_ = (lo_ ^ (bytes[i] + (hi_ >> 56))) * kFnvPrime;
  }
  return *this;
}

HashStream& HashStream::write_u64(std::uint64_t v) {
  unsigned char bytes[8];
  std::memcpy(bytes, &v, sizeof(v));
  return write_bytes(bytes, sizeof(bytes));
}

HashStream& HashStream::write_double(double v) {
  return write_u64(std::bit_cast<std::uint64_t>(v));
}

HashStream& HashStream::write_string(std::string_view s) {
  write_u64(s.size());
  return write_bytes(s.data(), s.size());
}

void hash_circuit_into(HashStream& stream, const circuit::Circuit& circuit) {
  stream.write_i64(circuit.num_qubits());
  stream.write_u64(circuit.num_ops());
  for (const circuit::Operation& op : circuit.ops()) {
    stream.write_i64(static_cast<std::int64_t>(op.kind));
    stream.write_u64(op.qubits.size());
    for (int q : op.qubits) stream.write_i64(q);
    stream.write_u64(op.params.size());
    for (double p : op.params) stream.write_double(p);
    if (op.kind == circuit::GateKind::Custom) {
      stream.write_u64(op.custom.rows());
      stream.write_u64(op.custom.cols());
      for (std::size_t r = 0; r < op.custom.rows(); ++r) {
        for (std::size_t c = 0; c < op.custom.cols(); ++c) {
          stream.write_double(op.custom(r, c).real());
          stream.write_double(op.custom(r, c).imag());
        }
      }
    }
  }
}

Hash128 hash_circuit(const circuit::Circuit& circuit) {
  HashStream stream;
  hash_circuit_into(stream, circuit);
  return stream.digest();
}

Hash128 hash_variant_execution(const circuit::Circuit& variant_circuit, std::size_t shots,
                               bool exact, std::uint64_t seed_stream,
                               std::string_view backend_identity) {
  HashStream stream;
  hash_circuit_into(stream, variant_circuit);
  stream.write_u64(exact ? 0 : shots);
  stream.write_u64(exact ? 1 : 0);
  stream.write_u64(exact ? 0 : seed_stream);
  stream.write_string(backend_identity);
  return stream.digest();
}

HashStream fragment_key_stream(const cutting::ChainFragment& fragment,
                               std::string_view backend_identity) {
  HashStream stream;
  stream.write_string(backend_identity);
  for (const std::vector<int>* qubits : {&fragment.in_qubits, &fragment.out_cut_qubits}) {
    stream.write_u64(qubits->size());
    for (int q : *qubits) stream.write_i64(q);
  }
  // The variant is built on width() qubits; Circuit::compose accepts a
  // narrower body, so the body's own width does not pin it.
  stream.write_i64(fragment.width());
  hash_circuit_into(stream, fragment.circuit);
  return stream;
}

Hash128 fragment_variant_key(HashStream fragment_stream, cutting::FragmentVariantKey variant,
                             std::size_t shots, bool exact, std::uint64_t seed_stream) {
  fragment_stream.write_u64(variant.prep_index);
  fragment_stream.write_u64(variant.setting_index);
  fragment_stream.write_u64(exact ? 0 : shots);
  fragment_stream.write_u64(exact ? 1 : 0);
  fragment_stream.write_u64(exact ? 0 : seed_stream);
  return fragment_stream.digest();
}

}  // namespace qcut::service
