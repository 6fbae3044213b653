#pragma once
// Canonical content hashing for circuits and variant executions.
//
// The fragment-result cache and the cross-request variant deduplicator are
// keyed by a 128-bit content hash of everything that determines a variant's
// outcome distribution under the backend determinism contract. The service
// keys a variant without building its circuit: one stream per fragment
// covers the backend identity, the fragment's incoming and outgoing cut
// qubits, its width and its body (gate kinds, qubit wiring, parameter bit
// patterns, custom unitaries); each variant copies that stream and adds its
// prep and setting tuple indices, the shot count, exact/sampling mode and
// the seed stream (exact executions ignore shots and seed). Those are
// exactly what cutting::make_fragment_variant and the backend read, so two
// variants with equal keys are byte-identical executions and share one
// result, no matter which cut-run request produced them. Circuits are
// built only for the cache misses that launch.
//
// hash_variant_execution keys a built circuit instead; perfbench's replay,
// bench/micro_circuit and the committed-digest tests call it. Its keys are
// in a different format from the service's.
//
// The hash is a double-lane FNV-1a (not cryptographic): collisions are a
// correctness hazard only past ~2^64 cached entries, far beyond any
// realistic cache size.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "circuit/circuit.hpp"
#include "cutting/variants.hpp"

namespace qcut::service {

struct Hash128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Hash128&, const Hash128&) = default;

  /// 32 hex characters, hi then lo.
  [[nodiscard]] std::string to_string() const;
};

struct Hash128Hasher {
  [[nodiscard]] std::size_t operator()(const Hash128& h) const noexcept {
    return static_cast<std::size_t>(h.hi ^ (h.lo * 0x9E3779B97F4A7C15ull));
  }
};

/// Incremental double-lane FNV-1a hasher. Every write is length-prefixed at
/// the call sites that need framing (strings, vectors), so concatenation
/// ambiguities cannot alias two different inputs.
class HashStream {
 public:
  HashStream& write_bytes(const void* data, std::size_t size);
  HashStream& write_u64(std::uint64_t v);
  HashStream& write_i64(std::int64_t v) { return write_u64(static_cast<std::uint64_t>(v)); }
  /// Hashes the exact bit pattern (distinguishes -0.0 from 0.0, preserves
  /// NaN payloads): the cache promises bit-for-bit equal results, so the key
  /// must be exactly as strict.
  HashStream& write_double(double v);
  HashStream& write_string(std::string_view s);

  [[nodiscard]] Hash128 digest() const noexcept { return {hi_, lo_}; }

 private:
  std::uint64_t hi_ = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  std::uint64_t lo_ = 0x6c62272e07bb0142ull;  // high half of the FNV-128 basis
};

/// Appends a canonical encoding of `circuit` to the stream: width, op count,
/// and per op the gate kind, qubits, parameter bit patterns and (for Custom
/// ops) the unitary's entries. Display labels are ignored: they do not
/// affect execution.
void hash_circuit_into(HashStream& stream, const circuit::Circuit& circuit);

/// Content hash of a circuit alone.
[[nodiscard]] Hash128 hash_circuit(const circuit::Circuit& circuit);

/// Content hash of one built variant circuit's execution. Exact executions
/// ignore shots and the seed stream.
[[nodiscard]] Hash128 hash_variant_execution(const circuit::Circuit& variant_circuit,
                                             std::size_t shots, bool exact,
                                             std::uint64_t seed_stream,
                                             std::string_view backend_identity);

/// The part every cache key of `fragment`'s variants shares: the backend
/// identity, the length-prefixed in_qubits and out_cut_qubits, the
/// fragment's width, and its body. Hash it once per fragment and finish
/// each variant's key with fragment_variant_key.
[[nodiscard]] HashStream fragment_key_stream(const cutting::ChainFragment& fragment,
                                             std::string_view backend_identity);

/// Cache/dedup key of one variant execution: `fragment_stream` (a copy of
/// fragment_key_stream's) plus the prep and setting tuple indices and the
/// run fields. Exact executions ignore shots and the seed stream.
[[nodiscard]] Hash128 fragment_variant_key(HashStream fragment_stream,
                                           cutting::FragmentVariantKey variant, std::size_t shots,
                                           bool exact, std::uint64_t seed_stream);

}  // namespace qcut::service
