#pragma once
// InlineList: the qubit and parameter lists of a circuit::Operation, and
// the kernel tables of a compiled op (sim/engine.hpp).
//
// Every named gate acts on at most 3 qubits and takes at most 3 parameters,
// so a list keeps up to N values inside the object and building, copying or
// destroying an op allocates nothing; only longer lists (Custom blocks on
// more than N qubits) own a heap block. A list's length is fixed when it is
// built, since no op grows its lists in place, but its elements can be
// overwritten (remapping qubits does). Otherwise it reads like std::vector:
// contiguous iterators, conversion to std::span, == and a lexicographic <
// that orders exactly as std::vector's does.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <type_traits>
#include <vector>

namespace qcut::circuit {

template <typename T, std::size_t N>
class InlineList {
  static_assert(std::is_trivially_copyable_v<T>, "InlineList copies elements as plain values");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  InlineList() noexcept = default;
  InlineList(std::initializer_list<T> values) : InlineList(values.begin(), values.size()) {}
  // Implicit, so a std::vector can be passed wherever a list is expected.
  InlineList(const std::vector<T>& values) : InlineList(values.data(), values.size()) {}
  explicit InlineList(std::span<const T> values) : InlineList(values.data(), values.size()) {}
  /// `count` value-initialized elements, to be overwritten.
  explicit InlineList(std::size_t count) : size_(static_cast<std::uint32_t>(count)) {
    if (on_heap()) heap_ = new T[count]();
  }
  InlineList(const InlineList& other) : InlineList(other.data(), other.size()) {}
  InlineList(InlineList&& other) noexcept { take(other); }

  InlineList& operator=(const InlineList& other) {
    if (this != &other) *this = InlineList(other);
    return *this;
  }
  InlineList& operator=(InlineList&& other) noexcept {
    if (this != &other) {
      release();
      take(other);
    }
    return *this;
  }

  ~InlineList() { release(); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] T* data() noexcept { return on_heap() ? heap_ : inline_; }
  [[nodiscard]] const T* data() const noexcept { return on_heap() ? heap_ : inline_; }

  [[nodiscard]] T* begin() noexcept { return data(); }
  [[nodiscard]] T* end() noexcept { return data() + size_; }
  [[nodiscard]] const T* begin() const noexcept { return data(); }
  [[nodiscard]] const T* end() const noexcept { return data() + size_; }

  [[nodiscard]] T& operator[](std::size_t i) noexcept { return data()[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept { return data()[i]; }
  [[nodiscard]] T& front() noexcept { return data()[0]; }
  [[nodiscard]] const T& front() const noexcept { return data()[0]; }
  [[nodiscard]] T& back() noexcept { return data()[size_ - 1]; }
  [[nodiscard]] const T& back() const noexcept { return data()[size_ - 1]; }

  friend bool operator==(const InlineList& a, const InlineList& b) noexcept {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator==(const InlineList& a, const std::vector<T>& b) noexcept {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator<(const InlineList& a, const InlineList& b) noexcept {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  InlineList(const T* values, std::size_t count) : size_(static_cast<std::uint32_t>(count)) {
    if (on_heap()) heap_ = new T[count];
    std::copy_n(values, count, data());
  }

  [[nodiscard]] bool on_heap() const noexcept { return size_ > N; }

  void release() noexcept {
    if (on_heap()) delete[] heap_;
  }

  /// Moves `other`'s values in (taking over its heap block, if any) and
  /// leaves it empty. Only the first size() values are ever read.
  void take(InlineList& other) noexcept {
    size_ = other.size_;
    if (other.on_heap()) {
      heap_ = other.heap_;
    } else {
      std::copy_n(other.inline_, size_, inline_);
    }
    other.size_ = 0;
  }

  std::uint32_t size_ = 0;
  union {
    T inline_[N] = {};  // the values while size_ <= N
    T* heap_;           // a block of size_ values otherwise
  };
};

}  // namespace qcut::circuit
