// Words: the payload storage of the message runtime.
//
// Every protocol in this repository exchanges small u64 sequences —
// IDs, votes, hash tags, shares — so `Words` keeps the first
// kInlineCapacity words inline: the common case allocates nothing.  A
// longer payload spills into one heap block (new[]), released with
// delete[] when the payload is destroyed or grows again.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>

namespace tg::net {

/// Small-buffer-optimized u64 sequence: the payload type of
/// `net::Message`.  Supports the subset of the std::vector interface
/// the protocols use (iteration, front/back, push_back, resize,
/// operator==, brace-init), so migrated call sites stay mechanical.
class Words {
 public:
  using value_type = std::uint64_t;
  using iterator = std::uint64_t*;
  using const_iterator = const std::uint64_t*;

  /// Inline words before spilling: covers IDs, votes and 4-word hash
  /// tags plus metadata — every payload the repository's protocols
  /// send today.
  static constexpr std::size_t kInlineCapacity = 6;

  Words() noexcept = default;
  Words(std::initializer_list<std::uint64_t> init) {
    assign(init.begin(), init.size());
  }

  Words(const Words& other) { assign(other.data_, other.size_); }

  Words(Words&& other) noexcept
      : size_(other.size_), capacity_(other.capacity_) {
    if (other.spilled()) {
      data_ = other.data_;
    } else {
      std::memcpy(inline_, other.inline_, size_ * sizeof(std::uint64_t));
    }
    other.reset_to_inline();
  }

  Words& operator=(const Words& other) {
    if (this == &other) return *this;
    assign(other.data_, other.size_);
    return *this;
  }

  Words& operator=(Words&& other) noexcept {
    if (this == &other) return *this;
    release_storage();
    size_ = other.size_;
    capacity_ = other.capacity_;
    if (other.spilled()) {
      data_ = other.data_;
    } else {
      data_ = inline_;
      std::memcpy(inline_, other.inline_, size_ * sizeof(std::uint64_t));
    }
    other.reset_to_inline();
    return *this;
  }

  Words& operator=(std::initializer_list<std::uint64_t> init) {
    assign(init.begin(), init.size());
    return *this;
  }

  ~Words() { release_storage(); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// True when the payload outgrew the inline buffer.
  [[nodiscard]] bool spilled() const noexcept { return data_ != inline_; }

  [[nodiscard]] iterator begin() noexcept { return data_; }
  [[nodiscard]] iterator end() noexcept { return data_ + size_; }
  [[nodiscard]] const_iterator begin() const noexcept { return data_; }
  [[nodiscard]] const_iterator end() const noexcept { return data_ + size_; }

  [[nodiscard]] std::uint64_t& operator[](std::size_t i) noexcept {
    return data_[i];
  }
  [[nodiscard]] std::uint64_t operator[](std::size_t i) const noexcept {
    return data_[i];
  }
  [[nodiscard]] std::uint64_t& front() noexcept { return data_[0]; }
  [[nodiscard]] std::uint64_t front() const noexcept { return data_[0]; }
  [[nodiscard]] std::uint64_t& back() noexcept { return data_[size_ - 1]; }
  [[nodiscard]] std::uint64_t back() const noexcept {
    return data_[size_ - 1];
  }

  void push_back(std::uint64_t word) {
    if (size_ == capacity_) grow_exact(capacity_ * 2);
    data_[size_++] = word;
  }

  void reserve(std::size_t capacity) {
    if (capacity > capacity_) grow_exact(capacity);
  }

  /// Set the size to `count` words.  Shrinking keeps the storage (a
  /// spill block stays); growing past the capacity reallocates like
  /// reserve.  Added words are zero.
  void resize(std::size_t count) {
    reserve(count);
    if (count > size_) {
      std::memset(data_ + size_, 0, (count - size_) * sizeof(std::uint64_t));
    }
    size_ = static_cast<std::uint32_t>(count);
  }

  /// Drop the contents; capacity (and the spill block) is kept.
  void clear() noexcept { size_ = 0; }

  void assign(const std::uint64_t* words, std::size_t count) {
    clear();
    if (count > capacity_) grow_exact(count);
    std::memcpy(data_, words, count * sizeof(std::uint64_t));
    size_ = static_cast<std::uint32_t>(count);
  }

  friend bool operator==(const Words& a, const Words& b) noexcept {
    return a.size_ == b.size_ &&
           std::memcmp(a.data_, b.data_,
                       a.size_ * sizeof(std::uint64_t)) == 0;
  }

 private:
  void reset_to_inline() noexcept {
    data_ = inline_;
    size_ = 0;
    capacity_ = kInlineCapacity;
  }

  /// Free the spill block (if any) and fall back to the inline buffer.
  void release_storage() noexcept {
    if (!spilled()) return;
    delete[] data_;
    data_ = inline_;
    capacity_ = kInlineCapacity;
  }

  /// Move to a heap block of at least `min_capacity` words (at least
  /// double the current capacity, so push_back is amortized O(1)).
  void grow_exact(std::size_t min_capacity);

  std::uint64_t inline_[kInlineCapacity];
  std::uint64_t* data_ = inline_;
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = kInlineCapacity;
};

}  // namespace tg::net
