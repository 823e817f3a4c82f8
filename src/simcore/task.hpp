// Coroutine task type for simulated actors.
//
// `sim::Task<T>` is a lazily-started coroutine.  Awaiting a Task starts it
// and transfers control (symmetric transfer); when the child finishes, the
// parent resumes with the child's value or exception.  A Task can also be
// handed to `Engine::spawn`, which resumes it from the event loop and keeps
// it alive until the simulation ends — that is how top-level simulated
// "processes" (the paper's application tasks, the Memory Manager's
// background flush thread, NFS daemons...) are expressed.
//
// Tasks are single-owner and single-awaiter: exactly one coroutine may
// co_await a given Task, which matches structured actor code and keeps the
// implementation free of reference counting.
#pragma once

#include <bit>
#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <new>
#include <optional>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace pcs::sim {

template <typename T>
class Task;

namespace detail {

/// The 16 bytes in front of every Task frame.  Group cancellation destroys
/// suspended frames outright, but handles to them may still sit in the
/// engine's ready queue, the timer heap and the waiter deques of sync
/// primitives; every wake path compares the generation captured at
/// suspension with this one before resuming.  A live frame's generation is
/// nonzero and unique on its thread; a freed block reads 0, and a recycled
/// block gets a fresh one, so a stale handle never aliases the frame that
/// now occupies its address.
struct FrameHeader {
  std::uint64_t gen;
  union {
    FrameHeader* next;       ///< while the block is on a freelist
    std::size_t size_class;  ///< while a frame lives in the block
  };
};
static_assert(sizeof(FrameHeader) == 16);

/// Thread-local (like the Engine itself) size-class freelist pool for Task
/// frames.  A block is a FrameHeader followed by the frame; blocks of up to
/// 4 KiB come in 64-byte classes, larger ones in power-of-two classes, so
/// every frame size is pooled.  Freed blocks stay owned by the pool until
/// the thread exits — a stale FrameRef may read a dead frame's header at any
/// time, so the memory behind it must never go back to the allocator while
/// such refs can exist.  Under AddressSanitizer a freed block's frame bytes
/// are poisoned (its header is not), so resuming a destroyed frame still
/// reports a use-after-free.
///
/// Relies on handle.address() being the pointer the promise's operator new
/// returned, and on the compiler never eliding Task frames into the caller;
/// GCC's coroutine implementation does both (frame_pool_test pins the
/// first).
class FramePool {
 public:
  static constexpr std::size_t kHeaderBytes = sizeof(FrameHeader);
  static constexpr std::size_t kGranule = 64;
  static constexpr std::size_t kFineClasses = 64;  ///< blocks up to 4 KiB
  /// The fine classes, then one class per power of two from 8 KiB up.
  static constexpr std::size_t kClasses = kFineClasses + (64 - 12);

  /// Block size of class `cls`, header included.
  [[nodiscard]] static constexpr std::size_t capacity(std::size_t cls) {
    return cls < kFineClasses ? (cls + 1) * kGranule
                              : std::size_t{1} << (cls - kFineClasses + 13);
  }
  /// A frame of `size` bytes with a fresh generation in its header.
  [[nodiscard]] static void* allocate(std::size_t size) {
    FramePool& pool = instance();
    const std::size_t cls = class_of(size + kHeaderBytes);
    FrameHeader* header = pool.free_[cls];
    if (header != nullptr) {
      pool.free_[cls] = header->next;
      set_poisoned(header, cls, false);
    } else {
      header = static_cast<FrameHeader*>(::operator new(capacity(cls)));
    }
    header->gen = pool.next_gen_++;
    header->size_class = cls;
    return header + 1;
  }

  static void deallocate(void* frame) noexcept {
    FrameHeader* header = header_of(frame);
    const std::size_t cls = header->size_class;
    FramePool& pool = instance();
    header->gen = 0;
    header->next = pool.free_[cls];
    pool.free_[cls] = header;
    set_poisoned(header, cls, true);
  }

  [[nodiscard]] static FrameHeader* header_of(void* frame) {
    return static_cast<FrameHeader*>(frame) - 1;
  }

  ~FramePool() {
    for (std::size_t cls = 0; cls < kClasses; ++cls) {
      while (FrameHeader* header = free_[cls]) {
        free_[cls] = header->next;
        set_poisoned(header, cls, false);
        ::operator delete(header);
      }
    }
  }

 private:
  /// The smallest class whose capacity holds `block` bytes.
  [[nodiscard]] static constexpr std::size_t class_of(std::size_t block) {
    return block <= kFineClasses * kGranule
               ? (block - 1) / kGranule
               : kFineClasses + static_cast<std::size_t>(std::bit_width(block - 1)) - 13;
  }

  /// The frame bytes of a free block are poisoned under AddressSanitizer;
  /// the header never is.
  static void set_poisoned([[maybe_unused]] FrameHeader* header,
                           [[maybe_unused]] std::size_t cls, [[maybe_unused]] bool poisoned) {
#if defined(__SANITIZE_ADDRESS__)
    if (poisoned) {
      ASAN_POISON_MEMORY_REGION(header + 1, capacity(cls) - kHeaderBytes);
    } else {
      ASAN_UNPOISON_MEMORY_REGION(header + 1, capacity(cls) - kHeaderBytes);
    }
#endif
  }

  static FramePool& instance() {
    thread_local FramePool pool;
    return pool;
  }

  FrameHeader* free_[kClasses] = {};
  std::uint64_t next_gen_ = 1;
};

struct PromiseBase {
  std::coroutine_handle<> continuation{};
  std::exception_ptr exception{};

  static void* operator new(std::size_t size) { return FramePool::allocate(size); }
  static void operator delete(void* frame) noexcept { FramePool::deallocate(frame); }

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    [[nodiscard]] bool await_ready() const noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) noexcept {
      auto& promise = h.promise();
      return promise.continuation ? promise.continuation : std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

}  // namespace detail

/// Generation stamp of a Task frame; 0 once the frame has been destroyed.
/// `h` must point at a sim::Task frame (live or destroyed).
[[nodiscard]] inline std::uint64_t frame_generation(std::coroutine_handle<> h) {
  return detail::FramePool::header_of(h.address())->gen;
}

/// A coroutine handle plus the generation of the frame it pointed to when
/// captured.  Queues that may outlive their coroutines (ready queue, timer
/// heap, mutex/CV/semaphore/mailbox waiter deques, activity waiters) store
/// FrameRefs and skip entries whose frame died — that is how cancellation
/// composes with every existing suspension point.
struct FrameRef {
  std::coroutine_handle<> handle{};
  std::uint64_t gen = 0;

  [[nodiscard]] static FrameRef capture(std::coroutine_handle<> h) {
    return FrameRef{h, frame_generation(h)};
  }
  [[nodiscard]] bool alive() const { return handle && frame_generation(handle) == gen; }
};

template <typename T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase {
    std::optional<T> value;
    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_value(T v) { value = std::move(v); }
  };

  Task() = default;
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const { return handle_ != nullptr; }
  [[nodiscard]] bool done() const { return handle_ == nullptr || handle_.done(); }

  // Awaiter interface (parent co_awaits this task).
  [[nodiscard]] bool await_ready() const noexcept { return handle_ == nullptr || handle_.done(); }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) noexcept {
    handle_.promise().continuation = parent;
    return handle_;
  }
  T await_resume() {
    auto& promise = handle_.promise();
    if (promise.exception) std::rethrow_exception(promise.exception);
    assert(promise.value.has_value() && "task finished without a value");
    return std::move(*promise.value);
  }

  /// Used by Engine::spawn to drive the root coroutine.
  [[nodiscard]] std::coroutine_handle<> raw_handle() const { return handle_; }
  /// Rethrows a stored exception after completion (Engine does this for roots).
  void rethrow_if_failed() const {
    if (handle_ && handle_.promise().exception) std::rethrow_exception(handle_.promise().exception);
  }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }
  std::coroutine_handle<promise_type> handle_{};
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_void() noexcept {}
  };

  Task() = default;
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const { return handle_ != nullptr; }
  [[nodiscard]] bool done() const { return handle_ == nullptr || handle_.done(); }

  [[nodiscard]] bool await_ready() const noexcept { return handle_ == nullptr || handle_.done(); }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) noexcept {
    handle_.promise().continuation = parent;
    return handle_;
  }
  void await_resume() {
    auto& promise = handle_.promise();
    if (promise.exception) std::rethrow_exception(promise.exception);
  }

  [[nodiscard]] std::coroutine_handle<> raw_handle() const { return handle_; }
  void rethrow_if_failed() const {
    if (handle_ && handle_.promise().exception) std::rethrow_exception(handle_.promise().exception);
  }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }
  std::coroutine_handle<promise_type> handle_{};
};

}  // namespace pcs::sim
