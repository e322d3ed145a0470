// Small-buffer-optimised callable slot for simulation events.
//
// The engine stores every scheduled callback in a `SmallFn`: a move-only,
// type-erased `void()` callable with 56 bytes of inline storage. A closure
// that fits is stored in place with no heap allocation. That covers the
// heartbeat and timer ticks, the thread-pool completions, and every stage
// of a network hop that carries its message as a pooled record (the NDB
// signal transport, ndb/transport.h, and the client's namenode RPCs,
// hopsfs/client.h, whose request hop, namenode completion, reply hop and
// timeout carry the attempt's slot, reply included): those capture
// `{this, 16-byte ref}` and nothing else, 24 bytes beside the network's
// 24-byte delivery wrapper. Oversized or throwing-move callables fall
// back to a single heap allocation, which is exactly what `std::function`
// would have done for anything beyond its (much smaller) internal
// buffer; a closure that captures a request or a reply by value still
// pays it.
//
// `SmallCall<R(Args...)>` is the general form: the protocol layers use it
// for their completion callbacks (`ReadCb`, `WriteCb`, lock grants, the
// namenode's `FsResultCb`) so a small capture costs no allocation where a
// `std::function` of the same closure would heap-allocate past its
// 16-byte buffer — and so a continuation may own a move-only record ref.
// `SmallFn` is an alias for `SmallCall<void()>`.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace repro {

template <typename Sig>
class SmallCall;  // undefined; specialised for function signatures

template <typename R, typename... Args>
class SmallCall<R(Args...)> {
 public:
  // Sized so the network layer's per-message delivery wrapper (this + two
  // host ids + byte count + a `{this, ref}` payload) stays inline.
  static constexpr std::size_t kInlineBytes = 56;

  SmallCall() noexcept = default;
  SmallCall(std::nullptr_t) noexcept {}  // NOLINT(runtime/explicit)

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, SmallCall> &&
                                        !std::is_same_v<D, std::nullptr_t> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  SmallCall(F&& f) {  // NOLINT(runtime/explicit): intentional implicit wrap
    if constexpr (FitsInline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      *PtrSlot() = new D(std::forward<F>(f));
      ops_ = &kHeapOps<D>;
    }
  }

  SmallCall(SmallCall&& other) noexcept { MoveFrom(other); }
  SmallCall& operator=(SmallCall&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  SmallCall(const SmallCall&) = delete;
  SmallCall& operator=(const SmallCall&) = delete;
  ~SmallCall() { Reset(); }

  R operator()(Args... args) {
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }
  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void Reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    R (*invoke)(void* storage, Args&&... args);
    // Move-construct the callable into dst's storage from src's storage,
    // then destroy the source (a "relocate": move + destroy in one step).
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename T>
  static constexpr bool FitsInline() {
    // Storage is pointer-aligned (keeping SmallCall at exactly 64 bytes);
    // over-aligned callables fall back to the heap path.
    return sizeof(T) <= kInlineBytes && alignof(T) <= alignof(void*) &&
           std::is_nothrow_move_constructible_v<T>;
  }

  void** PtrSlot() noexcept { return reinterpret_cast<void**>(storage_); }

  template <typename T>
  static constexpr Ops kInlineOps = {
      /*invoke=*/
      [](void* s, Args&&... args) -> R {
        return (*std::launder(reinterpret_cast<T*>(s)))(
            std::forward<Args>(args)...);
      },
      /*relocate=*/
      [](void* dst, void* src) noexcept {
        T* from = std::launder(reinterpret_cast<T*>(src));
        ::new (dst) T(std::move(*from));
        from->~T();
      },
      /*destroy=*/
      [](void* s) noexcept { std::launder(reinterpret_cast<T*>(s))->~T(); },
  };

  template <typename T>
  static constexpr Ops kHeapOps = {
      /*invoke=*/
      [](void* s, Args&&... args) -> R {
        return (**reinterpret_cast<T**>(s))(std::forward<Args>(args)...);
      },
      /*relocate=*/
      [](void* dst, void* src) noexcept {
        *reinterpret_cast<T**>(dst) = *reinterpret_cast<T**>(src);
      },
      /*destroy=*/[](void* s) noexcept { delete *reinterpret_cast<T**>(s); },
  };

  void MoveFrom(SmallCall& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(void*) unsigned char storage_[kInlineBytes];
};

using SmallFn = SmallCall<void()>;

}  // namespace repro
