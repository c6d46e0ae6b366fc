// Move-only callable wrapper with small-buffer optimization.
//
// std::function heap-allocates once a capture exceeds ~16 bytes (libstdc++),
// which puts an allocation on every scheduled event that captures more than
// a pointer. InlineFunction keeps captures up to InlineBytes in-place and
// only falls back to the heap for oversized ones, so the scheduler's event
// slots can store callbacks with zero allocation in the common case.
//
// Differences from std::function: move-only (no copy, so captures may own
// resources like pooled packets), no target_type/target introspection, and
// invoking an empty InlineFunction is undefined (checked in debug builds by
// the caller).
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace tcppr::util {

template <typename Signature, std::size_t InlineBytes = 48>
class InlineFunction;

template <typename R, typename... Args, std::size_t InlineBytes>
class InlineFunction<R(Args...), InlineBytes> {
 public:
  InlineFunction() = default;

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, InlineFunction> &&
                std::is_invocable_r_v<R, D&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    construct(std::forward<F>(f));
  }

  // Destroys the current callable (if any) and constructs the new one
  // directly in this object — no temporary InlineFunction, no relocate.
  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, InlineFunction> &&
                std::is_invocable_r_v<R, D&, Args...>>>
  void emplace(F&& f) {
    reset();
    construct(std::forward<F>(f));
  }

  InlineFunction(InlineFunction&& other) noexcept { move_from(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  void reset() {
    if (vtable_ != nullptr) {
      vtable_->destroy(storage_);
      vtable_ = nullptr;
    }
  }

  explicit operator bool() const { return vtable_ != nullptr; }

  R operator()(Args... args) {
    return vtable_->invoke(storage_, std::forward<Args>(args)...);
  }

  static constexpr std::size_t inline_capacity() { return InlineBytes; }

 private:
  static_assert(InlineBytes >= sizeof(void*));

  struct VTable {
    R (*invoke)(void*, Args&&...);
    // Relocates the callable from src storage into dst storage and leaves
    // src empty (trivial pointer copy in the heap case).
    void (*relocate)(void* src, void* dst);
    void (*destroy)(void*);
  };

  // Inline storage is pointer-aligned (not max_align_t) so the whole
  // wrapper stays at vtable + buffer with no padding — a 48-byte buffer
  // makes sizeof(InlineFunction) == 56 and an arena slot fits one cache
  // line. Over-aligned callables take the heap path.
  template <typename D>
  static constexpr bool fits_inline =
      sizeof(D) <= InlineBytes && alignof(D) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<D>;

  template <typename D>
  static constexpr VTable inline_vtable = {
      [](void* s, Args&&... args) -> R {
        return (*std::launder(reinterpret_cast<D*>(s)))(
            std::forward<Args>(args)...);
      },
      [](void* src, void* dst) {
        D* from = std::launder(reinterpret_cast<D*>(src));
        ::new (dst) D(std::move(*from));
        from->~D();
      },
      [](void* s) { std::launder(reinterpret_cast<D*>(s))->~D(); },
  };

  template <typename D>
  static constexpr VTable heap_vtable = {
      [](void* s, Args&&... args) -> R {
        return (*static_cast<D*>(*reinterpret_cast<void**>(s)))(
            std::forward<Args>(args)...);
      },
      [](void* src, void* dst) {
        *reinterpret_cast<void**>(dst) = *reinterpret_cast<void**>(src);
      },
      [](void* s) { delete static_cast<D*>(*reinterpret_cast<void**>(s)); },
  };

  template <typename F, typename D = std::decay_t<F>>
  void construct(F&& f) {
    if constexpr (fits_inline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      vtable_ = &inline_vtable<D>;
    } else {
      *reinterpret_cast<void**>(storage_) = new D(std::forward<F>(f));
      vtable_ = &heap_vtable<D>;
    }
  }

  void move_from(InlineFunction& other) noexcept {
    if (other.vtable_ != nullptr) {
      other.vtable_->relocate(other.storage_, storage_);
      vtable_ = other.vtable_;
      other.vtable_ = nullptr;
    }
  }

  const VTable* vtable_ = nullptr;
  alignas(void*) unsigned char storage_[InlineBytes];
};

}  // namespace tcppr::util
