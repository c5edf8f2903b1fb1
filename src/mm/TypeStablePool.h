//===- mm/TypeStablePool.h - Type-stable slab allocator ---------*- C++ -*-===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A slab allocator with the type-stable property: a slot, once created as a
/// T, remains a valid T object for the pool's whole lifetime. Slots are
/// value-constructed when their slab is created and never destroyed on
/// deallocate(); allocate() hands back a recycled slot whose fields the
/// caller re-initializes with relaxed stores.
///
/// Why: SOLERO readers execute speculatively while writers mutate the data
/// structure, so a reader can hold a pointer to a node the writer has
/// already unlinked and freed. In the paper the JVM's garbage collector
/// guarantees such a pointer still refers to a valid object. Type-stable
/// slots give the same guarantee here: a stale pointer always points at a
/// well-formed T (with possibly garbage field values, which end-of-section
/// validation rejects). A slot may be reused under such a reader only where
/// its validation sees the reuse (kv/ShardTable.h); elsewhere
/// mm/EpochReclaimer.h delays recycling until no reader can see the slot.
///
//===----------------------------------------------------------------------===//

#ifndef SOLERO_MM_TYPESTABLEPOOL_H
#define SOLERO_MM_TYPESTABLEPOOL_H

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "support/Assert.h"
#include "support/Backoff.h"

namespace solero {

/// Thread-safe type-stable pool of \p T. \p SlabSlots is the number of
/// objects per slab.
template <typename T, std::size_t SlabSlots = 256> class TypeStablePool {
  static_assert(std::is_default_constructible_v<T>,
                "pool slots are value-constructed at slab creation");

public:
  TypeStablePool() = default;

  TypeStablePool(const TypeStablePool &) = delete;
  TypeStablePool &operator=(const TypeStablePool &) = delete;

  /// Returns a slot. The object is a valid T whose field values are
  /// whatever the previous user left (or default-constructed for a fresh
  /// slab); callers must re-initialize every field they care about.
  T *allocate() {
    SpinGuard G(Lock);
    if (Free.empty())
      addSlab();
    T *Slot = Free.back();
    Free.pop_back();
    ++LiveCount;
    return Slot;
  }

  /// Returns \p Slot to the pool. The object is NOT destroyed; concurrent
  /// speculative readers may still be reading its fields.
  void deallocate(T *Slot) {
    SOLERO_CHECK(Slot != nullptr, "deallocate(nullptr)");
    SpinGuard G(Lock);
    SOLERO_CHECK(LiveCount > 0, "pool double free (live count underflow)");
    --LiveCount;
    Free.push_back(Slot);
  }

  /// Objects currently handed out.
  std::size_t liveCount() const {
    SpinGuard G(Lock);
    return LiveCount;
  }

  /// Total slots ever created (all slabs).
  std::size_t capacity() const {
    SpinGuard G(Lock);
    return Slabs.size() * SlabSlots;
  }

private:
  struct Slab {
    // Plain array; elements are value-constructed with the slab.
    T Slots[SlabSlots];
  };

  class SpinGuard {
  public:
    explicit SpinGuard(std::atomic_flag &F) : F(F) {
      while (F.test_and_set(std::memory_order_acquire))
        cpuRelax();
    }
    ~SpinGuard() { F.clear(std::memory_order_release); }

  private:
    std::atomic_flag &F;
  };

  void addSlab() {
    Slabs.push_back(std::make_unique<Slab>());
    Slab &S = *Slabs.back();
    Free.reserve(Free.size() + SlabSlots);
    for (std::size_t I = 0; I < SlabSlots; ++I)
      Free.push_back(&S.Slots[I]);
  }

  mutable std::atomic_flag Lock = ATOMIC_FLAG_INIT;
  std::vector<std::unique_ptr<Slab>> Slabs;
  std::vector<T *> Free;
  std::size_t LiveCount = 0;
};

} // namespace solero

#endif // SOLERO_MM_TYPESTABLEPOOL_H
