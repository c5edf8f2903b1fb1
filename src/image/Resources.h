//===- image/Resources.h - Warm-image state codecs --------------*- C++ -*-===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Codecs for the learned runtime state a warm image carries (DESIGN.md
/// §16). An image stores inputs, never derived state:
///
///  - ElisionController stats cells (the adaptive per-lock state machines),
///  - BravoRwLock bias/inhibit/revocation state,
///  - an Interpreter's profile plus its SOLERO lock's controller cell; the
///    restoring interpreter re-derives classification and translation from
///    the profile itself (Interpreter::adoptProfile),
///  - per-shard lock state of a ShardedKvStore (templated over policy;
///    decode side only, which the chaos soak's CorruptRestore fault feeds).
///
/// Callers put each encoded state into a named blob with ImageBuilder and
/// look it up again in a LoadedImage (image/Image.h).
///
/// Every read_/restore-side function returns false on malformed input and
/// leaves the target object in its previous (cold) state wherever the
/// structure allows; ImageReader's sticky failure flag makes truncated
/// blobs fail closed rather than decode garbage.
///
//===----------------------------------------------------------------------===//

#ifndef SOLERO_IMAGE_RESOURCES_H
#define SOLERO_IMAGE_RESOURCES_H

#include <string>
#include <vector>

#include "core/ElisionController.h"
#include "core/SoleroLock.h"
#include "image/Image.h"
#include "jit/Interpreter.h"
#include "kv/ShardedKvStore.h"
#include "locks/BravoRwLock.h"

namespace solero {
namespace image {

// --- ElisionController -----------------------------------------------------

void writeControllerState(ImageWriter &W, const ElisionController &C);
/// Decode + ElisionController::restore (which clamps/validates).
bool readControllerState(ImageReader &R, ElisionController &C);

// --- BravoRwLock -----------------------------------------------------------

void writeBravoState(ImageWriter &W, const BravoRwLock &L);
bool readBravoState(ImageReader &R, BravoRwLock &L);

// --- JIT warm state --------------------------------------------------------

/// The profile half of a jit.warm blob (public so tests can encode
/// crafted profiles).
void writeProfile(ImageWriter &W, const jit::Profile &P);

/// An interpreter's learned state: its profile and its SOLERO lock's
/// controller cell.
void writeJitWarmState(ImageWriter &W, jit::Interpreter &I);
/// Decodes a writeJitWarmState blob into \p I. False when the blob does
/// not parse, its profile does not fit \p I's module (the interpreter then
/// keeps its cold state), or the controller cell is rejected (the profile
/// and what it derives stay adopted; only the policy warmth is lost).
bool readJitWarmState(ImageReader &R, jit::Interpreter &I);

// --- Sharded KV store lock state -------------------------------------------
//
// One blob per (store, policy): a shard count followed by one tagged
// per-shard record. The tag encodes which adaptive machinery the policy
// carries (0 = none, 1 = SOLERO controller, 2 = BRAVO bias state); a
// restore into a store of a different policy or shard count fails the
// whole blob — per the fallback policy the store simply starts cold.

inline bool readShardLockState(ImageReader &R, SoleroLock &L) {
  return R.u8() == 1 && readControllerState(R, L.controller());
}
inline bool readShardLockState(ImageReader &R, BravoRwLock &L) {
  return R.u8() == 2 && readBravoState(R, L);
}

template <typename Policy>
bool restoreKvLockState(ImageReader &R, kv::ShardedKvStore<Policy> &Store) {
  if (R.u32() != Store.shardCount())
    return false;
  for (unsigned I = 0; I < Store.shardCount(); ++I) {
    if constexpr (requires(Policy &P, ImageReader &R2) {
                    readShardLockState(R2, P.protocol());
                  }) {
      if (!readShardLockState(R, Store.shardPolicy(I).protocol()))
        return false;
    } else {
      if (R.u8() != 0)
        return false;
    }
  }
  return R.ok();
}

} // namespace image
} // namespace solero

#endif // SOLERO_IMAGE_RESOURCES_H
