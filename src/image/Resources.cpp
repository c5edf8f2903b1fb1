//===- image/Resources.cpp - Warm-image state codecs ----------------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "image/Resources.h"

using namespace solero;
using namespace solero::image;
using jit::Profile;

namespace {

/// Decode-only: fills \p S without touching any controller.
bool readControllerSnapshot(ImageReader &R, ElisionSnapshot &S) {
  S.State = R.u32();
  S.Attempts = R.u32();
  S.Failures = R.u32();
  S.Skip = R.i32();
  S.ReprobeLeft = R.i32();
  S.SkipWindow = R.u32();
  return !R.failed();
}

bool readProfile(ImageReader &R, Profile &P) {
  uint32_t Methods = R.u32();
  if (R.failed() || static_cast<uint64_t>(Methods) * 4 > R.remaining())
    return false;
  Profile Out;
  Out.Counts.resize(Methods);
  for (uint32_t Id = 0; Id < Methods; ++Id) {
    uint32_t Len = R.u32();
    if (R.failed() || static_cast<uint64_t>(Len) * 8 > R.remaining())
      return false;
    Out.Counts[Id].resize(Len);
    for (uint32_t I = 0; I < Len; ++I)
      Out.Counts[Id][I] = R.u64();
  }
  if (R.failed())
    return false;
  P = std::move(Out);
  return true;
}

} // namespace

// --- ElisionController -----------------------------------------------------

void solero::image::writeControllerState(ImageWriter &W,
                                         const ElisionController &C) {
  ElisionSnapshot S = C.snapshot();
  W.u32(S.State);
  W.u32(S.Attempts);
  W.u32(S.Failures);
  W.i32(S.Skip);
  W.i32(S.ReprobeLeft);
  W.u32(S.SkipWindow);
}

bool solero::image::readControllerState(ImageReader &R, ElisionController &C) {
  ElisionSnapshot S;
  return readControllerSnapshot(R, S) && C.restore(S);
}

// --- BravoRwLock -----------------------------------------------------------

void solero::image::writeBravoState(ImageWriter &W, const BravoRwLock &L) {
  BravoSnapshot S = L.snapshot();
  W.u8(S.RBias ? 1 : 0);
  W.i64(S.InhibitRemainingNs);
  W.u64(S.Revocations);
}

bool solero::image::readBravoState(ImageReader &R, BravoRwLock &L) {
  uint8_t Bias = R.u8();
  if (Bias > 1)
    return false;
  BravoSnapshot S;
  S.RBias = Bias != 0;
  S.InhibitRemainingNs = R.i64();
  S.Revocations = R.u64();
  return !R.failed() && L.restore(S);
}

// --- JIT warm state --------------------------------------------------------

void solero::image::writeProfile(ImageWriter &W, const Profile &P) {
  W.u32(static_cast<uint32_t>(P.Counts.size()));
  for (const std::vector<uint64_t> &Method : P.Counts) {
    W.u32(static_cast<uint32_t>(Method.size()));
    for (uint64_t C : Method)
      W.u64(C);
  }
}

void solero::image::writeJitWarmState(ImageWriter &W, jit::Interpreter &I) {
  writeProfile(W, I.profile());
  writeControllerState(W, I.soleroLock().controller());
}

bool solero::image::readJitWarmState(ImageReader &R, jit::Interpreter &I) {
  Profile Prof;
  ElisionSnapshot Ctrl;
  if (!readProfile(R, Prof) || !readControllerSnapshot(R, Ctrl) || !R.ok())
    return false;
  return I.adoptProfile(std::move(Prof)) &&
         I.soleroLock().controller().restore(Ctrl);
}
