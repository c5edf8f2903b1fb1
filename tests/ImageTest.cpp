//===- tests/ImageTest.cpp - Warm-image checkpoint/restore ----------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// Covers src/image/ (DESIGN.md §16): the serialization format's failure
/// modes (truncation, corruption, version skew — every one a Diagnostic,
/// never a crash), controller and BRAVO state rehydration (byte-identical
/// round trips), warm interpreter restore (the restored classification and
/// translation are exactly what the profile derives; adversarial or
/// mismatched profiles never make a writing region read-only), the
/// JSON-emitter regressions the warm_restart probe row guards in CI, and a
/// TSan-checked snapshot under live readers.
///
/// Every suite is prefixed "Image" so the CI TSan job's gtest_filter
/// picks all of them up with a single Image* pattern.
///
//===----------------------------------------------------------------------===//

#include "image/Image.h"
#include "image/Resources.h"

#include "BenchCommon.h"
#include "SuiteContext.h"
#include "core/SoleroLock.h"
#include "jit/Interpreter.h"
#include "jit/MethodBuilder.h"
#include "locks/BravoRwLock.h"
#include "runtime/SharedField.h"
#include "support/Rng.h"

#include <atomic>
#include <cstdio>
#include <ostream>
#include <thread>

#include <gtest/gtest.h>

namespace solero::jit {
// Region kinds print by name in assertion failures.
void PrintTo(RegionKind K, std::ostream *OS) { *OS << regionKindName(K); }
} // namespace solero::jit

using namespace solero;
using namespace solero::image;

namespace {

/// Tiny windows so controller transitions happen within a few sections
/// (same tuning as AdaptiveElisionTest).
AdaptiveElisionConfig tinyAdaptive() {
  AdaptiveElisionConfig A;
  A.Enabled = true;
  A.WindowAttempts = 8;
  A.DisableRatio = 0.60;
  A.ReenableRatio = 0.20;
  A.ReprobeWindow = 4;
  A.DisabledSkipMin = 4;
  A.DisabledSkipMax = 16;
  return A;
}

SoleroConfig tinyAdaptiveConfig() {
  SoleroConfig C;
  C.Adaptive = tinyAdaptive();
  return C;
}

// --- Format layer ----------------------------------------------------------

TEST(ImageFormat, PrimitivesRoundTrip) {
  ImageWriter W;
  W.u8(0xAB);
  W.u32(0xDEADBEEFu);
  W.u64(0x0123456789ABCDEFull);
  W.i32(-42);
  W.i64(-1234567890123ll);
  W.str("solero");
  std::vector<uint8_t> Bytes = W.take();

  ImageReader R(Bytes);
  EXPECT_EQ(R.u8(), 0xAB);
  EXPECT_EQ(R.u32(), 0xDEADBEEFu);
  EXPECT_EQ(R.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(R.i32(), -42);
  EXPECT_EQ(R.i64(), -1234567890123ll);
  EXPECT_EQ(R.str(), "solero");
  EXPECT_TRUE(R.ok());
}

TEST(ImageFormat, ReaderFailureIsSticky) {
  ImageWriter W;
  W.u32(7);
  std::vector<uint8_t> Bytes = W.take();
  ImageReader R(Bytes);
  EXPECT_EQ(R.u64(), 0u); // 4 bytes cannot satisfy 8
  EXPECT_TRUE(R.failed());
  EXPECT_EQ(R.u8(), 0u); // sticky: even the valid prefix reads as zero
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.remaining(), 0u);
}

std::vector<uint8_t> sampleImage() {
  ImageBuilder B;
  B.addBlob("alpha", {1, 2, 3, 4});
  B.addBlob("beta", {5, 6});
  return B.build();
}

TEST(ImageFormat, BuildLoadRoundTrip) {
  Diagnostic D;
  LoadedImage Img = LoadedImage::fromBytes(sampleImage(), D);
  ASSERT_TRUE(D.ok()) << D.render();
  ASSERT_TRUE(Img.loaded());
  EXPECT_EQ(Img.blobCount(), 2u);
  ASSERT_NE(Img.blob("alpha"), nullptr);
  EXPECT_EQ(*Img.blob("alpha"), (std::vector<uint8_t>{1, 2, 3, 4}));
  ASSERT_NE(Img.blob("beta"), nullptr);
  EXPECT_EQ(Img.blob("gamma"), nullptr);
}

TEST(ImageFormat, PropertyRandomBlobsRoundTrip) {
  SplitMix64 Rng(0x1Aa6E5EEDull);
  for (int Iter = 0; Iter < 50; ++Iter) {
    ImageBuilder B;
    unsigned NumBlobs = 1 + static_cast<unsigned>(Rng.next() % 5);
    std::vector<std::pair<std::string, std::vector<uint8_t>>> Expect;
    for (unsigned I = 0; I < NumBlobs; ++I) {
      std::string Name = "blob" + std::to_string(I);
      std::vector<uint8_t> Data(Rng.next() % 64);
      for (auto &Byte : Data)
        Byte = static_cast<uint8_t>(Rng.next());
      B.addBlob(Name, Data);
      Expect.emplace_back(Name, std::move(Data));
    }
    Diagnostic D;
    LoadedImage Img = LoadedImage::fromBytes(B.build(), D);
    ASSERT_TRUE(Img.loaded()) << D.render();
    ASSERT_EQ(Img.blobCount(), Expect.size());
    for (const auto &[Name, Data] : Expect) {
      ASSERT_NE(Img.blob(Name), nullptr);
      EXPECT_EQ(*Img.blob(Name), Data);
    }
  }
}

TEST(ImageFormat, TruncationFailsCleanly) {
  std::vector<uint8_t> Bytes = sampleImage();
  // Every possible truncation point must yield a diagnostic, not a crash.
  for (std::size_t Len = 0; Len < Bytes.size(); ++Len) {
    Diagnostic D;
    LoadedImage Img = LoadedImage::fromBytes(Bytes.data(), Len, D);
    EXPECT_FALSE(Img.loaded()) << "length " << Len;
    EXPECT_FALSE(D.ok());
    EXPECT_TRUE(D.Code == ImageDiag::ShortHeader ||
                D.Code == ImageDiag::Truncated)
        << "length " << Len << ": " << D.render();
  }
}

TEST(ImageFormat, ChecksumDetectsPayloadCorruption) {
  std::vector<uint8_t> Bytes = sampleImage();
  // Flip one bit in every payload byte in turn.
  for (std::size_t Pos = 24; Pos < Bytes.size(); ++Pos) {
    std::vector<uint8_t> Bad = Bytes;
    Bad[Pos] ^= 0x01;
    Diagnostic D;
    LoadedImage Img = LoadedImage::fromBytes(Bad, D);
    EXPECT_FALSE(Img.loaded());
    EXPECT_EQ(D.Code, ImageDiag::ChecksumMismatch) << D.render();
  }
}

TEST(ImageFormat, VersionSkewRejected) {
  std::vector<uint8_t> Bytes = sampleImage();
  Bytes[4] ^= 0xFF; // version field (little-endian u32 after the magic)
  Diagnostic D;
  LoadedImage Img = LoadedImage::fromBytes(Bytes, D);
  EXPECT_FALSE(Img.loaded());
  EXPECT_EQ(D.Code, ImageDiag::VersionSkew) << D.render();
}

TEST(ImageFormat, PreviousVersionRejected) {
  // Version-1 images carried derived JIT state in their jit.warm blob, and
  // version-2 images a BRAVO forced-window remainder in each BRAVO record;
  // both must degrade to a cold start, not be parsed as the current layout.
  for (uint8_t Old : {1, 2}) {
    std::vector<uint8_t> Bytes = sampleImage();
    ASSERT_EQ(Bytes[4], ImageVersion);
    Bytes[4] = Old;
    Diagnostic D;
    LoadedImage Img = LoadedImage::fromBytes(Bytes, D);
    EXPECT_FALSE(Img.loaded());
    EXPECT_EQ(D.Code, ImageDiag::VersionSkew) << D.render();
  }
}

TEST(ImageFormat, BadMagicRejected) {
  std::vector<uint8_t> Bytes = sampleImage();
  Bytes[0] ^= 0xFF;
  Diagnostic D;
  LoadedImage Img = LoadedImage::fromBytes(Bytes, D);
  EXPECT_FALSE(Img.loaded());
  EXPECT_EQ(D.Code, ImageDiag::BadMagic);
}

TEST(ImageFormat, MissingFileDiagnosed) {
  Diagnostic D;
  LoadedImage Img =
      LoadedImage::fromFile("/nonexistent/solero-warm.img", D);
  EXPECT_FALSE(Img.loaded());
  EXPECT_EQ(D.Code, ImageDiag::MissingFile);
  EXPECT_NE(D.render().find("cold start"), std::string::npos);
}

// --- Controller state ------------------------------------------------------

class ImageControllerTest : public ::testing::Test {
protected:
  ImageControllerTest() : Ctx(quietConfig()), L(Ctx, tinyAdaptiveConfig()) {}

  /// Speculation-doomed section (write on the same lock inside the body).
  void failingSection() {
    L.synchronizedReadOnly(H, [&](ReadGuard &) {
      L.synchronizedWrite(H, [] {});
      return Data.read();
    });
  }

  void succeedingSection() {
    L.synchronizedReadOnly(H, [&](ReadGuard &) { return Data.read(); });
  }

  void driveTo(ElisionState S) {
    for (int I = 0; I < 4096 && L.controller().state() != S; ++I)
      failingSection();
    ASSERT_EQ(L.controller().state(), S);
  }

  RuntimeContext Ctx;
  SoleroLock L;
  ObjectHeader H;
  SharedField<int64_t> Data{7};
};

TEST_F(ImageControllerTest, SnapshotRestoreSnapshotIsByteIdentical) {
  driveTo(ElisionState::Disabled);
  ImageWriter W1;
  writeControllerState(W1, L.controller());

  SoleroLock Fresh(Ctx, tinyAdaptiveConfig());
  ImageReader R(W1.data());
  ASSERT_TRUE(readControllerState(R, Fresh.controller()));
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(Fresh.controller().state(), ElisionState::Disabled);

  ImageWriter W2;
  writeControllerState(W2, Fresh.controller());
  EXPECT_EQ(W1.data(), W2.data()); // the property the format promises
}

TEST_F(ImageControllerTest, RestoredDisabledLockResumesSkipping) {
  driveTo(ElisionState::Disabled);
  ElisionSnapshot S = L.controller().snapshot();

  SoleroLock Fresh(Ctx, tinyAdaptiveConfig());
  ASSERT_TRUE(Fresh.controller().restore(S));
  ProtocolCounters Before = ThreadRegistry::instance().totalCounters();
  Fresh.synchronizedReadOnly(H, [&](ReadGuard &) { return Data.read(); });
  ProtocolCounters After = ThreadRegistry::instance().totalCounters();
  // The restored lock skips speculation from the first section — no cold
  // re-learning of the write phase (the bug the seeding fix closes).
  EXPECT_EQ(After.ElisionAttempts - Before.ElisionAttempts, 0u);
  EXPECT_EQ(After.ElisionSkips - Before.ElisionSkips, 1u);
}

TEST_F(ImageControllerTest, RestoreClampsPreFixZeroSkipWindow) {
  // Images written before the SkipWindow seeding fix can carry 0 for a
  // Disabled lock; restore must clamp into [SkipMin, SkipMax], not adopt
  // a zero window.
  ElisionSnapshot S;
  S.State = static_cast<uint32_t>(ElisionState::Disabled);
  S.Attempts = 8;
  S.Failures = 6;
  S.Skip = 2;
  S.SkipWindow = 0;
  ASSERT_TRUE(L.controller().restore(S));
  EXPECT_EQ(L.controller().state(), ElisionState::Disabled);
  EXPECT_EQ(L.controller().skipWindow(), tinyAdaptive().DisabledSkipMin);
  EXPECT_GE(L.controller().skipBudget(), 1);
}

TEST_F(ImageControllerTest, RestoreRejectsInconsistentSnapshots) {
  ElisionSnapshot Garbage;
  Garbage.State = 9; // no such state
  EXPECT_FALSE(L.controller().restore(Garbage));
  EXPECT_EQ(L.controller().state(), ElisionState::Elide);

  ElisionSnapshot Retired;
  Retired.State = 1; // the retired Throttled state
  EXPECT_FALSE(L.controller().restore(Retired));
  EXPECT_EQ(L.controller().state(), ElisionState::Elide);

  ElisionSnapshot Skewed;
  Skewed.State = static_cast<uint32_t>(ElisionState::Reprobe);
  Skewed.Attempts = 3;
  Skewed.Failures = 9; // failures cannot exceed attempts
  EXPECT_FALSE(L.controller().restore(Skewed));
  EXPECT_EQ(L.controller().state(), ElisionState::Elide);
}

TEST_F(ImageControllerTest, RestoredReprobeFinishesItsWindow) {
  ElisionSnapshot S;
  S.State = static_cast<uint32_t>(ElisionState::Reprobe);
  S.Attempts = 4;
  S.Failures = 2;
  S.ReprobeLeft = 0; // exhausted budget: must clamp to >= 1, not wedge
  S.SkipWindow = 8;
  ASSERT_TRUE(L.controller().restore(S));
  EXPECT_EQ(L.controller().state(), ElisionState::Reprobe);
  // Clean sections must eventually re-enable elision.
  for (int I = 0; I < 64 && L.controller().state() != ElisionState::Elide; ++I)
    succeedingSection();
  EXPECT_EQ(L.controller().state(), ElisionState::Elide);
}

// --- BRAVO state -----------------------------------------------------------

TEST(ImageBravo, BiasRoundTrips) {
  RuntimeContext Ctx(quietConfig());
  BravoRwLock A(Ctx);
  A.synchronizedReadOnly([](ReadGuard &) { return 0; }); // sets the bias
  ASSERT_TRUE(A.readBiased());
  ImageWriter W;
  writeBravoState(W, A);

  BravoRwLock B(Ctx);
  ASSERT_FALSE(B.readBiased());
  ImageReader R(W.data());
  ASSERT_TRUE(readBravoState(R, B));
  ASSERT_TRUE(R.ok());
  EXPECT_TRUE(B.readBiased());
}

TEST(ImageBravo, RestoreRefusedWhileReadersActive) {
  RuntimeContext Ctx(quietConfig());
  BravoRwLock L(Ctx);
  BravoSnapshot S;
  S.RBias = true;
  std::atomic<bool> InSection{false}, Release{false};
  std::thread Reader([&] {
    L.synchronizedReadOnly([&](ReadGuard &) {
      InSection.store(true);
      while (!Release.load())
        std::this_thread::yield();
      return 0;
    });
  });
  while (!InSection.load())
    std::this_thread::yield();
  EXPECT_FALSE(L.restore(S)); // not quiescent: refuse, stay cold
  Release.store(true);
  Reader.join();
  EXPECT_TRUE(L.restore(S)); // quiescent now
  EXPECT_TRUE(L.readBiased());
}

// --- Warm interpreter state ------------------------------------------------

/// mostly(obj, doWrite): statically Writing, ReadMostly once profiled —
/// the same guest warm_restart measures.
jit::Module buildMostlyGuest() {
  jit::MethodBuilder B("mostly", 2, 2);
  auto Skip = B.newLabel();
  B.load(0).syncEnter();
  B.load(1).jumpIfZero(Skip);
  B.load(0).constant(1).putField(1);
  B.bind(Skip);
  B.load(0).getField(0).pop();
  B.syncExit();
  B.constant(0).ret();
  jit::Module M;
  M.addMethod(B.take());
  return M;
}

/// One-blob image of \p I's warm state (the warm_restart checkpoint).
std::vector<uint8_t> jitImage(jit::Interpreter &I) {
  ImageWriter W;
  writeJitWarmState(W, I);
  ImageBuilder B;
  B.addBlob("jit.warm", W.take());
  return B.build();
}

/// Loads \p Bytes and restores \p I from its jit.warm blob.
bool restoreJitImage(const std::vector<uint8_t> &Bytes, jit::Interpreter &I) {
  Diagnostic D;
  LoadedImage Img = LoadedImage::fromBytes(Bytes, D);
  const std::vector<uint8_t> *Blob = Img.blob("jit.warm");
  if (!Blob)
    return false;
  ImageReader R(*Blob);
  return readJitWarmState(R, I);
}

std::vector<jit::RegionKind> regionKinds(const jit::Module &M,
                                         const jit::ClassifiedModule &C) {
  std::vector<jit::RegionKind> Kinds;
  for (uint32_t Id = 0; Id < M.methodCount(); ++Id)
    for (const jit::ClassifiedRegion &R : C.regions(Id))
      Kinds.push_back(R.Kind);
  return Kinds;
}

void expectSameTranslation(const jit::TranslatedModule &Got,
                           const jit::TranslatedModule &Want) {
  ASSERT_EQ(Got.Methods.size(), Want.Methods.size());
  EXPECT_EQ(Got.MaxFrameSlots, Want.MaxFrameSlots);
  for (std::size_t Id = 0; Id < Want.Methods.size(); ++Id) {
    const jit::TranslatedMethod &G = Got.Methods[Id];
    const jit::TranslatedMethod &W = Want.Methods[Id];
    EXPECT_EQ(G.NumParams, W.NumParams);
    EXPECT_EQ(G.NumLocals, W.NumLocals);
    EXPECT_EQ(G.MaxStack, W.MaxStack);
    EXPECT_EQ(G.FrameSlots, W.FrameSlots);
    EXPECT_EQ(G.PcMap, W.PcMap);
    ASSERT_EQ(G.Code.size(), W.Code.size()) << "method " << Id;
    for (std::size_t I = 0; I < W.Code.size(); ++I) {
      EXPECT_EQ(G.Code[I].Op, W.Code[I].Op) << "method " << Id << " @" << I;
      EXPECT_EQ(G.Code[I].B, W.Code[I].B) << "method " << Id << " @" << I;
      EXPECT_EQ(G.Code[I].A, W.Code[I].A) << "method " << Id << " @" << I;
    }
  }
}

TEST(ImageInterp, RestoredWarmStateExecutesAndElides) {
  RuntimeContext Ctx(quietConfig());
  jit::Interpreter::Options Warm;
  Warm.CollectProfile = true;
  jit::Interpreter Donor(Ctx, buildMostlyGuest(), Warm);
  jit::GuestObject *DObj = Donor.allocateObject();
  DObj->F[0].write(11);
  for (int I = 0; I < 200; ++I)
    Donor.invoke("mostly", {jit::Value::ofRef(DObj), jit::Value::ofInt(0)});
  Donor.invoke("mostly", {jit::Value::ofRef(DObj), jit::Value::ofInt(1)});
  Donor.reclassifyWithProfile();
  Donor.endProfiling();
  ASSERT_EQ(Donor.classification().regions(0)[0].Kind, jit::RegionKind::ReadMostly);
  std::vector<uint8_t> Bytes = jitImage(Donor);

  jit::Interpreter Fresh(Ctx, buildMostlyGuest(), jit::Interpreter::Options());
  ASSERT_EQ(Fresh.classification().regions(0)[0].Kind, jit::RegionKind::Writing);
  ASSERT_TRUE(restoreJitImage(Bytes, Fresh));
  // The restored engine re-derives exactly the donor's classification and
  // translation from the profile alone...
  EXPECT_EQ(regionKinds(Fresh.module(), Fresh.classification()),
            regionKinds(Donor.module(), Donor.classification()));
  expectSameTranslation(Fresh.translated(), Donor.translated());

  // ...executes identically to the donor (differential check)...
  jit::GuestObject *FObj = Fresh.allocateObject();
  FObj->F[0].write(11);
  ProtocolCounters Before = ThreadRegistry::instance().totalCounters();
  for (int I = 0; I < 8; ++I) {
    int64_t DoWrite = (I == 5) ? 1 : 0;
    int64_t Got =
        Fresh
            .invoke("mostly", {jit::Value::ofRef(FObj),
                               jit::Value::ofInt(DoWrite)})
            .asInt();
    int64_t Want =
        Donor
            .invoke("mostly", {jit::Value::ofRef(DObj),
                               jit::Value::ofInt(DoWrite)})
            .asInt();
    EXPECT_EQ(Got, Want);
  }
  EXPECT_EQ(FObj->F[1].read(), DObj->F[1].read());
  // ...and elides from the very first section (no reprofiling phase).
  ProtocolCounters After = ThreadRegistry::instance().totalCounters();
  EXPECT_GE(After.ElisionSuccesses - Before.ElisionSuccesses, 8u);
}

TEST(ImageInterp, MismatchedModuleFallsBackToRetranslation) {
  RuntimeContext Ctx(quietConfig());
  jit::Interpreter::Options Warm;
  Warm.CollectProfile = true;
  jit::Interpreter Donor(Ctx, buildMostlyGuest(), Warm);
  jit::GuestObject *DObj = Donor.allocateObject();
  for (int I = 0; I < 100; ++I)
    Donor.invoke("mostly", {jit::Value::ofRef(DObj), jit::Value::ofInt(0)});
  Donor.reclassifyWithProfile();
  Donor.endProfiling();
  std::vector<uint8_t> Bytes = jitImage(Donor);

  // A *different* guest: the blob decodes but its profile does not fit.
  jit::MethodBuilder B("other", 1, 2);
  B.load(0).syncEnter();
  B.load(0).getField(0).store(1);
  B.syncExit();
  B.load(1).ret();
  jit::Module Other;
  Other.addMethod(B.take());
  jit::Interpreter Victim(Ctx, std::move(Other), jit::Interpreter::Options());
  jit::TranslatedModule ColdTrans = Victim.translated();
  EXPECT_FALSE(restoreJitImage(Bytes, Victim)); // cold state kept
  expectSameTranslation(Victim.translated(), ColdTrans);
  // The fallback *is* the fresh translation: execution still works.
  jit::GuestObject *VObj = Victim.allocateObject();
  VObj->F[0].write(21);
  EXPECT_EQ(Victim.invoke("other", {jit::Value::ofRef(VObj)}).asInt(), 21);
}

/// Adversarial profile blobs against the statically Writing "mostly"
/// region. Whatever the counts, the restored kinds are what the classifier
/// derives from them, a statically Writing region never becomes ReadOnly,
/// and a profile shaped for another module is refused outright.
TEST(ImageInterp, AdversarialProfilesNeverElideWritingRegions) {
  constexpr uint64_t Max = UINT64_MAX;
  const jit::Module M = buildMostlyGuest();
  const uint32_t Len = static_cast<uint32_t>(M.method(0).Code.size());
  constexpr uint32_t EnterPc = 1, WritePc = 6;
  ASSERT_EQ(M.method(0).Code[EnterPc].Op, jit::Opcode::SyncEnter);
  ASSERT_EQ(M.method(0).Code[WritePc].Op, jit::Opcode::PutField);

  /// Counts[0] with every pc at \p Fill, then the entry and write sites.
  auto Counts = [&](uint64_t Fill, uint64_t Entries, uint64_t Writes) {
    jit::Profile P;
    P.Counts.assign(1, std::vector<uint64_t>(Len, Fill));
    P.Counts[0][EnterPc] = Entries;
    P.Counts[0][WritePc] = Writes;
    return P;
  };
  jit::Profile ExtraMethod = Counts(0, 1000, 1);
  ExtraMethod.Counts.push_back(std::vector<uint64_t>(Len, 0));
  jit::Profile ShortMethod = Counts(0, 1000, 1);
  ShortMethod.Counts[0].pop_back();

  struct Case {
    const char *Name;
    jit::Profile P;
    bool Accepted;
    jit::RegionKind Want;
  };
  const std::vector<Case> Cases = {
      {"all-zero", Counts(0, 0, 0), true, jit::RegionKind::Writing},
      {"all-max", Counts(Max, Max, Max), true, jit::RegionKind::Writing},
      {"zero-entries", Counts(0, 0, 5), true, jit::RegionKind::Writing},
      {"writes-above-entries", Counts(7, 10, 1000), true,
       jit::RegionKind::Writing},
      {"max-writes-one-entry", Counts(0, 1, Max), true,
       jit::RegionKind::Writing},
      // writes * 10 wraps to 0 in 64 bits: must not read as "rare".
      {"wrapping-writes", Counts(0, 1000, 1ull << 63), true,
       jit::RegionKind::Writing},
      {"rare-writes", Counts(0, 1000, 1), true, jit::RegionKind::ReadMostly},
      {"extra-method", ExtraMethod, false, jit::RegionKind::Writing},
      {"short-method", ShortMethod, false, jit::RegionKind::Writing},
      {"no-methods", jit::Profile{}, false, jit::RegionKind::Writing},
  };

  RuntimeContext Ctx(quietConfig());
  const std::vector<jit::RegionKind> ColdKinds =
      regionKinds(M, jit::classifyModule(M));
  ASSERT_EQ(ColdKinds, std::vector<jit::RegionKind>{jit::RegionKind::Writing});
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    jit::Interpreter I(Ctx, buildMostlyGuest(), jit::Interpreter::Options());
    ImageWriter W;
    writeProfile(W, C.P);
    writeControllerState(W, I.soleroLock().controller());
    std::vector<uint8_t> Blob = W.take();
    ImageReader R(Blob);
    EXPECT_EQ(readJitWarmState(R, I), C.Accepted);

    std::vector<jit::RegionKind> Kinds = regionKinds(M, I.classification());
    EXPECT_EQ(Kinds, C.Accepted ? regionKinds(M, jit::classifyModule(M, &C.P))
                                : ColdKinds);
    EXPECT_EQ(Kinds, std::vector<jit::RegionKind>{C.Want});
    for (std::size_t K = 0; K < Kinds.size(); ++K) {
      if (ColdKinds[K] == jit::RegionKind::Writing) {
        EXPECT_NE(Kinds[K], jit::RegionKind::ReadOnly);
      }
    }
  }
}

// --- JSON emitter regressions ----------------------------------------------

std::string writtenJson(const JsonReport &Json) {
  std::string Path = ::testing::TempDir() + "/solero_image_json_test.json";
  EXPECT_TRUE(Json.write(Path));
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  EXPECT_NE(F, nullptr);
  std::string Doc;
  char Buf[4096];
  std::size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Doc.append(Buf, N);
  std::fclose(F);
  std::remove(Path.c_str());
  return Doc;
}

TEST(ImageJson, NonFiniteValuesEmitZero) {
  JsonReport Json("image_test");
  BenchResult R;
  R.OpsPerSec = std::numeric_limits<double>::quiet_NaN();
  Json.add("v", "P", 1, R,
           {{"a", std::numeric_limits<double>::infinity()},
            {"b", -std::numeric_limits<double>::infinity()}});
  std::string Doc = writtenJson(Json);
  // The old emitter printed literal nan/inf here, corrupting the file.
  EXPECT_EQ(Doc.find("nan"), std::string::npos) << Doc;
  EXPECT_EQ(Doc.find("inf"), std::string::npos) << Doc;
  EXPECT_NE(Doc.find("\"ops_per_sec\": 0"), std::string::npos) << Doc;
  EXPECT_NE(Doc.find("\"a\": 0"), std::string::npos) << Doc;
}

TEST(ImageJson, ControlCharactersEscapedNotDropped) {
  JsonReport Json("image_test");
  BenchResult R;
  Json.add(std::string("a\001b\tc"), "P\037", 1, R);
  std::string Doc = writtenJson(Json);
  // The old emitter silently dropped control characters.
  EXPECT_NE(Doc.find("a\\u0001b\\u0009c"), std::string::npos) << Doc;
  EXPECT_NE(Doc.find("P\\u001F"), std::string::npos) << Doc;
  EXPECT_EQ(Doc.find('\001'), std::string::npos);
}

TEST(ImageJson, ZeroAttemptWindowHasFiniteFailureRatio) {
  BenchResult R; // no attempts recorded at all
  EXPECT_EQ(R.failureRatio(), 0.0);
  R.Delta.ElisionFailures = RelaxedCounter{};
  EXPECT_TRUE(std::isfinite(R.failureRatio()));
}

// --- Concurrency: snapshot under live readers (TSan) -----------------------

TEST(ImageConcurrency, SnapshotUnderLiveReadersIsRaceFree) {
  RuntimeContext Ctx(quietConfig());
  SoleroLock L(Ctx, tinyAdaptiveConfig());
  ObjectHeader H;
  SharedField<int64_t> Data{3};
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Readers;
  for (int T = 0; T < 2; ++T)
    Readers.emplace_back([&] {
      while (!Stop.load(std::memory_order_acquire))
        L.synchronizedReadOnly(H, [&](ReadGuard &) { return Data.read(); });
    });
  // Concurrent snapshots are documented safe (all-relaxed cell); only a
  // *restore* needs quiescence. TSan verifies the claim.
  for (int I = 0; I < 1000; ++I) {
    ElisionSnapshot S = L.controller().snapshot();
    ASSERT_LE(S.State, 3u);
  }
  Stop.store(true, std::memory_order_release);
  for (auto &R : Readers)
    R.join();

  // Quiesced now: restore of a live snapshot must succeed.
  ElisionSnapshot S = L.controller().snapshot();
  EXPECT_TRUE(L.controller().restore(S));
}

} // namespace
