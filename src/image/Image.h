//===- image/Image.h - Warm-image serialization format ----------*- C++ -*-===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The on-disk format for warm-runtime images (DESIGN.md §16): a fixed
/// header — magic, format version, payload length, FNV-1a checksum — over a
/// payload of named blobs. What goes into a blob is decided by the codecs in
/// image/Resources.h; this file only moves validated bytes.
///
/// Every read is bounds-checked and every failure is sticky: a truncated,
/// corrupted, or version-skewed image surfaces as a Diagnostic and an empty
/// LoadedImage, never as undefined behavior or a crash — the caller falls
/// back to a cold start. Integers are serialized little-endian at fixed
/// width via memcpy, so an image is portable across the compilers this
/// repo builds with (all little-endian targets).
///
//===----------------------------------------------------------------------===//

#ifndef SOLERO_IMAGE_IMAGE_H
#define SOLERO_IMAGE_IMAGE_H

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace solero {
namespace image {

/// Format constants. Bump Version on any layout change: restore rejects
/// images of any other version (version skew degrades to cold start by
/// policy — no cross-version migration code to get wrong).
inline constexpr uint32_t ImageMagic = 0x534F4C49; // "SOLI"
inline constexpr uint32_t ImageVersion = 2;

/// Why an image failed to load.
enum class ImageDiag : uint8_t {
  None,
  MissingFile,      ///< the --restore path does not exist / is unreadable
  ShortHeader,      ///< fewer bytes than the fixed header
  BadMagic,         ///< not an image file at all
  VersionSkew,      ///< a different format version
  Truncated,        ///< payload shorter than the header promises
  ChecksumMismatch, ///< payload bytes corrupted
  MalformedPayload, ///< blob directory does not parse
  WriteFailed,      ///< checkpoint could not write the file
};

const char *imageDiagName(ImageDiag D);

/// One load/checkpoint diagnostic (the "logged via a Diagnostic, never a
/// crash" of the fallback policy).
struct Diagnostic {
  ImageDiag Code = ImageDiag::None;
  std::string Detail;

  bool ok() const { return Code == ImageDiag::None; }
  /// "warm image rejected (<code>): <detail>; falling back to cold start"
  std::string render() const;
};

/// Append-only little-endian encoder for one blob.
class ImageWriter {
public:
  void u8(uint8_t V) { Bytes.push_back(V); }
  void u32(uint32_t V) { appendLe(&V, sizeof(V)); }
  void u64(uint64_t V) { appendLe(&V, sizeof(V)); }
  void i32(int32_t V) { u32(static_cast<uint32_t>(V)); }
  void i64(int64_t V) { u64(static_cast<uint64_t>(V)); }
  void str(const std::string &S) {
    u32(static_cast<uint32_t>(S.size()));
    Bytes.insert(Bytes.end(), S.begin(), S.end());
  }
  void bytes(const uint8_t *Data, std::size_t Len) {
    if (Len == 0)
      return; // an empty blob's data() may be null
    Bytes.insert(Bytes.end(), Data, Data + Len);
  }

  const std::vector<uint8_t> &data() const { return Bytes; }
  std::vector<uint8_t> take() { return std::move(Bytes); }

private:
  void appendLe(const void *V, std::size_t N) {
    // Host is little-endian on every target this repo builds for; memcpy
    // keeps the access alignment-safe and the width explicit.
    const auto *P = static_cast<const uint8_t *>(V);
    Bytes.insert(Bytes.end(), P, P + N);
  }

  std::vector<uint8_t> Bytes;
};

/// Bounds-checked cursor over a blob. The first out-of-range read trips
/// the sticky failed() flag; every subsequent read returns zero, so codecs
/// can decode straight-line and check ok() once at the end.
class ImageReader {
public:
  ImageReader(const uint8_t *Data, std::size_t Len) : Data(Data), Len(Len) {}
  explicit ImageReader(const std::vector<uint8_t> &V)
      : ImageReader(V.data(), V.size()) {}

  uint8_t u8() {
    uint8_t V = 0;
    read(&V, sizeof(V));
    return V;
  }
  uint32_t u32() {
    uint32_t V = 0;
    read(&V, sizeof(V));
    return V;
  }
  uint64_t u64() {
    uint64_t V = 0;
    read(&V, sizeof(V));
    return V;
  }
  int32_t i32() { return static_cast<int32_t>(u32()); }
  int64_t i64() { return static_cast<int64_t>(u64()); }
  std::string str() {
    uint32_t N = u32();
    if (N > remaining()) {
      Failed = true;
      return {};
    }
    std::string S(reinterpret_cast<const char *>(Data + Pos), N);
    Pos += N;
    return S;
  }

  /// Copies \p N raw bytes out (blob bodies); zero-fills on failure.
  /// N == 0 is a no-op: an empty blob has a null data() pointer, which
  /// memcpy/memset must never see even with a zero length.
  void bytesInto(uint8_t *Out, std::size_t N) {
    if (N == 0)
      return;
    if (Failed || Len - Pos < N) {
      Failed = true;
      std::memset(Out, 0, N);
      return;
    }
    std::memcpy(Out, Data + Pos, N);
    Pos += N;
  }

  std::size_t remaining() const { return Failed ? 0 : Len - Pos; }
  bool failed() const { return Failed; }
  /// Fully consumed without a bounds failure — codecs should insist on
  /// this so a long blob from a different layout cannot half-parse.
  bool ok() const { return !Failed && Pos == Len; }

private:
  void read(void *Out, std::size_t N) {
    if (Failed || Len - Pos < N) {
      Failed = true;
      return;
    }
    std::memcpy(Out, Data + Pos, N);
    Pos += N;
  }

  const uint8_t *Data;
  std::size_t Len;
  std::size_t Pos = 0;
  bool Failed = false;
};

/// FNV-1a over \p Data (the payload checksum).
uint64_t fnv1a(const uint8_t *Data, std::size_t Len);

/// Collects named blobs and serializes header + payload.
class ImageBuilder {
public:
  /// Adds (or replaces) one named blob.
  void addBlob(const std::string &Name, std::vector<uint8_t> Data);

  /// Header + blob directory, checksummed — ready to write.
  std::vector<uint8_t> build() const;

  /// build() to \p Path. On failure returns false and fills \p Diag.
  bool writeFile(const std::string &Path, Diagnostic &Diag) const;

  std::size_t blobCount() const { return Blobs.size(); }

private:
  std::vector<std::pair<std::string, std::vector<uint8_t>>> Blobs;
};

/// A validated, loaded image: header verified (magic, version, length,
/// checksum) and blob directory parsed. Construction via the factories
/// below; any validation failure yields loaded()==false plus a Diagnostic,
/// and blob() then misses for every name — the caller's cold-start path.
class LoadedImage {
public:
  LoadedImage() = default;

  static LoadedImage fromBytes(const uint8_t *Data, std::size_t Len,
                               Diagnostic &Diag);
  static LoadedImage fromBytes(const std::vector<uint8_t> &Bytes,
                               Diagnostic &Diag) {
    return fromBytes(Bytes.data(), Bytes.size(), Diag);
  }
  static LoadedImage fromFile(const std::string &Path, Diagnostic &Diag);

  bool loaded() const { return Ok; }
  /// The named blob, or nullptr when absent (that component starts cold).
  const std::vector<uint8_t> *blob(const std::string &Name) const;
  std::size_t blobCount() const { return Blobs.size(); }

private:
  bool Ok = false;
  std::vector<std::pair<std::string, std::vector<uint8_t>>> Blobs;
};

} // namespace image
} // namespace solero

#endif // SOLERO_IMAGE_IMAGE_H
