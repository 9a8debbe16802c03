// Flat, versioned, mmap-able model artifact container.
//
// A model that re-parsed every circuit node and recompiled every tape,
// layout and kernel schedule on load would pay O(model) work before the
// first query.  This container instead persists the *compiled* flat
// arrays byte-for-byte behind a section table, so a loader can mmap the
// file and hand out typed views
// into the mapped pages: load cost is O(pages touched), not O(model), and
// N processes serving one model share one page-cache copy (the
// phrase-table-on-disk idiom).
//
// Layout (all integers little-endian, the only byte order the toolchain
// targets — the header carries an endianness tag so a foreign-order file
// is rejected, not misread):
//
//   FileHeader        104 bytes: magic, format version, endianness tag,
//                     file size, content hash, section count, model name
//   SectionEntry[n]   32 bytes each: id, offset, length, checksum
//   payloads          each 64-byte aligned, zero-padded between sections
//
// Section ids are assigned by the producer (runtime/compiled_model.cpp owns
// the model schema); this layer only stores and validates opaque byte
// ranges.  Every payload carries a 64-bit checksum (fnv1a64 below — a
// word-folded FNV-1a variant, chosen so open()-time validation streams at
// memory speed instead of byte-serial multiply latency) and the header a
// content hash folding the section checksum column, both verified at
// open() together with the bounds of every section — a truncated,
// bit-flipped or foreign file fails loudly before any typed view is
// handed out.  Writes go through a temp file in
// the destination directory plus an atomic rename, so readers never
// observe a half-written artifact.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/array_store.hpp"
#include "util/error.hpp"

namespace problp::runtime {

/// First bytes of every binary model artifact ("\x7fPLPMDL\0").
inline constexpr unsigned char kArtifactMagic[8] = {0x7F, 'P', 'L', 'P', 'M', 'D', 'L', 0};
/// Format version this build writes and reads.
inline constexpr std::uint32_t kArtifactVersion = 1;
/// Byte-order tag as written by a little-endian producer; a big-endian
/// file reads back as 0x04030201 and is rejected.
inline constexpr std::uint32_t kArtifactEndianTag = 0x01020304;
/// Alignment of every section payload — covers every element type the
/// model stores (u128 needs 16) and keeps rows cache-line aligned.
inline constexpr std::size_t kSectionAlign = 64;

/// 64-bit checksum over `size` bytes, continuing from `seed`: FNV-1a
/// folded over little-endian 8-byte words (four interleaved lanes, merged,
/// then a zero-padded tail word tagged with the residual length).  Not
/// byte-compatible with classic FNV-1a — it is the artifact format's own
/// checksum, defined with the format and versioned with it.  The word
/// folding breaks the xor-multiply dependency chain that makes byte-serial
/// FNV latency-bound, so full-file validation costs a fraction of a
/// millisecond per megabyte instead of milliseconds.
std::uint64_t fnv1a64(const void* data, std::size_t size,
                      std::uint64_t seed = 0xcbf29ce484222325ULL);

/// Cheap identity of an artifact, read from the header alone (no payload
/// validation) — what a registry needs to key and size a cache without
/// paying a full open.
struct ArtifactInfo {
  std::uint32_t version = 0;
  std::string name;                 ///< producer-assigned model name (<= 63 chars)
  std::uint64_t content_hash = 0;   ///< fnv1a64 over the section checksum column
  std::uint64_t file_size = 0;
  std::uint32_t num_sections = 0;
};

/// Accumulates sections in memory, then writes the container atomically
/// (temp file in the destination directory + rename).
class ArtifactWriter {
 public:
  explicit ArtifactWriter(std::string name) : name_(std::move(name)) {}

  /// Appends one section; ids must be unique within the artifact.
  void add(std::uint32_t id, const void* data, std::size_t size);

  void add_text(std::uint32_t id, const std::string& text) { add(id, text.data(), text.size()); }

  template <class T>
  void add_array(std::uint32_t id, const util::ArrayStore<T>& store) {
    add(id, store.data(), store.size() * sizeof(T));
  }
  template <class T>
  void add_array(std::uint32_t id, const std::vector<T>& v) {
    add(id, v.data(), v.size() * sizeof(T));
  }

  /// Writes the container to `path` via temp file + atomic rename.  Throws
  /// util Error on any I/O failure; the destination is untouched on error.
  void write(const std::string& path) const;

 private:
  struct Pending {
    std::uint32_t id;
    std::vector<unsigned char> bytes;
  };
  std::string name_;
  std::vector<Pending> sections_;
};

/// A validated, memory-mapped (or, when mapping fails, heap-read) artifact.
/// Typed views returned by array()/text() alias the mapping and stay valid
/// for this object's lifetime — keep it alive (shared_ptr) for as long as
/// any adopted view is.
class MappedArtifact {
 public:
  /// Header-only read: identity of the artifact without validating or
  /// touching payload pages.  Throws on a missing/foreign/short file; a
  /// legacy `problp-model` text artifact gets a message asking for a
  /// re-save.
  static ArtifactInfo peek(const std::string& path);

  /// Maps and fully validates `path`: magic, version, endianness, file
  /// size, per-section bounds + alignment + checksum, whole-content hash,
  /// and (on the mmap path) a final fstat re-check that the file did not
  /// change size during validation — the defence against a writer
  /// truncating the artifact after we mapped it.  Throws util Error with a
  /// found-vs-expected message on any mismatch.  `read_copy` skips mmap and
  /// reads the file into an owned heap buffer: slower cold load and no
  /// page-cache sharing, but the model is immune to the backing file being
  /// truncated or rewritten after open.
  static MappedArtifact open(const std::string& path, bool read_copy = false);

  MappedArtifact(MappedArtifact&& other) noexcept { *this = std::move(other); }
  MappedArtifact& operator=(MappedArtifact&& other) noexcept;
  MappedArtifact(const MappedArtifact&) = delete;
  MappedArtifact& operator=(const MappedArtifact&) = delete;
  ~MappedArtifact();

  const ArtifactInfo& info() const { return info_; }
  bool mapped() const { return mapped_; }  ///< false = heap-read fallback

  bool has(std::uint32_t id) const { return find(id) != nullptr; }

  /// Typed view of section `id`; length must divide evenly into T and the
  /// payload alignment covers alignof(T) by construction.  Throws if the
  /// section is absent or mis-sized.
  template <class T>
  util::ArrayStore<T> array(std::uint32_t id) const {
    const Entry* e = require_section(id);
    require(e->length % sizeof(T) == 0,
            "artifact: section " + std::to_string(id) + " length " + std::to_string(e->length) +
                " is not a whole number of elements");
    return util::ArrayStore<T>::view(reinterpret_cast<const T*>(base_ + e->offset),
                                     e->length / sizeof(T));
  }

  /// Section `id` as a string copy (for small text payloads).
  std::string text(std::uint32_t id) const;

  /// Raw bytes of section `id`.
  const unsigned char* bytes(std::uint32_t id, std::size_t* size) const;

 private:
  struct Entry {
    std::uint32_t id;
    std::uint64_t offset;
    std::uint64_t length;
  };

  MappedArtifact() = default;

  const Entry* find(std::uint32_t id) const;
  const Entry* require_section(std::uint32_t id) const;
  void reset() noexcept;

  ArtifactInfo info_;
  std::vector<Entry> entries_;
  const unsigned char* base_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;                     ///< true: munmap on destroy
  std::vector<unsigned char> fallback_;     ///< owns bytes when !mapped_
};

}  // namespace problp::runtime
