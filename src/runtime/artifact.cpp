#include "runtime/artifact.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "util/fault_injection.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define PROBLP_HAVE_MMAP 1
#endif

namespace problp::runtime {

namespace {

// On-disk header, field by field.  Written and read with explicit
// little-endian put/get rather than a struct memcpy, so the format is
// defined by this code, not by the compiler's layout choices.
constexpr std::size_t kHeaderSize = 8 + 4 + 4 + 8 + 8 + 4 + 4 + 64;  // 104
constexpr std::size_t kEntrySize = 4 + 4 + 8 + 8 + 8;                // 32
constexpr std::size_t kNameBytes = 64;
constexpr std::size_t kMaxSections = 1u << 20;  ///< sanity bound on the table

void put_u32(std::vector<unsigned char>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<unsigned char>(v >> (8 * i)));
}

void put_u64(std::vector<unsigned char>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<unsigned char>(v >> (8 * i)));
}

std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

std::size_t align_up(std::size_t v) {
  return (v + kSectionAlign - 1) / kSectionAlign * kSectionAlign;
}

#if PROBLP_HAVE_MMAP
/// Keeps the artifact fd open across the whole of open()-time validation so
/// the final truncation re-check stats the same file the mapping came from
/// (a path re-open could race a rename).  Closes on every exit path.
struct FdGuard {
  int fd = -1;
  ~FdGuard() {
    if (fd >= 0) ::close(fd);
  }
};
#endif

}  // namespace

std::uint64_t fnv1a64(const void* data, std::size_t size, std::uint64_t seed) {
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  const auto word = [](const unsigned char* q) {
    std::uint64_t w = 0;
    std::memcpy(&w, q, sizeof w);  // artifacts are little-endian by contract
    return w;
  };
  // Four independent xor-multiply lanes over 32-byte strides: each lane's
  // chain advances once per 32 input bytes, so the 3-cycle multiply latency
  // overlaps with loads instead of serialising per byte.
  std::uint64_t lane[4] = {seed ^ 0x9e3779b97f4a7c15ULL, seed ^ 0xbf58476d1ce4e5b9ULL,
                           seed ^ 0x94d049bb133111ebULL, seed ^ 0xd6e8feb86659fd93ULL};
  std::size_t i = 0;
  for (; i + 32 <= size; i += 32) {
    for (int l = 0; l < 4; ++l) lane[l] = (lane[l] ^ word(p + i + 8 * l)) * kPrime;
  }
  std::uint64_t h = seed;
  for (int l = 0; l < 4; ++l) h = (h ^ lane[l]) * kPrime;
  for (; i + 8 <= size; i += 8) h = (h ^ word(p + i)) * kPrime;
  if (i < size) {
    // Zero-padded tail word, tagged with the residual length so "aa" and
    // "aa\0" keep distinct hashes.
    std::uint64_t tail = static_cast<std::uint64_t>(size - i) << 56;
    for (int shift = 0; i < size; ++i, shift += 8) {
      tail |= static_cast<std::uint64_t>(p[i]) << shift;
    }
    h = (h ^ tail) * kPrime;
  }
  return h;
}

void ArtifactWriter::add(std::uint32_t id, const void* data, std::size_t size) {
  for (const Pending& s : sections_) {
    require(s.id != id, "artifact: duplicate section id " + std::to_string(id));
  }
  Pending p;
  p.id = id;
  p.bytes.assign(static_cast<const unsigned char*>(data),
                 static_cast<const unsigned char*>(data) + size);
  sections_.push_back(std::move(p));
}

void ArtifactWriter::write(const std::string& path) const {
  // Lay out offsets first: header, table, then 64-byte-aligned payloads.
  const std::size_t table_end = kHeaderSize + sections_.size() * kEntrySize;
  std::vector<std::uint64_t> offsets(sections_.size());
  std::size_t cursor = align_up(table_end);
  std::vector<std::uint64_t> checksums(sections_.size());
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    offsets[i] = cursor;
    cursor = align_up(cursor + sections_[i].bytes.size());
    checksums[i] = fnv1a64(sections_[i].bytes.data(), sections_[i].bytes.size());
  }
  // The content hash folds the per-section checksums (in table order), not
  // the payload bytes again: it still pins every payload bit transitively
  // while keeping identity peeks and open()-time validation single-pass.
  const std::uint64_t content_hash =
      fnv1a64(checksums.data(), checksums.size() * sizeof(std::uint64_t));
  // The final pad keeps file_size == the laid-out cursor, so a truncated
  // tail section is caught by the size check alone.
  const std::uint64_t file_size = cursor;

  std::vector<unsigned char> head;
  head.reserve(table_end);
  head.insert(head.end(), kArtifactMagic, kArtifactMagic + 8);
  put_u32(head, kArtifactVersion);
  put_u32(head, kArtifactEndianTag);
  put_u64(head, file_size);
  put_u64(head, content_hash);
  put_u32(head, static_cast<std::uint32_t>(sections_.size()));
  put_u32(head, 0);  // reserved
  unsigned char name[kNameBytes] = {};
  std::memcpy(name, name_.data(), std::min(name_.size(), kNameBytes - 1));
  head.insert(head.end(), name, name + kNameBytes);
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    put_u32(head, sections_[i].id);
    put_u32(head, 0);  // reserved
    put_u64(head, offsets[i]);
    put_u64(head, sections_[i].bytes.size());
    put_u64(head, checksums[i]);
  }

  // Temp file in the destination directory (rename is atomic only within
  // one filesystem), then one atomic publish.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    require(out.good(), "artifact: cannot open temp file " + tmp);
    out.write(reinterpret_cast<const char*>(head.data()),
              static_cast<std::streamsize>(head.size()));
    std::size_t written = head.size();
    for (std::size_t i = 0; i < sections_.size(); ++i) {
      const std::size_t pad = static_cast<std::size_t>(offsets[i]) - written;
      static const char zeros[kSectionAlign] = {};
      out.write(zeros, static_cast<std::streamsize>(pad));
      out.write(reinterpret_cast<const char*>(sections_[i].bytes.data()),
                static_cast<std::streamsize>(sections_[i].bytes.size()));
      written = static_cast<std::size_t>(offsets[i]) + sections_[i].bytes.size();
    }
    static const char zeros[kSectionAlign] = {};
    out.write(zeros, static_cast<std::streamsize>(static_cast<std::size_t>(file_size) - written));
    // Fault site: a failed payload stream (disk full, I/O error) must leave
    // the destination untouched — the fired site poisons the stream so the
    // real short-write error path below runs.
    if (util::fault_point("artifact.write")) out.setstate(std::ios::failbit);
    out.flush();
    if (!out.good()) {
      out.close();
      std::remove(tmp.c_str());
      throw Error("artifact: write failed for " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw Error("artifact: atomic rename to " + path + " failed");
  }
}

ArtifactInfo MappedArtifact::peek(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  require(in.good(), "artifact: cannot open " + path);
  unsigned char head[kHeaderSize];
  in.read(reinterpret_cast<char*>(head), kHeaderSize);
  const auto got = static_cast<std::size_t>(in.gcount());
  if (got < sizeof kArtifactMagic ||
      std::memcmp(head, kArtifactMagic, sizeof kArtifactMagic) != 0) {
    // The pre-binary text artifact started with a "problp-model <version>"
    // line; name it, so the fix (a re-save) is in the message.
    const std::string found(reinterpret_cast<const char*>(head), got);
    if (found.rfind("problp-model", 0) == 0) {
      throw Error("artifact: " + path + ": found legacy text artifact '" +
                  found.substr(0, found.find('\n')) +
                  "', expected binary model artifact — re-save it with CompiledModel::save / "
                  "problp_cli --save-model");
    }
    throw Error("artifact: " + path + " is not a binary model artifact (bad magic)");
  }
  require(got == kHeaderSize, "artifact: " + path + " is shorter than a header");
  ArtifactInfo info;
  info.version = get_u32(head + 8);
  const std::uint32_t endian = get_u32(head + 12);
  require(endian == kArtifactEndianTag,
          "artifact: " + path + " was written on a foreign-endian machine (tag 0x" +
              [endian] {
                char buf[16];
                std::snprintf(buf, sizeof buf, "%08x", endian);
                return std::string(buf);
              }() +
              ", expected 0x01020304)");
  info.file_size = get_u64(head + 16);
  info.content_hash = get_u64(head + 24);
  info.num_sections = get_u32(head + 32);
  const char* name = reinterpret_cast<const char*>(head + 40);
  info.name.assign(name, strnlen(name, kNameBytes));
  return info;
}

MappedArtifact& MappedArtifact::operator=(MappedArtifact&& other) noexcept {
  if (this != &other) {
    reset();
    info_ = std::move(other.info_);
    entries_ = std::move(other.entries_);
    base_ = other.base_;
    size_ = other.size_;
    mapped_ = other.mapped_;
    fallback_ = std::move(other.fallback_);
    other.base_ = nullptr;
    other.size_ = 0;
    other.mapped_ = false;
  }
  return *this;
}

MappedArtifact::~MappedArtifact() { reset(); }

void MappedArtifact::reset() noexcept {
#if PROBLP_HAVE_MMAP
  if (mapped_ && base_ != nullptr) {
    ::munmap(const_cast<unsigned char*>(base_), size_);
  }
#endif
  base_ = nullptr;
  size_ = 0;
  mapped_ = false;
  fallback_.clear();
}

MappedArtifact MappedArtifact::open(const std::string& path, bool read_copy) {
  MappedArtifact art;
  art.info_ = peek(path);  // header checks: magic, endianness

  require(art.info_.version == kArtifactVersion,
          "artifact: " + path + " has format version " + std::to_string(art.info_.version) +
              ", this build reads version " + std::to_string(kArtifactVersion));

#if PROBLP_HAVE_MMAP
  FdGuard guard;
  if (!read_copy) {
    guard.fd = ::open(path.c_str(), O_RDONLY);
    require(guard.fd >= 0, "artifact: cannot open " + path);
    struct stat st;
    require(::fstat(guard.fd, &st) == 0, "artifact: cannot stat " + path);
    art.size_ = static_cast<std::size_t>(st.st_size);
    if (art.size_ > 0) {
      // Fault site: a failed mapping (address-space pressure, an fs without
      // mmap) must fall through to the heap-read path, not error out.
      void* map = util::fault_point("artifact.mmap")
                      ? MAP_FAILED
                      : ::mmap(nullptr, art.size_, PROT_READ, MAP_PRIVATE, guard.fd, 0);
      if (map != MAP_FAILED) {
        art.base_ = static_cast<const unsigned char*>(map);
        art.mapped_ = true;
      }
    }
  }
#else
  (void)read_copy;  // no mapping to opt out of
#endif
  if (!art.mapped_) {
    // Portable fallback — and the read_copy mode: read the whole file into
    // an owned buffer.  Same views, same validation — only the sharing /
    // laziness is lost, and in exchange the model is immune to the file
    // being truncated or rewritten after open (nothing aliases the pages).
    std::ifstream in(path, std::ios::binary);
    require(in.good(), "artifact: cannot open " + path);
    in.seekg(0, std::ios::end);
    art.size_ = static_cast<std::size_t>(in.tellg());
    in.seekg(0);
    art.fallback_.resize(art.size_);
    in.read(reinterpret_cast<char*>(art.fallback_.data()),
            static_cast<std::streamsize>(art.size_));
    std::size_t got = static_cast<std::size_t>(in.gcount());
    // Fault site: the stream delivers fewer bytes than the file claimed.
    if (util::fault_point("artifact.short_read")) got /= 2;
    require(got == art.size_, "artifact: short read of " + path);
    art.base_ = art.fallback_.data();
  }

  require(art.info_.file_size == art.size_,
          "artifact: " + path + " is " + std::to_string(art.size_) + " bytes, header says " +
              std::to_string(art.info_.file_size) + " (truncated or trailing garbage)");
  require(art.info_.num_sections <= kMaxSections,
          "artifact: " + path + " claims an implausible section count");
  const std::size_t table_end =
      kHeaderSize + static_cast<std::size_t>(art.info_.num_sections) * kEntrySize;
  require(table_end <= art.size_, "artifact: " + path + " section table exceeds the file");

  std::vector<std::uint64_t> checksums(art.info_.num_sections);
  art.entries_.reserve(art.info_.num_sections);
  for (std::uint32_t i = 0; i < art.info_.num_sections; ++i) {
    const unsigned char* e = art.base_ + kHeaderSize + i * kEntrySize;
    Entry entry;
    entry.id = get_u32(e);
    entry.offset = get_u64(e + 8);
    entry.length = get_u64(e + 16);
    checksums[i] = get_u64(e + 24);
    require(entry.offset % kSectionAlign == 0,
            "artifact: section " + std::to_string(entry.id) + " is misaligned");
    require(entry.offset <= art.size_ && entry.length <= art.size_ - entry.offset,
            "artifact: section " + std::to_string(entry.id) + " exceeds the file (offset " +
                std::to_string(entry.offset) + ", length " + std::to_string(entry.length) + ")");
    std::uint64_t got = fnv1a64(art.base_ + entry.offset, entry.length);
    // Fault site: one flipped bit in a payload, as a bit rot / torn write
    // would produce — exercises the real mismatch path below.
    if (util::fault_point("artifact.checksum")) got ^= 1;
    require(got == checksums[i], "artifact: section " + std::to_string(entry.id) +
                                     " checksum mismatch (corrupt payload)");
    art.entries_.push_back(entry);
  }
  // Folding the (already verified) checksum column reproduces the header's
  // content hash without a second pass over the payload bytes.
  require(fnv1a64(checksums.data(), checksums.size() * sizeof(std::uint64_t)) ==
              art.info_.content_hash,
          "artifact: " + path + " content hash mismatch (corrupt or inconsistent file)");
#if PROBLP_HAVE_MMAP
  if (guard.fd >= 0) {
    // Truncation re-check: every byte above was validated through the
    // mapping, but a writer that truncates the file *after* our fstat
    // leaves the tail of the mapping backed by nothing — later lazy
    // touches would SIGBUS, long past this validation.  Re-stat the same
    // fd and refuse the artifact if its size moved under us.  (This closes
    // the open()-time window only; for full immunity against concurrent
    // truncation use the read_copy mode, which owns its bytes.)
    struct stat st;
    require(::fstat(guard.fd, &st) == 0, "artifact: cannot re-stat " + path);
    std::uint64_t size_now = static_cast<std::uint64_t>(st.st_size);
    // Fault site: the file shrank between validation and the re-check.
    if (util::fault_point("artifact.size_recheck")) size_now /= 2;
    require(size_now == art.info_.file_size,
            "artifact: " + path + " changed size during open (now " +
                std::to_string(size_now) + " bytes, validated " +
                std::to_string(art.info_.file_size) + ") — concurrent truncation");
  }
#endif
  return art;
}

const MappedArtifact::Entry* MappedArtifact::find(std::uint32_t id) const {
  for (const Entry& e : entries_) {
    if (e.id == id) return &e;
  }
  return nullptr;
}

const MappedArtifact::Entry* MappedArtifact::require_section(std::uint32_t id) const {
  const Entry* e = find(id);
  require(e != nullptr, "artifact: missing section " + std::to_string(id));
  return e;
}

std::string MappedArtifact::text(std::uint32_t id) const {
  const Entry* e = require_section(id);
  return std::string(reinterpret_cast<const char*>(base_ + e->offset),
                     static_cast<std::size_t>(e->length));
}

const unsigned char* MappedArtifact::bytes(std::uint32_t id, std::size_t* size) const {
  const Entry* e = require_section(id);
  *size = static_cast<std::size_t>(e->length);
  return base_ + e->offset;
}

}  // namespace problp::runtime
