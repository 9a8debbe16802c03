// The binary model artifact + the model registry.
//
// Contract under test: the mmap container round-trips a compiled model
// bitwise (exact, fixed and float query results identical between the
// in-memory model and the zero-copy loaded one); every corruption in the
// matrix — truncation anywhere, flipped payload bits, flipped table bits,
// foreign byte order, out-of-bounds section geometry, wrong version — is
// rejected with a problp::Error, never undefined behaviour; saves are
// atomic (temp + rename, no temp debris); the legacy text artifact is
// refused by both load entry points with a re-save hint; and the registry shares one mapping
// per content hash, serves multiple models concurrently, and LRU-evicts
// pins without pulling live models out from under their sessions.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <thread>
#include <vector>

#include "ac/serialize.hpp"
#include "bn/random_network.hpp"
#include "helpers.hpp"
#include "runtime/artifact.hpp"
#include "runtime/model_registry.hpp"
#include "runtime/session.hpp"
#include "util/rng.hpp"

namespace problp {
namespace {

using errormodel::QuerySpec;
using errormodel::QueryType;
using errormodel::ToleranceKind;
using runtime::ArtifactWriter;
using runtime::CompiledModel;
using runtime::InferenceSession;
using runtime::MappedArtifact;
using runtime::ModelRegistry;
using runtime::SessionOptions;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "problp_artifact_test_" + name;
}

std::vector<unsigned char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

bn::BayesianNetwork test_network(std::uint64_t seed, int num_variables = 8) {
  Rng rng(seed);
  bn::RandomNetworkSpec spec;
  spec.num_variables = num_variables;
  bn::BayesianNetwork network = bn::make_random_network(spec, rng);
  network.set_name("testnet" + std::to_string(seed));
  return network;
}

std::vector<ac::PartialAssignment> test_evidence(const bn::BayesianNetwork& network, int count,
                                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ac::PartialAssignment> out;
  for (int i = 0; i < count; ++i) {
    ac::PartialAssignment a(static_cast<std::size_t>(network.num_variables()));
    for (int v = 0; v < network.num_variables(); ++v) {
      if (rng.coin()) {
        a[static_cast<std::size_t>(v)] = rng.uniform_int(0, network.cardinality(v) - 1);
      }
    }
    out.push_back(std::move(a));
  }
  return out;
}

std::vector<std::uint64_t> bits_of(const std::vector<double>& values) {
  std::vector<std::uint64_t> bits(values.size());
  std::memcpy(bits.data(), values.data(), values.size() * sizeof(double));
  return bits;
}

// ---- container layer -------------------------------------------------------

TEST(Artifact, ContainerRoundTrip) {
  const std::string path = temp_path("container.pm");
  ArtifactWriter writer("roundtrip-model");
  const std::vector<std::int32_t> ints = {1, -2, 3, 2000000000};
  const std::vector<double> doubles = {0.25, -1e300, 3.5};
  writer.add_array(7, ints);
  writer.add_array(9, doubles);
  writer.add_text(11, "hello sections");
  writer.write(path);

  const runtime::ArtifactInfo info = MappedArtifact::peek(path);
  EXPECT_EQ(info.version, runtime::kArtifactVersion);
  EXPECT_EQ(info.name, "roundtrip-model");
  EXPECT_EQ(info.num_sections, 3u);
  EXPECT_EQ(info.file_size, read_file(path).size());

  const MappedArtifact art = MappedArtifact::open(path);
  EXPECT_EQ(art.info().content_hash, info.content_hash);
  EXPECT_TRUE(art.has(7));
  EXPECT_FALSE(art.has(8));
  const auto got_ints = art.array<std::int32_t>(7);
  ASSERT_EQ(got_ints.size(), ints.size());
  EXPECT_TRUE(std::equal(ints.begin(), ints.end(), got_ints.begin()));
  const auto got_doubles = art.array<double>(9);
  EXPECT_TRUE(std::equal(doubles.begin(), doubles.end(), got_doubles.begin()));
  EXPECT_EQ(art.text(11), "hello sections");
  // A section whose length is not a multiple of the element width must be
  // rejected (the 14-byte text section read as doubles), as must a missing
  // section id.
  EXPECT_THROW(art.array<double>(11), Error);
  EXPECT_THROW(art.array<std::int32_t>(12), Error);
}

TEST(Artifact, AtomicSaveLeavesNoTempDebris) {
  const std::string path = temp_path("atomic.pm");
  ArtifactWriter writer("atomic");
  const std::vector<std::int32_t> payload = {1, 2, 3};
  writer.add_array(1, payload);
  writer.write(path);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  // Overwriting an existing artifact goes through the same rename; the
  // destination is never a partially-written hybrid of old and new.
  ArtifactWriter writer2("atomic2");
  const std::vector<std::int32_t> payload2 = {9, 9, 9, 9};
  writer2.add_array(1, payload2);
  writer2.write(path);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  const MappedArtifact art = MappedArtifact::open(path);
  EXPECT_EQ(art.info().name, "atomic2");
  EXPECT_EQ(art.array<std::int32_t>(1).size(), payload2.size());
}

TEST(Artifact, CorruptionMatrix) {
  const std::string path = temp_path("corrupt_src.pm");
  ArtifactWriter writer("corruptible");
  std::vector<std::int32_t> big(4096);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::int32_t>(i * 7);
  writer.add_array(1, big);
  writer.add_text(2, "decomposition balanced\n");
  writer.write(path);
  const std::vector<unsigned char> pristine = read_file(path);
  const std::string mutant = temp_path("corrupt_mut.pm");

  const auto expect_rejected = [&](std::vector<unsigned char> bytes, const char* what) {
    write_file(mutant, bytes);
    EXPECT_THROW(MappedArtifact::open(mutant), Error) << what;
  };

  // Truncations at every interesting boundary: mid-magic, mid-header,
  // mid-section-table, mid-payload, one byte short.
  for (const std::size_t keep :
       {std::size_t{3}, std::size_t{60}, std::size_t{110}, pristine.size() / 2,
        pristine.size() - 1}) {
    expect_rejected({pristine.begin(), pristine.begin() + static_cast<long>(keep)},
                    "truncated file");
  }

  {  // Flipped payload bit -> section checksum mismatch.
    std::vector<unsigned char> bytes = pristine;
    bytes[bytes.size() - 100] ^= 0x40;
    expect_rejected(bytes, "flipped payload bit");
  }
  {  // Flipped checksum in the section table -> checksum mismatch.
    std::vector<unsigned char> bytes = pristine;
    bytes[104 + 24] ^= 0x01;  // first entry's checksum field
    expect_rejected(bytes, "flipped table checksum");
  }
  {  // Foreign byte order: the endianness tag reads back swapped.
    std::vector<unsigned char> bytes = pristine;
    std::swap(bytes[12], bytes[15]);
    std::swap(bytes[13], bytes[14]);
    expect_rejected(bytes, "endianness tag");
  }
  {  // Oversized section offset -> bounds rejection before any dereference.
    std::vector<unsigned char> bytes = pristine;
    bytes[104 + 8 + 6] = 0x7f;  // first entry's offset, high bytes
    expect_rejected(bytes, "oversized offset");
  }
  {  // Misaligned section offset.
    std::vector<unsigned char> bytes = pristine;
    bytes[104 + 8] ^= 0x01;
    expect_rejected(bytes, "misaligned offset");
  }
  {  // Oversized section length.
    std::vector<unsigned char> bytes = pristine;
    bytes[104 + 16 + 5] = 0x7f;
    expect_rejected(bytes, "oversized length");
  }
  {  // Bad magic: not this container at all.
    std::vector<unsigned char> bytes = pristine;
    bytes[0] = 'X';
    write_file(mutant, bytes);
    EXPECT_THROW(MappedArtifact::peek(mutant), Error);
    EXPECT_THROW(MappedArtifact::open(mutant), Error);
  }
  {  // Wrong format version: the message names found and expected.
    std::vector<unsigned char> bytes = pristine;
    bytes[8] = 0x2a;  // version 42
    write_file(mutant, bytes);
    try {
      MappedArtifact::open(mutant);
      FAIL() << "version 42 artifact must not open";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("42"), std::string::npos) << what;
      EXPECT_NE(what.find(std::to_string(runtime::kArtifactVersion)), std::string::npos)
          << what;
      EXPECT_NE(what.find("version"), std::string::npos) << what;
    }
  }
  {  // Lied-about file size.
    std::vector<unsigned char> bytes = pristine;
    bytes[16] ^= 0x01;
    expect_rejected(bytes, "file size mismatch");
  }
}

// ---- model layer -----------------------------------------------------------

TEST(ModelArtifact, BinaryRoundTripIsBitwiseIdentical) {
  const std::string path = temp_path("model.pm");
  const bn::BayesianNetwork network = test_network(3);
  const auto model = CompiledModel::compile(network);
  const QuerySpec spec{QueryType::kMarginal, ToleranceKind::kAbsolute, 0.01};
  const AnalysisReport report = model->analyze(spec);
  model->save(path);

  const auto loaded = CompiledModel::load(path);
  EXPECT_TRUE(loaded->memory_mapped());
  EXPECT_EQ(loaded->name(), network.name());
  EXPECT_EQ(loaded->artifact_version(), runtime::kArtifactVersion);
  EXPECT_EQ(loaded->cardinalities(), model->cardinalities());
  EXPECT_EQ(loaded->options().decomposition, model->options().decomposition);

  const auto evidence = test_evidence(network, 64, 11);
  const auto sweep = [&](const std::shared_ptr<const CompiledModel>& m,
                         const SessionOptions& options) {
    InferenceSession session(m, options);
    return bits_of(session.marginal(evidence));
  };
  // Exact, one fixed, one float format — all bit-identical to in-memory.
  EXPECT_EQ(sweep(model, {}), sweep(loaded, {}));
  const SessionOptions fixed =
      SessionOptions::low_precision(Representation::of(lowprec::FixedFormat{2, 22}));
  EXPECT_EQ(sweep(model, fixed), sweep(loaded, fixed));
  const SessionOptions flt =
      SessionOptions::low_precision(Representation::of(lowprec::FloatFormat{8, 23}));
  EXPECT_EQ(sweep(model, flt), sweep(loaded, flt));
  if (report.any_feasible) {
    // The analysis-selected format is the one whose quantised leaf cache
    // was persisted: the loaded side adopts the mapped cache instead of
    // re-quantising, and must still match bit for bit.
    const SessionOptions selected = SessionOptions::low_precision(report.selected);
    EXPECT_EQ(sweep(model, selected), sweep(loaded, selected));
  }
  {  // MPE rides the persisted max tape (no circuit parse needed).
    InferenceSession a(model);
    InferenceSession b(loaded);
    EXPECT_EQ(bits_of(a.mpe(evidence)), bits_of(b.mpe(evidence)));
  }

  // The report cache was persisted: re-analysing the saved spec must hand
  // back the identical row.
  EXPECT_EQ(loaded->analyze(spec).to_string(), report.to_string());

  // Lazy circuit materialisation: both text sections parse on demand, and
  // the arenas must match the originals node for node.
  EXPECT_EQ(ac::to_text(loaded->binary_circuit()), ac::to_text(model->binary_circuit()));
  EXPECT_EQ(ac::to_text(loaded->binary_max_circuit()), ac::to_text(model->binary_max_circuit()));
}

TEST(ModelArtifact, LegacyTextArtifactIsRejectedWithResaveHint) {
  // The pre-binary text format: a "problp-model 1" line, then the
  // decomposition and the circuit texts.  Both load entry points refuse it
  // and say what they found, what they expected and how to fix it.
  const std::string path = temp_path("model_legacy.txt");
  {
    std::ofstream out(path);
    out << "problp-model 1\ndecomposition balanced\ncircuit 0\nmaxcircuit 0\n";
  }
  const auto expect_resave_error = [&](const std::function<void()>& load) {
    try {
      load();
      ADD_FAILURE() << "legacy text artifact loaded";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("found legacy text artifact 'problp-model 1'"), std::string::npos)
          << what;
      EXPECT_NE(what.find("expected binary model artifact"), std::string::npos) << what;
      EXPECT_NE(what.find("re-save"), std::string::npos) << what;
    }
  };
  expect_resave_error([&] { CompiledModel::load(path); });
  ModelRegistry registry;
  expect_resave_error([&] { registry.get(path); });
  EXPECT_EQ(registry.stats().live_models, 0u);
}

TEST(ModelArtifact, CorruptModelArtifactNeverLoads) {
  const std::string path = temp_path("model_corrupt.pm");
  const auto model = CompiledModel::compile(test_network(7));
  model->save(path);
  std::vector<unsigned char> pristine = read_file(path);
  const std::string mutant = temp_path("model_corrupt_mut.pm");
  // Every fourth truncation point plus a handful of bit flips across the
  // file: the loader must throw problp::Error each time, never crash.
  for (std::size_t keep = 16; keep < pristine.size(); keep += pristine.size() / 11) {
    write_file(mutant, {pristine.begin(), pristine.begin() + static_cast<long>(keep)});
    EXPECT_THROW(CompiledModel::load(mutant), Error) << "truncated at " << keep;
  }
  for (std::size_t flip = 32; flip < pristine.size(); flip += pristine.size() / 7) {
    std::vector<unsigned char> bytes = pristine;
    bytes[flip] ^= 0x10;
    write_file(mutant, bytes);
    EXPECT_THROW(CompiledModel::load(mutant), Error) << "bit flip at " << flip;
  }
}

// ---- registry layer --------------------------------------------------------

TEST(ModelRegistry, SharesOneMappingPerContentHash) {
  const std::string path_a = temp_path("reg_a.pm");
  const std::string path_b = temp_path("reg_b.pm");
  CompiledModel::compile(test_network(21))->save(path_a);
  CompiledModel::compile(test_network(22))->save(path_b);

  ModelRegistry registry;
  const auto a1 = registry.get(path_a);
  const auto b1 = registry.get(path_b);
  EXPECT_NE(a1.get(), b1.get());
  EXPECT_EQ(registry.stats().misses, 2u);
  EXPECT_EQ(registry.stats().live_models, 2u);

  // Same path again: a hit on the live model, same instance.
  EXPECT_EQ(registry.get(path_a).get(), a1.get());
  // Same *content* through a different path: still the same instance —
  // identity is the artifact hash, not the file name.
  const std::string path_a2 = temp_path("reg_a_copy.pm");
  std::filesystem::copy_file(path_a, path_a2,
                             std::filesystem::copy_options::overwrite_existing);
  EXPECT_EQ(registry.get(path_a2).get(), a1.get());
  EXPECT_EQ(registry.stats().hits, 2u);
  EXPECT_EQ(registry.stats().misses, 2u);
}

TEST(ModelRegistry, LruEvictionDropsPinsNotLiveModels) {
  const std::string path_a = temp_path("lru_a.pm");
  const std::string path_b = temp_path("lru_b.pm");
  const bn::BayesianNetwork net_a = test_network(31);
  const bn::BayesianNetwork net_b = test_network(32);
  CompiledModel::compile(net_a)->save(path_a);
  CompiledModel::compile(net_b)->save(path_b);

  // Cap below the sum of both artifacts: pinning B must evict A's pin.
  ModelRegistry::Options options;
  options.max_resident_bytes =
      std::filesystem::file_size(path_a) + std::filesystem::file_size(path_b) - 1;
  ModelRegistry registry(options);

  auto a = registry.get(path_a);
  auto b = registry.get(path_b);
  EXPECT_GE(registry.stats().evictions, 1u);
  EXPECT_LE(registry.stats().resident_bytes, options.max_resident_bytes);
  // Both models stay alive: the registry dropped its pin, not our refs.
  EXPECT_EQ(registry.stats().live_models, 2u);

  const auto evidence = test_evidence(net_a, 16, 5);
  std::vector<std::uint64_t> want;
  {
    // The evicted model keeps serving queries through its session refs.
    InferenceSession session(a);
    want = bits_of(session.marginal(evidence));
    // Re-getting the evicted model while it is still alive re-pins the
    // same instance instead of re-mapping the file.
    EXPECT_EQ(registry.get(path_a).get(), a.get());
  }

  // Once every reference is gone the model dies and the next get() is a
  // fresh load — which must answer bit-identically to the dead one.
  const auto misses_before = registry.stats().misses;
  a.reset();
  b.reset();
  registry.clear();
  const auto a2 = registry.get(path_a);
  EXPECT_EQ(registry.stats().misses, misses_before + 1);
  InferenceSession fresh(a2);
  EXPECT_EQ(bits_of(fresh.marginal(evidence)), want);
}

TEST(ModelRegistry, ConcurrentGetAndQueryUnderEvictionPressure) {
  const std::string path_a = temp_path("mt_a.pm");
  const std::string path_b = temp_path("mt_b.pm");
  const bn::BayesianNetwork net_a = test_network(41);
  const bn::BayesianNetwork net_b = test_network(42);
  CompiledModel::compile(net_a)->save(path_a);
  CompiledModel::compile(net_b)->save(path_b);

  // A cap that fits only one artifact keeps the two models fighting for
  // the pin while every thread hammers get()+query.
  ModelRegistry::Options options;
  options.max_resident_bytes =
      std::max(std::filesystem::file_size(path_a), std::filesystem::file_size(path_b));
  ModelRegistry registry(options);

  const auto evidence_a = test_evidence(net_a, 8, 9);
  const auto evidence_b = test_evidence(net_b, 8, 9);
  const std::vector<std::uint64_t> want_a = [&] {
    InferenceSession s(CompiledModel::load(path_a));
    return bits_of(s.marginal(evidence_a));
  }();
  const std::vector<std::uint64_t> want_b = [&] {
    InferenceSession s(CompiledModel::load(path_b));
    return bits_of(s.marginal(evidence_b));
  }();

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 12; ++round) {
        const bool use_a = (t + round) % 2 == 0;
        const auto model = registry.get(use_a ? path_a : path_b);
        InferenceSession session(model);
        const auto got = bits_of(session.marginal(use_a ? evidence_a : evidence_b));
        if (got != (use_a ? want_a : want_b)) failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  // At least one model survives as the registry's own pin; dropping every
  // pin with all sessions gone leaves nothing alive.
  EXPECT_GE(registry.stats().live_models, 1u);
  registry.clear();
  EXPECT_EQ(registry.stats().live_models, 0u);
}

}  // namespace
}  // namespace problp
