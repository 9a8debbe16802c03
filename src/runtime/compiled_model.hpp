// CompiledModel — the immutable, shareable inference artifact.
//
// ProbLP's economics are "one offline analysis licenses many cheap online
// queries" (Fig. 2): compiling a BN to an AC, binarising it, flattening the
// tape and propagating the error bounds happen once; marginal / conditional
// / MPE queries then reuse those artifacts thousands of times.  Before this
// layer existed every consumer (validation sweeps, benches, the CLI, the
// examples) re-assembled that pipeline by hand.  A CompiledModel owns the
// whole compile-side state:
//
//   binary_circuit()       the binarised marginal/conditional circuit
//   binary_max_circuit()   the binarised maximiser circuit (MPE), derived
//                          lazily on first use
//   tape() / max_tape()    flattened CircuitTapes (ac/tape.hpp)
//   error_model(query)     the format-independent CircuitErrorModel, built
//                          lazily on first analyze()
//   analyze(spec)          the Table-2 row for one (query, tolerance), with
//                          results cached per spec
//   generate_hardware()    datapath emission for a report's selection
//
// Thread-safety contract: a CompiledModel is safe to share across any
// number of threads.  The eagerly built state is immutable; the lazy
// artifacts (max circuit, error models, report cache) are materialised
// under an internal mutex and never mutated afterwards, so references
// returned by the accessors stay valid for the model's lifetime.  Query
// scratch state lives in runtime::InferenceSession (one per thread), never
// here.
//
// Persistence: save() writes the *binary* mmap-able artifact
// (runtime/artifact.hpp) persisting the compiled flat arrays — both tapes,
// their layouts and kernel schedules, cached analysis reports and the
// quantised leaf caches of the selected formats — next to the circuit
// texts.  load() maps it and rebuilds the tapes as zero-copy views over the
// file (the circuits themselves are parsed lazily, only when a caller
// actually needs arena objects — analyze() on an uncached spec, hardware
// generation, re-serialisation).  The binary artifact is the only format:
// a legacy `problp-model 1` text file is rejected with a message asking
// for a re-save.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "ac/circuit.hpp"
#include "ac/tape.hpp"
#include "problp/report.hpp"
#include "runtime/artifact.hpp"

namespace problp::bn {
class BayesianNetwork;
}

namespace problp::runtime {

class CompiledModel {
 public:
  /// Binarises `circuit` (the n-ary output of a BN -> AC compiler) and
  /// flattens the evaluation tape — exactly the pipeline Framework ran.
  static std::shared_ptr<const CompiledModel> compile(const ac::Circuit& circuit,
                                                      FrameworkOptions options = {});

  /// Full front-to-back compile: BN -> AC (ve_compiler) -> binarise -> tape.
  /// The network's declared name (bn::BayesianNetwork::name) is carried
  /// into the model and its saved artifacts.
  static std::shared_ptr<const CompiledModel> compile(const bn::BayesianNetwork& network,
                                                      FrameworkOptions options = {});

  /// Wraps a circuit that is already in its evaluation form (no
  /// re-decomposition pass).  This is the entry point for callers that hold
  /// a binarised circuit — e.g. the observed-error wrappers — and for
  /// engine comparisons that must evaluate the given arena verbatim.  The
  /// maximiser circuit is still derived from `circuit` on first MPE use.
  static std::shared_ptr<const CompiledModel> wrap(ac::Circuit circuit,
                                                   FrameworkOptions options = {});

  // ---- artifact persistence ------------------------------------------------
  /// Binary mmap-able artifact (runtime/artifact.hpp): compiled tapes,
  /// layouts, kernel schedules, cached reports and the leaf caches of the
  /// cached reports' selected formats.  Written atomically (temp file +
  /// rename); readers never observe a half-written file.
  void save(const std::string& path) const;
  /// Maps a binary artifact written by save(), zero-copy.  Throws Error
  /// with a found-vs-expected message on anything else.
  static std::shared_ptr<const CompiledModel> load(const std::string& path,
                                                   FrameworkOptions options = {});

  // ---- structure -----------------------------------------------------------
  const ac::Circuit& binary_circuit() const;
  const ac::CircuitTape& tape() const { return tape_; }
  const ac::Circuit& binary_max_circuit() const;
  const ac::CircuitTape& max_tape() const;
  /// The circuit / tape the given query type evaluates.
  const ac::Circuit& circuit_for(errormodel::QueryType q) const;
  const ac::CircuitTape& tape_for(errormodel::QueryType q) const;

  int num_variables() const { return tape_.num_variables(); }
  const std::vector<int>& cardinalities() const { return tape_.cardinalities(); }
  const FrameworkOptions& options() const { return options_; }

  /// Model name: the source network's declared name, or the name stored in
  /// a loaded artifact; empty when neither carried one.
  const std::string& name() const { return name_; }
  /// Artifact format version this model was loaded from; 0 when the model
  /// was compiled in-process.
  std::uint32_t artifact_version() const { return artifact_version_; }
  /// Whether this model serves zero-copy views over a mapped artifact.
  bool memory_mapped() const { return mapping_ != nullptr && mapping_->mapped(); }

  // ---- analysis ------------------------------------------------------------
  /// Format-independent error model for the circuit `q` evaluates.
  const errormodel::CircuitErrorModel& error_model(errormodel::QueryType q) const;
  /// Table-2 row for one (query, tolerance); cached, so repeated sessions
  /// asking for the same spec pay the bit-width search once.  Loaded binary
  /// artifacts pre-populate this cache with the reports cached at save
  /// time, so re-analysing a persisted spec is a map lookup, not a search.
  AnalysisReport analyze(const errormodel::QuerySpec& spec) const;
  /// Datapath for the representation `report` selected.
  HardwareReport generate_hardware(const AnalysisReport& report) const;

  CompiledModel(const CompiledModel&) = delete;
  CompiledModel& operator=(const CompiledModel&) = delete;

 private:
  struct MaxArtifact {
    /// Absent on the mmap load path until an arena consumer needs it; the
    /// tape alone serves MPE evaluation.
    std::optional<ac::Circuit> circuit;
    ac::CircuitTape tape;
  };

  CompiledModel(std::optional<ac::Circuit> source, ac::Circuit binary, FrameworkOptions options);
  /// The mmap load path: tapes adopted as views over `mapping`; circuits
  /// stay unparsed text sections until needed.
  CompiledModel(std::shared_ptr<MappedArtifact> mapping, ac::CircuitTape tape,
                FrameworkOptions options);

  /// Parses the marginal circuit from the mapped artifact if absent; call
  /// with mutex_ held.
  const ac::Circuit& ensure_binary_locked() const;
  /// Builds the max artifact if absent; call with mutex_ held.  On the
  /// mmap path the artifact exists up-front (adopted tape) but its circuit
  /// may still be unparsed.
  const MaxArtifact& ensure_max_locked() const;
  /// The max circuit itself, parsed/derived if needed; call with mutex_ held.
  const ac::Circuit& ensure_max_circuit_locked() const;
  /// Builds the error model for `q` if absent; call with mutex_ held.
  const errormodel::CircuitErrorModel& ensure_model_locked(errormodel::QueryType q) const;

  /// Mapped artifact backing the view-backed tapes.  Declared first so it
  /// is destroyed last — every view member below must die before the
  /// mapping does.  Null for in-process models.
  std::shared_ptr<MappedArtifact> mapping_;
  FrameworkOptions options_;
  std::string name_;
  std::uint32_t artifact_version_ = 0;
  ac::CircuitTape tape_;
  /// The circuit the maximiser is derived from: the n-ary compiler output
  /// on the compile() path (the maximiser must come from binarize(to_max(
  /// nary)) to stay bit-identical to the pre-runtime pipeline — deriving
  /// from binary_ would reorder the decomposition).  Empty on the wrap()
  /// path (binary_ doubles as the source) and the load() path (the
  /// artifact ships the maximiser); released once the maximiser is built.
  /// Until then compile()d models hold source + binary, the same two-arena
  /// footprint the old Framework paid for binary + binary_max up front.
  mutable std::optional<ac::Circuit> source_;

  mutable std::mutex mutex_;
  /// The binarised marginal circuit; absent on the mmap load path until an
  /// arena consumer (analysis, hardware, re-serialisation) needs it.
  mutable std::optional<ac::Circuit> binary_;
  mutable std::unique_ptr<MaxArtifact> max_;  ///< lazily built, then immutable
  mutable std::optional<errormodel::CircuitErrorModel> model_;
  mutable std::optional<errormodel::CircuitErrorModel> max_model_;
  /// (query, tolerance kind, tolerance bit pattern) -> cached report.
  mutable std::map<std::tuple<int, int, std::uint64_t>, AnalysisReport> reports_;
};

}  // namespace problp::runtime
