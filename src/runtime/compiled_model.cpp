#include "runtime/compiled_model.hpp"

#include <cstring>
#include <sstream>
#include <utility>

#include "ac/kernel_schedule.hpp"
#include "ac/leaf_cache.hpp"
#include "ac/serialize.hpp"
#include "ac/tape_layout.hpp"
#include "bn/network.hpp"
#include "compile/ve_compiler.hpp"

namespace problp::runtime {

namespace {

const char* to_keyword(ac::DecompositionStyle style) {
  return style == ac::DecompositionStyle::kChain ? "chain" : "balanced";
}

ac::DecompositionStyle decomposition_from_keyword(const std::string& word) {
  if (word == "balanced") return ac::DecompositionStyle::kBalanced;
  if (word == "chain") return ac::DecompositionStyle::kChain;
  throw ParseError("model load: unknown decomposition style '" + word + "'");
}

std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double bits_double(std::uint64_t bits) {
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// ---- binary artifact schema ------------------------------------------------
//
// Section ids of the mmap-able model container (runtime/artifact.hpp holds
// the container format; this file owns what the sections mean).  Per-tape
// sections live at a base id (marginal 0x1000, maximiser 0x2000) plus a
// TapeField offset, so both tapes share one save/load routine.

namespace section {

constexpr std::uint32_t kModelMeta = 1;      ///< text: "decomposition <kw>\n"
constexpr std::uint32_t kCardinalities = 2;  ///< i32[num_variables]
constexpr std::uint32_t kCircuitText = 3;    ///< ac::to_text of the marginal circuit
constexpr std::uint32_t kMaxCircuitText = 4; ///< ac::to_text of the maximiser
constexpr std::uint32_t kReports = 5;        ///< packed u64 records, kReportWords each
constexpr std::uint32_t kLeafCacheBase = 0x100;  ///< + i, dense from 0
constexpr std::uint32_t kMarginalTape = 0x1000;
constexpr std::uint32_t kMaxTape = 0x2000;

enum TapeField : std::uint32_t {
  kKinds = 0,        // u8[n]
  kChildOffsets,     // i32[n + 1]
  kChildren,         // i32[num_edges]
  kBaseValues,       // f64[n]
  kIndVar,           // i32[n]
  kIndState,         // i32[n]
  kOpIds,            // i32[num_ops]
  kParamIds,         // i32[num_params]
  kParamValues,      // f64[num_params]
  kIndicatorIds,     // i32[num_indicators]
  kVarOffsets,       // i32[num_variables + 1]
  kIndicatorIndex,   // i32[sum of cardinalities]
  kTapeMeta,         // u64[1]: root
  kLayoutOpOrder,    // i32[num_ops]
  kLayoutSlotOf,     // i32[n]
  kLayoutStats,      // u64[11 + hist]: scalar stats, then the run histogram
  kSchedSegments,    // u32[3 * num_segments]: (kind, begin, end) triples
  kSchedOut,         // i32[num_fanin2]
  kSchedLhs,         // i32[num_fanin2]
  kSchedRhs,         // i32[num_fanin2]
  kSchedGenKinds,    // u8[num_generic]
  kSchedGenOut,      // i32[num_generic]
  kSchedGenOffsets,  // i32[num_generic + 1]
  kSchedGenChildren, // i32[...]
  kSchedMeta,        // u64[1]: num_rows
};

}  // namespace section

constexpr std::size_t kReportWords = 25;

std::uint64_t flags_bits(const lowprec::ArithFlags& f) {
  return (f.overflow ? 1u : 0u) | (f.underflow ? 2u : 0u) | (f.invalid_input ? 4u : 0u);
}

lowprec::ArithFlags bits_flags(std::uint64_t bits) {
  lowprec::ArithFlags f;
  f.overflow = (bits & 1) != 0;
  f.underflow = (bits & 2) != 0;
  f.invalid_input = (bits & 4) != 0;
  return f;
}

void save_tape(ArtifactWriter& w, std::uint32_t base, const ac::CircuitTape& tape) {
  using namespace section;
  w.add_array(base + kKinds, tape.kinds());
  w.add_array(base + kChildOffsets, tape.child_offsets());
  w.add_array(base + kChildren, tape.children());
  w.add_array(base + kBaseValues, tape.base_values());
  w.add_array(base + kIndVar, tape.ind_var());
  w.add_array(base + kIndState, tape.ind_state());
  w.add_array(base + kOpIds, tape.op_ids());
  w.add_array(base + kParamIds, tape.param_ids());
  w.add_array(base + kParamValues, tape.param_values());
  w.add_array(base + kIndicatorIds, tape.indicator_ids());
  w.add_array(base + kVarOffsets, tape.var_offsets());
  w.add_array(base + kIndicatorIndex, tape.indicator_index());
  const std::uint64_t tape_meta[1] = {static_cast<std::uint64_t>(tape.root())};
  w.add(base + kTapeMeta, tape_meta, sizeof tape_meta);

  const ac::TapeLayout& layout = tape.layout();
  w.add_array(base + kLayoutOpOrder, layout.op_order());
  w.add_array(base + kLayoutSlotOf, layout.slot_of());
  const ac::TapeLayoutStats& st = layout.stats();
  std::vector<std::uint64_t> stats;
  stats.reserve(11 + st.fanin2_run_hist.size());
  stats.push_back(st.num_nodes);
  stats.push_back(st.num_leaves);
  stats.push_back(st.num_ops);
  stats.push_back(st.max_live);
  stats.push_back(st.num_slots);
  stats.push_back(st.slots_saved);
  stats.push_back(double_bits(st.mean_reuse_distance));
  stats.push_back(double_bits(st.mean_reuse_distance_original));
  stats.push_back(st.num_fanin2_runs);
  stats.push_back(st.num_fanin2_runs_original);
  stats.push_back(st.fanin2_run_hist.size());
  for (std::size_t h : st.fanin2_run_hist) stats.push_back(h);
  w.add_array(base + kLayoutStats, stats);

  const ac::KernelSchedule& sched = *tape.layout_schedule();
  std::vector<std::uint32_t> segs;
  segs.reserve(3 * sched.segments().size());
  for (const ac::KernelSegment& s : sched.segments()) {
    segs.push_back(static_cast<std::uint32_t>(s.kind));
    segs.push_back(s.begin);
    segs.push_back(s.end);
  }
  w.add_array(base + kSchedSegments, segs);
  w.add_array(base + kSchedOut, sched.out());
  w.add_array(base + kSchedLhs, sched.lhs());
  w.add_array(base + kSchedRhs, sched.rhs());
  w.add_array(base + kSchedGenKinds, sched.gen_kinds());
  w.add_array(base + kSchedGenOut, sched.gen_out());
  w.add_array(base + kSchedGenOffsets, sched.gen_offsets());
  w.add_array(base + kSchedGenChildren, sched.gen_children());
  const std::uint64_t sched_meta[1] = {sched.num_rows()};
  w.add(base + kSchedMeta, sched_meta, sizeof sched_meta);
}

ac::CircuitTape load_tape(const MappedArtifact& art, std::uint32_t base,
                          std::vector<int> cardinalities) {
  using namespace section;

  const auto stats_words = art.array<std::uint64_t>(base + kLayoutStats);
  require(stats_words.size() >= 11, "model load: layout stats section too short");
  ac::TapeLayoutStats st;
  st.num_nodes = static_cast<std::size_t>(stats_words[0]);
  st.num_leaves = static_cast<std::size_t>(stats_words[1]);
  st.num_ops = static_cast<std::size_t>(stats_words[2]);
  st.max_live = static_cast<std::size_t>(stats_words[3]);
  st.num_slots = static_cast<std::size_t>(stats_words[4]);
  st.slots_saved = static_cast<std::size_t>(stats_words[5]);
  st.mean_reuse_distance = bits_double(stats_words[6]);
  st.mean_reuse_distance_original = bits_double(stats_words[7]);
  st.num_fanin2_runs = static_cast<std::size_t>(stats_words[8]);
  st.num_fanin2_runs_original = static_cast<std::size_t>(stats_words[9]);
  const std::size_t hist_len = static_cast<std::size_t>(stats_words[10]);
  require(stats_words.size() == 11 + hist_len, "model load: layout stats histogram mis-sized");
  st.fanin2_run_hist.reserve(hist_len);
  for (std::size_t h = 0; h < hist_len; ++h) {
    st.fanin2_run_hist.push_back(static_cast<std::size_t>(stats_words[11 + h]));
  }
  auto layout = std::make_shared<const ac::TapeLayout>(
      ac::TapeLayout::adopt(art.array<ac::NodeId>(base + kLayoutOpOrder),
                            art.array<std::int32_t>(base + kLayoutSlotOf), std::move(st)));

  const auto seg_words = art.array<std::uint32_t>(base + kSchedSegments);
  require(seg_words.size() % 3 == 0, "model load: schedule segment table mis-sized");
  std::vector<ac::KernelSegment> segments;
  segments.reserve(seg_words.size() / 3);
  for (std::size_t i = 0; i < seg_words.size(); i += 3) {
    require(seg_words[i] <= static_cast<std::uint32_t>(ac::KernelSegment::Kind::kGeneric),
            "model load: unknown kernel segment kind");
    segments.push_back(ac::KernelSegment{static_cast<ac::KernelSegment::Kind>(seg_words[i]),
                                         seg_words[i + 1], seg_words[i + 2]});
  }
  const auto sched_meta = art.array<std::uint64_t>(base + kSchedMeta);
  require(sched_meta.size() == 1, "model load: schedule meta section mis-sized");
  auto schedule = std::make_shared<const ac::KernelSchedule>(ac::KernelSchedule::adopt(
      std::move(segments), art.array<std::int32_t>(base + kSchedOut),
      art.array<std::int32_t>(base + kSchedLhs), art.array<std::int32_t>(base + kSchedRhs),
      art.array<ac::NodeKind>(base + kSchedGenKinds),
      art.array<std::int32_t>(base + kSchedGenOut),
      art.array<std::int32_t>(base + kSchedGenOffsets),
      art.array<std::int32_t>(base + kSchedGenChildren),
      static_cast<std::size_t>(sched_meta[0])));

  const auto tape_meta = art.array<std::uint64_t>(base + kTapeMeta);
  require(tape_meta.size() == 1, "model load: tape meta section mis-sized");

  ac::CircuitTape::Arrays arrays;
  arrays.kinds = art.array<ac::NodeKind>(base + kKinds);
  arrays.child_offsets = art.array<std::int32_t>(base + kChildOffsets);
  arrays.children = art.array<ac::NodeId>(base + kChildren);
  arrays.base_values = art.array<double>(base + kBaseValues);
  arrays.ind_var = art.array<std::int32_t>(base + kIndVar);
  arrays.ind_state = art.array<std::int32_t>(base + kIndState);
  arrays.op_ids = art.array<ac::NodeId>(base + kOpIds);
  arrays.param_ids = art.array<ac::NodeId>(base + kParamIds);
  arrays.param_values = art.array<double>(base + kParamValues);
  arrays.indicator_ids = art.array<ac::NodeId>(base + kIndicatorIds);
  arrays.var_offsets = art.array<std::int32_t>(base + kVarOffsets);
  arrays.indicator_index = art.array<ac::NodeId>(base + kIndicatorIndex);
  return ac::CircuitTape::adopt(std::move(arrays),
                                static_cast<ac::NodeId>(tape_meta[0]),
                                std::move(cardinalities), std::move(layout),
                                std::move(schedule));
}

// ---- report records --------------------------------------------------------

void pack_report(const AnalysisReport& r, std::vector<std::uint64_t>& out) {
  const auto put_i = [&](std::int64_t v) { out.push_back(static_cast<std::uint64_t>(v)); };
  put_i(static_cast<int>(r.spec.query));
  put_i(static_cast<int>(r.spec.kind));
  out.push_back(double_bits(r.spec.tolerance));
  put_i(r.fixed_plan.feasible ? 1 : 0);
  put_i(r.fixed_plan.format.integer_bits);
  put_i(r.fixed_plan.format.fraction_bits);
  out.push_back(double_bits(r.fixed_plan.predicted_bound));
  put_i(r.fixed_plan.attempted_max_fraction_bits);
  out.push_back(double_bits(r.fixed_energy_nj));
  put_i(r.float_plan.feasible ? 1 : 0);
  put_i(r.float_plan.format.exponent_bits);
  put_i(r.float_plan.format.mantissa_bits);
  out.push_back(double_bits(r.float_plan.predicted_bound));
  put_i(r.float_plan.attempted_max_mantissa_bits);
  out.push_back(double_bits(r.float_energy_nj));
  put_i(r.selected.kind == Representation::Kind::kFixed ? 0 : 1);
  put_i(r.selected.fixed.integer_bits);
  put_i(r.selected.fixed.fraction_bits);
  put_i(r.selected.flt.exponent_bits);
  put_i(r.selected.flt.mantissa_bits);
  put_i(r.any_feasible ? 1 : 0);
  out.push_back(double_bits(r.float32_reference_nj));
  out.push_back(r.census.adders);
  out.push_back(r.census.multipliers);
  out.push_back(r.census.maxes);
}

AnalysisReport unpack_report(const std::uint64_t* w) {
  const auto get_i = [&](std::size_t i) { return static_cast<std::int64_t>(w[i]); };
  AnalysisReport r;
  r.spec.query = static_cast<errormodel::QueryType>(get_i(0));
  r.spec.kind = static_cast<errormodel::ToleranceKind>(get_i(1));
  r.spec.tolerance = bits_double(w[2]);
  r.fixed_plan.feasible = get_i(3) != 0;
  r.fixed_plan.format.integer_bits = static_cast<int>(get_i(4));
  r.fixed_plan.format.fraction_bits = static_cast<int>(get_i(5));
  r.fixed_plan.predicted_bound = bits_double(w[6]);
  r.fixed_plan.attempted_max_fraction_bits = static_cast<int>(get_i(7));
  r.fixed_energy_nj = bits_double(w[8]);
  r.float_plan.feasible = get_i(9) != 0;
  r.float_plan.format.exponent_bits = static_cast<int>(get_i(10));
  r.float_plan.format.mantissa_bits = static_cast<int>(get_i(11));
  r.float_plan.predicted_bound = bits_double(w[12]);
  r.float_plan.attempted_max_mantissa_bits = static_cast<int>(get_i(13));
  r.float_energy_nj = bits_double(w[14]);
  r.selected.kind = get_i(15) == 0 ? Representation::Kind::kFixed : Representation::Kind::kFloat;
  r.selected.fixed.integer_bits = static_cast<int>(get_i(16));
  r.selected.fixed.fraction_bits = static_cast<int>(get_i(17));
  r.selected.flt.exponent_bits = static_cast<int>(get_i(18));
  r.selected.flt.mantissa_bits = static_cast<int>(get_i(19));
  r.any_feasible = get_i(20) != 0;
  r.float32_reference_nj = bits_double(w[21]);
  r.census.adders = static_cast<std::size_t>(w[22]);
  r.census.multipliers = static_cast<std::size_t>(w[23]);
  r.census.maxes = static_cast<std::size_t>(w[24]);
  return r;
}

// ---- leaf cache records ----------------------------------------------------
//
// Each leaf cache is one self-contained section at kLeafCacheBase + i:
//   u64[6] header: datapath kind (0 fixed / 1 float), tape (0 marginal /
//                  1 max), format field 1, format field 2, rounding mode,
//                  conversion flag bits
// then, fixed:  u64 count, u64 pad, u128 one, u128 zero, u128 params[count]
//               (params land at byte 96 — 16-aligned inside the 64-aligned
//               section, as u128 views require)
// then, float:  u64 count, i64 one_exp, u64 one_sig, i64 zero_exp,
//               u64 zero_sig, u64 pad (header ends at byte 96),
//               i32 exps[count], then u64 sigs[count] at the next 8-aligned
//               offset

constexpr std::size_t kLeafHeadWords = 6;

std::vector<unsigned char> pack_fixed_leaf_cache(const ac::FixedLeafCache& c, bool max_tape) {
  std::vector<std::uint64_t> head;
  head.push_back(0);
  head.push_back(max_tape ? 1 : 0);
  head.push_back(static_cast<std::uint64_t>(c.format.integer_bits));
  head.push_back(static_cast<std::uint64_t>(c.format.fraction_bits));
  head.push_back(static_cast<std::uint64_t>(c.mode));
  head.push_back(flags_bits(c.param_flags));
  head.push_back(c.params.size());
  head.push_back(0);  // pad: one/zero land 16-aligned
  std::vector<unsigned char> out(head.size() * 8 + 32 + c.params.size() * sizeof(u128));
  std::memcpy(out.data(), head.data(), head.size() * 8);
  std::memcpy(out.data() + 64, &c.one, sizeof(u128));
  std::memcpy(out.data() + 80, &c.zero, sizeof(u128));
  if (!c.params.empty()) {
    std::memcpy(out.data() + 96, c.params.data(), c.params.size() * sizeof(u128));
  }
  return out;
}

std::vector<unsigned char> pack_float_leaf_cache(const ac::FloatLeafCache& c, bool max_tape) {
  std::vector<std::uint64_t> head;
  head.push_back(1);
  head.push_back(max_tape ? 1 : 0);
  head.push_back(static_cast<std::uint64_t>(c.format.exponent_bits));
  head.push_back(static_cast<std::uint64_t>(c.format.mantissa_bits));
  head.push_back(static_cast<std::uint64_t>(c.mode));
  head.push_back(flags_bits(c.param_flags));
  head.push_back(c.params_exp.size());
  head.push_back(static_cast<std::uint64_t>(static_cast<std::int64_t>(c.one_exp)));
  head.push_back(c.one_sig);
  head.push_back(static_cast<std::uint64_t>(static_cast<std::int64_t>(c.zero_exp)));
  head.push_back(c.zero_sig);
  head.push_back(0);  // pad to 96 bytes
  const std::size_t n = c.params_exp.size();
  const std::size_t exps_at = head.size() * 8;
  const std::size_t sigs_at = (exps_at + n * 4 + 7) / 8 * 8;
  std::vector<unsigned char> out(sigs_at + n * 8);
  std::memcpy(out.data(), head.data(), head.size() * 8);
  if (n > 0) {
    std::memcpy(out.data() + exps_at, c.params_exp.data(), n * 4);
    std::memcpy(out.data() + sigs_at, c.params_sig.data(), n * 8);
  }
  return out;
}

/// Parses leaf cache section `id` into `set`; returns whether the cache
/// belongs to the max tape.  Views alias the mapped payload.
bool unpack_leaf_cache(const MappedArtifact& art, std::uint32_t id, ac::LeafCacheSet& set) {
  std::size_t size = 0;
  const unsigned char* p = art.bytes(id, &size);
  require(size >= kLeafHeadWords * 8, "model load: leaf cache section too short");
  std::uint64_t head[12] = {};
  std::memcpy(head, p, std::min(size, sizeof head));
  const bool max_tape = head[1] != 0;
  const std::uint64_t rounding = head[4];
  require(rounding <= static_cast<std::uint64_t>(lowprec::RoundingMode::kTruncate),
          "model load: unknown rounding mode in leaf cache");
  if (head[0] == 0) {
    ac::FixedLeafCache c;
    c.format.integer_bits = static_cast<int>(head[2]);
    c.format.fraction_bits = static_cast<int>(head[3]);
    c.mode = static_cast<lowprec::RoundingMode>(rounding);
    c.param_flags = bits_flags(head[5]);
    const std::size_t n = static_cast<std::size_t>(head[6]);
    require(size == 96 + n * sizeof(u128), "model load: fixed leaf cache mis-sized");
    std::memcpy(&c.one, p + 64, sizeof(u128));
    std::memcpy(&c.zero, p + 80, sizeof(u128));
    c.params = util::ArrayStore<u128>::view(reinterpret_cast<const u128*>(p + 96), n);
    set.fixed.push_back(std::move(c));
  } else {
    require(head[0] == 1, "model load: unknown leaf cache datapath kind");
    require(size >= 96, "model load: float leaf cache header too short");
    ac::FloatLeafCache c;
    c.format.exponent_bits = static_cast<int>(head[2]);
    c.format.mantissa_bits = static_cast<int>(head[3]);
    c.mode = static_cast<lowprec::RoundingMode>(rounding);
    c.param_flags = bits_flags(head[5]);
    const std::size_t n = static_cast<std::size_t>(head[6]);
    c.one_exp = static_cast<std::int32_t>(static_cast<std::int64_t>(head[7]));
    c.one_sig = head[8];
    c.zero_exp = static_cast<std::int32_t>(static_cast<std::int64_t>(head[9]));
    c.zero_sig = head[10];
    const std::size_t exps_at = 96;
    const std::size_t sigs_at = (exps_at + n * 4 + 7) / 8 * 8;
    require(size == sigs_at + n * 8, "model load: float leaf cache mis-sized");
    c.params_exp = util::ArrayStore<std::int32_t>::view(
        reinterpret_cast<const std::int32_t*>(p + exps_at), n);
    c.params_sig = util::ArrayStore<std::uint64_t>::view(
        reinterpret_cast<const std::uint64_t*>(p + sigs_at), n);
    set.flt.push_back(std::move(c));
  }
  return max_tape;
}

}  // namespace

CompiledModel::CompiledModel(std::optional<ac::Circuit> source, ac::Circuit binary,
                             FrameworkOptions options)
    : options_(options),
      tape_(ac::CircuitTape::compile(binary)),
      source_(std::move(source)),
      binary_(std::move(binary)) {}

CompiledModel::CompiledModel(std::shared_ptr<MappedArtifact> mapping, ac::CircuitTape tape,
                             FrameworkOptions options)
    : mapping_(std::move(mapping)), options_(options), tape_(std::move(tape)) {}

std::shared_ptr<const CompiledModel> CompiledModel::compile(const ac::Circuit& circuit,
                                                            FrameworkOptions options) {
  ac::Circuit binary = ac::binarize(circuit, options.decomposition).circuit;
  return std::shared_ptr<const CompiledModel>(
      new CompiledModel(circuit, std::move(binary), options));
}

std::shared_ptr<const CompiledModel> CompiledModel::compile(const bn::BayesianNetwork& network,
                                                            FrameworkOptions options) {
  ac::Circuit nary = compile::compile_network(network);
  ac::Circuit binary = ac::binarize(nary, options.decomposition).circuit;
  auto model = std::shared_ptr<CompiledModel>(
      new CompiledModel(std::move(nary), std::move(binary), options));
  model->name_ = network.name();
  return model;
}

std::shared_ptr<const CompiledModel> CompiledModel::wrap(ac::Circuit circuit,
                                                         FrameworkOptions options) {
  return std::shared_ptr<const CompiledModel>(
      new CompiledModel(std::nullopt, std::move(circuit), options));
}

// ---- lazy artifacts --------------------------------------------------------

const ac::Circuit& CompiledModel::ensure_binary_locked() const {
  if (!binary_) {
    // mmap path: the marginal circuit rides along as a text section and is
    // parsed only when an arena consumer needs it.
    binary_ = ac::from_text(mapping_->text(section::kCircuitText));
  }
  return *binary_;
}

const CompiledModel::MaxArtifact& CompiledModel::ensure_max_locked() const {
  if (!max_) {
    // The same derivation Framework ran: maximise the *source* circuit,
    // then decompose — so compile()-built models are bit-identical to the
    // pre-runtime pipeline.  wrap()ed models maximise the wrapped circuit.
    ac::Circuit max_circuit =
        ac::binarize(ac::to_max_circuit(source_ ? *source_ : ensure_binary_locked()),
                     options_.decomposition)
            .circuit;
    ac::CircuitTape max_tape = ac::CircuitTape::compile(max_circuit);
    max_.reset(new MaxArtifact{std::move(max_circuit), std::move(max_tape)});
    source_.reset();  // the source arena has served its only purpose
  }
  return *max_;
}

const ac::Circuit& CompiledModel::ensure_max_circuit_locked() const {
  const MaxArtifact& max = ensure_max_locked();
  if (!max.circuit) {
    // mmap path: the tape was adopted from the artifact; the circuit text
    // section is parsed only now.
    max_->circuit = ac::from_text(mapping_->text(section::kMaxCircuitText));
  }
  return *max_->circuit;
}

const errormodel::CircuitErrorModel& CompiledModel::ensure_model_locked(
    errormodel::QueryType q) const {
  if (q == errormodel::QueryType::kMpe) {
    if (!max_model_) {
      max_model_ = errormodel::CircuitErrorModel::build(ensure_max_circuit_locked());
    }
    return *max_model_;
  }
  if (!model_) model_ = errormodel::CircuitErrorModel::build(ensure_binary_locked());
  return *model_;
}

const ac::Circuit& CompiledModel::binary_circuit() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ensure_binary_locked();
}

const ac::Circuit& CompiledModel::binary_max_circuit() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ensure_max_circuit_locked();
}

const ac::CircuitTape& CompiledModel::max_tape() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ensure_max_locked().tape;
}

const ac::Circuit& CompiledModel::circuit_for(errormodel::QueryType q) const {
  return q == errormodel::QueryType::kMpe ? binary_max_circuit() : binary_circuit();
}

const ac::CircuitTape& CompiledModel::tape_for(errormodel::QueryType q) const {
  return q == errormodel::QueryType::kMpe ? max_tape() : tape_;
}

const errormodel::CircuitErrorModel& CompiledModel::error_model(errormodel::QueryType q) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ensure_model_locked(q);
}

// ---- analysis --------------------------------------------------------------

AnalysisReport CompiledModel::analyze(const errormodel::QuerySpec& spec) const {
  const auto key = std::make_tuple(static_cast<int>(spec.query), static_cast<int>(spec.kind),
                                   double_bits(spec.tolerance));
  // The bit-width search can take a while on large circuits, so it runs
  // outside the lock: the lock only covers the cache probe and the lazy
  // prerequisites (whose references stay valid once built).  Two threads
  // racing the same uncached spec compute it twice — deterministic, so the
  // first insert wins and both return identical reports.
  const ac::Circuit* circuit = nullptr;
  const errormodel::CircuitErrorModel* model = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = reports_.find(key);
    if (it != reports_.end()) return it->second;
    circuit = spec.query == errormodel::QueryType::kMpe ? &ensure_max_circuit_locked()
                                                        : &ensure_binary_locked();
    model = &ensure_model_locked(spec.query);
  }
  AnalysisReport report = analyze_circuit(*circuit, *model, spec, options_);
  std::lock_guard<std::mutex> lock(mutex_);
  return reports_.try_emplace(key, std::move(report)).first->second;
}

HardwareReport CompiledModel::generate_hardware(const AnalysisReport& report) const {
  return problp::generate_hardware(circuit_for(report.spec.query), report, options_);
}

// ---- persistence -----------------------------------------------------------

void CompiledModel::save(const std::string& path) const {
  ArtifactWriter w(name_);

  w.add_text(section::kModelMeta,
             std::string("decomposition ") + to_keyword(options_.decomposition) + "\n");
  static_assert(sizeof(int) == sizeof(std::int32_t), "cardinalities persist as i32");
  w.add_array(section::kCardinalities, cardinalities());
  w.add_text(section::kCircuitText, ac::to_text(binary_circuit()));
  w.add_text(section::kMaxCircuitText, ac::to_text(binary_max_circuit()));
  save_tape(w, section::kMarginalTape, tape_);
  save_tape(w, section::kMaxTape, max_tape());

  // Snapshot the cached reports under the lock, then derive the leaf caches
  // of their selected representations outside it: a loaded model replays a
  // persisted spec as a map hit and serves its selected format from
  // pre-quantised leaves.
  std::vector<AnalysisReport> reports;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    reports.reserve(reports_.size());
    for (const auto& [key, report] : reports_) reports.push_back(report);
  }
  std::vector<std::uint64_t> records;
  records.reserve(reports.size() * kReportWords);
  for (const AnalysisReport& r : reports) pack_report(r, records);
  w.add_array(section::kReports, records);

  std::uint32_t cache_id = section::kLeafCacheBase;
  std::vector<std::vector<unsigned char>> cache_payloads;
  const auto have = [&](const std::vector<unsigned char>& payload) {
    for (const auto& existing : cache_payloads) {
      if (existing == payload) return true;
    }
    return false;
  };
  for (const AnalysisReport& r : reports) {
    if (!r.any_feasible) continue;
    const bool mpe = r.spec.query == errormodel::QueryType::kMpe;
    const ac::CircuitTape& t = mpe ? max_tape() : tape_;
    std::vector<unsigned char> payload;
    if (r.selected.kind == Representation::Kind::kFixed) {
      payload = pack_fixed_leaf_cache(
          ac::build_fixed_leaf_cache(t, r.selected.fixed, lowprec::RoundingMode::kNearestEven),
          mpe);
    } else {
      payload = pack_float_leaf_cache(
          ac::build_float_leaf_cache(t, r.selected.flt, lowprec::RoundingMode::kNearestEven),
          mpe);
    }
    if (have(payload)) continue;
    w.add(cache_id++, payload.data(), payload.size());
    cache_payloads.push_back(std::move(payload));
  }

  w.write(path);
}

std::shared_ptr<const CompiledModel> CompiledModel::load(const std::string& path,
                                                         FrameworkOptions options) {
  auto mapping =
      std::make_shared<MappedArtifact>(MappedArtifact::open(path, options.artifact_read_copy));
  const MappedArtifact& art = *mapping;

  {
    std::istringstream meta(art.text(section::kModelMeta));
    std::string word, style;
    meta >> word >> style;
    if (word != "decomposition") throw ParseError("model load: bad model meta section");
    options.decomposition = decomposition_from_keyword(style);
  }
  const auto cards = art.array<std::int32_t>(section::kCardinalities);
  std::vector<int> cardinalities(cards.begin(), cards.end());

  ac::CircuitTape tape = load_tape(art, section::kMarginalTape, cardinalities);
  ac::CircuitTape max_tape = load_tape(art, section::kMaxTape, cardinalities);

  // Leaf caches (views over the mapping) attach to their tapes before the
  // evaluator-facing tapes are frozen into the model.
  auto marginal_caches = std::make_shared<ac::LeafCacheSet>();
  auto max_caches = std::make_shared<ac::LeafCacheSet>();
  for (std::uint32_t id = section::kLeafCacheBase; art.has(id); ++id) {
    ac::LeafCacheSet probe;
    if (unpack_leaf_cache(art, id, probe)) {
      max_caches->fixed.insert(max_caches->fixed.end(), probe.fixed.begin(), probe.fixed.end());
      max_caches->flt.insert(max_caches->flt.end(), probe.flt.begin(), probe.flt.end());
    } else {
      marginal_caches->fixed.insert(marginal_caches->fixed.end(), probe.fixed.begin(),
                                    probe.fixed.end());
      marginal_caches->flt.insert(marginal_caches->flt.end(), probe.flt.begin(),
                                  probe.flt.end());
    }
  }
  if (!marginal_caches->fixed.empty() || !marginal_caches->flt.empty()) {
    tape.attach_leaf_caches(std::move(marginal_caches));
  }
  if (!max_caches->fixed.empty() || !max_caches->flt.empty()) {
    max_tape.attach_leaf_caches(std::move(max_caches));
  }

  auto model = std::shared_ptr<CompiledModel>(
      new CompiledModel(mapping, std::move(tape), options));
  model->name_ = art.info().name;
  model->artifact_version_ = art.info().version;
  model->max_.reset(new MaxArtifact{std::nullopt, std::move(max_tape)});

  const auto records = art.array<std::uint64_t>(section::kReports);
  require(records.size() % kReportWords == 0, "model load: report section mis-sized");
  for (std::size_t i = 0; i < records.size(); i += kReportWords) {
    AnalysisReport r = unpack_report(records.data() + i);
    const auto key = std::make_tuple(static_cast<int>(r.spec.query),
                                     static_cast<int>(r.spec.kind),
                                     double_bits(r.spec.tolerance));
    model->reports_.emplace(key, std::move(r));
  }
  return model;
}

}  // namespace problp::runtime
