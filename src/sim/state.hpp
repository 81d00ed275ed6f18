#pragma once
// Declarative state manifests (see DESIGN.md "State manifests & checkpointing").
//
// A component declares its mutable simulation state exactly once:
//
//   class Iptg final : public txn::MasterBase {
//     ...
//     SIM_STATE_MEMBERS_WITH_BASE(txn::MasterBase, agents_, rr_next_,
//                                 next_msg_id_);
//     SIM_STATE_EXEMPT(cfg_, "immutable configuration");
//   };
//
// and the macro generates the saveState()/restoreState() checkpoint hooks and
// a canonical stateDigest() from the one list.  The mpsoc_lint rule
// `unmanifested-state` closes the loop statically: every trailing-underscore
// member of a Component subclass must appear in exactly one manifest or
// exemption, so state-completeness is proved at lint time instead of being
// discovered as digest drift in the statecheck oracle.
//
// Exemption policy (enforced by convention + lint, verified by the oracle):
//   * wiring (references, port/bus pointers, address maps) — established at
//     construction, never mutated during simulation;
//   * immutable configuration structs;
//   * observer callbacks/taps and cached auditor/monitor pointers;
//   * members that are themselves registered Updatables (FIFOs): the kernel
//     checkpoints those directly through the per-domain updatable walk;
//   * append-only trace sinks (timeline samples, VCD streams): output of the
//     run, never read back by the model.
// Stats counters (issued/retired counts, latency probes, channel-utilisation
// accumulators) are NOT exempt: they are reported results, so the statecheck
// oracle must see a rewound window re-count them identically, and
// restoreState() must roll them back or the replayed window double-counts.
//
// Digest canon: transaction ids (Request::id/root_id) are volatile — a
// restored window re-issues new requests from the process-wide id counter, so
// ids differ between the two statecheck passes (and between runs that share
// the counter, such as concurrent SweepRunner workers).  Ids therefore never
// enter a digest, and id-keyed containers digest their *values*
// commutatively so iteration order cannot matter.
//
// This header is deliberately free of kernel dependencies (no component.hpp /
// clock.hpp) so low-level payload types (txn::Request, noc::NocPacket) can
// provide digest support without layering cycles.

#include <any>
#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/check.hpp"

namespace mpsoc::sim::state {

/// FNV-1a accumulator for canonical state digests.  Floating-point values are
/// digested by bit pattern (bit-identical or nothing — the statecheck oracle
/// compares exactly).
class Digest {
 public:
  void add(std::uint64_t v) {
    h_ ^= v;
    h_ *= 1099511628211ULL;
  }
  void addBits(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    add(bits);
  }
  void add(const std::string& s) {
    add(s.size());
    for (char c : s) add(static_cast<std::uint8_t>(c));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

template <typename T, typename Enable = void>
struct StateOps {
  // No snapshot/digest support for T.  Give the type a
  //   auto simStateMembers() { return std::tie(...); }   (plus a const
  //   overload) or, for copyable types with volatile fields, a
  //   void simStateDigest(state::Digest&) const
  // member, or specialize StateOps<T>.  The primary template is left empty
  // (rather than static_assert) so StateSupported<T> below can detect
  // support.
};

/// True when StateOps<T> provides a snapshot type.
template <typename T, typename = void>
struct StateSupported : std::false_type {};
template <typename T>
struct StateSupported<T, std::void_t<typename StateOps<T>::Snap>>
    : std::true_type {};

namespace detail {

template <typename T, typename = void>
struct HasSimStateMembers : std::false_type {};
template <typename T>
struct HasSimStateMembers<
    T, std::void_t<decltype(std::declval<T&>().simStateMembers())>>
    : std::true_type {};

template <typename T, typename = void>
struct HasSimStateDigest : std::false_type {};
template <typename T>
struct HasSimStateDigest<T, std::void_t<decltype(std::declval<const T&>()
                                                     .simStateDigest(
                                                         std::declval<Digest&>()))>>
    : std::true_type {};

/// Snapshot tuple for the std::tie(...) returned by simStateMembers().
template <typename Tie>
struct TieSnap;
template <typename... Ts>
struct TieSnap<std::tuple<Ts...>> {
  using type = std::tuple<typename StateOps<std::decay_t<Ts>>::Snap...>;
};

}  // namespace detail

// Arithmetic / enum / bool values: snapshot by copy, digest by value (bit
// pattern for floating point).
template <typename T>
struct StateOps<T, std::enable_if_t<std::is_arithmetic_v<T> ||
                                    std::is_enum_v<T>>> {
  using Snap = T;
  static void save(Snap& s, const T& v) { s = v; }
  static void restore(T& v, const Snap& s) { v = s; }
  static void digest(Digest& d, const T& v) {
    if constexpr (std::is_floating_point_v<T>) {
      d.addBits(static_cast<double>(v));
    } else if constexpr (std::is_enum_v<T>) {
      d.add(static_cast<std::uint64_t>(
          static_cast<std::underlying_type_t<T>>(v)));
    } else {
      d.add(static_cast<std::uint64_t>(v));
    }
  }
};

template <>
struct StateOps<std::string> {
  using Snap = std::string;
  static void save(Snap& s, const std::string& v) { s = v; }
  static void restore(std::string& v, const Snap& s) { v = s; }
  static void digest(Digest& d, const std::string& v) { d.add(v); }
};

// Mersenne-twister engines: copy the full engine state; digest through the
// standard serialisation (slow, but digests only run inside the opt-in
// statecheck oracle / planted-rig tests).
template <>
struct StateOps<std::mt19937_64> {
  using Snap = std::mt19937_64;
  static void save(Snap& s, const std::mt19937_64& v) { s = v; }
  static void restore(std::mt19937_64& v, const Snap& s) { v = s; }
  static void digest(Digest& d, const std::mt19937_64& v) {
    std::ostringstream os;
    os << v;
    d.add(os.str());
  }
};

// Structs that expose their state via simStateMembers(): snapshot and digest
// member-wise (a simStateDigest() member, when present, overrides the digest
// so volatile fields can be excluded).
template <typename T>
struct StateOps<T, std::enable_if_t<detail::HasSimStateMembers<T>::value>> {
  using Tie = decltype(std::declval<T&>().simStateMembers());
  using Snap = typename detail::TieSnap<Tie>::type;

  static void save(Snap& s, const T& v) {
    saveTuple(s, const_cast<T&>(v).simStateMembers(),
              std::make_index_sequence<std::tuple_size_v<Snap>>{});
  }
  static void restore(T& v, const Snap& s) {
    restoreTuple(s, v.simStateMembers(),
                 std::make_index_sequence<std::tuple_size_v<Snap>>{});
  }
  static void digest(Digest& d, const T& v) {
    if constexpr (detail::HasSimStateDigest<T>::value) {
      v.simStateDigest(d);
    } else {
      digestTuple(d, const_cast<T&>(v).simStateMembers(),
                  std::make_index_sequence<std::tuple_size_v<Snap>>{});
    }
  }

 private:
  template <typename Tup, std::size_t... I>
  static void saveTuple(Snap& s, Tup&& t, std::index_sequence<I...>) {
    (StateOps<std::decay_t<std::tuple_element_t<I, std::decay_t<Tup>>>>::save(
         std::get<I>(s), std::get<I>(t)),
     ...);
  }
  template <typename Tup, std::size_t... I>
  static void restoreTuple(const Snap& s, Tup&& t, std::index_sequence<I...>) {
    (StateOps<std::decay_t<std::tuple_element_t<I, std::decay_t<Tup>>>>::
         restore(std::get<I>(t), std::get<I>(s)),
     ...);
  }
  template <typename Tup, std::size_t... I>
  static void digestTuple(Digest& d, Tup&& t, std::index_sequence<I...>) {
    (StateOps<std::decay_t<std::tuple_element_t<I, std::decay_t<Tup>>>>::
         digest(d, std::get<I>(t)),
     ...);
  }
};

// Copyable types with only a custom digest (txn::Request: the whole object —
// including its volatile id — is snapshotted by copy, while simStateDigest()
// excludes the id fields from the canon).
template <typename T>
struct StateOps<T, std::enable_if_t<!detail::HasSimStateMembers<T>::value &&
                                    detail::HasSimStateDigest<T>::value &&
                                    std::is_copy_assignable_v<T>>> {
  using Snap = T;
  static void save(Snap& s, const T& v) { s = v; }
  static void restore(T& v, const Snap& s) { v = s; }
  static void digest(Digest& d, const T& v) { v.simStateDigest(d); }
};

// shared_ptr: in-flight payloads (Request/Response) mutate through shared
// ownership (acceptance/completion stamps), so both the pointer and the
// pointee are snapshotted and the restore writes the pointee back through the
// pointer.  Restoring the same pointee through several aliases is idempotent.
template <typename T>
struct StateOps<std::shared_ptr<T>,
                std::enable_if_t<StateSupported<T>::value>> {
  struct Snap {
    std::shared_ptr<T> ptr;
    typename StateOps<T>::Snap pointee{};
  };
  static void save(Snap& s, const std::shared_ptr<T>& v) {
    s.ptr = v;
    if (v) StateOps<T>::save(s.pointee, *v);
  }
  static void restore(std::shared_ptr<T>& v, const Snap& s) {
    v = s.ptr;
    if (v) StateOps<T>::restore(*v, s.pointee);
  }
  static void digest(Digest& d, const std::shared_ptr<T>& v) {
    if (!v) {
      d.add(0);
      return;
    }
    d.add(1);
    StateOps<T>::digest(d, *v);
  }
};

// unique_ptr to a snapshot-supported pointee.  Ownership is assumed stable
// over a checkpoint window (components do not create/destroy engines
// mid-run); a pointee appearing or vanishing shows up as a digest divergence.
template <typename T, typename D>
struct StateOps<std::unique_ptr<T, D>,
                std::enable_if_t<StateSupported<T>::value>> {
  struct Snap {
    bool present = false;
    typename StateOps<T>::Snap pointee{};
  };
  static void save(Snap& s, const std::unique_ptr<T, D>& v) {
    s.present = v != nullptr;
    if (v) StateOps<T>::save(s.pointee, *v);
  }
  static void restore(std::unique_ptr<T, D>& v, const Snap& s) {
    if (v && s.present) StateOps<T>::restore(*v, s.pointee);
  }
  static void digest(Digest& d, const std::unique_ptr<T, D>& v) {
    if (!v) {
      d.add(0);
      return;
    }
    d.add(1);
    StateOps<T>::digest(d, *v);
  }
};

template <typename T, typename A>
struct StateOps<std::vector<T, A>, std::enable_if_t<StateSupported<T>::value>> {
  using ES = StateOps<T>;
  using Snap = std::vector<typename ES::Snap>;
  static void save(Snap& s, const std::vector<T, A>& v) {
    s.resize(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) ES::save(s[i], v[i]);
  }
  static void restore(std::vector<T, A>& v, const Snap& s) {
    if constexpr (std::is_default_constructible_v<T>) {
      v.resize(s.size());
    } else {
      // Without a default constructor elements cannot be regrown from snaps
      // alone; such containers hold a fixed population (per-agent/per-engine
      // state seeded at construction), so only shrink must be handled.
      SIM_CHECK(v.size() >= s.size(),
                "state restore: non-default-constructible vector grew past "
                "its checkpointed size ("
                    << v.size() << " live vs " << s.size() << " saved)");
      v.erase(v.begin() + static_cast<std::ptrdiff_t>(s.size()), v.end());
    }
    for (std::size_t i = 0; i < s.size(); ++i) ES::restore(v[i], s[i]);
  }
  static void digest(Digest& d, const std::vector<T, A>& v) {
    d.add(v.size());
    for (const T& e : v) ES::digest(d, e);
  }
};

// vector<bool>'s proxy references cannot bind to the element-wise generic
// path; whole-container copy is correct and cheaper anyway.
template <typename A>
struct StateOps<std::vector<bool, A>> {
  using Snap = std::vector<bool, A>;
  static void save(Snap& s, const std::vector<bool, A>& v) { s = v; }
  static void restore(std::vector<bool, A>& v, const Snap& s) { v = s; }
  static void digest(Digest& d, const std::vector<bool, A>& v) {
    d.add(v.size());
    for (bool b : v) d.add(b ? 1u : 0u);
  }
};

template <typename T, typename A>
struct StateOps<std::deque<T, A>, std::enable_if_t<StateSupported<T>::value>> {
  using ES = StateOps<T>;
  using Snap = std::vector<typename ES::Snap>;
  static void save(Snap& s, const std::deque<T, A>& v) {
    s.resize(v.size());
    std::size_t i = 0;
    for (const T& e : v) ES::save(s[i++], e);
  }
  static void restore(std::deque<T, A>& v, const Snap& s) {
    if constexpr (std::is_default_constructible_v<T>) {
      v.resize(s.size());
    } else {
      SIM_CHECK(v.size() >= s.size(),  // see the vector restore note
                "state restore: non-default-constructible deque grew past "
                "its checkpointed size ("
                    << v.size() << " live vs " << s.size() << " saved)");
      v.erase(v.begin() + static_cast<std::ptrdiff_t>(s.size()), v.end());
    }
    std::size_t i = 0;
    for (T& e : v) ES::restore(e, s[i++]);
  }
  static void digest(Digest& d, const std::deque<T, A>& v) {
    d.add(v.size());
    for (const T& e : v) ES::digest(d, e);
  }
};

template <typename T, std::size_t N>
struct StateOps<std::array<T, N>, std::enable_if_t<StateSupported<T>::value>> {
  using ES = StateOps<T>;
  using Snap = std::array<typename ES::Snap, N>;
  static void save(Snap& s, const std::array<T, N>& v) {
    for (std::size_t i = 0; i < N; ++i) ES::save(s[i], v[i]);
  }
  static void restore(std::array<T, N>& v, const Snap& s) {
    for (std::size_t i = 0; i < N; ++i) ES::restore(v[i], s[i]);
  }
  static void digest(Digest& d, const std::array<T, N>& v) {
    for (const T& e : v) ES::digest(d, e);
  }
};

// Hash maps are assumed keyed by volatile transaction ids (the repo's only
// unordered_map use in component state): keys are snapshotted for restore but
// excluded from the digest, and values digest commutatively so neither the
// unstable ids nor the iteration order can perturb the canon.
template <typename K, typename V, typename H, typename E, typename A>
struct StateOps<std::unordered_map<K, V, H, E, A>,
                std::enable_if_t<StateSupported<V>::value>> {
  using VS = StateOps<V>;
  using Snap = std::vector<std::pair<K, typename VS::Snap>>;
  static void save(Snap& s, const std::unordered_map<K, V, H, E, A>& v) {
    s.clear();
    s.reserve(v.size());
    for (const auto& [k, val] : v) {
      s.emplace_back(k, typename VS::Snap{});
      VS::save(s.back().second, val);
    }
  }
  static void restore(std::unordered_map<K, V, H, E, A>& v, const Snap& s) {
    v.clear();
    for (const auto& [k, vs] : s) {
      V val{};
      VS::restore(val, vs);
      v.emplace(k, std::move(val));
    }
  }
  static void digest(Digest& d, const std::unordered_map<K, V, H, E, A>& v) {
    d.add(v.size());
    std::uint64_t sum = 0;
    for (const auto& [k, val] : v) {
      Digest ed;
      VS::digest(ed, val);
      sum += ed.value();
    }
    d.add(sum);
  }
};

// Hash sets of ids: restore by copy, digest by cardinality only (the elements
// are volatile ids).
template <typename K, typename H, typename E, typename A>
struct StateOps<std::unordered_set<K, H, E, A>> {
  using Snap = std::vector<K>;
  static void save(Snap& s, const std::unordered_set<K, H, E, A>& v) {
    s.assign(v.begin(), v.end());
  }
  static void restore(std::unordered_set<K, H, E, A>& v, const Snap& s) {
    v.clear();
    v.insert(s.begin(), s.end());
  }
  static void digest(Digest& d, const std::unordered_set<K, H, E, A>& v) {
    d.add(v.size());
  }
};

namespace detail {
template <typename T, bool = StateSupported<T>::value>
struct SnapOrChar {
  using type = typename StateOps<T>::Snap;
};
template <typename T>
struct SnapOrChar<T, false> {
  using type = char;  // placeholder for unsupported payload types
};
}  // namespace detail

/// StateOps<T>::Snap when T is snapshot-supported, a placeholder otherwise —
/// lets class templates (SyncFifo) declare snapshot storage for payload types
/// that may lack support (their checkpoint hooks then return false).
template <typename T>
using SnapshotOf = typename detail::SnapOrChar<T>::type;

/// Type-erased snapshot storage for one SIM_STATE manifest.  The concrete
/// snapshot tuple type depends on members declared *after* the macro site, so
/// it cannot be a data member type; instead the slot lazily materialises the
/// tuple inside the generated saveState() body (complete-class context) and
/// reuses it on every subsequent save — the steady state allocates nothing.
class SnapshotSlot {
 public:
  template <typename... Ts>
  void save(const Ts&... vs) {
    static_assert((StateSupported<std::decay_t<Ts>>::value && ...),
                  "a manifested member has no snapshot support: give its type "
                  "simStateMembers()/simStateDigest() or a StateOps "
                  "specialization (see src/sim/state.hpp)");
    using Tup = std::tuple<typename StateOps<std::decay_t<Ts>>::Snap...>;
    Tup* t = std::any_cast<Tup>(&snap_);
    if (!t) t = &snap_.emplace<Tup>();
    saveInto(*t, std::index_sequence_for<Ts...>{}, vs...);
    valid_ = true;
  }

  template <typename... Ts>
  void restore(Ts&... vs) const {
    using Tup = std::tuple<typename StateOps<std::decay_t<Ts>>::Snap...>;
    const Tup* t = std::any_cast<Tup>(&snap_);
    if (!t || !valid_) return;  // restore without a prior save is a no-op
    restoreFrom(*t, std::index_sequence_for<Ts...>{}, vs...);
  }

  bool valid() const { return valid_; }

 private:
  template <typename Tup, std::size_t... I, typename... Ts>
  static void saveInto(Tup& t, std::index_sequence<I...>, const Ts&... vs) {
    (StateOps<std::decay_t<Ts>>::save(std::get<I>(t), vs), ...);
  }
  template <typename Tup, std::size_t... I, typename... Ts>
  static void restoreFrom(const Tup& t, std::index_sequence<I...>, Ts&... vs) {
    (StateOps<std::decay_t<Ts>>::restore(vs, std::get<I>(t)), ...);
  }

  std::any snap_;
  bool valid_ = false;
};

template <typename... Ts>
void saveMembers(SnapshotSlot& slot, const Ts&... vs) {
  slot.save(vs...);
}

template <typename... Ts>
void restoreMembers(const SnapshotSlot& slot, Ts&... vs) {
  slot.restore(vs...);
}

template <typename... Ts>
void digestMembers(Digest& d, const Ts&... vs) {
  static_assert((StateSupported<std::decay_t<Ts>>::value && ...),
                "a manifested member has no digest support: give its type "
                "simStateMembers()/simStateDigest() or a StateOps "
                "specialization (see src/sim/state.hpp)");
  (StateOps<std::decay_t<Ts>>::digest(d, vs), ...);
}

}  // namespace mpsoc::sim::state

// --- SIM_STATE manifest macros ----------------------------------------------
//
// Every registered Component subclass must carry exactly one of
// SIM_STATE_MEMBERS / SIM_STATE_MEMBERS_WITH_BASE / SIM_STATE_NONE, plus one
// SIM_STATE_EXEMPT per member deliberately left out of the manifest — the
// `unmanifested-state` lint rule checks the correspondence against the class's
// member declarations.  Unknown or duplicate exemption names fail to compile
// (the generated function takes the member's address; duplicates collide).

/// Manifest for a class deriving sim::Component directly.
#define SIM_STATE_MEMBERS(...)                                                \
 public:                                                                      \
  bool saveState() override {                                                 \
    saveStateBase();                                                          \
    ::mpsoc::sim::state::saveMembers(sim_state_snap_, __VA_ARGS__);           \
    return true;                                                              \
  }                                                                           \
  void restoreState() override {                                              \
    restoreStateBase();                                                       \
    ::mpsoc::sim::state::restoreMembers(sim_state_snap_, __VA_ARGS__);        \
  }                                                                           \
  std::uint64_t stateDigest() const override {                                \
    ::mpsoc::sim::state::Digest sim_state_digest_;                            \
    digestStateBase(sim_state_digest_);                                       \
    ::mpsoc::sim::state::digestMembers(sim_state_digest_, __VA_ARGS__);       \
    return sim_state_digest_.value();                                         \
  }                                                                           \
                                                                              \
 private:                                                                     \
  ::mpsoc::sim::state::SnapshotSlot sim_state_snap_;                          \
  static_assert(true, "SIM_STATE_MEMBERS requires a trailing semicolon")

/// Manifest for a class deriving an intermediate base (txn::MasterBase,
/// txn::InterconnectBase) that carries its own SIM_STATE manifest: the base's
/// hooks are chained so base state is saved/restored/digested exactly once.
#define SIM_STATE_MEMBERS_WITH_BASE(Base, ...)                                \
 public:                                                                      \
  bool saveState() override {                                                 \
    Base::saveState();                                                        \
    ::mpsoc::sim::state::saveMembers(sim_state_snap_, __VA_ARGS__);           \
    return true;                                                              \
  }                                                                           \
  void restoreState() override {                                              \
    Base::restoreState();                                                     \
    ::mpsoc::sim::state::restoreMembers(sim_state_snap_, __VA_ARGS__);        \
  }                                                                           \
  std::uint64_t stateDigest() const override {                                \
    ::mpsoc::sim::state::Digest sim_state_digest_;                            \
    sim_state_digest_.add(Base::stateDigest());                               \
    ::mpsoc::sim::state::digestMembers(sim_state_digest_, __VA_ARGS__);       \
    return sim_state_digest_.value();                                         \
  }                                                                           \
                                                                              \
 private:                                                                     \
  ::mpsoc::sim::state::SnapshotSlot sim_state_snap_;                          \
  static_assert(true, "SIM_STATE_MEMBERS_WITH_BASE requires a trailing "      \
                      "semicolon")

/// Manifest for a component with no mutable simulation state of its own
/// (beyond the base-class activity flag, which is always covered).
#define SIM_STATE_NONE()                                                      \
 public:                                                                      \
  bool saveState() override {                                                 \
    saveStateBase();                                                          \
    return true;                                                              \
  }                                                                           \
  void restoreState() override { restoreStateBase(); }                        \
  std::uint64_t stateDigest() const override {                                \
    ::mpsoc::sim::state::Digest sim_state_digest_;                            \
    digestStateBase(sim_state_digest_);                                       \
    return sim_state_digest_.value();                                         \
  }                                                                           \
  static_assert(true, "SIM_STATE_NONE requires a trailing semicolon")

/// Exempt one member from the manifest, with a human-readable reason.  The
/// generated function references the member's address, so an unknown name
/// fails to compile; a duplicated exemption collides on the function name.
#define SIM_STATE_EXEMPT(member, reason)                                      \
 private:                                                                     \
  [[maybe_unused]] void simStateExempt_##member() const {                     \
    static_assert(sizeof(reason "") > 1,                                      \
                  "SIM_STATE_EXEMPT requires a non-empty reason");            \
    (void)&member;                                                            \
  }                                                                           \
  static_assert(true, "SIM_STATE_EXEMPT requires a trailing semicolon")
