// mpsoc_lint — repo-specific static checks for the two-phase simulation
// kernel.  Compiler warnings and clang-tidy cover generic C++ hazards; this
// tool bans the patterns that specifically corrupt *this* codebase's
// determinism and phase discipline:
//
//   bare-assert         assert() compiles out in the default RelWithDebInfo
//                       build — simulation code must use SIM_CHECK, which is
//                       on in every build type.
//   nondeterminism      rand()/srand()/time()/random_device/system clocks
//                       make runs unrepeatable; use sim::Rng (seeded, named).
//   unordered-iter      range-for over a std::unordered_{map,set} visits
//                       elements in an implementation-defined order — results
//                       fed into stats or scheduling decisions differ between
//                       libstdc++ versions and even between runs (pointer
//                       hashing).  Iterate a deterministic container instead.
//   commit-in-evaluate  calling .commit()/->commit() from an evaluate() body
//                       bypasses the kernel's commit phase and breaks the
//                       registered-state timeline (also rejected at runtime
//                       by the Phase guard, but cheaper to catch here).
//   monitor-registration a protocol-engine file (src/{stbus,ahb,axi,bridge,
//                       mem}) declaring a Component / InterconnectBase /
//                       MasterBase subclass must also declare or define
//                       attachMonitors() — every bus, bridge and memory must
//                       be coverable by the src/verify protocol monitors.
//   raw-txn-fifo        declaring a SyncFifo<RequestPtr|ResponsePtr> outside
//                       txn/ports.hpp creates a transaction channel the
//                       monitors cannot see; transactions must travel through
//                       InitiatorPort/TargetPort bundles.
//   idle-busy-poll      an evaluate() body that polls a FIFO for data
//                       (.empty()/.canPop()) in a file that neither overrides
//                       idle() nor ever calls sleep() busy-spins the kernel:
//                       runUntilIdle() cannot see the component's emptiness
//                       and activity gating can never skip it.  Components
//                       that wait on input must participate in the idle /
//                       sleep protocol (sim/component.hpp).
//   shared-static       mutable `static` storage in simulation code is state
//                       shared across concurrently-running simulations — the
//                       sweep engine (core/sweep.hpp) runs one simulation per
//                       worker thread, so such state is both a data race and
//                       a determinism leak.  A mutable function-local
//                       static inside an evaluate() body is the same hazard
//                       (hoist it into a member of the component).
//                       Allowed: const/constexpr, std::atomic (when
//                       behaviour-neutral, like the transaction-id counter),
//                       and explicitly-audited singletons (suppress with the
//                       usual annotation).
//   unmanifested-state  every trailing-underscore data member of a Component
//                       subclass must appear in exactly one SIM_STATE
//                       manifest entry (SIM_STATE_MEMBERS /
//                       SIM_STATE_MEMBERS_WITH_BASE) or carry a
//                       SIM_STATE_EXEMPT(member, "why") — otherwise
//                       checkpoint() cannot save it, and the statecheck
//                       oracle and the fast-forward handoff silently
//                       diverge (sim/state.hpp).  Reference and
//                       leading-const members are auto-exempt (wiring and
//                       immutable configuration).  Dotted entries
//                       (b_.member_) manifest foreign state a non-Component
//                       owner delegates to its evaluating side; they are
//                       skipped by the unknown-name check.  Duplicate and
//                       unknown manifest names are findings too — a typo'd
//                       entry is state the generated save/restore never
//                       touches.
//   lt-equiv-tag        a file implementing the loosely-timed fast-forward
//                       hooks (ltPlan/ltCommit/ltDone/ltLatencyPs/
//                       ltBytesPerPs — sim/fastforward.hpp) must cite the
//                       equivalence evidence that pins its analytic shortcut
//                       to the cycle-accurate model: an "LT-EQUIV:" comment
//                       naming the digest gate covering the handoff.  An LT
//                       path nobody cross-checks silently drifts from the
//                       timed model it abstracts.  The engine itself
//                       (sim/fastforward.{hpp,cpp}) is exempt — it is what
//                       the evidence measures against.
//
// Usage: mpsoc_lint [--json] [--skip <substring>]... <dir-or-file>...
//        mpsoc_lint --list-rules
//        (exit 1 when any finding is reported)
// --list-rules prints the rule registry (name + one-line rationale).
// --json emits the findings as a machine-readable JSON document on stdout —
// the schema is {"files": N, "findings": [{file, line, rule, message}]} —
// for editor and CI integration; the human-readable report stays on stderr.
// --skip drops any scanned path containing <substring> — used to exclude the
// deliberately-dirty lint fixture corpus (tests/lint/) from whole-tree runs.
// Suppress a finding with a trailing comment:  // mpsoc-lint: allow(<rule>)
//
// The scanner is a line-oriented lexer, not a parser: it strips comments and
// string literals first, so patterns in documentation or messages don't trip
// it, and it tracks evaluate() bodies by brace depth.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Finding {
  std::string file;
  std::size_t line;
  std::string rule;
  std::string message;
};

/// Rule registry for --list-rules: one line per rule, kept in the order the
/// header comment documents them.  Adding a rule without registering it here
/// is caught by the lint self-test (tests/test_lint.cpp).
struct RuleInfo {
  const char* name;
  const char* summary;
};

constexpr RuleInfo kRules[] = {
    {"bare-assert",
     "assert() compiles out in release builds; simulation code must use "
     "SIM_CHECK (sim/check.hpp)"},
    {"nondeterminism",
     "rand()/time()/random_device/system clocks make runs unrepeatable; use "
     "sim::Rng"},
    {"unordered-iter",
     "range-for over std::unordered_{map,set} visits elements in "
     "implementation-defined order"},
    {"commit-in-evaluate",
     "evaluate() must stage state; the kernel commits at the end of the edge"},
    {"monitor-registration",
     "protocol-subsystem components must be coverable by the src/verify "
     "monitors (attachMonitors)"},
    {"raw-txn-fifo",
     "transaction FIFOs must live inside monitored txn::InitiatorPort / "
     "txn::TargetPort bundles"},
    {"idle-busy-poll",
     "evaluate() polling a FIFO without idle()/sleep() busy-spins the kernel "
     "and blinds runUntilIdle()"},
    {"shared-static",
     "mutable static storage is shared across concurrently-running "
     "simulations (core/sweep.hpp)"},
    {"unmanifested-state",
     "Component member missing from its SIM_STATE manifest: checkpoint(), "
     "the statecheck oracle and the fast-forward handoff cannot restore it "
     "(sim/state.hpp)"},
    {"lt-equiv-tag",
     "loosely-timed fast-forward hooks must cite their LT-EQUIV: equivalence "
     "evidence (sim/fastforward.hpp)"},
};

bool isSourceFile(const fs::path& p) {
  const auto ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h";
}

/// True when `text` has an identifier boundary before position `pos`.
bool boundaryBefore(const std::string& text, std::size_t pos) {
  if (pos == 0) return true;
  const char c = text[pos - 1];
  return !(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == ':' || c == '>');
}

/// Strip // and /* */ comments and the contents of string/char literals from
/// one line, tracking block-comment state across lines.  Keeps a copy of the
/// removed comment text so suppression annotations stay findable.
std::string stripLine(const std::string& in, bool& in_block_comment,
                      std::string& comment_text) {
  std::string out;
  out.reserve(in.size());
  comment_text.clear();
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (in_block_comment) {
      if (in[i] == '*' && i + 1 < in.size() && in[i + 1] == '/') {
        in_block_comment = false;
        ++i;
      } else {
        comment_text += in[i];
      }
      continue;
    }
    const char c = in[i];
    if (c == '/' && i + 1 < in.size() && in[i + 1] == '/') {
      comment_text.append(in, i + 2, std::string::npos);
      break;
    }
    if (c == '/' && i + 1 < in.size() && in[i + 1] == '*') {
      in_block_comment = true;
      ++i;
      continue;
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      out += quote;
      ++i;
      while (i < in.size()) {
        if (in[i] == '\\') {
          i += 2;
          continue;
        }
        if (in[i] == quote) break;
        ++i;
      }
      out += quote;
      continue;
    }
    out += c;
  }
  return out;
}

bool suppressed(const std::string& comment, const std::string& rule) {
  return comment.find("mpsoc-lint: allow(" + rule + ")") != std::string::npos;
}

class FileLinter {
 public:
  FileLinter(std::string path, bool kernel_code)
      : path_(std::move(path)), kernel_code_(kernel_code) {
    // The monitor-registration rule covers the protocol-engine subsystems
    // that src/verify knows how to monitor.
    for (const char* dir :
         {"src/stbus", "src/ahb", "src/axi", "src/bridge", "src/mem"}) {
      if (path_.find(dir) != std::string::npos) protocol_file_ = true;
    }
    const std::string ports = "txn/ports.hpp";
    is_ports_header_ = path_.size() >= ports.size() &&
                       path_.compare(path_.size() - ports.size(),
                                     ports.size(), ports) == 0;
    // The lt-equiv-tag rule exempts the fast-forward engine itself: the
    // LtChannel/LtAgent protocol and the quantum engine are what the
    // equivalence evidence measures against, not an implementation of it.
    for (const char* ff : {"sim/fastforward.hpp", "sim/fastforward.cpp"}) {
      const std::string s = ff;
      if (path_.size() >= s.size() &&
          path_.compare(path_.size() - s.size(), s.size(), s) == 0) {
        is_ff_engine_ = true;
      }
    }
    // Component-type registry for the unmanifested-state rule: the kernel
    // bases plus this repo's concrete component classes (collectComponentDecls
    // adds any subclass declared in the scanned file itself, so new
    // components are covered without touching this list).
    component_types_ = {
        "Component",  "InterconnectBase", "MasterBase", "AhbLayer",
        "AxiBus",     "Bridge",           "DmaEngine",  "Iptg",
        "LmiController", "Router",        "SimpleMemory", "St220",
        "StbusNode",  "TimelineRecorder", "VcdSampler", "Watchdog",
        "SlaveSide",  "MasterSide",
    };
  }

  std::vector<Finding> run() {
    std::ifstream ifs(path_);
    std::string raw;
    bool in_block = false;
    std::size_t lineno = 0;
    while (std::getline(ifs, raw)) {
      ++lineno;
      std::string comment;
      const std::string code = stripLine(raw, in_block, comment);
      collectComponentDecls(code);
      collectUnorderedDecls(code);
      trackEvaluateBody(code);
      trackStateManifests(code, comment, lineno);
      if (code.find("attachMonitors") != std::string::npos) {
        has_attach_monitors_ = true;
      }
      // The LT-EQUIV evidence tag conventionally lives in a comment, so it
      // is searched in the stripped-out comment text (and in code, for the
      // rare tag hoisted into a macro or identifier).
      if (comment.find("LT-EQUIV:") != std::string::npos ||
          code.find("LT-EQUIV:") != std::string::npos) {
        has_lt_equiv_tag_ = true;
      }
      checkLine(code, comment, lineno);
    }
    if (first_poll_line_ != 0 && !has_idle_or_sleep_ &&
        !poll_rule_suppressed_) {
      report(first_poll_line_, "idle-busy-poll",
             "evaluate() polls a FIFO for data but this file neither "
             "overrides idle() nor calls sleep(); a component waiting on "
             "input must report idle (so runUntilIdle() can stop) and should "
             "sleep on empty (so activity gating can skip it) — see "
             "sim/component.hpp");
    }
    if (first_lt_hook_line_ != 0 && !has_lt_equiv_tag_ &&
        !lt_rule_suppressed_) {
      report(first_lt_hook_line_, "lt-equiv-tag",
             "this file implements loosely-timed fast-forward hooks but "
             "cites no equivalence evidence; add an \"LT-EQUIV: <test> "
             "(<gate>)\" comment naming the digest gate that pins the LT "
             "shortcut to the cycle-accurate model (e.g. LT-EQUIV: "
             "tests/test_fastforward.cpp (FfHandoffOracle digest gate)), or "
             "audit and allow()");
    }
    if (first_component_line_ != 0 && !has_attach_monitors_ &&
        !monitor_rule_suppressed_) {
      report(first_component_line_, "monitor-registration",
             "'" + first_component_name_ +
                 "' is a protocol-subsystem component but this file neither "
                 "declares nor defines attachMonitors(); wire it to the "
                 "src/verify monitors (or suppress on the class declaration)");
    }
    // unmanifested-state verdicts for any class scope the brace tracker did
    // not see closed (robustness against unbalanced preprocessor branches).
    while (!class_scopes_.empty()) {
      finalizeClassScope(class_scopes_.back());
      class_scopes_.pop_back();
    }
    return std::move(findings_);
  }

 private:
  void report(std::size_t line, const std::string& rule, std::string msg) {
    findings_.push_back({path_, line, rule, std::move(msg)});
  }

  /// Remember names of variables/members declared as unordered containers.
  void collectUnorderedDecls(const std::string& code) {
    static const std::regex decl(
        R"(std::unordered_(?:map|set|multimap|multiset)\s*<[^;]*?>\s+(\w+))");
    auto begin = std::sregex_iterator(code.begin(), code.end(), decl);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      unordered_names_.insert((*it)[1].str());
    }
  }

  /// Extend the component-type registry with subclasses declared in this
  /// file.
  void collectComponentDecls(const std::string& code) {
    static const std::regex subclass(
        R"(class\s+(\w+)(?:\s+final)?\s*:\s*(?:public|protected|private)\s+(?:[\w:]+::)?(\w+)\b)");
    std::smatch m;
    if (std::regex_search(code, m, subclass) &&
        component_types_.count(m[2].str())) {
      component_types_.insert(m[1].str());
    }
  }

  /// Track whether the current line is inside an `evaluate()` function body.
  void trackEvaluateBody(const std::string& code) {
    if (evaluate_depth_ == 0 &&
        code.find("evaluate()") != std::string::npos &&
        code.find(";") == std::string::npos) {
      in_evaluate_ = true;  // signature seen; body opens at the next '{'
    }
    for (const char c : code) {
      if (c == '{') {
        if (in_evaluate_ || evaluate_depth_ > 0) ++evaluate_depth_;
        in_evaluate_ = false;
      } else if (c == '}') {
        if (evaluate_depth_ > 0) --evaluate_depth_;
      }
    }
  }

  struct ManifestEntry {
    std::string name;
    std::size_t line;
    bool exempt;
    bool dotted;   // foreign state (owner_.member_): skip unknown-name check
    bool allowed;  // allow() on the invocation line
  };

  struct ClassScope {
    std::string name;
    std::size_t decl_line = 0;
    int body_depth = 0;
    bool suppressed = false;
    bool manifest_seen = false;
    std::vector<std::pair<std::string, std::size_t>> members;  // name, line
    std::set<std::string> member_allowed;
    std::vector<ManifestEntry> entries;
  };

  /// unmanifested-state: a brace-depth class-scope tracker.  For every class
  /// deriving from a known component type it collects (a) the
  /// trailing-underscore data members declared directly in the class body and
  /// (b) the entries of every SIM_STATE_* manifest macro; the verdict is
  /// issued when the class body closes (finalizeClassScope).
  void trackStateManifests(const std::string& code, const std::string& comment,
                           std::size_t lineno) {
    // Continuation of a manifest invocation that spans lines.
    if (manifest_parens_ > 0) {
      appendManifest(code);
      return;
    }
    // Start of a manifest invocation.
    const std::size_t mpos = code.find("SIM_STATE_");
    if (mpos != std::string::npos &&
        code.compare(mpos, 17, "SIM_STATE_MEMBERS") == 0) {
      manifest_with_base_ =
          code.compare(mpos, 27, "SIM_STATE_MEMBERS_WITH_BASE") == 0;
      manifest_exempt_ = false;
      manifest_line_ = lineno;
      manifest_suppressed_ = suppressed(comment, "unmanifested-state");
      manifest_buf_.clear();
      appendManifest(code.substr(mpos));
      return;
    }
    if (mpos != std::string::npos &&
        code.compare(mpos, 16, "SIM_STATE_EXEMPT") == 0) {
      manifest_with_base_ = false;
      manifest_exempt_ = true;
      manifest_line_ = lineno;
      manifest_suppressed_ = suppressed(comment, "unmanifested-state");
      manifest_buf_.clear();
      appendManifest(code.substr(mpos));
      return;
    }
    if (mpos != std::string::npos &&
        code.compare(mpos, 14, "SIM_STATE_NONE") == 0) {
      if (!class_scopes_.empty()) class_scopes_.back().manifest_seen = true;
      return;
    }
    // A class declaration deriving from a known component type opens a
    // tracked scope at the next '{'.  The base is matched unqualified, so
    // `sim::Component` and `txn::MasterBase` resolve against the registry.
    if (!class_pending_) {
      static const std::regex decl(
          R"(\bclass\s+((?:\w+::)*\w+)(?:\s+final)?\s*:\s*(?:public|protected|private)\s+((?:\w+::)*\w+))");
      std::smatch m;
      if (std::regex_search(code, m, decl)) {
        std::string base = m[2].str();
        if (const auto q = base.rfind("::"); q != std::string::npos) {
          base = base.substr(q + 2);
        }
        if (component_types_.count(base)) {
          class_pending_ = true;
          pending_scope_ = ClassScope{};
          std::string name = m[1].str();
          if (const auto q = name.rfind("::"); q != std::string::npos) {
            name = name.substr(q + 2);
          }
          pending_scope_.name = name;
          pending_scope_.decl_line = lineno;
          pending_scope_.suppressed = suppressed(comment, "unmanifested-state");
        }
      }
    }
    // Member collection: only lines directly at the innermost tracked class's
    // body depth (method bodies and nested structs sit deeper).
    if (!class_pending_ && !class_scopes_.empty() &&
        scope_depth_ == class_scopes_.back().body_depth) {
      collectMemberDecl(code, comment, lineno);
    }
    // Brace bookkeeping last, so the collection above saw the depth at the
    // *start* of the line.
    for (const char c : code) {
      if (c == '{') {
        ++scope_depth_;
        if (class_pending_) {
          pending_scope_.body_depth = scope_depth_;
          class_scopes_.push_back(std::move(pending_scope_));
          class_pending_ = false;
        }
      } else if (c == '}') {
        if (!class_scopes_.empty() &&
            scope_depth_ == class_scopes_.back().body_depth) {
          finalizeClassScope(class_scopes_.back());
          class_scopes_.pop_back();
        }
        if (scope_depth_ > 0) --scope_depth_;
      }
    }
  }

  /// Accumulate manifest text until the invocation's parentheses balance,
  /// then split the argument list into entries.
  void appendManifest(const std::string& code) {
    for (const char c : code) {
      if (c == '(') ++manifest_parens_;
      manifest_buf_ += c;
      if (c == ')') {
        if (--manifest_parens_ == 0) break;
      }
    }
    if (manifest_parens_ > 0 || manifest_buf_.empty()) return;
    const std::size_t open = manifest_buf_.find('(');
    const std::size_t close = manifest_buf_.rfind(')');
    std::string args;
    if (open != std::string::npos && close != std::string::npos &&
        close > open) {
      args = manifest_buf_.substr(open + 1, close - open - 1);
    }
    manifest_buf_.clear();
    if (class_scopes_.empty()) return;
    ClassScope& cs = class_scopes_.back();
    cs.manifest_seen = true;
    std::vector<std::string> entries;
    std::string cur;
    for (const char c : args) {
      if (c == ',') {
        entries.push_back(cur);
        cur.clear();
      } else if (!std::isspace(static_cast<unsigned char>(c))) {
        cur += c;
      }
    }
    entries.push_back(cur);
    std::size_t i = 0;
    if (manifest_with_base_) i = 1;  // first argument is the base class
    const std::size_t last = manifest_exempt_ ? 1 : entries.size();
    for (; i < last && i < entries.size(); ++i) {
      if (entries[i].empty()) continue;
      cs.entries.push_back({entries[i], manifest_line_, manifest_exempt_,
                            entries[i].find('.') != std::string::npos,
                            manifest_suppressed_});
      // An allow() on the invocation also vouches for the member it names —
      // the annotation documents one audited entry.
      if (manifest_suppressed_) cs.member_allowed.insert(entries[i]);
    }
  }

  /// Try to read one trailing-underscore data-member declaration from a line
  /// at class-body depth.  References are auto-exempt (wiring), leading
  /// `const` is auto-exempt (immutable configuration), and anything that
  /// looks like a function, alias or initializer-list line is skipped.
  void collectMemberDecl(const std::string& code, const std::string& comment,
                         std::size_t lineno) {
    static const std::regex skip_start(
        R"(^\s*(?:using\b|typedef\b|friend\b|static\b|template\b|enum\b|struct\b|class\b|const\b|:|#|public\s*:|protected\s*:|private\s*:))");
    if (std::regex_search(code, skip_start)) return;
    static const std::regex cand(R"((\w+_)\s*[;={,])");
    // Position of the first '(' at angle-bracket depth zero: a paren inside
    // template arguments (std::function<void(X)> cb_;) is part of a member's
    // type, one outside them marks a function declaration or a constructor
    // initializer list.
    std::size_t first_paren = std::string::npos;
    int angle = 0;
    for (std::size_t i = 0; i < code.size(); ++i) {
      if (code[i] == '<') ++angle;
      if (code[i] == '>' && angle > 0) --angle;
      if (code[i] == '(' && angle == 0) {
        first_paren = i;
        break;
      }
    }
    for (auto it = std::sregex_iterator(code.begin(), code.end(), cand);
         it != std::sregex_iterator(); ++it) {
      const std::size_t pos = static_cast<std::size_t>(it->position(1));
      if (first_paren < pos) continue;
      // Walk back over whitespace to the token that precedes the name: a
      // data member always has its type (or a '*'/',' declarator separator)
      // there.  A name that opens the line is an initializer-list fragment.
      std::size_t k = pos;
      while (k > 0 &&
             std::isspace(static_cast<unsigned char>(code[k - 1]))) {
        --k;
      }
      if (k == 0) continue;
      const char prev = code[k - 1];
      if (prev == '&') continue;  // reference member: wiring, auto-exempt
      if (!(std::isalnum(static_cast<unsigned char>(prev)) || prev == '_' ||
            prev == '>' || prev == '*' || prev == ']' || prev == ',')) {
        continue;
      }
      ClassScope& cs = class_scopes_.back();
      const std::string name = (*it)[1].str();
      if (suppressed(comment, "unmanifested-state")) {
        cs.member_allowed.insert(name);
      }
      cs.members.emplace_back(name, lineno);
    }
  }

  void finalizeClassScope(const ClassScope& cs) {
    if (!kernel_code_ || cs.suppressed) return;
    if (!cs.manifest_seen) {
      if (cs.members.empty()) return;  // stateless class: no manifest needed
      std::string preview;
      for (std::size_t i = 0; i < cs.members.size() && i < 3; ++i) {
        if (!preview.empty()) preview += ", ";
        preview += "'" + cs.members[i].first + "'";
      }
      if (cs.members.size() > 3) preview += ", ...";
      report(cs.decl_line, "unmanifested-state",
             "'" + cs.name + "' is a Component subclass with " +
                 std::to_string(cs.members.size()) + " stateful member(s) (" +
                 preview +
                 ") but no SIM_STATE manifest; declare SIM_STATE_MEMBERS / "
                 "SIM_STATE_EXEMPT / SIM_STATE_NONE (sim/state.hpp) so "
                 "checkpoint() and the statecheck oracle can save and "
                 "restore it");
      return;
    }
    std::map<std::string, std::size_t> counts;  // name -> occurrences
    std::set<std::string> member_names;
    for (const auto& [name, line] : cs.members) member_names.insert(name);
    for (const auto& e : cs.entries) {
      if (e.dotted) continue;  // foreign state owned by a non-Component
      const std::size_t n = ++counts[e.name];
      if (e.allowed) continue;
      if (n == 2) {
        report(e.line, "unmanifested-state",
               "duplicate manifest entry '" + e.name + "' in '" + cs.name +
                   "': a member must appear in exactly one SIM_STATE_MEMBERS "
                   "list or SIM_STATE_EXEMPT");
      }
      if (n == 1 && !member_names.count(e.name)) {
        report(e.line, "unmanifested-state",
               "manifest entry '" + e.name + "' names no member of '" +
                   cs.name +
                   "' (typo? state of a non-Component owner must be listed "
                   "as a dotted owner_.member_ path)");
      }
    }
    for (const auto& [name, line] : cs.members) {
      if (counts.count(name) || cs.member_allowed.count(name)) continue;
      report(line, "unmanifested-state",
             "member '" + name + "' of '" + cs.name +
                 "' is in no SIM_STATE manifest; checkpoint() and the "
                 "statecheck oracle cannot restore it — add it to "
                 "SIM_STATE_MEMBERS or document the exemption with "
                 "SIM_STATE_EXEMPT(" +
                 name + ", \"why\")");
    }
  }

  void checkLine(const std::string& code, const std::string& comment,
                 std::size_t lineno) {
    // bare-assert: simulation code only (tests may use gtest's ASSERT_*,
    // which this case-sensitive word match does not touch).
    if (kernel_code_ && !suppressed(comment, "bare-assert")) {
      const std::string needle = "assert(";
      for (std::size_t pos = code.find(needle); pos != std::string::npos;
           pos = code.find(needle, pos + 1)) {
        if (!boundaryBefore(code, pos)) continue;  // static_assert, ASSERT_EQ
        report(lineno, "bare-assert",
               "bare assert() compiles out in release builds; use SIM_CHECK "
               "(sim/check.hpp)");
      }
    }

    // nondeterminism: banned sources of run-to-run variation.
    if (kernel_code_ && !suppressed(comment, "nondeterminism")) {
      static const std::vector<std::pair<std::string, std::string>> banned = {
          {"rand(", "rand() is unseeded global state; use sim::Rng"},
          {"srand(", "srand() is global state; use sim::Rng"},
          {"time(", "wall-clock time makes runs unrepeatable; use "
                    "Simulator::now()"},
          {"random_device", "std::random_device is nondeterministic; use "
                            "sim::Rng (seeded, per-name streams)"},
          {"system_clock", "wall-clock time makes runs unrepeatable"},
          {"steady_clock", "host timing must not feed simulation state"},
          {"high_resolution_clock", "host timing must not feed simulation "
                                    "state"},
      };
      for (const auto& [needle, why] : banned) {
        for (std::size_t pos = code.find(needle); pos != std::string::npos;
             pos = code.find(needle, pos + 1)) {
          if (!boundaryBefore(code, pos)) continue;
          report(lineno, "nondeterminism", why);
        }
      }
    }

    // unordered-iter: range-for over a known unordered container.
    if (!suppressed(comment, "unordered-iter")) {
      static const std::regex range_for(R"(for\s*\([^;)]*:\s*([\w.\->]+)\s*\))");
      std::smatch m;
      if (std::regex_search(code, m, range_for)) {
        std::string range = m[1].str();
        const auto dot = range.find_last_of(".>");
        if (dot != std::string::npos) range = range.substr(dot + 1);
        if (unordered_names_.count(range)) {
          report(lineno, "unordered-iter",
                 "range-for over std::unordered container '" + range +
                     "' has implementation-defined order; iterate a "
                     "deterministic container or sort first");
        }
      }
    }

    // monitor-registration: remember the first monitored-subsystem component
    // class declared in this file; the verdict is issued at end of file.
    if (protocol_file_) {
      static const std::regex comp_decl(
          R"(class\s+((?:\w+::)*\w+)(?:\s+final)?\s*:\s*public\s+(?:mpsoc::)?(?:sim::Component|txn::InterconnectBase|txn::MasterBase)\b)");
      std::smatch m;
      if (std::regex_search(code, m, comp_decl) &&
          first_component_line_ == 0) {
        if (suppressed(comment, "monitor-registration")) {
          monitor_rule_suppressed_ = true;
        }
        first_component_line_ = lineno;
        first_component_name_ = m[1].str();
      }
    }

    // raw-txn-fifo: transaction FIFOs outside the monitored port bundles.
    if (kernel_code_ && !is_ports_header_ &&
        !suppressed(comment, "raw-txn-fifo")) {
      static const std::regex raw_fifo(
          R"(\bSyncFifo\s*<\s*(?:txn::)?(?:RequestPtr|ResponsePtr)\s*>)");
      if (std::regex_search(code, raw_fifo)) {
        report(lineno, "raw-txn-fifo",
               "transaction FIFOs must live inside txn::InitiatorPort / "
               "txn::TargetPort so protocol monitors can tap them; do not "
               "declare a bare SyncFifo of RequestPtr/ResponsePtr");
      }
    }

    // shared-static: mutable static storage in simulation code, at namespace
    // scope or inside a function (evaluate() included).  The sweep pool runs
    // simulations concurrently; anything `static` and writable is shared
    // between them.  Skips const/constexpr/atomic/thread_local data and
    // function declarations (a '(' before the declarator terminator).
    if (kernel_code_) {
      static const std::regex static_decl(R"(^\s*(?:inline\s+)?static\s)");
      if (!suppressed(comment, "shared-static") &&
          std::regex_search(code, static_decl) &&
          code.find("const") == std::string::npos &&
          code.find("std::atomic") == std::string::npos &&
          code.find("thread_local") == std::string::npos) {
        const std::size_t paren = code.find('(');
        const std::size_t term = code.find_first_of(";={");
        const bool is_function =
            paren != std::string::npos &&
            (term == std::string::npos || paren < term);
        if (!is_function) {
          report(lineno, "shared-static",
                 "mutable static storage is shared across concurrent "
                 "simulations (see core/sweep.hpp); make it per-instance, "
                 "const, or std::atomic-and-behaviour-neutral");
        }
      }
    }

    // lt-equiv-tag: remember the first loosely-timed hook implementation;
    // the verdict is issued at end of file, once it is known whether the
    // file carries an LT-EQUIV: evidence tag anywhere.
    if (kernel_code_ && !is_ff_engine_ && first_lt_hook_line_ == 0) {
      static const std::regex lt_hook(
          R"(\blt(?:Plan|Commit|Done|LatencyPs|BytesPerPs)\s*\()");
      if (std::regex_search(code, lt_hook)) {
        if (suppressed(comment, "lt-equiv-tag")) lt_rule_suppressed_ = true;
        first_lt_hook_line_ = lineno;
      }
    }

    // idle-busy-poll: FIFO data polls inside evaluate() bodies.  The verdict
    // is issued at end of file, once it is known whether the file overrides
    // idle() or calls sleep() anywhere (both count as participating in the
    // activity protocol).
    if (kernel_code_) {
      static const std::regex idle_or_sleep(
          R"(\bidle\s*\(\s*\)|\bsleep\s*\(\s*\))");
      if (std::regex_search(code, idle_or_sleep)) has_idle_or_sleep_ = true;
      if (evaluate_depth_ > 0 && first_poll_line_ == 0) {
        static const std::regex poll(
            R"((?:\.|->)(?:empty|canPop)\s*\(\s*[0-9a-zA-Z_]*\s*\))");
        if (std::regex_search(code, poll)) {
          if (suppressed(comment, "idle-busy-poll")) {
            poll_rule_suppressed_ = true;
          }
          first_poll_line_ = lineno;
        }
      }
    }

    // commit-in-evaluate: explicit commit() calls inside evaluate() bodies.
    if (evaluate_depth_ > 0 && !suppressed(comment, "commit-in-evaluate")) {
      static const std::regex commit_call(R"((?:\.|->)commit\s*\(\s*\))");
      if (std::regex_search(code, commit_call)) {
        report(lineno, "commit-in-evaluate",
               "evaluate() must stage state, never commit it; the kernel "
               "commits at the end of the edge");
      }
    }
  }


  std::string path_;
  bool kernel_code_;
  bool protocol_file_ = false;
  bool is_ports_header_ = false;
  std::set<std::string> component_types_;
  bool has_attach_monitors_ = false;
  bool monitor_rule_suppressed_ = false;
  std::size_t first_component_line_ = 0;
  std::string first_component_name_;
  std::size_t first_poll_line_ = 0;
  bool has_idle_or_sleep_ = false;
  bool poll_rule_suppressed_ = false;
  // lt-equiv-tag trackers.
  bool is_ff_engine_ = false;
  std::size_t first_lt_hook_line_ = 0;
  bool has_lt_equiv_tag_ = false;
  bool lt_rule_suppressed_ = false;
  std::vector<Finding> findings_;
  std::set<std::string> unordered_names_;
  bool in_evaluate_ = false;
  int evaluate_depth_ = 0;
  // unmanifested-state trackers.
  std::vector<ClassScope> class_scopes_;
  ClassScope pending_scope_;
  bool class_pending_ = false;
  int scope_depth_ = 0;
  std::string manifest_buf_;
  int manifest_parens_ = 0;
  bool manifest_with_base_ = false;
  bool manifest_exempt_ = false;
  bool manifest_suppressed_ = false;
  std::size_t manifest_line_ = 0;
};

/// JSON string escaping for the --json report.
std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> skips;
  std::vector<fs::path> roots;
  bool want_json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--skip") == 0 && i + 1 < argc) {
      skips.emplace_back(argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0) {
      want_json = true;
    } else if (std::strcmp(argv[i], "--list-rules") == 0) {
      for (const RuleInfo& r : kRules) {
        std::cout << r.name << " - " << r.summary << "\n";
      }
      return 0;
    } else {
      roots.emplace_back(argv[i]);
    }
  }
  if (roots.empty()) {
    std::cerr << "usage: mpsoc_lint [--json] [--skip <substring>]... "
                 "<dir-or-file>...\n"
                 "       mpsoc_lint --list-rules\n";
    return 2;
  }
  const auto skipped = [&](const fs::path& p) {
    const std::string s = p.string();
    for (const auto& sub : skips) {
      if (s.find(sub) != std::string::npos) return true;
    }
    return false;
  };

  std::vector<fs::path> files;
  for (const fs::path& root : roots) {
    if (fs::is_directory(root)) {
      for (const auto& e : fs::recursive_directory_iterator(root)) {
        if (e.is_regular_file() && isSourceFile(e.path()) &&
            !skipped(e.path())) {
          files.push_back(e.path());
        }
      }
    } else if (fs::is_regular_file(root)) {
      if (!skipped(root)) files.push_back(root);
    } else {
      std::cerr << "mpsoc_lint: no such file or directory: " << root << "\n";
      return 2;
    }
  }
  std::sort(files.begin(), files.end());

  std::vector<Finding> all;
  for (const auto& f : files) {
    // The kernel-discipline rules (bare-assert, nondeterminism) apply to
    // simulation code under src/; structural rules apply everywhere.
    const bool kernel_code =
        f.string().find("src/") != std::string::npos ||
        f.string().find("src\\") != std::string::npos;
    auto found = FileLinter(f.string(), kernel_code).run();
    all.insert(all.end(), found.begin(), found.end());
  }

  for (const auto& f : all) {
    std::cerr << f.file << ":" << f.line << ": [" << f.rule << "] "
              << f.message << "\n";
  }
  if (want_json) {
    std::cout << "{\n  \"files\": " << files.size() << ",\n  \"findings\": [";
    for (std::size_t i = 0; i < all.size(); ++i) {
      std::cout << (i == 0 ? "\n" : ",\n")
                << "    {\"file\": \"" << jsonEscape(all[i].file)
                << "\", \"line\": " << all[i].line << ", \"rule\": \""
                << jsonEscape(all[i].rule) << "\", \"message\": \""
                << jsonEscape(all[i].message) << "\"}";
    }
    std::cout << (all.empty() ? "]\n}\n" : "\n  ]\n}\n");
  }
  if (!all.empty()) {
    std::cerr << all.size() << " finding(s) in " << files.size()
              << " file(s)\n";
    return 1;
  }
  if (!want_json) {
    std::cout << "mpsoc_lint: " << files.size() << " files clean\n";
  }
  return 0;
}
