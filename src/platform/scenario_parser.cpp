#include "platform/scenario_parser.hpp"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "platform/validate.hpp"

namespace mpsoc::platform {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& msg) {
  throw std::runtime_error("scenario, line " + std::to_string(line) + ": " +
                           msg);
}

std::string trim(std::string s) {
  auto issp = [](unsigned char c) { return std::isspace(c) != 0; };
  while (!s.empty() && issp(static_cast<unsigned char>(s.front()))) s.erase(s.begin());
  while (!s.empty() && issp(static_cast<unsigned char>(s.back()))) s.pop_back();
  return s;
}

std::uint64_t parseU64(const std::string& s, std::size_t line) {
  std::size_t pos = 0;
  std::uint64_t v = 0;
  try {
    v = std::stoull(s, &pos, 0);
  } catch (const std::exception&) {
    fail(line, "expected a number, got '" + s + "'");
  }
  // Outside the try: fail() throws, and the catch above must not swallow it.
  if (pos != s.size()) fail(line, "trailing characters in '" + s + "'");
  return v;
}

double parseDouble(const std::string& s, std::size_t line) {
  std::size_t pos = 0;
  double v = 0.0;
  try {
    v = std::stod(s, &pos);
  } catch (const std::exception&) {
    fail(line, "expected a real number, got '" + s + "'");
  }
  if (pos != s.size()) fail(line, "trailing characters in '" + s + "'");
  return v;
}

bool parseBool(const std::string& s, std::size_t line) {
  if (s == "true" || s == "1" || s == "yes") return true;
  if (s == "false" || s == "0" || s == "no") return false;
  fail(line, "expected a boolean, got '" + s + "'");
}

}  // namespace

NamedScenario parseScenario(const std::string& text) {
  NamedScenario out;
  out.name = "scenario";
  PlatformConfig& cfg = out.config;

  std::istringstream iss(text);
  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(iss, raw)) {
    ++line_no;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    const std::string line = trim(raw);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) fail(line_no, "expected 'key = value'");
    const std::string key = trim(line.substr(0, eq));
    const std::string val = trim(line.substr(eq + 1));
    if (val.empty()) fail(line_no, "empty value for '" + key + "'");

    if (key == "name") {
      out.name = val;
    } else if (key == "protocol") {
      if (val == "stbus") cfg.protocol = Protocol::Stbus;
      else if (val == "ahb") cfg.protocol = Protocol::Ahb;
      else if (val == "axi") cfg.protocol = Protocol::Axi;
      else fail(line_no, "unknown protocol '" + val + "'");
    } else if (key == "topology") {
      if (val == "full") cfg.topology = Topology::Full;
      else if (val == "collapsed") cfg.topology = Topology::Collapsed;
      else if (val == "single-layer") cfg.topology = Topology::SingleLayer;
      else if (val == "noc-mesh") cfg.topology = Topology::NocMesh;
      else fail(line_no, "unknown topology '" + val + "'");
    } else if (key == "memory") {
      if (val == "onchip") cfg.memory = MemoryKind::OnChip;
      else if (val == "lmi") cfg.memory = MemoryKind::Lmi;
      else fail(line_no, "unknown memory kind '" + val + "'");
    } else if (key == "wait_states") {
      cfg.onchip_wait_states = static_cast<unsigned>(parseU64(val, line_no));
    } else if (key == "stbus_type") {
      const auto t = parseU64(val, line_no);
      if (t < 1 || t > 3) fail(line_no, "stbus_type must be 1..3");
      cfg.stbus_type = static_cast<stbus::StbusType>(t);
    } else if (key == "arbitration") {
      if (val == "fixed-priority") cfg.arbitration = txn::ArbPolicy::FixedPriority;
      else if (val == "round-robin") cfg.arbitration = txn::ArbPolicy::RoundRobin;
      else if (val == "lru") cfg.arbitration = txn::ArbPolicy::LeastRecentlyUsed;
      else if (val == "tdma") cfg.arbitration = txn::ArbPolicy::Tdma;
      else if (val == "lottery") cfg.arbitration = txn::ArbPolicy::Lottery;
      else fail(line_no, "unknown arbitration policy '" + val + "'");
    } else if (key == "message_arbitration") {
      cfg.message_arbitration = parseBool(val, line_no);
    } else if (key == "lightweight_bridges") {
      cfg.force_lightweight_bridges = parseBool(val, line_no);
    } else if (key == "split_bridges") {
      cfg.force_split_bridges = parseBool(val, line_no);
    } else if (key == "mem_bridge_split") {
      cfg.mem_bridge_split = parseBool(val, line_no);
    } else if (key == "lmi_lookahead") {
      cfg.lmi.lookahead = static_cast<unsigned>(parseU64(val, line_no));
    } else if (key == "lmi_merging") {
      cfg.lmi.opcode_merging = parseBool(val, line_no);
    } else if (key == "lmi_merge_limit") {
      cfg.lmi.merge_limit = static_cast<unsigned>(parseU64(val, line_no));
    } else if (key == "lmi_divider") {
      cfg.lmi.clock_divider = static_cast<unsigned>(parseU64(val, line_no));
    } else if (key == "sdram_cas") {
      cfg.lmi.timing.cas_latency = static_cast<unsigned>(parseU64(val, line_no));
    } else if (key == "sdram_trcd") {
      cfg.lmi.timing.t_rcd = static_cast<unsigned>(parseU64(val, line_no));
    } else if (key == "sdram_trp") {
      cfg.lmi.timing.t_rp = static_cast<unsigned>(parseU64(val, line_no));
    } else if (key == "sdram_tras") {
      cfg.lmi.timing.t_ras = static_cast<unsigned>(parseU64(val, line_no));
    } else if (key == "sdram_trc") {
      cfg.lmi.timing.t_rc = static_cast<unsigned>(parseU64(val, line_no));
    } else if (key == "sdram_twr") {
      cfg.lmi.timing.t_wr = static_cast<unsigned>(parseU64(val, line_no));
    } else if (key == "sdram_trfc") {
      cfg.lmi.timing.t_rfc = static_cast<unsigned>(parseU64(val, line_no));
    } else if (key == "sdram_trefi") {
      cfg.lmi.timing.t_refi = static_cast<unsigned>(parseU64(val, line_no));
    } else if (key == "sdram_ddr") {
      cfg.lmi.timing.ddr = parseBool(val, line_no);
    } else if (key == "mem_fifo_depth") {
      cfg.mem_fifo_depth = parseU64(val, line_no);
    } else if (key == "noc_width") {
      cfg.noc_width = static_cast<unsigned>(parseU64(val, line_no));
    } else if (key == "noc_height") {
      cfg.noc_height = static_cast<unsigned>(parseU64(val, line_no));
    } else if (key == "master_limit") {
      cfg.master_limit = static_cast<unsigned>(parseU64(val, line_no));
    } else if (key == "cpu_mhz") {
      cfg.cpu_mhz = parseDouble(val, line_no);
    } else if (key == "workload_scale") {
      cfg.workload_scale = parseDouble(val, line_no);
    } else if (key == "outstanding_override") {
      cfg.agent_outstanding_override =
          static_cast<unsigned>(parseU64(val, line_no));
    } else if (key == "burst_override") {
      cfg.agent_burst_override_beats =
          static_cast<std::uint32_t>(parseU64(val, line_no));
    } else if (key == "use_case") {
      if (val == "playback") cfg.use_case = UseCase::Playback;
      else if (val == "record") cfg.use_case = UseCase::Record;
      else fail(line_no, "unknown use_case '" + val + "'");
    } else if (key == "include_cpu") {
      cfg.include_cpu = parseBool(val, line_no);
    } else if (key == "include_dma") {
      cfg.include_dma = parseBool(val, line_no);
    } else if (key == "include_scratchpad") {
      cfg.include_scratchpad = parseBool(val, line_no);
    } else if (key == "scratchpad_wait_states") {
      cfg.scratchpad_wait_states = static_cast<unsigned>(parseU64(val, line_no));
    } else if (key == "two_phase") {
      cfg.two_phase_workload = parseBool(val, line_no);
    } else if (key == "phase1_end_ps") {
      cfg.phase1_end_ps = static_cast<sim::Picos>(parseU64(val, line_no));
    } else if (key == "phase2_end_ps") {
      cfg.phase2_end_ps = static_cast<sim::Picos>(parseU64(val, line_no));
    } else if (key == "duration_ps") {
      out.duration_ps = static_cast<sim::Picos>(parseU64(val, line_no));
    } else if (key == "seed") {
      cfg.seed = parseU64(val, line_no);
    } else if (key == "verify") {
      cfg.verify = parseBool(val, line_no);
    } else if (key == "statecheck") {
      cfg.statecheck = parseBool(val, line_no);
    } else if (key == "statecheck_at_ps") {
      cfg.statecheck_at_ps = static_cast<sim::Picos>(parseU64(val, line_no));
    } else if (key == "statecheck_edges") {
      cfg.statecheck_edges = parseU64(val, line_no);
    } else if (key == "ff_until_ps") {
      cfg.ff_until_ps = static_cast<sim::Picos>(parseU64(val, line_no));
    } else if (key == "ff_quantum_ps") {
      cfg.ff_quantum_ps = static_cast<sim::Picos>(parseU64(val, line_no));
    } else {
      fail(line_no, "unknown scenario option '" + key + "'");
    }
  }
  const std::string why = validateConfig(cfg, out.duration_ps);
  if (!why.empty()) {
    throw std::runtime_error("scenario '" + out.name + "': " + why);
  }
  if (cfg.two_phase_workload && out.duration_ps == 0) {
    throw std::runtime_error("scenario '" + out.name +
                             "': two_phase workloads are unbounded — set "
                             "duration_ps to a finite simulated time");
  }
  return out;
}

std::string emitScenario(const NamedScenario& scenario) {
  const PlatformConfig& cfg = scenario.config;
  std::ostringstream os;
  auto b = [](bool v) { return v ? "true" : "false"; };
  auto d = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  const char* arb = "fixed-priority";
  switch (cfg.arbitration) {
    case txn::ArbPolicy::FixedPriority: arb = "fixed-priority"; break;
    case txn::ArbPolicy::RoundRobin: arb = "round-robin"; break;
    case txn::ArbPolicy::LeastRecentlyUsed: arb = "lru"; break;
    case txn::ArbPolicy::Tdma: arb = "tdma"; break;
    case txn::ArbPolicy::Lottery: arb = "lottery"; break;
  }
  const char* proto = "stbus";
  switch (cfg.protocol) {
    case Protocol::Stbus: proto = "stbus"; break;
    case Protocol::Ahb: proto = "ahb"; break;
    case Protocol::Axi: proto = "axi"; break;
  }
  os << "name = " << scenario.name << "\n"
     << "protocol = " << proto << "\n"
     << "topology = " << toString(cfg.topology) << "\n"
     << "memory = " << (cfg.memory == MemoryKind::Lmi ? "lmi" : "onchip")
     << "\n"
     << "wait_states = " << cfg.onchip_wait_states << "\n"
     << "stbus_type = " << static_cast<unsigned>(cfg.stbus_type) << "\n"
     << "arbitration = " << arb << "\n"
     << "message_arbitration = " << b(cfg.message_arbitration) << "\n"
     << "lightweight_bridges = " << b(cfg.force_lightweight_bridges) << "\n"
     << "split_bridges = " << b(cfg.force_split_bridges) << "\n"
     << "mem_bridge_split = " << b(cfg.mem_bridge_split) << "\n"
     << "lmi_lookahead = " << cfg.lmi.lookahead << "\n"
     << "lmi_merging = " << b(cfg.lmi.opcode_merging) << "\n"
     << "lmi_merge_limit = " << cfg.lmi.merge_limit << "\n"
     << "lmi_divider = " << cfg.lmi.clock_divider << "\n"
     << "sdram_cas = " << cfg.lmi.timing.cas_latency << "\n"
     << "sdram_trcd = " << cfg.lmi.timing.t_rcd << "\n"
     << "sdram_trp = " << cfg.lmi.timing.t_rp << "\n"
     << "sdram_tras = " << cfg.lmi.timing.t_ras << "\n"
     << "sdram_trc = " << cfg.lmi.timing.t_rc << "\n"
     << "sdram_twr = " << cfg.lmi.timing.t_wr << "\n"
     << "sdram_trfc = " << cfg.lmi.timing.t_rfc << "\n"
     << "sdram_trefi = " << cfg.lmi.timing.t_refi << "\n"
     << "sdram_ddr = " << b(cfg.lmi.timing.ddr) << "\n"
     << "mem_fifo_depth = " << cfg.mem_fifo_depth << "\n"
     << "noc_width = " << cfg.noc_width << "\n"
     << "noc_height = " << cfg.noc_height << "\n"
     << "master_limit = " << cfg.master_limit << "\n"
     << "cpu_mhz = " << d(cfg.cpu_mhz) << "\n"
     << "workload_scale = " << d(cfg.workload_scale) << "\n"
     << "outstanding_override = " << cfg.agent_outstanding_override << "\n"
     << "burst_override = " << cfg.agent_burst_override_beats << "\n"
     << "include_cpu = " << b(cfg.include_cpu) << "\n"
     << "include_dma = " << b(cfg.include_dma) << "\n"
     << "include_scratchpad = " << b(cfg.include_scratchpad) << "\n"
     << "scratchpad_wait_states = " << cfg.scratchpad_wait_states << "\n"
     << "use_case = "
     << (cfg.use_case == UseCase::Record ? "record" : "playback") << "\n"
     << "two_phase = " << b(cfg.two_phase_workload) << "\n"
     << "phase1_end_ps = " << cfg.phase1_end_ps << "\n"
     << "phase2_end_ps = " << cfg.phase2_end_ps << "\n"
     << "duration_ps = " << scenario.duration_ps << "\n"
     << "seed = " << cfg.seed << "\n"
     << "verify = " << b(cfg.verify) << "\n"
     << "statecheck = " << b(cfg.statecheck) << "\n"
     << "statecheck_at_ps = " << cfg.statecheck_at_ps << "\n"
     << "statecheck_edges = " << cfg.statecheck_edges << "\n"
     << "ff_until_ps = " << cfg.ff_until_ps << "\n"
     << "ff_quantum_ps = " << cfg.ff_quantum_ps << "\n";
  return os.str();
}

NamedScenario loadScenario(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open scenario '" + path + "'");
  std::ostringstream ss;
  ss << f.rdbuf();
  return parseScenario(ss.str());
}

}  // namespace mpsoc::platform
