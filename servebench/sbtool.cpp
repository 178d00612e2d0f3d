// sbtool — the servebench client and in-process probe.
//
// run.py drives flopsim-serve over a Unix socket and uses this tool for
// the parts that must not pay interpreter overhead or that need the
// library's public API:
//
//   load   --unix= --requests= --conns= --seconds= --server-pid=
//          --lat= --out= --summary= [--min-samples=]
//          closed-loop client: each connection sends its next request only
//          after the previous reply arrived. Records every round trip, every
//          response and the server's user+sys CPU over the window.
//   ref    --requests= --indices= --out= [--jobs=]
//          reference evaluation: a cacheless, interpreted serve::Service
//          in this process answers the selected request lines.
//   trace  --requests= --dir= --seconds= [--block=]
//          traced in-process replay: every request goes through
//          serve::Service::handle_line with obs::Tracer on, and
//          benchmark-side spans wrap direct calls into the layers the
//          service uses. The same requests then go through once more as
//          cache hits. Prints per-layer numbers as one JSON object.
//   info   the backend kAuto resolves to in this environment.
//
// Every path is taken as given (run.py passes paths relative to the run
// directory, which keeps the Unix socket path short).
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/pareto.hpp"
#include "analysis/seu.hpp"
#include "analysis/sweep.hpp"
#include "fault/hardening.hpp"
#include "fp/ops.hpp"
#include "kernel/matmul.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "power/unit_power.hpp"
#include "rtl/evaluator.hpp"
#include "serve/cache.hpp"
#include "serve/json.hpp"
#include "serve/service.hpp"
#include "serve/telemetry.hpp"
#include "units/fp_unit.hpp"

namespace {

using namespace flopsim;
using Clock = std::chrono::steady_clock;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Args {
  std::map<std::string, std::string> kv;
  std::string str(const std::string& k, const std::string& def = "") const {
    const auto it = kv.find(k);
    return it == kv.end() ? def : it->second;
  }
  double num(const std::string& k, double def) const {
    const auto it = kv.find(k);
    return it == kv.end() ? def : std::stod(it->second);
  }
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 2; i < argc; ++i) {
    const std::string tok = argv[i];
    if (tok.rfind("--", 0) != 0) throw std::invalid_argument("bad arg: " + tok);
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos) {
      a.kv[tok.substr(2)] = "1";
    } else {
      a.kv[tok.substr(2, eq - 2)] = tok.substr(eq + 1);
    }
  }
  return a;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// Flat JSON object of named numbers, every digit kept.
class NumObject {
 public:
  void set(const std::string& k, double v) { vals_.emplace_back(k, v); }
  std::string str() const {
    std::string s = "{";
    char buf[64];
    for (std::size_t i = 0; i < vals_.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.17g", vals_[i].second);
      s += (i ? ", \"" : "\"") + vals_[i].first + "\": " + buf;
    }
    return s + "}";
  }

 private:
  std::vector<std::pair<std::string, double>> vals_;
};

// --- load -----------------------------------------------------------------

/// utime + stime of a process, in clock ticks; -1 when unreadable.
long process_cpu_ticks(long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat;
  if (!std::getline(in, stat)) return -1;
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 (1-based), i.e. 12th/13th after the ')'.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return -1;
  std::istringstream rest(stat.substr(close + 2));
  std::string tok;
  long utime = 0;
  long stime = 0;
  for (int field = 3; field <= 15 && rest >> tok; ++field) {
    if (field == 14) utime = std::stol(tok);
    if (field == 15) stime = std::stol(tok);
  }
  return utime + stime;
}

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    ::close(fd);
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

struct Conn {
  int fd = -1;
  long index = -1;  ///< request in flight, -1 = idle
  Clock::time_point sent{};
  std::string buf;
};

int run_load(const Args& a) {
  const std::vector<std::string> lines = read_lines(a.str("requests"));
  if (lines.empty()) throw std::runtime_error("no requests");
  const int nconns = static_cast<int>(a.num("conns", 2));
  const double seconds = a.num("seconds", 10);
  const long min_samples = static_cast<long>(a.num("min-samples", 0));
  // Short of min-samples, the window stretches up to 3x --seconds.
  const double max_seconds = 3 * seconds;
  const long server_pid = static_cast<long>(a.num("server-pid", 0));

  std::vector<Conn> conns(static_cast<std::size_t>(nconns));
  for (Conn& c : conns) {
    c.fd = connect_unix(a.str("unix"));
    if (c.fd < 0) throw std::runtime_error("cannot connect");
  }

  std::vector<double> records;  // (index, latency_us) pairs
  std::vector<std::pair<long, std::string>> responses;
  long next = 0;
  bool exhausted = false;

  const long ticks0 = process_cpu_ticks(server_pid);
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point soft_end =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  const Clock::time_point hard_end =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(max_seconds));

  const auto issue = [&](Conn& c) {
    const Clock::time_point now = Clock::now();
    const long done = static_cast<long>(responses.size());
    const bool keep_going =
        now < soft_end || (done < min_samples && now < hard_end);
    if (!keep_going) return;
    if (next >= static_cast<long>(lines.size())) {
      exhausted = true;
      return;
    }
    c.index = next++;
    c.sent = Clock::now();
    if (!send_all(c.fd, lines[static_cast<std::size_t>(c.index)] + "\n")) {
      throw std::runtime_error("send failed");
    }
  };

  for (Conn& c : conns) issue(c);
  std::vector<pollfd> pfds(conns.size());
  char chunk[65536];
  for (;;) {
    std::size_t live = 0;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      pfds[i].fd = conns[i].index >= 0 ? conns[i].fd : -1;
      pfds[i].events = POLLIN;
      pfds[i].revents = 0;
      if (conns[i].index >= 0) ++live;
    }
    if (live == 0) break;
    if (::poll(pfds.data(), pfds.size(), 30000) <= 0) {
      throw std::runtime_error("server stopped answering");
    }
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if (pfds[i].revents == 0) continue;
      Conn& c = conns[i];
      const ssize_t n = ::recv(c.fd, chunk, sizeof chunk, 0);
      if (n <= 0) throw std::runtime_error("connection closed");
      c.buf.append(chunk, static_cast<std::size_t>(n));
      const std::size_t nl = c.buf.find('\n');
      if (nl == std::string::npos) continue;
      const Clock::time_point now = Clock::now();
      records.push_back(static_cast<double>(c.index));
      records.push_back(us_between(c.sent, now));
      responses.emplace_back(c.index, c.buf.substr(0, nl));
      c.buf.erase(0, nl + 1);
      c.index = -1;
      issue(c);
    }
  }
  const Clock::time_point t1 = Clock::now();
  const long ticks1 = process_cpu_ticks(server_pid);
  for (Conn& c : conns) ::close(c.fd);
  if (ticks0 < 0 || ticks1 < 0) throw std::runtime_error("no server CPU");

  {
    std::ofstream lat(a.str("lat"), std::ios::binary);
    lat.write(reinterpret_cast<const char*>(records.data()),
              static_cast<std::streamsize>(records.size() * sizeof(double)));
    if (!lat) throw std::runtime_error("cannot write latencies");
  }
  {
    std::ofstream out(a.str("out"));
    for (const auto& [index, body] : responses) {
      out << index << "\t" << body << "\n";
    }
    if (!out) throw std::runtime_error("cannot write responses");
  }
  NumObject s;
  s.set("sent", static_cast<double>(next));
  s.set("completed", static_cast<double>(responses.size()));
  s.set("window_s", us_between(t0, t1) / 1e6);
  s.set("cpu_ticks", static_cast<double>(ticks1 - ticks0));
  s.set("clk_tck", static_cast<double>(::sysconf(_SC_CLK_TCK)));
  s.set("exhausted", exhausted ? 1.0 : 0.0);
  std::ofstream summary(a.str("summary"));
  summary << s.str() << "\n";
  return summary ? 0 : 1;
}

// --- ref ------------------------------------------------------------------

int run_ref(const Args& a) {
  const std::vector<std::string> lines = read_lines(a.str("requests"));
  std::vector<long> indices;
  for (const std::string& s : read_lines(a.str("indices"))) {
    indices.push_back(std::stol(s));
  }
  const int jobs = std::max(1, static_cast<int>(a.num("jobs", 1)));
  std::vector<std::string> out(indices.size());
  std::atomic<std::size_t> cursor{0};
  std::vector<std::thread> pool;
  for (int j = 0; j < jobs; ++j) {
    pool.emplace_back([&] {
      obs::Registry reg;
      serve::ServiceConfig sc;
      sc.threads = 1;
      sc.backend = rtl::EvalBackend::kInterpreted;
      serve::Service service(sc, nullptr, reg);
      for (std::size_t i = cursor++; i < indices.size(); i = cursor++) {
        out[i] = service.handle_line(
            lines.at(static_cast<std::size_t>(indices[i])));
      }
    });
  }
  for (std::thread& t : pool) t.join();
  std::ofstream o(a.str("out"));
  for (std::size_t i = 0; i < indices.size(); ++i) {
    o << indices[i] << "\t" << out[i] << "\n";
  }
  return o ? 0 : 1;
}

// --- trace ----------------------------------------------------------------

units::UnitKind kind_of(const std::string& op) {
  if (op == "add") return units::UnitKind::kAdder;
  if (op == "mul") return units::UnitKind::kMultiplier;
  if (op == "div") return units::UnitKind::kDivider;
  if (op == "sqrt") return units::UnitKind::kSqrt;
  if (op == "mac") return units::UnitKind::kMac;
  throw std::invalid_argument("unknown op " + op);
}

fp::FpFormat format_of(long long bits) {
  switch (bits) {
    case 32: return fp::FpFormat::binary32();
    case 48: return fp::FpFormat::binary48();
    case 64: return fp::FpFormat::binary64();
    default: return fp::FpFormat::binary16();
  }
}

std::string str_of(const serve::JsonValue& body, const char* key,
                   const std::string& def) {
  const serve::JsonValue* v = body.get(key);
  return v != nullptr && v->is_string() ? v->as_string() : def;
}

long long int_of(const serve::JsonValue& body, const char* key,
                 long long def) {
  const serve::JsonValue* v = body.get(key);
  return v != nullptr && v->is_int() ? v->as_int() : def;
}

bool bool_of(const serve::JsonValue& body, const char* key, bool def) {
  const serve::JsonValue* v = body.get(key);
  return v != nullptr && v->is_bool() ? v->as_bool() : def;
}

/// Per-layer accumulator: summed self time and call count.
struct Layer {
  double us = 0.0;
  long calls = 0;
};

/// Self time of every span of one request: its duration minus the time
/// its direct children (spans nested inside it on the same thread)
/// cover. Worker "chunk" spans are transparent. Each span is keyed by
/// "<parent name>/<name>" so phases shared by the two campaign kinds
/// ("golden", "inject", ...) stay apart.
std::map<std::string, Layer> self_times(std::vector<obs::TraceEvent> evs,
                                        int tid) {
  evs.erase(std::remove_if(evs.begin(), evs.end(),
                           [&](const obs::TraceEvent& e) {
                             return e.tid != tid || e.name == "chunk";
                           }),
            evs.end());
  std::sort(evs.begin(), evs.end(),
            [](const obs::TraceEvent& x, const obs::TraceEvent& y) {
              if (x.ts_us != y.ts_us) return x.ts_us < y.ts_us;
              return x.dur_us > y.dur_us;
            });
  std::vector<double> child_us(evs.size(), 0.0);
  std::vector<int> parent(evs.size(), -1);
  std::vector<int> stack;
  for (std::size_t i = 0; i < evs.size(); ++i) {
    while (!stack.empty()) {
      const obs::TraceEvent& top = evs[static_cast<std::size_t>(stack.back())];
      if (evs[i].ts_us >= top.ts_us + top.dur_us) {
        stack.pop_back();
      } else {
        break;
      }
    }
    if (!stack.empty()) {
      parent[i] = stack.back();
      child_us[static_cast<std::size_t>(stack.back())] += evs[i].dur_us;
    }
    stack.push_back(static_cast<int>(i));
  }
  std::map<std::string, Layer> out;
  for (std::size_t i = 0; i < evs.size(); ++i) {
    const std::string up =
        parent[i] >= 0 ? evs[static_cast<std::size_t>(parent[i])].name : "";
    Layer& l = out[up + "/" + evs[i].name];
    l.us += std::max(0.0, evs[i].dur_us - child_us[i]);
    l.calls += 1;
  }
  return out;
}

/// The service's depth choice for "stages": 0 / absent = sweep optimum.
/// Returns the number of units the sweep built (0 when no sweep ran).
int mirror_depth(units::UnitKind kind, fp::FpFormat fmt,
                 units::UnitConfig& cfg, long long stages) {
  if (stages != 0) {
    cfg.stages = static_cast<int>(stages);
    return 0;
  }
  auto span = obs::Tracer::global().span("bench.sweep_unit", "bench");
  const analysis::SweepResult sweep =
      analysis::sweep_unit(kind, fmt, cfg.objective, cfg.tech, 1);
  cfg.stages = analysis::select_min_max_opt(sweep).opt.stages;
  return static_cast<int>(sweep.points.size());
}

units::UnitConfig unit_config_of(const serve::JsonValue& body) {
  units::UnitConfig cfg;
  cfg.objective = str_of(body, "objective", "area") == "speed"
                      ? device::Objective::kSpeed
                      : device::Objective::kArea;
  cfg.ieee_mode = bool_of(body, "ieee", false);
  cfg.use_embedded_multipliers = !bool_of(body, "fabric", false);
  return cfg;
}

/// Benchmark-side spans around the public calls evaluate_plan and the
/// unit-campaign path make outside the campaign engine. Returns the
/// number of FpUnit constructions the service makes for the request.
int mirror_eval(const serve::JsonValue& body) {
  obs::Tracer& tracer = obs::Tracer::global();
  const std::string type = str_of(body, "type", "");
  const std::string kernel = str_of(body, "kernel", "unit");
  if (type == "campaign" && kernel == "matmul") return 0;
  const units::UnitKind kind = kind_of(str_of(body, "op", ""));
  const fp::FpFormat fmt = format_of(int_of(body, "bits", 32));
  units::UnitConfig cfg = unit_config_of(body);
  int builds = mirror_depth(kind, fmt, cfg, int_of(body, "stages", 0));
  auto build_span = tracer.span("bench.fpunit_build", "bench");
  const units::FpUnit unit(kind, fmt, cfg);
  build_span.end();
  ++builds;
  if (type == "campaign") return builds;
  {
    auto span = tracer.span("bench.timing_area", "bench");
    const rtl::Timing t = unit.timing();
    const rtl::AreaBreakdown area = unit.area();
    volatile double sink = t.freq_mhz + area.pipeline_ffs +
                           unit.freq_per_area();
    (void)sink;
  }
  {
    auto span = tracer.span("bench.unit_power", "bench");
    volatile double sink = power::unit_power(unit, 100.0).total_mw();
    (void)sink;
  }
  if (const serve::JsonValue* h = body.get("harden"); h != nullptr) {
    auto span = tracer.span("bench.hardening_cost", "bench");
    volatile double sink =
        fault::hardening_cost(unit, fault::parse_scheme(h->as_string()))
            .area_factor;
    (void)sink;
  }
  return builds;
}

/// The operands run_matmul_campaign draws for this request.
void matmul_operands(int n, std::uint64_t seed, fp::FpFormat fmt,
                     kernel::Matrix* a, kernel::Matrix* b) {
  std::mt19937_64 rng(seed);
  std::vector<double> av, bv;
  for (int i = 0; i < n * n; ++i) {
    av.push_back((static_cast<double>(rng() % 2001) - 1000.0) / 499.0);
    bv.push_back((static_cast<double>(rng() % 2001) - 1000.0) / 499.0);
  }
  *a = kernel::matrix_from_doubles(av, n, fmt);
  *b = kernel::matrix_from_doubles(bv, n, fmt);
}

struct FpTiming {
  double add_ns = 0.0;
  double mul_ns = 0.0;
  long ops = 0;
};

/// Softfloat add/mul over the request's own operand pairs (every
/// a[i][k] * b[k][j] product and its running sum), repeated `reps` times.
void time_fp_ops(const kernel::Matrix& a, const kernel::Matrix& b,
                 fp::FpFormat fmt, int reps, FpTiming* t) {
  const int n = a.n;
  fp::FpEnv env;
  std::vector<fp::FpValue> prods;
  prods.reserve(static_cast<std::size_t>(n) * n * n);
  const Clock::time_point m0 = Clock::now();
  for (int r = 0; r < reps; ++r) {
    prods.clear();
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        for (int k = 0; k < n; ++k) {
          prods.push_back(fp::mul(
              fp::FpValue(a.bits[static_cast<std::size_t>(i * n + k)], fmt),
              fp::FpValue(b.bits[static_cast<std::size_t>(k * n + j)], fmt),
              env));
        }
      }
    }
  }
  const Clock::time_point m1 = Clock::now();
  fp::FpValue acc(0, fmt);
  for (int r = 0; r < reps; ++r) {
    for (const fp::FpValue& p : prods) acc = fp::add(acc, p, env);
  }
  const Clock::time_point m2 = Clock::now();
  volatile std::uint64_t sink = acc.bits;
  (void)sink;
  t->mul_ns += us_between(m0, m1) * 1e3;
  t->add_ns += us_between(m1, m2) * 1e3;
  t->ops += static_cast<long>(prods.size()) * reps;
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// ResultCache construction over `dir`: loaded entries per second,
/// median of `reps` loads.
double load_entries_per_s(const std::string& dir, int reps) {
  std::vector<double> rates;
  for (int r = 0; r < reps; ++r) {
    obs::Registry reg;
    serve::CacheConfig cc;
    cc.dir = dir;
    const Clock::time_point t0 = Clock::now();
    const serve::ResultCache cache(cc, reg);
    const double s = us_between(t0, Clock::now()) / 1e6;
    rates.push_back(s > 0 ? static_cast<double>(cache.size()) / s : 0.0);
  }
  return median_of(rates);
}

int run_trace(const Args& a) {
  const std::vector<std::string> lines = read_lines(a.str("requests"));
  const double seconds = a.num("seconds", 5);
  const long block = std::max(1L, static_cast<long>(a.num("block", 1)));
  const std::string run_dir = a.str("dir");
  const std::string access_log = run_dir + "/probe_access.jsonl";
  const std::string hit_log = run_dir + "/probe_hits.jsonl";

  obs::Registry& reg = obs::Registry::global();
  serve::CacheConfig cc;
  cc.dir = run_dir + "/probe_cache";
  serve::ResultCache cache(cc, reg);
  serve::ServiceConfig sc;  // the server's defaults: threads 1, kAuto
  serve::Service service(sc, &cache, reg);
  serve::TelemetryConfig tc;
  tc.access_log_path = access_log;
  serve::Telemetry telemetry(tc, reg);
  serve::CacheConfig insert_cc;
  insert_cc.dir = run_dir + "/probe_insert";
  obs::Registry insert_reg;
  serve::ResultCache insert_cache(insert_cc, insert_reg);
  const bool fast_backend =
      rtl::resolve_backend(sc.backend) != rtl::EvalBackend::kInterpreted;
  obs::Counter& unit_fallback = reg.counter("campaign.unit.backend_fallback");
  obs::Counter& unit_dropped = reg.counter("campaign.unit.dropped_trials");

  obs::Tracer& tracer = obs::Tracer::global();
  tracer.enable(true);
  const int main_tid = obs::thread_id();

  std::map<std::string, Layer> layers;
  long builds = 0;
  long campaigns = 0;
  long faults_drawn = 0;
  long dropped = 0;
  long all_trials = 0;
  long fast_trials = 0;
  long unit_trials = 0;
  long matmul_trials = 0;
  double golden_cycles = 0.0;
  double golden_us = 0.0;
  FpTiming fp32;
  FpTiming fp64;
  std::map<std::uint64_t, double> attributed;  // trace id -> attributed us

  const Clock::time_point t_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  long done = 0;
  for (;;) {
    // Whole rounds (--block requests) at a time, so the mix stays fixed.
    if (done % block == 0 && Clock::now() >= t_end) break;
    const std::string& line = lines[static_cast<std::size_t>(done) %
                                    lines.size()];
    const std::uint64_t trace_id = static_cast<std::uint64_t>(done) + 1;
    const std::optional<serve::JsonValue> body = serve::parse_json(line);
    if (!body.has_value()) throw std::runtime_error("bad request line");
    const std::string type = str_of(*body, "type", "");
    const bool is_campaign = type == "campaign";
    const bool is_matmul = is_campaign && str_of(*body, "kernel", "") ==
                                              "matmul";
    tracer.clear();
    std::string response;
    const long fallback0 = unit_fallback.value();
    const long dropped0 = unit_dropped.value();
    {
      // The request's benchmark-side spans share the trace id its
      // handle_line telemetry assigns (a fresh Telemetry numbers traces
      // 1, 2, ... in call order; checked against the access log below).
      obs::ScopedSpanContext ctx({trace_id, obs::next_span_id()});
      auto root = tracer.span("bench.request", "bench");
      {
        auto span = tracer.span("bench.handle_line", "bench");
        response = service.handle_line(line, &telemetry);
      }
      builds += mirror_eval(*body);
      {
        auto span = tracer.span("bench.cache_insert", "bench");
        insert_cache.insert(std::hash<std::string>{}(line) ^ trace_id,
                            response);
      }
      if (is_matmul) {
        kernel::PeConfig pe;
        pe.fmt = format_of(int_of(*body, "bits", 32));
        pe.ecc_accumulators = str_of(*body, "scheme", "none") == "ecc";
        const int n = static_cast<int>(int_of(*body, "n", 4));
        kernel::Matrix ma, mb;
        matmul_operands(n, static_cast<std::uint64_t>(int_of(*body, "seed", 0)),
                        pe.fmt, &ma, &mb);
        kernel::LinearArrayMatmul array(n, pe);
        const Clock::time_point g0 = Clock::now();
        const kernel::MatmulRun run = array.run(ma, mb);
        golden_us += us_between(g0, Clock::now());
        golden_cycles += static_cast<double>(run.cycles);
        time_fp_ops(ma, mb, pe.fmt, 4,
                    pe.fmt.total_bits() == 32 ? &fp32 : &fp64);
      }
    }
    const std::optional<serve::JsonValue> resp = serve::parse_json(response);
    const serve::JsonValue* result =
        resp.has_value() ? resp->get("result") : nullptr;
    if (result == nullptr || int_of(*resp, "status", -1) != 0) {
      std::fprintf(stderr, "request %ld failed: %s\n", done, response.c_str());
      return 1;
    }
    if (is_campaign) {
      ++campaigns;
      const long injected = static_cast<long>(int_of(*result, "injected", 0));
      faults_drawn += injected;
      all_trials += injected;
      if (is_matmul) {
        matmul_trials += injected;
        dropped += static_cast<long>(int_of(*result, "dropped_trials", 0));
      } else {
        unit_trials += injected;
        dropped += unit_dropped.value() - dropped0;
        if (fast_backend && unit_fallback.value() == fallback0) {
          fast_trials += injected;
        }
      }
    }
    const std::map<std::string, Layer> st =
        self_times(tracer.events(), main_tid);
    double attr = 0.0;
    for (const auto& [key, l] : st) {
      Layer& acc = layers[key];
      acc.us += l.us;
      acc.calls += l.calls;
      // Attributed eval time: the self time of every library span (all
      // of them run inside handle_line) plus the mirrored calls the
      // service makes outside the campaign engine.
      const std::string name = key.substr(key.find('/') + 1);
      const bool library = name.rfind("bench.", 0) != 0;
      const bool mirrored = name == "bench.sweep_unit" ||
                            name == "bench.fpunit_build" ||
                            name == "bench.timing_area" ||
                            name == "bench.unit_power" ||
                            name == "bench.hardening_cost";
      if (library || mirrored) attr += l.us;
    }
    attributed[trace_id] = attr;
    ++done;
  }
  tracer.enable(false);

  // Join the handle_line eval phase from the probe's own access log.
  double eval_us = 0.0;
  double unattributed_us = 0.0;
  long eval_n = 0;
  for (const std::string& l : read_lines(access_log)) {
    const std::optional<serve::JsonValue> rec = serve::parse_json(l);
    if (!rec.has_value()) continue;
    const auto it = attributed.find(
        static_cast<std::uint64_t>(int_of(*rec, "trace", 0)));
    if (it == attributed.end()) {
      throw std::runtime_error("access log trace id without a request");
    }
    const serve::JsonValue* ev = rec->get("eval_us");
    const double e = ev != nullptr ? ev->as_double() : 0.0;
    eval_us += e;
    unattributed_us += e - it->second;
    ++eval_n;
  }
  if (eval_n != done) throw std::runtime_error("access log incomplete");

  // The hit path: the same requests again, now answered from the cache.
  // Their eval phase is validation plus the key hash.
  double key_us = 0.0;
  {
    serve::TelemetryConfig htc;
    htc.access_log_path = hit_log;
    serve::Telemetry hit_telemetry(htc, reg);
    for (long i = 0; i < done; ++i) {
      service.handle_line(lines[static_cast<std::size_t>(i)], &hit_telemetry);
    }
  }
  for (const std::string& l : read_lines(hit_log)) {
    const std::optional<serve::JsonValue> rec = serve::parse_json(l);
    if (!rec.has_value() || int_of(*rec, "cache", 0) != 1) {
      throw std::runtime_error("hit pass missed the cache");
    }
    key_us += rec->get("eval_us")->as_double();
  }

  const auto layer = [&](const std::string& key) -> Layer {
    const auto it = layers.find(key);
    return it == layers.end() ? Layer{} : it->second;
  };
  const auto per_call = [&](const std::string& key) {
    const Layer l = layer(key);
    return l.calls > 0 ? l.us / static_cast<double>(l.calls) : 0.0;
  };
  const auto sum_calls = [&](std::initializer_list<std::string> keys,
                             bool per_call_mean) {
    double us = 0.0;
    long calls = 0;
    for (const std::string& k : keys) {
      us += layer(k).us;
      calls += layer(k).calls;
    }
    if (!per_call_mean) return us;
    return calls > 0 ? us / static_cast<double>(calls) : 0.0;
  };
  // Inclusive campaign time (for trials/s): the span plus its children.
  const auto inclusive = [&](const std::string& parent) {
    double us = 0.0;
    for (const auto& [k, l] : layers) {
      if (k == "bench.handle_line/" + parent ||
          k.rfind(parent + "/", 0) == 0) {
        us += l.us;
      }
    }
    return us;
  };
  const double unit_incl = inclusive("unit_campaign");
  const double matmul_incl = inclusive("matmul_campaign");

  NumObject o;
  o.set("requests", static_cast<double>(done));
  o.set("serve.key_us", done > 0 ? key_us / done : 0.0);
  o.set("serve.cache.insert_us", per_call("bench.request/bench.cache_insert"));
  o.set("serve.cache.load_entries_per_s", load_entries_per_s(cc.dir, 5));
  o.set("serve.eval_us", eval_n ? eval_us / eval_n : 0.0);
  o.set("serve.eval_unattributed_us",
        eval_n ? unattributed_us / eval_n : 0.0);
  o.set("serve.eval_unattributed_pct",
        eval_us > 0 ? 100.0 * unattributed_us / eval_us : 0.0);
  o.set("analysis.unit_campaign_us",
        per_call("bench.handle_line/unit_campaign"));
  o.set("analysis.unit_golden_us", per_call("unit_campaign/golden"));
  o.set("analysis.unit_inject_us", per_call("unit_campaign/inject"));
  o.set("analysis.unit_reduce_us", per_call("unit_campaign/reduce"));
  o.set("analysis.unit_trials_per_s",
        unit_incl > 0 ? unit_trials / (unit_incl / 1e6) : 0.0);
  o.set("analysis.sweep_unit_us", per_call("bench.request/bench.sweep_unit"));
  o.set("analysis.matmul_campaign_us",
        per_call("bench.handle_line/matmul_campaign"));
  o.set("analysis.matmul_golden_us", per_call("matmul_campaign/golden"));
  o.set("analysis.matmul_inject_us", per_call("matmul_campaign/inject"));
  o.set("analysis.matmul_reduce_us", per_call("matmul_campaign/reduce"));
  o.set("analysis.matmul_trials_per_s",
        matmul_incl > 0 ? matmul_trials / (matmul_incl / 1e6) : 0.0);
  o.set("rtl.compile_us",
        sum_calls({"unit_campaign/compile", "matmul_campaign/compile"}, true));
  o.set("rtl.bind_us",
        sum_calls({"unit_campaign/bind", "matmul_campaign/bind"}, true));
  o.set("rtl.fast_path_trial_share",
        all_trials > 0 ? static_cast<double>(fast_trials) / all_trials : 0.0);
  o.set("units.build_us", per_call("bench.request/bench.fpunit_build"));
  o.set("units.builds_per_request",
        done > 0 ? static_cast<double>(builds) / done : 0.0);
  o.set("device.timing_area_us", per_call("bench.request/bench.timing_area"));
  o.set("power.unit_power_us", per_call("bench.request/bench.unit_power"));
  o.set("fault.hardening_us", per_call("bench.request/bench.hardening_cost"));
  o.set("kernel.golden_cycles_per_s",
        golden_us > 0 ? golden_cycles / (golden_us / 1e6) : 0.0);
  o.set("fault.draw_us",
        sum_calls({"unit_campaign/draw", "matmul_campaign/draw"}, true));
  o.set("fault.faults_drawn",
        campaigns > 0 ? static_cast<double>(faults_drawn) / campaigns : 0.0);
  o.set("fault.dropped_trials",
        campaigns > 0 ? static_cast<double>(dropped) / campaigns : 0.0);
  o.set("fp.binary32.add_ns", fp32.ops ? fp32.add_ns / fp32.ops : 0.0);
  o.set("fp.binary32.mul_ns", fp32.ops ? fp32.mul_ns / fp32.ops : 0.0);
  o.set("fp.binary64.add_ns", fp64.ops ? fp64.add_ns / fp64.ops : 0.0);
  o.set("fp.binary64.mul_ns", fp64.ops ? fp64.mul_ns / fp64.ops : 0.0);
  std::printf("%s\n", o.str().c_str());
  return 0;
}

int run_info() {
  std::printf("{\"backend\": \"%s\"}\n",
              rtl::to_string(rtl::resolve_backend(rtl::EvalBackend::kAuto)));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: sbtool load|ref|trace|info [--key=value]\n");
    return 2;
  }
  try {
    const std::string cmd = argv[1];
    const Args a = parse_args(argc, argv);
    if (cmd == "load") return run_load(a);
    if (cmd == "ref") return run_ref(a);
    if (cmd == "trace") return run_trace(a);
    if (cmd == "info") return run_info();
    std::fprintf(stderr, "unknown subcommand %s\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sbtool: %s\n", e.what());
    return 1;
  }
}
