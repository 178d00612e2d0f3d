#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "analysis/pareto.hpp"
#include "analysis/seu.hpp"
#include "analysis/sweep.hpp"
#include "fault/checkpoint.hpp"
#include "fault/hardening.hpp"
#include "kernel/matmul.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"
#include "power/unit_power.hpp"
#include "serve/cache.hpp"
#include "serve/telemetry.hpp"
#include "units/converter_unit.hpp"
#include "units/fp_unit.hpp"

namespace flopsim::serve {

namespace {

/// Per-request latency buckets, microseconds: cache hits land in the
/// first few, interpreted campaigns in the ms-to-seconds range.
const std::vector<double> kLatencyBoundsUs = {
    50,    100,    250,    500,     1000,    2500,   5000,
    10000, 25000,  50000,  100000,  250000,  500000, 1000000};

struct BadRequest {
  explicit BadRequest(std::string msg) : msg(std::move(msg)) {}
  std::string msg;
};

/// Strict member-name check: a typo'd field silently falling back to its
/// default would poison the cache key, so unknown names are status 2.
void check_members(const JsonValue& body, const std::set<std::string>& allowed) {
  for (const std::string& key : body.keys()) {
    if (allowed.find(key) == allowed.end()) {
      throw BadRequest("unknown field: " + key);
    }
  }
}

long long int_field(const JsonValue& body, const char* key, long long def,
                    long long min, long long max) {
  const JsonValue* v = body.get(key);
  if (v == nullptr) return def;
  if (!v->is_int()) throw BadRequest(std::string(key) + " must be an integer");
  const long long n = v->as_int();
  if (n < min || n > max) {
    throw BadRequest(std::string(key) + " out of range [" +
                     std::to_string(min) + ", " + std::to_string(max) + "]");
  }
  return n;
}

double fraction_field(const JsonValue& body, const char* key, double def) {
  const JsonValue* v = body.get(key);
  if (v == nullptr) return def;
  if (!v->is_number()) throw BadRequest(std::string(key) + " must be a number");
  const double x = v->as_double();
  if (!(x >= 0.0 && x <= 1.0)) {
    throw BadRequest(std::string(key) + " out of range [0, 1]");
  }
  return x;
}

bool bool_field(const JsonValue& body, const char* key, bool def) {
  const JsonValue* v = body.get(key);
  if (v == nullptr) return def;
  if (!v->is_bool()) throw BadRequest(std::string(key) + " must be a boolean");
  return v->as_bool();
}

std::string string_field(const JsonValue& body, const char* key,
                         const std::string& def) {
  const JsonValue* v = body.get(key);
  if (v == nullptr) return def;
  if (!v->is_string()) throw BadRequest(std::string(key) + " must be a string");
  return v->as_string();
}

units::UnitKind kind_field(const JsonValue& body) {
  const std::string op = string_field(body, "op", "");
  if (op == "add") return units::UnitKind::kAdder;
  if (op == "mul") return units::UnitKind::kMultiplier;
  if (op == "div") return units::UnitKind::kDivider;
  if (op == "sqrt") return units::UnitKind::kSqrt;
  if (op == "mac") return units::UnitKind::kMac;
  throw BadRequest("unknown op: \"" + op + "\"");
}

fp::FpFormat format_of_bits(long long bits, const char* key) {
  switch (bits) {
    case 16: return fp::FpFormat::binary16();
    case 32: return fp::FpFormat::binary32();
    case 48: return fp::FpFormat::binary48();
    case 64: return fp::FpFormat::binary64();
    default:
      throw BadRequest(std::string(key) + " must be one of 16/32/48/64");
  }
}

fault::Scheme scheme_field(const JsonValue& body) {
  const std::string name = string_field(body, "scheme", "none");
  if (name == "none") return fault::Scheme::kNone;
  const std::optional<fault::Scheme> s = fault::try_parse_scheme(name);
  if (!s.has_value()) throw BadRequest("unknown scheme: \"" + name + "\"");
  return *s;
}

device::Objective objective_field(const JsonValue& body) {
  const std::string name = string_field(body, "objective", "area");
  if (name == "area") return device::Objective::kArea;
  if (name == "speed") return device::Objective::kSpeed;
  throw BadRequest("objective must be \"area\" or \"speed\"");
}

const char* objective_name(device::Objective o) {
  return o == device::Objective::kSpeed ? "speed" : "area";
}

/// Cache lookup timed into the trace's cache phase; stamps hit/miss.
std::optional<std::string> timed_lookup(ResultCache* cache, std::uint64_t key,
                                        RequestTrace* rt) {
  if (cache == nullptr) return std::nullopt;
  if (rt != nullptr) rt->phase_begin(Phase::kCache);
  std::optional<std::string> hit = cache->lookup(key);
  if (rt != nullptr) {
    rt->phase_end(Phase::kCache);
    rt->cache = hit.has_value() ? 1 : 0;
  }
  return hit;
}

/// Cache fill, accumulated into the same cache phase as the lookup.
void timed_insert(ResultCache* cache, std::uint64_t key,
                  const std::string& rendered, RequestTrace* rt) {
  if (cache == nullptr) return;
  if (rt != nullptr) rt->phase_begin(Phase::kCache);
  cache->insert(key, rendered);
  if (rt != nullptr) rt->phase_end(Phase::kCache);
}

void area_fields(obs::JsonObject& o, const device::Resources& area) {
  o.field("slices", area.slices)
      .field("luts", area.luts)
      .field("ffs", area.ffs)
      .field("bmults", area.bmults)
      .field("brams", area.brams);
}

}  // namespace

Service::Service(ServiceConfig cfg, ResultCache* cache, obs::Registry& reg)
    : cfg_(cfg), cache_(cache), reg_(reg) {
  // Touch the request metrics once so a fresh server's /metrics endpoint
  // names them before the first request arrives.
  reg_.counter("serve.requests");
  reg_.counter("serve.requests.bad");
  reg_.counter("serve.requests.failed");
  reg_.counter("serve.requests.rejected");
  reg_.histogram("serve.request.latency_us", kLatencyBoundsUs);
}

ParsedRequest Service::parse(const std::string& line) const {
  ParsedRequest req;
  req.id_json = "null";
  std::string parse_error;
  const std::optional<JsonValue> parsed = parse_json(line, &parse_error);
  if (!parsed.has_value()) {
    req.status = 2;
    req.error = "malformed JSON: " + parse_error;
    return req;
  }
  if (!parsed->is_object()) {
    req.status = 2;
    req.error = "request must be a JSON object";
    return req;
  }
  req.body = *parsed;
  if (const JsonValue* id = req.body.get("id"); id != nullptr) {
    if (id->is_int()) {
      req.id_json = std::to_string(id->as_int());
    } else if (id->is_string()) {
      req.id_json = "\"" + obs::json_escape(id->as_string()) + "\"";
    } else {
      req.status = 2;
      req.error = "id must be an integer or a string";
      return req;
    }
  }
  const JsonValue* type = req.body.get("type");
  if (type == nullptr || !type->is_string()) {
    req.status = 2;
    req.error = "missing \"type\"";
    return req;
  }
  req.type = type->as_string();
  static const std::set<std::string> kTypes = {"ping", "plan", "campaign",
                                              "metrics", "shutdown"};
  if (kTypes.find(req.type) == kTypes.end()) {
    req.status = 2;
    req.error = "unknown type: \"" + req.type + "\"";
  }
  return req;
}

std::string Service::error_response(const std::string& id_json, int status,
                                    const std::string& message) const {
  obs::JsonObject o;
  o.field_raw("id", id_json.empty() ? "null" : id_json)
      .field("status", status)
      .field("error", message);
  return o.str();
}

std::string Service::handle_line(const std::string& line,
                                 Telemetry* telemetry) {
  if (telemetry == nullptr) return evaluate(parse(line));
  std::shared_ptr<RequestTrace> rt = telemetry->begin();
  rt->phase_begin(Phase::kParse);
  const ParsedRequest req = parse(line);
  rt->phase_end(Phase::kParse);
  if (!req.type.empty()) rt->type = req.type;
  rt->id_json = req.id_json;
  std::string response = evaluate(req, rt.get());
  telemetry->finish(*rt);
  return response;
}

std::string Service::evaluate(const ParsedRequest& req, RequestTrace* rt) {
  const auto t0 = std::chrono::steady_clock::now();
  reg_.counter("serve.requests").inc();
  std::string response;
  int response_status = 0;
  if (req.status != 0) {
    reg_.counter("serve.requests.bad").inc();
    response_status = req.status;
    response = error_response(req.id_json, req.status, req.error);
  } else {
    int status = 0;
    bool cacheable = false;
    std::uint64_t key = 0;
    std::string body;
    try {
      // Work below runs in the request's trace scope: tracer spans
      // recorded here (and in exec:: worker chunks, which inherit the
      // caller's context) parent to this request's eval span.
      obs::ScopedSpanContext scope(rt != nullptr ? rt->eval_context()
                                                 : obs::SpanContext{});
      if (req.type == "ping") {
        obs::JsonObject o;
        o.field("pong", true);
        body = o.str();
      } else if (req.type == "shutdown") {
        obs::JsonObject o;
        o.field("shutting_down", true);
        body = o.str();
      } else if (req.type == "metrics") {
        body = metrics_body(req.body);
      } else if (req.type == "plan") {
        body = evaluate_plan(req.body, &key, &cacheable, &status, rt);
      } else {
        body = evaluate_campaign(req.body, &key, &cacheable, &status, rt);
      }
    } catch (const BadRequest& e) {
      status = 2;
      body = e.msg;
    } catch (const std::invalid_argument& e) {
      status = 2;
      body = e.what();
    } catch (const std::exception& e) {
      status = 1;
      body = e.what();
    }
    response_status = status;
    if (status == 0) {
      obs::JsonObject o;
      o.field_raw("id", req.id_json).field("status", 0).field_raw("result",
                                                                  body);
      response = o.str();
    } else {
      reg_.counter(status == 2 ? "serve.requests.bad"
                               : "serve.requests.failed")
          .inc();
      response = error_response(req.id_json, status, body);
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double total_us =
      std::chrono::duration<double, std::micro>(t1 - t0).count();
  reg_.histogram("serve.request.latency_us", kLatencyBoundsUs)
      .observe(total_us);
  if (rt != nullptr) {
    rt->status = response_status;
    // Eval is the decomposition's remainder: everything this call did
    // except the cache phase (recorded by evaluate_plan/campaign).
    rt->phase_record(Phase::kEval, rt->us_since_start(t0),
                     total_us - rt->phase_us(Phase::kCache));
  }
  return response;
}

// --- plan -----------------------------------------------------------------

std::string Service::evaluate_plan(const JsonValue& body, std::uint64_t* key,
                                   bool* cacheable, int* status,
                                   RequestTrace* rt) const {
  (void)status;
  const std::string op = string_field(body, "op", "");
  if (op == "cvt") {
    check_members(body, {"id", "type", "op", "src_bits", "dst_bits",
                         "stages", "objective"});
    const fp::FpFormat src =
        format_of_bits(int_field(body, "src_bits", 0, 0, 1 << 20),
                       "src_bits");
    const fp::FpFormat dst =
        format_of_bits(int_field(body, "dst_bits", 0, 0, 1 << 20),
                       "dst_bits");
    const long long stages = int_field(body, "stages", 1, 1, 256);
    units::UnitConfig cfg;
    cfg.stages = static_cast<int>(stages);
    cfg.objective = objective_field(body);

    fault::SpecHash h;
    h.str("serve.plan.cvt v1");
    h.str(src.name()).str(dst.name()).i64(stages);
    h.i64(static_cast<long long>(cfg.objective));
    *key = h.value();
    *cacheable = true;
    if (std::optional<std::string> hit = timed_lookup(cache_, *key, rt);
        hit.has_value()) {
      return *hit;
    }

    const units::FormatConverter cvt(src, dst, cfg);
    const rtl::Timing t = cvt.timing();
    const rtl::AreaBreakdown a = cvt.area();
    obs::JsonObject o;
    o.field("name", cvt.name())
        .field("op", "cvt")
        .field("src_bits", static_cast<long>(src.total_bits()))
        .field("dst_bits", static_cast<long>(dst.total_bits()))
        .field("stages", cvt.stages())
        .field("max_stages", cvt.max_stages())
        .field("freq_mhz", t.freq_mhz)
        .field("critical_ns", t.critical_ns);
    area_fields(o, a.total);
    const std::string rendered = o.str();
    timed_insert(cache_, *key, rendered, rt);
    return rendered;
  }

  check_members(body, {"id", "type", "op", "bits", "stages", "objective",
                       "ieee", "fabric", "harden"});
  const units::UnitKind kind = kind_field(body);
  const fp::FpFormat fmt =
      format_of_bits(int_field(body, "bits", 32, 0, 1 << 20), "bits");
  // stages 0 (or absent): serve the freq/area optimum, like flopsim-gen
  // with no depth argument — the depth sweep rides along in the response.
  const long long stages = int_field(body, "stages", 0, 0, 256);
  units::UnitConfig cfg;
  cfg.objective = objective_field(body);
  cfg.ieee_mode = bool_field(body, "ieee", false);
  cfg.use_embedded_multipliers = !bool_field(body, "fabric", false);
  std::optional<fault::Scheme> harden;
  if (const JsonValue* hv = body.get("harden"); hv != nullptr) {
    if (!hv->is_string()) throw BadRequest("harden must be a string");
    harden = fault::try_parse_scheme(hv->as_string());
    if (!harden.has_value()) {
      throw BadRequest("unknown hardening scheme: \"" + hv->as_string() +
                       "\"");
    }
  }

  fault::SpecHash h;
  h.str("serve.plan v1");
  h.str(units::to_string(kind)).str(fmt.name()).i64(stages);
  h.i64(static_cast<long long>(cfg.objective));
  h.i64(cfg.ieee_mode ? 1 : 0).i64(cfg.use_embedded_multipliers ? 1 : 0);
  h.i64(harden.has_value() ? static_cast<long long>(*harden) : -1);
  *key = h.value();
  *cacheable = true;
  if (std::optional<std::string> hit = timed_lookup(cache_, *key, rt);
      hit.has_value()) {
    return *hit;
  }

  std::optional<analysis::Selection> sel;
  if (stages == 0) {
    const analysis::SweepResult sweep =
        analysis::sweep_unit(kind, fmt, cfg.objective, cfg.tech,
                             cfg_.threads);
    sel = analysis::select_min_max_opt(sweep);
    cfg.stages = sel->opt.stages;
  } else {
    cfg.stages = static_cast<int>(stages);
  }

  const units::FpUnit unit(kind, fmt, cfg);
  const rtl::Timing t = unit.timing();
  const rtl::AreaBreakdown a = unit.area();
  obs::JsonObject o;
  o.field("name", unit.name())
      .field("op", units::to_string(kind))
      .field("bits", static_cast<long>(fmt.total_bits()))
      .field("stages", unit.stages())
      .field("max_stages", unit.max_stages())
      .field("objective", objective_name(cfg.objective))
      .field("freq_mhz", t.freq_mhz)
      .field("critical_ns", t.critical_ns);
  area_fields(o, a.total);
  o.field("pipeline_ffs", a.pipeline_ffs)
      .field("absorbed_ffs", a.absorbed_ffs)
      .field("freq_per_area", unit.freq_per_area())
      .field("power_mw_100", power::unit_power(unit, 100.0).total_mw())
      .field("latency", unit.latency());
  if (sel.has_value()) {
    obs::JsonObject s;
    s.field("min_stages", sel->min.stages)
        .field("opt_stages", sel->opt.stages)
        .field("max_stages", sel->max.stages)
        .field("opt_freq_mhz", sel->opt.freq_mhz)
        .field("opt_freq_per_area", sel->opt.freq_per_area);
    o.field_raw("selection", s.str());
  }
  if (harden.has_value()) {
    const fault::HardeningCost hc = fault::hardening_cost(unit, *harden);
    obs::JsonObject hj;
    hj.field("scheme", fault::to_string(*harden))
        .field("area_factor", hc.area_factor)
        .field("freq_mhz", hc.freq_mhz)
        .field("freq_factor", hc.freq_factor)
        .field("power_mw_100", hc.power_mw_100)
        .field("power_factor", hc.power_factor)
        .field("extra_latency_cycles", hc.extra_latency_cycles);
    area_fields(hj, hc.total);
    o.field_raw("harden", hj.str());
  }
  const std::string rendered = o.str();
  timed_insert(cache_, *key, rendered, rt);
  return rendered;
}

// --- campaign -------------------------------------------------------------

std::string Service::evaluate_campaign(const JsonValue& body,
                                       std::uint64_t* key, bool* cacheable,
                                       int* status, RequestTrace* rt) const {
  (void)status;
  const std::string kernel = string_field(body, "kernel", "unit");
  if (kernel == "matmul") {
    check_members(body, {"id", "type", "kernel", "n", "bits", "faults",
                         "seed", "scheme", "accumulator_fraction",
                         "config_fraction", "scrub_period_cycles",
                         "adder_stages", "mult_stages"});
    analysis::MatmulSeuConfig camp;
    camp.n = static_cast<int>(int_field(body, "n", 4, 1, 64));
    camp.faults = static_cast<int>(int_field(body, "faults", 24, 1, 1 << 20));
    camp.seed = static_cast<std::uint64_t>(
        int_field(body, "seed", 0x5eed,
                  std::numeric_limits<long long>::min(),
                  std::numeric_limits<long long>::max()));
    camp.scheme = scheme_field(body);
    camp.accumulator_fraction =
        fraction_field(body, "accumulator_fraction", 0.5);
    camp.config_fraction = fraction_field(body, "config_fraction", 0.0);
    camp.scrub_period_cycles =
        static_cast<long>(int_field(body, "scrub_period_cycles", 0, 0,
                                    1LL << 40));
    camp.threads = cfg_.threads;
    kernel::PeConfig pe;
    pe.fmt = format_of_bits(int_field(body, "bits", 32, 0, 1 << 20), "bits");
    pe.adder_stages =
        static_cast<int>(int_field(body, "adder_stages", 8, 1, 64));
    pe.mult_stages =
        static_cast<int>(int_field(body, "mult_stages", 5, 1, 64));

    fault::SpecHash h;
    h.str("serve.campaign.matmul v1");
    h.i64(camp.n).str(pe.fmt.name()).i64(camp.faults).u64(camp.seed);
    h.i64(static_cast<long long>(camp.scheme));
    h.f64(camp.accumulator_fraction).f64(camp.config_fraction);
    h.i64(camp.scrub_period_cycles);
    h.i64(pe.adder_stages).i64(pe.mult_stages);
    *key = h.value();
    *cacheable = true;
    if (std::optional<std::string> hit = timed_lookup(cache_, *key, rt);
        hit.has_value()) {
      return *hit;
    }

    const analysis::MatmulSeuResult r = analysis::run_matmul_campaign(pe, camp);
    obs::JsonObject o;
    o.field("kernel", "matmul")
        .field("n", camp.n)
        .field("bits", static_cast<long>(pe.fmt.total_bits()))
        .field("faults", camp.faults)
        .field("seed", static_cast<long>(camp.seed))
        .field("scheme", fault::to_string(camp.scheme))
        .field("injected", r.injected)
        .field("masked", r.masked)
        .field("detected", r.detected)
        .field("corrected", r.corrected)
        .field("silent", r.silent)
        .field("acc_injected", r.acc_injected)
        .field("acc_silent", r.acc_silent)
        .field("latch_injected", r.latch_injected)
        .field("latch_silent", r.latch_silent)
        .field("config_injected", r.config_injected)
        .field("config_silent", r.config_silent)
        .field("dropped_trials", r.draws_exhausted)
        .field("sdc_fraction", r.sdc_fraction());
    const std::string rendered = o.str();
    timed_insert(cache_, *key, rendered, rt);
    return rendered;
  }
  if (kernel != "unit") {
    throw BadRequest("kernel must be \"unit\" or \"matmul\"");
  }

  check_members(body, {"id", "type", "kernel", "op", "bits", "stages",
                       "scheme", "vectors", "faults", "seed", "objective",
                       "ieee", "fabric"});
  const units::UnitKind kind = kind_field(body);
  const fp::FpFormat fmt =
      format_of_bits(int_field(body, "bits", 32, 0, 1 << 20), "bits");
  const long long stages = int_field(body, "stages", 0, 0, 256);
  units::UnitConfig cfg;
  cfg.objective = objective_field(body);
  cfg.ieee_mode = bool_field(body, "ieee", false);
  cfg.use_embedded_multipliers = !bool_field(body, "fabric", false);
  analysis::SeuCampaignConfig camp;
  camp.vectors = static_cast<int>(int_field(body, "vectors", 32, 1, 4096));
  camp.faults = static_cast<int>(int_field(body, "faults", 48, 1, 1 << 20));
  camp.seed = static_cast<std::uint64_t>(
      int_field(body, "seed", 0x5eed,
                std::numeric_limits<long long>::min(),
                std::numeric_limits<long long>::max()));
  camp.scheme = scheme_field(body);
  camp.threads = cfg_.threads;
  camp.backend = cfg_.backend;

  fault::SpecHash h;
  h.str("serve.campaign.unit v1");
  h.str(units::to_string(kind)).str(fmt.name()).i64(stages);
  h.i64(static_cast<long long>(cfg.objective));
  h.i64(cfg.ieee_mode ? 1 : 0).i64(cfg.use_embedded_multipliers ? 1 : 0);
  h.i64(static_cast<long long>(camp.scheme));
  h.i64(camp.vectors).i64(camp.faults).u64(camp.seed);
  *key = h.value();
  *cacheable = true;
  if (std::optional<std::string> hit = timed_lookup(cache_, *key, rt);
      hit.has_value()) {
    return *hit;
  }

  if (stages == 0) {
    const analysis::SweepResult sweep =
        analysis::sweep_unit(kind, fmt, cfg.objective, cfg.tech,
                             cfg_.threads);
    cfg.stages = analysis::select_min_max_opt(sweep).opt.stages;
  } else {
    cfg.stages = static_cast<int>(stages);
  }
  const units::FpUnit probe(kind, fmt, cfg);
  const analysis::UnitSeuResult r =
      analysis::run_unit_campaign(kind, fmt, cfg, camp);
  const analysis::SeuRateModel rate;
  obs::JsonObject o;
  o.field("kernel", "unit")
      .field("op", units::to_string(kind))
      .field("bits", static_cast<long>(fmt.total_bits()))
      .field("stages", probe.stages())
      .field("scheme", fault::to_string(camp.scheme))
      .field("vectors", camp.vectors)
      .field("faults", camp.faults)
      .field("seed", static_cast<long>(camp.seed))
      .field("injected", r.injected)
      .field("masked", r.masked)
      .field("detected", r.detected)
      .field("corrected", r.corrected)
      .field("silent", r.silent)
      .field("corrupted", r.corrupted)
      .field("occupied_bits", r.occupied_bits)
      .field("pipeline_ffs", r.pipeline_ffs)
      .field("avf", r.avf())
      .field("sdc_fraction", r.sdc_fraction())
      .field("sdc_fit", rate.fit(r.pipeline_ffs, r.avf()));
  const std::string rendered = o.str();
  timed_insert(cache_, *key, rendered, rt);
  return rendered;
}

// --- metrics --------------------------------------------------------------

std::string Service::metrics_body(const JsonValue& body) const {
  check_members(body, {"id", "type", "format"});
  const std::string format = string_field(body, "format", "json");
  if (format == "prometheus") {
    std::ostringstream text;
    reg_.write_prometheus(text);
    obs::JsonObject o;
    o.field("format", "prometheus").field("text", text.str());
    return o.str();
  }
  if (format != "json") {
    throw BadRequest("format must be \"json\" or \"prometheus\"");
  }
  std::ostringstream lines;
  reg_.write_jsonl(lines);
  std::string joined;
  joined += "[";
  std::istringstream in(lines.str());
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (!first) joined += ", ";
    joined += line;
    first = false;
  }
  joined += "]";
  obs::JsonObject o;
  o.field_raw("metrics", joined);
  return o.str();
}

}  // namespace flopsim::serve
