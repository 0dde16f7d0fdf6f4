#include "serving/faults.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

namespace genbase::serving {

namespace {

/// Distinct mixing salts so (op, attempt, shard) perturb independent bit
/// ranges of the draw seed.
constexpr uint64_t kOpSalt = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t kAttemptSalt = 0xd1b54a32d192ed03ULL;
constexpr uint64_t kShardSalt = 0x94d049bb133111ebULL;

double UnitDraw(uint64_t seed) {
  return (SplitMix64(seed) >> 11) * 0x1.0p-53;
}

std::vector<std::string_view> SplitTokens(std::string_view line) {
  std::vector<std::string_view> out;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() &&
           std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    size_t j = i;
    while (j < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[j]))) {
      ++j;
    }
    if (j > i) out.push_back(line.substr(i, j - i));
    i = j;
  }
  return out;
}

bool ParseU64(std::string_view s, uint64_t* out) {
  if (s.empty()) return false;
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

bool ParseDouble(std::string_view s, double* out) {
  try {
    size_t pos = 0;
    const double v = std::stod(std::string(s), &pos);
    if (pos != s.size() || !std::isfinite(v)) return false;
    *out = v;
    return true;
  } catch (...) {
    return false;
  }
}

/// Parses "@N" or "@N..M" into [at, until) (until = 0 for points).
bool ParseAt(std::string_view s, uint64_t* at, uint64_t* until) {
  if (s.empty() || s[0] != '@') return false;
  s.remove_prefix(1);
  const size_t dots = s.find("..");
  if (dots == std::string_view::npos) {
    *until = 0;
    return ParseU64(s, at);
  }
  return ParseU64(s.substr(0, dots), at) &&
         ParseU64(s.substr(dots + 2), until) && *until > *at;
}

bool ParseShard(std::string_view s, int* shard) {
  if (s == "*") {
    *shard = -1;
    return true;
  }
  uint64_t v = 0;
  if (!ParseU64(s, &v) || v > 1024) return false;
  *shard = static_cast<int>(v);
  return true;
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kRecover:
      return "recover";
    case FaultKind::kLatencySpike:
      return "latency";
    case FaultKind::kTransientError:
      return "error";
    case FaultKind::kReloadFailure:
      return "reload-fail";
    default:
      return "unknown";
  }
}

genbase::Result<FaultScript> FaultScript::Parse(std::string_view text) {
  FaultScript script;
  FaultPhase current;
  current.name = "main";
  // Every named phase is kept, even when empty — an action-free phase is a
  // deliberate fault-free run (e.g. a pre-fault baseline). Only the
  // implicit "main" preamble is dropped when the script opens with a
  // phase directive before any action.
  bool named_phase = false;
  int line_no = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    const size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? text.size() - pos : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    const size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    const std::vector<std::string_view> tok = SplitTokens(line);
    if (tok.empty()) continue;
    const auto fail = [&](const char* why) {
      return genbase::Status::InvalidArgument(
          "fault script line " + std::to_string(line_no) + ": " + why);
    };
    if (tok[0] == "seed") {
      if (tok.size() != 2 || !ParseU64(tok[1], &script.seed)) {
        return fail("expected 'seed <u64>'");
      }
      continue;
    }
    if (tok[0] == "phase") {
      if (tok.size() != 2) return fail("expected 'phase <name>'");
      if (named_phase || !current.actions.empty()) {
        script.phases.push_back(std::move(current));
      }
      named_phase = true;
      current = FaultPhase{};
      current.name = std::string(tok[1]);
      continue;
    }
    FaultAction action;
    if (tok.size() < 2 || !ParseAt(tok[0], &action.at_op, &action.until_op)) {
      return fail("expected '@<op>[..<op>] <kind> ...'");
    }
    const std::string_view kind = tok[1];
    if (kind == "crash" || kind == "recover" || kind == "reload-fail") {
      action.kind = kind == "crash"     ? FaultKind::kCrash
                    : kind == "recover" ? FaultKind::kRecover
                                        : FaultKind::kReloadFailure;
      if (action.until_op != 0) return fail("point action takes '@<op>'");
      if (tok.size() != 3 || !ParseShard(tok[2], &action.shard) ||
          action.shard < 0) {
        return fail("expected a shard index");
      }
    } else if (kind == "latency" || kind == "error") {
      action.kind = kind == "latency" ? FaultKind::kLatencySpike
                                      : FaultKind::kTransientError;
      if (action.until_op == 0) return fail("window action takes '@a..b'");
      if (tok.size() != 4 || !ParseShard(tok[2], &action.shard)) {
        return fail("expected '<shard|*> <value>'");
      }
      if (action.kind == FaultKind::kLatencySpike && action.shard < 0) {
        return fail("latency windows need a concrete shard");
      }
      if (!ParseDouble(tok[3], &action.param) || action.param < 0.0 ||
          (action.kind == FaultKind::kTransientError && action.param > 1.0)) {
        return fail("bad value (latency seconds >= 0 / probability in [0,1])");
      }
    } else {
      return fail("unknown fault kind");
    }
    current.actions.push_back(action);
  }
  // EOF closes the last phase unconditionally — a trailing empty named
  // phase is kept, and an entirely empty script keeps its empty "main" so
  // callers always see >= 1 phase.
  script.phases.push_back(std::move(current));
  return script;
}

double RetryBackoffSeconds(const RetryPolicy& policy, uint64_t seed,
                           uint64_t op, int attempt) {
  if (attempt < 1) attempt = 1;
  double base = policy.initial_backoff_s;
  // Multiply stepwise with an early cap so huge attempt numbers cannot
  // overflow to inf before the clamp.
  for (int i = 1; i < attempt && base < policy.max_backoff_s; ++i) {
    base *= kRetryBackoffMultiplier;
  }
  base = std::min(base, policy.max_backoff_s);
  const double jitter = 0.5 + 0.5 * UnitDraw(seed ^ (op * kOpSalt) ^
                                             (static_cast<uint64_t>(attempt) *
                                              kAttemptSalt));
  return base * jitter;
}

bool ScheduleRetry(const RetryPolicy& policy, uint64_t seed, uint64_t op,
                   int attempt, double remaining_s, double* backoff_s) {
  if (attempt + 1 > policy.max_attempts) return false;
  const double backoff = RetryBackoffSeconds(policy, seed, op, attempt);
  if (backoff > remaining_s) return false;
  *backoff_s = backoff;
  return true;
}

FaultInjector::FaultInjector(FaultScript script)
    : script_(std::move(script)),
      enabled_([this] {
        for (const FaultPhase& p : script_.phases) {
          if (!p.actions.empty()) return true;
        }
        return false;
      }()),
      instance_(obs::MetricsRegistry::NextInstanceId("faults")) {
  int max_shard = 0;
  for (const FaultPhase& p : script_.phases) {
    for (const FaultAction& a : p.actions) {
      max_shard = std::max(max_shard, a.shard);
    }
  }
  shard_state_.reserve(static_cast<size_t>(max_shard) + 1);
  for (int s = 0; s <= max_shard; ++s) {
    shard_state_.push_back(std::make_unique<ShardState>());
  }
  reload_armed_.assign(shard_state_.size(), false);
  auto& reg = obs::MetricsRegistry::Global();
  for (int k = 0; k < static_cast<int>(FaultKind::kNumFaultKinds); ++k) {
    injected_by_kind_[k] = reg.GetCounter(
        "serving_fault_injected_total",
        {{"instance", instance_},
         {"kind", FaultKindName(static_cast<FaultKind>(k))}});
  }
}

genbase::Result<std::unique_ptr<FaultInjector>> FaultInjector::Create(
    const FaultScript& script) {
  for (const FaultPhase& p : script.phases) {
    for (const FaultAction& a : p.actions) {
      const bool window = a.kind == FaultKind::kLatencySpike ||
                          a.kind == FaultKind::kTransientError;
      if (window != (a.until_op > a.at_op)) {
        return genbase::Status::InvalidArgument(
            "fault script: window/point mismatch for " +
            std::string(FaultKindName(a.kind)));
      }
    }
  }
  // lint:allow(raw-new-delete): make_unique cannot reach the private ctor; owned immediately
  auto injector = std::unique_ptr<FaultInjector>(new FaultInjector(script));
  {
    std::lock_guard<std::mutex> lock(injector->mu_);
    injector->CompilePhaseLocked(0);
  }
  return injector;
}

void FaultInjector::CompilePhaseLocked(size_t phase_index) {
  phase_index_ = phase_index;
  events_.clear();
  next_event_ = 0;
  if (phase_index >= script_.phases.size()) {
    next_event_at_.store(~uint64_t{0}, std::memory_order_relaxed);
    return;
  }
  const FaultPhase& phase = script_.phases[phase_index];
  for (const FaultAction& a : phase.actions) {
    Event start;
    start.at_op = a.at_op;
    start.kind = a.kind;
    start.shard = a.shard;
    start.param = a.param;
    events_.push_back(start);
    if (a.until_op > a.at_op) {
      Event end = start;
      end.at_op = a.until_op;
      end.window_end = true;
      events_.push_back(end);
    }
  }
  std::stable_sort(events_.begin(), events_.end(),
                   [](const Event& x, const Event& y) {
                     return x.at_op < y.at_op;
                   });
  LogLocked("phase " + phase.name);
  next_event_at_.store(events_.empty() ? ~uint64_t{0} : events_[0].at_op,
                       std::memory_order_relaxed);
}

void FaultInjector::LogLocked(std::string line) {
  log_.push_back(std::move(line));
}

void FaultInjector::ApplyDueLocked(uint64_t op) {
  while (next_event_ < events_.size() && events_[next_event_].at_op <= op) {
    const Event& e = events_[next_event_++];
    ShardState* state = e.shard >= 0 &&
                                e.shard < static_cast<int>(shard_state_.size())
                            ? shard_state_[static_cast<size_t>(e.shard)].get()
                            : nullptr;
    std::ostringstream line;
    line << "@" << e.at_op << " " << FaultKindName(e.kind);
    if (e.window_end) line << "-end";
    line << " shard=" << e.shard;
    switch (e.kind) {
      case FaultKind::kCrash:
        if (state != nullptr) state->crashed.store(true,
                                                   std::memory_order_relaxed);
        injected_by_kind_[static_cast<int>(FaultKind::kCrash)]->Inc();
        break;
      case FaultKind::kRecover:
        if (state != nullptr) state->crashed.store(false,
                                                   std::memory_order_relaxed);
        injected_by_kind_[static_cast<int>(FaultKind::kRecover)]->Inc();
        break;
      case FaultKind::kLatencySpike:
        if (state != nullptr) {
          state->latency_s.store(e.window_end ? 0.0 : e.param,
                                 std::memory_order_relaxed);
        }
        if (!e.window_end) {
          injected_by_kind_[static_cast<int>(FaultKind::kLatencySpike)]->Inc();
        }
        break;
      case FaultKind::kTransientError: {
        const double p = e.window_end ? 0.0 : e.param;
        if (e.shard < 0) {
          any_shard_error_p_.store(p, std::memory_order_relaxed);
        } else if (state != nullptr) {
          state->error_p.store(p, std::memory_order_relaxed);
        }
        break;
      }
      case FaultKind::kReloadFailure:
        if (e.shard >= 0 &&
            e.shard < static_cast<int>(reload_armed_.size())) {
          reload_armed_[static_cast<size_t>(e.shard)] = true;
        }
        break;
      default:
        break;
    }
    LogLocked(line.str());
  }
  next_event_at_.store(next_event_ < events_.size()
                           ? events_[next_event_].at_op
                           : ~uint64_t{0},
                       std::memory_order_relaxed);
}

uint64_t FaultInjector::OnServe() {
  const uint64_t op = op_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (op >= next_event_at_.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(mu_);
    ApplyDueLocked(op);
  }
  return op;
}

bool FaultInjector::AdvancePhase() {
  std::lock_guard<std::mutex> lock(mu_);
  // Window state does not outlive its phase; crash state does (a crash is a
  // condition, not a window).
  for (auto& state : shard_state_) {
    state->latency_s.store(0.0, std::memory_order_relaxed);
    state->error_p.store(0.0, std::memory_order_relaxed);
  }
  any_shard_error_p_.store(0.0, std::memory_order_relaxed);
  op_counter_.store(0, std::memory_order_relaxed);
  if (phase_index_ + 1 >= script_.phases.size()) {
    events_.clear();
    next_event_ = 0;
    next_event_at_.store(~uint64_t{0}, std::memory_order_relaxed);
    return false;
  }
  CompilePhaseLocked(phase_index_ + 1);
  // Actions scheduled at op 0 apply before the phase's first serve.
  ApplyDueLocked(0);
  return true;
}

bool FaultInjector::ShardCrashed(int shard) const {
  if (shard < 0 || shard >= static_cast<int>(shard_state_.size())) {
    return false;
  }
  return shard_state_[static_cast<size_t>(shard)]->crashed.load(
      std::memory_order_relaxed);
}

double FaultInjector::ShardLatencySeconds(int shard) const {
  if (shard < 0 || shard >= static_cast<int>(shard_state_.size())) {
    return 0.0;
  }
  return shard_state_[static_cast<size_t>(shard)]->latency_s.load(
      std::memory_order_relaxed);
}

bool FaultInjector::DrawTransientError(int shard, uint64_t op, int attempt) {
  double p = any_shard_error_p_.load(std::memory_order_relaxed);
  if (shard >= 0 && shard < static_cast<int>(shard_state_.size())) {
    p = std::max(p, shard_state_[static_cast<size_t>(shard)]->error_p.load(
                        std::memory_order_relaxed));
  }
  if (p <= 0.0) return false;
  const double u =
      UnitDraw(script_.seed ^ (op * kOpSalt) ^
               (static_cast<uint64_t>(attempt) * kAttemptSalt) ^
               (static_cast<uint64_t>(shard + 1) * kShardSalt));
  if (u >= p) return false;
  injected_by_kind_[static_cast<int>(FaultKind::kTransientError)]->Inc();
  std::ostringstream line;
  line << "@" << op << " error shard=" << shard << " attempt=" << attempt;
  std::lock_guard<std::mutex> lock(mu_);
  LogLocked(line.str());
  return true;
}

bool FaultInjector::ConsumeReloadFailure(int shard) {
  if (shard < 0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  if (shard >= static_cast<int>(reload_armed_.size()) ||
      !reload_armed_[static_cast<size_t>(shard)]) {
    return false;
  }
  reload_armed_[static_cast<size_t>(shard)] = false;
  injected_by_kind_[static_cast<int>(FaultKind::kReloadFailure)]->Inc();
  LogLocked("reload-fail shard=" + std::to_string(shard));
  return true;
}

std::string FaultInjector::EventLog() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const std::string& line : log_) {
    out += line;
    out += '\n';
  }
  return out;
}

int64_t FaultInjector::injected(FaultKind kind) const {
  return injected_by_kind_[static_cast<int>(kind)]->Value();
}

int64_t FaultInjector::injected_total() const {
  int64_t total = 0;
  for (const auto* counter : injected_by_kind_) total += counter->Value();
  return total;
}

}  // namespace genbase::serving
