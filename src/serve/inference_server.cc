#include "serve/inference_server.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/scoped_timer.h"
#include "util/fault.h"
#include "util/rng.h"

namespace llm::serve {
namespace {

// Deadline-feasibility shedding trusts the decode-rate EMA only after this
// many measured ticks. Before that the optimistic floor (fastest observed
// tick, or the est_ms_per_step_seed hint) stands in, so a cold server
// sheds only deadlines that even a best-case decode rate cannot meet —
// never on a garbage estimate.
constexpr int64_t kMinTicksForEstimate = 8;

// EMA smoothing for the per-step cost estimate.
constexpr double kEstAlpha = 0.2;

// Ends the request's open spans (queue and decode are both idempotent —
// whichever hop got there first wins) and stamps the terminal "finish"
// event. Only the server that minted the trace closes the root; a fleet
// router closing over several attempts does that itself.
void CloseTraceSpans(RequestState* state, FinishReason reason) {
  if (!state->trace) return;
  obs::Trace& trace = *state->trace;
  trace.EndSpan(state->queue_span.load(std::memory_order_acquire));
  trace.EndSpan(state->decode_span.load(std::memory_order_acquire),
                FinishReasonName(reason));
  trace.Event("finish", state->trace_parent, static_cast<int64_t>(reason),
              FinishReasonName(reason));
  if (state->owns_trace) trace.EndSpan(obs::Trace::kRootSpan);
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* FinishReasonName(FinishReason reason) {
  switch (reason) {
    case FinishReason::kNone: return "none";
    case FinishReason::kStop: return "stop";
    case FinishReason::kLength: return "length";
    case FinishReason::kWindow: return "window";
    case FinishReason::kCancelled: return "cancelled";
    case FinishReason::kDeadline: return "deadline";
    case FinishReason::kFault: return "fault";
    case FinishReason::kPreempted: return "preempted";
  }
  return "unknown";
}

const char* ServerHealthName(ServerHealth health) {
  switch (health) {
    case ServerHealth::kHealthy: return "healthy";
    case ServerHealth::kDegraded: return "degraded";
    case ServerHealth::kDraining: return "draining";
  }
  return "unknown";
}

InferenceServer::InferenceServer(const nn::GPTModel* model,
                                 const ServerOptions& options)
    : model_(model),
      options_(options),
      queue_(options.queue_capacity),
      pool_(model->config(), options.max_batch_size),
      scheduler_(model, &pool_),
      workers_(options.num_workers),
      scratch_(static_cast<size_t>(workers_.lanes())),
      tick_hist_(obs::MetricsRegistry::Global().GetHistogram("serve.tick_ms")) {
  LLM_CHECK(model != nullptr);
  LLM_CHECK_GT(options.max_batch_size, 0);
  est_floor_ms_ = std::max(options.est_ms_per_step_seed, 0.0);
  if (est_floor_ms_ > 0.0) {
    // Publish the hint so Stats() (and a further reload chaining off it)
    // sees the estimate in effect before the first measured tick.
    est_ms_per_step_pub_.store(est_floor_ms_, std::memory_order_relaxed);
  }
  const auto now = std::chrono::steady_clock::now();
  quota_.reserve(kNumTenantClasses);
  for (int cls = 0; cls < kNumTenantClasses; ++cls) {
    const TenantClassPolicy& policy = options_.tenants.classes[cls];
    quota_.emplace_back(policy.quota_tokens_per_sec, policy.quota_burst_tokens,
                        now);
  }
  obs::WireFaultEventsToFlightRecorder();
}

InferenceServer::~InferenceServer() { Shutdown(); }

void InferenceServer::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (started_ || finished_) return;
  started_ = true;
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    started_at_ = std::chrono::steady_clock::now();
  }
  scheduler_thread_ = std::thread([this] { SchedulerMain(); });
  if (options_.tick_budget.count() > 0) {
    watchdog_thread_ = std::thread([this] { WatchdogMain(); });
  }
}

void InferenceServer::Shutdown() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (finished_) return;
  finished_ = true;
  admission_closed_.store(true, std::memory_order_release);
  stop_.store(true, std::memory_order_release);
  queue_.Close();
  {
    std::lock_guard<std::mutex> wd_lock(watchdog_mu_);
  }
  watchdog_cv_.notify_all();
  if (started_) {
    scheduler_thread_.join();
    if (watchdog_thread_.joinable()) watchdog_thread_.join();
  }
  // Sweep the queue after the scheduler is gone. This covers the
  // never-started server AND the Submit-vs-Shutdown race: a push that
  // landed after the scheduler's own final drain would otherwise leave its
  // waiter hung forever. Wait()-after-Shutdown must always return.
  std::shared_ptr<RequestState> state;
  while (queue_.TryPop(&state)) {
    CompleteNow(state, FinishReason::kCancelled,
                util::Status::Cancelled("server shutdown"));
  }
}

util::Status InferenceServer::Drain(std::chrono::milliseconds timeout) {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (finished_) {
      return util::Status::FailedPrecondition("server already shut down");
    }
    draining_.store(true, std::memory_order_release);
    admission_closed_.store(true, std::memory_order_release);
  }
  obs::FlightRecorder::Global().Record(obs::FlightEventType::kDrainBegin);
  queue_.Close();  // scheduler exits once the backlog is served
  bool drained;
  {
    std::unique_lock<std::mutex> lock(stats_mu_);
    drained = drain_cv_.wait_for(lock, timeout, [this] {
      return submitted_ ==
             completed_ + cancelled_ + expired_ + failed_ + preempted_;
    });
  }
  Shutdown();
  if (!drained) {
    return util::Status::DeadlineExceeded(
        "drain timed out; remaining requests cancelled");
  }
  return util::Status::OK();
}

ServerHealth InferenceServer::Health() const {
  if (admission_closed_.load(std::memory_order_acquire)) {
    return ServerHealth::kDraining;
  }
  return degraded_.load(std::memory_order_acquire) ? ServerHealth::kDegraded
                                                   : ServerHealth::kHealthy;
}

util::StatusOr<RequestId> InferenceServer::Submit(GenerateRequest request) {
  if (admission_closed_.load(std::memory_order_acquire)) {
    return util::Status::FailedPrecondition(
        "server is draining or shut down");
  }
  const auto& config = model_->config();
  if (request.prompt.empty()) {
    return util::Status::InvalidArgument("prompt must be non-empty");
  }
  if (static_cast<int64_t>(request.prompt.size()) > config.max_seq_len) {
    return util::Status::InvalidArgument(
        "prompt length " + std::to_string(request.prompt.size()) +
        " exceeds max_seq_len " + std::to_string(config.max_seq_len));
  }
  for (int64_t t : request.prompt) {
    if (t < 0 || t >= config.vocab_size) {
      return util::Status::InvalidArgument("prompt token " +
                                           std::to_string(t) +
                                           " outside the vocabulary");
    }
  }
  if (request.max_new_tokens < 0) {
    return util::Status::InvalidArgument("max_new_tokens must be >= 0");
  }

  auto state = std::make_shared<RequestState>();
  state->id = next_id_.fetch_add(1, std::memory_order_relaxed);
  state->submit_time = std::chrono::steady_clock::now();
  state->deadline = request.timeout.count() > 0
                        ? state->submit_time + request.timeout
                        : std::chrono::steady_clock::time_point::max();
  state->request = std::move(request);
  if (state->request.trace_sink) {
    // Fleet attempt: record into the router's request-wide trace, under
    // the attempt span it opened for us.
    state->trace = state->request.trace_sink;
    state->owns_trace = false;
    state->trace_parent = state->request.trace_parent;
  } else if (state->request.trace) {
    state->trace = std::make_shared<obs::Trace>(state->id);
    state->owns_trace = true;
  }
  if (state->trace) {
    state->queue_span.store(
        state->trace->BeginSpan("queue", state->trace_parent,
                                static_cast<int64_t>(state->id)),
        std::memory_order_release);
  }
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    registry_.emplace(state->id, state);
  }
  const TenantClass tenant = state->request.tenant;
  const int cls = static_cast<int>(tenant);

  // Per-tenant quota, charged for the worst-case token footprint (prompt
  // plus requested output). A rejected request never enters the queue, so
  // the bucket is the class's rate limit on admitted work, not on traffic.
  if (options_.tenants.classes[cls].quota_tokens_per_sec > 0.0) {
    const double charge = static_cast<double>(state->request.prompt.size()) +
                          static_cast<double>(state->request.max_new_tokens);
    bool within_quota;
    {
      std::lock_guard<std::mutex> lock(quota_mu_);
      within_quota = quota_[static_cast<size_t>(cls)].TryConsume(
          charge, std::chrono::steady_clock::now());
    }
    if (!within_quota) {
      obs::FlightRecorder::Global().Record(
          obs::FlightEventType::kQuotaExhausted, cls,
          static_cast<int64_t>(state->id), static_cast<int64_t>(charge));
      {
        std::lock_guard<std::mutex> lock(registry_mu_);
        registry_.erase(state->id);
      }
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++rejected_;
      ++class_counts_[cls].quota_rejected;
      return util::Status::ResourceExhausted(
          std::string("quota exhausted for tenant class ") +
          TenantClassName(tenant));
    }
  }

  if (state->request.max_new_tokens == 0) {
    // Nothing to generate; complete without touching the queue.
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++submitted_;
      ++class_counts_[cls].submitted;
    }
    CompleteNow(state, FinishReason::kLength, util::Status::OK());
    return state->id;
  }
  util::Status pushed = queue_.Push(state);
  // Queue full: shed the newest queued request of a lower-priority
  // sheddable class to make room (priority admission under overload). The
  // victim finishes kPreempted — it was accepted, so it still reaches a
  // terminal state and conservation holds; the client may resubmit.
  while (!pushed.ok() &&
         pushed.code() == util::StatusCode::kResourceExhausted) {
    std::shared_ptr<RequestState> victim =
        queue_.EvictLowerPriority(tenant, options_.tenants);
    if (!victim) break;  // nobody lower-priority to displace: reject
    const int victim_cls = static_cast<int>(victim->request.tenant);
    obs::FlightRecorder::Global().Record(obs::FlightEventType::kShed,
                                         victim_cls,
                                         static_cast<int64_t>(victim->id),
                                         cls);
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++class_counts_[victim_cls].shed;
    }
    CompleteNow(victim, FinishReason::kPreempted,
                util::Status::ResourceExhausted(
                    "shed: displaced from the queue by a higher-priority "
                    "tenant; resubmit to retry"));
    pushed = queue_.Push(state);
  }
  if (!pushed.ok()) {
    {
      std::lock_guard<std::mutex> lock(registry_mu_);
      registry_.erase(state->id);
    }
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++rejected_;
    ++class_counts_[cls].rejected;
    return pushed;
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++submitted_;
  ++class_counts_[cls].submitted;
  return state->id;
}

util::StatusOr<RequestId> InferenceServer::SubmitWithRetry(
    const GenerateRequest& request, const RetryOptions& retry) {
  util::Rng jitter(retry.jitter_seed);
  util::StatusOr<RequestId> result =
      util::Status::InvalidArgument("max_attempts must be >= 1");
  const int attempts = std::max(retry.max_attempts, 1);
  // The request's deadline bounds the whole retry loop, not each attempt:
  // a backoff sleep that would land past it is pointless (the request
  // would be rejected as expired at admission anyway), so the loop gives
  // up *before* the deadline rather than sleeping through it.
  const auto loop_deadline =
      request.timeout.count() > 0
          ? std::chrono::steady_clock::now() + request.timeout
          : std::chrono::steady_clock::time_point::max();
  for (int attempt = 0; attempt < attempts; ++attempt) {
    result = Submit(request);  // copies: each attempt resubmits intact
    if (result.ok() ||
        result.status().code() != util::StatusCode::kResourceExhausted) {
      return result;
    }
    if (attempt + 1 == attempts) break;
    // Capped exponential backoff with jitter in [0.5, 1.0)x: retries from
    // clients seeded differently decorrelate instead of re-colliding.
    const double base_ms = std::min<double>(
        static_cast<double>(retry.max_backoff.count()),
        static_cast<double>(retry.initial_backoff.count()) *
            std::pow(2.0, attempt));
    const double jittered_ms =
        std::max(base_ms * (0.5 + 0.5 * jitter.Uniform()), 0.0);
    const auto sleep_until =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(jittered_ms));
    if (sleep_until >= loop_deadline) break;  // would outlive the deadline
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(jittered_ms));
  }
  return result;
}

bool InferenceServer::Cancel(RequestId id) {
  std::shared_ptr<RequestState> state;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    auto it = registry_.find(id);
    if (it == registry_.end()) return false;
    state = it->second;
  }
  {
    std::lock_guard<std::mutex> lock(state->mu);
    if (state->done) return false;
  }
  state->cancel_requested.store(true, std::memory_order_release);
  return true;
}

util::StatusOr<RequestResult> InferenceServer::Wait(RequestId id) {
  std::shared_ptr<RequestState> state;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    auto it = registry_.find(id);
    if (it == registry_.end()) {
      return util::Status::NotFound("unknown request id " +
                                    std::to_string(id));
    }
    state = it->second;
  }
  RequestResult result;
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait(lock, [&] { return state->done; });
    result.status = state->status;
    result.reason = state->reason;
    result.tokens = state->tokens;
    result.queue_ms = state->queue_ms;
    result.total_ms = state->total_ms;
    result.first_token_ms = state->first_token_ms;
    result.trace = state->trace;
  }
  std::lock_guard<std::mutex> lock(registry_mu_);
  registry_.erase(id);
  return result;
}

InferenceServer::PollOutcome InferenceServer::Poll(RequestId id,
                                                  RequestResult* out) {
  std::shared_ptr<RequestState> state;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    auto it = registry_.find(id);
    if (it == registry_.end()) return PollOutcome::kUnknown;
    state = it->second;
  }
  {
    std::lock_guard<std::mutex> lock(state->mu);
    if (!state->done) return PollOutcome::kPending;
    out->status = state->status;
    out->reason = state->reason;
    out->tokens = state->tokens;
    out->queue_ms = state->queue_ms;
    out->total_ms = state->total_ms;
    out->first_token_ms = state->first_token_ms;
    out->trace = state->trace;
  }
  std::lock_guard<std::mutex> lock(registry_mu_);
  registry_.erase(id);
  return PollOutcome::kReady;
}

int64_t InferenceServer::ApproxLoad() const {
  return static_cast<int64_t>(queue_.size()) + scheduler_.active_count();
}

void InferenceServer::DebugPoisonDecode(bool on) {
  scheduler_.SetDecodePoison(on);
}

RequestResult InferenceServer::GenerateBlocking(GenerateRequest request) {
  util::StatusOr<RequestId> id = Submit(std::move(request));
  if (!id.ok()) {
    RequestResult result;
    result.status = id.status();
    return result;
  }
  return std::move(Wait(id.value())).value();
}

ServerStats InferenceServer::Stats() const {
  ServerStats stats;
  stats.queue_depth = queue_.size();
  stats.active_slots = scheduler_.active_count();
  stats.total_slots = pool_.num_slots();
  stats.free_slots = pool_.free_count();
  stats.stalled_ticks = stalled_ticks_.load(std::memory_order_relaxed);
  stats.leaks_repaired = leaks_repaired_.load(std::memory_order_relaxed);
  stats.est_ms_per_step = est_ms_per_step_pub_.load(std::memory_order_relaxed);
  stats.health = Health();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats.submitted = submitted_;
    stats.rejected = rejected_;
    stats.completed = completed_;
    stats.cancelled = cancelled_;
    stats.expired = expired_;
    stats.failed = failed_;
    stats.preempted = preempted_;
    for (int cls = 0; cls < kNumTenantClasses; ++cls) {
      stats.classes[cls] = class_counts_[cls];
    }
    stats.total_tokens = total_tokens_;
    if (started_at_.time_since_epoch().count() != 0) {
      const double secs = MsSince(started_at_) / 1000.0;
      if (secs > 0.0) {
        stats.tokens_per_sec = static_cast<double>(total_tokens_) / secs;
      }
    }
  }
  const obs::HistogramSnapshot latency = latency_hist_.Snapshot();
  stats.p50_latency_ms = latency.Percentile(0.50);
  stats.p95_latency_ms = latency.Percentile(0.95);
  stats.p99_latency_ms = latency.Percentile(0.99);
  for (int cls = 0; cls < kNumTenantClasses; ++cls) {
    const obs::HistogramSnapshot ttft = ttft_hist_[cls].Snapshot();
    stats.classes[cls].p50_ttft_ms = ttft.Percentile(0.50);
    stats.classes[cls].p99_ttft_ms = ttft.Percentile(0.99);
    const obs::HistogramSnapshot tpot = tpot_hist_[cls].Snapshot();
    stats.classes[cls].p50_tpot_ms = tpot.Percentile(0.50);
    stats.classes[cls].p99_tpot_ms = tpot.Percentile(0.99);
  }
  return stats;
}

void ExportServerStats(const ServerStats& stats, const std::string& prefix,
                       obs::MetricsRegistry* registry) {
  const auto set = [&](const char* name, double value) {
    registry->GetGauge(prefix + "." + name)->Set(value);
  };
  set("queue_depth", static_cast<double>(stats.queue_depth));
  set("active_slots", static_cast<double>(stats.active_slots));
  set("total_slots", static_cast<double>(stats.total_slots));
  set("free_slots", static_cast<double>(stats.free_slots));
  set("submitted", static_cast<double>(stats.submitted));
  set("rejected", static_cast<double>(stats.rejected));
  set("completed", static_cast<double>(stats.completed));
  set("cancelled", static_cast<double>(stats.cancelled));
  set("expired", static_cast<double>(stats.expired));
  set("failed", static_cast<double>(stats.failed));
  set("stalled_ticks", static_cast<double>(stats.stalled_ticks));
  set("leaks_repaired", static_cast<double>(stats.leaks_repaired));
  set("total_tokens", static_cast<double>(stats.total_tokens));
  set("tokens_per_sec", stats.tokens_per_sec);
  set("est_ms_per_step", stats.est_ms_per_step);
  set("preempted", static_cast<double>(stats.preempted));
  set("p50_latency_ms", stats.p50_latency_ms);
  set("p95_latency_ms", stats.p95_latency_ms);
  set("p99_latency_ms", stats.p99_latency_ms);
  set("health", static_cast<double>(stats.health));
  for (int cls = 0; cls < kNumTenantClasses; ++cls) {
    const TenantClassStats& tc = stats.classes[cls];
    const std::string cls_prefix =
        prefix + "." + TenantClassName(static_cast<TenantClass>(cls)) + ".";
    const auto set_cls = [&](const char* name, double value) {
      registry->GetGauge(cls_prefix + name)->Set(value);
    };
    set_cls("submitted", static_cast<double>(tc.submitted));
    set_cls("rejected", static_cast<double>(tc.rejected));
    set_cls("quota_rejected", static_cast<double>(tc.quota_rejected));
    set_cls("shed", static_cast<double>(tc.shed));
    set_cls("preempted", static_cast<double>(tc.preempted));
    set_cls("completed", static_cast<double>(tc.completed));
    set_cls("cancelled", static_cast<double>(tc.cancelled));
    set_cls("expired", static_cast<double>(tc.expired));
    set_cls("failed", static_cast<double>(tc.failed));
    set_cls("tokens", static_cast<double>(tc.tokens));
    set_cls("p50_ttft_ms", tc.p50_ttft_ms);
    set_cls("p99_ttft_ms", tc.p99_ttft_ms);
    set_cls("p50_tpot_ms", tc.p50_tpot_ms);
    set_cls("p99_tpot_ms", tc.p99_tpot_ms);
  }
}

void InferenceServer::RecordFinish(const RequestState& state,
                                   FinishReason reason, double total_ms) {
  // Caller holds state.mu, so first_token_ms / tokens are stable here.
  const int cls = static_cast<int>(state.request.tenant);
  if (state.first_token_ms > 0.0) {
    ttft_hist_[cls].Record(state.first_token_ms);
  }
  const size_t n_tokens = state.tokens.size();
  if (n_tokens >= 2 && total_ms > state.first_token_ms) {
    tpot_hist_[cls].Record((total_ms - state.first_token_ms) /
                           static_cast<double>(n_tokens - 1));
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  TenantClassStats& counts = class_counts_[cls];
  switch (reason) {
    case FinishReason::kStop:
    case FinishReason::kLength:
    case FinishReason::kWindow:
      ++completed_;
      ++counts.completed;
      latency_hist_.Record(total_ms);
      break;
    case FinishReason::kCancelled:
      ++cancelled_;
      ++counts.cancelled;
      break;
    case FinishReason::kDeadline:
      ++expired_;
      ++counts.expired;
      break;
    case FinishReason::kFault:
      ++failed_;
      ++counts.failed;
      break;
    case FinishReason::kPreempted:
      ++preempted_;
      ++counts.preempted;
      break;
    case FinishReason::kNone:
      break;
  }
  // A Drain may be waiting for the last terminal event.
  drain_cv_.notify_all();
}

void InferenceServer::CompleteNow(const std::shared_ptr<RequestState>& state,
                                  FinishReason reason, util::Status status) {
  const double total_ms = MsSince(state->submit_time);
  {
    std::lock_guard<std::mutex> lock(state->mu);
    if (state->done) return;
    // Stats must be updated before `done` is observable: a waiter may read
    // Stats() the instant Wait() returns.
    RecordFinish(*state, reason, total_ms);
    state->done = true;
    state->reason = reason;
    state->status = std::move(status);
    state->total_ms = total_ms;
  }
  CloseTraceSpans(state.get(), reason);
  state->cv.notify_all();
}

bool InferenceServer::PrepareAdmission(
    const std::shared_ptr<RequestState>& state) {
  if (state->cancel_requested.load(std::memory_order_acquire)) {
    CompleteNow(state, FinishReason::kCancelled,
                util::Status::Cancelled("cancelled while queued"));
    return false;
  }
  const auto now = std::chrono::steady_clock::now();
  if (now >= state->deadline) {
    CompleteNow(state, FinishReason::kDeadline,
                util::Status::DeadlineExceeded("deadline expired in queue"));
    return false;
  }
  // Deadline-aware shedding: if even the most optimistic completion
  // estimate (every remaining step at the measured per-step rate, full
  // batch parallelism) overshoots the deadline, reject now instead of
  // wasting a KV slot on a request that is guaranteed to expire. While the
  // EMA is still warming up, the optimistic floor — the fastest tick seen,
  // seeded from any est_ms_per_step_seed hint — stands in, so shedding is
  // live from the first measured tick (or immediately with a hint) and a
  // cold server with neither never sheds a feasible deadline.
  const double est_step_ms =
      ticks_observed_ >= kMinTicksForEstimate ? est_ms_per_step_
                                              : est_floor_ms_;
  if (state->deadline != std::chrono::steady_clock::time_point::max() &&
      est_step_ms > 0.0) {
    const auto& request = state->request;
    const int64_t steps_needed =
        std::min(static_cast<int64_t>(request.prompt.size()) +
                     request.max_new_tokens,
                 model_->config().max_seq_len);
    const double est_ms = static_cast<double>(steps_needed) * est_step_ms;
    const double budget_ms =
        std::chrono::duration<double, std::milli>(state->deadline - now)
            .count();
    if (est_ms > budget_ms) {
      CompleteNow(state, FinishReason::kDeadline,
                  util::Status::DeadlineExceeded(
                      "deadline infeasible: ~" +
                      std::to_string(static_cast<int64_t>(est_ms)) +
                      "ms of decode needed, " +
                      std::to_string(static_cast<int64_t>(budget_ms)) +
                      "ms left"));
      return false;
    }
  }
  return true;
}

void InferenceServer::AdmitState(std::shared_ptr<RequestState> state) {
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    inflight_.emplace(state->id, state);
  }
  scheduler_.Admit(std::move(state));
}

int64_t InferenceServer::AdmitFromQueue() {
  int64_t admitted = 0;
  std::shared_ptr<RequestState> state;
  while (true) {
    if (scheduler_.HasFreeSlot()) {
      // Weighted-fair admission: the free slot goes to the backlogged
      // class furthest under its fair share of lanes.
      int64_t active[kNumTenantClasses];
      scheduler_.ActiveSnapshot(active);
      if (!queue_.TryPopFair(active, options_.tenants, &state)) break;
      if (!PrepareAdmission(state)) continue;
      AdmitState(std::move(state));
      ++admitted;
      continue;
    }
    // Batch full: the highest-priority queued class may preempt a
    // lower-priority preemptible lane (subject to the fairness gate in
    // PickVictim). The victim retires kPreempted with its partial output;
    // its freed slot admits the waiting request this same iteration.
    const int top = queue_.PeekTopClass();
    if (top < 0) break;
    const TenantClass incoming = static_cast<TenantClass>(top);
    if (!scheduler_.CanPreemptFor(incoming, options_.tenants)) break;
    if (!queue_.TryPopClass(incoming, &state)) break;
    // Gate the incoming request BEFORE displacing a victim for it: a
    // cancelled or infeasible request must not cost anyone their lane.
    if (!PrepareAdmission(state)) continue;
    TickOutput preempt_out;
    const bool preempted =
        scheduler_.PreemptFor(incoming, options_.tenants, &preempt_out);
    LLM_CHECK(preempted);  // single scheduler thread: the victim can't move
    Publish(preempt_out);
    // An injected slot leak can keep the victim's slot leased; repair it
    // now instead of at the end of the iteration, so the lane the victim
    // gave up really is free for the incoming request.
    if (!scheduler_.HasFreeSlot()) RepairLeakedSlots();
    AdmitState(std::move(state));
    ++admitted;
  }
  return admitted;
}

void InferenceServer::RepairLeakedSlots() {
  const int64_t repaired = scheduler_.ReclaimLeakedSlots();
  if (repaired == 0) return;
  leaks_repaired_.fetch_add(static_cast<uint64_t>(repaired),
                            std::memory_order_relaxed);
  degraded_.store(true, std::memory_order_release);
  obs::FlightRecorder::Global().Record(obs::FlightEventType::kLeakRepaired,
                                       static_cast<int32_t>(repaired));
}

void InferenceServer::Publish(const TickOutput& out) {
  uint64_t delivered = 0;
  uint64_t delivered_per_class[kNumTenantClasses] = {};
  for (const TickOutput::Emitted& emitted : out.tokens) {
    // A request the watchdog (or an earlier callback failure) already
    // finished gets no further streaming callbacks.
    {
      std::lock_guard<std::mutex> lock(emitted.state->mu);
      if (emitted.state->done) continue;
    }
    ++delivered;
    ++delivered_per_class[static_cast<int>(emitted.state->request.tenant)];
    const auto& callback = emitted.state->request.on_token;
    if (!callback) continue;
    if (emitted.state->trace) {
      emitted.state->trace->Event(
          "stream", emitted.state->decode_span.load(std::memory_order_acquire),
          emitted.token);
    }
    bool threw = false;
    try {
      if (util::MaybeInjectFault(util::FaultSite::kOnTokenThrow)) {
        throw std::runtime_error("injected on_token failure");
      }
      callback(emitted.state->id, emitted.token);
    } catch (...) {
      threw = true;
    }
    if (threw) {
      // A misbehaving client callback is isolated exactly like a poisoned
      // lane: fail this request, free its slot at the next tick, keep
      // serving everyone else.
      degraded_.store(true, std::memory_order_release);
      emitted.state->cancel_requested.store(true, std::memory_order_release);
      CompleteNow(emitted.state, FinishReason::kFault,
                  util::Status::Internal(
                      "on_token callback threw; request isolated"));
    }
  }
  if (delivered > 0) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    total_tokens_ += delivered;
    for (int cls = 0; cls < kNumTenantClasses; ++cls) {
      class_counts_[cls].tokens += delivered_per_class[cls];
    }
  }
  for (const TickOutput::Finished& finished : out.finished) {
    {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      inflight_.erase(finished.state->id);
    }
    if (finished.reason == FinishReason::kFault) {
      degraded_.store(true, std::memory_order_release);
    }
    const double total_ms = MsSince(finished.state->submit_time);
    {
      std::lock_guard<std::mutex> lock(finished.state->mu);
      if (finished.state->done) continue;
      RecordFinish(*finished.state, finished.reason, total_ms);
      finished.state->done = true;
      finished.state->reason = finished.reason;
      finished.state->status = finished.status;
      finished.state->total_ms = total_ms;
    }
    CloseTraceSpans(finished.state.get(), finished.reason);
    finished.state->cv.notify_all();
  }
}

void InferenceServer::SchedulerMain() {
  while (!stop_.load(std::memory_order_acquire)) {
    if (scheduler_.active_count() == 0) {
      // Idle: block until work arrives or the queue is closed and empty.
      std::shared_ptr<RequestState> state;
      if (!queue_.WaitPop(&state)) break;
      if (!PrepareAdmission(state)) continue;
      AdmitState(std::move(state));
    }
    // Continuous batching: top the batch up from the queue, then advance
    // every active sequence one token.
    AdmitFromQueue();
    const auto tick_start = std::chrono::steady_clock::now();
    tick_start_ns_.store(SteadyNowNs(), std::memory_order_release);
    tick_seq_.fetch_add(1, std::memory_order_acq_rel);  // odd: tick running
    {
      obs::ScopedTimer tick_timer(tick_hist_);
      scheduler_.Tick(&workers_, &scratch_, &tick_out_);
    }
    tick_seq_.fetch_add(1, std::memory_order_acq_rel);  // even: tick done
    if (tick_out_.steps > 0) {
      const double step_ms =
          MsSince(tick_start) / static_cast<double>(tick_out_.steps);
      est_ms_per_step_ = est_ms_per_step_ == 0.0
                             ? step_ms
                             : (1.0 - kEstAlpha) * est_ms_per_step_ +
                                   kEstAlpha * step_ms;
      // The floor tracks the fastest tick ever seen (or the reload hint):
      // the optimistic stand-in feasibility shedding uses until the EMA
      // has warmed up.
      est_floor_ms_ = est_floor_ms_ == 0.0 ? step_ms
                                           : std::min(est_floor_ms_, step_ms);
      ++ticks_observed_;
      est_ms_per_step_pub_.store(est_ms_per_step_, std::memory_order_relaxed);
    }
    Publish(tick_out_);
    RepairLeakedSlots();
  }
  // Shutdown: retire in-flight sequences (partial output preserved) and
  // fail whatever is still queued.
  tick_out_.Clear();  // last tick's events were already published
  scheduler_.DrainActive(FinishReason::kCancelled,
                         util::Status::Cancelled("server shutdown"),
                         &tick_out_);
  Publish(tick_out_);
  tick_out_.Clear();
  scheduler_.ReclaimLeakedSlots();
  std::shared_ptr<RequestState> state;
  while (queue_.TryPop(&state)) {
    CompleteNow(state, FinishReason::kCancelled,
                util::Status::Cancelled("server shutdown"));
  }
}

void InferenceServer::WatchdogMain() {
  const auto budget = options_.tick_budget;
  const auto interval =
      std::max<std::chrono::milliseconds>(budget / 4,
                                          std::chrono::milliseconds(1));
  uint64_t handled_seq = 0;
  std::unique_lock<std::mutex> lock(watchdog_mu_);
  while (!stop_.load(std::memory_order_acquire)) {
    watchdog_cv_.wait_for(lock, interval, [this] {
      return stop_.load(std::memory_order_acquire);
    });
    if (stop_.load(std::memory_order_acquire)) break;
    const uint64_t seq = tick_seq_.load(std::memory_order_acquire);
    if ((seq & 1) == 0 || seq == handled_seq) continue;  // idle / handled
    const double elapsed_ms =
        static_cast<double>(SteadyNowNs() -
                            tick_start_ns_.load(std::memory_order_acquire)) /
        1e6;
    if (elapsed_ms < static_cast<double>(budget.count())) continue;
    // Stalled tick: fail fast. Every in-flight request completes with a
    // diagnostic Internal status so no Wait() hangs behind the wedged
    // worker; their slots retire at whatever tick the scheduler manages
    // next (the cancel flag tells it to stop decoding them).
    handled_seq = seq;
    degraded_.store(true, std::memory_order_release);
    stalled_ticks_.fetch_add(1, std::memory_order_relaxed);
    std::vector<std::shared_ptr<RequestState>> victims;
    {
      std::lock_guard<std::mutex> inflight_lock(inflight_mu_);
      victims.reserve(inflight_.size());
      for (const auto& [id, st] : inflight_) victims.push_back(st);
    }
    obs::FlightRecorder::Global().Record(
        obs::FlightEventType::kStallDetected,
        static_cast<int32_t>(victims.size()),
        static_cast<int64_t>(elapsed_ms));
    for (const auto& victim : victims) {
      victim->cancel_requested.store(true, std::memory_order_release);
      CompleteNow(victim, FinishReason::kFault,
                  util::Status::Internal(
                      "scheduler tick stalled: " +
                      std::to_string(static_cast<int64_t>(elapsed_ms)) +
                      "ms elapsed against a " +
                      std::to_string(budget.count()) + "ms budget"));
    }
  }
}

}  // namespace llm::serve
