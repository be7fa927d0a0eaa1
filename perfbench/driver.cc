// Workload driver of the repository benchmark (run by perfbench/run.py).
//
// One process runs one workload and prints one JSON object as its last
// stdout line:
//   {"facts":   build and machine facts,
//    "setup_s": host seconds of each repeated set-up,
//    "calls":   one entry per timed simulate call, with the SHA-256 digest of
//               every simulated output and its accounted() flag,
//    "layers":  per-layer metrics (traced runs only)}
// run.py compares the digests against perfbench/reference.json, turns the
// timings into the benchmark's metrics and runs the figure programs itself.
//
// The driver reaches the program only through public entry points:
// ShardedExperiment::run_with_model, ClusterExperiment::prepare/run_trials,
// and, for the traced run, each layer's public functions, called here with
// the sizes and arguments the workload's own simulate calls use. Nothing
// inside the program is instrumented; per-layer numbers are taken from
// outside, so an untraced run times exactly what a user runs.
//
// Usage:
//   perfbench_driver --workload W --seed N --seconds S --trace 0|1
//                    --threads T [--record]
// --record simulates every entry of the workload's input pool once, untimed,
// so run.py can write the reference digests.
//   perfbench_driver --spawn REPORT PROGRAM [ARGS...]
// runs PROGRAM as a child and writes its exit code, wall time and peak RSS
// to the file REPORT (see spawn() below).
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "attest/sha256.h"
#include "attest/svc/cost_model.h"
#include "attest/svc/ticket.h"
#include "bench/common.h"
#include "core/confbench.h"
#include "core/launcher.h"
#include "core/pool.h"
#include "fault/breaker.h"
#include "fault/hedge.h"
#include "metrics/histogram.h"
#include "metrics/json.h"
#include "metrics/stats.h"
#include "net/network.h"
#include "rt/profile.h"
#include "sched/cluster.h"
#include "sched/event_queue.h"
#include "sched/shard.h"
#include "sim/cache.h"
#include "sim/clock.h"
#include "sim/rng.h"
#include "wl/faas.h"

using namespace confbench;

namespace {

using Clock = std::chrono::steady_clock;

double since_s(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  return metrics::percentile(std::move(v), 50);
}

/// Written by every timed call so the optimizer cannot drop the work.
volatile std::uint64_t g_sink = 0;

/// Median over `batches` of the mean host ns per call of fn(i), each batch
/// making `per_batch` calls. Per-call costs are medians over many calls.
template <typename F>
double per_call_ns(int batches, int per_batch, F&& fn) {
  std::vector<double> v;
  v.reserve(static_cast<std::size_t>(batches));
  std::uint64_t i = 0;
  for (int b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    for (int k = 0; k < per_batch; ++k) fn(i++);
    v.push_back(since_s(t0) * 1e9 / per_batch);
  }
  return median(v);
}

/// Distinct simulate inputs per workload. Each has a recorded reference
/// digest; the workload seed picks where a run's inputs start in the pool.
constexpr int kPoolEntries = 16;
/// Inputs per run: consecutive pool entries from the seed's. Inputs differ
/// in cost by several percent, so a run times several to average that out.
constexpr int kRunEntries = 8;

std::uint64_t entry_seed(const std::string& workload, std::uint64_t n) {
  return sim::hash_combine(sim::stable_hash("perfbench/" + workload), n);
}

std::string digest(const std::string& s) {
  return attest::to_hex(attest::Sha256::hash(s));
}

/// One simulated output: its reference key, digest and invariant.
struct Output {
  std::string key;
  std::string digest;
  bool accounted = true;
};

/// One timed simulate call (a run_trials batch for the cluster workload).
struct Call {
  int entry = 0;  ///< the pool entry simulated
  double wall_s = 0;
  std::uint64_t offered = 0;
  std::vector<Output> outputs;
  std::string error;  ///< what the call threw, if it threw
};

using Layers = std::map<std::string, double>;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int threads = 1;
  bool record = false;
};

// --- shared per-layer probes ------------------------------------------------

/// EventQueue::at + step with `depth` events pending, scheduled over
/// `horizon_ns` of virtual time like the workload's own events.
double event_ns(std::size_t depth, sim::Ns horizon_ns) {
  sim::VirtualClock clock;
  sched::EventQueue q(clock);
  sim::Rng rng("perfbench/event");
  const double h = std::max<double>(horizon_ns, 1.0);
  for (std::size_t i = 0; i < depth; ++i)
    q.at(clock.now() + h * rng.next_double(), [] { g_sink = g_sink + 1; });
  return per_call_ns(31, 20000, [&](std::uint64_t) {
    q.at(clock.now() + h * rng.next_double(), [] { g_sink = g_sink + 1; });
    q.step();
  });
}

/// A pool like one shard's: `slots` members (every fleet slot, as each
/// shard's pool holds them), the first `enabled` enabled (the slice).
core::TeePool shard_pool(std::size_t slots, std::size_t enabled) {
  core::TeePool pool("tdx:perfbench", core::LoadBalancePolicy::kLeastLoaded);
  for (std::size_t r = 0; r < slots; ++r) {
    pool.add_member({.host = sched::ShardedFrontend::replica_host(
                         static_cast<std::uint32_t>(r))});
    pool.set_enabled(static_cast<std::uint32_t>(r), r < enabled);
  }
  return pool;
}

/// TeePool::acquire_excluding + release.
double pool_acquire_ns(std::size_t slots, std::size_t enabled) {
  core::TeePool pool = shard_pool(slots, enabled);
  return per_call_ns(31, 20000, [&](std::uint64_t) {
    core::PoolMember* m = pool.acquire_excluding(core::TeePool::kNoExclude);
    g_sink = g_sink + m->index;
    pool.release(m);
  });
}

double pool_enabled_count_ns(std::size_t slots, std::size_t enabled) {
  const core::TeePool pool = shard_pool(slots, enabled);
  return per_call_ns(31, 20000, [&](std::uint64_t) {
    g_sink = g_sink + pool.enabled_count();
  });
}

/// Each layer's share of the host time per request: its host ns per
/// simulated request (`ns_per_req`) over `host_ns_per_req`; and the
/// remainder no layer holds.
void record_shares(const std::map<std::string, double>& ns_per_req,
                   double host_ns_per_req, Layers& out) {
  double attributed = 0;
  for (const auto& [name, ns] : ns_per_req) {
    out[name] = ns / host_ns_per_req;
    attributed += out[name];
  }
  out["unattributed_share"] = 1 - attributed;
}

/// Latencies shaped like the run's: lognormal around its mean.
std::vector<double> latency_samples(double mean_ns, std::size_t n) {
  sim::Rng rng("perfbench/latency");
  std::vector<double> v(n);
  for (double& x : v) x = std::max(1.0, mean_ns) * rng.jitter(0.5);
  return v;
}

void histogram_layers(double mean_ns, std::uint64_t warm_samples,
                      const fault::HedgeConfig& hedge, Layers& out) {
  const std::vector<double> lat = latency_samples(mean_ns, 4096);
  metrics::LogHistogram h;
  for (std::uint64_t i = 0; i < std::max<std::uint64_t>(warm_samples, 1); ++i)
    h.record(lat[i % lat.size()]);
  out["metrics.hist_record_ns"] = per_call_ns(31, 20000, [&](std::uint64_t i) {
    h.record(lat[i % lat.size()]);
  });
  out["metrics.hist_quantile_ns"] =
      per_call_ns(31, 2000, [&](std::uint64_t i) {
        g_sink = g_sink +
                 static_cast<std::uint64_t>(h.quantile(0.5 + 0.49 * (i % 2)));
      });
  fault::HedgePolicy policy(hedge);
  const std::uint64_t warm =
      std::max<std::uint64_t>(warm_samples, hedge.warmup);
  for (std::uint64_t i = 0; i < warm; ++i)
    policy.observe(0, static_cast<sim::Ns>(lat[i % lat.size()]));
  out["fault.hedge_threshold_ns"] = per_call_ns(31, 2000, [&](std::uint64_t) {
    g_sink = g_sink + static_cast<std::uint64_t>(policy.threshold_ns(0));
  });
}

double breaker_ns() {
  fault::CircuitBreaker br{fault::BreakerConfig{}};
  return per_call_ns(31, 20000, [&](std::uint64_t i) {
    const auto now = static_cast<sim::Ns>(i) * sim::kMs;
    g_sink = g_sink + br.allow(now);
    br.record_success(now);
  });
}

// --- fabric workloads (ShardedExperiment) -----------------------------------

struct FabricSetup {
  std::unique_ptr<core::ConfBench> system;
  sched::ServiceModel model;
  attest::svc::CostModel cost;
  sched::ShardedConfig cfg;
  double calibrate_s = 0;
};

// Requests per simulate call, and calls per second of --seconds. Calls are
// short so a run holds many of them: the fastest of many short calls is what
// a shared machine's bursts of contention leave least disturbed.
constexpr std::uint64_t kWideRequests = 10000;
constexpr double kWideCallsPerS = 8;
constexpr std::uint64_t kGrayChurnRequests = 10000;
constexpr double kGrayChurnCallsPerS = 16;
constexpr std::uint64_t kClusterTrialRequests = 5000;
constexpr double kClusterCallsPerS = 24;

/// fabric_wide: 64 shards x 256 replicas at 0.6x fleet capacity, no faults,
/// no hedging — per-request cost is the O(fleet) ring and pool scans.
sched::ShardedConfig wide_config(const sched::ServiceModel& model) {
  sched::ShardedConfig cfg;
  cfg.platform = "tdx";
  cfg.secure = true;
  cfg.requests = kWideRequests;
  cfg.warmup_requests = cfg.requests / 20;
  cfg.replicas = 256;
  cfg.shard.shards = 64;
  cfg.queue = {.concurrency = 8, .queue_depth = 32};
  cfg.scaler.tick_ns = 20 * sim::kMs;
  cfg.rate_rps = 0.6 * cfg.replicas *
                 model.replica_capacity_rps(cfg.queue.concurrency);
  return cfg;
}

/// fabric_gray_churn: the shard_hedge bench's warm TDX cell (4 x 16, 0.3x
/// capacity, cross-shard hedging against a prewarmed verification service,
/// one gray slow link on a shard-0 slice member) plus scripted membership
/// churn spread over the run — small scans, busy hedge/link/ring-write paths.
sched::ShardedConfig gray_churn_config(const sched::ServiceModel& model,
                                       const attest::svc::CostModel& cost) {
  sched::ShardedConfig cfg;
  cfg.platform = "tdx";
  cfg.secure = true;
  cfg.requests = kGrayChurnRequests;
  cfg.warmup_requests = cfg.requests / 20;
  cfg.replicas = 16;
  cfg.shard.shards = 4;
  cfg.queue = {.concurrency = 8, .queue_depth = 32};
  cfg.scaler.tick_ns = 20 * sim::kMs;
  cfg.probe_interval_ns = std::max<sim::Ns>(50 * sim::kMs, model.total_ns());
  cfg.retry.max_attempts = 4;
  cfg.retry.budget_ns = 120 * sim::kSec;
  cfg.rate_rps = 0.3 * cfg.replicas *
                 model.replica_capacity_rps(cfg.queue.concurrency);
  cfg.hedge.enabled = true;
  cfg.hedge.cross_shard = true;
  cfg.hedge.quantile = 0.55;
  cfg.hedge.budget_fraction = 0.5;
  cfg.hedge.warmup = 64;
  cfg.attest_svc.enabled = true;
  cfg.attest_svc.cost = cost;
  cfg.attest_svc.collateral_ttl_ns = 600 * sim::kSec;
  cfg.attest_svc.ticket_ttl_ns = 300 * sim::kSec;
  for (int s = 0; s < cfg.shard.shards; ++s)
    cfg.attest_svc.prewarm_subjects.push_back(static_cast<std::uint64_t>(s));

  const sim::Ns expect_ns =
      static_cast<double>(cfg.requests) / cfg.rate_rps * sim::kSec;
  const double factor =
      1.0 + static_cast<double>(10 * model.total_ns()) /
                static_cast<double>(2 * cfg.shard.hop_ns);
  const sched::ShardedFrontend fe(cfg.shard, cfg.replicas);
  cfg.faults.slow_link(0.1 * expect_ns, 0.6 * expect_ns,
                       sched::ShardedFrontend::replica_host(fe.slice(0)[0]),
                       sched::ShardedFrontend::shard_host(0), factor);
  cfg.faults.shard_join(0.2 * expect_ns);
  cfg.faults.replica_add(0.35 * expect_ns, 2);
  cfg.faults.shard_leave(0.55 * expect_ns, 1);
  cfg.faults.replica_remove(0.75 * expect_ns, fe.slice(2).back());
  return cfg;
}

FabricSetup setup_fabric(const std::string& workload) {
  FabricSetup s;
  s.system = core::ConfBench::standard();
  const auto t0 = Clock::now();
  s.model =
      sched::ServiceModel::calibrate(*s.system, "iostress", "go", "tdx", true);
  s.calibrate_s = since_s(t0);
  s.cost = attest::svc::CostModel::measure("tdx");
  s.cfg = workload == "fabric_wide" ? wide_config(s.model)
                                    : gray_churn_config(s.model, s.cost);
  return s;
}

Call simulate_fabric(const std::string& workload, const FabricSetup& s,
                     int entry, sched::ShardedResult* keep) {
  sched::ShardedConfig cfg = s.cfg;
  cfg.seed = entry_seed(workload, static_cast<std::uint64_t>(entry));
  Call c;
  const auto t0 = Clock::now();
  sched::ShardedResult r =
      sched::ShardedExperiment(cfg).run_with_model(s.model);
  c.wall_s = since_s(t0);
  c.offered = r.offered;
  c.outputs.push_back({workload + "/" + std::to_string(entry),
                       digest(r.to_json()), r.accounted()});
  if (keep) *keep = std::move(r);
  return c;
}

/// Per-layer metrics of a fabric workload. `r` is the run's first simulate
/// call (its input is fixed by the seed, so every count repeats exactly);
/// `host_ns_per_req` is the median host time per offered request.
void trace_fabric(const FabricSetup& s, const sched::ShardedResult& r,
                  double host_ns_per_req, Layers& out) {
  const sched::ShardedConfig& cfg = s.cfg;
  const double offered = std::max<double>(1, r.offered);
  const double dispatches = r.offered + r.retries + r.hedging.fired;
  const bool hedging = cfg.hedge.enabled;
  const double churn_ops = r.churn.shard_joins + r.churn.shard_leaves +
                           r.churn.replica_adds + r.churn.replica_removes;
  std::uint32_t r_max = static_cast<std::uint32_t>(cfg.replicas);
  for (const fault::FaultEvent& e : cfg.faults.events())
    if (e.kind == fault::FaultKind::kReplicaAdd) r_max += e.replica;

  const sched::ShardedFrontend fe(cfg.shard, cfg.replicas);
  out["sched.route_ns"] = per_call_ns(31, 2000, [&](std::uint64_t i) {
    g_sink = g_sink + fe.route(i).front();
  });
  out["core.pool_acquire_ns"] = pool_acquire_ns(r_max, fe.slice(0).size());
  out["core.pool_enabled_count_ns"] =
      pool_enabled_count_ns(r_max, fe.slice(0).size());

  // Little's law: requests in flight = arrival rate x mean latency, each
  // holding one pending event (two while a hedge timer is armed).
  const double lat_ns = std::max(1.0, r.latency.mean());
  const auto depth = static_cast<std::size_t>(
      cfg.rate_rps * lat_ns / 1e9 * (hedging ? 2 : 1) + 2);
  out["sched.event_ns"] = event_ns(depth, static_cast<sim::Ns>(lat_ns));
  histogram_layers(lat_ns, r.latency.count(), cfg.hedge, out);

  net::Network fabric;
  for (const fault::FaultEvent& e : cfg.faults.events())
    if (e.kind == fault::FaultKind::kLinkSlow && !e.src.empty())
      fabric.set_link(e.src, e.dst, net::LinkState::kSlow, e.severity);
  std::vector<std::vector<std::string>> paths;
  for (int sh = 0; sh < fe.shards(); ++sh)
    for (const std::uint32_t rep : fe.slice(sh))
      paths.push_back({sched::ShardedFrontend::replica_host(rep),
                       sched::ShardedFrontend::shard_host(sh), "client"});
  out["net.path_state_ns"] = per_call_ns(31, 5000, [&](std::uint64_t i) {
    g_sink = g_sink + static_cast<std::uint64_t>(
                          fabric.path_state(paths[i % paths.size()]).second);
  });

  std::vector<double> member_us;
  for (int round = 0; round < 9; ++round) {
    sched::ShardedFrontend m(cfg.shard, cfg.replicas);
    const auto t0 = Clock::now();
    const int added = m.add_shard();
    m.remove_shard(static_cast<std::uint32_t>(added));
    const std::uint32_t rep = m.add_replica();
    m.remove_replica(rep);
    member_us.push_back(since_s(t0) * 1e6 / 4);
  }
  out["sched.membership_us"] = median(member_us);
  out["sched.replicas_moved"] = static_cast<double>(r.churn.replicas_moved);
  out["sched.handoff_forwarded"] =
      static_cast<double>(r.churn.handoff_forwarded);

  attest::svc::TicketTable tickets(300 * sim::kSec);
  for (std::uint64_t sub = 0; sub < 8; ++sub) tickets.mint(sub, 0);
  out["attest.ticket_resume_ns"] = per_call_ns(31, 20000, [&](std::uint64_t i) {
    g_sink = g_sink + tickets.resume(i % 8, static_cast<sim::Ns>(i));
  });
  const double resumes = static_cast<double>(r.hedging.ticket_resumes);
  const double verifies =
      resumes + static_cast<double>(r.hedging.full_verifies);
  out["attest.ticket_hit_ratio"] = verifies > 0 ? resumes / verifies : 0;
  out["fault.hedge_win_ratio"] =
      r.hedging.fired > 0 ? static_cast<double>(r.hedging.wins) /
                                static_cast<double>(r.hedging.fired)
                          : 0;
  out["fault.breaker_ns"] = breaker_ns();

  // Calls per simulated request, from the run's own result counters. Each
  // request routes once and crosses the client hop once; every dispatch
  // (primary, retry or hedge copy) counts enabled members, acquires and
  // releases a pool slot, checks its request and response paths, and
  // schedules a service and a response event; a primary dispatch also
  // reads the hedge threshold.
  const double per_req_dispatch = dispatches / offered;
  const double events =
      2 + 2 * per_req_dispatch + (hedging ? 1 : 0) +
      (static_cast<double>(r.retries) + r.hedging.cross) / offered;
  const double records = (hedging ? 2.0 : 1.0) * r.completed / offered;
  // With a fault plan every shard probes its slice each probe interval.
  const double probes =
      cfg.faults.empty() ? 0
                         : static_cast<double>(r.makespan_ns) /
                               static_cast<double>(cfg.probe_interval_ns) *
                               cfg.replicas / offered;
  const std::map<std::string, double> shares = {
      {"sched.route_share", out["sched.route_ns"] * 1},
      {"core.pool_acquire_share",
       out["core.pool_acquire_ns"] * per_req_dispatch},
      {"core.pool_enabled_count_share",
       out["core.pool_enabled_count_ns"] * per_req_dispatch},
      {"sched.event_share", out["sched.event_ns"] * events},
      {"metrics.hist_share", out["metrics.hist_record_ns"] * records},
      {"fault.hedge_share",
       out["fault.hedge_threshold_ns"] * (r.offered + r.retries) / offered},
      {"net.path_state_share",
       out["net.path_state_ns"] * (1 + 2 * per_req_dispatch)},
      {"sched.membership_share",
       out["sched.membership_us"] * 1e3 * churn_ops / offered},
      {"attest.ticket_share",
       out["attest.ticket_resume_ns"] * resumes / offered},
      {"fault.breaker_share", out["fault.breaker_ns"] * probes},
  };
  record_shares(shares, host_ns_per_req, out);
  out["host_ns_per_req"] = host_ns_per_req;
  out["sched.calibrate_ms"] = s.calibrate_s * 1e3;
}

// --- cluster_chaos (ClusterExperiment) --------------------------------------

constexpr int kClusterTrials = 8;

struct ClusterSetup {
  std::unique_ptr<core::ConfBench> system;
  std::vector<sched::ClusterExperiment::Trial> trials;
  double calibrate_s = 0;
};

/// Eight independent trials: TDX secure iostress at 0.6x capacity, one crash
/// and one brownout, hedged requests, outlier detection answered by live
/// migration. Each trial is resolved with prepare(); trials differ in their
/// fault victims and, per simulate call, in their seeds.
ClusterSetup setup_cluster() {
  ClusterSetup s;
  s.system = core::ConfBench::standard();
  sched::ClusterConfig base;
  base.function = "iostress";
  base.language = "go";
  base.platform = "tdx";
  base.secure = true;
  base.requests = kClusterTrialRequests;
  base.warmup_requests = base.requests / 20;
  base.queue = {.concurrency = 8, .queue_depth = 32};
  base.scaler = {.min_warm = 8, .max_replicas = 8, .tick_ns = 20 * sim::kMs};
  base.retry.max_attempts = 4;
  base.retry.budget_ns = 30 * sim::kSec;
  base.hedge.enabled = true;
  base.hedge.quantile = 0.9;
  base.hedge.budget_fraction = 0.25;
  base.outlier.enabled = true;
  base.degrade_response = sched::DegradeResponse::kMigrate;

  const auto t0 = Clock::now();
  const sched::ServiceModel model = sched::ServiceModel::calibrate(
      *s.system, base.function, base.language, base.platform, base.secure,
      base.calibration_probes);
  s.calibrate_s = since_s(t0);
  base.rate_rps =
      0.6 * sched::ClusterExperiment(base).fleet_capacity_rps(model);
  const sim::Ns expect_ns =
      static_cast<double>(base.requests) / base.rate_rps * sim::kSec;
  for (int j = 0; j < kClusterTrials; ++j) {
    sched::ClusterConfig cfg = base;
    const auto fleet = static_cast<std::uint32_t>(base.scaler.max_replicas);
    cfg.faults.crash(0.2 * expect_ns, static_cast<std::uint32_t>(j) % fleet);
    cfg.faults.brownout(0.4 * expect_ns, 0.3 * expect_ns,
                        static_cast<std::uint32_t>(j + 3) % fleet, 4.0);
    s.trials.push_back(sched::ClusterExperiment(cfg).prepare(*s.system));
  }
  return s;
}

std::vector<sched::ClusterExperiment::Trial> seeded_trials(
    const ClusterSetup& s, int entry) {
  std::vector<sched::ClusterExperiment::Trial> trials = s.trials;
  for (int j = 0; j < kClusterTrials; ++j)
    trials[j].cfg.seed = entry_seed(
        "cluster_chaos",
        static_cast<std::uint64_t>(entry * kClusterTrials + j));
  return trials;
}

Call simulate_cluster(const ClusterSetup& s, int entry, int threads,
                      std::vector<sched::ClusterResult>* keep) {
  const std::vector<sched::ClusterExperiment::Trial> trials =
      seeded_trials(s, entry);
  Call c;
  const auto t0 = Clock::now();
  std::vector<sched::ClusterResult> rs =
      sched::ClusterExperiment::run_trials(trials, threads);
  c.wall_s = since_s(t0);
  for (int j = 0; j < kClusterTrials; ++j) {
    c.offered += rs[j].offered;
    c.outputs.push_back({"cluster_chaos/" + std::to_string(entry) + "/" +
                             std::to_string(j),
                         digest(rs[j].to_json()), rs[j].accounted()});
  }
  if (keep) *keep = std::move(rs);
  return c;
}

void trace_cluster(const ClusterSetup& s, int entry, int threads,
                   const std::vector<sched::ClusterResult>& rs,
                   double host_ns_per_req, Layers& out) {
  // Parallel efficiency: each trial alone on one thread, against the batch
  // at the thread cap.
  const std::vector<sched::ClusterExperiment::Trial> trials =
      seeded_trials(s, entry);
  double serial_s = 0;
  for (const auto& t : trials) {
    const auto t0 = Clock::now();
    g_sink = g_sink + sched::ClusterExperiment::run_trials({t}, 1)[0].offered;
    serial_s += since_s(t0);
  }
  const auto t0 = Clock::now();
  g_sink =
      g_sink + sched::ClusterExperiment::run_trials(trials, threads).size();
  const double wall_s = since_s(t0);
  out["sim.parallel_efficiency"] = serial_s / (threads * wall_s);

  const sched::ClusterResult& r = rs.front();
  const sched::ClusterConfig& cfg = trials.front().cfg;
  const double offered = std::max<double>(1, r.offered);
  const double lat_ns = std::max(1.0, r.latency.mean());
  const auto depth = static_cast<std::size_t>(
      cfg.rate_rps * lat_ns / 1e9 * 2 + cfg.scaler.max_replicas + 2);
  out["sched.event_ns"] = event_ns(depth, static_cast<sim::Ns>(lat_ns));
  const auto fleet = static_cast<std::size_t>(cfg.scaler.max_replicas);
  out["core.pool_acquire_ns"] = pool_acquire_ns(fleet, fleet);
  histogram_layers(lat_ns, r.latency.count(), cfg.hedge, out);
  out["fault.breaker_ns"] = breaker_ns();
  out["fault.hedge_win_ratio"] =
      r.hedges > 0 ? static_cast<double>(r.hedge_wins) /
                         static_cast<double>(r.hedges)
                   : 0;
  out["sched.calibrate_ms"] = s.calibrate_s * 1e3;

  // Calls per simulated request from the trial's counters: an arrival, a
  // service and a response event per dispatch plus the hedge timer; each
  // dispatch acquires a slot and reads the hedge threshold; each completion
  // records latency, queue wait and the hedge observation; breakers run on
  // every probe tick for every replica.
  const double dispatches = (r.offered + r.retries + r.hedges) / offered;
  const double probes = static_cast<double>(r.makespan_ns) /
                        static_cast<double>(cfg.probe_interval_ns) *
                        cfg.scaler.max_replicas / offered;
  // run_trials spreads the trials over `threads` workers, so host time per
  // request on one worker is `threads` times the batch's wall per request.
  const double worker_ns_per_req = host_ns_per_req * threads;
  const std::map<std::string, double> shares = {
      {"sched.event_share", out["sched.event_ns"] * (1 + 3 * dispatches)},
      {"core.pool_acquire_share", out["core.pool_acquire_ns"] * dispatches},
      {"metrics.hist_share",
       out["metrics.hist_record_ns"] * 3 * r.completed / offered},
      {"fault.hedge_share", out["fault.hedge_threshold_ns"] * dispatches},
      {"fault.breaker_share", out["fault.breaker_ns"] * probes},
  };
  record_shares(shares, worker_ns_per_req, out);
  out["host_ns_per_req"] = host_ns_per_req;
}

// --- figures (ConfBench::measure over the paper grids) ----------------------

/// What every figure program does before its first cell: the standard
/// deployment plus one booted secure/normal VM pair per platform.
void setup_figures() {
  auto system = core::ConfBench::standard();
  for (const std::string& p : system->gateway().platforms()) {
    const bench::VmPair pair = bench::make_vm_pair(p);
    g_sink = g_sink + (pair.secure != nullptr);
  }
}

double cache_ns_per_line(std::uint64_t bytes) {
  sim::CacheSim cache;
  const sim::RangeAccess range{.base = 1 << 20, .bytes = bytes, .stride = 64};
  const double lines = static_cast<double>(bytes / 64);
  cache.access_range(range);  // warm
  return per_call_ns(31, 20, [&](std::uint64_t) {
           g_sink = g_sink + static_cast<std::uint64_t>(
                                 cache.access_range(range).l1_hits);
         }) /
         lines;
}

void trace_figures(Layers& out) {
  // The fig6 (TDX, SEV-SNP) and fig7 (CCA) grids at one trial: every cell
  // through ConfBench::measure (two Gateway::invoke calls and nothing else).
  // Each TDX cell's function then runs again by FunctionLauncher::launch in
  // the very VMs the gateway dispatched to, so the difference on those cells
  // is gateway + HTTP + host agent. One platform keeps the traced run well
  // inside its time budget.
  auto system = core::ConfBench::standard();
  const auto& workloads = wl::faas_workloads();
  const auto& profiles = rt::builtin_profiles();
  const std::vector<std::string> platforms = {"tdx", "sev-snp", "cca"};
  std::vector<vm::GuestVm*> tdx_vms;
  for (const core::TeeEndpoint& e : system->gateway().config().endpoints)
    if (e.tee == "tdx")
      for (const std::uint16_t port : {e.secure_port, e.normal_port})
        tdx_vms.push_back(system->host(e.host)->route(port));
  std::vector<double> measure_ms;
  double measure_s = 0, launched_measure_s = 0, launch_s = 0;
  double cache_refs = 0, launches = 0;
  std::map<wl::Category, double> launch_ms;
  for (const std::string& p : platforms)
    for (const wl::FaasWorkload& w : workloads)
      for (const rt::RuntimeProfile& prof : profiles) {
        const auto t0 = Clock::now();
        g_sink = g_sink +
                 system->measure(w.name, prof.name, p, 1).secure_ns.size();
        const double dt = since_s(t0);
        measure_ms.push_back(dt * 1e3);
        measure_s += dt;
        if (p != "tdx") continue;
        launched_measure_s += dt;
        const core::FunctionLauncher launcher(prof);
        for (vm::GuestVm* vm : tdx_vms) {
          const auto t1 = Clock::now();
          const core::LaunchResult lr = launcher.launch(*vm, w, 0);
          const double lt = since_s(t1);
          launch_s += lt;
          launch_ms[w.category] += lt * 1e3;
          cache_refs += lr.raw.cache_references;
          launches += 1;
        }
      }
  // Median and the highest percentile with at least ten cells beyond it.
  std::sort(measure_ms.begin(), measure_ms.end());
  const std::size_t n = measure_ms.size();
  out["core.measure_ms_p50"] = median(measure_ms);
  out["core.measure_ms_tail"] = measure_ms[n > 11 ? n - 11 : n - 1];
  out["core.measure_cells"] = static_cast<double>(n);
  out["core.measure_total_s"] = measure_s;
  out["core.gateway_share"] = 1 - launch_s / launched_measure_s;
  out["wl.cpu_launch_ms"] = launch_ms[wl::Category::kCpu];
  out["wl.memory_launch_ms"] = launch_ms[wl::Category::kMemory];
  out["wl.io_launch_ms"] = launch_ms[wl::Category::kIo];
  out["sim.cache_refs_per_launch"] = cache_refs / launches;

  // The two ROADMAP stage-2 cases: a range that stays in L1, and one larger
  // than L1 but within sample_limit that touches every set.
  const sim::CacheConfig geometry;
  out["sim.cache_l1_ns_per_line"] =
      cache_ns_per_line(geometry.l1.size_bytes / 2);
  out["sim.cache_stream_ns_per_line"] =
      cache_ns_per_line(std::uint64_t{geometry.sample_limit} * 64 / 2);
}

// --- output -----------------------------------------------------------------

void write_facts(metrics::JsonWriter& w, const Options& o) {
  w.key("facts").begin_object();
  w.key("nproc").value(static_cast<int>(std::thread::hardware_concurrency()));
  w.key("threads").value(o.threads);
  w.key("build_type").value(PERFBENCH_BUILD_TYPE);
  w.key("compiler").value(__VERSION__);
  w.end_object();
}

void write_calls(metrics::JsonWriter& w, const std::vector<Call>& calls) {
  w.key("calls").begin_array();
  for (const Call& c : calls) {
    w.begin_object();
    w.key("entry").value(c.entry);
    w.key("wall_s").value(c.wall_s);
    w.key("offered").value(c.offered);
    w.key("error").value(c.error);
    w.key("outputs").begin_array();
    for (const Output& o : c.outputs) {
      w.begin_object();
      w.key("key").value(o.key);
      w.key("digest").value(o.digest);
      w.key("accounted").value(o.accounted);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
}

/// A run stops calling early only past this many seconds, far beyond any
/// healthy run, so the driver ends inside run.py's time budget.
constexpr double kMaxCallingS = 120;

/// Runs a fixed number of simulate calls: `per_second` calls per second of
/// --seconds, rounded to whole rounds over the run's kRunEntries inputs, at
/// least one round. Calls go round-robin over the inputs, so each input's
/// calls are spread over the whole run. Every build is thus timed on the
/// same inputs and the same number of samples. on_round(r) runs before
/// round r. When recording, simulates every pool entry once instead. A call
/// that throws is recorded as failed.
template <typename Sim, typename OnRound>
std::vector<Call> simulate_loop(const Options& o, double per_second, Sim&& sim,
                                OnRound&& on_round) {
  const long rounds =
      std::max(1L, std::lround(o.seconds * per_second / kRunEntries));
  const int n = o.record ? kPoolEntries
                         : static_cast<int>(rounds * kRunEntries);
  const auto first = static_cast<int>(o.seed % kPoolEntries);
  std::vector<Call> calls;
  const auto t0 = Clock::now();
  for (int i = 0; i < n && since_s(t0) < kMaxCallingS; ++i) {
    const int entry =
        o.record ? i : (first + i % kRunEntries) % kPoolEntries;
    if (!o.record && i % kRunEntries == 0) on_round(i / kRunEntries);
    try {
      calls.push_back(sim(entry, i == 0));
    } catch (const std::exception& e) {
      calls.emplace_back();
      calls.back().error = e.what();
    }
    calls.back().entry = entry;
  }
  return calls;
}

double host_ns_per_req(const std::vector<Call>& calls) {
  std::vector<double> v;
  for (const Call& c : calls)
    if (c.offered > 0) v.push_back(c.wall_s * 1e9 / c.offered);
  return median(v);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") o.workload = next();
    else if (a == "--seed") o.seed = std::stoull(next());
    else if (a == "--seconds") o.seconds = std::stod(next());
    else if (a == "--trace") o.trace = next() == "1";
    else if (a == "--threads") o.threads = std::max(1, std::stoi(next()));
    else if (a == "--record") o.record = true;
    else throw std::invalid_argument("unknown argument " + a);
  }
  return o;
}

int run(const Options& o) {
  metrics::JsonWriter w;
  w.begin_object();
  write_facts(w, o);
  std::vector<double> setup_s;
  // Set-up is repeated and each repetition timed; run.py reports the
  // fastest. A set-up too short to time alone is timed as a batch. The
  // simulated workloads repeat theirs between rounds of calls, so set-up is
  // timed across the whole run, in the same conditions as the calls; the
  // previous set-up is freed first, so only one is ever held.
  const auto time_setup = [&](int reps, int batch, auto&& fn) {
    for (int k = 0; k < (o.record ? 1 : reps); ++k) {
      const auto t0 = Clock::now();
      for (int b = 0; b < batch; ++b) fn();
      setup_s.push_back(since_s(t0) / batch);
    }
  };
  Layers layers;
  std::vector<Call> calls;

  if (o.workload == "figures") {
    time_setup(41, 400, setup_figures);
    if (o.trace) trace_figures(layers);
  } else if (o.workload == "fabric_wide" || o.workload == "fabric_gray_churn") {
    FabricSetup s;
    time_setup(1, 1, [&] { s = setup_fabric(o.workload); });
    sched::ShardedResult first;
    const double per_second =
        o.workload == "fabric_wide" ? kWideCallsPerS : kGrayChurnCallsPerS;
    calls = simulate_loop(
        o, per_second,
        [&](int entry, bool is_first) {
          return simulate_fabric(o.workload, s, entry,
                                 is_first ? &first : nullptr);
        },
        [&](int) {
          for (int k = 0; k < 2; ++k) {
            s = {};
            time_setup(1, 1, [&] { s = setup_fabric(o.workload); });
          }
        });
    if (o.trace && first.offered > 0)
      trace_fabric(s, first, host_ns_per_req(calls), layers);
  } else if (o.workload == "cluster_chaos") {
    ClusterSetup s;
    time_setup(1, 1, [&] { s = setup_cluster(); });
    std::vector<sched::ClusterResult> first;
    calls = simulate_loop(
        o, kClusterCallsPerS,
        [&](int entry, bool is_first) {
          return simulate_cluster(s, entry, o.threads,
                                  is_first ? &first : nullptr);
        },
        [&](int round) {
          if (round % 4 != 0) return;
          s = {};
          time_setup(1, 1, [&] { s = setup_cluster(); });
        });
    if (o.trace && !first.empty())
      trace_cluster(s, static_cast<int>(o.seed % kPoolEntries), o.threads,
                    first, host_ns_per_req(calls), layers);
  } else {
    throw std::invalid_argument("unknown workload " + o.workload);
  }

  w.key("setup_s").begin_array();
  for (const double t : setup_s) w.value(t);
  w.end_array();
  write_calls(w, calls);
  w.key("layers").begin_object();
  for (const auto& [name, v] : layers) w.key(name).value(v);
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

/// Runs argv[0] with its arguments as a child process and writes its exit
/// code, wall seconds and peak RSS to `report`. A process's peak RSS counts
/// the peak of the process it was exec'd from, so run.py (a Python process
/// larger than several workloads) starts every measured program through
/// this small one. The child is killed if its launcher dies.
int spawn(const char* report, char** argv) {
  const auto t0 = Clock::now();
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) return 2;
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    execv(argv[0], argv);
    _exit(127);
  }
  int status = 0;
  rusage ru{};
  if (wait4(pid, &status, 0, &ru) < 0) return 2;
  const double wall_s = since_s(t0);
  const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                     : 128 + WTERMSIG(status);
  metrics::JsonWriter w;
  w.begin_object();
  w.key("exit").value(code);
  w.key("wall_s").value(wall_s);
  w.key("maxrss_kib").value(static_cast<std::int64_t>(ru.ru_maxrss));
  w.end_object();
  std::FILE* f = std::fopen(report, "w");
  if (f == nullptr) return 2;
  std::fprintf(f, "%s\n", w.str().c_str());
  return std::fclose(f) == 0 ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
#if !defined(__OPTIMIZE__)
  std::fprintf(stderr,
               "perfbench: refusing to time an unoptimized build (%s); "
               "rebuild with -DCMAKE_BUILD_TYPE=RelWithDebInfo or Release\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif
  if (argc >= 4 && std::string(argv[1]) == "--spawn")
    return spawn(argv[2], argv + 3);
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
}
