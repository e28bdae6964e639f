// RisGraph benchmark: runs one named workload, checks its results against
// an independent recompute, and prints one JSON result line.
//
//   perfbench --workload <stream_ingest|rpc_open_loop|road_unsafe>
//             --seed <n> --seconds <s> --trace <0|1> --run-dir <dir>
//   perfbench --self-test
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same workload
// with the benchmark's own spans and counters switched on and prints the
// per-layer metrics instead. See README.md for what each metric means.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "checker.h"
#include "clients.h"
#include "common/random.h"
#include "core/algorithm_api.h"
#include "ingest/epoch_pipeline.h"
#include "net/rpc_client.h"
#include "net/rpc_server.h"
#include "parallel/thread_pool.h"
#include "runtime/client.h"
#include "runtime/risgraph.h"
#include "stats.h"
#include "subscribe/publisher.h"
#include "subscribe/registry.h"
#include "wal/checkpoint.h"
#include "wal/recovery.h"
#include "workload/rmat.h"
#include "workload/road.h"
#include "workload/update_stream.h"

namespace perfbench {
namespace {

using namespace risgraph;

constexpr size_t kBfs = 0;
constexpr size_t kSssp = 1;
constexpr uint32_t kAlgos = 2;

// A run measures kInstances fresh systems one after another, --seconds
// split between them, and reports medians over them: latency on this kind
// of host settles at a level per system instance (thread placement, timer
// phase) that differs between instances by up to ~25%, so one instance per
// run would make every run a single draw of that level.
constexpr int kInstances = 4;
// Each instance's load starts a warm-up before its measured window; samples
// due in the warm-up are applied and checked but not reported. The first
// instance of a process warms up longer: in a fresh process the durability
// watermark has been seen to stall for up to ~1.1 s in the first second of
// load, and an open-loop client beside that load takes another second to
// work off the operations that fell due meanwhile.
constexpr int64_t kWarmupNs = 500'000'000;
constexpr int64_t kFirstWarmupNs = 3'000'000'000;
// Latency percentiles are taken per slice: each instance's measured samples
// are cut into up to kSlices equal consecutive slices, and the reported
// figure is the median over all slices of all instances, so neither one bad
// moment nor one bad instance decides it. A slice keeps at least ten
// samples beyond the percentile it reports.
constexpr size_t kSlices = 5;
// Saturating ingest rate is taken per kRateSliceNs slice of each measured
// window; an instance's rate is the median over its slices, so a stall of
// the host costs it a slice or two, not its whole figure.
constexpr int64_t kRateSliceNs = 500'000'000;

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t s = seed * 0x9e3779b97f4a7c15ULL + salt;
  return SplitMix64(s);
}

//===--- Inputs -----------------------------------------------------------===//

struct Inputs {
  uint64_t num_vertices = 0;
  VertexId root = 0;
  std::vector<Edge> preload;
  std::vector<Update> stream;
};

/// twitter_sim's shape at 2^16 vertices: R-MAT, 2^scale vertices, 35 edges
/// per vertex. Half is preloaded; the other half becomes an alternating
/// insert/delete stream.
Inputs PowerLawInputs(uint64_t seed, uint32_t scale) {
  RmatParams p;
  p.scale = scale;
  p.num_edges = 35ull << p.scale;
  p.max_weight = 64;
  p.seed = Mix(seed, 1);
  StreamOptions so;
  so.preload_fraction = 0.5;
  so.insert_fraction = 0.5;
  so.seed = Mix(seed, 2);
  StreamWorkload w =
      BuildStream(uint64_t{1} << p.scale, GenerateRmat(p), so);
  return Inputs{w.num_vertices, 0, std::move(w.preload), std::move(w.updates)};
}

/// usa_road's shape at sixteen times its default vertex count: a 512 x 512
/// grid with diagonal shortcuts. Edges are shuffled so every stretch of the
/// stream samples the whole grid; 80% is preloaded.
Inputs RoadInputs(uint64_t seed) {
  RoadParams p;
  p.side = 512;
  p.max_weight = 1024;
  p.seed = Mix(seed, 1);
  std::vector<Edge> edges = GenerateRoad(p);
  Rng rng(Mix(seed, 3));
  for (size_t i = edges.size(); i > 1; --i) {
    std::swap(edges[i - 1], edges[rng.NextBounded(i)]);
  }
  StreamOptions so;
  so.preload_fraction = 0.8;
  so.insert_fraction = 0.5;
  so.seed = Mix(seed, 2);
  StreamWorkload w =
      BuildStream(uint64_t{p.side} * p.side, std::move(edges), so);
  return Inputs{w.num_vertices, 0, std::move(w.preload), std::move(w.updates)};
}

//===--- Workload plans ---------------------------------------------------===//

struct ClientPlan {
  double rate_per_s;  // due slots per second
  std::vector<OpKind> pattern;
  int lane;  // -1: no writes
};

struct Plan {
  bool rpc = false;
  bool road = false;
  /// Key-hash shares (out of 1024) of the lanes. In-process plans put the
  /// pipelined writers first and the interactive client's lane last.
  std::vector<uint32_t> lane_shares;
  uint32_t pipelined = 0;  // in-process bulk writers, lanes [0, pipelined)
  size_t window = 0;
  std::vector<ClientPlan> clients;
  bool watch_all_sssp = false;
  /// R-MAT scale of the power-law graph (2^scale vertices).
  uint32_t rmat_scale = 16;
};

/// A durable write, `idle` empty slots that absorb its WaitDurable, then
/// `repeat` copies of `body`.
std::vector<OpKind> DurablePattern(int idle, int repeat,
                                   const std::vector<OpKind>& body) {
  std::vector<OpKind> p{OpKind::kDurableWrite};
  p.insert(p.end(), idle, OpKind::kIdle);
  for (int i = 0; i < repeat; ++i) p.insert(p.end(), body.begin(), body.end());
  return p;
}

Plan MakePlan(const std::string& name) {
  Plan p;
  const OpKind W = OpKind::kWrite;
  const OpKind R = OpKind::kRead;
  if (name == "stream_ingest") {
    // Saturating pipelined ingest of a mostly-safe stream: rings, packer,
    // safe apply, WAL group commit and fork-join do the work, beside the
    // rpc_open_loop clients. Left out of BENCHMARK.json: its throughput
    // and every latency taken beside or after the bulk load swung between
    // runs (README.md).
    p.rpc = true;
    p.lane_shares = {496, 496, 14, 14, 4};
    p.pipelined = 2;
    p.window = 256;
    p.clients = {{2000, {W}, 2},
                 {2000, {W}, 3},
                 {1000, DurablePattern(4, 35, {R}), 4}};
  } else if (name == "road_unsafe") {
    // The sequential unsafe lane on a high-diameter graph. Left out of
    // BENCHMARK.json: single updates stall the lane for up to ~1.7 s, so its
    // figures swing between seeds (README.md).
    p.road = true;
    p.lane_shares = {480, 480, 64};
    p.pipelined = 2;
    p.window = 4;
    p.clients = {{60, DurablePattern(0, 2, {W, W, W, R}), 2}};
    p.watch_all_sssp = true;
  } else if (name == "rpc_open_loop" || name == "rpc_large_graph") {
    // The client-visible latency path over the socket, well below
    // saturation (at 8K writes/s the tail already swings between runs):
    // two writers at 2000 blocking writes/s each, and a reader at 1000
    // slots/s that is also the low-rate durable writer (one durable write
    // with 5 ms to itself, then 35 historical reads). rpc_large_graph is the
    // same load on a graph twice as large.
    p.rpc = true;
    p.lane_shares = {508, 508, 8};
    p.clients = {{2000, {W}, 0},
                 {2000, {W}, 1},
                 {1000, DurablePattern(4, 35, {R}), 2}};
    if (name == "rpc_large_graph") p.rmat_scale = 17;
  } else {
    p.lane_shares.clear();
  }
  return p;
}

std::vector<Lane> SplitLanes(const std::vector<Update>& stream,
                             const std::vector<uint32_t>& shares) {
  std::vector<Lane> lanes(shares.size());
  for (const Update& u : stream) {
    uint64_t s = u.edge.src * 0x9e3779b97f4a7c15ULL ^ (u.edge.dst + 1) *
                 0xbf58476d1ce4e5b9ULL ^ u.edge.weight;
    uint32_t h = static_cast<uint32_t>(SplitMix64(s) % 1024);
    size_t l = 0;
    while (h >= shares[l]) h -= shares[l++];
    lanes[l].Push(u);
  }
  return lanes;
}

//===--- Result snapshots -------------------------------------------------===//

struct Snapshot {
  AlgoResult algo[kAlgos];
  uint64_t edges = 0;
};

Snapshot Take(RisGraph<>& sys) {
  Snapshot s;
  const char* names[kAlgos] = {"BFS", "SSSP"};
  uint64_t n = sys.store().NumVertices();
  for (uint32_t a = 0; a < kAlgos; ++a) {
    AlgoResult& r = s.algo[a];
    r.name = names[a];
    r.value.resize(n);
    r.parent.resize(n);
    r.parent_weight.resize(n);
    for (VertexId v = 0; v < n; ++v) {
      r.value[v] = sys.GetValue(a, v);
      ParentEdge pe = sys.algorithm(a).Parent(v);
      r.parent[v] = pe.parent;
      r.parent_weight[v] = pe.weight;
    }
  }
  s.edges = sys.store().NumEdges();
  return s;
}

/// "" when both snapshots hold the same values and edge count.
std::string SameResults(const Snapshot& want, const Snapshot& got,
                        const std::string& what) {
  if (want.edges != got.edges) {
    return what + ": " + std::to_string(got.edges) + " edges, live run has " +
           std::to_string(want.edges);
  }
  for (uint32_t a = 0; a < kAlgos; ++a) {
    if (want.algo[a].value != got.algo[a].value) {
      return what + ": " + want.algo[a].name + " values differ from the live run";
    }
  }
  return "";
}

void AddAlgorithms(RisGraph<>& sys, VertexId root) {
  sys.AddAlgorithm<Bfs>(root);
  sys.AddAlgorithm<Sssp>(root);
}

//===--- Checker self-test ------------------------------------------------===//

/// Feeds the checker a correct result, then the same result with one value
/// changed and with one parent edge changed; only the first may pass.
bool CheckerSelfTest(std::string* why) {
  RmatParams p;
  p.scale = 10;
  p.num_edges = 8ull << p.scale;
  p.seed = 7;
  StreamOptions so;
  so.preload_fraction = 0.5;
  StreamWorkload w = BuildStream(uint64_t{1} << p.scale, GenerateRmat(p), so);
  RisGraphOptions opt;
  opt.keep_history = false;
  RisGraph<> sys(w.num_vertices, opt);
  AddAlgorithms(sys, 0);
  sys.LoadGraph(w.preload);
  sys.InitializeResults();
  EdgeMultiset edges(w.num_vertices);
  for (const Edge& e : w.preload) edges.Add(e);
  for (const Update& u : w.updates) {
    if (u.kind == UpdateKind::kInsertEdge) {
      sys.InsEdge(u.edge.src, u.edge.dst, u.edge.weight);
    } else {
      sys.DelEdge(u.edge.src, u.edge.dst, u.edge.weight);
    }
    if (!edges.Apply(u)) {
      *why = "self-test stream deletes an absent edge";
      return false;
    }
  }
  Snapshot s = Take(sys);
  std::string err = CheckResults(s.algo[kBfs], s.algo[kSssp], edges, 0);
  if (!err.empty()) {
    *why = "checker rejects a correct result: " + err;
    return false;
  }
  VertexId victim = 0;
  for (VertexId v = 1; v < w.num_vertices; ++v) {
    if (s.algo[kSssp].value[v] != kUnreached) {
      victim = v;
      break;
    }
  }
  if (victim == 0) {
    *why = "self-test graph reaches nothing from the root";
    return false;
  }
  Snapshot bad = s;
  bad.algo[kSssp].value[victim] += 1;
  if (CheckResults(bad.algo[kBfs], bad.algo[kSssp], edges, 0).empty()) {
    *why = "checker accepts a result with one value changed";
    return false;
  }
  bad = s;
  bad.algo[kBfs].parent_weight[victim] += 1000;
  if (CheckResults(bad.algo[kBfs], bad.algo[kSssp], edges, 0).empty()) {
    *why = "checker accepts a result with one parent edge changed";
    return false;
  }
  return true;
}

//===--- One run ----------------------------------------------------------===//

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string run_dir = ".";
  bool self_test = false;
};

struct Outcome {
  bool correct = true;
  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics metrics;

  void Require(const std::string& err) {
    if (err.empty()) return;
    correct = false;
    errors.push_back(err);
  }
};

/// The single-writer replay: the same lane prefixes applied one update at a
/// time on a second system, in epochs of kReplayBatch with a coupled WAL,
/// timing each layer call when traced.
struct ReplayTimes {
  double classify_ns = 0;
  double apply_safe_ns = 0;
  std::vector<double> unsafe_us;
  double modified_per_unsafe = 0;
  std::vector<double> append_batch_us;
  std::vector<double> flush_us;
};

Snapshot Replay(const Inputs& in, const std::vector<Lane>& lanes,
                const std::vector<uint64_t>& applied, const std::string& wal,
                uint64_t history_window, bool trace, ReplayTimes* t) {
  constexpr size_t kReplayBatch = 512;
  RisGraphOptions opt;
  opt.wal_path = wal;
  RisGraph<> sys(in.num_vertices, opt);
  AddAlgorithms(sys, in.root);
  sys.LoadGraph(in.preload);
  sys.InitializeResults();
  std::vector<Update> batch;
  uint64_t safe = 0, unsafe = 0, modified = 0;
  int64_t classify_ns = 0, safe_ns = 0;
  auto run_batch = [&] {
    int64_t t0 = NowNs();
    sys.WalAppendBatch(batch);
    if (trace) t->append_batch_us.push_back((NowNs() - t0) / 1e3);
    for (const Update& u : batch) {
      int64_t c0 = trace ? NowNs() : 0;
      bool is_safe = sys.IsUpdateSafe(u);
      int64_t c1 = trace ? NowNs() : 0;
      classify_ns += c1 - c0;
      if (is_safe) {
        sys.ApplySafeToStore(u);
        if (trace) safe_ns += NowNs() - c1;
        safe++;
      } else {
        sys.ApplyUnsafe(u);
        if (trace) t->unsafe_us.push_back((NowNs() - c1) / 1e3);
        for (uint32_t a = 0; a < kAlgos; ++a) {
          modified += sys.algorithm(a).LastModified().size();
        }
        unsafe++;
      }
    }
    t0 = NowNs();
    sys.WalFlush();
    if (trace) t->flush_us.push_back((NowNs() - t0) / 1e3);
    VersionId cur = sys.GetCurrentVersion();
    if (cur > history_window) sys.ReleaseHistory(cur - history_window);
    batch.clear();
  };
  for (size_t l = 0; l < lanes.size(); ++l) {
    for (uint64_t i = 0; i < applied[l]; ++i) {
      batch.push_back(lanes[l].Op(i));
      if (batch.size() == kReplayBatch) run_batch();
    }
  }
  if (!batch.empty()) run_batch();
  if (safe > 0) t->apply_safe_ns = static_cast<double>(safe_ns) / safe;
  if (safe + unsafe > 0) {
    t->classify_ns = static_cast<double>(classify_ns) / (safe + unsafe);
  }
  if (unsafe > 0) t->modified_per_unsafe = static_cast<double>(modified) / unsafe;
  return Take(sys);
}

/// A run's inputs, shared by its instances.
struct Shared {
  Inputs in;
  std::vector<Lane> lanes;
  /// Vertices the interactive clients' writes can target in one instance.
  std::vector<uint8_t> write_target;
  /// Vertices the subscriber watches by id: the write targets plus a seeded
  /// random sample.
  std::vector<VertexId> watched;
};

/// A pipelined writer's submitted count at `t`, interpolated between its
/// progress samples.
double ProgressAt(const std::vector<std::pair<int64_t, uint64_t>>& p,
                  int64_t t) {
  if (p.empty()) return 0;
  auto it = std::lower_bound(
      p.begin(), p.end(), t,
      [](const std::pair<int64_t, uint64_t>& x, int64_t v) {
        return x.first < v;
      });
  if (it == p.begin()) return static_cast<double>(p.front().second);
  if (it == p.end()) return static_cast<double>(p.back().second);
  const auto& lo = *(it - 1);
  const auto& hi = *it;
  return lo.second + static_cast<double>(hi.second - lo.second) *
                         static_cast<double>(t - lo.first) /
                         static_cast<double>(hi.first - lo.first);
}

/// One system instance's run: its checks, counts and raw measurements.
struct Instance : Outcome {
  double setup_s = 0;
  double peak_rss_mb = 0;
  double updates_per_s = 0;
  int64_t warm_ns = 0;  // start of the measured window
  std::vector<Sample> exec, durable, notify, read;
};

/// Builds a fresh system from the preload, runs the plan's load against it
/// for `warmup_ns` plus `seconds`, checks it, and tears it down. WAL recovery
/// and the single-writer replay, the slow checks, run only with
/// `full_checks`; the per-layer figures they time are NaN otherwise.
Instance RunInstance(const Args& args, const Plan& plan, const Shared& sh,
                     double seconds, int64_t warmup_ns, bool full_checks) {
  Instance out;
  const Inputs& in = sh.in;
  const std::vector<Lane>& lanes = sh.lanes;
  const std::vector<uint8_t>& write_target = sh.write_target;
  const std::vector<VertexId>& watched = sh.watched;
  const uint64_t seed = args.seed;
  const std::string wal_path = args.run_dir + "/live.wal";
  const std::string ckpt_path = args.run_dir + "/live.ckpt";
  const std::string sock_path = args.run_dir + "/s.sock";
  const std::string replay_wal = args.run_dir + "/replay.wal";

  //===--- Set-up (timed) -------------------------------------------------===//
  const int64_t setup_t0 = NowNs();
  RisGraphOptions ropt;
  ropt.wal_path = wal_path;
  auto sys = std::make_unique<RisGraph<>>(in.num_vertices, ropt);
  AddAlgorithms(*sys, in.root);
  sys->LoadGraph(in.preload);
  sys->InitializeResults();
  // The preload bypasses the log, so a checkpoint of it anchors recovery.
  if (!WriteCheckpoint(sys->store(), 0, ckpt_path)) {
    out.Require("writing the preload checkpoint failed");
    return out;
  }
  auto registry = std::make_unique<SubscriptionRegistry>();
  auto publisher = std::make_unique<ChangePublisher>(*registry);
  ServiceOptions so;
  so.async_durability = true;
  so.record_epoch_stats = args.trace;
  auto pipe = std::make_unique<EpochPipeline<>>(*sys, so);
  pipe->AttachPublisher(publisher.get());

  std::unique_ptr<RpcServer> server;
  std::vector<std::unique_ptr<IClient>> writers;   // pipelined, in-process
  std::vector<std::unique_ptr<IClient>> interactive;
  std::unique_ptr<IClient> subscriber;
  uint64_t rpc_overhead_requests = 0;  // subscribe/flush/ping frames
  SessionClient<>::Options wopt;
  wopt.window = plan.window;
  for (uint32_t i = 0; i < plan.pipelined; ++i) {
    writers.push_back(std::make_unique<SessionClient<>>(*sys, *pipe, wopt));
  }
  if (plan.rpc) {
    server = std::make_unique<RpcServer>(*sys, *pipe, sock_path);
    if (!server->Start(static_cast<int>(plan.clients.size()) + 1)) {
      out.Require("RPC server failed to start on " + sock_path);
      return out;
    }
  } else {
    for (size_t i = 0; i < plan.clients.size(); ++i) {
      interactive.push_back(std::make_unique<SessionClient<>>(*sys, *pipe));
    }
    subscriber = std::make_unique<SessionClient<>>(*sys, *pipe);
  }
  // Initial values, for watched vertices that are never notified. Read
  // before the pipeline starts; excluded from the set-up time.
  int64_t snap_t0 = NowNs();
  Snapshot initial;
  for (uint32_t a = 0; a < kAlgos; ++a) {
    initial.algo[a].value.resize(in.num_vertices);
    for (VertexId v = 0; v < in.num_vertices; ++v) {
      initial.algo[a].value[v] = sys->GetValue(a, v);
    }
  }
  int64_t snap_ns = NowNs() - snap_t0;
  pipe->Start();
  if (plan.rpc) {
    auto connect = [&]() -> std::unique_ptr<IClient> {
      auto c = std::make_unique<RpcClient>();
      if (!c->Connect(sock_path)) return nullptr;
      return c;
    };
    for (size_t i = 0; i < plan.clients.size(); ++i) {
      interactive.push_back(connect());
      if (interactive.back() == nullptr) out.Require("RPC connect failed");
    }
    subscriber = connect();
    if (subscriber == nullptr) out.Require("RPC connect failed");
    if (!out.correct) {
      interactive.clear();
      subscriber.reset();
      server->Stop();
      pipe->Stop();
      return out;
    }
  }
  constexpr size_t kWatchChunk = 512;
  for (uint32_t a = 0; a < kAlgos; ++a) {
    for (size_t i = 0; i < watched.size(); i += kWatchChunk) {
      std::vector<VertexId> part(
          watched.begin() + i,
          watched.begin() + std::min(watched.size(), i + kWatchChunk));
      if (subscriber->Subscribe(
              SubscriptionFilter::WatchVertices(a, std::move(part))) == 0) {
        out.Require("vertex-watch subscription refused");
      }
      rpc_overhead_requests++;
    }
  }
  if (plan.watch_all_sssp) {
    if (subscriber->Subscribe(SubscriptionFilter::WatchAll(kSssp)) == 0) {
      out.Require("watch-all subscription refused");
    }
    rpc_overhead_requests++;
  }
  const double setup_s = (NowNs() - setup_t0 - snap_ns) / 1e9;

  //===--- Measured phase -------------------------------------------------===//
  SubscriberState subs(in.num_vertices, kAlgos);
  subs.traced = write_target;
  std::atomic<bool> stop_subscriber{false};
  std::thread sub_thread(
      [&] { RunSubscriber(*subscriber, stop_subscriber, &subs); });

  const int64_t start_ns = NowNs() + 2'000'000;
  const int64_t warm_ns = start_ns + warmup_ns;
  const int64_t deadline_ns = warm_ns + static_cast<int64_t>(seconds * 1e9);
  std::vector<PipelinedResult> piped(writers.size());
  std::vector<OpenLoopResult> loops(interactive.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < loops.size(); ++i) {
    const ClientPlan& c = plan.clients[i];
    OpenLoopSpec spec;
    spec.rate_per_s = c.rate_per_s;
    spec.pattern = c.pattern;
    spec.lane = c.lane >= 0 ? &lanes[c.lane] : nullptr;
    spec.num_vertices = in.num_vertices;
    spec.history_window = so.history_window;
    spec.seed = Mix(seed, 10 + i);
    spec.trace = args.trace;
    threads.emplace_back([&, i, spec] {
      // Only the paced threads need precise wake-ups; the bulk writers and
      // the subscriber keep the default timer slack, like any client's.
      UsePreciseSleeps();
      RunOpenLoop(*interactive[i], spec, start_ns, warm_ns, deadline_ns,
                  &loops[i]);
    });
  }
  for (size_t i = 0; i < piped.size(); ++i) {
    threads.emplace_back([&, i] {
      WaitUntil(start_ns);
      RunPipelined(*writers[i], lanes[i], warm_ns, deadline_ns, args.trace,
                   &piped[i]);
    });
  }
  for (auto& t : threads) t.join();
  const double peak_rss_mb = PeakRssMb();

  // Quiesce: everything acked is made durable, every staged change is
  // matched, and the subscriber has drained its queue.
  IClient& any = *interactive.front();
  if (!any.WaitDurable(0, 10'000'000)) out.Require("final WaitDurable failed");
  rpc_overhead_requests++;
  double flush_wait_ms = 0;
  for (const PipelinedResult& r : piped) {
    flush_wait_ms = std::max(flush_wait_ms, r.flush_ms);
  }
  if (plan.rpc) {
    int64_t f0 = NowNs();
    if (!any.Flush().ok) out.Require("final Flush failed");
    if (piped.empty()) flush_wait_ms = (NowNs() - f0) / 1e6;
    rpc_overhead_requests++;
  }
  publisher->WaitIdle();
  stop_subscriber.store(true, std::memory_order_release);
  sub_thread.join();
  DrainSubscriber(*subscriber, plan.rpc ? 200'000 : 20'000, &subs);

  // Idle-connection round trips (in-process: the call itself).
  std::vector<double> ping_us;
  if (args.trace) {
    for (int i = 0; i < 2000; ++i) {
      int64_t p0 = NowNs();
      if (!subscriber->Ping()) out.Require("Ping failed");
      ping_us.push_back((NowNs() - p0) / 1e3);
    }
    rpc_overhead_requests += 2000;
  }

  //===--- Accounting -----------------------------------------------------===//
  std::vector<uint64_t> applied(lanes.size(), 0);
  uint64_t acked_sequencer_ops = 0;
  uint64_t client_requests = rpc_overhead_requests;
  uint64_t writes_acked = 0;
  uint64_t writes_in_warmup = 0;
  int64_t last_ns = 0;
  int64_t submit_ns = 0;
  double max_late_us = 0;
  std::vector<Sample> exec, durable, read;
  uint64_t rereads = 0, reread_mismatches = 0;
  for (size_t i = 0; i < piped.size(); ++i) {
    const PipelinedResult& r = piped[i];
    applied[i] = r.applied;
    acked_sequencer_ops += r.applied;
    writes_acked += r.applied;
    out.attempted += r.applied + r.failed;
    out.failed += r.failed;
    writes_in_warmup += r.submitted_at_warm;
    last_ns = std::max(last_ns, r.last_ack_ns);
    submit_ns += r.submit_ns;
  }
  for (size_t i = 0; i < loops.size(); ++i) {
    const OpenLoopResult& r = loops[i];
    if (plan.clients[i].lane >= 0) {
      applied[plan.clients[i].lane] = r.writes_applied;
      writes_acked += r.writes_applied;
      for (const WriteRecord& w : r.writes) {
        writes_in_warmup += w.due_ns < warm_ns;
      }
      last_ns = std::max(last_ns, r.last_ack_ns);
    }
    acked_sequencer_ops += r.sequencer_ops;
    client_requests += r.requests;
    out.attempted += r.attempted;
    out.failed += r.failed;
    if (piped.empty()) submit_ns += r.submit_ns;
    max_late_us = std::max(max_late_us, r.max_late_us);
    exec.insert(exec.end(), r.exec.begin(), r.exec.end());
    durable.insert(durable.end(), r.durable.begin(), r.durable.end());
    read.insert(read.end(), r.read.begin(), r.read.end());
    rereads += r.rereads;
    reread_mismatches += r.reread_mismatches;
  }
  // Pipelined plans: the median over the kRateSliceNs slices of the
  // writers' window of the updates acked in the slice, interactive writes
  // counted at their ack. Otherwise: updates acked in the measured window
  // over its length, from its start to the last ack.
  std::vector<double> slice_rates;
  if (!piped.empty()) {
    for (int64_t a = warm_ns; a + kRateSliceNs <= deadline_ns;
         a += kRateSliceNs) {
      const int64_t b = a + kRateSliceNs;
      double n = 0;
      for (const PipelinedResult& r : piped) {
        n += ProgressAt(r.progress, b) - ProgressAt(r.progress, a);
      }
      for (const OpenLoopResult& r : loops) {
        for (const WriteRecord& w : r.writes) {
          n += w.ack_ns >= a && w.ack_ns < b;
        }
      }
      slice_rates.push_back(n / (kRateSliceNs / 1e9));
    }
  }
  const double updates_per_s =
      !slice_rates.empty()
          ? Percentile(slice_rates, 0.5)
          : (writes_acked - writes_in_warmup) /
                (static_cast<double>(last_ns - warm_ns) / 1e9);

  // Notification latency: from the due time of the write whose returned
  // version the notification carries, for the write's target vertex. A
  // (version, vertex) pair maps to the earliest such write; the first
  // arrival per (algorithm, version, vertex) counts.
  std::map<std::pair<VersionId, VertexId>, int64_t> write_due;
  for (const OpenLoopResult& r : loops) {
    for (const WriteRecord& w : r.writes) {
      auto [it, fresh] = write_due.try_emplace({w.version, w.dst}, w.due_ns);
      if (!fresh) it->second = std::min(it->second, w.due_ns);
    }
  }
  std::vector<Sample> notify;
  {
    std::map<std::tuple<uint64_t, VersionId, VertexId>, int64_t> first;
    for (const Arrival& a : subs.arrivals) {
      auto [it, fresh] =
          first.try_emplace({a.algo, a.version, a.vertex}, a.arrival_ns);
      if (!fresh) it->second = std::min(it->second, a.arrival_ns);
    }
    for (const auto& [key, arrival] : first) {
      auto w = write_due.find({std::get<1>(key), std::get<2>(key)});
      if (w != write_due.end() && arrival >= w->second) {
        notify.push_back({w->second, (arrival - w->second) / 1e3});
      }
    }
  }

  // Counters the program exposes, read while it is quiescent.
  const uint64_t safe_ops = pipe->safe_ops();
  const uint64_t unsafe_ops = pipe->unsafe_ops();
  const uint64_t completed_ops = pipe->completed_ops();
  const uint64_t epochs = pipe->epoch_stats().size();
  uint64_t epoch_updates = 0;
  for (const EpochStat& e : pipe->epoch_stats()) {
    epoch_updates += e.safe_ops + e.unsafe_ops;
  }
  const uint64_t requests_served =
      plan.rpc ? server->requests_served() : completed_ops;
  const double match_us_per_batch =
      publisher->matched_batches() == 0
          ? 0
          : publisher->match_timer().TotalNanos() / 1e3 /
                publisher->matched_batches();
  const uint64_t delivered = registry->delivered();
  const uint64_t coalesced = registry->coalesced();

  out.Require(safe_ops + unsafe_ops == acked_sequencer_ops
                  ? ""
                  : "pipeline counted " + std::to_string(safe_ops) + " safe + " +
                        std::to_string(unsafe_ops) +
                        " unsafe ops, clients had " +
                        std::to_string(acked_sequencer_ops) + " acked");
  if (plan.rpc && requests_served != client_requests) {
    out.Require("server served " + std::to_string(requests_served) +
                " requests, clients sent " + std::to_string(client_requests));
  }
  if (rereads == 0) out.Require("no historical read pair was re-read");
  if (reread_mismatches != 0) {
    out.Require(std::to_string(reread_mismatches) +
                " historical re-reads disagreed with the first read");
  }

  // Tear down the live system: clients, then server, then pipeline.
  interactive.clear();
  writers.clear();
  subscriber.reset();
  if (server) server->Stop();
  pipe->Stop();
  pipe->AttachPublisher(nullptr);
  publisher->Stop();

  const WalFlushStats wal_stats = sys->wal().stats();
  double store_mb = sys->store().MemoryBytes() / 1048576.0;
  double history_mb = 0;
  for (uint32_t a = 0; a < kAlgos; ++a) {
    history_mb += sys->algorithm(a).HistoryMemoryBytes() / 1048576.0;
  }
  double history_read_us = 0;
  if (args.trace) {
    VersionId cur = sys->GetCurrentVersion();
    VersionId lo = cur > so.history_window ? cur - so.history_window : 0;
    Rng rng(Mix(seed, 5));
    constexpr int kReads = 20000;
    uint64_t sum = 0;
    int64_t h0 = NowNs();
    for (int i = 0; i < kReads; ++i) {
      VersionId ver = lo + rng.NextBounded(cur - lo + 1);
      sum += sys->GetValue(i % kAlgos, ver, rng.NextBounded(in.num_vertices));
    }
    history_read_us = (NowNs() - h0) / 1e3 / kReads;
    static volatile uint64_t sink;
    sink = sum;
  }

  Snapshot live = Take(*sys);

  // The last notified value of every watched vertex must be its final value.
  uint64_t notify_mismatch = 0;
  for (uint32_t a = 0; a < kAlgos; ++a) {
    auto check = [&](VertexId v) {
      uint64_t got = subs.last_version[a][v] != 0 ? subs.last_value[a][v]
                                                  : initial.algo[a].value[v];
      if (got != live.algo[a].value[v]) notify_mismatch++;
    };
    if (a == kSssp && plan.watch_all_sssp) {
      for (VertexId v = 0; v < in.num_vertices; ++v) check(v);
    } else {
      for (VertexId v : watched) check(v);
    }
  }
  if (notify_mismatch != 0) {
    out.Require(std::to_string(notify_mismatch) +
                " watched vertices' last notification differs from the final "
                "value");
  }
  pipe.reset();
  publisher.reset();
  registry.reset();
  sys.reset();

  //===--- Independent checks ---------------------------------------------===//
  const int64_t checks_t0 = NowNs();
  EdgeMultiset edges(in.num_vertices);
  for (const Edge& e : in.preload) edges.Add(e);
  bool stream_ok = true;
  for (size_t l = 0; l < lanes.size() && stream_ok; ++l) {
    for (uint64_t i = 0; i < applied[l] && stream_ok; ++i) {
      stream_ok = edges.Apply(lanes[l].Op(i));
    }
  }
  if (!stream_ok) {
    out.Require("the benchmark's own stream deletes an absent edge");
  } else {
    out.Require(CheckResults(live.algo[kBfs], live.algo[kSssp], edges, in.root));
    if (live.edges != edges.size()) {
      out.Require("store holds " + std::to_string(live.edges) +
                  " edges, the benchmark's multiset " +
                  std::to_string(edges.size()));
    }
  }

  const double kNone = std::nan("");
  double recover_s = kNone;
  ReplayTimes rt{kNone, kNone, {}, kNone, {}, {}};
  if (full_checks) {
    RisGraphOptions opt;
    opt.keep_history = false;
    RisGraph<> rec(in.num_vertices, opt);
    AddAlgorithms(rec, in.root);
    int64_t r0 = NowNs();
    RecoveryResult rr = RecoverRisGraph(rec, ckpt_path, wal_path);
    rec.InitializeResults();
    recover_s = (NowNs() - r0) / 1e9;
    if (!rr.checkpoint_loaded) out.Require("recovery did not load the checkpoint");
    if (rr.dropped_records != 0) out.Require("recovery dropped log records");
    out.Require(SameResults(live, Take(rec), "WAL recovery"));
  }
  // Drop the logs at once: a deleted file's dirty pages are never written
  // back, so the disk stays quiet for the next instance.
  std::remove(wal_path.c_str());
  std::remove(ckpt_path.c_str());

  if (full_checks) {
    rt = ReplayTimes{};
    out.Require(SameResults(live,
                            Replay(in, lanes, applied, replay_wal,
                                   so.history_window, args.trace, &rt),
                            "single-writer replay"));
    std::remove(replay_wal.c_str());
  }

  double fork_join_us = 0;
  if (args.trace) {
    ThreadPool& pool = ThreadPool::Global();
    std::vector<double> fj;
    for (int i = 0; i < 5000; ++i) {
      int64_t f0 = NowNs();
      pool.ParallelFor(pool.num_threads(), 1,
                       [](size_t, uint64_t, uint64_t) {});
      fj.push_back((NowNs() - f0) / 1e3);
    }
    fork_join_us = Percentile(fj, 0.5);
  }

  //===--- Report ---------------------------------------------------------===//
  const std::vector<double> exec_us = Since(exec, warm_ns);
  const std::vector<double> notify_us = Since(notify, warm_ns);
  const std::vector<double> read_us = Since(read, warm_ns);
  std::printf(
      "# %s seed=%llu trace=%d: writes=%llu (%.0f/s) unsafe_share=%.4f "
      "exec_ack n=%zu p50=%.1fus p99=%.1fus p999=%.1fus durable n=%zu notify "
      "n=%zu p50=%.1fus p99=%.1fus hist_read n=%zu p99=%.1fus rereads=%llu "
      "notifications=%llu gen_max_late=%.1fus; setup %.2fs, checks %.2fs\n",
      args.workload.c_str(), (unsigned long long)seed, args.trace ? 1 : 0,
      (unsigned long long)writes_acked, updates_per_s,
      completed_ops ? static_cast<double>(unsafe_ops) / completed_ops : 0.0,
      exec_us.size(), Percentile(exec_us, 0.5), Percentile(exec_us, 0.99),
      Percentile(exec_us, 0.999), Since(durable, warm_ns).size(),
      notify_us.size(), Percentile(notify_us, 0.5),
      Percentile(notify_us, 0.99), read_us.size(), Percentile(read_us, 0.99),
      (unsigned long long)rereads, (unsigned long long)subs.received,
      max_late_us, setup_s, (NowNs() - checks_t0) / 1e9);
  for (const std::string& e : out.errors) std::printf("# CHECK FAILED: %s\n", e.c_str());

  out.setup_s = setup_s;
  out.peak_rss_mb = peak_rss_mb;
  out.updates_per_s = updates_per_s;
  out.warm_ns = warm_ns;
  out.exec = std::move(exec);
  out.durable = std::move(durable);
  out.notify = std::move(notify);
  out.read = std::move(read);
  Metrics& m = out.metrics;
  if (args.trace) {
    uint64_t submits = 0;
    for (const PipelinedResult& r : piped) submits += r.applied;
    if (piped.empty()) submits = writes_acked;
    m.Set("parallel.fork_join_us", fork_join_us, "us");
    m.Set("ingest.submit_block_us",
          submits ? submit_ns / 1e3 / submits : 0.0, "us");
    m.Set("ingest.epochs", static_cast<double>(epochs), "count");
    m.Set("ingest.updates_per_epoch",
          epochs ? static_cast<double>(epoch_updates) / epochs : 0.0,
          "updates");
    m.Set("ingest.unsafe_share",
          completed_ops ? static_cast<double>(unsafe_ops) / completed_ops : 0.0,
          "ratio");
    m.Set("ingest.flush_wait_ms", flush_wait_ms, "ms");
    m.Set("cc.classify_ns", rt.classify_ns, "ns");
    m.Set("engine.unsafe_us_p50",
          full_checks ? Percentile(rt.unsafe_us, 0.5) : kNone, "us");
    m.Set("engine.unsafe_us_p99",
          full_checks ? Percentile(rt.unsafe_us, 0.99) : kNone, "us");
    m.Set("engine.modified_per_unsafe", rt.modified_per_unsafe, "vertices");
    m.Set("store.apply_safe_ns", rt.apply_safe_ns, "ns");
    m.Set("store.mb", store_mb, "MB");
    m.Set("history.mb", history_mb, "MB");
    m.Set("history.read_us", history_read_us, "us");
    m.Set("wal.append_batch_us",
          full_checks ? Mean(rt.append_batch_us) : kNone, "us");
    m.Set("wal.flush_us", full_checks ? Mean(rt.flush_us) : kNone, "us");
    m.Set("wal.bytes_per_update",
          writes_acked ? static_cast<double>(wal_stats.flushed_bytes) /
                             writes_acked
                       : 0.0,
          "B/update");
    m.Set("wal.recover_s", recover_s, "s");
    m.Set("subscribe.match_us_per_batch", match_us_per_batch, "us");
    m.Set("subscribe.delivered", static_cast<double>(delivered), "count");
    m.Set("subscribe.coalesced", static_cast<double>(coalesced), "count");
    m.Set("net.ping_rtt_us", Percentile(ping_us, 0.5), "us");
    m.Set("net.requests_served", static_cast<double>(requests_served), "count");
    m.Set("gen.max_late_us", max_late_us, "us");
  }
  return out;
}

/// Median over every slice of every instance of the slice's q-quantile.
double SliceMedian(const std::vector<Instance>& runs,
                   std::vector<Sample> Instance::*field, double q) {
  const size_t min_slice = static_cast<size_t>(std::ceil(10 / (1 - q)));
  std::vector<double> per_slice;
  for (const Instance& r : runs) {
    std::vector<double> v = Since(r.*field, r.warm_ns);
    if (v.empty()) continue;
    size_t slices = std::clamp<size_t>(v.size() / min_slice, 1, kSlices);
    for (size_t i = 0; i < slices; ++i) {
      per_slice.push_back(
          Percentile(std::vector<double>(v.begin() + i * v.size() / slices,
                                         v.begin() + (i + 1) * v.size() / slices),
                     q));
    }
  }
  return Percentile(per_slice, 0.5);
}

Outcome RunWorkload(const Args& args) {
  Outcome out;
  const Plan plan = MakePlan(args.workload);
  const double seconds = args.seconds / kInstances;
  Shared sh;
  sh.in = plan.road ? RoadInputs(args.seed)
                    : PowerLawInputs(args.seed, plan.rmat_scale);
  sh.lanes = SplitLanes(sh.in.stream, plan.lane_shares);
  for (const Lane& l : sh.lanes) {
    if (l.size() == 0) out.Require("a lane of the stream is empty");
  }
  if (!out.correct) return out;
  sh.write_target.assign(sh.in.num_vertices, 0);
  for (const ClientPlan& c : plan.clients) {
    if (c.lane < 0) continue;
    uint64_t reach =
        static_cast<uint64_t>(c.rate_per_s *
                              (seconds + kFirstWarmupNs / 1e9)) + 1;
    for (uint64_t i = 0; i < reach; ++i) {
      sh.write_target[sh.lanes[c.lane].Op(i).edge.dst] = 1;
    }
  }
  {
    Rng rng(Mix(args.seed, 4));
    std::vector<uint8_t> w = sh.write_target;
    for (int i = 0; i < 256; ++i) w[rng.NextBounded(sh.in.num_vertices)] = 1;
    for (VertexId v = 0; v < sh.in.num_vertices; ++v) {
      if (w[v]) sh.watched.push_back(v);
    }
  }

  std::vector<Instance> runs;
  for (int k = 0; k < kInstances && out.correct; ++k) {
    // The slow checks run after the last measured window, so their disk
    // and CPU work cannot disturb a later instance.
    runs.push_back(RunInstance(args, plan, sh, seconds,
                               k == 0 ? kFirstWarmupNs : kWarmupNs,
                               k == kInstances - 1));
    Instance& r = runs.back();
    for (const std::string& e : r.errors) out.Require(e);
    out.attempted += r.attempted;
    out.failed += r.failed;
  }
  if (!out.correct) return out;

  Metrics& m = out.metrics;
  if (!args.trace) {
    std::vector<double> rate;
    for (const Instance& r : runs) rate.push_back(r.updates_per_s);
    // Set-up and peak memory are the first instance's: its set-up is the
    // process's cold one, and later instances' VmHWM would include the
    // first one's checks.
    m.Set("setup_s", runs[0].setup_s, "s");
    m.Set("updates_per_s", Percentile(rate, 0.5), "updates/s");
    m.Set("peak_rss_mb", runs[0].peak_rss_mb, "MB");
    m.Set("exec_ack_p50_us", SliceMedian(runs, &Instance::exec, 0.5), "us");
    m.Set("exec_ack_p95_us", SliceMedian(runs, &Instance::exec, 0.95), "us");
    m.Set("durable_ack_p50_us", SliceMedian(runs, &Instance::durable, 0.5),
          "us");
    m.Set("notify_p50_us", SliceMedian(runs, &Instance::notify, 0.5), "us");
    m.Set("notify_p95_us", SliceMedian(runs, &Instance::notify, 0.95), "us");
    m.Set("hist_read_p50_us", SliceMedian(runs, &Instance::read, 0.5), "us");
    m.Set("hist_read_p95_us", SliceMedian(runs, &Instance::read, 0.95), "us");
  } else {
    // Per-layer figures: the median over the instances that measured them.
    const auto& names = runs[0].metrics.items();
    for (size_t i = 0; i < names.size(); ++i) {
      std::vector<double> v;
      for (const Instance& r : runs) {
        double x = r.metrics.items()[i].value;
        if (!std::isnan(x)) v.push_back(x);
      }
      m.Set(names[i].name, Percentile(v, 0.5), names[i].unit);
    }
  }
  return out;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (k == "--self-test") {
      a->self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--run-dir") {
      a->run_dir = v;
    } else {
      return false;
    }
  }
  return a->self_test || (!a->workload.empty() && a->seconds > 0);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --run-dir <dir> | --self-test\n");
    return 2;
  }
  // The system's fork-join pool is the coordinator plus width - 1 workers,
  // sized so that it and the two bulk writers together fit in the cores. At
  // the default width (every core) stream_ingest ran 15-25% slower on a
  // 4-core host and its interactive p99 rose 1.5-2x (README.md).
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  ThreadPool::ResetGlobal(cores > 4 ? cores - 2 : 2);
  std::string why;
  const bool checker_ok = CheckerSelfTest(&why);
  if (args.self_test) {
    std::printf("checker self-test: %s%s\n", checker_ok ? "ok" : "FAILED: ",
                why.c_str());
    return checker_ok ? 0 : 1;
  }
  if (MakePlan(args.workload).lane_shares.empty()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Outcome out = RunWorkload(args);
  if (!checker_ok) out.Require("checker self-test: " + why);
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": "
      "%s}\n",
      out.correct ? "true" : "false", (unsigned long long)out.attempted,
      (unsigned long long)out.failed, out.metrics.Json().c_str());
  std::fflush(stdout);
  return 0;
}
