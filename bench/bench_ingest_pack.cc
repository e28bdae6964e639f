// Packing-throughput microbench: how fast does the batch former claim and
// classify an epoch, per safe/unsafe mix?
//
// Isolates the packing hot path: updates are pushed into the sharded rings,
// packed (timed), then the epoch executes outside the timed window so frozen
// sessions make progress and the deferred backlog stays bounded, exactly as
// in the real pipeline. The ring refill adapts to the claim rate for the
// same reason (a closed in-flight window, like DrivePipelined's).
// Classification cost is made realistic by maintaining all four paper
// algorithms (an update is safe only if it is safe for *every* algorithm).
//
// Writes BENCH_ingest_pack.json next to the binary for the perf trajectory.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/algorithm_api.h"
#include "ingest/batch_former.h"
#include "ingest/ingest_queue.h"
#include "runtime/risgraph.h"
#include "workload/rmat.h"
#include "workload/update_stream.h"

namespace risgraph {
namespace {

constexpr size_t kShards = 4;
constexpr size_t kShardCapacity = 4096;
constexpr size_t kSessions = 64;

struct PackResult {
  double items_per_sec = 0;
  uint64_t claimed = 0;
  double unsafe_share = 0;
};

PackResult RunPack(const StreamWorkload& wl, double seconds) {
  // Fresh system per mix: epochs execute, so state evolves.
  RisGraph<> sys(wl.num_vertices);
  sys.AddAlgorithm<Bfs>(0);
  sys.AddAlgorithm<Sssp>(0);
  sys.AddAlgorithm<Sswp>(0);
  sys.AddAlgorithm<Wcc>(0);
  sys.LoadGraph(wl.preload);
  sys.InitializeResults();

  ShardedIngestQueue queue(kShards, kShardCapacity);
  BatchFormer<DefaultGraphStore> former(sys, queue);
  std::unique_ptr<Session[]> sessions(new Session[kSessions]);
  std::vector<Update> wal;
  wal.reserve(kShards * kShardCapacity);

  const std::vector<Update>& stream = wl.updates;
  size_t cursor = 0;
  PackResult r;
  uint64_t unsafe_claims = 0;
  int64_t pack_ns = 0;
  uint64_t refill_budget = 2048;
  WallTimer timer;
  while (timer.ElapsedSeconds() < seconds) {
    // Refill the rings (producer cost, excluded from the measurement),
    // bounded near the claim rate so the parked backlog stays a window, not
    // a flood.
    for (uint64_t i = 0; i < refill_budget; ++i) {
      size_t s = cursor % kSessions;
      if (!queue.shard(s % kShards)
               .TryPush(IngestItem{IngestKind::kAsync, &sessions[s],
                                   stream[cursor % stream.size()]})) {
        break;
      }
      ++cursor;
    }
    int64_t t0 = WallTimer::NowNanos();
    former.BeginEpoch();
    wal.clear();
    uint64_t claimed = former.PackOnce(wal);
    pack_ns += WallTimer::NowNanos() - t0;
    r.claimed += claimed;
    refill_budget = claimed + 1024;
    // Execute the epoch outside the timed window (safe phase, then the
    // unsafe lane) so sessions unfreeze and verdicts track a live graph.
    for (auto& g : former.async_safe()) {
      for (const Update& u : g.updates) sys.ApplySafeToStore(u);
    }
    auto& unsafe_queue = former.unsafe_queue();
    unsafe_claims += unsafe_queue.size();
    while (!unsafe_queue.empty()) {
      sys.ApplyUnsafe(unsafe_queue.front().async_update);
      unsafe_queue.pop_front();
    }
  }
  r.items_per_sec =
      pack_ns > 0 ? static_cast<double>(r.claimed) * 1e9 / pack_ns : 0;
  r.unsafe_share = r.claimed > 0 ? static_cast<double>(unsafe_claims) /
                                       static_cast<double>(r.claimed)
                                 : 0;
  return r;
}

}  // namespace
}  // namespace risgraph

int main() {
  using namespace risgraph;
  auto env = bench::Env::Get();
  bench::PrintTitle("Epoch packing throughput",
                    "drain + classify in claim order; paper Sections 4-5, "
                    "Figure 9");

  RmatParams rmat;
  rmat.scale = 13;
  rmat.num_edges = 12 * (uint64_t{1} << rmat.scale);
  StreamOptions so;
  so.preload_fraction = 0.5;  // half the edges stay as stream material

  struct Mix {
    const char* name;
    double insert_fraction;
  };
  // Deletions force a duplicate-count lookup plus per-algorithm tree checks,
  // so the mixed stream is the classification-heavy case.
  const Mix mixes[] = {{"mixed", 0.5}, {"insert_heavy", 0.9}};

  std::string json = "{\n  \"bench\": \"ingest_pack\",\n  \"results\": [\n";
  std::printf("%-13s %12s %8s %12s\n", "mix", "items/s", "unsafe%",
              "claimed");
  bool first = true;
  for (const Mix& mix : mixes) {
    so.insert_fraction = mix.insert_fraction;
    StreamWorkload wl = BuildStream(uint64_t{1} << rmat.scale,
                                    GenerateRmat(rmat), so);
    PackResult r = RunPack(wl, env.seconds);
    std::printf("%-13s %12s %7.1f%% %12llu\n", mix.name,
                bench::FmtOps(r.items_per_sec).c_str(), 100 * r.unsafe_share,
                static_cast<unsigned long long>(r.claimed));
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "%s    {\"mix\": \"%s\", \"items_per_sec\": %.0f, "
                  "\"unsafe_share\": %.4f, \"claimed\": %llu}",
                  first ? "" : ",\n", mix.name, r.items_per_sec,
                  r.unsafe_share, static_cast<unsigned long long>(r.claimed));
    json += buf;
    first = false;
  }
  bench::PrintRule();
  json += "\n  ]\n}\n";

  const char* path = "BENCH_ingest_pack.json";
  if (FILE* f = std::fopen(path, "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path);
  } else {
    std::printf("failed to write %s\n", path);
    return 1;
  }
  return 0;
}
