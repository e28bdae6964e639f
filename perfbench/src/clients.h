// The load the benchmark offers: update lanes, pipelined bulk writers,
// open-loop interactive clients and a notification subscriber. Every role
// drives the system only through IClient, so the same code runs in-process
// (SessionClient) and over the socket (RpcClient).
#ifndef PERFBENCH_CLIENTS_H_
#define PERFBENCH_CLIENTS_H_

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "runtime/client.h"
#include "stats.h"

namespace perfbench {

using risgraph::ClientStatus;
using risgraph::IClient;
using risgraph::VersionId;

inline Update Inverse(const Update& u) {
  Update inv = u;
  inv.kind = u.kind == UpdateKind::kInsertEdge ? UpdateKind::kDeleteEdge
                                               : UpdateKind::kInsertEdge;
  return inv;
}

/// One client's share of the update stream. Every update of one edge key is
/// in exactly one lane, so per-edge order holds however lanes interleave.
/// Op(i) runs the lane forward, then backward with each update inverted
/// (which restores the preloaded graph), then forward again, and so on: a
/// run of any length stays a valid update sequence.
class Lane {
 public:
  void Push(const Update& u) { ops_.push_back(u); }
  size_t size() const { return ops_.size(); }

  Update Op(uint64_t i) const {
    uint64_t n = ops_.size();
    uint64_t pos = i % n;
    if ((i / n) % 2 == 0) return ops_[pos];
    return Inverse(ops_[n - 1 - pos]);
  }

 private:
  std::vector<Update> ops_;
};

//===--- Pipelined bulk writer --------------------------------------------===//

struct PipelinedResult {
  uint64_t applied = 0;  // lane prefix that was queued and flushed
  uint64_t submitted_at_warm = 0;  // queued before the measured window
  uint64_t failed = 0;
  int64_t first_submit_ns = 0;
  int64_t last_ack_ns = 0;
  int64_t submit_ns = 0;  // traced: time inside SubmitAsync
  double flush_ms = 0;
  /// (time, updates submitted so far), every 1024 submits. The window
  /// keeps submits within `window` updates of acks, so this is the lane's
  /// ack progress to within a window.
  std::vector<std::pair<int64_t, uint64_t>> progress;
};

/// Streams the lane through the pipelined lane until `deadline_ns`, then
/// flushes. Stops at the first refused update so the applied prefix stays
/// exact.
inline void RunPipelined(IClient& client, const Lane& lane, int64_t warm_ns,
                         int64_t deadline_ns, bool trace,
                         PipelinedResult* out) {
  out->first_submit_ns = NowNs();
  uint64_t i = 0;
  bool warm = false;
  while (true) {
    if ((i & 63) == 0) {
      const int64_t now = NowNs();
      if (now >= deadline_ns) break;
      if (!warm && now >= warm_ns) {
        warm = true;
        out->submitted_at_warm = i;
      }
      if ((i & 1023) == 0) out->progress.push_back({now, i});
    }
    Update u = lane.Op(i);
    ClientStatus st;
    if (trace) {
      int64_t t0 = NowNs();
      st = client.SubmitAsync(u);
      out->submit_ns += NowNs() - t0;
    } else {
      st = client.SubmitAsync(u);
    }
    if (st != ClientStatus::kOk) {
      out->failed++;
      break;
    }
    ++i;
  }
  out->progress.push_back({NowNs(), i});
  int64_t t0 = NowNs();
  risgraph::FlushResult fr = client.Flush();
  out->last_ack_ns = NowNs();
  out->flush_ms = static_cast<double>(out->last_ack_ns - t0) / 1e6;
  out->applied = i;
  if (!fr.ok || fr.completed != i) out->failed++;
}

//===--- Open-loop interactive client -------------------------------------===//

/// One due slot of an open-loop client. kDurableWrite is a write followed
/// by WaitDurable on its version; a pattern gives it idle slots after it, so
/// the client's own wait is not charged to its next operation.
enum class OpKind { kWrite, kDurableWrite, kRead, kIdle };

struct OpenLoopSpec {
  double rate_per_s = 1000;
  std::vector<OpKind> pattern;  // cycled, one slot per due time
  const Lane* lane = nullptr;   // update source for writes
  uint64_t num_vertices = 0;
  uint64_t history_window = 128;  // versions the server retains
  uint64_t seed = 1;
  bool trace = false;
};

struct WriteRecord {
  VersionId version;
  VertexId dst;
  int64_t due_ns;
  int64_t ack_ns;
};

struct OpenLoopResult {
  std::vector<Sample> exec;     // write due -> execution ack
  std::vector<Sample> durable;  // write due -> durable ack
  std::vector<Sample> read;     // read due -> historical value
  std::vector<WriteRecord> writes;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t writes_applied = 0;  // lane prefix acked
  uint64_t sequencer_ops = 0;   // acked writes + historical reads
  uint64_t requests = 0;        // client calls made (one frame each on RPC)
  uint64_t rereads = 0;
  uint64_t reread_mismatches = 0;
  double max_late_us = 0;  // measured window only
  int64_t submit_ns = 0;  // traced: time inside Submit
  int64_t last_ack_ns = 0;
};

/// Every kRereadEvery-th historical read is read again to check it agrees.
inline constexpr uint64_t kRereadEvery = 8;

/// Issues spec.pattern on a fixed schedule from `start_ns` until
/// `deadline_ns`; lateness is tracked from `warm_ns` on. Latency is timed from each op's due time, so a stall also
/// charges the ops queued behind it. A read op reads a random vertex at a
/// version a little behind the newest it has seen; every kRereadEvery-th
/// then reads the same (vertex, version) pair again, which must give the
/// same value while that version is still retained.
inline void RunOpenLoop(IClient& client, const OpenLoopSpec& spec,
                        int64_t start_ns, int64_t warm_ns, int64_t deadline_ns,
                        OpenLoopResult* out) {
  risgraph::Rng rng(spec.seed);
  const int64_t period_ns = static_cast<int64_t>(1e9 / spec.rate_per_s);
  bool writes_ok = spec.lane != nullptr && spec.lane->size() > 0;
  VersionId seen = 0;
  out->attempted++;
  out->requests++;
  if (!client.GetCurrentVersion(&seen)) out->failed++;
  uint64_t reads = 0;
  for (uint64_t k = 0;; ++k) {
    int64_t due = start_ns + static_cast<int64_t>(k) * period_ns;
    if (due >= deadline_ns) break;
    const OpKind kind = spec.pattern[k % spec.pattern.size()];
    if (kind == OpKind::kIdle) continue;
    WaitUntil(due);
    if (due >= warm_ns) {
      out->max_late_us = std::max(out->max_late_us, (NowNs() - due) / 1e3);
    }
    if (kind != OpKind::kRead) {
      if (!writes_ok) continue;
      Update u = spec.lane->Op(out->writes_applied);
      out->attempted++;
      out->requests++;
      int64_t t0 = NowNs();
      VersionId v = client.Submit(u);
      int64_t ack = NowNs();
      if (spec.trace) out->submit_ns += ack - t0;
      if (v == risgraph::kInvalidVersion) {
        out->failed++;
        writes_ok = false;  // keep the applied prefix exact
        continue;
      }
      out->writes_applied++;
      out->sequencer_ops++;
      out->exec.push_back({due, (ack - due) / 1e3});
      out->writes.push_back(WriteRecord{v, u.edge.dst, due, ack});
      out->last_ack_ns = ack;
      seen = std::max(seen, v);
      if (kind == OpKind::kDurableWrite) {
        out->attempted++;
        out->requests++;
        if (client.WaitDurable(v, 5'000'000)) {
          out->durable.push_back({due, (NowNs() - due) / 1e3});
        } else {
          out->failed++;
        }
      }
      continue;
    }
    const uint64_t algo = reads % 2;
    const bool check = reads++ % kRereadEvery == 0;
    const VersionId version = seen > 8 ? seen - 8 : seen;
    const VertexId vertex = rng.NextBounded(spec.num_vertices);
    uint64_t value = 0;
    out->attempted++;
    out->requests++;
    if (!client.GetValueAt(algo, version, vertex, &value)) {
      out->failed++;
      continue;
    }
    out->read.push_back({due, (NowNs() - due) / 1e3});
    out->sequencer_ops++;
    uint64_t again = 0;
    bool reread_ok = true;
    if (check) {
      // The same (vertex, version) pair again, in a later epoch.
      out->attempted++;
      out->requests++;
      reread_ok = client.GetValueAt(algo, version, vertex, &again);
      if (reread_ok) {
        out->sequencer_ops++;
      } else {
        out->failed++;
      }
    }
    VersionId now_ver = 0;
    out->attempted++;
    out->requests++;
    if (!client.GetCurrentVersion(&now_ver)) {
      out->failed++;
      continue;
    }
    seen = std::max(seen, now_ver);
    // The server releases history more than history_window versions behind
    // its newest version; only a pair still retained after the re-read is
    // comparable.
    if (check && reread_ok && version + spec.history_window > now_ver + 1) {
      out->rereads++;
      if (again != value) out->reread_mismatches++;
    }
  }
}

//===--- Notification subscriber ------------------------------------------===//

struct Arrival {
  uint64_t algo;
  VertexId vertex;
  VersionId version;
  int64_t arrival_ns;
};

/// What the subscriber keeps: the newest notified value of every vertex,
/// and the arrivals that can be traced to an open-loop write (those whose
/// vertex is a write target; see `traced`).
struct SubscriberState {
  explicit SubscriberState(uint64_t num_vertices, uint32_t num_algos)
      : last_version(num_algos, std::vector<VersionId>(num_vertices, 0)),
        last_value(num_algos, std::vector<uint64_t>(num_vertices, 0)),
        traced(num_vertices, 0) {}

  void Take(const std::vector<risgraph::Notification>& batch,
            int64_t arrival_ns) {
    for (const auto& n : batch) {
      received++;
      if (n.version >= last_version[n.algo][n.vertex]) {
        last_version[n.algo][n.vertex] = n.version;
        last_value[n.algo][n.vertex] = n.new_value;
      }
      if (traced[n.vertex]) {
        arrivals.push_back(Arrival{n.algo, n.vertex, n.version, arrival_ns});
      }
    }
  }

  std::vector<std::vector<VersionId>> last_version;  // 0 = never notified
  std::vector<std::vector<uint64_t>> last_value;
  std::vector<uint8_t> traced;
  std::vector<Arrival> arrivals;
  uint64_t received = 0;
};

/// Collects notifications until `stop` is set.
inline void RunSubscriber(IClient& client, const std::atomic<bool>& stop,
                          SubscriberState* state) {
  std::vector<risgraph::Notification> batch;
  while (!stop.load(std::memory_order_acquire)) {
    if (!client.WaitNotification(2000)) continue;
    batch.clear();
    client.PollNotifications(&batch);
    state->Take(batch, NowNs());
  }
}

/// Drains what is still in flight once the system is quiescent: returns
/// after `quiet_us` passes with nothing new.
inline void DrainSubscriber(IClient& client, int64_t quiet_us,
                            SubscriberState* state) {
  std::vector<risgraph::Notification> batch;
  while (client.WaitNotification(quiet_us)) {
    batch.clear();
    client.PollNotifications(&batch);
    state->Take(batch, NowNs());
  }
}

}  // namespace perfbench

#endif  // PERFBENCH_CLIENTS_H_
