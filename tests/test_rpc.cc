// End-to-end tests of the RPC tier: protocol-v2 server over a live service,
// real Unix-domain sockets, concurrent clients, the pipelined lane
// (correlation-ID windows, kBusy load shedding, flush semantics), version
// negotiation, and malformed-input handling.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/algorithm_api.h"
#include "core/reference.h"
#include "net/rpc_client.h"
#include "net/rpc_server.h"
#include "rpc_test_util.h"
#include "runtime/client.h"
#include "runtime/risgraph.h"
#include "runtime/service.h"

namespace risgraph {
namespace {

using testutil::HandshakeRaw;
using testutil::RawConnect;
using testutil::ReadFrameRaw;
using testutil::SendFrameRaw;

//===--- Fixture -----------------------------------------------------------===//

class RpcTestBase : public ::testing::Test {
 protected:
  static constexpr uint64_t kVertices = 256;

  void Boot(ServiceOptions options = {}, bool start_service = true,
            int max_clients = 32) {
    socket_path_ = "/tmp/risgraph_rpc_" +
                   std::to_string(reinterpret_cast<uintptr_t>(this)) + ".sock";
    sys_ = std::make_unique<RisGraph<>>(kVertices);
    bfs_ = sys_->AddAlgorithm<Bfs>(0);
    sys_->InitializeResults();
    service_ = std::make_unique<RisGraphService<>>(*sys_, options);
    server_ = std::make_unique<RpcServer>(*sys_, *service_, socket_path_);
    ASSERT_TRUE(server_->Start(max_clients));
    if (start_service) service_->Start();
  }

  void TearDown() override {
    if (server_) server_->Stop();
    if (service_) service_->Stop();
  }

  std::string socket_path_;
  std::unique_ptr<RisGraph<>> sys_;
  size_t bfs_ = 0;
  std::unique_ptr<RisGraphService<>> service_;
  std::unique_ptr<RpcServer> server_;
};

/// The common case: everything booted and running.
class RpcTest : public RpcTestBase {
 protected:
  void SetUp() override { Boot(); }
};

//===--- Closed-loop lane (v1 semantics carried over) ----------------------===//

TEST_F(RpcTest, PingAndBasicUpdates) {
  RpcClient client;
  ASSERT_TRUE(client.Connect(socket_path_));
  EXPECT_EQ(client.protocol_version(), rpc::kProtocolVersion);
  EXPECT_TRUE(client.Ping());

  VersionId v1 = client.InsEdge(0, 1);
  ASSERT_NE(v1, kInvalidVersion);
  VersionId v2 = client.InsEdge(1, 2);
  ASSERT_NE(v2, kInvalidVersion);
  EXPECT_GE(v2, v1);

  uint64_t dist = 0;
  ASSERT_TRUE(client.GetValue(bfs_, 2, &dist));
  EXPECT_EQ(dist, 2u);

  ParentEdge p;
  ASSERT_TRUE(client.GetParent(bfs_, 2, &p));
  EXPECT_EQ(p.parent, 1u);

  ASSERT_NE(client.DelEdge(1, 2), kInvalidVersion);
  ASSERT_TRUE(client.GetValue(bfs_, 2, &dist));
  EXPECT_EQ(dist, kInfWeight);
}

TEST_F(RpcTest, HistoricalReadsAndModifiedFeed) {
  RpcClient client;
  ASSERT_TRUE(client.Connect(socket_path_));
  client.InsEdge(0, 1);
  VersionId ver = client.InsEdge(1, 2);
  client.InsEdge(0, 2);  // improves 2 from distance 2 to 1

  VersionId cur = 0;
  ASSERT_TRUE(client.GetCurrentVersion(&cur));
  EXPECT_GT(cur, ver);

  uint64_t then = 0;
  ASSERT_TRUE(client.GetValueAt(bfs_, ver, 2, &then));
  EXPECT_EQ(then, 2u);
  uint64_t now = 0;
  ASSERT_TRUE(client.GetValue(bfs_, 2, &now));
  EXPECT_EQ(now, 1u);

  std::vector<VertexId> mods;
  ASSERT_TRUE(client.GetModified(bfs_, cur, &mods));
  ASSERT_EQ(mods.size(), 1u);
  EXPECT_EQ(mods[0], 2u);

  EXPECT_TRUE(client.ReleaseHistory(cur));
}

TEST_F(RpcTest, VertexLifecycle) {
  RpcClient client;
  ASSERT_TRUE(client.Connect(socket_path_));
  VertexId fresh = kInvalidVertex;
  ASSERT_NE(client.InsVertex(&fresh), kInvalidVersion);
  EXPECT_EQ(fresh, kVertices);  // first id beyond the preallocated range
  EXPECT_NE(client.DelVertex(fresh), kInvalidVersion);
}

TEST_F(RpcTest, TransactionsAreAtomic) {
  RpcClient client;
  ASSERT_TRUE(client.Connect(socket_path_));
  std::vector<Update> txn = {Update::InsertEdge(0, 10, 1),
                             Update::InsertEdge(10, 11, 1),
                             Update::InsertEdge(11, 12, 1)};
  VersionId ver = client.SubmitTxn(txn);
  ASSERT_NE(ver, kInvalidVersion);
  std::vector<VertexId> mods;
  ASSERT_TRUE(client.GetModified(bfs_, ver, &mods));
  EXPECT_EQ(mods.size(), 3u);  // one version covers the whole transaction
}

TEST_F(RpcTest, ErrorsForBadArguments) {
  RpcClient client;
  ASSERT_TRUE(client.Connect(socket_path_));
  uint64_t out = 0;
  EXPECT_FALSE(client.GetValue(/*algo=*/99, 0, &out));   // unknown algorithm
  EXPECT_FALSE(client.GetValue(bfs_, 1 << 20, &out));    // vertex range
  EXPECT_EQ(client.InsEdge(1 << 20, 0), kInvalidVersion);
  EXPECT_TRUE(client.Ping());  // the connection survives semantic errors
}

TEST_F(RpcTest, ConcurrentClientsConvergeToOracle) {
  constexpr int kClients = 8;
  constexpr int kOpsEach = 150;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      RpcClient client;
      ASSERT_TRUE(client.Connect(socket_path_));
      for (int i = 0; i < kOpsEach; ++i) {
        VertexId a = (c * 31 + i * 7) % kVertices;
        VertexId b = (c * 17 + i * 13) % kVertices;
        if (i % 3 == 2) {
          client.DelEdge(a, b);
        } else {
          client.InsEdge(a, b);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(server_->connections_served(), static_cast<uint64_t>(kClients));
  EXPECT_GE(server_->requests_served(),
            static_cast<uint64_t>(kClients * kOpsEach));

  auto ref = ReferenceCompute<Bfs>(sys_->store(), 0);
  for (VertexId v = 0; v < kVertices; ++v) {
    ASSERT_EQ(sys_->GetValue(bfs_, v), ref[v]) << v;
  }
}

//===--- Version negotiation -----------------------------------------------===//

TEST_F(RpcTest, V1ClientRejectedWithUnsupportedVersion) {
  // A v1 client's first frame is a bare opcode — here kPing, one byte. A v2
  // server must reject it with a clean one-byte kUnsupportedVersion (which a
  // v1 client reads as its status byte), not desync or hang.
  int fd = RawConnect(socket_path_);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendFrameRaw(fd, {0x00}));  // v1 kPing
  std::vector<uint8_t> resp;
  ASSERT_TRUE(ReadFrameRaw(fd, &resp));
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_EQ(resp[0], static_cast<uint8_t>(rpc::Status::kUnsupportedVersion));
  uint8_t byte;
  EXPECT_EQ(::read(fd, &byte, 1), 0);  // EOF: connection closed
  ::close(fd);

  // A v1 update frame (opcode + three u64s) gets the same treatment.
  fd = RawConnect(socket_path_);
  ASSERT_GE(fd, 0);
  std::vector<uint8_t> v1_ins;
  rpc::Writer w(v1_ins);
  w.U8(1);  // v1 kInsEdge
  w.U64(0);
  w.U64(1);
  w.U64(1);
  ASSERT_TRUE(SendFrameRaw(fd, v1_ins));
  ASSERT_TRUE(ReadFrameRaw(fd, &resp));
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_EQ(resp[0], static_cast<uint8_t>(rpc::Status::kUnsupportedVersion));
  ::close(fd);

  EXPECT_GE(server_->handshakes_rejected(), 2u);

  // The server still serves v2 clients afterwards.
  RpcClient client;
  ASSERT_TRUE(client.Connect(socket_path_));
  EXPECT_TRUE(client.Ping());
}

TEST_F(RpcTest, VersionRangeOutsideServerIsRejected) {
  for (auto [lo, hi] :
       {std::pair<uint16_t, uint16_t>{1, 1},
        std::pair<uint16_t, uint16_t>{rpc::kProtocolVersion + 1, 9}}) {
    int fd = RawConnect(socket_path_);
    ASSERT_GE(fd, 0);
    EXPECT_EQ(HandshakeRaw(fd, lo, hi), 0u) << lo << ".." << hi;
    ::close(fd);
  }
  // A client offering a range that covers v2 negotiates v2.
  int fd = RawConnect(socket_path_);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(HandshakeRaw(fd, 1, 7), rpc::kProtocolVersion);
  ::close(fd);
}

//===--- Malformed input ----------------------------------------------------===//

TEST_F(RpcTest, MalformedFrameDropsConnectionOnly) {
  int fd = RawConnect(socket_path_);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(HandshakeRaw(fd), rpc::kProtocolVersion);
  // A frame too short to even carry [corr][opcode].
  ASSERT_TRUE(SendFrameRaw(fd, {0xff, 0xee, 0xdd}));
  // Server answers [corr=0][kBadRequest], then closes.
  std::vector<uint8_t> resp;
  ASSERT_TRUE(ReadFrameRaw(fd, &resp));
  ASSERT_EQ(resp.size(), 9u);
  uint64_t corr = 1;
  std::memcpy(&corr, resp.data(), 8);
  EXPECT_EQ(corr, 0u);
  EXPECT_EQ(resp[8], static_cast<uint8_t>(rpc::Status::kBadRequest));
  uint8_t byte;
  EXPECT_EQ(::read(fd, &byte, 1), 0);  // EOF: connection dropped
  ::close(fd);

  // The server is still healthy for well-behaved clients.
  RpcClient client;
  ASSERT_TRUE(client.Connect(socket_path_));
  EXPECT_TRUE(client.Ping());
}

TEST_F(RpcTest, OversizedFrameIsRejected) {
  int fd = RawConnect(socket_path_);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(HandshakeRaw(fd), rpc::kProtocolVersion);
  uint32_t len = rpc::kMaxFrameBytes + 1;
  ASSERT_EQ(::write(fd, &len, 4), 4);
  uint8_t byte;
  EXPECT_LE(::read(fd, &byte, 1), 0);  // dropped without reading the body
  ::close(fd);
}

//===--- Pipelined lane ------------------------------------------------------//

TEST_F(RpcTest, PipelinedMatchesClosedLoopFinalState) {
  // The hazard: ins/del pairs of the SAME edge key queued back-to-back —
  // out-of-order execution would leave different duplicate counts.
  std::vector<Update> stream;
  Rng rng(11);
  for (int i = 0; i < 1500; ++i) {
    VertexId a = rng.NextBounded(kVertices);
    VertexId b = rng.NextBounded(kVertices);
    Weight w = 1 + rng.NextBounded(3);
    stream.push_back(Update::InsertEdge(a, b, w));
    if (rng.NextBool(0.6)) {
      stream.push_back(Update::DeleteEdge(a, b, w));
    }
  }

  // Closed loop into the fixture's system, over the wire.
  {
    RpcClient closed;
    ASSERT_TRUE(closed.Connect(socket_path_));
    for (const Update& u : stream) {
      ASSERT_NE(closed.Submit(u), kInvalidVersion);
    }
  }

  // Pipelined submission of the same stream into a second, identical stack.
  RisGraph<> sys2(kVertices);
  size_t bfs2 = sys2.AddAlgorithm<Bfs>(0);
  sys2.InitializeResults();
  RisGraphService<> service2(sys2);
  RpcServer server2(sys2, service2, socket_path_ + ".2");
  ASSERT_TRUE(server2.Start(/*max_clients=*/4));
  service2.Start();
  {
    RpcClient piped(/*window=*/128);
    ASSERT_TRUE(piped.Connect(socket_path_ + ".2"));
    for (const Update& u : stream) {
      ASSERT_EQ(piped.SubmitAsync(u), ClientStatus::kOk);
    }
    FlushResult fr = piped.Flush();
    ASSERT_TRUE(fr.ok);
    EXPECT_EQ(fr.completed, stream.size());
    EXPECT_EQ(fr.version, sys2.GetCurrentVersion());
    EXPECT_EQ(piped.shed_count(), 0u);  // kBlock policy: nothing shed
  }
  server2.Stop();
  service2.Stop();

  // Equivalence of final graph state: results and exact duplicate counts.
  for (VertexId v = 0; v < kVertices; ++v) {
    ASSERT_EQ(sys_->GetValue(bfs_, v), sys2.GetValue(bfs2, v)) << v;
  }
  for (const Update& u : stream) {
    ASSERT_EQ(
        sys_->store().EdgeCount(u.edge.src,
                                EdgeKey{u.edge.dst, u.edge.weight}),
        sys2.store().EdgeCount(u.edge.src,
                               EdgeKey{u.edge.dst, u.edge.weight}))
        << u.edge.src << "->" << u.edge.dst;
  }
}

TEST_F(RpcTest, PipelinedConcurrentClientsConvergeToOracle) {
  constexpr int kClients = 4;
  constexpr int kOpsEach = 300;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      RpcClient client(/*window=*/64);
      ASSERT_TRUE(client.Connect(socket_path_));
      for (int i = 0; i < kOpsEach; ++i) {
        VertexId a = (c * 29 + i * 11) % kVertices;
        VertexId b = (c * 13 + i * 17) % kVertices;
        Update u = i % 4 == 3 ? Update::DeleteEdge(a, b, 1)
                              : Update::InsertEdge(a, b, 1);
        ASSERT_NE(client.SubmitAsync(u), ClientStatus::kClosed);
      }
      FlushResult fr = client.Flush();
      ASSERT_TRUE(fr.ok);
      EXPECT_EQ(fr.completed, static_cast<uint64_t>(kOpsEach));
    });
  }
  for (auto& t : threads) t.join();

  auto ref = ReferenceCompute<Bfs>(sys_->store(), 0);
  for (VertexId v = 0; v < kVertices; ++v) {
    ASSERT_EQ(sys_->GetValue(bfs_, v), ref[v]) << v;
  }
}

//===--- kBusy load shedding -------------------------------------------------//

class RpcShedTest : public RpcTestBase {
 protected:
  static constexpr size_t kRing = 64;

  void SetUp() override {
    ServiceOptions opt;
    opt.ingest_shards = 1;  // one ring: deterministic capacity
    opt.ingest_shard_capacity = kRing;
    opt.overload_policy = OverloadPolicy::kShed;
    // The coordinator is NOT started: the ring absorbs exactly kRing
    // updates, then sheds — deterministically.
    Boot(opt, /*start_service=*/false);
  }

  static std::vector<Update> DistinctInserts(size_t n) {
    std::vector<Update> updates;
    for (size_t i = 0; i < n; ++i) {
      updates.push_back(
          Update::InsertEdge(i % 16, 16 + i / 16, /*w=*/1));  // all distinct
    }
    return updates;
  }

  /// Resubmits shed updates until the (now running) service absorbs all.
  void ResubmitUntilAccepted(RpcClient& client, std::vector<Update> todo) {
    int rounds = 0;
    while (!todo.empty()) {
      ASSERT_LT(rounds++, 1000) << "shed updates never got absorbed";
      client.SubmitBatch(todo.data(), todo.size());
      ASSERT_TRUE(client.WaitAcks());
      todo = client.TakeRejected();
      if (!todo.empty()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }
};

TEST_F(RpcShedTest, WindowSaturationTriggersBusyPerFrame) {
  RpcClient client(/*window=*/512);  // window > 2*kRing: no client-side block
  ASSERT_TRUE(client.Connect(socket_path_));
  auto updates = DistinctInserts(2 * kRing);
  for (const Update& u : updates) {
    ASSERT_EQ(client.SubmitAsync(u), ClientStatus::kOk);  // busy comes by ack
  }
  ASSERT_TRUE(client.WaitAcks());
  // The ring held exactly kRing updates; the tail was shed in FIFO order.
  EXPECT_EQ(client.shed_count(), kRing);
  std::vector<Update> rejected = client.TakeRejected();
  ASSERT_EQ(rejected.size(), kRing);
  for (size_t i = 0; i < rejected.size(); ++i) {
    EXPECT_EQ(rejected[i], updates[kRing + i]) << i;
  }

  // Start the service, resubmit the shed tail, and drain everything.
  service_->Start();
  ResubmitUntilAccepted(client, rejected);
  FlushResult fr = client.Flush();
  ASSERT_TRUE(fr.ok);
  EXPECT_EQ(fr.completed, updates.size());
  for (const Update& u : updates) {
    EXPECT_EQ(sys_->store().EdgeCount(u.edge.src,
                                      EdgeKey{u.edge.dst, u.edge.weight}),
              1u);
  }
}

TEST_F(RpcShedTest, UpdateBatchReportsAcceptedPrefix) {
  RpcClient client(/*window=*/512);
  ASSERT_TRUE(client.Connect(socket_path_));
  auto updates = DistinctInserts(2 * kRing);
  // One kUpdateBatch frame carrying more than the ring holds: the kBusy ack
  // carries the accepted FIFO prefix; the client resurfaces the tail.
  EXPECT_EQ(client.SubmitBatch(updates.data(), updates.size()),
            updates.size());  // all queued for transmission
  ASSERT_TRUE(client.WaitAcks());
  EXPECT_EQ(client.shed_count(), kRing);
  std::vector<Update> rejected = client.TakeRejected();
  ASSERT_EQ(rejected.size(), kRing);
  EXPECT_EQ(rejected.front(), updates[kRing]);
  EXPECT_EQ(rejected.back(), updates.back());

  service_->Start();
  ResubmitUntilAccepted(client, rejected);
  FlushResult fr = client.Flush();
  ASSERT_TRUE(fr.ok);
  EXPECT_EQ(fr.completed, updates.size());
  auto ref = ReferenceCompute<Bfs>(sys_->store(), 0);
  for (VertexId v = 0; v < kVertices; ++v) {
    ASSERT_EQ(sys_->GetValue(bfs_, v), ref[v]) << v;
  }
}

TEST_F(RpcShedTest, BusyAckCarriesServerRetryAfterHint) {
  RpcClient client(/*window=*/512);
  ASSERT_TRUE(client.Connect(socket_path_));

  // Before any epoch has run the server has no drain-rate estimate: the
  // kBusy acks carry retry_after_micros = 0 and the client reports it.
  auto updates = DistinctInserts(2 * kRing);
  for (const Update& u : updates) {
    ASSERT_EQ(client.SubmitAsync(u), ClientStatus::kOk);
  }
  ASSERT_TRUE(client.WaitAcks());
  EXPECT_EQ(client.shed_count(), kRing);
  EXPECT_EQ(client.retry_after_micros(), 0u);

  // Drain through the service: busy epochs complete, so the pipeline forms
  // its busy-epoch EWMA and both client surfaces report a clamped hint.
  service_->Start();
  ResubmitUntilAccepted(client, client.TakeRejected());
  FlushResult fr = client.Flush();
  ASSERT_TRUE(fr.ok);
  uint32_t suggested = service_->pipeline().SuggestRetryAfterMicros();
  EXPECT_GE(suggested, 50u);
  EXPECT_LE(suggested, 20000u);
  SessionClient<> local(*sys_, service_->pipeline());
  EXPECT_EQ(local.retry_after_micros(), suggested);

  // Park the coordinator and overflow the ring again: the new kBusy acks
  // must now carry the measured hint over the wire.
  service_->Stop();
  auto more = DistinctInserts(2 * kRing);
  for (Update& u : more) u.edge.weight = 7;  // distinct from the first batch
  for (const Update& u : more) {
    ASSERT_EQ(client.SubmitAsync(u), ClientStatus::kOk);
  }
  ASSERT_TRUE(client.WaitAcks());
  EXPECT_GT(client.shed_count(), kRing);
  EXPECT_GE(client.retry_after_micros(), 50u);
  EXPECT_LE(client.retry_after_micros(), 20000u);
}

TEST_F(RpcShedTest, InProcessSubmitBatchHandsBackWholeShedTail) {
  // The in-process client must honor the same contract as the RPC ack path:
  // once a batch hits kBusy, the ENTIRE untried tail comes back through
  // TakeRejected() — not just the one update that observed the full ring.
  SessionClient<> local(*sys_, service_->pipeline());
  auto updates = DistinctInserts(2 * kRing);
  size_t accepted = local.SubmitBatch(updates.data(), updates.size());
  EXPECT_EQ(accepted, kRing);
  EXPECT_EQ(local.shed_count(), kRing);
  std::vector<Update> rejected = local.TakeRejected();
  ASSERT_EQ(rejected.size(), kRing);
  for (size_t i = 0; i < rejected.size(); ++i) {
    EXPECT_EQ(rejected[i], updates[kRing + i]) << i;
  }

  service_->Start();
  int rounds = 0;
  while (!rejected.empty()) {
    ASSERT_LT(rounds++, 1000);
    local.SubmitBatch(rejected.data(), rejected.size());
    rejected = local.TakeRejected();
    if (!rejected.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  FlushResult fr = local.Flush();
  ASSERT_TRUE(fr.ok);
  EXPECT_EQ(fr.completed, updates.size());
  for (const Update& u : updates) {
    EXPECT_EQ(sys_->store().EdgeCount(u.edge.src,
                                      EdgeKey{u.edge.dst, u.edge.weight}),
              1u);
  }
}

//===--- One IClient surface over both transports ----------------------------//

void RunClientSmoke(IClient& client, size_t bfs, VertexId base) {
  EXPECT_TRUE(client.Ping());
  ASSERT_NE(client.InsEdge(0, base), kInvalidVersion);
  ASSERT_NE(client.Submit(Update::InsertEdge(base, base + 1, 1)),
            kInvalidVersion);
  std::vector<Update> txn = {Update::InsertEdge(base + 1, base + 2, 1),
                             Update::InsertEdge(base + 2, base + 3, 1)};
  ASSERT_NE(client.SubmitTxn(txn), kInvalidVersion);
  uint64_t val = 0;
  ASSERT_TRUE(client.GetValue(bfs, base + 3, &val));
  EXPECT_EQ(val, 4u);  // 0 -> base -> base+1 -> base+2 -> base+3

  // Pipelined extension of the same chain through the same interface.
  EXPECT_EQ(client.SubmitAsync(Update::InsertEdge(base + 3, base + 4, 1)),
            ClientStatus::kOk);
  FlushResult fr = client.Flush();
  ASSERT_TRUE(fr.ok);
  ASSERT_TRUE(client.GetValue(bfs, base + 4, &val));
  EXPECT_EQ(val, 5u);

  ParentEdge p;
  ASSERT_TRUE(client.GetParent(bfs, base + 1, &p));
  EXPECT_EQ(p.parent, base);
  VersionId cur = 0;
  ASSERT_TRUE(client.GetCurrentVersion(&cur));
  EXPECT_GT(cur, 0u);
  VertexId fresh = kInvalidVertex;
  ASSERT_NE(client.InsVertex(&fresh), kInvalidVersion);
  EXPECT_NE(fresh, kInvalidVertex);
  EXPECT_EQ(client.shed_count(), 0u);
}

TEST_F(RpcTestBase, InProcessAndRpcClientsShareOneSurface) {
  Boot({}, /*start_service=*/false);
  // The in-process client must open its session before the pipeline runs.
  SessionClient<> local(*sys_, service_->pipeline());
  service_->Start();
  RunClientSmoke(local, bfs_, /*base=*/10);

  RpcClient remote;
  ASSERT_TRUE(remote.Connect(socket_path_));
  RunClientSmoke(remote, bfs_, /*base=*/30);

  auto ref = ReferenceCompute<Bfs>(sys_->store(), 0);
  for (VertexId v = 0; v < kVertices; ++v) {
    ASSERT_EQ(sys_->GetValue(bfs_, v), ref[v]) << v;
  }
}

// A client that was just acked version v never reads an older current
// version: the single-writer lane publishes each version with a release
// store before the response that carries it, and GetCurrentVersion reads it
// with an acquire load. Both transports run at once, so the coordinator
// writes the version while client threads read it.
TEST_F(RpcTestBase, CurrentVersionCoversAckedWritesOnBothTransports) {
  Boot({}, /*start_service=*/false);
  SessionClient<> local(*sys_, service_->pipeline());
  service_->Start();
  RpcClient remote;
  ASSERT_TRUE(remote.Connect(socket_path_));

  // Each client extends its own chain from the root, so every insert
  // changes BFS results and commits a new version.
  auto drive = [](IClient& client, VertexId base) {
    VertexId prev = 0;
    for (VertexId v = base; v < base + 60; ++v) {
      VersionId acked = client.InsEdge(prev, v);
      ASSERT_NE(acked, kInvalidVersion);
      VersionId cur = 0;
      ASSERT_TRUE(client.GetCurrentVersion(&cur));
      ASSERT_GE(cur, acked) << "after inserting " << prev << "->" << v;
      prev = v;
    }
  };
  std::thread in_process([&] { drive(local, 1); });
  drive(remote, 100);
  in_process.join();
}

//===--- Correlation-ID demultiplexing (scripted out-of-order peer) ----------//

TEST(RpcClientProtocol, OutOfOrderResponsesMatchedByCorrelationId) {
  std::string path = "/tmp/risgraph_script_" + std::to_string(::getpid()) +
                     "_" + std::to_string(::time(nullptr)) + ".sock";
  int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(path.c_str());
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);

  // The scripted peer: ack the handshake, read four frames (three pipelined
  // submits + one blocking read), then answer them in REVERSE order — the
  // blocking read first, then the submits with a kBusy in the middle.
  std::thread peer([&] {
    int fd = ::accept(listener, nullptr, nullptr);
    ASSERT_GE(fd, 0);
    std::vector<uint8_t> frame;
    ASSERT_TRUE(ReadFrameRaw(fd, &frame));  // Hello
    ASSERT_GE(frame.size(), rpc::kRequestHeaderBytes);
    {
      std::vector<uint8_t> ack;
      rpc::Writer w(ack);
      rpc::WriteResponseHeader(w, 0, rpc::Status::kOk);
      w.U16(rpc::kProtocolVersion);
      ASSERT_TRUE(SendFrameRaw(fd, ack));
    }
    struct Seen {
      uint64_t corr;
      uint8_t op;
    };
    std::vector<Seen> seen;
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(ReadFrameRaw(fd, &frame));
      Seen s{};
      std::memcpy(&s.corr, frame.data(), 8);
      s.op = frame[8];
      seen.push_back(s);
    }
    EXPECT_EQ(seen[3].op, static_cast<uint8_t>(rpc::Op::kGetCurrentVersion));
    // Respond in reverse arrival order.
    {
      std::vector<uint8_t> resp;
      rpc::Writer w(resp);
      rpc::WriteResponseHeader(w, seen[3].corr, rpc::Status::kOk);
      w.U64(42);
      ASSERT_TRUE(SendFrameRaw(fd, resp));
    }
    const rpc::Status kStatuses[3] = {rpc::Status::kOk, rpc::Status::kBusy,
                                      rpc::Status::kOk};
    for (int i = 2; i >= 0; --i) {
      std::vector<uint8_t> resp;
      rpc::Writer w(resp);
      rpc::WriteResponseHeader(w, seen[i].corr, kStatuses[i]);
      ASSERT_TRUE(SendFrameRaw(fd, resp));
    }
    // Hold the connection open until the client is done asserting.
    ReadFrameRaw(fd, &frame);  // returns false at client Close
    ::close(fd);
  });

  RpcClient client(/*window=*/16);
  ASSERT_TRUE(client.Connect(path));
  Update u1 = Update::InsertEdge(1, 2, 1);
  Update u2 = Update::InsertEdge(3, 4, 1);
  Update u3 = Update::InsertEdge(5, 6, 1);
  ASSERT_EQ(client.SubmitAsync(u1), ClientStatus::kOk);
  ASSERT_EQ(client.SubmitAsync(u2), ClientStatus::kOk);
  ASSERT_EQ(client.SubmitAsync(u3), ClientStatus::kOk);
  VersionId cur = 0;
  ASSERT_TRUE(client.GetCurrentVersion(&cur));  // answered before the acks
  EXPECT_EQ(cur, 42u);
  ASSERT_TRUE(client.WaitAcks());
  EXPECT_EQ(client.shed_count(), 1u);  // the kBusy in the middle
  std::vector<Update> rejected = client.TakeRejected();
  ASSERT_EQ(rejected.size(), 1u);
  EXPECT_EQ(rejected[0], u2);  // matched by correlation ID, not order

  client.Close();
  peer.join();
  ::close(listener);
  ::unlink(path.c_str());
}

TEST(RpcClientProtocol, HandshakeRejectionSurfacesUnsupportedVersion) {
  std::string path = "/tmp/risgraph_script_rej_" +
                     std::to_string(::getpid()) + ".sock";
  int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(path.c_str());
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  std::thread peer([&] {
    int fd = ::accept(listener, nullptr, nullptr);
    ASSERT_GE(fd, 0);
    std::vector<uint8_t> frame;
    ASSERT_TRUE(ReadFrameRaw(fd, &frame));  // the Hello
    SendFrameRaw(
        fd, {static_cast<uint8_t>(rpc::Status::kUnsupportedVersion)});
    ::close(fd);
  });
  RpcClient client;
  EXPECT_FALSE(client.Connect(path));
  EXPECT_EQ(client.connect_status(), rpc::Status::kUnsupportedVersion);
  peer.join();
  ::close(listener);
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace risgraph
