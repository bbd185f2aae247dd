// Stress and edge-case tests of the cluster runtime: ordering guarantees
// under load, large payloads, wide clusters, degenerate sizes, and the
// cost model's arithmetic at the boundaries.
#include <gtest/gtest.h>

#include <numeric>

#include "base/rng.h"
#include "net/cluster.h"
#include "pdm/typed_io.h"
#include "test_params.h"

namespace paladin::net {
namespace {

TEST(NetStress, FifoHoldsUnderThousandsOfMessages) {
  Cluster cluster(ClusterConfig::homogeneous(2));
  auto out = cluster.run([](NodeContext& ctx) -> u64 {
    constexpr u64 kCount = 5000;
    if (ctx.rank() == 0) {
      for (u64 i = 0; i < kCount; ++i) {
        ctx.comm().send_value<u64>(1, 3, i);
      }
      return 0;
    }
    u64 violations = 0;
    for (u64 i = 0; i < kCount; ++i) {
      if (ctx.comm().recv_value<u64>(0, 3) != i) ++violations;
    }
    return violations;
  });
  EXPECT_EQ(out.results[1], 0u);
}

TEST(NetStress, InterleavedTagsKeepPerTagOrder) {
  Cluster cluster(ClusterConfig::homogeneous(2));
  auto out = cluster.run([](NodeContext& ctx) -> u64 {
    constexpr u64 kCount = 500;
    if (ctx.rank() == 0) {
      for (u64 i = 0; i < kCount; ++i) {
        ctx.comm().send_value<u64>(1, static_cast<int>(i % 3), i);
      }
      return 0;
    }
    // Drain tag by tag: within each tag the values must ascend.
    u64 violations = 0;
    for (int tag = 0; tag < 3; ++tag) {
      u64 prev = 0;
      bool first = true;
      for (u64 i = 0; i < kCount / 3 + (tag < static_cast<int>(kCount % 3));
           ++i) {
        const u64 v = ctx.comm().recv_value<u64>(0, tag);
        if (!first && v <= prev) ++violations;
        prev = v;
        first = false;
      }
    }
    return violations;
  });
  EXPECT_EQ(out.results[1], 0u);
}

TEST(NetStress, MegabytePayloadRoundTrips) {
  Cluster cluster(ClusterConfig::homogeneous(2));
  auto out = cluster.run([](NodeContext& ctx) -> bool {
    std::vector<u64> big(1 << 17);  // 1 MiB
    if (ctx.rank() == 0) {
      Xoshiro256 rng(5);
      for (auto& x : big) x = rng.next();
      ctx.comm().send_records<u64>(1, 1, big);
      // Echo check.
      const auto echo = ctx.comm().recv_records<u64>(1, 2);
      return echo == big;
    }
    auto data = ctx.comm().recv_records<u64>(0, 1);
    ctx.comm().send_records<u64>(0, 2, data);
    return true;
  });
  EXPECT_TRUE(out.results[0]);
}

TEST(NetStress, ZeroLengthMessagesDeliver) {
  Cluster cluster(ClusterConfig::homogeneous(2));
  auto out = cluster.run([](NodeContext& ctx) -> bool {
    if (ctx.rank() == 0) {
      ctx.comm().send_records<u32>(1, 9, std::span<const u32>());
      return true;
    }
    return ctx.comm().recv_records<u32>(0, 9).empty();
  });
  EXPECT_TRUE(out.results[1]);
}

TEST(NetStress, SixteenNodeCollectives) {
  Cluster cluster(ClusterConfig::homogeneous(16));
  auto out = cluster.run([](NodeContext& ctx) -> bool {
    auto& comm = ctx.comm();
    const u64 sum = comm.allreduce_sum(ctx.rank() + 1ull);
    if (sum != 136) return false;  // 1+2+...+16

    std::vector<u32> mine = {ctx.rank()};
    const auto all = comm.gather_records<u32>(std::span<const u32>(mine), 5);
    if (ctx.rank() == 5) {
      for (u32 i = 0; i < 16; ++i) {
        if (all[i] != i) return false;
      }
    }
    const u32 token = comm.bcast_value<u32>(
        ctx.rank() == 5 ? 777u : 0u, 5);
    if (token != 777) return false;
    comm.barrier();
    return true;
  });
  for (bool ok : out.results) EXPECT_TRUE(ok);
}

TEST(NetStress, SingleNodeClusterDegenerates) {
  Cluster cluster(ClusterConfig::homogeneous(1));
  auto out = cluster.run([](NodeContext& ctx) -> bool {
    auto& comm = ctx.comm();
    comm.barrier();
    if (comm.allreduce_sum(7) != 7) return false;
    if (comm.allreduce_max(3.5) != 3.5) return false;
    std::vector<u32> mine = {1, 2};
    if (comm.gather_records<u32>(std::span<const u32>(mine), 0) != mine) {
      return false;
    }
    auto in = comm.alltoall_records<u32>({{9u}});
    return in.size() == 1 && in[0] == std::vector<u32>{9u};
  });
  EXPECT_TRUE(out.results[0]);
}

TEST(NetStress, ClocksNeverGoBackwards) {
  // Sample the clock around every operation of a busy exchange.
  Cluster cluster(ClusterConfig::homogeneous(4));
  auto out = cluster.run([](NodeContext& ctx) -> bool {
    auto& comm = ctx.comm();
    double last = ctx.clock().now();
    auto check = [&]() {
      const double now = ctx.clock().now();
      const bool ok = now >= last;
      last = now;
      return ok;
    };
    bool ok = true;
    for (int round = 0; round < 20; ++round) {
      ctx.on_compares(100);
      ok = ok && check();
      std::vector<std::vector<u32>> outgoing(4);
      for (u32 j = 0; j < 4; ++j) outgoing[j].assign(10, ctx.rank());
      comm.alltoall_records<u32>(std::move(outgoing));
      ok = ok && check();
      comm.barrier();
      ok = ok && check();
    }
    return ok;
  });
  for (bool ok : out.results) EXPECT_TRUE(ok);
}

TEST(NetStress, PerMessageOverheadScalesSmallMessageCost) {
  // 1000 x 4-byte messages must cost ~1000x the per-message overhead,
  // while one 4000-byte message costs ~one overhead.
  ClusterConfig cfg = ClusterConfig::homogeneous(2);
  cfg.cost = CostModel::free_compute();
  auto run_with = [&](u64 messages, u64 per_message) {
    Cluster cluster(cfg);
    auto out = cluster.run([&](NodeContext& ctx) -> double {
      if (ctx.rank() == 0) {
        std::vector<u32> chunk(per_message, 7u);
        for (u64 i = 0; i < messages; ++i) {
          ctx.comm().send_records<u32>(1, 1, chunk);
        }
        return 0;
      }
      for (u64 i = 0; i < messages; ++i) {
        ctx.comm().recv_records<u32>(0, 1);
      }
      return ctx.clock().now();
    });
    return out.results[1];
  };
  const double many_small = run_with(1000, 1);
  const double one_big = run_with(1, 1000);
  EXPECT_GT(many_small, 100 * one_big);
}

TEST(NetStress, DiskCostIndependentOfSpeedWhenDisabled) {
  ClusterConfig cfg;
  cfg.perf = {1, 4};
  cfg.cost.scale_disk_with_speed = false;
  cfg.cost.per_compare_seconds = 0;
  cfg.cost.per_move_seconds = 0;
  Cluster cluster(cfg);
  auto out = cluster.run([](NodeContext& ctx) -> double {
    std::vector<u32> data(10000);
    pdm::write_file<u32>(ctx.disk(), "f", std::span<const u32>(data));
    return ctx.clock().now();
  });
  EXPECT_NEAR(out.results[0], out.results[1], 1e-12);
}

TEST(NetStress, RepeatedRunsOnOneClusterObjectAreIndependent) {
  Cluster cluster(ClusterConfig::homogeneous(3));
  for (int round = 0; round < 3; ++round) {
    auto out = cluster.run([](NodeContext& ctx) -> double {
      ctx.comm().barrier();
      return ctx.clock().now();
    });
    // Clocks start fresh each run (new NodeContexts).
    for (double t : out.results) EXPECT_LT(t, 1.0);
  }
}

// ---------------------------------------------------------------------
// Non-blocking mailbox primitives and credit-based flow control
// ---------------------------------------------------------------------

TEST(NetStress, MailboxTryReceiveAndPendingBytes) {
  Mailbox box;
  EXPECT_FALSE(box.try_receive(kAnySource, kAnyTag).has_value());

  Packet p;
  p.source = 3;
  p.tag = 7;
  p.payload = {1, 2, 3, 4};
  box.deliver(p);
  EXPECT_EQ(box.pending_bytes(), 4u);
  EXPECT_EQ(box.max_pending_bytes(), 4u);

  EXPECT_FALSE(box.try_receive(3, 8).has_value());  // wrong tag
  EXPECT_FALSE(box.try_receive(2, 7).has_value());  // wrong source
  auto got = box.try_receive(3, 7);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload.size(), 4u);
  EXPECT_EQ(box.pending_bytes(), 0u);
  EXPECT_EQ(box.max_pending_bytes(), 4u);  // high-water mark sticks

  box.poison();
  EXPECT_THROW(box.try_receive(kAnySource, kAnyTag), MailboxPoisoned);
}

TEST(NetStress, SlowReceiverInFlightBytesStayWithinCreditWindow) {
  // A manual credit-window exchange against a deliberately slow consumer:
  // the sender may have at most W un-acknowledged chunks in flight, so the
  // receiver's inbox can never hold more than W data chunks no matter how
  // far it lags.  (Before flow control, the eager sender would park all
  // kChunks·kBytes here at once.)
  constexpr u64 kChunks = test_params::kFlowChunks;
  constexpr u64 kBytes = test_params::kFlowChunkBytes;
  constexpr u64 kWindow = test_params::kFlowWindow;
  constexpr int kData = test_params::kFlowDataTag;
  constexpr int kAck = test_params::kFlowAckTag;

  Cluster cluster(ClusterConfig::homogeneous(2));
  auto out = cluster.run([&](NodeContext& ctx) -> u64 {
    if (ctx.rank() == 0) {
      std::vector<u8> chunk(kBytes, 0xab);
      for (u64 k = 0; k < kChunks; ++k) {
        if (k >= kWindow) {
          ctx.comm().recv_packet(1, kAck);  // credit for chunk k − W
        }
        ctx.comm().send_bytes(1, kData, std::span<const u8>(chunk));
      }
      return 0;
    }
    for (u64 k = 0; k < kChunks; ++k) {
      // Lag behind the sender: drain other work before touching the inbox.
      volatile int sink = 0;
      for (int spin = 0; spin < 20000; ++spin) sink = spin;
      (void)sink;
      Packet p = ctx.comm().recv_packet(0, kData);
      EXPECT_EQ(p.payload.size(), kBytes);
      const u8 token = 0;
      ctx.comm().send_bytes(0, kAck, std::span<const u8>(&token, 1));
    }
    return ctx.comm().inbox_peak_bytes();
  });
  EXPECT_LE(out.results[1], kWindow * kBytes);
  EXPECT_GT(out.results[1], 0u);
}

// Every charge of a send and a receive lands on the node clock: a lone
// message costs the sender overhead + wire time, the receiver the later of
// its own clock and the arrival plus its overhead, and a self-send is free
// on both sides.
TEST(NetStress, SendAndReceiveChargeTheNodeClock) {
  ClusterConfig config = ClusterConfig::homogeneous(2);
  const NetworkModel& net = config.network;
  constexpr u64 kBytes = 1000;
  Cluster cluster(config);
  auto out = cluster.run([&](NodeContext& ctx) -> double {
    const std::vector<u8> payload(kBytes, 1);
    const u32 rank = ctx.rank();
    ctx.comm().send_bytes(rank, 5, std::span<const u8>(payload));
    EXPECT_EQ(ctx.comm().recv_packet(rank, 5).payload.size(), kBytes);
    EXPECT_EQ(ctx.clock().now(), 0.0);  // the self-send cost nothing
    if (rank == 0) {
      ctx.comm().send_bytes(1, 6, std::span<const u8>(payload));
    } else {
      ctx.comm().recv_packet(0, 6);
    }
    return ctx.clock().now();
  });
  const double wire = static_cast<double>(kBytes) /
                      net.bandwidth_bytes_per_second;
  EXPECT_EQ(out.results[0], net.per_message_overhead_seconds + wire);
  EXPECT_EQ(out.results[1], out.results[0] + net.latency_seconds +
                                net.per_message_overhead_seconds);
}

}  // namespace
}  // namespace paladin::net
