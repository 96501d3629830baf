/**
 * @file
 * Tests for the graph store and the pointer-chasing pair (paper
 * Table IV shape): Biscuit beats Conv on latency-bound traversal,
 * Conv degrades under load, Biscuit does not, and both traversals
 * visit identical vertices.
 */

#include <gtest/gtest.h>

#include "graph/graph.h"
#include "host/host_system.h"
#include "host/load_gen.h"
#include "sisc/env.h"

namespace bisc::graph {
namespace {

GraphSpec
smallSpec()
{
    GraphSpec s;
    s.vertices = 2000;
    s.avg_degree = 8;
    s.seed = 99;
    return s;
}

class GraphTest : public ::testing::Test
{
  protected:
    GraphTest()
        : env_(ssd::testConfig(), 1),
          host_(env_.array),
          graph_(GraphStore::build(env_.fs, "/data/graph", smallSpec()))
    {}

    sisc::Env env_;
    host::HostSystem host_;
    GraphStore graph_;
};

TEST_F(GraphTest, BuildAndOpenRoundTrip)
{
    EXPECT_EQ(graph_.vertices(), 2000u);
    auto reopened = GraphStore::open(env_.fs, "/data/graph");
    EXPECT_EQ(reopened.vertices(), 2000u);
    EXPECT_EQ(graph_.fileSize(),
              RecordLayout::kHeaderSize +
                  2000 * RecordLayout::kRecordSize);
}

TEST_F(GraphTest, OpenRejectsNonGraphFiles)
{
    const char junk[] = "not a graph at all, sorry";
    env_.fs.populate("/data/junk", junk, sizeof(junk));
    EXPECT_DEATH(GraphStore::open(env_.fs, "/data/junk"),
                 "not a graph store");
}

TEST_F(GraphTest, EveryVertexHasValidNeighbors)
{
    for (std::uint64_t v = 0; v < graph_.vertices(); v += 97) {
        auto nbrs = graph_.neighborsOf(v);
        ASSERT_FALSE(nbrs.empty()) << "vertex " << v;
        EXPECT_LE(nbrs.size(), RecordLayout::kMaxNeighbors);
        for (auto n : nbrs)
            EXPECT_LT(n, graph_.vertices());
    }
}

TEST_F(GraphTest, DegreesAreSkewed)
{
    // A power-law-ish degree distribution has many low-degree and a
    // few high-degree vertices.
    std::uint64_t low = 0, high = 0;
    for (std::uint64_t v = 0; v < graph_.vertices(); ++v) {
        auto d = graph_.neighborsOf(v).size();
        low += (d <= 4);
        high += (d >= 12);
    }
    EXPECT_GT(low, graph_.vertices() / 4);
    EXPECT_GT(high, 0u);
    EXPECT_LT(high, low);
}

TEST_F(GraphTest, ConvAndBiscuitVisitIdenticalVertices)
{
    ChaseSpec spec;
    spec.walks = 4;
    spec.hops = 50;
    ChaseResult conv, ndp;
    env_.run([&] {
        conv = chaseConv(host_, graph_, spec);
        ndp = chaseBiscuit(env_.runtime, graph_, spec);
    });
    EXPECT_EQ(conv.hops, spec.walks * spec.hops);
    EXPECT_EQ(ndp.hops, conv.hops);
    EXPECT_EQ(ndp.visited_sum, conv.visited_sum);
}

TEST_F(GraphTest, BiscuitChaseIsFaster)
{
    ChaseSpec spec;
    spec.walks = 4;
    spec.hops = 400;  // amortize module-load + control-plane setup
    ChaseResult conv, ndp;
    env_.run([&] {
        conv = chaseConv(host_, graph_, spec);
        ndp = chaseBiscuit(env_.runtime, graph_, spec);
    });
    EXPECT_LT(ndp.elapsed, conv.elapsed);
    // Paper Table IV: ~11% gain. Expect at least 5% and at most 25%
    // (the gain is read-latency bound, not bandwidth bound).
    double gain = static_cast<double>(conv.elapsed) /
                  static_cast<double>(ndp.elapsed);
    EXPECT_GT(gain, 1.05);
    EXPECT_LT(gain, 1.30);
}

TEST_F(GraphTest, ConvDegradesUnderLoadBiscuitDoesNot)
{
    ChaseSpec spec;
    spec.walks = 2;
    spec.hops = 100;
    ChaseResult conv0, conv24, ndp0, ndp24;
    env_.run([&] {
        conv0 = chaseConv(host_, graph_, spec);
        ndp0 = chaseBiscuit(env_.runtime, graph_, spec);
        host::StreamBench load(host_, 24);
        conv24 = chaseConv(host_, graph_, spec);
        ndp24 = chaseBiscuit(env_.runtime, graph_, spec);
    });
    double conv_ratio = static_cast<double>(conv24.elapsed) /
                        static_cast<double>(conv0.elapsed);
    double ndp_ratio = static_cast<double>(ndp24.elapsed) /
                       static_cast<double>(ndp0.elapsed);
    EXPECT_GT(conv_ratio, 1.05);  // Conv feels the load
    EXPECT_NEAR(ndp_ratio, 1.0, 0.02);  // Biscuit does not
}

}  // namespace
}  // namespace bisc::graph
