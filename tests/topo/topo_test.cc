// Tests for src/topo/: sysfs discovery against canned trees, the scripted
// source and its script parser, the Topology distance model, and the three
// consumers it places work or memory for -- the steal scan, failover
// parking, and the PerCorePool's node-local arenas. The flat
// cases pin the degradation contract: no topology and a flat topology must
// behave byte-for-byte like the legacy topology-blind code.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/balance/balance_policy.h"
#include "src/mem/conn_pool.h"
#include "src/steer/flow_director.h"
#include "src/topo/scripted_source.h"
#include "src/topo/topology.h"

namespace affinity {
namespace topo {
namespace {

// A throwaway directory tree for canned sysfs layouts. Tracks everything it
// creates and removes it in reverse order on destruction.
class TempTree {
 public:
  TempTree() {
    char tmpl[] = "/tmp/topo_test_XXXXXX";
    char* dir = mkdtemp(tmpl);
    EXPECT_NE(nullptr, dir);
    root_ = dir != nullptr ? dir : "/tmp";
  }

  ~TempTree() {
    for (size_t i = files_.size(); i > 0; --i) {
      unlink(files_[i - 1].c_str());
    }
    for (size_t i = dirs_.size(); i > 0; --i) {
      rmdir(dirs_[i - 1].c_str());
    }
    rmdir(root_.c_str());
  }

  const std::string& root() const { return root_; }

  // Creates `rel` (and every missing parent) under the root.
  void MkDirs(const std::string& rel) {
    std::string path = root_;
    size_t start = 0;
    while (start < rel.size()) {
      size_t slash = rel.find('/', start);
      if (slash == std::string::npos) {
        slash = rel.size();
      }
      path += "/" + rel.substr(start, slash - start);
      if (mkdir(path.c_str(), 0755) == 0) {
        dirs_.push_back(path);
      }
      start = slash + 1;
    }
  }

  void WriteFile(const std::string& rel, const std::string& content) {
    size_t slash = rel.rfind('/');
    if (slash != std::string::npos) {
      MkDirs(rel.substr(0, slash));
    }
    std::string path = root_ + "/" + rel;
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(nullptr, f) << path;
    std::fwrite(content.data(), 1, content.size(), f);
    std::fclose(f);
    files_.push_back(path);
  }

 private:
  std::string root_;
  std::vector<std::string> dirs_;
  std::vector<std::string> files_;
};

// Canned 2-socket, SMT tree: cpus {0,1} and {2,3} are hyperthread pairs
// sharing node 0 / LLC "0-3"; {4,5} and {6,7} the same on node 1.
void WriteTwoSocketSmtTree(TempTree* tree) {
  for (int cpu = 0; cpu < 8; ++cpu) {
    std::string dir = "devices/system/cpu/cpu" + std::to_string(cpu);
    int pair = cpu / 2;
    std::string siblings =
        std::to_string(2 * pair) + "-" + std::to_string(2 * pair + 1);
    tree->WriteFile(dir + "/topology/thread_siblings_list", siblings + "\n");
    tree->WriteFile(dir + "/topology/physical_package_id",
                    std::string(cpu < 4 ? "0" : "1") + "\n");
    tree->WriteFile(dir + "/cache/index3/shared_cpu_list",
                    std::string(cpu < 4 ? "0-3" : "4-7") + "\n");
  }
  tree->WriteFile("devices/system/node/node0/cpulist", "0-3\n");
  tree->WriteFile("devices/system/node/node1/cpulist", "4-7\n");
}

TEST(ParseCpuListTest, RangesSinglesAndCommas) {
  std::vector<int> cpus;
  ASSERT_TRUE(ParseCpuList("0-3,8-11\n", &cpus));
  EXPECT_EQ((std::vector<int>{0, 1, 2, 3, 8, 9, 10, 11}), cpus);
  ASSERT_TRUE(ParseCpuList("5", &cpus));
  EXPECT_EQ((std::vector<int>{5}), cpus);
  ASSERT_TRUE(ParseCpuList("0,2,4", &cpus));
  EXPECT_EQ((std::vector<int>{0, 2, 4}), cpus);
  // An empty list is valid sysfs (a node with no cpus).
  ASSERT_TRUE(ParseCpuList("\n", &cpus));
  EXPECT_TRUE(cpus.empty());
}

TEST(ParseCpuListTest, RejectsMalformedInput) {
  std::vector<int> cpus;
  EXPECT_FALSE(ParseCpuList("abc", &cpus));
  EXPECT_FALSE(ParseCpuList("3-1", &cpus));   // descending range
  EXPECT_FALSE(ParseCpuList("1,", &cpus));    // trailing comma
  EXPECT_FALSE(ParseCpuList("1;2", &cpus));   // wrong separator
}

TEST(SysfsSourceTest, DiscoversTwoSocketSmtTree) {
  TempTree tree;
  WriteTwoSocketSmtTree(&tree);
  std::unique_ptr<TopologySource> source = MakeSysfsTopologySource(tree.root());
  Topology topo = Topology::Discover(source.get(), 8);

  EXPECT_FALSE(topo.flat());
  EXPECT_EQ(TopoOrigin::kSysfs, topo.origin());
  EXPECT_EQ(2, topo.num_nodes());
  EXPECT_EQ(2, topo.num_llc_domains());
  EXPECT_EQ(DistClass::kSmtSibling, topo.Between(0, 1));
  EXPECT_EQ(DistClass::kSameLlc, topo.Between(0, 2));
  EXPECT_EQ(DistClass::kCrossNode, topo.Between(0, 4));
  EXPECT_EQ(DistClass::kSelf, topo.Between(3, 3));

  // Core 0's peers, nearest class first: its hyperthread, then the rest of
  // its LLC, then the remote socket -- ascending within each class.
  const std::vector<std::vector<CoreId>>& classes = topo.PeerClasses(0);
  ASSERT_EQ(3u, classes.size());
  EXPECT_EQ((std::vector<CoreId>{1}), classes[0]);
  EXPECT_EQ((std::vector<CoreId>{2, 3}), classes[1]);
  EXPECT_EQ((std::vector<CoreId>{4, 5, 6, 7}), classes[2]);
}

TEST(SysfsSourceTest, SingleNodeTreeHasOneClassPerDistance) {
  TempTree tree;
  for (int cpu = 0; cpu < 4; ++cpu) {
    std::string dir = "devices/system/cpu/cpu" + std::to_string(cpu);
    tree.WriteFile(dir + "/topology/thread_siblings_list",
                   std::to_string(cpu) + "\n");
    tree.WriteFile(dir + "/cache/index3/shared_cpu_list", "0-3\n");
  }
  std::unique_ptr<TopologySource> source = MakeSysfsTopologySource(tree.root());
  Topology topo = Topology::Discover(source.get(), 4);

  EXPECT_EQ(TopoOrigin::kSysfs, topo.origin());
  EXPECT_EQ(1, topo.num_nodes());
  EXPECT_EQ(1, topo.num_llc_domains());
  // Every peer is same-LLC: one class, ascending -- the legacy round-robin.
  const std::vector<std::vector<CoreId>>& classes = topo.PeerClasses(2);
  ASSERT_EQ(1u, classes.size());
  EXPECT_EQ((std::vector<CoreId>{0, 1, 3}), classes[0]);
  EXPECT_EQ(DistClass::kSameLlc, topo.Between(0, 3));
}

TEST(SysfsSourceTest, MissingLlcInfoFallsBackToNodeBoundary) {
  // Hybrid parts and stripped trees have no cache/index3: the node boundary
  // becomes the cache-distance proxy, one LLC domain per node.
  TempTree tree;
  for (int cpu = 0; cpu < 4; ++cpu) {
    std::string dir = "devices/system/cpu/cpu" + std::to_string(cpu);
    tree.WriteFile(dir + "/topology/thread_siblings_list",
                   std::to_string(cpu) + "\n");
  }
  tree.WriteFile("devices/system/node/node0/cpulist", "0-1\n");
  tree.WriteFile("devices/system/node/node1/cpulist", "2-3\n");
  std::unique_ptr<TopologySource> source = MakeSysfsTopologySource(tree.root());
  Topology topo = Topology::Discover(source.get(), 4);

  EXPECT_FALSE(topo.flat());
  EXPECT_EQ(2, topo.num_nodes());
  EXPECT_EQ(2, topo.num_llc_domains());
  EXPECT_EQ(topo.llc_of(0), topo.llc_of(1));
  EXPECT_NE(topo.llc_of(0), topo.llc_of(2));
  EXPECT_EQ(DistClass::kSameLlc, topo.Between(0, 1));
  EXPECT_EQ(DistClass::kCrossNode, topo.Between(0, 2));
}

TEST(SysfsSourceTest, MalformedTreeDegradesToFlatWithReason) {
  TempTree tree;
  tree.WriteFile("devices/system/cpu/cpu0/topology/thread_siblings_list", "0\n");
  tree.WriteFile("devices/system/cpu/cpu1/topology/thread_siblings_list", "1\n");
  tree.WriteFile("devices/system/node/node0/cpulist", "zero-one\n");
  std::unique_ptr<TopologySource> source = MakeSysfsTopologySource(tree.root());
  Topology topo = Topology::Discover(source.get(), 2);

  // Degradation, not failure: flat model, and the reason says what broke.
  EXPECT_TRUE(topo.flat());
  EXPECT_EQ(TopoOrigin::kFlat, topo.origin());
  EXPECT_NE(std::string::npos, topo.flat_reason().find("malformed"))
      << topo.flat_reason();
  EXPECT_EQ(1, topo.num_nodes());
  ASSERT_EQ(1u, topo.PeerClasses(0).size());
  EXPECT_EQ((std::vector<CoreId>{1}), topo.PeerClasses(0)[0]);
}

TEST(SysfsSourceTest, EmptyTreeDegradesToFlatWithReason) {
  TempTree tree;
  std::unique_ptr<TopologySource> source = MakeSysfsTopologySource(tree.root());
  Topology topo = Topology::Discover(source.get(), 4);
  EXPECT_TRUE(topo.flat());
  EXPECT_NE(std::string::npos, topo.flat_reason().find("no cpu topology"))
      << topo.flat_reason();
}

TEST(ScriptedSourceTest, ParsesScriptWithCommentsAndSmt) {
  TopoMap map;
  std::string error;
  ASSERT_TRUE(ParseTopologyScript("# two sockets, one SMT pair\n"
                                  "core 0 node 0 llc 0 smt 0\n"
                                  "core 1 node 0 llc 0 smt 0\n"
                                  "\n"
                                  "core 2 node 1 llc 1  # remote socket\n"
                                  "core 3 node 1 llc 1\n",
                                  &map, &error))
      << error;
  ASSERT_EQ(4u, map.cores.size());
  Topology topo = Topology::FromMap(map, TopoOrigin::kScripted);
  EXPECT_EQ(DistClass::kSmtSibling, topo.Between(0, 1));
  EXPECT_EQ(DistClass::kCrossNode, topo.Between(1, 2));
  EXPECT_EQ(DistClass::kSameLlc, topo.Between(2, 3));
}

TEST(ScriptedSourceTest, RejectsMalformedScripts) {
  TopoMap map;
  std::string error;
  EXPECT_FALSE(ParseTopologyScript("cpu 0 node 0\n", &map, &error));
  EXPECT_NE(std::string::npos, error.find("expected 'core'")) << error;
  EXPECT_FALSE(ParseTopologyScript("core 0 node\n", &map, &error));
  EXPECT_FALSE(ParseTopologyScript("core 0 socket 1\n", &map, &error));
  EXPECT_FALSE(ParseTopologyScript("core 0 node 0\ncore 0 node 1\n", &map, &error));
  EXPECT_NE(std::string::npos, error.find("twice")) << error;
  // A gap in the id space is a misdescribed machine, not a sparse one.
  EXPECT_FALSE(ParseTopologyScript("core 0 node 0\ncore 2 node 0\n", &map, &error));
  EXPECT_NE(std::string::npos, error.find("missing")) << error;
  EXPECT_FALSE(ParseTopologyScript("# nothing\n", &map, &error));
}

TEST(ScriptedSourceTest, SourceDeclinesWhenMapIsTooSmall) {
  ScriptedTopologySource source(TwoSocketMap(4));
  TopoMap out;
  std::string why;
  EXPECT_FALSE(source.Discover(8, &out, &why));
  EXPECT_NE(std::string::npos, why.find("4 cores")) << why;
  ASSERT_TRUE(source.Discover(4, &out, &why));
  EXPECT_EQ(4u, out.cores.size());
  // Discover through the Topology wrapper: declining degrades to flat.
  Topology flat = Topology::Discover(&source, 8);
  EXPECT_TRUE(flat.flat());
  EXPECT_FALSE(flat.flat_reason().empty());
}

// --- the steal scan's victim order ---

TEST(BalancePolicyTopoTest, VictimClassesFollowTheDistanceModel) {
  Topology topo = Topology::FromMap(TwoSocketMap(4), TopoOrigin::kScripted);
  BalancePolicy policy(4, 8, BalanceTuning{}, &topo);
  const std::vector<std::vector<CoreId>>& classes = policy.VictimClasses(0);
  ASSERT_EQ(2u, classes.size());
  EXPECT_EQ((std::vector<CoreId>{1}), classes[0]);       // same LLC first
  EXPECT_EQ((std::vector<CoreId>{2, 3}), classes[1]);    // then remote socket
  const std::vector<std::vector<CoreId>>& remote = policy.VictimClasses(3);
  ASSERT_EQ(2u, remote.size());
  EXPECT_EQ((std::vector<CoreId>{2}), remote[0]);
  EXPECT_EQ((std::vector<CoreId>{0, 1}), remote[1]);
}

TEST(BalancePolicyTopoTest, SameLlcVictimBeatsRemoteEveryTime) {
  Topology topo = Topology::FromMap(TwoSocketMap(4), TopoOrigin::kScripted);
  BalancePolicy policy(4, 8, BalanceTuning{}, &topo);
  policy.SetForcedBusy(1, true);  // same LLC as thief 0
  policy.SetForcedBusy(2, true);  // remote socket
  // The legacy round-robin would alternate 1, 2, 1, 2...; the distance
  // order re-picks the same-LLC victim as long as it stays busy.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(1, policy.PickBusyVictim(0)) << "pick " << i;
  }
  // Only when the whole nearer class goes quiet does the scan pay the
  // cross-socket steal.
  policy.SetForcedBusy(1, false);
  EXPECT_EQ(2, policy.PickBusyVictim(0));
}

// The polling wakeup's choice, one function for the simulator and the
// reactors: the nearest peer first, busy peers skipped, and only a peer
// with a waiter. It moves no cursor, so asking twice gives one answer.
TEST(BalancePolicyTopoTest, PollerToWakeIsTheNearestNonBusyWaiter) {
  Topology topo = Topology::FromMap(TwoSocketMap(4), TopoOrigin::kScripted);
  BalancePolicy policy(4, 8, BalanceTuning{}, &topo);
  bool parked[4] = {true, true, true, true};
  auto is_parked = [&parked](CoreId core) { return parked[core]; };
  EXPECT_EQ(1, policy.PickPollerToWake(0, is_parked));  // the LLC-mate first
  EXPECT_EQ(1, policy.PickPollerToWake(0, is_parked));
  EXPECT_EQ(2, policy.PickPollerToWake(3, is_parked));
  policy.SetForcedBusy(1, true);
  EXPECT_EQ(2, policy.PickPollerToWake(0, is_parked));  // busy mate: remote socket
  parked[2] = false;
  EXPECT_EQ(3, policy.PickPollerToWake(0, is_parked));
  policy.SetForcedBusy(3, true);
  EXPECT_EQ(kNoCore, policy.PickPollerToWake(0, is_parked));
  policy.SetForcedBusy(1, false);
  EXPECT_EQ(1, policy.PickPollerToWake(0, is_parked));
  EXPECT_EQ(0, policy.PickPollerToWake(2, is_parked));  // core 2's mate is busy
}

TEST(BalancePolicyTopoTest, FlatTopologyMatchesNoTopologyScanExactly) {
  // The degradation contract: a flat Topology and no topology at all must
  // produce the same victim sequence for every busy pattern and cursor
  // state -- the legacy scan, byte for byte.
  const int kCores = 5;
  Topology flat = Topology::Flat(kCores, "test");
  BalancePolicy with_flat(kCores, 8, BalanceTuning{}, &flat);
  BalancePolicy without(kCores, 8, BalanceTuning{}, nullptr);
  // Both policies see the same busy pattern.
  auto set_forced = [&](CoreId core, bool forced) {
    with_flat.SetForcedBusy(core, forced);
    without.SetForcedBusy(core, forced);
  };
  // A busy pattern that shifts every few picks, exercising cursor wrap.
  for (int round = 0; round < 40; ++round) {
    for (int c = 0; c < kCores; ++c) {
      set_forced(c, ((round >> (c % 3)) & 1) != 0);
    }
    for (CoreId thief = 0; thief < kCores; ++thief) {
      bool thief_busy = without.IsBusy(thief);
      set_forced(thief, false);
      EXPECT_EQ(without.PickBusyVictim(thief), with_flat.PickBusyVictim(thief))
          << "round " << round << " thief " << thief;
      set_forced(thief, thief_busy);
    }
  }
}

// --- failover parking ---

TEST(FlowDirectorTopoTest, FailoverParksOnTheSameLlcPeer) {
  Topology topo = Topology::FromMap(TwoSocketMap(4), TopoOrigin::kScripted);
  steer::FlowDirectorConfig config;
  config.num_groups = 16;
  config.num_cores = 4;
  config.topo = &topo;
  steer::FlowDirector director(config);
  BalancePolicy policy(4, 8);

  // Core 1 dies; core 0 shares its LLC and is idle, so every group parks
  // there -- nothing pays the cross-socket park.
  policy.SetForcedBusy(1, true);
  steer::ParkDistances parks = director.FailOverCore(1, &policy);
  ASSERT_EQ(4u, parks.total());
  for (uint32_t g = 0; g < 16; ++g) {
    if (g % 4 == 1) {
      EXPECT_EQ(0, director.table().OwnerOf(g)) << "group " << g;
    }
  }
  EXPECT_EQ(4u, parks.same_llc);
  EXPECT_EQ(0u, parks.cross_llc);
  EXPECT_EQ(0u, parks.cross_node);

  // Recovery brings all four home.
  policy.SetForcedBusy(1, false);
  EXPECT_EQ(4u, director.RecoverCore(1));
  EXPECT_EQ(4, director.table().OwnedBy(1));
}

TEST(FlowDirectorTopoTest, BusySameLlcPeerPushesParksAcrossTheSocket) {
  Topology topo = Topology::FromMap(TwoSocketMap(4), TopoOrigin::kScripted);
  steer::FlowDirectorConfig config;
  config.num_groups = 16;
  config.num_cores = 4;
  config.topo = &topo;
  steer::FlowDirector director(config);
  BalancePolicy policy(4, 8);

  // The whole near class is busy: the groups go remote rather than bury
  // the overloaded LLC-mate, rotating over both remote survivors.
  policy.SetForcedBusy(1, true);
  policy.OnEnqueueBatch(0, 1, 8);
  ASSERT_TRUE(policy.IsBusy(0));
  steer::ParkDistances parks = director.FailOverCore(1, &policy);
  ASSERT_EQ(4u, parks.total());
  int on_node1 = 0;
  for (uint32_t g = 0; g < 16; ++g) {
    if (g % 4 == 1) {
      CoreId owner = director.table().OwnerOf(g);
      EXPECT_NE(0, owner) << "group " << g;
      EXPECT_NE(1, owner) << "group " << g;
      ++on_node1;
    }
  }
  EXPECT_EQ(4, on_node1);
  EXPECT_EQ(0u, parks.same_llc);
  EXPECT_EQ(4u, parks.cross_node);
}

TEST(FlowDirectorTopoTest, EveryoneBusyStillParksOnTheNearestClass) {
  Topology topo = Topology::FromMap(TwoSocketMap(4), TopoOrigin::kScripted);
  steer::FlowDirectorConfig config;
  config.num_groups = 16;
  config.num_cores = 4;
  config.topo = &topo;
  steer::FlowDirector director(config);
  BalancePolicy policy(4, 8);
  for (int c = 0; c < 4; ++c) {
    policy.SetForcedBusy(c, true);
  }
  // A dead owner is worse than a loaded one: with no idle survivor
  // anywhere, the nearest class absorbs the groups anyway.
  steer::ParkDistances parks = director.FailOverCore(1, &policy);
  ASSERT_EQ(4u, parks.total());
  for (uint32_t g = 0; g < 16; ++g) {
    if (g % 4 == 1) {
      EXPECT_EQ(0, director.table().OwnerOf(g)) << "group " << g;
    }
  }
  EXPECT_EQ(4u, parks.same_llc);
}

// --- the pool's node-local arenas ---

TEST(ConnPoolTopoTest, ArenasStayRecyclableAcrossDistanceClasses) {
  // Free-from-everywhere then re-alloc everything: the remote-free stacks
  // reclaim into the owner's freelist regardless of distance class.
  Topology topo = Topology::FromMap(TwoSocketMap(4), TopoOrigin::kScripted);
  PerCorePool<uint64_t> pool(4, 4, &topo);
  std::vector<PerCorePool<uint64_t>::Handle> handles;
  for (int i = 0; i < 4; ++i) {
    handles.push_back(pool.Alloc(0));
    ASSERT_NE(PerCorePool<uint64_t>::kNullHandle, handles.back());
  }
  EXPECT_EQ(PerCorePool<uint64_t>::kNullHandle, pool.Alloc(0));  // exhausted
  for (size_t i = 0; i < handles.size(); ++i) {
    pool.Free(static_cast<CoreId>(i), handles[i]);
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_NE(PerCorePool<uint64_t>::kNullHandle, pool.Alloc(0));
  }
  EXPECT_EQ(4u, pool.live_objects());
}

}  // namespace
}  // namespace topo
}  // namespace affinity
