// Hardware topology model: core -> SMT sibling -> LLC domain -> NUMA node,
// plus a pairwise distance rank between cores.
//
// The whole paper rests on the Table-1 cost cliff: a local L3 hit costs
// ~28 cycles, a remote-socket L3 hit ~460. Every layer of this runtime that
// picks a "peer core" -- the 5:1 steal scan (Section 3.3.1), failover group
// parking -- or places connection memory -- the PerCorePool's per-node
// arenas -- pays that cliff, so every one of them consults this model
// instead of treating all cores as equidistant.
//
// Discovery follows the established seam style (fault::SysIface,
// obs::hwprof::CounterSource): a TopologySource virtual interface with a
// real sysfs implementation and a scripted one for tests, and degradation
// is a REPORTED state, not an error -- a host without usable sysfs gets a
// flat single-node topology with an explicit human-readable reason, and
// every distance-aware path degenerates to the old topology-blind behavior
// byte for byte.

#ifndef AFFINITY_SRC_TOPO_TOPOLOGY_H_
#define AFFINITY_SRC_TOPO_TOPOLOGY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/mem/cacheline.h"

namespace affinity {
namespace topo {

// Pairwise distance rank, nearest first -- the steal/park preference order.
// kSmtSibling and kSameLlc both sit under one LLC (an SMT sibling shares
// every cache level), so the locality ledger folds them into one bucket;
// the steal scan still prefers the sibling.
enum class DistClass : uint8_t {
  kSelf = 0,
  kSmtSibling = 1,  // same physical core (hyperthread pair)
  kSameLlc = 2,     // same last-level-cache domain (the 28-cycle case)
  kSameNode = 3,    // same NUMA node, different LLC (hybrid/CCX parts)
  kCrossNode = 4,   // remote socket (the ~460-cycle case)
};

// The locality ledger's bucketing of a distance: 0 = local core,
// 1 = same LLC (incl. SMT sibling), 2 = cross-LLC same node, 3 = cross-node.
inline int LedgerBucket(DistClass d) {
  switch (d) {
    case DistClass::kSelf:
      return 0;
    case DistClass::kSmtSibling:
    case DistClass::kSameLlc:
      return 1;
    case DistClass::kSameNode:
      return 2;
    case DistClass::kCrossNode:
      return 3;
  }
  return 3;
}

// Where a Topology came from.
enum class TopoOrigin : uint8_t {
  kSysfs,     // discovered from /sys
  kScripted,  // a test/bench-provided map
  kFlat,      // degraded: single node, single LLC, no SMT (reason recorded)
};

const char* TopoOriginName(TopoOrigin origin);

// How the runtime resolves its topology (RtConfig knob).
enum class TopoMode : uint8_t {
  kAuto,  // sysfs discovery (or the configured source), flat on failure
  kFlat,  // skip discovery entirely; forced topology-blind behavior
};

// One logical core's placement, as reported by a TopologySource. Group ids
// are arbitrary labels -- equal id means same group; FromMap() normalizes
// them to dense ranks. -1 = unknown (smt: treated as no sibling; llc:
// falls back to the node boundary, the "no LLC info" degradation).
struct CorePlace {
  int smt = -1;
  int llc = -1;
  int node = 0;
};

// A raw topology description for `cores.size()` logical cores (reactor
// index order). Produced by a TopologySource, consumed by Topology::FromMap.
struct TopoMap {
  std::vector<CorePlace> cores;
};

class Topology;

// The discovery seam, in the SysIface / CounterSource style: one virtual
// call, a real sysfs implementation behind a factory, and a scripted
// implementation for tests. Returning false is DEGRADATION, not failure:
// the caller builds a flat topology carrying *why verbatim.
class TopologySource {
 public:
  virtual ~TopologySource() = default;

  // Fills *out with one CorePlace per logical core in [0, num_cores).
  // Returns false with *why set when the source cannot describe this host.
  virtual bool Discover(int num_cores, TopoMap* out, std::string* why) = 0;

  // What a successful Discover should be labeled as.
  virtual TopoOrigin origin() const = 0;
};

// Reads /sys/devices/system/cpu/cpu*/topology/{thread_siblings_list,
// physical_package_id}, cpu*/cache/index3/shared_cpu_list, and
// /sys/devices/system/node/node*/cpulist. `root` replaces "/sys" so tests
// point it at canned trees. Logical core i maps to cpu (i % online cpus),
// mirroring rt::PinCurrentThreadToCpu.
std::unique_ptr<TopologySource> MakeSysfsTopologySource(std::string root = "/sys");

// "0-3,8-11" -> {0,1,2,3,8,9,10,11}. False on malformed input.
bool ParseCpuList(const std::string& text, std::vector<int>* out);

class Topology {
 public:
  // Degraded topology: every core on one node in one LLC domain, no SMT.
  // All distance-aware orderings reduce to the legacy round-robin exactly.
  static Topology Flat(int num_cores, const std::string& reason);

  // Builds the model from a raw map, normalizing group labels. The map must
  // have at least one core; out-of-range lookups are the caller's bug.
  static Topology FromMap(const TopoMap& map, TopoOrigin origin);

  // Discover via `source`, degrading to Flat (with the source's reason) when
  // it declines or returns a malformed map. source == nullptr -> Flat.
  static Topology Discover(TopologySource* source, int num_cores);

  int num_cores() const { return num_cores_; }
  int num_nodes() const { return num_nodes_; }
  int num_llc_domains() const { return num_llcs_; }
  int node_of(CoreId core) const { return places_[static_cast<size_t>(core)].node; }
  int llc_of(CoreId core) const { return places_[static_cast<size_t>(core)].llc; }

  TopoOrigin origin() const { return origin_; }
  bool flat() const { return origin_ == TopoOrigin::kFlat; }
  // Why this topology is flat; empty for discovered topologies.
  const std::string& flat_reason() const { return flat_reason_; }

  // O(1) pairwise distance rank.
  DistClass Between(CoreId a, CoreId b) const {
    return static_cast<DistClass>(
        dist_[static_cast<size_t>(a) * static_cast<size_t>(num_cores_) +
              static_cast<size_t>(b)]);
  }

  // `core`'s peers grouped by distance class, nearest class first, members
  // in ascending core order, empty classes omitted. This is GTran's
  // steal-list shape: the steal scan walks it class by class (round-robin
  // within a class), and failover parking targets the nearest class with a
  // non-busy member. On a flat topology this is a single class holding
  // every other core -- the legacy round-robin order.
  const std::vector<std::vector<CoreId>>& PeerClasses(CoreId core) const {
    return peer_classes_[static_cast<size_t>(core)];
  }

 private:
  Topology() = default;
  void BuildDerived();

  int num_cores_ = 1;
  int num_nodes_ = 1;
  int num_llcs_ = 1;
  TopoOrigin origin_ = TopoOrigin::kFlat;
  std::string flat_reason_;
  std::vector<CorePlace> places_;             // normalized (dense ids)
  std::vector<uint8_t> dist_;                 // num_cores x num_cores DistClass
  std::vector<std::vector<std::vector<CoreId>>> peer_classes_;
};

// `core`'s peers among the first `num_cores` cores, nearest distance class
// first: PeerClasses with the cores at or past `num_cores` dropped (the
// topology may describe more cores than run) and classes left empty
// omitted. With no topology (null) it is one class of every other core,
// ascending -- the paper's plain round-robin -- or no class at all on a
// single core. The steal scan and failover parking both walk this order.
std::vector<std::vector<CoreId>> NearestFirstPeers(const Topology* topo, CoreId core,
                                                   int num_cores);

}  // namespace topo
}  // namespace affinity

#endif  // AFFINITY_SRC_TOPO_TOPOLOGY_H_
