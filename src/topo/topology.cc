#include "src/topo/topology.h"

#include <algorithm>
#include <cassert>
#include <map>

namespace affinity {
namespace topo {

const char* TopoOriginName(TopoOrigin origin) {
  switch (origin) {
    case TopoOrigin::kSysfs:
      return "sysfs";
    case TopoOrigin::kScripted:
      return "scripted";
    case TopoOrigin::kFlat:
      return "flat";
  }
  return "?";
}

namespace {

// Renumbers arbitrary group labels into dense ranks [0, n); -1 stays -1.
int Densify(std::vector<int>* labels) {
  std::map<int, int> rank;
  for (int label : *labels) {
    if (label >= 0 && rank.find(label) == rank.end()) {
      int next = static_cast<int>(rank.size());
      rank[label] = next;
    }
  }
  for (int& label : *labels) {
    if (label >= 0) {
      label = rank[label];
    }
  }
  return static_cast<int>(rank.size());
}

}  // namespace

Topology Topology::Flat(int num_cores, const std::string& reason) {
  TopoMap map;
  map.cores.resize(static_cast<size_t>(num_cores < 1 ? 1 : num_cores));
  // Defaults already describe flat: node 0, llc -1 (-> node), smt -1.
  Topology t = FromMap(map, TopoOrigin::kFlat);
  t.flat_reason_ = reason;
  return t;
}

Topology Topology::FromMap(const TopoMap& map, TopoOrigin origin) {
  Topology t;
  t.origin_ = origin;
  t.num_cores_ = static_cast<int>(map.cores.size() < 1 ? 1 : map.cores.size());
  t.places_.assign(map.cores.begin(), map.cores.end());
  t.places_.resize(static_cast<size_t>(t.num_cores_));

  std::vector<int> nodes, llcs, smts;
  nodes.reserve(t.places_.size());
  llcs.reserve(t.places_.size());
  smts.reserve(t.places_.size());
  for (const CorePlace& p : t.places_) {
    nodes.push_back(p.node < 0 ? 0 : p.node);
    llcs.push_back(p.llc);
    smts.push_back(p.smt);
  }
  t.num_nodes_ = std::max(1, Densify(&nodes));
  // No LLC info (hybrid parts, stripped sysfs): the node boundary is the
  // best cache-distance proxy available -- one LLC domain per node. Offset
  // by the known-LLC count so a half-described map never aliases.
  int known_llcs = Densify(&llcs);
  for (size_t i = 0; i < llcs.size(); ++i) {
    if (llcs[i] < 0) {
      llcs[i] = known_llcs + nodes[i];
    }
  }
  t.num_llcs_ = std::max(1, Densify(&llcs));
  Densify(&smts);  // -1 (no sibling info) stays -1: no SMT class

  for (size_t i = 0; i < t.places_.size(); ++i) {
    t.places_[i].node = nodes[i];
    t.places_[i].llc = llcs[i];
    t.places_[i].smt = smts[i];
  }
  t.BuildDerived();
  return t;
}

Topology Topology::Discover(TopologySource* source, int num_cores) {
  if (source == nullptr) {
    return Flat(num_cores, "no topology source");
  }
  TopoMap map;
  std::string why;
  if (!source->Discover(num_cores, &map, &why)) {
    return Flat(num_cores, why.empty() ? "topology source declined" : why);
  }
  if (static_cast<int>(map.cores.size()) != num_cores) {
    return Flat(num_cores, "topology source described " +
                               std::to_string(map.cores.size()) + " cores, need " +
                               std::to_string(num_cores));
  }
  return FromMap(map, source->origin());
}

void Topology::BuildDerived() {
  size_t n = static_cast<size_t>(num_cores_);
  dist_.assign(n * n, static_cast<uint8_t>(DistClass::kCrossNode));
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = 0; b < n; ++b) {
      DistClass d;
      if (a == b) {
        d = DistClass::kSelf;
      } else if (places_[a].smt >= 0 && places_[a].smt == places_[b].smt) {
        d = DistClass::kSmtSibling;
      } else if (places_[a].llc == places_[b].llc) {
        d = DistClass::kSameLlc;
      } else if (places_[a].node == places_[b].node) {
        d = DistClass::kSameNode;
      } else {
        d = DistClass::kCrossNode;
      }
      dist_[a * n + b] = static_cast<uint8_t>(d);
    }
  }

  // Per-core peer classes, nearest first. Ascending member order within a
  // class keeps the flat case identical to the legacy round-robin scan.
  peer_classes_.assign(n, {});
  const DistClass kOrder[] = {DistClass::kSmtSibling, DistClass::kSameLlc,
                              DistClass::kSameNode, DistClass::kCrossNode};
  for (size_t a = 0; a < n; ++a) {
    for (DistClass want : kOrder) {
      std::vector<CoreId> members;
      for (size_t b = 0; b < n; ++b) {
        if (static_cast<DistClass>(dist_[a * n + b]) == want) {
          members.push_back(static_cast<CoreId>(b));
        }
      }
      if (!members.empty()) {
        peer_classes_[a].push_back(std::move(members));
      }
    }
  }
}

std::vector<std::vector<CoreId>> NearestFirstPeers(const Topology* topo, CoreId core,
                                                   int num_cores) {
  std::vector<std::vector<CoreId>> classes;
  if (topo == nullptr) {
    std::vector<CoreId> all;
    for (CoreId peer = 0; peer < num_cores; ++peer) {
      if (peer != core) {
        all.push_back(peer);
      }
    }
    if (!all.empty()) {
      classes.push_back(std::move(all));
    }
    return classes;
  }
  for (const std::vector<CoreId>& members : topo->PeerClasses(core)) {
    std::vector<CoreId> kept;
    for (CoreId peer : members) {
      if (peer < num_cores) {
        kept.push_back(peer);
      }
    }
    if (!kept.empty()) {
      classes.push_back(std::move(kept));
    }
  }
  return classes;
}

}  // namespace topo
}  // namespace affinity
