// The runtime's metrics, declared once.
//
// Each list entry is (field, exported name, help). Everything else about a
// metric is generated from these three lists: the registry ids
// (RtMetricIds), the registration in the Runtime constructor, the
// reactor's pre-resolved hot cells, and the RtTotals field plus its line in
// Runtime::Totals(). Field names are the RtTotals names. Every series is
// registered on every runtime, one value per core; a series whose
// subsystem is off (steering, deadlines, failover) reads 0.
//
// Adding a metric is one line here plus the code that bumps it.

#ifndef AFFINITY_SRC_RT_RT_METRICS_H_
#define AFFINITY_SRC_RT_RT_METRICS_H_

#define AFFINITY_RT_COUNTERS(X)                                                                    \
  X(accepted, "rt_accepted", "connections returned by accept()")                                   \
  X(served_local, "rt_served_local", "connections served from the core's own queue")               \
  X(served_remote, "rt_served_remote", "connections served from another core's queue")             \
  X(steals, "rt_steals", "affinity-mode connection steals")                                        \
  X(overflow_drops, "rt_overflow_drops", "connections dropped on a full local queue")              \
  X(epoll_wakeups, "rt_epoll_wakeups", "epoll_wait returns with I/O (a doorbell alone is not)")    \
  /* Labeled by the reactor woken, not the waker: Stop() rings too. */                             \
  X(doorbell_rings, "rt_doorbell_rings", "doorbell writes that woke this parked reactor")          \
  X(transitions_to_busy, "rt_transitions_to_busy", "high-watermark busy-bit sets")                 \
  X(transitions_to_nonbusy, "rt_transitions_to_nonbusy", "low-watermark busy-bit clears")          \
  /* Slab-pool discipline (paper Section 2.2 on live connection state). */                         \
  X(conn_remote_frees, "rt_conn_remote_frees",                                                     \
    "PendingConn blocks freed by a core other than their owner")                                   \
  X(pool_exhausted, "rt_pool_exhausted",                                                           \
    "connections dropped because the conn pool had no free block")                                 \
  /* Accept-loop soft errors, one per errno class (skip-and-continue). */                          \
  X(accept_eintr, "rt_accept_eintr", "accept4 EINTR skip-and-continue")                            \
  X(accept_econnaborted, "rt_accept_econnaborted",                                                 \
    "accept4 ECONNABORTED: connection gone before accept")                                         \
  X(accept_eproto, "rt_accept_eproto", "accept4 EPROTO skip-and-continue")                         \
  X(accept_emfile, "rt_accept_emfile", "accept4 EMFILE/ENFILE: out of fds")                        \
  X(accept_backoff, "rt_accept_backoff", "capped exponential accept backoff windows entered")      \
  /* Shaped overload and failure domains. */                                                       \
  X(admission_shed, "rt_admission_shed",                                                           \
    "connections accepted then shed (RST) by the admission policy")                                \
  X(fault_injected, "rt_fault_injected", "faults injected by the chaos plan")                      \
  X(failovers, "rt_failovers", "watchdog failovers won by this core")                              \
  X(recoveries, "rt_recoveries", "reactors recovered after failover")                              \
  X(failover_group_moves, "rt_failover_group_moves",                                               \
    "flow groups mass-moved by failover/recovery")                                                 \
  /* The failover half of rt_failover_group_moves, split by how far each                           \
     parked group travelled from its dead owner (src/topo LedgerBucket;                            \
     a flat topology folds everything into same_llc). */                                           \
  X(park_same_llc, "rt_park_same_llc", "failover parks on a peer sharing the dead core's LLC")     \
  X(park_cross_llc, "rt_park_cross_llc", "failover parks crossing LLCs on one node")               \
  X(park_cross_node, "rt_park_cross_node", "failover parks crossing NUMA nodes")                   \
  /* Service rounds: one per request/response round, and one per                                   \
     accept-workload connection (its one-byte reply). */                                           \
  X(requests, "rt_requests", "completed service rounds (an accept-workload connection is one)")    \
  X(aborted_at_stop, "rt_aborted_at_stop", "held connections closed by a reactor's Run() exit")    \
  /* Counted by Stop() after the reactors joined, labeled by ring. */                              \
  X(drained_at_stop, "rt_drained_at_stop", "queued connections closed unserved by Stop()")         \
  /* Connection-locality ledger: rounds served on vs off their accepting                           \
     core (the two sum to rt_requests). Connections served off their                               \
     acceptor are rt_conn_remote_frees: the serving core frees the block. */                       \
  X(requests_local_core, "rt_requests_local_core",                                                 \
    "requests served on the core that accepted the connection")                                    \
  X(requests_remote_core, "rt_requests_remote_core",                                               \
    "requests served on a core other than the acceptor")                                           \
  /* Distance split of the remote half (src/topo LedgerBucket): the three                          \
     sum to requests_remote_core, and the steal triplet to steals. A flat                          \
     topology folds everything into same_llc. */                                                   \
  X(requests_same_llc, "rt_requests_same_llc",                                                     \
    "remote-core requests where both cores share the LLC")                                         \
  X(requests_cross_llc, "rt_requests_cross_llc", "remote-core requests crossing LLCs on one node") \
  X(requests_cross_node, "rt_requests_cross_node", "remote-core requests crossing NUMA nodes")     \
  X(steals_same_llc, "rt_steals_same_llc", "steals where thief and victim share the LLC")          \
  X(steals_cross_llc, "rt_steals_cross_llc", "steals crossing LLCs on one node")                   \
  X(steals_cross_node, "rt_steals_cross_node", "steals crossing NUMA nodes")                       \
  /* Lifecycle deadlines, one per DeadlineKind; their sum is the                                   \
     conservation equation's timed_out term. Pool-pressure evictions are                           \
     also counted as idle timeouts, so rt_pool_evictions is an                                     \
     informational subset, as rt_drained_gracefully is of served. */                               \
  X(timeouts_handshake, "rt_timeouts_handshake",                                                   \
    "conns closed by the accept-to-first-byte deadline")                                           \
  X(timeouts_idle, "rt_timeouts_idle",                                                             \
    "conns closed by the between-requests idle deadline (incl. pool evictions)")                   \
  X(timeouts_read, "rt_timeouts_read", "conns closed by the per-request read deadline")            \
  X(timeouts_write, "rt_timeouts_write", "conns closed by the per-response write deadline")        \
  X(pool_evictions, "rt_pool_evictions",                                                           \
    "idle conns reaped under pool pressure (subset of rt_timeouts_idle)")                          \
  X(drained_gracefully, "rt_drained_gracefully",                                                   \
    "conns that finished normally inside a drain window (subset of served)")                       \
  /* Flow-group steering (0 unless config.steer in affinity mode). */                              \
  X(steer_owner_accepts, "rt_steer_owner_accepts",                                                 \
    "connections accepted on the shard owning their flow group")                                   \
  X(steer_cross_accepts, "rt_steer_cross_accepts",                                                 \
    "connections re-steered in user space to their owner's queue")                                 \
  X(migrations, "rt_migrations", "flow groups pulled by the long-term balancer")

// Gauges. rt_queue_len and rt_busy are labeled by accept ring (one ring in
// stock mode); the rest by reactor core. A gauge's RtTotals field is the
// sum over its labels.
#define AFFINITY_RT_GAUGES(X)                                                                      \
  X(reactor_dead, "rt_reactor_dead", "1 = this reactor is marked dead")                            \
  X(queue_len, "rt_queue_len", "accept-queue length at last update")                               \
  X(busy, "rt_busy", "busy bit (1 = over high watermark)")                                         \
  X(open_conns, "rt_conn_open", "connections currently mid-conversation")                          \
  X(steer_cbpf, "rt_steer_cbpf", "1 = SO_ATTACH_REUSEPORT_CBPF program attached")                  \
  X(steer_groups_owned, "rt_steer_groups_owned", "steering-table flow groups per core")

#define AFFINITY_RT_HISTOGRAMS(X)                                                                  \
  X(queue_wait_ns, "rt_queue_wait_ns", "accept() -> service latency per connection")               \
  X(request_latency_ns, "rt_request_latency_ns",                                                   \
    "per-round service time, first request byte to response flushed (accept workload: 0)")         \
  X(drain_duration_ns, "rt_drain_duration_ns", "wall duration of each Stop() drain window")

namespace affinity {
namespace rt {

// One member per table entry: `Scalar` for counters and gauges, `Hist` for
// histograms. RtMetricIds, the reactor's hot cells and RtTotals are this
// struct with different member types.
template <typename Scalar, typename Hist>
struct RtMetricFields {
#define AFFINITY_RT_SCALAR_FIELD(field, name, help) Scalar field{};
#define AFFINITY_RT_HIST_FIELD(field, name, help) Hist field{};
  AFFINITY_RT_COUNTERS(AFFINITY_RT_SCALAR_FIELD)
  AFFINITY_RT_GAUGES(AFFINITY_RT_SCALAR_FIELD)
  AFFINITY_RT_HISTOGRAMS(AFFINITY_RT_HIST_FIELD)
#undef AFFINITY_RT_SCALAR_FIELD
#undef AFFINITY_RT_HIST_FIELD
};

}  // namespace rt
}  // namespace affinity

#endif  // AFFINITY_SRC_RT_RT_METRICS_H_
