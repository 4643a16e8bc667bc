// Listen-socket setup for the runtime: SO_REUSEPORT shards on loopback.
//
// SO_REUSEPORT is the stock kernel's closest analogue to the paper's cloned
// per-core accept queues: every shard bound to the same port gets its own
// request table and accept queue inside the kernel, and the kernel hashes
// incoming connections across shards -- the "Fine-Accept" half of the
// design. Affinity (stealing, busy tracking) is layered on top in user
// space by src/rt/reactor.cc.

#ifndef AFFINITY_SRC_RT_LISTENER_H_
#define AFFINITY_SRC_RT_LISTENER_H_

#include <cstdint>
#include <string>

namespace affinity {
namespace rt {

// Creates a nonblocking IPv4 TCP listen socket bound to 127.0.0.1:*port,
// with TCP_NODELAY set so every socket accepted from it inherits it.
// With `reuseport`, sets SO_REUSEPORT so several shards can share the port.
// If *port is 0 the kernel picks one and *port is updated. Returns the fd,
// or -1 with a description in *error.
int CreateListenSocket(uint16_t* port, int backlog, bool reuseport, std::string* error);

// Pins the calling thread to `cpu` (modulo the online CPU count). Returns
// false (harmless) when pinning is unsupported or fails.
bool PinCurrentThreadToCpu(int cpu);

}  // namespace rt
}  // namespace affinity

#endif  // AFFINITY_SRC_RT_LISTENER_H_
