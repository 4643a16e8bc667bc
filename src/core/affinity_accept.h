// Umbrella header for the Affinity-Accept reproduction library.
//
// Quickstart:
//
//   #include "src/core/affinity_accept.h"
//
//   affinity::ExperimentConfig config;
//   config.kernel.machine = affinity::Amd48();
//   config.kernel.num_cores = 48;
//   config.kernel.listen.variant = affinity::AcceptVariant::kAffinity;
//   config.server = affinity::ServerKind::kApacheWorker;
//   affinity::Experiment experiment(config);
//   affinity::ExperimentResult result = experiment.Run();
//   // result.requests_per_sec_per_core, result.counters, result.locks, ...
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record.

#ifndef AFFINITY_SRC_CORE_AFFINITY_ACCEPT_H_
#define AFFINITY_SRC_CORE_AFFINITY_ACCEPT_H_

#include "src/balance/balance_policy.h"
#include "src/balance/flow_migrator.h"
#include "src/core/experiment.h"
#include "src/core/reporter.h"
#include "src/hw/nic.h"
#include "src/hw/nic_catalogue.h"
#include "src/hw/topology.h"
#include "src/load/httperf.h"
#include "src/load/workload.h"
#include "src/mem/memory_system.h"
#include "src/stack/kernel.h"
#include "src/stack/listen_socket.h"

#endif  // AFFINITY_SRC_CORE_AFFINITY_ACCEPT_H_
