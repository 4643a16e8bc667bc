// The per-run ledger: the runtime's own accounting must agree with itself
// and with what the benchmark's generator saw, or the run fails.

#ifndef RTBENCH_LEDGER_H_
#define RTBENCH_LEDGER_H_

#include <cstdint>
#include <string>

namespace rtbench {

struct LedgerInput {
  uint64_t accepted = 0;   // RtTotals::accepted
  uint64_t accounted = 0;  // RtTotals::accounted()
  // Completed units on the server side: RtTotals::requests for the
  // request/response workloads, RtTotals::served() for accept_churn.
  uint64_t server_ops = 0;
  uint64_t client_ops = 0;  // ops the generator completed and verified
  // Connections the generator held at once. Each may end with one op the
  // server finished but the client did not count, so this is the tolerance.
  uint64_t concurrent_conns = 0;
};

// Empty when the ledger balances; otherwise what is wrong.
std::string CheckLedger(const LedgerInput& in);

// How many ops a failed ledger adds to the run's failure count: the size of
// the mismatch, at least one.
uint64_t LedgerFailures(const LedgerInput& in);

}  // namespace rtbench

#endif  // RTBENCH_LEDGER_H_
