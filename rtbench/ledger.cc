#include "rtbench/ledger.h"

namespace rtbench {

namespace {

uint64_t Distance(uint64_t a, uint64_t b) { return a > b ? a - b : b - a; }

}  // namespace

std::string CheckLedger(const LedgerInput& in) {
  std::string why;
  if (in.accounted != in.accepted) {
    why += "conservation: accounted " + std::to_string(in.accounted) + " != accepted " +
           std::to_string(in.accepted) + "; ";
  }
  if (Distance(in.server_ops, in.client_ops) > in.concurrent_conns) {
    why += "server completed " + std::to_string(in.server_ops) + " ops, generator " +
           std::to_string(in.client_ops) + " (tolerance " + std::to_string(in.concurrent_conns) +
           "); ";
  }
  return why;
}

uint64_t LedgerFailures(const LedgerInput& in) {
  if (CheckLedger(in).empty()) {
    return 0;
  }
  uint64_t n = Distance(in.accounted, in.accepted) + Distance(in.server_ops, in.client_ops);
  return n > 0 ? n : 1;
}

}  // namespace rtbench
