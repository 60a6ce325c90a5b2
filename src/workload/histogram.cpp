#include "workload/histogram.hpp"

namespace tg::workload {

void Recorder::merge(const Recorder& other) noexcept {
  latency.merge(other.latency);
  issued += other.issued;
  completed += other.completed;
  failed += other.failed;
  timed_out += other.timed_out;
  rounds += other.rounds;
  analytic_messages += other.analytic_messages;
  retries += other.retries;
  hedges += other.hedges;
  stale_replies += other.stale_replies;
}

}  // namespace tg::workload
