// Per-case budget: run one unit of work in a forked process and kill it
// when it overruns.
//
// The simulator has no cancellation hook, so a case that hangs can only be
// stopped from outside.  The child inherits everything the parent already
// parsed, runs the body, and sends its JSON result back through a pipe; the
// parent waits at most `budget_s`, then SIGKILLs and reaps the child.  The
// peak RSS of every child, killed or not, is tracked, so the workload's
// memory figure covers the processes that did the work.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "util/json.hpp"

namespace perfbench {

namespace util = pcs::util;

struct UnitResult {
  enum class Status { Ok, Error, Timeout };
  Status status = Status::Ok;
  util::Json body;    ///< the child's result (Ok only)
  std::string error;  ///< the child's exception text (Error only)

  [[nodiscard]] bool ok() const { return status == Status::Ok; }
};

/// Run `body` in a child process with a wall-clock budget.
UnitResult run_budgeted(double budget_s, const std::function<util::Json()>& body);

/// Largest peak RSS (KiB) of any child reaped so far.
[[nodiscard]] std::uint64_t children_peak_rss_kb();

}  // namespace perfbench
