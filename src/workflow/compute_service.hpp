// Bare-metal compute service: executes workflow tasks on a host's cores.
//
// Each running task is a simulated actor that stages its inputs in (chunked
// reads through the storage service), computes (one core), writes its
// outputs, then releases the anonymous memory holding its input data — the
// behaviour of the paper's synthetic application ("the anonymous memory
// used by the application was released after each task").
//
// Fault tolerance: all actors of a service are spawned into the engine
// cancellation group "host:<host name>".  A host_crash disruption cancels
// that group (killing executors and in-flight tasks mid-coroutine) and then
// calls crash(), which turns the service-owned bookkeeping into aborted
// attempt records and decides — per the effective RetryPolicy — which
// killed tasks are resubmitted on restart() and which fail permanently.
// Execution state (completed/failed sets, attempt counters) lives in
// service-owned WorkflowRun records, never in actor frames, so cancelling
// the actors loses no accounting.
#pragma once

#include <cstddef>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "platform/platform.hpp"
#include "simcore/engine.hpp"
#include "simcore/sync.hpp"
#include "storage/file_service.hpp"
#include "workflow/workflow.hpp"

namespace pcs::tracelog {
class TaskLogRecorder;
}

namespace pcs::wf {

/// One attempt of a task that was killed before completing (host crash).
struct TaskAttempt {
  int attempt = 1;      ///< 1-based attempt number
  double start = 0.0;   ///< when the attempt began running (core acquired)
  double end = 0.0;     ///< when the host died
  std::string outcome;  ///< "crashed"
};

/// Per-task execution record; phase durations feed the paper's figures.
struct TaskResult {
  std::string name;
  double start = 0.0;
  double read_start = 0.0;
  double read_end = 0.0;
  double compute_end = 0.0;
  double write_end = 0.0;
  double end = 0.0;
  int attempts = 1;                  ///< attempts consumed, incl. the successful one
  std::vector<TaskAttempt> retries;  ///< crash-aborted prior attempts, oldest first

  [[nodiscard]] double read_time() const { return read_end - read_start; }
  [[nodiscard]] double compute_time() const { return compute_end - read_end; }
  [[nodiscard]] double write_time() const { return write_end - compute_end; }
  [[nodiscard]] double makespan() const { return end - start; }
};

/// A task that will never complete: it exhausted its attempts (or its
/// policy forbids resubmission), or a permanently failed ancestor makes it
/// unreachable (attempts == 0, no aborted attempts).
struct FailedTask {
  std::string name;  ///< instance-prefixed, like TaskResult::name
  int attempts = 0;  ///< attempts consumed before giving up
  std::vector<TaskAttempt> aborted;
};

/// Most chunks a task may split one file into.  Each chunk is one simulated
/// I/O, so an unbounded count (a "1 B" chunk size, a 1e308-byte file) runs
/// for hours without output; the largest committed workload needs 1250.
inline constexpr std::size_t kMaxChunksPerFile = std::size_t{1} << 20;

/// Throws WorkflowError naming the task, the file and the chunk size when
/// `file.size` is not finite or needs more than kMaxChunksPerFile chunks.
void check_chunk_count(const std::string& task, const FileSpec& file, double chunk_size);

class ComputeService {
 public:
  /// Tasks of every workflow submitted to this service run on `host` using
  /// `storage` for file I/O with the given chunk size.
  ComputeService(sim::Engine& engine, plat::Host& host, storage::FileService& storage,
                 double chunk_size);

  /// Check every task's chunk counts (check_chunk_count), stage external
  /// inputs and spawn the executor actor.  May be called for
  /// several workflows (they run concurrently, e.g. the paper's concurrent
  /// application instances).  `instance` tags results.  While the host is
  /// crashed the run is queued and its executor starts at restart().
  void submit(Workflow& workflow, const std::string& instance = "");

  /// Results are complete once Engine::run() returns.
  [[nodiscard]] const std::vector<TaskResult>& results() const { return results_; }
  [[nodiscard]] const TaskResult& result(const std::string& task_name) const;

  [[nodiscard]] plat::Host& host() const { return host_; }
  [[nodiscard]] double chunk_size() const { return chunk_size_; }

  /// Attach a task-log recorder (tracelog/recorder.hpp); every staged
  /// input, per-file read/write and completed task is recorded with
  /// `service_name` attribution.  Pure observation — attaching a recorder
  /// never changes simulated times.  Pass nullptr to detach.
  void set_recorder(tracelog::TaskLogRecorder* recorder, std::string service_name);

  // --- fault tolerance -----------------------------------------------------

  /// Engine cancellation group of every actor this service spawns.
  [[nodiscard]] const std::string& group() const { return group_; }

  /// Scenario-wide retry policy; per-task workflow overrides win.
  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }
  [[nodiscard]] const RetryPolicy& retry_policy() const { return retry_; }

  /// Checkpoint/restart cost model ("fault_model.checkpoint").  When
  /// enabled, tasks checkpoint every `interval` compute-seconds (paying
  /// `cost` while holding the core) and a post-crash retry recomputes only
  /// the un-checkpointed tail after a `restart_penalty` reload — instead of
  /// from scratch.  Progress lives in the service-owned WorkflowRun, so it
  /// survives the crash that cancels the executor.
  void set_checkpoint_policy(const CheckpointPolicy& policy) { checkpoint_ = policy; }
  [[nodiscard]] const CheckpointPolicy& checkpoint_policy() const { return checkpoint_; }

  /// on_task_failure == "fail": a permanently failed task aborts the run
  /// (the executor throws WorkflowError).  "continue" (false) records the
  /// failure, skips unreachable descendants and completes the rest.
  void set_fail_fast(bool fail_fast) { fail_fast_ = fail_fast; }

  /// Host-crash bookkeeping.  Call right after Engine::cancel_group(group())
  /// marked this service's actors: every in-flight attempt becomes an
  /// aborted TaskAttempt, tasks out of attempts (or with resubmission
  /// disabled) fail permanently — dragging unreachable descendants with
  /// them — and the core semaphore is reset (permits held by cancelled
  /// actors are never released).  New submits queue until restart().
  void crash();

  /// Host comes back: respawn executors for every unfinished run.  Killed
  /// tasks that kept attempts re-run (after their retry backoff); the page
  /// cache coldness is the storage service's affair (on_host_crash).
  void restart();

  [[nodiscard]] bool crashed() const { return crashed_; }

  /// Tasks that will never complete, in deterministic (submission, then
  /// name) order.  Stable once Engine::run() returned.
  [[nodiscard]] std::vector<FailedTask> failed_tasks() const;

  /// Tasks that consumed more than one attempt (completed or failed).
  [[nodiscard]] std::size_t retried_task_count() const;

  // --- observability gauges (obs/metrics.hpp) ------------------------------
  // Instantaneous task counts across every submitted workflow; read by the
  // metrics sampler.  Purely simulated state — cheap enough to walk the
  // runs_ deque per sample.
  [[nodiscard]] std::size_t live_tasks() const {
    std::size_t n = 0;
    for (const WorkflowRun& run : runs_) n += run.inflight.size();
    return n;
  }
  [[nodiscard]] std::size_t completed_task_count() const {
    std::size_t n = 0;
    for (const WorkflowRun& run : runs_) n += run.completed.size();
    return n;
  }
  [[nodiscard]] std::size_t failed_task_count() const {
    std::size_t n = 0;
    for (const WorkflowRun& run : runs_) n += run.failed.size();
    return n;
  }

 private:
  /// Service-owned execution state of one submitted workflow.  Lives in a
  /// deque (stable addresses) so actor frames only borrow pointers; a
  /// cancelled actor loses no bookkeeping.
  struct WorkflowRun {
    Workflow* workflow = nullptr;
    std::string instance;
    std::set<std::string> completed;
    std::set<std::string> failed;   ///< permanently failed (incl. cascaded)
    std::set<std::string> started;  ///< spawned and not crash-killed
    std::map<std::string, int> attempts;          ///< attempts consumed so far
    std::map<std::string, double> inflight;       ///< running attempt -> start time
    std::map<std::string, std::vector<TaskAttempt>> aborted;
    /// Flops durably checkpointed per task (checkpoint policy only); a
    /// resumed attempt recomputes task.flops minus this.  Erased on
    /// completion; deliberately NOT cleared by crash().
    std::map<std::string, double> checkpointed;

    [[nodiscard]] bool done() const {
      return completed.size() + failed.size() >= workflow->task_count();
    }
  };

  [[nodiscard]] sim::Task<> executor(WorkflowRun* run);
  [[nodiscard]] sim::Task<> run_task(WorkflowRun* run, std::string task_name,
                                     sim::ConditionVariable* done_cv);
  void spawn_executor(WorkflowRun* run);
  [[nodiscard]] const RetryPolicy& policy_for(const WorkflowTask& task) const {
    return task.retry ? *task.retry : retry_;
  }
  [[nodiscard]] double chunk_for(const WorkflowTask& task) const {
    return task.chunk_size > 0.0 ? task.chunk_size : chunk_size_;
  }
  [[nodiscard]] std::string qualified(const WorkflowRun& run, const std::string& task) const {
    return run.instance.empty() ? task : run.instance + ":" + task;
  }
  /// failed-parent closure: tasks depending (transitively) on a failed task
  /// can never run; mark them failed so done() terminates.
  static void propagate_failures(WorkflowRun& run);

  sim::Engine& engine_;
  plat::Host& host_;
  storage::FileService& storage_;
  double chunk_size_;
  sim::Semaphore cores_;
  std::string group_;  ///< "host:<name>" — cancellation group of our actors
  RetryPolicy retry_;
  CheckpointPolicy checkpoint_;
  bool fail_fast_ = true;
  bool crashed_ = false;
  std::deque<WorkflowRun> runs_;
  std::vector<TaskResult> results_;
  tracelog::TaskLogRecorder* recorder_ = nullptr;
  std::string recorder_service_;  ///< service name stamped on recorded ops
};

}  // namespace pcs::wf
