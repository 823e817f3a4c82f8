#include "workflow/compute_service.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>
#include <utility>

#include "pagecache/memory_manager.hpp"
#include "tracelog/recorder.hpp"
#include "util/log.hpp"

namespace pcs::wf {

void check_chunk_count(const std::string& task, const FileSpec& file, double chunk_size) {
  const double chunks = file.size / chunk_size;
  if (std::isfinite(file.size) && chunks <= static_cast<double>(kMaxChunksPerFile)) return;
  std::ostringstream msg;
  msg << "task '" << task << "': file '" << file.name << "' of " << file.size
      << " B needs more than " << kMaxChunksPerFile << " chunks at chunk_size " << chunk_size
      << " B";
  throw WorkflowError(msg.str());
}

ComputeService::ComputeService(sim::Engine& engine, plat::Host& host,
                               storage::FileService& storage, double chunk_size)
    : engine_(engine),
      host_(host),
      storage_(storage),
      chunk_size_(chunk_size),
      cores_(engine, static_cast<std::size_t>(host.cores())),
      group_("host:" + host.name()) {
  if (chunk_size <= 0.0) throw WorkflowError("ComputeService: chunk size must be positive");
}

void ComputeService::set_recorder(tracelog::TaskLogRecorder* recorder,
                                  std::string service_name) {
  recorder_ = recorder;
  recorder_service_ = std::move(service_name);
}

void ComputeService::submit(Workflow& workflow, const std::string& instance) {
  workflow.validate();
  for (const std::string& name : workflow.task_order()) {
    const WorkflowTask& task = workflow.task(name);
    for (const FileSpec& input : task.inputs) check_chunk_count(name, input, chunk_for(task));
    for (const FileSpec& output : task.outputs) check_chunk_count(name, output, chunk_for(task));
  }
  // Stage external inputs: they exist on disk, uncached, when the
  // simulation starts (the paper clears the page cache before each run).
  for (const FileSpec& input : workflow.external_inputs()) {
    storage_.stage_file(input.name, input.size);
    if (recorder_ != nullptr) {
      recorder_->record_io({"stage", input.name, input.size, engine_.now(), engine_.now(),
                            recorder_service_, ""});
    }
  }
  runs_.push_back(WorkflowRun{});
  WorkflowRun& run = runs_.back();
  run.workflow = &workflow;
  run.instance = instance;
  // While the host is down the run only queues; restart() starts it.
  if (!crashed_) spawn_executor(&run);
}

void ComputeService::spawn_executor(WorkflowRun* run) {
  engine_.spawn("executor:" + (run->instance.empty() ? std::string("wf") : run->instance),
                executor(run), /*daemon=*/false, group_);
}

const TaskResult& ComputeService::result(const std::string& task_name) const {
  for (const TaskResult& r : results_) {
    if (r.name == task_name) return r;
  }
  throw WorkflowError("no result recorded for task '" + task_name + "'");
}

sim::Task<> ComputeService::executor(WorkflowRun* run) {
  // The CV/mutex are frame locals: they die with the cancellation group, so
  // a post-crash executor starts with fresh primitives (a cancelled waiter
  // can never hold them).  run_task children borrow them; group cancellation
  // destroys children before this frame (reverse spawn order).
  sim::ConditionVariable done_cv(engine_);
  sim::Mutex mutex(engine_);

  for (;;) {
    // The fail-fast check precedes the done check: a run whose every task
    // resolved as failed (a crash with no attempts left fails the whole
    // DAG before any executor wakes) is still an error, not a completion.
    if (fail_fast_ && !run->failed.empty()) {
      // Name a root cause (a task that actually ran), not a cascaded child.
      std::string culprit = *run->failed.begin();
      for (const std::string& name : run->failed) {
        const auto it = run->attempts.find(name);
        if (it != run->attempts.end() && it->second > 0) {
          culprit = name;
          break;
        }
      }
      throw WorkflowError("task '" + qualified(*run, culprit) +
                          "' failed permanently (on_task_failure: fail)");
    }
    if (run->done()) break;
    for (const std::string& name : run->workflow->ready_tasks(run->completed)) {
      if (run->failed.count(name) != 0) continue;  // out of attempts; never respawn
      if (run->started.insert(name).second) {
        engine_.spawn("task:" + qualified(*run, name), run_task(run, name, &done_cv),
                      /*daemon=*/false, group_);
      }
    }
    // Children only run once we suspend; each completion notifies the CV.
    co_await mutex.lock();
    co_await done_cv.wait(mutex);
    mutex.unlock();
  }
}

sim::Task<> ComputeService::run_task(WorkflowRun* run, std::string task_name,
                                     sim::ConditionVariable* done_cv) {
  const WorkflowTask& task = run->workflow->task(task_name);
  const double chunk = chunk_for(task);

  // Re-attempts back off in virtual time before competing for a core:
  // backoff * factor^(N-2) ahead of attempt N.
  const int attempt = run->attempts[task_name] + 1;
  if (attempt > 1) {
    const RetryPolicy& policy = policy_for(task);
    double delay = policy.backoff;
    for (int i = 2; i < attempt; ++i) delay *= policy.backoff_factor;
    if (delay > 0.0) co_await engine_.sleep(delay);
  }
  co_await cores_.acquire();
  // The attempt is consumed only now: a task still queued for a core when
  // the host dies is respawned without burning one.
  run->attempts[task_name] = attempt;
  run->inflight[task_name] = engine_.now();

  TaskResult r;
  r.name = qualified(*run, task_name);
  r.start = engine_.now();

  // Page-cache errors (out of memory, a stalled writer) arise deep in the
  // storage stack, which knows files but not tasks: name the task here.
  // The error still propagates unchanged in type, so retry policies and
  // on_task_failure see exactly what they saw before.
  try {
    r.read_start = engine_.now();
    for (const FileSpec& input : task.inputs) {
      const double op_start = engine_.now();
      co_await storage_.read_file(input.name, chunk);
      if (recorder_ != nullptr) {
        // The bytes actually transferred: the file's registered size, which a
        // mismatched producer declaration can make differ from input.size.
        recorder_->record_io({"read", input.name, storage_.file_size(input.name), op_start,
                              engine_.now(), recorder_service_, r.name});
      }
    }
    r.read_end = engine_.now();

    if (task.flops > 0.0) {
      if (checkpoint_.enabled()) {
        // Checkpointed compute: resume past durable progress, then run in
        // segments of `interval` compute-seconds, saving after each one.
        double done = 0.0;
        if (const auto it = run->checkpointed.find(task_name); it != run->checkpointed.end()) {
          done = std::min(it->second, task.flops);
        }
        if (attempt > 1 && done > 0.0 && checkpoint_.restart_penalty > 0.0) {
          co_await engine_.sleep(checkpoint_.restart_penalty);
        }
        // interval is wall-clock compute seconds at full core speed; contention
        // stretches a segment but the saved granularity stays fixed in flops.
        const double segment = checkpoint_.interval * host_.speed();
        while (done < task.flops) {
          const double slice = std::min(segment, task.flops - done);
          co_await engine_.submit("compute:" + r.name, sim::one(host_.cpu()), slice, host_.speed());
          done += slice;
          if (done < task.flops) {
            // The checkpoint is durable only once its cost is fully paid: a
            // crash mid-write keeps the previous checkpoint.
            if (checkpoint_.cost > 0.0) co_await engine_.sleep(checkpoint_.cost);
            run->checkpointed[task_name] = done;
          }
        }
      } else {
        // One core: the task's rate is bounded by the core speed while the
        // host-wide CPU resource is shared with every other running task.
        co_await engine_.submit("compute:" + r.name, sim::one(host_.cpu()), task.flops,
                                host_.speed());
      }
    }
    r.compute_end = engine_.now();

    for (const FileSpec& output : task.outputs) {
      const double op_start = engine_.now();
      co_await storage_.write_file(output.name, output.size, chunk);
      if (recorder_ != nullptr) {
        recorder_->record_io({"write", output.name, output.size, op_start, engine_.now(),
                              recorder_service_, r.name});
      }
    }
    r.write_end = engine_.now();
  } catch (const cache::CacheError& e) {
    throw cache::CacheError("task '" + r.name + "': " + e.what());
  }
  r.end = engine_.now();
  r.attempts = attempt;
  if (const auto it = run->aborted.find(task_name); it != run->aborted.end()) {
    r.retries = it->second;
  }

  // The paper's applications release their working set when the task ends.
  storage_.release_anonymous(task.input_bytes());

  if (recorder_ != nullptr) {
    tracelog::TraceTaskEvent ev{r.name, host_.name(), r.start,      r.read_start,
                                r.read_end, r.compute_end, r.write_end, r.end};
    ev.attempts = r.attempts;
    recorder_->record_task_event(ev);
  }
  run->inflight.erase(task_name);
  run->checkpointed.erase(task_name);
  results_.push_back(r);
  run->completed.insert(task_name);
  cores_.release();
  done_cv->notify_all();
}

void ComputeService::crash() {
  crashed_ = true;
  const double now = engine_.now();
  for (WorkflowRun& run : runs_) {
    if (run.done()) continue;
    // Every running attempt dies with the host (std::map order keeps the
    // record sequence deterministic).
    for (const auto& [name, start] : run.inflight) {
      const int attempt = run.attempts[name];
      run.aborted[name].push_back(TaskAttempt{attempt, start, now, "crashed"});
      if (recorder_ != nullptr) {
        recorder_->record_task_attempt(
            {qualified(run, name), host_.name(), attempt, start, now, "crashed"});
      }
      const RetryPolicy& policy = policy_for(run.workflow->task(name));
      if (!policy.resubmit_on_crash || attempt >= policy.max_attempts) {
        run.failed.insert(name);
        util::log_trace("compute", "task '", qualified(run, name), "' failed permanently (",
                        attempt, " attempt(s))");
      }
    }
    run.inflight.clear();
    // Only completed tasks survive as "started": killed and queued spawns
    // must be respawned by the post-restart executor.
    run.started = run.completed;
    propagate_failures(run);
  }
  // Cancelled holders never release their permits.
  cores_.reset(static_cast<std::size_t>(host_.cores()));
}

void ComputeService::restart() {
  crashed_ = false;
  for (WorkflowRun& run : runs_) {
    // Unfinished runs resume.  A run the crash resolved as fully failed
    // counts as done, but under fail-fast it must still surface the error:
    // the respawned executor throws on its first resumption.
    if (!run.done() || (fail_fast_ && !run.failed.empty())) spawn_executor(&run);
  }
}

void ComputeService::propagate_failures(WorkflowRun& run) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (const std::string& name : run.workflow->task_order()) {
      if (run.completed.count(name) != 0 || run.failed.count(name) != 0) continue;
      for (const std::string& parent : run.workflow->parents_of(name)) {
        if (run.failed.count(parent) != 0) {
          run.failed.insert(name);
          changed = true;
          break;
        }
      }
    }
  }
}

std::vector<FailedTask> ComputeService::failed_tasks() const {
  std::vector<FailedTask> failed;
  for (const WorkflowRun& run : runs_) {
    for (const std::string& name : run.failed) {
      FailedTask f;
      f.name = qualified(run, name);
      if (const auto it = run.attempts.find(name); it != run.attempts.end()) {
        f.attempts = it->second;
      }
      if (const auto it = run.aborted.find(name); it != run.aborted.end()) {
        f.aborted = it->second;
      }
      failed.push_back(std::move(f));
    }
  }
  return failed;
}

std::size_t ComputeService::retried_task_count() const {
  std::size_t count = 0;
  for (const WorkflowRun& run : runs_) {
    for (const auto& [name, attempts] : run.attempts) {
      if (attempts > 1) ++count;
    }
  }
  return count;
}

}  // namespace pcs::wf
