#include "workflow/compute_service.hpp"

#include <gtest/gtest.h>

#include "storage/local_storage.hpp"
#include "test_helpers.hpp"
#include "workflow/simulation.hpp"

namespace pcs::wf {
namespace {

// Host: 4 cores at 1 Gflops, 1000 B RAM, memory 100 B/s; disk 10 B/s.
class ComputeServiceTest : public ::testing::Test {
 protected:
  ComputeServiceTest() {
    host_ = std::make_unique<plat::Host>(engine_, test::small_host("h", 1000.0, 100.0));
    plat::DiskSpec spec;
    spec.name = "d0";
    spec.read_bw = 10.0;
    spec.write_bw = 10.0;
    disk_ = host_->add_disk(engine_, spec);
    storage_ = std::make_unique<storage::LocalStorage>(engine_, *host_, *disk_,
                                                       cache::CacheMode::Writeback);
  }

  sim::Engine engine_;
  std::unique_ptr<plat::Host> host_;
  plat::Disk* disk_ = nullptr;
  std::unique_ptr<storage::LocalStorage> storage_;
};

TEST_F(ComputeServiceTest, SingleTaskPhases) {
  ComputeService cs(engine_, *host_, *storage_, 50.0);
  Workflow wf;
  wf.add_task("t", 2e9);  // 2 s on one 1 Gflops core
  wf.add_input("t", "in", 100.0);
  wf.add_output("t", "out", 100.0);
  cs.submit(wf);
  engine_.run();
  const TaskResult& r = cs.result("t");
  EXPECT_DOUBLE_EQ(r.read_time(), 10.0);     // 100 B at 10 B/s (cold)
  EXPECT_DOUBLE_EQ(r.compute_time(), 2.0);   // 2e9 flops at 1 Gflops
  EXPECT_DOUBLE_EQ(r.write_time(), 1.0);     // 100 B at 100 B/s (to cache)
  EXPECT_DOUBLE_EQ(r.makespan(), 13.0);
  EXPECT_DOUBLE_EQ(engine_.now(), 13.0);
}

TEST_F(ComputeServiceTest, StagesExternalInputsAutomatically) {
  ComputeService cs(engine_, *host_, *storage_, 50.0);
  Workflow wf;
  wf.add_task("t", 0.0);
  wf.add_input("t", "staged", 60.0);
  cs.submit(wf);
  engine_.run();
  EXPECT_TRUE(storage_->fs().exists("staged"));
  EXPECT_DOUBLE_EQ(storage_->fs().size_of("staged"), 60.0);
}

TEST_F(ComputeServiceTest, ChainRunsSequentiallyAndSharesCache) {
  ComputeService cs(engine_, *host_, *storage_, 50.0);
  Workflow wf;
  wf.add_task("t1", 0.0);
  wf.add_input("t1", "f1", 100.0);
  wf.add_output("t1", "f2", 100.0);
  wf.add_task("t2", 0.0);
  wf.add_input("t2", "f2", 100.0);
  wf.add_output("t2", "f3", 100.0);
  cs.submit(wf);
  engine_.run();
  const TaskResult& r1 = cs.result("t1");
  const TaskResult& r2 = cs.result("t2");
  EXPECT_GE(r2.start, r1.end);
  EXPECT_DOUBLE_EQ(r1.read_time(), 10.0);  // cold
  EXPECT_DOUBLE_EQ(r2.read_time(), 1.0);   // f2 served from page cache
}

TEST_F(ComputeServiceTest, IndependentTasksRunConcurrently) {
  ComputeService cs(engine_, *host_, *storage_, 50.0);
  Workflow wf;
  wf.add_task("a", 4e9);
  wf.add_task("b", 4e9);
  cs.submit(wf);
  engine_.run();
  // Two 4 s compute tasks on separate cores: makespan 4 s, not 8 s.
  EXPECT_DOUBLE_EQ(engine_.now(), 4.0);
}

TEST_F(ComputeServiceTest, CoreLimitSerializesExcessTasks) {
  ComputeService cs(engine_, *host_, *storage_, 50.0);
  Workflow wf;
  for (int i = 0; i < 8; ++i) wf.add_task("t" + std::to_string(i), 4e9);
  cs.submit(wf);
  engine_.run();
  // 8 tasks, 4 cores, 4 s each -> two waves -> 8 s.
  EXPECT_DOUBLE_EQ(engine_.now(), 8.0);
}

TEST_F(ComputeServiceTest, MultipleWorkflowInstancesTagged) {
  ComputeService cs(engine_, *host_, *storage_, 50.0);
  Workflow wf_a;
  wf_a.add_task("i0:t", 1e9);
  Workflow wf_b;
  wf_b.add_task("i1:t", 1e9);
  cs.submit(wf_a);
  cs.submit(wf_b);
  engine_.run();
  EXPECT_EQ(cs.results().size(), 2u);
  EXPECT_NO_THROW((void)cs.result("i0:t"));
  EXPECT_NO_THROW((void)cs.result("i1:t"));
  EXPECT_THROW((void)cs.result("i9:t"), WorkflowError);
}

TEST_F(ComputeServiceTest, AnonymousMemoryReleasedAfterTask) {
  ComputeService cs(engine_, *host_, *storage_, 50.0);
  Workflow wf;
  wf.add_task("t", 0.0);
  wf.add_input("t", "in", 200.0);
  cs.submit(wf);
  engine_.run();
  // The paper's apps release their working set when the task ends.
  EXPECT_DOUBLE_EQ(storage_->memory_manager()->anonymous(), 0.0);
}

TEST_F(ComputeServiceTest, OutOfMemoryErrorNamesTheTask) {
  ComputeService cs(engine_, *host_, *storage_, 50.0);
  // Retries apply to host crashes only; a page-cache error still ends the
  // run at once, with its type unchanged.
  cs.set_retry_policy({.max_attempts = 3, .backoff = 1.0});
  Workflow wf;
  wf.add_task("big", 0.0);
  wf.add_input("big", "huge", 1200.0);  // the 1000 B host cannot hold its copy
  cs.submit(wf);
  try {
    engine_.run();
    FAIL() << "expected CacheError";
  } catch (const cache::CacheError& e) {
    EXPECT_EQ(std::string(e.what()).rfind("task 'big': allocate_anonymous: out of memory", 0),
              0u)
        << e.what();
  }
  EXPECT_EQ(cs.retried_task_count(), 0u);
}

TEST_F(ComputeServiceTest, InvalidChunkSizeRejected) {
  EXPECT_THROW(ComputeService(engine_, *host_, *storage_, 0.0), WorkflowError);
  EXPECT_THROW(ComputeService(engine_, *host_, *storage_, -5.0), WorkflowError);
}

// --- Crash / retry semantics ----------------------------------------------

TEST_F(ComputeServiceTest, CrashRespawnsInflightTaskWithBackoff) {
  ComputeService cs(engine_, *host_, *storage_, 50.0);
  cs.set_retry_policy({.max_attempts = 2, .backoff = 3.0});
  Workflow wf;
  wf.add_task("t", 10e9);  // 10 s of compute, no I/O
  cs.submit(wf);
  auto driver = [&](sim::Engine& e) -> sim::Task<> {
    co_await e.sleep(5.0);
    e.cancel_group(cs.group());
    cs.crash();
    EXPECT_TRUE(cs.crashed());
    co_await e.sleep(2.0);
    cs.restart();
  };
  engine_.spawn("driver", driver(engine_));
  engine_.run();
  // Attempt 1: 0-5 (killed).  Restart at 7, 3 s backoff, attempt 2 runs
  // 10-20 from scratch (no partial progress survives a crash).
  const TaskResult& r = cs.result("t");
  EXPECT_EQ(r.attempts, 2);
  ASSERT_EQ(r.retries.size(), 1u);
  EXPECT_EQ(r.retries[0].attempt, 1);
  EXPECT_DOUBLE_EQ(r.retries[0].start, 0.0);
  EXPECT_DOUBLE_EQ(r.retries[0].end, 5.0);
  EXPECT_EQ(r.retries[0].outcome, "crashed");
  EXPECT_DOUBLE_EQ(r.start, 10.0);
  EXPECT_DOUBLE_EQ(engine_.now(), 20.0);
  EXPECT_EQ(cs.retried_task_count(), 1u);
  EXPECT_TRUE(cs.failed_tasks().empty());
}

TEST_F(ComputeServiceTest, CrashWithoutRetryFailsTaskAndDescendants) {
  ComputeService cs(engine_, *host_, *storage_, 50.0);
  cs.set_fail_fast(false);  // on_task_failure: continue
  Workflow wf;
  wf.add_task("t1", 10e9);
  wf.add_output("t1", "f", 100.0);
  wf.add_task("t2", 1e9);
  wf.add_input("t2", "f", 100.0);
  cs.submit(wf);
  auto driver = [&](sim::Engine& e) -> sim::Task<> {
    co_await e.sleep(5.0);
    e.cancel_group(cs.group());
    cs.crash();  // default policy: max_attempts = 1 -> permanent failure
    cs.restart();
  };
  engine_.spawn("driver", driver(engine_));
  engine_.run();  // terminates with zero completions: failure cascaded to t2
  EXPECT_TRUE(cs.results().empty());
  const std::vector<FailedTask> failed = cs.failed_tasks();
  ASSERT_EQ(failed.size(), 2u);
  EXPECT_EQ(failed[0].name, "t1");
  EXPECT_EQ(failed[0].attempts, 1);
  ASSERT_EQ(failed[0].aborted.size(), 1u);
  EXPECT_EQ(failed[0].aborted[0].outcome, "crashed");
  EXPECT_EQ(failed[1].name, "t2");
  EXPECT_EQ(failed[1].attempts, 0);  // never started: unreachable, not killed
  EXPECT_EQ(cs.retried_task_count(), 0u);
}

TEST_F(ComputeServiceTest, FailFastThrowsNamingTheRootCause) {
  ComputeService cs(engine_, *host_, *storage_, 50.0);
  Workflow wf;
  wf.add_task("t1", 10e9);
  wf.add_output("t1", "f", 100.0);
  wf.add_task("t2", 1e9);
  wf.add_input("t2", "f", 100.0);
  cs.submit(wf);
  auto driver = [&](sim::Engine& e) -> sim::Task<> {
    co_await e.sleep(5.0);
    e.cancel_group(cs.group());
    cs.crash();
    cs.restart();
  };
  engine_.spawn("driver", driver(engine_));
  try {
    engine_.run();
    FAIL() << "expected WorkflowError";
  } catch (const WorkflowError& e) {
    // The root cause (the task that ran out of attempts), not the
    // alphabetically-first cascaded descendant.
    EXPECT_NE(std::string(e.what()).find("'t1'"), std::string::npos);
  }
}

TEST_F(ComputeServiceTest, QueuedTaskDoesNotConsumeAnAttempt) {
  ComputeService cs(engine_, *host_, *storage_, 50.0);
  cs.set_retry_policy({.max_attempts = 2});
  Workflow wf;
  // 5 independent 10 s tasks on 4 cores: t4 queues behind the first wave.
  for (int i = 0; i < 5; ++i) wf.add_task("t" + std::to_string(i), 10e9);
  cs.submit(wf);
  auto driver = [&](sim::Engine& e) -> sim::Task<> {
    co_await e.sleep(5.0);
    e.cancel_group(cs.group());
    cs.crash();
    co_await e.sleep(1.0);
    cs.restart();
  };
  engine_.spawn("driver", driver(engine_));
  engine_.run();
  EXPECT_EQ(cs.results().size(), 5u);
  int first_attempt = 0;
  int second_attempt = 0;
  for (const TaskResult& r : cs.results()) {
    (r.attempts == 1 ? first_attempt : second_attempt) += 1;
  }
  // The four in-flight tasks burned attempt 1; the queued one did not.
  EXPECT_EQ(second_attempt, 4);
  EXPECT_EQ(first_attempt, 1);
  EXPECT_EQ(cs.retried_task_count(), 4u);
}

TEST_F(ComputeServiceTest, PerTaskRetryOverridesServicePolicy) {
  ComputeService cs(engine_, *host_, *storage_, 50.0);
  cs.set_retry_policy({.max_attempts = 3});
  cs.set_fail_fast(false);
  Workflow wf;
  wf.add_task("sticky", 10e9);
  wf.add_task("one_shot", 10e9);
  wf.task("one_shot").retry = RetryPolicy{.max_attempts = 3, .resubmit_on_crash = false};
  cs.submit(wf);
  auto driver = [&](sim::Engine& e) -> sim::Task<> {
    co_await e.sleep(5.0);
    e.cancel_group(cs.group());
    cs.crash();
    cs.restart();
  };
  engine_.spawn("driver", driver(engine_));
  engine_.run();
  // The service-level policy retries "sticky"; the per-task override marks
  // "one_shot" non-resubmittable, so the crash fails it permanently.
  EXPECT_NO_THROW((void)cs.result("sticky"));
  const std::vector<FailedTask> failed = cs.failed_tasks();
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0].name, "one_shot");
}

TEST_F(ComputeServiceTest, SubmitWhileCrashedQueuesUntilRestart) {
  ComputeService cs(engine_, *host_, *storage_, 50.0);
  Workflow wf;
  wf.add_task("t", 2e9);
  auto driver = [&](sim::Engine& e) -> sim::Task<> {
    co_await e.sleep(1.0);
    e.cancel_group(cs.group());
    cs.crash();
    cs.submit(wf);  // lands in the queue, does not spawn an executor
    co_await e.sleep(4.0);
    cs.restart();
  };
  engine_.spawn("driver", driver(engine_));
  engine_.run();
  EXPECT_DOUBLE_EQ(cs.result("t").start, 5.0);
  EXPECT_EQ(cs.result("t").attempts, 1);
}

TEST_F(ComputeServiceTest, SimulationFacadeEndToEnd) {
  Simulation sim;
  plat::Host* host = sim.platform().add_host(test::small_host("node", 1000.0, 100.0));
  plat::DiskSpec spec;
  spec.name = "d";
  spec.read_bw = 10.0;
  spec.write_bw = 10.0;
  plat::Disk* disk = host->add_disk(sim.engine(), spec);
  storage::LocalStorage* st =
      sim.create_local_storage(*host, *disk, cache::CacheMode::Writeback);
  ComputeService* cs = sim.create_compute_service(*host, *st, 50.0);
  MemoryProbe* probe = sim.create_memory_probe(*st->memory_manager(), 1.0);

  Workflow& wf = sim.create_workflow();
  wf.add_task("t", 3e9);
  wf.add_input("t", "in", 100.0);
  wf.add_output("t", "out", 100.0);
  cs->submit(wf);
  sim.run();

  EXPECT_DOUBLE_EQ(cs->result("t").compute_time(), 3.0);
  EXPECT_GT(probe->samples().size(), 5u);  // ~14 s of 1 Hz samples
  // The probe saw the anonymous memory while the task ran.
  bool saw_anon = false;
  for (const auto& s : probe->samples()) {
    if (s.anonymous > 0.0) saw_anon = true;
  }
  EXPECT_TRUE(saw_anon);
}

}  // namespace
}  // namespace pcs::wf
