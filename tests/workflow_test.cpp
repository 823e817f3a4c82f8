#include "workflow/workflow.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <string>

namespace pcs::wf {
namespace {

TEST(Workflow, AddTaskAndLookup) {
  Workflow wf;
  wf.add_task("t1", 1e9);
  EXPECT_EQ(wf.task_count(), 1u);
  EXPECT_DOUBLE_EQ(wf.task("t1").flops, 1e9);
  EXPECT_THROW((void)wf.task("ghost"), WorkflowError);
  EXPECT_THROW(wf.add_task("t1", 1.0), WorkflowError);
  EXPECT_THROW(wf.add_task("t2", -1.0), WorkflowError);
}

TEST(Workflow, FileDerivedDependencies) {
  Workflow wf;
  wf.add_task("producer", 1.0);
  wf.add_task("consumer", 1.0);
  wf.add_output("producer", "data", 100.0);
  wf.add_input("consumer", "data", 100.0);
  auto parents = wf.parents_of("consumer");
  EXPECT_EQ(parents.size(), 1u);
  EXPECT_TRUE(parents.count("producer"));
  EXPECT_TRUE(wf.parents_of("producer").empty());
}

TEST(Workflow, ExplicitDependencies) {
  Workflow wf;
  wf.add_task("a", 1.0);
  wf.add_task("b", 1.0);
  wf.add_dependency("a", "b");
  EXPECT_TRUE(wf.parents_of("b").count("a"));
  EXPECT_THROW(wf.add_dependency("a", "a"), WorkflowError);
  EXPECT_THROW(wf.add_dependency("ghost", "b"), WorkflowError);
}

TEST(Workflow, DuplicateProducerRejected) {
  Workflow wf;
  wf.add_task("a", 1.0);
  wf.add_task("b", 1.0);
  wf.add_output("a", "f", 10.0);
  EXPECT_THROW(wf.add_output("b", "f", 10.0), WorkflowError);
}

TEST(Workflow, ReadyTasksRespectCompletion) {
  Workflow wf;
  wf.add_task("a", 1.0);
  wf.add_task("b", 1.0);
  wf.add_task("c", 1.0);
  wf.add_dependency("a", "b");
  wf.add_dependency("b", "c");
  EXPECT_EQ(wf.ready_tasks({}), (std::vector<std::string>{"a"}));
  EXPECT_EQ(wf.ready_tasks({"a"}), (std::vector<std::string>{"b"}));
  EXPECT_EQ(wf.ready_tasks({"a", "b"}), (std::vector<std::string>{"c"}));
  EXPECT_TRUE(wf.ready_tasks({"a", "b", "c"}).empty());
}

TEST(Workflow, DiamondReadySet) {
  Workflow wf;
  for (const char* name : {"root", "left", "right", "join"}) wf.add_task(name, 1.0);
  wf.add_dependency("root", "left");
  wf.add_dependency("root", "right");
  wf.add_dependency("left", "join");
  wf.add_dependency("right", "join");
  auto ready = wf.ready_tasks({"root"});
  EXPECT_EQ(ready.size(), 2u);
  EXPECT_TRUE(wf.ready_tasks({"root", "left"}).size() == 1);  // only right
  EXPECT_EQ(wf.ready_tasks({"root", "left", "right"}), (std::vector<std::string>{"join"}));
}

TEST(Workflow, ExternalInputs) {
  Workflow wf;
  wf.add_task("t1", 1.0);
  wf.add_task("t2", 1.0);
  wf.add_input("t1", "raw", 100.0);
  wf.add_output("t1", "mid", 50.0);
  wf.add_input("t2", "mid", 50.0);
  wf.add_input("t2", "config", 5.0);
  auto ext = wf.external_inputs();
  ASSERT_EQ(ext.size(), 2u);
  EXPECT_EQ(ext[0].name, "raw");
  EXPECT_EQ(ext[1].name, "config");
}

TEST(Workflow, CycleDetection) {
  Workflow wf;
  wf.add_task("a", 1.0);
  wf.add_task("b", 1.0);
  wf.add_dependency("a", "b");
  wf.add_dependency("b", "a");
  EXPECT_THROW(wf.validate(), WorkflowError);
}

TEST(Workflow, CycleErrorNamesEveryBlockedTaskInInsertionOrder) {
  // x and d are free; a <-> b is the cycle and c waits on it.
  Workflow wf;
  wf.add_task("x", 1.0);
  wf.add_task("c", 1.0);
  wf.add_task("a", 1.0);
  wf.add_task("b", 1.0);
  wf.add_task("d", 1.0);
  wf.add_dependency("x", "a");
  wf.add_dependency("a", "b");
  wf.add_dependency("b", "a");
  wf.add_output("b", "b.out", 1.0);
  wf.add_input("c", "b.out", 1.0);
  try {
    wf.validate();
    FAIL() << "the cycle must be rejected";
  } catch (const WorkflowError& e) {
    EXPECT_STREQ(e.what(), "workflow has a dependency cycle involving: c, a, b");
  }
}

TEST(Workflow, LongChainValidatesInLinearTime) {
  // 20k tasks wired through files, declared last-first so every task's
  // parent comes after it in insertion order.  The former fixpoint rebuilt
  // every parent set on every release: O(V^2) set builds, minutes here.
  constexpr int kTasks = 20000;
  Workflow wf;
  for (int i = kTasks - 1; i >= 0; --i) {
    const std::string name = "t" + std::to_string(i);
    wf.add_task(name, 1.0);
    wf.add_output(name, "f" + std::to_string(i), 1.0);
    if (i > 0) wf.add_input(name, "f" + std::to_string(i - 1), 1.0);
  }
  const auto start = std::chrono::steady_clock::now();
  EXPECT_NO_THROW(wf.validate());
  const std::chrono::duration<double> took = std::chrono::steady_clock::now() - start;
  EXPECT_LT(took.count(), 5.0);
}

TEST(Workflow, ValidDagPasses) {
  Workflow wf;
  wf.add_task("a", 1.0);
  wf.add_task("b", 1.0);
  wf.add_task("c", 1.0);
  wf.add_dependency("a", "b");
  wf.add_dependency("a", "c");
  EXPECT_NO_THROW(wf.validate());
}

TEST(Workflow, TaskByteHelpers) {
  Workflow wf;
  wf.add_task("t", 1.0);
  wf.add_input("t", "i1", 100.0);
  wf.add_input("t", "i2", 50.0);
  wf.add_output("t", "o1", 30.0);
  EXPECT_DOUBLE_EQ(wf.task("t").input_bytes(), 150.0);
  EXPECT_DOUBLE_EQ(wf.task("t").output_bytes(), 30.0);
}

}  // namespace
}  // namespace pcs::wf
