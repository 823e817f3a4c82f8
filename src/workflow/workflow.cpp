#include "workflow/workflow.hpp"

#include <algorithm>

namespace pcs::wf {

WorkflowTask& Workflow::add_task(const std::string& name, double flops) {
  if (tasks_.count(name) != 0) throw WorkflowError("duplicate task '" + name + "'");
  if (flops < 0.0) throw WorkflowError("task '" + name + "': negative flops");
  WorkflowTask task;
  task.name = name;
  task.flops = flops;
  auto [it, inserted] = tasks_.emplace(name, std::move(task));
  (void)inserted;
  order_.push_back(name);
  return it->second;
}

void Workflow::add_input(const std::string& task_name, const std::string& file, double size) {
  if (size < 0.0) throw WorkflowError("input '" + file + "': negative size");
  task(task_name).inputs.push_back({file, size});
}

void Workflow::add_output(const std::string& task_name, const std::string& file, double size) {
  if (size < 0.0) throw WorkflowError("output '" + file + "': negative size");
  auto it = producer_of_.find(file);
  if (it != producer_of_.end() && it->second != task_name) {
    throw WorkflowError("file '" + file + "' produced by both '" + it->second + "' and '" +
                        task_name + "'");
  }
  task(task_name).outputs.push_back({file, size});
  producer_of_[file] = task_name;
}

void Workflow::add_dependency(const std::string& parent, const std::string& child) {
  (void)task(parent);  // validate both exist
  (void)task(child);
  if (parent == child) throw WorkflowError("task '" + parent + "' cannot depend on itself");
  explicit_deps_[child].insert(parent);
}

WorkflowTask& Workflow::task(const std::string& name) {
  auto it = tasks_.find(name);
  if (it == tasks_.end()) throw WorkflowError("unknown task '" + name + "'");
  return it->second;
}

const WorkflowTask& Workflow::task(const std::string& name) const {
  auto it = tasks_.find(name);
  if (it == tasks_.end()) throw WorkflowError("unknown task '" + name + "'");
  return it->second;
}

std::set<std::string> Workflow::parents_of(const std::string& child) const {
  std::set<std::string> parents;
  auto dep_it = explicit_deps_.find(child);
  if (dep_it != explicit_deps_.end()) parents = dep_it->second;
  for (const FileSpec& input : task(child).inputs) {
    auto prod_it = producer_of_.find(input.name);
    if (prod_it != producer_of_.end() && prod_it->second != child) {
      parents.insert(prod_it->second);
    }
  }
  return parents;
}

std::vector<std::string> Workflow::ready_tasks(const std::set<std::string>& completed) const {
  std::vector<std::string> ready;
  for (const std::string& name : order_) {
    if (completed.count(name) != 0) continue;
    std::set<std::string> parents = parents_of(name);
    bool all_done = std::all_of(parents.begin(), parents.end(), [&](const std::string& p) {
      return completed.count(p) != 0;
    });
    if (all_done) ready.push_back(name);
  }
  return ready;
}

std::vector<FileSpec> Workflow::external_inputs() const {
  std::vector<FileSpec> external;
  std::set<std::string> seen;
  for (const std::string& name : order_) {
    for (const FileSpec& input : tasks_.at(name).inputs) {
      if (producer_of_.count(input.name) == 0 && seen.insert(input.name).second) {
        external.push_back(input);
      }
    }
  }
  return external;
}

void Workflow::validate() const {
  // Kahn's algorithm over task indices: parent sets are built once, child
  // lists derived from them, and a worklist releases each task when its
  // last parent is done.  Leftovers indicate a cycle.
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < order_.size(); ++i) index.emplace(order_[i], i);
  std::vector<std::size_t> pending(order_.size(), 0);
  std::vector<std::vector<std::size_t>> children(order_.size());
  for (std::size_t i = 0; i < order_.size(); ++i) {
    for (const std::string& parent : parents_of(order_[i])) {
      children[index.at(parent)].push_back(i);
      ++pending[i];
    }
  }
  std::vector<std::size_t> worklist;
  for (std::size_t i = 0; i < order_.size(); ++i) {
    if (pending[i] == 0) worklist.push_back(i);
  }
  std::size_t completed = 0;
  while (!worklist.empty()) {
    const std::size_t done = worklist.back();
    worklist.pop_back();
    ++completed;
    for (std::size_t child : children[done]) {
      if (--pending[child] == 0) worklist.push_back(child);
    }
  }
  if (completed != tasks_.size()) {
    std::string stuck;
    for (std::size_t i = 0; i < order_.size(); ++i) {
      if (pending[i] != 0) {
        if (!stuck.empty()) stuck += ", ";
        stuck += order_[i];
      }
    }
    throw WorkflowError("workflow has a dependency cycle involving: " + stuck);
  }
}

}  // namespace pcs::wf
