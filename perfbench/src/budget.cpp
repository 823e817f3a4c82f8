#include "budget.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <stdexcept>

#include "spans.hpp"

namespace perfbench {
namespace {

std::uint64_t g_children_peak_kb = 0;

void write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

/// Reap the child and record its peak RSS.  A killed child counts too: the
/// cases that overrun are the ones with the largest LRU lists.
void reap(pid_t pid) {
  int status = 0;
  struct rusage usage {};
  while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  g_children_peak_kb = std::max<std::uint64_t>(g_children_peak_kb,
                                                static_cast<std::uint64_t>(usage.ru_maxrss));
}

}  // namespace

UnitResult run_budgeted(double budget_s, const std::function<util::Json()>& body) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const double t0 = now_s();
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    std::string out;
    try {
      out = "ok\n" + body().dump();
    } catch (const std::exception& e) {
      out = std::string("error\n") + e.what();
    }
    write_all(fds[1], out);
    ::close(fds[1]);
    ::_exit(0);
  }
  ::close(fds[1]);

  UnitResult result;
  std::string received;
  bool timed_out = false;
  char buf[65536];
  for (;;) {
    const double remaining = t0 + budget_s - now_s();
    if (remaining <= 0.0) {
      timed_out = true;
      break;
    }
    struct pollfd pfd {fds[0], POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(std::ceil(remaining * 1000.0)));
    if (ready < 0 && errno == EINTR) continue;
    if (ready == 0) continue;  // re-check the deadline
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF: the child is done
    received.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  if (timed_out) ::kill(pid, SIGKILL);
  reap(pid);

  if (timed_out) {
    result.status = UnitResult::Status::Timeout;
  } else if (received.rfind("ok\n", 0) == 0) {
    result.body = util::Json::parse(received.substr(3));
  } else {
    result.status = UnitResult::Status::Error;
    result.error = received.rfind("error\n", 0) == 0 ? received.substr(6)
                                                     : "case process died without a result";
  }
  return result;
}

std::uint64_t children_peak_rss_kb() { return g_children_peak_kb; }

}  // namespace perfbench
