// Launches pelican_engined with a parent-death signal armed: when the
// benchmark process that forked this engine dies (including by SIGKILL),
// the kernel SIGKILLs the engine too. prctl settings survive execv.
//
// The parent pid is passed in PERFBENCH_PARENT_PID so a parent that died
// before prctl ran (the child was then reparented) is detected.
#include <sys/prctl.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

int main(int /*argc*/, char** argv) {
  if (::prctl(PR_SET_PDEATHSIG, SIGKILL) != 0) {
    std::perror("perfbench_engined: prctl");
    return 127;
  }
  if (const char* parent = std::getenv("PERFBENCH_PARENT_PID")) {
    if (std::to_string(::getppid()) != parent) return 127;
  }
  argv[0] = const_cast<char*>(PERFBENCH_ENGINED_PATH);
  ::execv(PERFBENCH_ENGINED_PATH, argv);
  std::perror("perfbench_engined: execv " PERFBENCH_ENGINED_PATH);
  return 127;
}
