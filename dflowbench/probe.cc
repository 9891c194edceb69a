// bench_probe: the benchmark's machine-speed probe. It is the benchmark's own
// code, so no change to dflow moves it. Every workload's requests are chains
// of cross-thread wake-ups over sockets, and on a shared virtual machine how
// long one takes is what drifts most as other tenants come and go; this
// program times exactly that: one byte bounced between two threads over a
// Unix socket pair, 1000 times. It reports the wall microseconds per round
// trip, and the CPU microseconds both threads used per round trip, which
// leave out the time the machine's other tenants held the CPU.
// dflow_bench.py runs it while every dflow process is idle.
//
// Run: bench_probe   (prints {"probe_us":W,"probe_cpu_us":C}; exits 1 when
//                     the probe fails)

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <ctime>
#include <thread>

namespace {

double ProcessCpuUs() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) * 1e6 +
         static_cast<double>(now.tv_nsec) / 1e3;
}

}  // namespace

int main() {
  constexpr int kTrips = 1000;
  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return 1;
  std::thread echo([&fds] {
    char c;
    for (int i = 0; i < kTrips; ++i) {
      if (read(fds[1], &c, 1) != 1 || write(fds[1], &c, 1) != 1) return;
    }
  });
  char c = 'x';
  int trips = 0;
  const double cpu0 = ProcessCpuUs();
  const auto t0 = std::chrono::steady_clock::now();
  while (trips < kTrips && write(fds[0], &c, 1) == 1 &&
         read(fds[0], &c, 1) == 1) {
    ++trips;
  }
  const double us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  // The echo thread has answered every trip, so its CPU time is counted.
  const double cpu_us = ProcessCpuUs() - cpu0;
  // Closing our end first ends a stuck echo's read.
  shutdown(fds[0], SHUT_RDWR);
  echo.join();
  close(fds[0]);
  close(fds[1]);
  if (trips != kTrips) return 1;
  std::printf("{\"probe_us\":%.5f,\"probe_cpu_us\":%.5f}\n", us / kTrips,
              cpu_us / kTrips);
  return 0;
}
