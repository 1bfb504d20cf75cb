//===- perfbench/harness/main.cpp - slpbench entry point ------------------===//
//
//   slpbench --workload NAME --seed N --seconds S --trace 0|1
//            --slpc PATH --work-root DIR
//
// Runs one workload in a private directory under DIR, prints a readable
// report, and prints as its last stdout line one JSON object with the keys
// correct, attempted, failed and metrics (end-to-end metrics untraced,
// per-layer metrics traced). Exits 1 when any output check failed, 2 on a
// usage error. `python3 perfbench/run.py` builds and invokes it.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "native/NativeBackend.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sched.h>
#include <unistd.h>

using namespace slpbench;

namespace {

/// Environment variables that change what slpc, the service layer and the
/// native backend do; cleared so CI-style overrides cannot change the
/// measurement.
const char *const PinnedVariables[] = {
    "SLP_EXEC_ENGINE", "SLP_VERIFY_VECTOR", "SLP_VERIFY_KERNEL",
    "SLP_NATIVE_CC",   "SLP_NATIVE_CFLAGS", "SLP_NATIVE_CACHE_DIR",
};

unsigned onlineCpus() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return std::max(1, CPU_COUNT(&Set));
  return 1;
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string envJson(const RunOptions &O) {
  return "{\"workload\": \"" + O.Workload + "\", \"seed\": " +
         std::to_string(O.Seed) + ", \"seconds\": " + jsonNumber(O.Seconds) +
         ", \"trace\": " + (O.Trace ? "1" : "0") +
         ", \"build_type\": \"" SLPBENCH_BUILD_TYPE
         "\", \"cxx\": \"" SLPBENCH_CXX "\", \"host_cc\": \"" +
         slp::nativeHostCompiler() + "\", \"nproc\": " +
         std::to_string(O.Nproc) + "}";
}

int usage(const char *Why) {
  std::fprintf(stderr, "slpbench: %s\n", Why);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  for (const char *V : PinnedVariables)
    ::unsetenv(V);

  RunOptions O;
  std::string WorkRoot;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I], Value = Argv[I + 1];
    if (Flag == "--workload")
      O.Workload = Value;
    else if (Flag == "--seed")
      O.Seed = std::strtoull(Value.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      O.Seconds = std::strtod(Value.c_str(), nullptr);
    else if (Flag == "--trace")
      O.Trace = Value == "1";
    else if (Flag == "--slpc")
      O.Slpc = Value;
    else if (Flag == "--work-root")
      WorkRoot = Value;
    else
      return usage(("unknown flag " + Flag).c_str());
  }
  Outcome (*Run)(const RunOptions &, Tracer &) = nullptr;
  if (O.Workload == "suite_verify")
    Run = runSuiteVerify;
  else if (O.Workload == "native_run")
    Run = runNativeRun;
  if (!Run || O.Slpc.empty() || WorkRoot.empty() || O.Seconds <= 0)
    return usage("usage: slpbench --workload suite_verify|native_run "
                 "--seed N --seconds S --trace 0|1 "
                 "--slpc PATH --work-root DIR");
  O.Nproc = onlineCpus();

  // A private directory per run: sockets, caches and inputs never leak
  // between runs, and relative socket paths stay short.
  namespace fs = std::filesystem;
  fs::path Root = fs::absolute(WorkRoot);
  fs::path Work = Root / (O.Workload + "-" + std::to_string(::getpid()));
  fs::remove_all(Work);
  fs::create_directories(Work);
  std::string TracePath = (Root / ("trace-" + O.Workload + "-seed" +
                                   std::to_string(O.Seed) + ".json"))
                              .string();
  if (::chdir(Work.c_str()) != 0)
    return usage("cannot enter the work directory");
  if (!startSpawner())
    return usage("cannot start the spawner process");

  Tracer T;
  T.Enabled = O.Trace;
  std::printf("slpbench: %s\n", envJson(O).c_str());
  std::fflush(stdout);
  Outcome Out = Run(O, T);

  const Report &R = O.Trace ? Out.PerLayer : Out.EndToEnd;
  if (O.Trace) {
    std::printf("end-to-end (untraced half of this run):\n");
    for (const Report::Metric &M : Out.EndToEnd.metrics())
      std::printf("  %-32s %14.6g %s\n", M.Name.c_str(), M.Value,
                  M.Unit.c_str());
    if (!T.write(TracePath, envJson(O)))
      Out.fail("cannot write the trace to " + TracePath);
    else
      std::printf("trace: %s\n", TracePath.c_str());
  }
  std::printf("%s:\n", O.Trace ? "per-layer" : "end-to-end");
  for (const Report::Metric &M : R.metrics())
    std::printf("  %-32s %14.6g %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  std::printf("requests: %llu attempted, %llu failed (failed_frac %.6g)\n",
              static_cast<unsigned long long>(Out.Attempted),
              static_cast<unsigned long long>(Out.Failed),
              Out.Attempted ? static_cast<double>(Out.Failed) /
                                  static_cast<double>(Out.Attempted)
                            : 0.0);
  for (const std::string &F : Out.Failures)
    std::printf("FAILED: %s\n", F.c_str());

  stopSpawner();
  ::chdir(Root.c_str());
  fs::remove_all(Work);

  bool Correct = Out.Failed == 0 && Out.Attempted > 0;
  std::string Json = "{\"correct\": " +
                     std::string(Correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(Out.Attempted) +
                     ", \"failed\": " + std::to_string(Out.Failed) +
                     ", \"metrics\": {";
  for (size_t I = 0; I != R.metrics().size(); ++I) {
    const Report::Metric &M = R.metrics()[I];
    Json += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " +
            jsonNumber(M.Value) + ", \"unit\": \"" + M.Unit + "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return Correct ? 0 : 1;
}
