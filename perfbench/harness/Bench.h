//===- perfbench/harness/Bench.h - Repository benchmark harness -*- C++ -*-===//
//
// Shared pieces of `slpbench`, the load generator behind
// `python3 perfbench/run.py`: run options, the metric report, the span
// tracer, child-process control, statistics, output checks, and the
// in-process layer replays. Every span is recorded here, around calls into
// the compiler's public functions; nothing is instrumented inside src/.
// perfbench/README.md documents the workloads and every metric.
//
//===----------------------------------------------------------------------===//

#ifndef SLPBENCH_BENCH_H
#define SLPBENCH_BENCH_H

#include "exec/ExecEngine.h"
#include "ir/Kernel.h"
#include "service/Client.h"
#include "service/Server.h"
#include "slp/Pipeline.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <sched.h>
#include <string>
#include <vector>

namespace slpbench {

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Slpc;
  unsigned Nproc = 1;
};

/// Named metrics in insertion order; `set` overwrites.
class Report {
public:
  struct Metric {
    std::string Name, Unit;
    double Value = 0;
  };
  void set(const std::string &Name, double Value, const std::string &Unit);
  const std::vector<Metric> &metrics() const { return Metrics; }

private:
  std::vector<Metric> Metrics;
};

/// Everything one workload run produced.
struct Outcome {
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Failures; ///< first few failure descriptions
  Report EndToEnd, PerLayer;
  void fail(const std::string &Why);
};

double nowSeconds(); ///< monotonic clock

/// Spans kept in memory and written as Chrome trace-event JSON at the end
/// of a traced run. Spans of one request share its id. Thread-safe.
class Tracer {
public:
  struct Span {
    std::string Name;
    double Start = 0, Dur = 0; ///< seconds on the nowSeconds() clock
    uint64_t Request = 0, Id = 0, Parent = 0;
  };
  bool Enabled = false;

  uint64_t newRequest();
  /// A fresh span id (0 when tracing is off), so children can name a
  /// parent that has not ended yet.
  uint64_t reserveId();
  /// Records a finished span under \p Id (a fresh id when 0).
  void add(const std::string &Name, double Start, double Dur,
           uint64_t Request, uint64_t Parent = 0, uint64_t Id = 0);
  bool write(const std::string &Path, const std::string &EnvJson) const;

private:
  mutable std::mutex M;
  std::vector<Span> Spans;
  uint64_t NextRequest = 0, NextId = 0;
};

/// RAII span: measures from construction to `end()` or destruction.
class SpanScope {
public:
  SpanScope(Tracer &T, std::string Name, uint64_t Request,
            uint64_t Parent = 0)
      : T(T), Name(std::move(Name)), Request(Request), Parent(Parent),
        Id(T.reserveId()), Start(nowSeconds()) {}
  ~SpanScope() { end(); }
  /// Closes the span (once) and returns its duration in seconds.
  double end();
  uint64_t id() const { return Id; }

private:
  Tracer &T;
  std::string Name;
  uint64_t Request, Parent, Id;
  double Start, Dur = -1;
};

//===-- child processes ---------------------------------------------------===//

struct ChildResult {
  bool Spawned = false;
  int ExitCode = -1; ///< -1 when killed by a signal
  std::string Stdout;
  double WallSeconds = 0;
  double PeakRssMb = 0; ///< ru_maxrss from wait4
};

/// Forks the helper process that starts and reaps every child, so a
/// child's ru_maxrss is its own and not the harness's. Call once, early,
/// while the harness is still small.
bool startSpawner();
/// Ends the helper process and waits for it.
void stopSpawner();

/// Runs \p Argv to completion, capturing stdout (stderr goes to
/// \p StderrPath). The wall time covers spawn to reap.
ChildResult runChild(const std::vector<std::string> &Argv,
                     const std::string &StderrPath);

/// Pins the calling thread to one allowed CPU, the next in turn on each
/// construction, and restores its affinity on destruction. The host places
/// each vCPU differently, which moves the cheapest kernels' per-call time
/// by up to 40% (povray's native scalar baseline measured 2.5 us on one
/// vCPU and 3.9 us on another); a run that stayed where the scheduler first
/// put it drew its run times from that one vCPU. Timing rounds taken under
/// successive turns sample every CPU equally.
class CpuTurn {
public:
  CpuTurn();
  ~CpuTurn();
  CpuTurn(const CpuTurn &) = delete;
  CpuTurn &operator=(const CpuTurn &) = delete;

private:
  cpu_set_t Saved;
};

//===-- statistics --------------------------------------------------------===//

/// Linear-interpolated percentile (\p Q in [0, 100]); 0 for no samples.
double percentile(std::vector<double> V, double Q);
double median(std::vector<double> V);
/// Harrell-Davis estimate of the \p Q-th percentile (\p Q in (0, 100)):
/// every order statistic weighted by a Beta((n+1)q, (n+1)(1-q)) density.
/// A run holds only about a hundred slpc requests, so a single or
/// interpolated order statistic moves with the noise of the one or two
/// samples at its rank; this estimator averages their neighbours too.
double hdPercentile(std::vector<double> V, double Q);
double geomean(const std::vector<double> &V);
double spearman(const std::vector<double> &A, const std::vector<double> &B);
uint64_t digest(const std::string &S);

//===-- output checks and shared inputs -----------------------------------===//

/// The 16 Table-3 kernels followed by the 3 predicated kernels.
std::vector<slp::Kernel> suiteKernels();

/// The pipeline options every workload compiles under: the slpc/slpd
/// defaults (global+layout, intel, optimized grouping, tape equivalence).
slp::PipelineOptions defaultOptions(unsigned Threads);

/// Extends \p Env, seeded for \p Source, into the environment the vector
/// program runs in: storage for unroll clones and layout replicas, and the
/// replicas' contents (the equivalence check's recipe).
void extendForVector(slp::Environment &Env, const slp::Kernel &Source,
                     const slp::PipelineResult &R);

/// An environment seeded from \p Source and extended by extendForVector.
slp::Environment makeVectorEnv(const slp::Kernel &Source,
                               const slp::PipelineResult &R, uint64_t Seed);

/// Copies \p From's values into \p To, which has the same shape, without
/// reallocating: timed calls keep running on the same buffers, so their
/// alignment does not change from batch to batch or with the seed.
void refill(slp::Environment &To, const slp::Environment &From);

/// Checks that the vector program's final environment, on the tape engine
/// and on the reference interpreters, equals the reference scalar
/// interpreter's from the same seeded environment. Returns an error
/// description, or empty when every run matches.
std::string checkAgainstReference(const slp::Kernel &Source,
                                  const slp::PipelineResult &R,
                                  uint64_t Seed);

/// The host's speed during a run. The host shares its cores, caches and
/// memory with other tenants, and its speed drifts by up to 20% over
/// minutes. suite_verify's times follow it: its latency_ms.p50 spread 0.17
/// over five runs of the same code. A fixed reference computation, part of
/// the benchmark and not of the program under test, is timed after every
/// request on the CPUs the timed work uses, and suite_verify's end-to-end
/// times are scaled to a host on which it takes ReferenceSeconds (spread
/// 0.09 on the same runs): a change to the program moves them, a change in
/// the host's speed much less.
class HostSpeed {
public:
  /// About what the computation takes on a 4-vCPU Xeon VM, so that scaled
  /// values read close to measured ones there.
  static constexpr double ReferenceSeconds = 7.5e-3;
  /// Times one run of the reference computation on the calling thread.
  void sample();
  /// ReferenceSeconds over the median sample: a measured time times this
  /// (a rate divided by it) is the time (rate) on the reference host.
  double factor() const;
  double medianSeconds() const;

private:
  std::vector<double> Samples;
};

/// Tape-engine time per call of a set of kernels and their vector
/// programs. Workloads call `round` between requests, so the timing
/// samples the same stretch of the run as the requests do rather than a
/// separate window after them.
class TapeTimer {
public:
  TapeTimer(const std::vector<slp::Kernel> &Kernels,
            const std::vector<slp::PipelineResult> &Results);
  /// Times one batch of about 1 ms of every kernel's scalar and vector
  /// program, then samples \p Host on the same CPU; returns the seconds it
  /// took.
  double round(HostSpeed &Host);
  /// Sets run_us.* (scaled by \p Host's factor) and run_speedup.* from the
  /// per-kernel medians, timing extra rounds first when fewer than five ran.
  void report(Report &E2E, HostSpeed &Host);

private:
  struct Entry {
    slp::CompiledScalarKernel CS;
    slp::CompiledVectorKernel CV;
    slp::Environment ScalarInit, VectorInit;
    /// Allocated once, in kernel order, and refilled before each batch.
    slp::Environment ScalarWork, VectorWork;
    unsigned Reps = 1;
    std::vector<double> ScalarSamples = {}, VectorSamples = {};
  };
  slp::ExecEngine Engine{slp::ExecEngineKind::Optimized};
  std::vector<Entry> Timed;
};

/// Sets run_us.geomean (scaled by \p Factor, see HostSpeed),
/// run_speedup.geomean and run_speedup.min from per-kernel scalar and
/// vector microseconds.
void reportRunTimes(Report &E2E, const std::vector<double> &ScalarUs,
                    const std::vector<double> &VectorUs, double Factor);

/// Sets the latency_ms.* metrics (Harrell-Davis percentiles) from request
/// wall times in seconds, scaled by \p Factor (see HostSpeed).
void reportLatencies(Report &E2E, const std::vector<double> &Seconds,
                     double Factor);

/// Parses "module: X% predicted improvement" (or the single kernel line)
/// from slpc output; NaN when absent.
double parsePredictedPct(const std::string &SlpcStdout);

/// Counts the "..., verified)" summary lines of slpc output.
unsigned countVerifiedLines(const std::string &SlpcStdout);

//===-- in-process layer replays (traced runs) ----------------------------===//

/// Per-layer numbers for one set of kernels, gathered across replays.
struct LayerSamples {
  std::map<std::string, std::vector<double>> Values;
  void add(const std::string &Name, double V) { Values[Name].push_back(V); }
  /// Median of the samples of \p Name; 0 when there are none.
  double med(const std::string &Name) const;
};

/// What an in-process replay of one slpc request found.
struct CompileReplay {
  /// Wall seconds of the parts slpc itself runs in-process (parse,
  /// pipeline, equivalence check); the rest of an slpc request's wall time
  /// is driver.unaccounted.
  double SlpcSideSeconds = 0;
  double PredictedPct = 0;
  std::string Error; ///< equivalence mismatch, empty when none
};

/// Replays one slpc request in-process (parse, kernel verifier, pipeline,
/// equivalence check split into its exec calls) under request \p Req,
/// adding spans to \p T and per-request samples to \p S.
CompileReplay replayCompile(const std::string &ModuleText, unsigned Threads,
                            Tracer &T, uint64_t Req, LayerSamples &S);

/// Emits, cold-builds, reloads and times the native scalar baseline and
/// vector program of each kernel; records native.* samples, per-kernel
/// speedups under native.speedup.<name>. Returns false (with \p Err) on a
/// native/reference output mismatch.
bool replayNative(const std::vector<slp::Kernel> &Kernels,
                  const std::string &CacheDir, double TimeBudget, Tracer &T,
                  LayerSamples &S, std::string &Err);

/// One compile request of \p KernelText over \p Client, traced: the
/// client-side encode, round trip and reply decode, plus the server's
/// decode, handle and reply encode replayed in-process on \p Local. Records
/// the service.* split and returns the real reply. False (with \p Err) on
/// a socket or protocol failure.
bool serviceRequest(slp::ServiceClient &Client, slp::ServiceServer &Local,
                    const std::string &KernelText, Tracer &T,
                    LayerSamples &S, slp::ServiceReply &Reply,
                    double &RoundTrip, std::string &Err);

/// Drives an in-process ServiceServer on a private socket with each
/// kernel text twice (miss, then hit) through serviceRequest, and records
/// its cache and server counters. False (with \p Err) when a reply is not
/// Ok.
bool replayService(const std::vector<std::string> &KernelTexts,
                   const std::string &SocketPath, Tracer &T, LayerSamples &S,
                   std::string &Err);

/// Publishes every per-layer metric (BENCHMARK.json's per_layer list)
/// from \p S, zero-filling counts the workload does not exercise.
void reportLayers(const LayerSamples &S,
                  const std::vector<std::string> &SuiteNames, Report &Out);

//===-- workloads ---------------------------------------------------------===//

Outcome runSuiteVerify(const RunOptions &O, Tracer &T);
Outcome runNativeRun(const RunOptions &O, Tracer &T);

} // namespace slpbench

#endif // SLPBENCH_BENCH_H
