//===- perfbench/harness/Workloads.cpp - The benchmark workloads ----------===//
//
// suite_verify times closed-loop `slpc` invocations; native_run times the
// host-compiled scalar baseline against the generated vector program.
// perfbench/README.md gives each workload's rationale.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "exec/ExecEngine.h"
#include "ir/Printer.h"
#include "native/CEmitter.h"
#include "native/NativeBackend.h"
#include "support/Rng.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sys/resource.h>

using namespace slp;

namespace slpbench {

namespace {

/// Set-ups per run; setup_s is their median.
constexpr unsigned SetupRepeats = 5;

void writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream(Path, std::ios::binary) << Text;
}

std::string moduleText(const std::vector<Kernel> &Kernels) {
  std::string Text;
  for (const Kernel &K : Kernels)
    Text += printKernel(K) + "\n";
  return Text;
}

template <typename T> void shuffle(std::vector<T> &V, Rng &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R.nextBelow(I)]);
}

/// The suite's names in Table-3 order: the per-kernel metric names.
std::vector<std::string> suiteNames() {
  std::vector<std::string> Names;
  for (const Kernel &K : suiteKernels())
    Names.push_back(K.Name);
  return Names;
}

std::string pct2(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.2f", V);
  return Buf;
}

/// Compiles \p Kernels in-process under the slpc defaults and checks every
/// vector program against the reference interpreters. Returns the module.
ModulePipelineResult checkModule(const std::vector<Kernel> &Kernels,
                                 unsigned Threads, Outcome &Out) {
  ModulePipelineResult M = runPipelineOverModule(
      Kernels, OptimizerKind::GlobalLayout, defaultOptions(Threads));
  for (size_t I = 0; I != Kernels.size(); ++I) {
    ++Out.Attempted;
    std::string Err = checkAgainstReference(Kernels[I], M.PerKernel[I],
                                            /*Seed=*/0xC0FFEE);
    if (!Err.empty())
      Out.fail("output check: " + Err);
  }
  return M;
}

//===-- slpc request loops ------------------------------------------------===//

struct SlpcInput {
  std::string Path, Text;
  unsigned Kernels = 0;
  std::string ExpectedPct; ///< in-process prediction, as slpc prints it
};

struct LoopStats {
  std::vector<double> Latency, Rss;
  uint64_t Kernels = 0;
  double Wall = 0;
};

/// Closed-loop slpc requests cycling through \p Order for \p Seconds,
/// then on to the end of the current round of \p Round requests, so every
/// input of a round is measured equally often. A \p Tape round, which also
/// samples \p Host, runs after each request (its time is left out of the
/// loop's wall time). Every request is checked (exit status, one `verified`
/// line per kernel, the in-process prediction) and its stdout digest must
/// repeat exactly for the same input. Traced requests are replayed
/// in-process under the same request id.
LoopStats slpcLoop(const RunOptions &O, const std::vector<SlpcInput> &Inputs,
                   const std::vector<size_t> &Order, size_t Round,
                   unsigned Threads, double Seconds, bool Traced, Tracer &T,
                   LayerSamples &S, std::map<size_t, uint64_t> &Digests,
                   Outcome &Out, TapeTimer *Tape = nullptr,
                   HostSpeed *Host = nullptr) {
  LoopStats L;
  double Start = nowSeconds(), End = Start + Seconds, TapeSeconds = 0;
  for (size_t Next = 0;
       Next % Round != 0 || nowSeconds() < End || L.Latency.empty(); ++Next) {
    size_t Index = Order[Next % Order.size()];
    const SlpcInput &In = Inputs[Index];
    uint64_t Req = Traced ? T.newRequest() : 0;
    double ReqStart = nowSeconds();
    ChildResult C = runChild({O.Slpc, "-j" + std::to_string(Threads),
                              "--stats", In.Path},
                             "slpc.err");
    ++Out.Attempted;
    L.Latency.push_back(C.WallSeconds);
    L.Rss.push_back(C.PeakRssMb);
    L.Kernels += In.Kernels;
    uint64_t D = digest(C.Stdout);
    auto [It, New] = Digests.emplace(Index, D);
    if (!C.Spawned || C.ExitCode != 0)
      Out.fail(In.Path + ": slpc exited with status " +
               std::to_string(C.ExitCode));
    else if (countVerifiedLines(C.Stdout) != In.Kernels)
      Out.fail(In.Path + ": slpc printed fewer 'verified' lines than "
                         "kernels");
    else if (pct2(parsePredictedPct(C.Stdout)) != In.ExpectedPct)
      Out.fail(In.Path + ": slpc predicted improvement differs from the "
                         "in-process pipeline");
    else if (!New && It->second != D)
      Out.fail(In.Path + ": slpc output differs between two requests on "
                         "the same input");
    if (Tape)
      TapeSeconds += Tape->round(*Host);
    if (!Traced)
      continue;
    T.add("slpc.request", ReqStart, C.WallSeconds, Req);
    CompileReplay R = replayCompile(In.Text, Threads, T, Req, S);
    if (!R.Error.empty())
      Out.fail(R.Error);
    S.add("driver.unaccounted.ms",
          (C.WallSeconds - R.SlpcSideSeconds) * 1e3);
    S.add("trace.span_coverage_pct",
          std::min(100.0, 100.0 * R.SlpcSideSeconds / C.WallSeconds));
  }
  L.Wall = nowSeconds() - Start - TapeSeconds;
  return L;
}

/// Runs the untraced loop for the whole run, or, when tracing, the first
/// half untraced and the second half traced, recording the tracing
/// overhead. Returns the untraced loop's statistics.
LoopStats slpcPhases(const RunOptions &O, const std::vector<SlpcInput> &In,
                     const std::vector<size_t> &Order, size_t Round,
                     unsigned Threads, Tracer &T, LayerSamples &S,
                     Outcome &Out, TapeTimer &Tape, HostSpeed &Host) {
  std::map<size_t, uint64_t> Digests;
  // One untimed request pages the binary in.
  slpcLoop(O, In, {Order[0]}, 1, Threads, 0, false, T, S, Digests, Out);
  double Untraced = O.Trace ? O.Seconds / 2 : O.Seconds;
  LoopStats L = slpcLoop(O, In, Order, Round, Threads, Untraced, false, T, S,
                         Digests, Out, &Tape, &Host);
  if (O.Trace) {
    LoopStats TL = slpcLoop(O, In, Order, Round, Threads,
                            O.Seconds - Untraced, true, T, S, Digests, Out);
    double U = percentile(L.Latency, 50), V = percentile(TL.Latency, 50);
    S.add("trace.untraced_latency_ms.p50", U * 1e3);
    S.add("trace.latency_ms.p50", V * 1e3);
    S.add("trace.overhead_pct", 100.0 * (V / U - 1.0));
  }
  return L;
}

/// Prints the host's measured speed and records it; returns its factor.
double hostFactor(const HostSpeed &Host, LayerSamples &S) {
  std::printf("host: reference computation %.4f ms; end-to-end times and "
              "rates below are scaled by %.4f\n",
              Host.medianSeconds() * 1e3, Host.factor());
  S.add("host.reference_ms", Host.medianSeconds() * 1e3);
  return Host.factor();
}

void reportSlpcLoop(const LoopStats &L, double Factor, Report &E2E) {
  reportLatencies(E2E, L.Latency, Factor);
  E2E.set("kernels_per_s",
          static_cast<double>(L.Kernels) / L.Wall / Factor, "1/s");
  // Each child's own peak, the median over the run: the largest one moved
  // with how the -j<nproc> workers happened to overlap in one request.
  E2E.set("peak_rss_mb", median(L.Rss), "MB");
}

/// The traced tail every workload shares: a few slpc requests on the
/// suite module (compile layers) when \p SlpcRequests, the native build
/// and run of \p Native, and service requests for \p ServiceTexts.
void tracedTail(const RunOptions &O, const std::vector<Kernel> &Native,
                const std::vector<std::string> &ServiceTexts,
                bool SlpcRequests, Tracer &T, LayerSamples &S, Outcome &Out) {
  if (SlpcRequests) {
    std::vector<Kernel> Suite = suiteKernels();
    ModulePipelineResult M = runPipelineOverModule(
        Suite, OptimizerKind::GlobalLayout, defaultOptions(O.Nproc));
    std::vector<SlpcInput> In(1);
    In[0].Path = "tail.slp";
    In[0].Text = moduleText(Suite);
    In[0].Kernels = static_cast<unsigned>(Suite.size());
    In[0].ExpectedPct = pct2(100.0 * M.improvement());
    writeFile(In[0].Path, In[0].Text);
    std::map<size_t, uint64_t> Digests;
    for (int I = 0; I != 3; ++I)
      slpcLoop(O, In, {0}, 1, O.Nproc, 0, true, T, S, Digests, Out);
  }
  std::string Err;
  ++Out.Attempted;
  if (!replayNative(Native, std::filesystem::absolute("tail-native").string(),
                    3.0, T, S, Err))
    Out.fail("native replay: " + Err);
  ++Out.Attempted;
  Err.clear();
  if (!replayService(ServiceTexts, "tail.sock", T, S, Err))
    Out.fail("service replay: " + Err);
}

std::vector<std::string> printed(const std::vector<Kernel> &Kernels,
                                 size_t Limit) {
  std::vector<std::string> Out;
  for (size_t I = 0; I != Kernels.size() && I != Limit; ++I)
    Out.push_back(printKernel(Kernels[I]));
  return Out;
}

void finishLayers(Outcome &Out, LayerSamples &S) {
  S.add("failed_frac", Out.Attempted
                           ? static_cast<double>(Out.Failed) /
                                 static_cast<double>(Out.Attempted)
                           : 0);
  reportLayers(S, suiteNames(), Out.PerLayer);
}

} // namespace

//===-- suite_verify ------------------------------------------------------===//

Outcome runSuiteVerify(const RunOptions &O, Tracer &T) {
  // The seed draws this many kernel orders; requests cycle through them.
  // Order alone moves slpc's wall time by about 5% (environment-pool reuse
  // differs), so one order per run would make that a seed effect.
  constexpr size_t Orders = 4;
  Outcome Out;
  LayerSamples S;
  std::vector<double> Setups;
  std::vector<Kernel> Kernels = suiteKernels();
  std::vector<SlpcInput> In(Orders);
  ModulePipelineResult M;
  // Set-up: generate the inputs and check every kernel's output.
  for (unsigned Rep = 0; Rep != SetupRepeats; ++Rep) {
    double Start = nowSeconds();
    Rng R(O.Seed);
    Kernels = suiteKernels();
    Outcome Check;
    M = checkModule(Kernels, O.Nproc, Check);
    for (size_t I = 0; I != Orders; ++I) {
      std::vector<size_t> Perm(Kernels.size());
      for (size_t K = 0; K != Perm.size(); ++K)
        Perm[K] = K;
      shuffle(Perm, R);
      std::vector<Kernel> Shuffled;
      double Scalar = 0, Vector = 0; // summed in module order, as slpc does
      for (size_t K : Perm) {
        Shuffled.push_back(Kernels[K]);
        Scalar += M.PerKernel[K].ScalarSim.Cycles;
        Vector += M.PerKernel[K].VectorSim.Cycles;
      }
      In[I].Path = "suite" + std::to_string(I) + ".slp";
      In[I].Text = moduleText(Shuffled);
      In[I].Kernels = static_cast<unsigned>(Kernels.size());
      In[I].ExpectedPct = pct2(100.0 * (1.0 - Vector / Scalar));
      writeFile(In[I].Path, In[I].Text);
    }
    Setups.push_back(nowSeconds() - Start);
    if (Rep == 0) {
      Out.Attempted += Check.Attempted;
      Out.Failed += Check.Failed;
      Out.Failures = Check.Failures;
    }
  }

  std::vector<size_t> Order(Orders);
  for (size_t I = 0; I != Orders; ++I)
    Order[I] = I;
  TapeTimer Tape(Kernels, M.PerKernel);
  HostSpeed Host;
  LoopStats L =
      slpcPhases(O, In, Order, Orders, O.Nproc, T, S, Out, Tape, Host);
  const double Factor = hostFactor(Host, S);
  reportSlpcLoop(L, Factor, Out.EndToEnd);
  Out.EndToEnd.set("setup_s", median(Setups) * Factor, "s");
  Out.EndToEnd.set("predicted_improvement_pct", 100.0 * M.improvement(), "%");
  Tape.report(Out.EndToEnd, Host);
  if (O.Trace)
    tracedTail(O, Kernels, printed(Kernels, 4), false, T, S, Out);
  finishLayers(Out, S);
  return Out;
}

//===-- native_run --------------------------------------------------------===//

namespace {

struct NativeKernel {
  NativeKernel(Kernel K, PipelineResult R, Environment S, Environment V)
      : K(std::move(K)), R(std::move(R)), ScalarInit(S), VectorInit(V),
        ScalarWork(std::move(S)), VectorWork(std::move(V)) {}
  Kernel K;
  PipelineResult R;
  Environment ScalarInit, VectorInit;
  /// The environments the timed calls run on, refilled before each batch.
  Environment ScalarWork, VectorWork;
  CompiledScalarKernel CS;
  CompiledVectorKernel CV;
  unsigned ScalarReps = 1, VectorReps = 1;
  std::vector<double> ScalarSamples, VectorSamples;
};

} // namespace

Outcome runNativeRun(const RunOptions &O, Tracer &T) {
  Outcome Out;
  LayerSamples S;
  std::string Why;
  if (!nativeBackendAvailable(&Why)) {
    Out.fail("native backend unavailable: " + Why);
    return Out;
  }
  Rng R(O.Seed);
  std::vector<Kernel> Kernels = suiteKernels();
  // The seeded build, dlopen and timing order.
  std::vector<size_t> Order(Kernels.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  shuffle(Order, R);

  ExecEngine Engine(ExecEngineKind::Native);
  std::vector<double> Setups;
  ModulePipelineResult M;
  for (unsigned Rep = 0; Rep != SetupRepeats; ++Rep) {
    // A fresh private object cache and an empty in-process handle map:
    // every object is built cold.
    std::string Dir =
        std::filesystem::absolute("native-cache" + std::to_string(Rep))
            .string();
    std::filesystem::remove_all(Dir);
    ::setenv("SLP_NATIVE_CACHE_DIR", Dir.c_str(), 1);
    nativeClearMemoryCacheForTesting();
    double Start = nowSeconds();
    M = runPipelineOverModule(Kernels, OptimizerKind::GlobalLayout,
                              defaultOptions(O.Nproc));
    for (size_t I : Order) {
      NativeCompileResult A =
          compileNativeTU(emitScalarKernelC(Kernels[I]), true);
      NativeCompileResult B = compileNativeTU(
          emitVectorProgramC(M.PerKernel[I].Final, M.PerKernel[I].Program),
          false);
      if (!A.Object || !B.Object || A.CacheHit || B.CacheHit) {
        Out.fail(Kernels[I].Name + ": cold native build failed: " + A.Error +
                 B.Error);
        return Out;
      }
    }
    Setups.push_back(nowSeconds() - Start);
  }

  std::vector<NativeKernel> NK;
  // Environments are allocated once, in Table-3 order, not the seeded
  // order, and every batch runs on the same work buffers: the vector
  // code's speed depends on its buffers' alignment, which would otherwise
  // change with the seed and from batch to batch.
  NK.reserve(Kernels.size());
  for (size_t I = 0; I != Kernels.size(); ++I)
    NK.emplace_back(Kernels[I], M.PerKernel[I], Environment(Kernels[I], 1),
                    makeVectorEnv(Kernels[I], M.PerKernel[I], 1));
  for (NativeKernel &N : NK) {
    N.CS = Engine.compileScalar(N.K);
    N.CV = Engine.compileVector(N.R.Final, N.R.Program);
  }
  if (Engine.counters().NativeCompiles != 0 ||
      Engine.counters().NativeFallbacks != 0) {
    Out.fail("native engine rebuilt or fell back after setup: " +
             Engine.nativeDiagnostic());
    return Out;
  }
  // Output checks: native scalar and vector, tape and reference vector,
  // all bit-identical to the reference scalar interpreter.
  ExecEngine Reference(ExecEngineKind::Reference);
  for (NativeKernel &N : NK) {
    ++Out.Attempted;
    std::string Err = checkAgainstReference(N.K, N.R, 0xC0FFEE);
    Environment Expected(N.K, 0xC0FFEE);
    Reference.runKernel(N.K, Expected);
    Environment Scalar(N.K, 0xC0FFEE);
    Engine.runScalar(N.CS, Scalar);
    Environment Vector = makeVectorEnv(N.K, N.R, 0xC0FFEE);
    Engine.runVector(N.CV, Vector);
    unsigned NS = static_cast<unsigned>(N.K.Scalars.size());
    unsigned NA = static_cast<unsigned>(N.K.Arrays.size());
    if (Err.empty() && (!Scalar.matches(Expected, NS, NA) ||
                        !Vector.matches(Expected, NS, NA)))
      Err = N.K.Name + ": native output differs from the reference "
                       "interpreter";
    if (!Err.empty())
      Out.fail("output check: " + Err);
    // Batches of about 0.5 ms per side, each sized from the median of
    // five calls. One probe call, shared by both sides, gave the cheapest
    // scalar kernels batches of a few dozen microseconds, whose per-call
    // time moved by 30% between runs with the noise of that single probe.
    auto BatchReps = [](auto &&Call) {
      std::vector<double> Probe;
      for (int I = 0; I != 5; ++I) {
        double A = nowSeconds();
        Call();
        Probe.push_back(nowSeconds() - A);
      }
      return static_cast<unsigned>(
          std::clamp(5e-4 / std::max(median(Probe), 1e-8), 4.0, 1e5));
    };
    N.ScalarReps = BatchReps([&] { Engine.runScalar(N.CS, N.ScalarWork); });
    N.VectorReps = BatchReps([&] { Engine.runVector(N.CV, N.VectorWork); });
  }

  // Interleaved scalar and vector batches in a seeded kernel order.
  auto Phase = [&](double Seconds, bool Traced) {
    for (NativeKernel &N : NK) {
      N.ScalarSamples.clear();
      N.VectorSamples.clear();
    }
    double End = nowSeconds() + Seconds;
    std::vector<size_t> Visit(NK.size());
    for (size_t I = 0; I != Visit.size(); ++I)
      Visit[I] = I;
    while (nowSeconds() < End) {
      CpuTurn Turn;
      shuffle(Visit, R);
      for (size_t I : Visit) {
        NativeKernel &N = NK[I];
        bool VectorFirst = R.nextBelow(2) == 1;
        for (int Side = 0; Side != 2; ++Side) {
          bool IsVector = (Side == 0) == VectorFirst;
          Environment &Env = IsVector ? N.VectorWork : N.ScalarWork;
          refill(Env, IsVector ? N.VectorInit : N.ScalarInit);
          uint64_t Req = Traced ? T.newRequest() : 0;
          const unsigned Reps = IsVector ? N.VectorReps : N.ScalarReps;
          double A = nowSeconds();
          for (unsigned Rep = 0; Rep != Reps; ++Rep)
            IsVector ? Engine.runVector(N.CV, Env)
                     : (void)Engine.runScalar(N.CS, Env);
          double D = nowSeconds() - A;
          T.add(IsVector ? "native.run_vector" : "native.run_scalar", A, D,
                Req);
          (IsVector ? N.VectorSamples : N.ScalarSamples).push_back(D / Reps);
        }
      }
    }
  };
  /// Each kernel's median seconds per call of one side, in Table-3 order.
  auto PerKernel = [&](bool Vector) {
    std::vector<double> V;
    for (const NativeKernel &N : NK)
      V.push_back(median(Vector ? N.VectorSamples : N.ScalarSamples));
    return V;
  };
  const double Untraced = O.Trace ? O.Seconds / 2 : O.Seconds;
  Phase(Untraced, false);
  const std::vector<double> ScalarS = PerKernel(false);
  const std::vector<double> VectorS = PerKernel(true);
  if (O.Trace) {
    Phase(O.Seconds - Untraced, true);
    double U = hdPercentile(VectorS, 50), V = hdPercentile(PerKernel(true), 50);
    S.add("trace.untraced_latency_ms.p50", U * 1e3);
    S.add("trace.latency_ms.p50", V * 1e3);
    S.add("trace.overhead_pct", 100.0 * (V / U - 1.0));
    S.add("trace.span_coverage_pct", 100.0);
  }
  struct rusage Usage {};
  ::getrusage(RUSAGE_SELF, &Usage);

  // The latency of one call of a generated vector program: percentiles over
  // the kernels of each kernel's median call. The per-call times of every
  // batch pooled had no steady median (it sat where one cheap kernel's
  // samples met another's: spread up to 0.27 over ten seeds), and the p90 of
  // a round calling every program once followed whichever CPU was slowest
  // (0.31 over five). native_run's times are not scaled by HostSpeed: its
  // programs are small and compute-bound, and its set-up is cc runs; both
  // held steady in runs where the reference computation moved by 12-24%,
  // and scaling added that noise.
  reportLatencies(Out.EndToEnd, VectorS, 1.0);
  // One call of each vector program in turn, from the per-kernel medians.
  double SuiteS = 0;
  for (double Sec : VectorS)
    SuiteS += Sec;
  Out.EndToEnd.set("kernels_per_s",
                   static_cast<double>(VectorS.size()) / SuiteS, "1/s");
  Out.EndToEnd.set("peak_rss_mb", static_cast<double>(Usage.ru_maxrss) / 1024,
                   "MB");
  Out.EndToEnd.set("setup_s", median(Setups), "s");
  Out.EndToEnd.set("predicted_improvement_pct", 100.0 * M.improvement(), "%");
  std::vector<double> ScalarUs, VectorUs;
  for (size_t I = 0; I != NK.size(); ++I) {
    ScalarUs.push_back(ScalarS[I] * 1e6);
    VectorUs.push_back(VectorS[I] * 1e6);
  }
  reportRunTimes(Out.EndToEnd, ScalarUs, VectorUs, 1.0);
  if (O.Trace)
    tracedTail(O, Kernels, printed(Kernels, 4), true, T, S, Out);
  finishLayers(Out, S);
  return Out;
}

} // namespace slpbench
