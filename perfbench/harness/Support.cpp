//===- perfbench/harness/Support.cpp - Tracer, children, statistics -------===//

#include "Bench.h"

#include "exec/ExecEngine.h"
#include "layout/Layout.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <iterator>
#include <memory_resource>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#include <unordered_map>

extern char **environ;

using namespace slp;

namespace slpbench {

void Report::set(const std::string &Name, double Value,
                 const std::string &Unit) {
  for (Metric &M : Metrics)
    if (M.Name == Name) {
      M.Value = Value;
      M.Unit = Unit;
      return;
    }
  Metrics.push_back({Name, Unit, Value});
}

void Outcome::fail(const std::string &Why) {
  ++Failed;
  if (Failures.size() < 8)
    Failures.push_back(Why);
}

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

//===-- Tracer ------------------------------------------------------------===//

uint64_t Tracer::newRequest() {
  std::lock_guard<std::mutex> Lock(M);
  return ++NextRequest;
}

uint64_t Tracer::reserveId() {
  if (!Enabled)
    return 0;
  std::lock_guard<std::mutex> Lock(M);
  return ++NextId;
}

void Tracer::add(const std::string &Name, double Start, double Dur,
                 uint64_t Request, uint64_t Parent, uint64_t Id) {
  if (!Enabled)
    return;
  std::lock_guard<std::mutex> Lock(M);
  Spans.push_back({Name, Start, Dur, Request, Id ? Id : ++NextId, Parent});
}

bool Tracer::write(const std::string &Path, const std::string &EnvJson) const {
  std::lock_guard<std::mutex> Lock(M);
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  double Origin = Spans.empty() ? 0 : Spans.front().Start;
  for (const Span &S : Spans)
    Origin = std::min(Origin, S.Start);
  std::fprintf(F, "{\"displayTimeUnit\": \"ms\", \"otherData\": %s,\n"
                  "\"traceEvents\": [\n",
               EnvJson.c_str());
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "{\"name\": \"%s\", \"cat\": \"slpbench\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"request\": %llu, \"id\": %llu, "
                 "\"parent\": %llu}}%s\n",
                 S.Name.c_str(), static_cast<unsigned long long>(S.Request),
                 (S.Start - Origin) * 1e6,
                 S.Dur * 1e6, static_cast<unsigned long long>(S.Request),
                 static_cast<unsigned long long>(S.Id),
                 static_cast<unsigned long long>(S.Parent),
                 I + 1 == Spans.size() ? "" : ",");
  }
  std::fprintf(F, "]}\n");
  return std::fclose(F) == 0;
}

double SpanScope::end() {
  if (Dur < 0) {
    Dur = nowSeconds() - Start;
    T.add(Name, Start, Dur, Request, Parent, Id);
  }
  return Dur;
}

//===-- child processes ---------------------------------------------------===//
//
// Linux charges a process's memory before exec to the exec'd program's
// ru_maxrss, so a child started by the harness (which holds hundreds of MB
// of compiled kernels and environments) would report the harness's peak.
// Children are therefore started and reaped by a small helper process,
// forked before the harness grows; requests and replies travel over two
// pipes.

namespace {

int ToHelper = -1, FromHelper = -1;

bool writeAll(int Fd, const void *Data, size_t Size) {
  const char *P = static_cast<const char *>(Data);
  while (Size) {
    ssize_t N = ::write(Fd, P, Size);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    P += N;
    Size -= static_cast<size_t>(N);
  }
  return true;
}

bool readAll(int Fd, void *Data, size_t Size) {
  char *P = static_cast<char *>(Data);
  while (Size) {
    ssize_t N = ::read(Fd, P, Size);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    P += N;
    Size -= static_cast<size_t>(N);
  }
  return true;
}

template <typename T> bool put(int Fd, const T &V) {
  return writeAll(Fd, &V, sizeof(V));
}
template <typename T> bool get(int Fd, T &V) {
  return readAll(Fd, &V, sizeof(V));
}

bool putStrings(int Fd, const std::vector<std::string> &V) {
  if (!put(Fd, static_cast<uint32_t>(V.size())))
    return false;
  for (const std::string &S : V)
    if (!put(Fd, static_cast<uint32_t>(S.size())) ||
        !writeAll(Fd, S.data(), S.size()))
      return false;
  return true;
}

bool getStrings(int Fd, std::vector<std::string> &V) {
  uint32_t N = 0;
  if (!get(Fd, N))
    return false;
  V.assign(N, {});
  for (std::string &S : V) {
    uint32_t Len = 0;
    if (!get(Fd, Len))
      return false;
    S.resize(Len);
    if (!readAll(Fd, S.data(), Len))
      return false;
  }
  return true;
}

/// Spawns Argv with stdout and stderr redirected to files; -1 on failure.
pid_t spawnRedirected(const std::vector<std::string> &Argv,
                      const std::string &OutPath, const std::string &ErrPath) {
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_addopen(&Actions, STDOUT_FILENO, OutPath.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&Actions, STDERR_FILENO, ErrPath.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  std::vector<char *> Args;
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);
  pid_t Pid = -1;
  int Rc = posix_spawn(&Pid, Args[0], &Actions, nullptr, Args.data(), environ);
  posix_spawn_file_actions_destroy(&Actions);
  return Rc == 0 ? Pid : -1;
}

/// Waits for \p Pid and returns its exit code (-1 when killed by a
/// signal) and peak RSS.
void reapChild(pid_t Pid, int32_t &Code, double &RssMb) {
  int Status = 0;
  struct rusage Usage {};
  while (::wait4(Pid, &Status, 0, &Usage) < 0 && errno == EINTR) {
  }
  Code = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  RssMb = static_cast<double>(Usage.ru_maxrss) / 1024.0;
}

/// Serves run requests (stdout path, stderr path, argv) until the harness
/// closes the request pipe.
[[noreturn]] void helperLoop(int In, int Out) {
  for (;;) {
    std::vector<std::string> Args;
    if (!getStrings(In, Args))
      ::_exit(0);
    if (Args.size() < 3)
      ::_exit(1);
    int32_t Code = -1;
    double Rss = 0;
    int32_t Pid =
        spawnRedirected({Args.begin() + 2, Args.end()}, Args[0], Args[1]);
    if (Pid > 0)
      reapChild(Pid, Code, Rss);
    put(Out, Pid);
    put(Out, Code);
    put(Out, Rss);
  }
}

pid_t HelperPid = -1;

} // namespace

bool startSpawner() {
  int Req[2], Rep[2];
  if (::pipe2(Req, O_CLOEXEC) != 0 || ::pipe2(Rep, O_CLOEXEC) != 0)
    return false;
  pid_t Pid = ::fork();
  if (Pid < 0)
    return false;
  if (Pid == 0) {
    ::close(Req[1]);
    ::close(Rep[0]);
    helperLoop(Req[0], Rep[1]);
  }
  ::close(Req[0]);
  ::close(Rep[1]);
  ToHelper = Req[1];
  FromHelper = Rep[0];
  HelperPid = Pid;
  return true;
}

void stopSpawner() {
  if (HelperPid <= 0)
    return;
  ::close(ToHelper); // the helper exits on end of input
  ::close(FromHelper);
  int Status = 0;
  while (::waitpid(HelperPid, &Status, 0) < 0 && errno == EINTR) {
  }
  HelperPid = -1;
}

ChildResult runChild(const std::vector<std::string> &Argv,
                     const std::string &StderrPath) {
  ChildResult R;
  const std::string OutPath = "child.out";
  std::vector<std::string> Request = {OutPath, StderrPath};
  Request.insert(Request.end(), Argv.begin(), Argv.end());
  int32_t Pid = -1, Code = -1;
  double Start = nowSeconds();
  if (!putStrings(ToHelper, Request) || !get(FromHelper, Pid) ||
      !get(FromHelper, Code) || !get(FromHelper, R.PeakRssMb))
    return R;
  R.WallSeconds = nowSeconds() - Start;
  R.Spawned = Pid > 0;
  R.ExitCode = Code;
  std::ifstream In(OutPath, std::ios::binary);
  R.Stdout.assign(std::istreambuf_iterator<char>(In), {});
  return R;
}

CpuTurn::CpuTurn() {
  static unsigned Next = 0;
  CPU_ZERO(&Saved);
  if (::sched_getaffinity(0, sizeof(Saved), &Saved) != 0)
    return;
  std::vector<int> Cpus;
  for (int C = 0; C != CPU_SETSIZE; ++C)
    if (CPU_ISSET(C, &Saved))
      Cpus.push_back(C);
  cpu_set_t One;
  CPU_ZERO(&One);
  CPU_SET(Cpus[Next++ % Cpus.size()], &One);
  ::sched_setaffinity(0, sizeof(One), &One);
}

CpuTurn::~CpuTurn() { ::sched_setaffinity(0, sizeof(Saved), &Saved); }

//===-- statistics --------------------------------------------------------===//

double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q / 100.0 * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double median(std::vector<double> V) { return percentile(std::move(V), 50); }

namespace {

/// The regularized incomplete beta function I_x(a, b), by its continued
/// fraction (modified Lentz), using the symmetry relation on the side
/// where the fraction converges slowly.
double incompleteBeta(double A, double B, double X) {
  if (X <= 0)
    return 0;
  if (X >= 1)
    return 1;
  if (X > (A + 1) / (A + B + 2))
    return 1 - incompleteBeta(B, A, 1 - X);
  const double Tiny = 1e-300;
  auto Clamp = [&](double V) { return std::fabs(V) < Tiny ? Tiny : V; };
  double C = 1, D = 1 / Clamp(1 - (A + B) * X / (A + 1)), F = D;
  for (int M = 1; M <= 10000; ++M) {
    double M2 = 2.0 * M;
    double Even = M * (B - M) * X / ((A + M2 - 1) * (A + M2));
    D = 1 / Clamp(1 + Even * D);
    C = Clamp(1 + Even / C);
    F *= D * C;
    double Odd = -(A + M) * (A + B + M) * X / ((A + M2) * (A + M2 + 1));
    D = 1 / Clamp(1 + Odd * D);
    C = Clamp(1 + Odd / C);
    F *= D * C;
    if (std::fabs(D * C - 1) < 1e-13)
      break;
  }
  double LogFront = std::lgamma(A + B) - std::lgamma(A) - std::lgamma(B) +
                    A * std::log(X) + B * std::log1p(-X);
  return std::exp(LogFront) * F / A;
}

} // namespace

double hdPercentile(std::vector<double> V, double Q) {
  if (V.size() < 2)
    return percentile(std::move(V), Q);
  std::sort(V.begin(), V.end());
  const double N = static_cast<double>(V.size());
  const double A = Q / 100.0 * (N + 1), B = (1 - Q / 100.0) * (N + 1);
  double Sum = 0, Below = 0;
  for (size_t I = 0; I != V.size(); ++I) {
    double Upto = incompleteBeta(A, B, static_cast<double>(I + 1) / N);
    Sum += (Upto - Below) * V[I];
    Below = Upto;
  }
  return Sum;
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

namespace {

std::vector<double> ranks(const std::vector<double> &V) {
  std::vector<size_t> Order(V.size());
  for (size_t I = 0; I != V.size(); ++I)
    Order[I] = I;
  std::sort(Order.begin(), Order.end(),
            [&](size_t A, size_t B) { return V[A] < V[B]; });
  std::vector<double> R(V.size());
  for (size_t I = 0; I != Order.size();) {
    size_t J = I;
    while (J + 1 != Order.size() && V[Order[J + 1]] == V[Order[I]])
      ++J;
    double Rank = (static_cast<double>(I) + static_cast<double>(J)) / 2.0;
    for (size_t K = I; K <= J; ++K)
      R[Order[K]] = Rank;
    I = J + 1;
  }
  return R;
}

} // namespace

double spearman(const std::vector<double> &A, const std::vector<double> &B) {
  if (A.size() != B.size() || A.size() < 2)
    return 0;
  std::vector<double> RA = ranks(A), RB = ranks(B);
  double N = static_cast<double>(A.size());
  double MA = 0, MB = 0;
  for (size_t I = 0; I != RA.size(); ++I) {
    MA += RA[I] / N;
    MB += RB[I] / N;
  }
  double Cov = 0, VA = 0, VB = 0;
  for (size_t I = 0; I != RA.size(); ++I) {
    Cov += (RA[I] - MA) * (RB[I] - MB);
    VA += (RA[I] - MA) * (RA[I] - MA);
    VB += (RB[I] - MB) * (RB[I] - MB);
  }
  return VA > 0 && VB > 0 ? Cov / std::sqrt(VA * VB) : 0;
}

uint64_t digest(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  return H;
}

double LayerSamples::med(const std::string &Name) const {
  auto It = Values.find(Name);
  return It == Values.end() ? 0 : median(It->second);
}

//===-- output checks and shared inputs -----------------------------------===//

std::vector<Kernel> suiteKernels() {
  std::vector<Kernel> Out;
  for (Workload &W : standardWorkloads())
    Out.push_back(std::move(W.TheKernel));
  for (Workload &W : predicatedWorkloads())
    Out.push_back(std::move(W.TheKernel));
  return Out;
}

PipelineOptions defaultOptions(unsigned Threads) {
  PipelineOptions O;
  O.Threads = Threads;
  return O;
}

void extendForVector(Environment &Env, const Kernel &Source,
                     const PipelineResult &R) {
  for (size_t S = Source.Scalars.size(); S != R.Final.Scalars.size(); ++S)
    Env.addScalarStorage(0);
  for (size_t A = Source.Arrays.size(); A != R.Final.Arrays.size(); ++A)
    Env.addArrayStorage(R.Final.Arrays[A].numElements());
  if (R.LayoutApplied)
    initializeReplicas(R.Final, R.Layout, Env);
}

Environment makeVectorEnv(const Kernel &Source, const PipelineResult &R,
                          uint64_t Seed) {
  Environment Env(Source, Seed);
  extendForVector(Env, Source, R);
  return Env;
}

void refill(Environment &To, const Environment &From) {
  for (unsigned S = 0; S != From.numScalars(); ++S)
    To.setScalarValue(S, From.scalarValue(S));
  for (unsigned A = 0; A != From.numArrays(); ++A)
    std::copy(From.arrayBuffer(A).begin(), From.arrayBuffer(A).end(),
              To.arrayBuffer(A).begin());
}

std::string checkAgainstReference(const Kernel &Source,
                                  const PipelineResult &R, uint64_t Seed) {
  ExecEngine Reference(ExecEngineKind::Reference);
  ExecEngine Tape(ExecEngineKind::Optimized);
  Environment Expected(Source, Seed);
  Reference.runKernel(Source, Expected);
  unsigned NS = static_cast<unsigned>(Source.Scalars.size());
  unsigned NA = static_cast<unsigned>(Source.Arrays.size());
  Environment ViaTape = makeVectorEnv(Source, R, Seed);
  Tape.runProgram(R.Final, R.Program, ViaTape);
  if (!ViaTape.matches(Expected, NS, NA))
    return Source.Name + ": tape-engine vector program differs from the "
                         "reference scalar interpreter";
  Environment ViaReference = makeVectorEnv(Source, R, Seed);
  Reference.runProgram(R.Final, R.Program, ViaReference);
  if (!ViaReference.matches(Expected, NS, NA))
    return Source.Name + ": reference vector interpreter differs from the "
                         "reference scalar interpreter";
  return "";
}

TapeTimer::TapeTimer(const std::vector<Kernel> &Kernels,
                     const std::vector<PipelineResult> &Results) {
  Timed.reserve(Kernels.size());
  for (size_t I = 0; I != Kernels.size(); ++I) {
    Environment ScalarInit(Kernels[I], 1);
    Environment VectorInit = makeVectorEnv(Kernels[I], Results[I], 1);
    Entry T{Engine.compileScalar(Kernels[I]),
            Engine.compileVector(Results[I].Final, Results[I].Program),
            ScalarInit, VectorInit, ScalarInit, VectorInit};
    // One warm-up call per side (arena growth, first touch), then batches
    // of about 1 ms of scalar calls, sized from a second probe call.
    Engine.runScalar(T.CS, T.ScalarWork);
    Engine.runVector(T.CV, T.VectorWork);
    double T0 = nowSeconds();
    Engine.runScalar(T.CS, T.ScalarWork);
    T.Reps = static_cast<unsigned>(
        std::clamp(1e-3 / std::max(nowSeconds() - T0, 1e-7), 1.0, 1e5));
    Timed.push_back(std::move(T));
  }
}

namespace {
volatile uint64_t ReferenceSink; ///< keeps the reference computation alive
} // namespace

void HostSpeed::sample() {
  // Hashing, node allocation and sorting, the kind of work a compiler pass
  // does, on a private arena: the harness's own heap, which the program
  // under test shapes, does not change its cost.
  static std::vector<std::byte> Arena(16u << 20);
  double Start = nowSeconds();
  std::pmr::monotonic_buffer_resource Pool(Arena.data(), Arena.size(),
                                           std::pmr::null_memory_resource());
  std::pmr::unordered_map<uint64_t, uint64_t> Table(&Pool);
  uint64_t X = 88172645463325252ull;
  for (uint64_t I = 0; I != 50000; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    Table[X & 0xfffff] += I;
  }
  std::pmr::vector<uint64_t> Keys(&Pool);
  for (const auto &[K, V] : Table)
    Keys.push_back(K * V);
  std::sort(Keys.begin(), Keys.end());
  ReferenceSink = Keys[Keys.size() / 2];
  Samples.push_back(nowSeconds() - Start);
}

double HostSpeed::medianSeconds() const { return median(Samples); }

double HostSpeed::factor() const {
  return Samples.empty() ? 1.0 : ReferenceSeconds / medianSeconds();
}

double TapeTimer::round(HostSpeed &Host) {
  double Start = nowSeconds();
  CpuTurn Turn;
  for (Entry &T : Timed) {
    refill(T.ScalarWork, T.ScalarInit);
    double A = nowSeconds();
    for (unsigned I = 0; I != T.Reps; ++I)
      Engine.runScalar(T.CS, T.ScalarWork);
    T.ScalarSamples.push_back((nowSeconds() - A) / T.Reps);
    refill(T.VectorWork, T.VectorInit);
    double B = nowSeconds();
    for (unsigned I = 0; I != T.Reps; ++I)
      Engine.runVector(T.CV, T.VectorWork);
    T.VectorSamples.push_back((nowSeconds() - B) / T.Reps);
  }
  Host.sample();
  return nowSeconds() - Start;
}

void TapeTimer::report(Report &E2E, HostSpeed &Host) {
  while (Timed.front().ScalarSamples.size() < 5)
    round(Host);
  std::vector<double> ScalarUs, VectorUs;
  for (const Entry &T : Timed) {
    ScalarUs.push_back(median(T.ScalarSamples) * 1e6);
    VectorUs.push_back(median(T.VectorSamples) * 1e6);
  }
  reportRunTimes(E2E, ScalarUs, VectorUs, Host.factor());
}

void reportRunTimes(Report &E2E, const std::vector<double> &ScalarUs,
                    const std::vector<double> &VectorUs, double Factor) {
  std::vector<double> Speedups;
  for (size_t I = 0; I != ScalarUs.size(); ++I)
    Speedups.push_back(ScalarUs[I] / VectorUs[I]);
  E2E.set("run_us.geomean", geomean(VectorUs) * Factor, "us");
  E2E.set("run_speedup.geomean", geomean(Speedups), "x");
  E2E.set("run_speedup.min",
          Speedups.empty() ? 0
                           : *std::min_element(Speedups.begin(),
                                               Speedups.end()),
          "x");
}

void reportLatencies(Report &E2E, const std::vector<double> &Seconds,
                     double Factor) {
  E2E.set("latency_ms.p50", hdPercentile(Seconds, 50) * Factor * 1e3, "ms");
  E2E.set("latency_ms.p90", hdPercentile(Seconds, 90) * Factor * 1e3, "ms");
}

double parsePredictedPct(const std::string &Out) {
  const std::string Needle = "% predicted improvement";
  size_t Module = Out.find("module: ");
  size_t Pos = Out.find(Needle, Module == std::string::npos ? 0 : Module);
  if (Pos == std::string::npos)
    return NAN;
  size_t Begin = Out.rfind(' ', Pos);
  if (Begin == std::string::npos)
    return NAN;
  return std::strtod(Out.c_str() + Begin + 1, nullptr);
}

unsigned countVerifiedLines(const std::string &Out) {
  unsigned N = 0;
  for (size_t Pos = Out.find(", verified)"); Pos != std::string::npos;
       Pos = Out.find(", verified)", Pos + 1))
    ++N;
  return N;
}

} // namespace slpbench
