//===- perfbench/harness/Replay.cpp - In-process per-layer replays --------===//
//
// The traced runs split each end-to-end number into layers by calling the
// layers' public functions directly, on the same inputs the timed requests
// used, with a span around each call. See perfbench/README.md for the
// layer -> end-to-end mapping.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "analysis/KernelVerifier.h"
#include "exec/ExecEngine.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "native/CEmitter.h"
#include "native/NativeBackend.h"
#include "service/Client.h"
#include "service/Server.h"
#include "support/Statistics.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

using namespace slp;

namespace slpbench {

namespace {

/// The pipeline counters the per-layer report carries, by their
/// `slpc --stats` names.
const char *const PipelineCounters[] = {
    "grouping.candidates",       "grouping.rounds",
    "grouping.aux-graph-nodes",  "grouping.weight-computes",
    "sched_ready_scans",         "sched_reuse_hits",
    "codegen.vector-insts",      "codegen.materialized-packs",
    "codegen.permutes-emitted",  "simulate.scalar-instrs",
    "simulate.vector-instrs",    "layout.array-packs-replicated",
};

/// The canonical pipeline's passes (docs/pass-pipeline.md).
const char *const CanonicalPasses[] = {
    "verify-kernel", "if-convert", "unroll",   "alignment",
    "grouping",      "scheduling", "group-prune", "codegen",
    "simulate",      "layout",     "cost-guard", "verify-vector",
};

} // namespace

CompileReplay replayCompile(const std::string &ModuleText, unsigned Threads,
                            Tracer &T, uint64_t Req, LayerSamples &S) {
  CompileReplay Out;
  SpanScope Top(T, "replay.slpc", Req);

  SpanScope ParseSpan(T, "ir.parse", Req, Top.id());
  ModuleParseResult Parsed = parseModule(ModuleText);
  double ParseS = ParseSpan.end();
  if (!Parsed.succeeded()) {
    Out.Error = "replay: parse failed: " + Parsed.ErrorMessage;
    return Out;
  }

  // The slpd precheck. slpc runs the kernel verifier only in debug builds,
  // so it is not part of the slpc-side total.
  SpanScope VerifySpan(T, "analysis.verify_kernel", Req, Top.id());
  for (const Kernel &K : Parsed.Kernels)
    verifyKernel(K);
  double VerifyS = VerifySpan.end();

  SpanScope PipelineSpan(T, "pipeline", Req, Top.id());
  ModulePipelineResult M = runPipelineOverModule(
      Parsed.Kernels, OptimizerKind::GlobalLayout, defaultOptions(Threads));
  double PipelineS = PipelineSpan.end();
  // Pass timings come from the pass manager; with several workers they
  // overlap, so they are laid out back to back as children of the
  // pipeline span for display only.
  double Cursor = nowSeconds() - PipelineS;
  for (const TimingEntry &E : M.PassTimings.entries()) {
    T.add("pass." + E.Name, Cursor, E.Seconds, Req, PipelineSpan.id());
    Cursor += E.Seconds;
  }
  for (const char *Pass : CanonicalPasses)
    S.add(std::string("pass.") + Pass + ".ms",
          M.PassTimings.secondsFor(Pass) * 1e3);
  for (const char *C : PipelineCounters)
    S.add(C, static_cast<double>(M.Stats.get(C)));
  double Computes =
      static_cast<double>(M.Stats.get("grouping.weight-computes"));
  double Hits = static_cast<double>(M.Stats.get("grouping.weight-cache-hits"));
  S.add("grouping.weight-cache-hit-frac",
        Computes + Hits > 0 ? Hits / (Computes + Hits) : 0);
  Out.PredictedPct = 100.0 * M.improvement();

  // The equivalence check, call by call (checkEquivalence's recipe, one
  // engine for the module as slpc uses).
  SpanScope EquivSpan(T, "exec.equivalence", Req, Top.id());
  ExecEngine Engine(ExecEngineKind::Optimized);
  double CompileS = 0, EnvS = 0, ScalarS = 0, VectorS = 0, MatchS = 0;
  for (size_t KI = 0; KI != Parsed.Kernels.size(); ++KI) {
    const Kernel &K = Parsed.Kernels[KI];
    const PipelineResult &R = M.PerKernel[KI];
    if (!R.Simulated)
      continue;
    SpanScope C(T, "exec.compile", Req, EquivSpan.id());
    CompiledScalarKernel CS = Engine.compileScalar(K);
    CompiledVectorKernel CV = Engine.compileVector(R.Final, R.Program);
    CompileS += C.end();

    EnvironmentPool &Pool = Engine.envPool();
    size_t Mark = Pool.mark();
    SpanScope E1(T, "exec.env_init", Req, EquivSpan.id());
    Environment &Reference = Pool.acquire(K, 0xC0FFEE);
    EnvS += E1.end();
    SpanScope RS(T, "exec.run_scalar", Req, EquivSpan.id());
    Engine.runScalar(CS, Reference);
    ScalarS += RS.end();
    SpanScope E2(T, "exec.env_init", Req, EquivSpan.id());
    Environment &Candidate = Pool.acquire(K, 0xC0FFEE);
    extendForVector(Candidate, K, R);
    EnvS += E2.end();
    SpanScope RV(T, "exec.run_vector", Req, EquivSpan.id());
    Engine.runVector(CV, Candidate);
    VectorS += RV.end();
    SpanScope Mt(T, "exec.matches", Req, EquivSpan.id());
    bool Ok = Candidate.matches(Reference,
                                static_cast<unsigned>(K.Scalars.size()),
                                static_cast<unsigned>(K.Arrays.size()));
    MatchS += Mt.end();
    Pool.releaseTo(Mark);
    if (!Ok && Out.Error.empty())
      Out.Error = "replay: equivalence mismatch on '" + K.Name + "'";
  }
  double EquivS = EquivSpan.end();
  Statistics ExecStats;
  reportExecCounters(Engine.counters(), ExecStats);
  Top.end();

  Out.SlpcSideSeconds = ParseS + PipelineS + EquivS;
  S.add("ir.parse.ms", ParseS * 1e3);
  S.add("analysis.verify_kernel.ms", VerifyS * 1e3);
  S.add("exec.compile.ms", CompileS * 1e3);
  S.add("exec.env_init.ms", EnvS * 1e3);
  S.add("exec.run_scalar.ms", ScalarS * 1e3);
  S.add("exec.run_vector.ms", VectorS * 1e3);
  S.add("exec.matches.ms", MatchS * 1e3);
  S.add("exec.tape-ops-executed",
        static_cast<double>(ExecStats.get("exec.tape-ops-executed")));
  S.add("exec.env-reuses",
        static_cast<double>(ExecStats.get("exec.env-reuses")));
  double Side = Out.SlpcSideSeconds;
  S.add("share.exec.env_init.pct", 100.0 * EnvS / Side);
  S.add("share.exec.equivalence.pct", 100.0 * EquivS / Side);
  S.add("share.pass.grouping.pct",
        100.0 * M.PassTimings.secondsFor("grouping") / Side);
  S.add("share.pass.group-prune.pct",
        100.0 * M.PassTimings.secondsFor("group-prune") / Side);
  return Out;
}

namespace {

/// Median per-call seconds of \p Call over batches lasting about \p Budget
/// seconds in total (batches sized from one probe call).
template <typename Fn> double timeCalls(Fn &&Call, double Budget) {
  double T0 = nowSeconds();
  Call();
  double Probe = std::max(nowSeconds() - T0, 1e-7);
  unsigned Reps =
      static_cast<unsigned>(std::clamp(Budget / 20.0 / Probe, 1.0, 1e6));
  std::vector<double> Samples;
  double End = nowSeconds() + Budget;
  while (nowSeconds() < End || Samples.size() < 3) {
    double A = nowSeconds();
    for (unsigned I = 0; I != Reps; ++I)
      Call();
    Samples.push_back((nowSeconds() - A) / Reps);
  }
  return median(Samples);
}

} // namespace

bool replayNative(const std::vector<Kernel> &Kernels,
                  const std::string &CacheDir, double TimeBudget, Tracer &T,
                  LayerSamples &S, std::string &Err) {
  ::setenv("SLP_NATIVE_CACHE_DIR", CacheDir.c_str(), 1);
  nativeClearMemoryCacheForTesting();
  uint64_t Req = T.newRequest();
  double EmitS = 0, CcS = 0, LoadS = 0;
  unsigned CcRuns = 0, Slower = 0;
  std::vector<double> Predicted, Measured;
  std::vector<PipelineResult> Results;
  std::vector<std::string> Sources; // scalar, vector, per kernel
  for (const Kernel &K : Kernels) {
    Results.push_back(
        runPipeline(K, OptimizerKind::GlobalLayout, defaultOptions(1)));
    SpanScope Emit(T, "native.emit", Req);
    Sources.push_back(emitScalarKernelC(K));
    Sources.push_back(
        emitVectorProgramC(Results.back().Final, Results.back().Program));
    EmitS += Emit.end();
    for (size_t Side = Sources.size() - 2; Side != Sources.size(); ++Side) {
      SpanScope Cc(T, "native.cc", Req);
      NativeCompileResult C =
          compileNativeTU(Sources[Side], Side % 2 == 0);
      CcS += Cc.end();
      if (!C.Object) {
        Err = K.Name + ": native build failed: " + C.Error;
        return false;
      }
      CcRuns += C.CacheHit ? 0 : 1;
    }
  }
  // Reload every object from the disk tier (a warm process start).
  nativeClearMemoryCacheForTesting();
  for (size_t Side = 0; Side != Sources.size(); ++Side) {
    SpanScope Load(T, "native.load", Req);
    compileNativeTU(Sources[Side], Side % 2 == 0);
    LoadS += Load.end();
  }
  S.add("native.emit.ms", EmitS * 1e3);
  S.add("native.cc.ms", CcS * 1e3);
  S.add("native.load.ms", LoadS * 1e3);
  S.add("native.cc_runs", CcRuns);

  double PerKernelBudget = TimeBudget / static_cast<double>(Kernels.size());
  for (size_t I = 0; I != Kernels.size(); ++I) {
    const Kernel &K = Kernels[I];
    const PipelineResult &R = Results[I];
    ExecEngine Engine(ExecEngineKind::Native);
    CompiledScalarKernel CS = Engine.compileScalar(K);
    CompiledVectorKernel CV = Engine.compileVector(R.Final, R.Program);
    if (Engine.counters().NativeCompiles != 0 ||
        Engine.counters().NativeFallbacks != 0) {
      Err = K.Name + ": native engine did not reuse the built objects: " +
            Engine.nativeDiagnostic();
      return false;
    }
    ExecEngine Reference(ExecEngineKind::Reference);
    Environment Expected(K, 7);
    Reference.runKernel(K, Expected);
    Environment Scalar(K, 7);
    Engine.runScalar(CS, Scalar);
    Environment Vector = makeVectorEnv(K, R, 7);
    Engine.runVector(CV, Vector);
    unsigned NS = static_cast<unsigned>(K.Scalars.size());
    unsigned NA = static_cast<unsigned>(K.Arrays.size());
    if (!Scalar.matches(Expected, NS, NA) ||
        !Vector.matches(Expected, NS, NA)) {
      Err = K.Name + ": native output differs from the reference interpreter";
      return false;
    }
    const Environment ScalarInit(K, 1);
    const Environment VectorInit = makeVectorEnv(K, R, 1);
    Environment SEnv = ScalarInit, VEnv = VectorInit;
    double Sus = timeCalls([&] { Engine.runScalar(CS, SEnv); },
                           PerKernelBudget / 2);
    double Vus = timeCalls([&] { Engine.runVector(CV, VEnv); },
                           PerKernelBudget / 2);
    double Speedup = Sus / Vus;
    double Pred = R.VectorSim.Cycles > 0
                      ? R.ScalarSim.Cycles / R.VectorSim.Cycles
                      : 1.0;
    Slower += Speedup < 1.0 ? 1 : 0;
    Measured.push_back(Speedup);
    Predicted.push_back(Pred);
    S.add("native.speedup." + K.Name, Speedup);
    S.add("native.predicted_speedup." + K.Name, Pred);
  }
  S.add("native.rank_rho", spearman(Predicted, Measured));
  S.add("native.slower_than_scalar", Slower);
  return true;
}

bool serviceRequest(ServiceClient &Client, ServiceServer &Local,
                    const std::string &KernelText, Tracer &T,
                    LayerSamples &S, ServiceReply &Reply, double &RoundTrip,
                    std::string &Err) {
  uint64_t Req = T.newRequest();
  ServiceRequest Request;
  Request.Kernels.push_back(KernelText);
  SpanScope Enc(T, "service.request_encode", Req);
  std::string Wire = serializeRequest(Request);
  double EncS = Enc.end();
  SpanScope Rt(T, "service.round_trip", Req);
  bool Ok = Client.roundTrip(Request, Reply, &Err);
  RoundTrip = Rt.end();
  if (!Ok)
    return false;
  std::string ReplyText = serializeReply(Reply);
  ServiceReply Decoded;
  SpanScope Dec(T, "service.reply_decode", Req, Rt.id());
  parseReply(ReplyText, Decoded, nullptr);
  double DecS = Dec.end();

  // The server's side of the same request, replayed in-process.
  ServiceRequest Parsed;
  SpanScope PR(T, "service.decode", Req, Rt.id());
  parseRequest(Wire, Parsed, nullptr);
  double ParseS = PR.end();
  SpanScope H(T, "service.handle", Req, Rt.id());
  ServiceReply LocalReply = Local.handle(Parsed);
  double HandleS = H.end();
  SpanScope RE(T, "service.reply_encode", Req, Rt.id());
  serializeReply(LocalReply);
  double ReS = RE.end();

  bool Hit = !LocalReply.Results.empty() &&
             LocalReply.Results[0].Status != CacheStatus::Miss;
  double Parts = EncS + ParseS + HandleS + ReS + DecS;
  S.add("service.request_encode.us", EncS * 1e6);
  S.add("service.decode.us", ParseS * 1e6);
  if (Hit)
    S.add("service.handle_hit.us", HandleS * 1e6);
  else
    S.add("service.handle_miss.ms", HandleS * 1e3);
  S.add("service.reply_encode.us", ReS * 1e6);
  S.add("service.reply_decode.us", DecS * 1e6);
  // Hits only: on a miss, the replayed compile's own run-to-run variation
  // is larger than the whole transport time.
  if (Hit)
    S.add("service.transport_wait.us", (RoundTrip - Parts) * 1e6);
  S.add("trace.service_coverage_pct",
        std::min(100.0, 100.0 * Parts / RoundTrip));
  return true;
}

bool replayService(const std::vector<std::string> &KernelTexts,
                   const std::string &SocketPath, Tracer &T, LayerSamples &S,
                   std::string &Err) {
  ServerConfig Config;
  Config.SocketPath = SocketPath;
  Config.Threads = 1;
  Config.Cache.DiskDir = SocketPath + ".cache";
  ServiceServer Server(Config);
  if (!Server.start(&Err))
    return false;
  ServerConfig LocalConfig = Config;
  LocalConfig.SocketPath.clear();
  LocalConfig.Cache.DiskDir.clear();
  ServiceServer Local(LocalConfig);
  std::optional<ServiceClient> Client =
      ServiceClient::connect(SocketPath, &Err);
  if (!Client)
    return false;
  for (int Pass = 0; Pass != 2; ++Pass)
    for (const std::string &Text : KernelTexts) {
      ServiceReply Reply;
      double RoundTrip = 0;
      if (!serviceRequest(*Client, Local, Text, T, S, Reply, RoundTrip,
                          Err))
        return false;
      if (!Reply.Ok) {
        Err = "service replay: reply not Ok: " + Reply.Error;
        return false;
      }
    }
  ArtifactCacheCounters C = Server.cache().counters();
  double Lookups = static_cast<double>(C.MemoryHits + C.DiskHits + C.Misses +
                                       C.Coalesced);
  S.add("cache.hit_frac", (C.MemoryHits + C.DiskHits) / Lookups);
  S.add("cache.memory_hits", C.MemoryHits);
  S.add("cache.disk_hits", C.DiskHits);
  S.add("cache.misses", C.Misses);
  S.add("cache.coalesced", C.Coalesced);
  S.add("cache.evictions", C.Evictions);
  ServerCounters SC = Server.counters();
  S.add("server.precheck_rejects", SC.PrecheckRejects);
  S.add("server.protocol_errors", SC.ProtocolErrors);
  Server.stop();
  return true;
}

void reportLayers(const LayerSamples &S,
                  const std::vector<std::string> &SuiteNames, Report &Out) {
  auto Ms = [&](const std::string &N) { Out.set(N, S.med(N), "ms"); };
  auto Us = [&](const std::string &N) { Out.set(N, S.med(N), "us"); };
  auto Count = [&](const std::string &N) { Out.set(N, S.med(N), "count"); };
  Ms("ir.parse.ms");
  Ms("analysis.verify_kernel.ms");
  for (const char *Pass : CanonicalPasses)
    Ms(std::string("pass.") + Pass + ".ms");
  for (const char *C : PipelineCounters)
    Count(C);
  Out.set("grouping.weight-cache-hit-frac",
          S.med("grouping.weight-cache-hit-frac"), "frac");
  for (const char *N : {"exec.compile.ms", "exec.env_init.ms",
                        "exec.run_scalar.ms", "exec.run_vector.ms",
                        "exec.matches.ms"})
    Ms(N);
  Count("exec.tape-ops-executed");
  Count("exec.env-reuses");
  Ms("native.emit.ms");
  Ms("native.cc.ms");
  Ms("native.load.ms");
  Count("native.cc_runs");
  for (const std::string &K : SuiteNames)
    Out.set("native.speedup." + K, S.med("native.speedup." + K), "x");
  for (const std::string &K : SuiteNames)
    Out.set("native.predicted_speedup." + K,
            S.med("native.predicted_speedup." + K), "x");
  Out.set("native.rank_rho", S.med("native.rank_rho"), "rho");
  Count("native.slower_than_scalar");
  for (const char *N :
       {"service.request_encode.us", "service.decode.us",
        "service.handle_hit.us", "service.reply_encode.us",
        "service.reply_decode.us", "service.transport_wait.us"})
    Us(N);
  Ms("service.handle_miss.ms");
  Out.set("cache.hit_frac", S.med("cache.hit_frac"), "frac");
  for (const char *N : {"cache.memory_hits", "cache.disk_hits",
                        "cache.misses", "cache.coalesced", "cache.evictions",
                        "server.precheck_rejects", "server.protocol_errors"})
    Count(N);
  Ms("driver.unaccounted.ms");
  Ms("host.reference_ms");
  for (const char *N :
       {"share.exec.env_init.pct", "share.exec.equivalence.pct",
        "share.pass.grouping.pct", "share.pass.group-prune.pct",
        "trace.span_coverage_pct", "trace.service_coverage_pct",
        "trace.overhead_pct"})
    Out.set(N, S.med(N), "%");
  Ms("trace.latency_ms.p50");
  Ms("trace.untraced_latency_ms.p50");
  Out.set("failed_frac", S.med("failed_frac"), "frac");
}

} // namespace slpbench
