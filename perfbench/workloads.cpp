// The benchmark's three workloads, each a closed loop with one client whose
// next request waits for the previous reply:
//
//   interactive-mul8cmp-m2  one mul8+cmp circuit per request, BatchExecutor::run
//                           at unroll m=2
//   batch8-mul8cmp-m3       run_batch over 8 independent mul8+cmp items at m=3
//   sim-policy-4chip        sim::simulate_batch_policy for 2 compiled mul8+cmp
//                           DAGs on 4 chips at m=3 (host time only)
//
// Everything runs at TfheParams::security110(). The library is driven only
// through its public entry points and timed from outside; per-layer numbers
// come from the counters it already exposes plus single-thread replays of
// the layer kernels at the workload's m and batch width. NOTES.md explains
// the choices and the known defects.
#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "circuits/word.h"
#include "exec/batch_executor.h"
#include "exec/circuit_builder.h"
#include "exec/sim_bridge.h"
#include "fft/simd_fft.h"
#include "io/serialize.h"
#include "math/decompose.h"
#include "sim/chip_sim.h"
#include "tfhe/bootstrap.h"
#include "tfhe/keyset.h"
#include "tfhe/keyswitch.h"

namespace perfbench {
namespace {

using namespace matcha;
using Span = Tracer::Span;
using Executor = exec::BatchExecutor<SimdFftEngine>;

constexpr int kWidth = 8;      ///< word width of the mul8+cmp circuit
constexpr int kSetupReps = 3;  ///< software set-ups per run (median reported)
constexpr int kSimSetupReps = 25;
constexpr int kChips = 4;
constexpr int kSimM = 3;
constexpr int kSimBatch = 2;
/// A run whose share of wrong circuits exceeds this is broken, not noisy:
/// the known fused-LUT decryption failures stay far below it (NOTES.md).
constexpr double kMaxWrongShare = 0.25;
/// Child spans must cover at least this share of each request span.
constexpr double kMinSpanCoverage = 0.98;

/// The repo's mul8+cmp circuit: 8-bit product, greater-than and equal over
/// the same two input words, recorded and compiled with default options.
struct Mul8Cmp {
  exec::CircuitBuilder builder;
  exec::SymWord x, y, prod;
  exec::Wire gt, eq;
  exec::CompiledGraph compiled;

  Mul8Cmp() {
    x = builder.input_word(kWidth);
    y = builder.input_word(kWidth);
    exec::SymWordCircuits wc(builder);
    prod = wc.multiply(x, y);
    gt = wc.greater_than(x, y);
    eq = wc.equal(x, y);
    builder.mark_output(prod);
    builder.mark_output(gt);
    builder.mark_output(eq);
    compiled = builder.compile();
  }
};

void check_compiled(const Mul8Cmp& c, ExactCounts& exact) {
  exact.check("exec.compiled_bootstraps", static_cast<double>(c.compiled.stats.bootstraps_after));
  exact.check("exec.compiled_depth", c.compiled.stats.depth_after);
  exact.check("exec.compiled_gates", c.compiled.stats.gates_after);
}

// ------------------------------------------------------------ set-up --

struct SetupTimes {
  double keygen_s = 0, write_s = 0, read_s = 0, device_s = 0;
  double init_ms = 0, compile_ms = 0, total_s = 0, bytes = 0;
};

/// Everything a software request needs, built the way a deployment would:
/// client keygen, the cloud keyset shipped through its serialized form,
/// device-key load, executor construction and circuit compile.
struct Stack {
  TfheParams params = TfheParams::security110();
  std::unique_ptr<SecretKeyset> sk;
  std::unique_ptr<CloudKeyset> cloud; ///< read back from the serialized blob
  std::unique_ptr<SimdFftEngine> eng;
  std::unique_ptr<DeviceKeyset<SimdFftEngine>> dev;
  std::unique_ptr<Executor> ex;
  std::unique_ptr<Mul8Cmp> circuit;
};

std::unique_ptr<Stack> set_up(int m, int threads, uint64_t seed, Tracer& tr,
                              SetupTimes& t) {
  auto s = std::make_unique<Stack>();
  Span whole(tr, "setup");
  Rng rng(seed);
  std::optional<CloudKeyset> fresh;
  {
    Span sp(tr, "tfhe.keygen");
    s->sk = std::make_unique<SecretKeyset>(SecretKeyset::generate(s->params, rng));
    fresh.emplace(make_cloud_keyset(*s->sk, m, rng));
    t.keygen_s = sp.stop() / 1e3;
  }
  std::string blob;
  {
    Span sp(tr, "io.write_cloud_keyset");
    std::ostringstream os(std::ios::binary);
    io::write_cloud_keyset(os, *fresh);
    blob = std::move(os).str();
    t.write_s = sp.stop() / 1e3;
  }
  fresh.reset();
  t.bytes = static_cast<double>(blob.size());
  {
    Span sp(tr, "io.read_cloud_keyset");
    std::istringstream is(std::move(blob), std::ios::binary);
    StatusOr<CloudKeyset> back = io::try_read_cloud_keyset(is);
    if (!back.ok()) {
      throw std::runtime_error("try_read_cloud_keyset: " + back.status().to_string());
    }
    s->cloud = std::make_unique<CloudKeyset>(std::move(back).value());
    t.read_s = sp.stop() / 1e3;
  }
  {
    Span sp(tr, "tfhe.device_load");
    s->eng = std::make_unique<SimdFftEngine>(s->params.ring.n_ring);
    s->dev = std::make_unique<DeviceKeyset<SimdFftEngine>>(
        load_device_keyset(*s->eng, *s->cloud));
    t.device_s = sp.stop() / 1e3;
  }
  {
    Span sp(tr, "exec.executor_init");
    const int n = s->params.ring.n_ring;
    s->ex = std::make_unique<Executor>(
        [n] { return std::make_unique<SimdFftEngine>(n); }, s->dev->bk,
        *s->dev->ks, s->params.mu(), threads);
    t.init_ms = sp.stop();
  }
  {
    Span sp(tr, "exec.compile");
    s->circuit = std::make_unique<Mul8Cmp>();
    t.compile_ms = sp.stop();
  }
  t.total_s = whole.stop() / 1e3;
  return s;
}

/// Set up kSetupReps times (each from its own seed, releasing the previous
/// stack first) and keep the last stack.
std::unique_ptr<Stack> set_up_repeatedly(int m, const Options& o, Tracer& tr,
                                         ExactCounts& exact,
                                         std::vector<SetupTimes>& times) {
  std::unique_ptr<Stack> s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s.reset();
    SetupTimes t;
    s = set_up(m, o.threads, o.seed * 7919 + static_cast<uint64_t>(rep), tr, t);
    exact.check("io.cloud_keyset_bytes", t.bytes);
    check_compiled(*s->circuit, exact);
    times.push_back(t);
  }
  return s;
}

// ----------------------------------------------------------- requests --

/// Executor counters and span timings accumulated over served requests.
struct ExecTotals {
  int64_t requests = 0, items = 0, bootstraps = 0, extracts = 0;
  double busy_ms = 0;  ///< sched_efficiency x workers x wall, summed
  double slot_ms = 0;  ///< workers x wall, summed
  double steals = 0;
  std::vector<double> idle_ms; ///< per request
  EngineCounters fft;
  std::vector<double> encrypt_ms, run_ms, decrypt_ms;
  std::vector<double> margins;
  int64_t decodes = 0, suspect = 0;
};

struct Served {
  double latency_ms = 0;
  int good = 0;
  int wrong = 0;
};

/// Decrypt one item's outputs and compare them with the plaintext shadow.
/// A non-ok status, an invalidated value or any wrong bit makes it wrong.
bool check_item(const SecretKeyset& sk, const Mul8Cmp& c,
                const exec::BatchResult& r, uint64_t x, uint64_t y,
                ExecTotals& tot) {
  if (!r.status.ok()) return false;
  try {
    const auto bit = [&](exec::Wire w) {
      const DecodeAudit a = sk.decrypt_bit_audited(r.at(c.compiled.remap(w)));
      tot.margins.push_back(a.margin());
      tot.suspect += a.suspect;
      ++tot.decodes;
      return static_cast<uint64_t>(a.value);
    };
    uint64_t prod = 0;
    for (int i = 0; i < kWidth; ++i) prod |= bit(c.prod.bits[static_cast<size_t>(i)]) << i;
    const uint64_t gt = bit(c.gt);
    const uint64_t eq = bit(c.eq);
    return prod == ((x * y) & 0xFF) && gt == (x > y ? 1u : 0u) &&
           eq == (x == y ? 1u : 0u);
  } catch (const std::exception&) {
    return false;
  }
}

/// One request: encrypt `width` random operand pairs, execute the compiled
/// circuit on all of them, decrypt and check. `exact` (when given) receives
/// the request's exact counts for the determinism check.
Served serve(Stack& s, int width, Rng& client, Tracer& tr, int64_t req,
             ExecTotals& tot, ExactCounts* exact) {
  const Mul8Cmp& c = *s.circuit;
  Span request(tr, "request", req);
  std::vector<uint64_t> xs(static_cast<size_t>(width)), ys(xs.size());
  std::vector<std::vector<LweSample>> batch(xs.size());
  {
    Span sp(tr, "circuits.encrypt", req);
    for (size_t i = 0; i < xs.size(); ++i) {
      xs[i] = client.uniform_below(256);
      ys[i] = client.uniform_below(256);
      for (const uint64_t v : {xs[i], ys[i]}) {
        circuits::EncWord e = circuits::encrypt_word(*s.sk, v, kWidth, client);
        for (LweSample& b : e.bits) batch[i].push_back(std::move(b));
      }
    }
    tot.encrypt_ms.push_back(sp.stop());
  }
  s.ex->reset_counters();
  std::vector<exec::BatchResult> results;
  {
    Span sp(tr, "exec.run_batch", req);
    if (width == 1) {
      results.push_back(s.ex->run(c.compiled.graph, std::move(batch[0])));
    } else {
      results = s.ex->run_batch(c.compiled.graph, std::move(batch));
    }
    tot.run_ms.push_back(sp.stop());
  }
  Served out;
  {
    Span sp(tr, "circuits.decrypt", req);
    for (size_t i = 0; i < results.size(); ++i) {
      if (check_item(*s.sk, c, results[i], xs[i], ys[i], tot)) {
        ++out.good;
      } else {
        ++out.wrong;
      }
    }
    tot.decrypt_ms.push_back(sp.stop());
  }
  out.latency_ms = request.stop();

  const exec::BatchStats& st = s.ex->last_stats();
  const EngineCounters& fc = s.ex->counters();
  const double slot = st.workers * st.wall_ms;
  ++tot.requests;
  tot.items += st.items;
  tot.bootstraps += st.bootstraps;
  tot.extracts += st.sample_extracts;
  tot.busy_ms += st.sched_efficiency * slot;
  tot.slot_ms += slot;
  tot.steals += static_cast<double>(st.steals);
  tot.idle_ms.push_back(slot * (1.0 - st.sched_efficiency));
  tot.fft += fc;
  if (exact) {
    const double items = std::max(1, st.items);
    const double boots = std::max<double>(1, static_cast<double>(st.bootstraps));
    exact->check("exec.bootstraps_per_circuit", st.bootstraps / items);
    exact->check("exec.sample_extracts_per_circuit", st.sample_extracts / items);
    exact->check("exec.levels", st.levels);
    exact->check("exec.pool_dispatches", st.pool_dispatches);
    exact->check("fft.zero_skips_per_bootstrap", fc.zero_fft_skips / boots);
    exact->check("fft.testv_reuses_per_bootstrap", fc.testv_fft_reuses / boots);
    // Transform calls depend on the ciphertexts: a group whose subset
    // exponents all round to zero skips its external product. They are
    // exact for a given seed, so only their run totals are printed.
    exact->record("fft.to_spectral_calls", static_cast<double>(fc.to_spectral_calls));
    exact->record("fft.from_spectral_calls", static_cast<double>(fc.from_spectral_calls));
  }
  return out;
}

// ------------------------------------------------------------ replays --

/// Median per-call time of `fn` in microseconds: `reps` timed blocks of
/// `calls` calls each.
template <class Fn>
double median_call_us(int reps, int calls, Fn&& fn) {
  std::vector<double> per_call;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < calls; ++i) fn();
    per_call.push_back(ms_between(t0, Clock::now()) * 1e3 / calls);
  }
  return median(std::move(per_call));
}

struct LayerReplays {
  double to_spectral_us = 0, from_spectral_us = 0, decompose_us = 0;
  double blind_rotate_ms = 0; ///< per sample, single thread
  double keyswitch_us = 0;    ///< per sample, single thread
  double key_bytes = 0;       ///< BSK + KSK arena bytes per bootstrap
};

/// Single-thread replays of the layer kernels on the stack's keys: the
/// N-point transforms and one gadget decomposition in isolation, then
/// bootstrap_wo_keyswitch_batch and key_switch_batch at batch `width`.
LayerReplays replay_layers(Stack& s, int width, Rng& rng, Tracer& tr) {
  LayerReplays out;
  const int n = s.params.ring.n_ring;
  SimdFftEngine eng(n);
  TorusPolynomial p(n), back(n);
  for (Torus32& c : p.coeffs) c = rng.uniform_torus();
  SimdFftEngine::Spectral spec(eng.spectral_size());
  {
    Span sp(tr, "replay.fft");
    out.to_spectral_us = median_call_us(7, 400, [&] { eng.to_spectral_torus(p, spec); });
    out.from_spectral_us = median_call_us(7, 400, [&] { eng.from_spectral_torus(spec, back); });
  }
  {
    Span sp(tr, "replay.decompose");
    std::vector<IntPolynomial> digits(static_cast<size_t>(s.params.gadget.l), IntPolynomial(n));
    out.decompose_us = median_call_us(7, 400, [&] { decompose_polynomial(s.params.gadget, p, digits); });
  }

  const auto& bk = s.dev->bk;
  const KeySwitchKey& ks = *s.dev->ks;
  std::vector<LweSample> xs, extracted, switched;
  for (int b = 0; b < width; ++b) {
    xs.push_back(s.sk->encrypt_bit(b & 1, rng));
    extracted.emplace_back(n);
    switched.emplace_back(s.params.lwe.n);
  }
  std::vector<const LweSample*> xp, ep;
  std::vector<LweSample*> eo, so;
  for (int b = 0; b < width; ++b) {
    xp.push_back(&xs[static_cast<size_t>(b)]);
    eo.push_back(&extracted[static_cast<size_t>(b)]);
    ep.push_back(&extracted[static_cast<size_t>(b)]);
    so.push_back(&switched[static_cast<size_t>(b)]);
  }
  BootstrapWorkspace<SimdFftEngine> ws(eng, bk.gadget);
  KeySwitchWorkspace kws;
  const Torus32 mu = s.params.mu();
  {
    Span sp(tr, "replay.blind_rotate");
    bootstrap_wo_keyswitch_batch(eng, bk, mu, xp.data(), eo.data(), width, ws);
    const int reps = width == 1 ? 9 : 3;
    out.blind_rotate_ms = median_call_us(reps, 1, [&] {
      bootstrap_wo_keyswitch_batch(eng, bk, mu, xp.data(), eo.data(), width, ws);
    }) / 1e3 / width;
  }
  {
    Span sp(tr, "replay.keyswitch");
    key_switch_batch(ks, ep.data(), so.data(), width, kws);
    out.keyswitch_us = median_call_us(9, 2, [&] {
      key_switch_batch(ks, ep.data(), so.data(), width, kws);
    }) / width;
  }
  const double bsk = static_cast<double>(bk.soa.size() * sizeof(double));
  out.key_bytes = (bsk + static_cast<double>(ks.key_bytes())) / width;
  return out;
}

// ------------------------------------------------------------ reports --

template <class Get>
double median_of(const std::vector<SetupTimes>& v, Get get) {
  std::vector<double> xs;
  for (const SetupTimes& t : v) xs.push_back(get(t));
  return median(std::move(xs));
}

/// The software per-layer metrics, from the set-ups, the served requests'
/// counters and the kernel replays at batch `width`.
void report_software_layers(Report& r, Stack& s,
                            const std::vector<SetupTimes>& setups,
                            const ExecTotals& tot, int width, Rng& rng,
                            Tracer& tr) {
  r.layer("tfhe.keygen_s", median_of(setups, [](auto& t) { return t.keygen_s; }), "s");
  r.layer("io.write_cloud_keyset_s", median_of(setups, [](auto& t) { return t.write_s; }), "s");
  r.layer("io.read_cloud_keyset_s", median_of(setups, [](auto& t) { return t.read_s; }), "s");
  r.layer("io.cloud_keyset_bytes", setups.back().bytes, "bytes");
  r.layer("tfhe.device_load_s", median_of(setups, [](auto& t) { return t.device_s; }), "s");
  r.layer("exec.executor_init_ms", median_of(setups, [](auto& t) { return t.init_ms; }), "ms");
  r.layer("exec.compile_ms", median_of(setups, [](auto& t) { return t.compile_ms; }), "ms");

  const double items = std::max<double>(1, static_cast<double>(tot.items));
  const double boots = std::max<double>(1, static_cast<double>(tot.bootstraps));
  r.layer("exec.bootstraps_per_circuit", tot.bootstraps / items, "count");
  r.layer("exec.depth", s.circuit->compiled.stats.depth_after, "count");
  r.layer("exec.sample_extracts_per_circuit", tot.extracts / items, "count");
  r.layer("exec.sched_efficiency", tot.slot_ms > 0 ? tot.busy_ms / tot.slot_ms : 0, "ratio");
  r.layer("exec.worker_idle_ms", median(tot.idle_ms), "ms");
  r.layer("exec.steals_per_request", tot.steals / std::max<int64_t>(1, tot.requests), "count");
  r.layer("circuits.encrypt_ms", median(tot.encrypt_ms), "ms");
  r.layer("exec.run_batch_ms", median(tot.run_ms), "ms");
  r.layer("circuits.decrypt_ms", median(tot.decrypt_ms), "ms");

  r.layer("fft.to_spectral_calls_per_bootstrap", tot.fft.to_spectral_calls / boots, "count");
  r.layer("fft.from_spectral_calls_per_bootstrap", tot.fft.from_spectral_calls / boots, "count");
  r.layer("fft.zero_skips_per_bootstrap", tot.fft.zero_fft_skips / boots, "count");
  r.layer("fft.testv_reuses_per_bootstrap", tot.fft.testv_fft_reuses / boots, "count");
  const double fft_ms = (tot.fft.to_spectral_ns + tot.fft.from_spectral_ns) * 1e-6;
  r.layer("fft.busy_share", tot.slot_ms > 0 ? fft_ms / tot.slot_ms : 0, "ratio");

  const LayerReplays rep = replay_layers(s, width, rng, tr);
  r.layer("fft.to_spectral_us", rep.to_spectral_us, "us");
  r.layer("fft.from_spectral_us", rep.from_spectral_us, "us");
  r.layer("math.decompose_us", rep.decompose_us, "us");
  r.layer("tfhe.blind_rotate_ms_per_sample", rep.blind_rotate_ms, "ms");
  r.layer("tfhe.keyswitch_us_per_sample", rep.keyswitch_us, "us");
  r.layer("tfhe.key_bytes_per_bootstrap", rep.key_bytes, "bytes");
  const double replayed_ms =
      (rep.blind_rotate_ms + rep.keyswitch_us * 1e-3) * static_cast<double>(tot.bootstraps);
  r.layer("exec.unattributed_share", tot.busy_ms > 0 ? 1.0 - replayed_ms / tot.busy_ms : 0, "ratio");

  r.layer("noise.output_margin_p1", percentile(tot.margins, 1), "ratio");
  r.layer("noise.suspect_share",
          tot.decodes ? static_cast<double>(tot.suspect) / static_cast<double>(tot.decodes) : 0,
          "ratio");
}

/// Check a batch-policy result against its invariants: the whole batch's
/// bootstraps are batch x the circuit's, and the chosen variant is the
/// fastest one considered. Every statistic goes to the determinism check.
bool check_policy(const sim::BatchPolicySimResult& p, int64_t circuit_boots,
                  int batch, ExactCounts& exact, std::string& why) {
  double best = p.considered.empty() ? -1 : p.considered.front().time_ms;
  for (const auto& v : p.considered) best = std::min(best, v.time_ms);
  exact.check("sim.policy_time_ms", p.time_ms);
  exact.check("sim.policy_replica_groups", p.replica_groups);
  exact.check("sim.policy_group_size", p.group_size);
  exact.check("sim.policy_total_bootstraps", static_cast<double>(p.total_bootstraps));
  exact.check("sim.policy_cut_wires", static_cast<double>(p.cut_wires));
  exact.check("sim.policy_transfers", static_cast<double>(p.transfers));
  exact.check("sim.policy_bootstraps_per_s", p.bootstraps_per_s);
  exact.check("sim.policy_circuits_per_s", p.circuits_per_s);
  exact.check("sim.policy_link_utilization", p.link_utilization);
  exact.check("sim.policy_variants", static_cast<double>(p.considered.size()));
  for (size_t i = 0; i < p.considered.size(); ++i) {
    exact.check("sim.variant" + std::to_string(i) + "_" + p.considered[i].policy_label +
                    "_g" + std::to_string(p.considered[i].replica_groups) + "_ms",
                p.considered[i].time_ms);
  }
  if (p.total_bootstraps != circuit_boots * batch) {
    why = "total_bootstraps " + std::to_string(p.total_bootstraps) + " != " +
          std::to_string(batch) + " x " + std::to_string(circuit_boots);
    return false;
  }
  if (p.considered.empty() || p.time_ms != best) {
    why = "chosen makespan is not the minimum of the considered variants";
    return false;
  }
  return true;
}

/// The simulator per-layer metrics: the policy result's own statistics plus
/// host-time replays of the 4-chip shard and the 1-chip schedule of the
/// same DAG at unroll m.
void report_sim_layers(Report& r, const sim::GateDag& dag, int m,
                       const sim::BatchPolicySimResult& policy, Tracer& tr,
                       ExactCounts& exact) {
  const TfheParams paper = TfheParams::security110();
  r.layer("sim.variants_considered", static_cast<double>(policy.considered.size()), "count");
  r.layer("sim.transfers", static_cast<double>(policy.transfers), "count");
  r.layer("sim.link_utilization", policy.link_utilization, "ratio");
  Span shard_span(tr, "sim.shard");
  const sim::MultiChipSimResult shard = sim::simulate_circuit_multichip(paper, m, dag, kChips);
  const double shard_ms = shard_span.stop();
  Span one_span(tr, "sim.schedule_1chip");
  const sim::CircuitSimResult one = sim::simulate_circuit(paper, m, dag);
  const double one_ms = one_span.stop();
  r.layer("sim.refine_gain", shard.refine_gain, "ratio");
  r.layer("sim.pipeline_occupancy", one.pipeline_occupancy, "ratio");
  r.layer("sim.shard_host_ms", shard_ms, "ms");
  r.layer("sim.schedule_1chip_host_ms", one_ms, "ms");
  exact.check("sim.shard_time_ms", shard.time_ms);
  exact.check("sim.shard_refine_gain", shard.refine_gain);
  exact.check("sim.shard_transfers", static_cast<double>(shard.transfers));
  exact.check("sim.1chip_time_ms", one.time_ms);
  exact.check("sim.1chip_pipeline_occupancy", one.pipeline_occupancy);
  exact.check("sim.1chip_critical_path", one.critical_path);
}

/// Tracing overhead from the traced run's alternating requests, and the
/// smallest share of a request its child spans account for.
void report_trace_layers(Report& r, const std::vector<double>& traced,
                         const std::vector<double>& untraced, const Tracer& tr) {
  const double base = median(untraced);
  r.layer("trace.overhead_share", base > 0 ? median(traced) / base - 1.0 : 0, "ratio");
  const double coverage = tr.min_request_coverage();
  r.layer("trace.span_coverage_min", coverage, "ratio");
  if (coverage < kMinSpanCoverage) {
    r.problem("spans cover only " + std::to_string(coverage) +
              " of a request (tolerance " + std::to_string(kMinSpanCoverage) + ")");
  }
}

void report_latency(Report& r, const std::vector<double>& lat) {
  const auto [tail_ms, tail_pct] = tail(lat);
  r.e2e("latency_ms_p50", median(lat), "ms");
  r.e2e("latency_ms_tail", tail_ms, "ms");
  std::printf("latency tail is p%.1f over %zu requests; samples ms:", tail_pct, lat.size());
  for (const double ms : lat) std::printf(" %.1f", ms);
  std::printf("\n");
}

void check_wrong_share(Report& r) {
  const double share = r.attempted ? static_cast<double>(r.failed) / r.attempted : 1.0;
  r.e2e("wrong_circuit_rate", share, "ratio");
  if (share > kMaxWrongShare) {
    r.problem("wrong_circuit_rate " + std::to_string(share) + " exceeds " +
              std::to_string(kMaxWrongShare));
  }
}

/// The closed loop shared by the software workloads.
void run_software(const Options& o, int m, int width, Tracer& tr, Report& r) {
  ExactCounts exact;
  std::vector<SetupTimes> setups;
  std::unique_ptr<Stack> s = set_up_repeatedly(m, o, tr, exact, setups);
  r.e2e("setup_s", median_of(setups, [](auto& t) { return t.total_s; }), "s");

  Rng client(o.seed * 104729 + 17);
  // Warm-up: one single-item request fills the executor's test-vector cache
  // and touches every worker's arenas. Checked and counted, not timed.
  ExecTotals warm_tot, tot;
  const Served warm = serve(*s, 1, client, tr, 0, warm_tot, nullptr);
  r.attempted += 1;
  r.failed += warm.wrong;

  std::vector<double> lat, traced, untraced;
  int64_t good = 0;
  const auto t0 = Clock::now();
  for (int64_t req = 1; ms_between(t0, Clock::now()) < o.seconds * 1e3; ++req) {
    const bool rec = req % 2 == 1;
    tr.set_recording(rec);
    const Served sv = serve(*s, width, client, tr, req, tot, &exact);
    lat.push_back(sv.latency_ms);
    (rec ? traced : untraced).push_back(sv.latency_ms);
    good += sv.good;
    r.attempted += width;
    r.failed += sv.wrong;
  }
  const double wall_s = ms_between(t0, Clock::now()) / 1e3;
  tr.set_recording(true);

  report_latency(r, lat);
  r.e2e("good_circuits_per_s", static_cast<double>(good) / wall_s, "1/s");
  check_wrong_share(r);

  if (o.trace) {
    report_software_layers(r, *s, setups, tot, width, client, tr);
    // The simulator's view of the same request: the batch policy for
    // `width` circuits on kChips chips at this workload's m.
    const sim::GateDag dag = exec::to_gate_dag(s->circuit->compiled.graph);
    Span sp(tr, "sim.simulate_batch_policy");
    const auto policy = sim::simulate_batch_policy(TfheParams::security110(), m, dag, width, kChips);
    sp.stop();
    std::string why;
    if (!check_policy(policy, s->circuit->compiled.graph.bootstrap_count(), width, exact,
                      why)) r.problem("sim: " + why);
    r.e2e("sim_makespan_ms", policy.time_ms, "sim-ms");
    std::printf("sim plan %s for this batch on %d chips\n", policy.policy_label.c_str(), kChips);
    report_sim_layers(r, dag, m, policy, tr, exact);
    report_trace_layers(r, traced, untraced, tr);
  }
  exact.report(r);
}

} // namespace

void run_interactive(const Options& o, Tracer& tr, Report& r) {
  run_software(o, /*m=*/2, /*width=*/1, tr, r);
}

void run_batch8(const Options& o, Tracer& tr, Report& r) {
  run_software(o, /*m=*/3, /*width=*/8, tr, r);
}

void run_sim(const Options& o, Tracer& tr, Report& r) {
  const TfheParams paper = TfheParams::security110();
  ExactCounts exact;
  std::vector<double> setup_s;
  std::unique_ptr<Mul8Cmp> circuit;
  sim::GateDag dag;
  for (int rep = 0; rep < kSimSetupReps; ++rep) {
    circuit.reset();
    Span whole(tr, "setup");
    {
      Span sp(tr, "exec.compile");
      circuit = std::make_unique<Mul8Cmp>();
    }
    {
      Span sp(tr, "sim.build_dag");
      dag = exec::to_gate_dag(circuit->compiled.graph);
    }
    setup_s.push_back(whole.stop() / 1e3);
    check_compiled(*circuit, exact);
  }
  r.e2e("setup_s", median(setup_s), "s");
  const int64_t boots = circuit->compiled.graph.bootstrap_count();

  std::vector<double> lat, traced, untraced;
  int64_t good = 0;
  sim::BatchPolicySimResult last;
  const auto t0 = Clock::now();
  for (int64_t req = 0; ms_between(t0, Clock::now()) < o.seconds * 1e3; ++req) {
    const bool rec = req % 2 == 0;
    tr.set_recording(rec);
    Span request(tr, "request", req);
    bool ok = false;
    std::string why;
    {
      Span sp(tr, "sim.simulate_batch_policy", req);
      try {
        last = sim::simulate_batch_policy(paper, kSimM, dag, kSimBatch, kChips);
        ok = true;
      } catch (const std::exception& e) {
        why = e.what();
      }
    }
    {
      Span sp(tr, "sim.check", req);
      ok = ok && check_policy(last, boots, kSimBatch, exact, why);
    }
    const double ms = request.stop();
    lat.push_back(ms);
    (rec ? traced : untraced).push_back(ms);
    ++r.attempted;
    if (ok) {
      good += kSimBatch;
    } else {
      ++r.failed;
      r.problem("sim request " + std::to_string(req) + ": " + why);
    }
  }
  const double wall_s = ms_between(t0, Clock::now()) / 1e3;
  tr.set_recording(true);

  report_latency(r, lat);
  r.e2e("good_circuits_per_s", static_cast<double>(good) / wall_s, "1/s");
  r.e2e("sim_makespan_ms", last.time_ms, "sim-ms");
  std::printf("sim plan %s, %d replica group(s) of %d chip(s)\n",
              last.policy_label.c_str(), last.replica_groups, last.group_size);
  check_wrong_share(r);

  if (o.trace) {
    // The software layers at the simulated configuration: one set-up at
    // m=3 and one request of kSimBatch circuits on the executor.
    std::vector<SetupTimes> setups(1);
    std::unique_ptr<Stack> s = set_up(kSimM, o.threads, o.seed * 7919, tr, setups[0]);
    Rng client(o.seed * 104729 + 17);
    ExecTotals warm_tot, tot;
    serve(*s, 1, client, tr, -1, warm_tot, nullptr);
    const Served sv = serve(*s, kSimBatch, client, tr, -2, tot, &exact);
    if (sv.wrong) {
      std::printf("software reference request: %d of %d circuits wrong\n", sv.wrong, kSimBatch);
    }
    report_software_layers(r, *s, setups, tot, kSimBatch, client, tr);
    report_sim_layers(r, dag, kSimM, last, tr, exact);
    report_trace_layers(r, traced, untraced, tr);
  }
  exact.report(r);
}

} // namespace perfbench
