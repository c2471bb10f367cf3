// Host-side microbenchmarks (google-benchmark) of the from-scratch crypto
// substrate. These measure real wall time of the primitives every simulated
// TPM/PAL operation executes, complementing the calibrated simulated-time
// benches.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include <vector>

#include "src/attest/verifier.h"
#include "src/common/bytes.h"
#include "src/crypto/aes.h"
#include "src/crypto/bigint.h"
#include "src/crypto/drbg.h"
#include "src/crypto/hmac.h"
#include "src/crypto/md5.h"
#include "src/crypto/md5crypt.h"
#include "src/crypto/merkle.h"
#include "src/crypto/rsa.h"
#include "src/crypto/sha1.h"
#include "src/crypto/sha256.h"
#include "src/crypto/sha_multibuf.h"
#include "src/hw/clock.h"
#include "src/os/tqd.h"
#include "src/tpm/transport.h"

namespace flicker {
namespace {

const RsaPrivateKey& Rsa2048Key() {
  static const RsaPrivateKey key = [] {
    Drbg rng(20260805);
    return RsaGenerateKey(2048, &rng);
  }();
  return key;
}

void BM_Sha1(benchmark::State& state) {
  Drbg rng(1);
  Bytes data = rng.Generate(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1::Digest(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha1)->Arg(64)->Arg(4096)->Arg(65536);

void BM_Sha256(benchmark::State& state) {
  Drbg rng(2);
  Bytes data = rng.Generate(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Digest(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(4096)->Arg(65536);

// Lane scaling of the multi-buffer engine: batch size 1 degenerates to the
// scalar path; 4/8 fill one SSE2/AVX2 vector; 32 shows steady-state
// throughput over several passes.
void BM_Sha1MultiBuf64Kb(benchmark::State& state) {
  Drbg rng(21);
  std::vector<Bytes> messages;
  for (int i = 0; i < state.range(0); ++i) {
    messages.push_back(rng.Generate(65536));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1DigestMany(messages));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0) * 65536);
}
BENCHMARK(BM_Sha1MultiBuf64Kb)->Arg(1)->Arg(4)->Arg(8)->Arg(32);

void BM_Sha256MultiBuf64Kb(benchmark::State& state) {
  Drbg rng(22);
  std::vector<Bytes> messages;
  for (int i = 0; i < state.range(0); ++i) {
    messages.push_back(rng.Generate(65536));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256DigestMany(messages));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0) * 65536);
}
BENCHMARK(BM_Sha256MultiBuf64Kb)->Arg(1)->Arg(4)->Arg(8)->Arg(32);

void BM_Md5(benchmark::State& state) {
  Drbg rng(4);
  Bytes data = rng.Generate(4096);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Md5::Digest(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_Md5);

void BM_Md5Crypt(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(Md5Crypt("correct horse battery staple", "a1b2c3d4"));
  }
}
BENCHMARK(BM_Md5Crypt);

void BM_HmacSha1(benchmark::State& state) {
  Drbg rng(5);
  Bytes key = rng.Generate(20);
  Bytes data = rng.Generate(1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HmacSha1(key, data));
  }
}
BENCHMARK(BM_HmacSha1);

void BM_AesCbcEncrypt(benchmark::State& state) {
  Drbg rng(6);
  Aes aes(rng.Generate(16));
  Bytes iv = rng.Generate(16);
  Bytes data = rng.Generate(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(aes.EncryptCbc(data, iv));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_AesCbcEncrypt)->Arg(1024)->Arg(16384);

void BM_BigIntModExp1024(benchmark::State& state) {
  Drbg rng(7);
  BigInt base = BigInt::FromBytesBe(rng.Generate(128));
  BigInt exp = BigInt::FromBytesBe(rng.Generate(128));
  BigInt mod = BigInt::FromBytesBe(rng.Generate(128));
  if (!mod.IsOdd()) {
    mod = mod + BigInt(1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(BigInt::ModExp(base, exp, mod));
  }
}
BENCHMARK(BM_BigIntModExp1024);

void BM_ModExp2048_Montgomery(benchmark::State& state) {
  Drbg rng(11);
  BigInt base = BigInt::FromBytesBe(rng.Generate(256));
  BigInt exp = BigInt::FromBytesBe(rng.Generate(256));
  BigInt mod = BigInt::FromBytesBe(rng.Generate(256));
  if (!mod.IsOdd()) {
    mod = mod + BigInt(1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(BigInt::ModExp(base, exp, mod));
  }
}
BENCHMARK(BM_ModExp2048_Montgomery)->Unit(benchmark::kMillisecond);

void BM_ModExp2048_Reference(benchmark::State& state) {
  Drbg rng(11);
  BigInt base = BigInt::FromBytesBe(rng.Generate(256));
  BigInt exp = BigInt::FromBytesBe(rng.Generate(256));
  BigInt mod = BigInt::FromBytesBe(rng.Generate(256));
  if (!mod.IsOdd()) {
    mod = mod + BigInt(1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(BigInt::ModExpReference(base, exp, mod));
  }
}
BENCHMARK(BM_ModExp2048_Reference)->Unit(benchmark::kMillisecond);

void BM_RsaSignSha1_2048(benchmark::State& state) {
  const RsaPrivateKey& key = Rsa2048Key();
  Bytes msg = BytesOf("certificate payload");
  for (auto _ : state) {
    benchmark::DoNotOptimize(RsaSignSha1(key, msg));
  }
}
BENCHMARK(BM_RsaSignSha1_2048)->Unit(benchmark::kMillisecond);

void BM_TpmQuoteEndToEnd(benchmark::State& state) {
  SimClock clock;
  Tpm tpm(&clock, BroadcomBcm0102Profile());
  TpmTransport transport(&tpm);
  TpmClient client(&transport);
  Bytes nonce(20, 1);
  PcrSelection selection({17});
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.Quote(nonce, selection));
  }
}
BENCHMARK(BM_TpmQuoteEndToEnd)->Unit(benchmark::kMillisecond);

// One full batch-quote round: K challenges coalesced by the daemon, ONE TPM
// quote over the batch's Merkle root, then the verifier-side crypto for all
// K slices - a root recomputation per auth path and one multi-buffer batched
// RSA verify. Returns false if any slice fails to verify, so a bench run
// doubles as a correctness check.
bool RunBatchQuoteRound(TpmQuoteDaemon* tqd, const std::vector<Bytes>& nonces) {
  PcrSelection selection({17});
  for (const Bytes& nonce : nonces) {
    if (!tqd->SubmitBatched(nonce, selection).ok()) {
      return false;
    }
  }
  std::vector<BatchQuoteResponse> slices;
  if (!tqd->FlushReadyBatches(&slices, /*force=*/true).ok() || slices.size() != nonces.size()) {
    return false;
  }
  Result<RsaPublicKey> aik = RsaPublicKey::Deserialize(slices[0].response.aik_public);
  if (!aik.ok()) {
    return false;
  }
  std::vector<Bytes> messages;
  std::vector<Bytes> signatures;
  for (const BatchQuoteResponse& slice : slices) {
    Bytes root = MerkleTree::RootFromPath(slice.nonce, slice.path);
    Bytes composite = RecomputeQuoteComposite(slice.response.quote);
    Bytes info = BytesOf("QUOT");
    info.insert(info.end(), composite.begin(), composite.end());
    info.insert(info.end(), root.begin(), root.end());
    messages.push_back(std::move(info));
    signatures.push_back(slice.response.quote.signature);
  }
  std::vector<bool> verdicts = RsaVerifySha1Batch(aik.value(), messages, signatures);
  for (bool verdict : verdicts) {
    if (!verdict) {
      return false;
    }
  }
  return true;
}

void BM_BatchQuote32Verified(benchmark::State& state) {
  Machine machine;
  TqdConfig config;
  config.max_batch_size = 32;
  TpmQuoteDaemon tqd(&machine, config);
  Drbg rng(23);
  std::vector<Bytes> nonces;
  for (int i = 0; i < 32; ++i) {
    nonces.push_back(rng.Generate(20));
  }
  for (auto _ : state) {
    if (!RunBatchQuoteRound(&tqd, nonces)) {
      state.SkipWithError("batch quote round failed verification");
      break;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_BatchQuote32Verified)->Unit(benchmark::kMillisecond);

void BM_RsaKeygen1024(benchmark::State& state) {
  uint64_t seed = 0;
  for (auto _ : state) {
    Drbg rng(seed++);
    benchmark::DoNotOptimize(RsaGenerateKey(1024, &rng));
  }
}
BENCHMARK(BM_RsaKeygen1024)->Unit(benchmark::kMillisecond);

void BM_RsaDecrypt1024(benchmark::State& state) {
  Drbg rng(9);
  RsaPrivateKey key = RsaGenerateKey(1024, &rng);
  Bytes ct = RsaEncryptPkcs1(key.pub, BytesOf("payload"), &rng).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(RsaDecryptPkcs1(key, ct));
  }
}
BENCHMARK(BM_RsaDecrypt1024);

void BM_RsaSignSha1_1024(benchmark::State& state) {
  Drbg rng(10);
  RsaPrivateKey key = RsaGenerateKey(1024, &rng);
  Bytes msg = BytesOf("certificate payload");
  for (auto _ : state) {
    benchmark::DoNotOptimize(RsaSignSha1(key, msg));
  }
}
BENCHMARK(BM_RsaSignSha1_1024);

// --- machine-readable mode -------------------------------------------------
//
// `micro_crypto --bench_json=PATH` skips google-benchmark and writes a small
// fixed-schema JSON report (ops/sec for the PR-relevant hot paths plus the
// Montgomery-vs-reference speedup and a bit-exactness check) that CI and the
// bench_json CMake target consume.

// Runs `fn` until `min_seconds` of wall time or `max_iters` iterations have
// elapsed (whichever comes first, but always at least one), returns ops/sec.
template <typename Fn>
double MeasureOpsPerSec(Fn&& fn, double min_seconds, int max_iters) {
  using Clock = std::chrono::steady_clock;
  fn();  // Warm-up iteration, untimed.
  int iters = 0;
  Clock::time_point start = Clock::now();
  double elapsed = 0;
  do {
    fn();
    ++iters;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < min_seconds && iters < max_iters);
  return iters / elapsed;
}

int RunJsonBench(const std::string& path) {
  // Open up front so a bad path fails before minutes of measurement.
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "micro_crypto: cannot open %s for writing\n", path.c_str());
    return 1;
  }
  Drbg rng(11);
  BigInt base = BigInt::FromBytesBe(rng.Generate(256));
  BigInt exp = BigInt::FromBytesBe(rng.Generate(256));
  BigInt mod = BigInt::FromBytesBe(rng.Generate(256));
  if (!mod.IsOdd()) {
    mod = mod + BigInt(1);
  }

  // Bit-exactness proof on the benchmarked operands plus a short sweep.
  bool bit_exact = BigInt::ModExp(base, exp, mod) == BigInt::ModExpReference(base, exp, mod);
  Drbg sweep(0xd1ff);
  for (int i = 0; i < 16 && bit_exact; ++i) {
    BigInt b = BigInt::FromBytesBe(sweep.Generate(96));
    BigInt e = BigInt::FromBytesBe(sweep.Generate(96));
    BigInt m = BigInt::FromBytesBe(sweep.Generate(96));
    if (!m.IsOdd()) {
      m = m + BigInt(1);
    }
    bit_exact = BigInt::ModExp(b, e, m) == BigInt::ModExpReference(b, e, m);
  }

  double mont_ops = MeasureOpsPerSec(
      [&] { benchmark::DoNotOptimize(BigInt::ModExp(base, exp, mod)); }, 1.0, 2000);
  double ref_ops = MeasureOpsPerSec(
      [&] { benchmark::DoNotOptimize(BigInt::ModExpReference(base, exp, mod)); }, 2.0, 200);

  const RsaPrivateKey& key = Rsa2048Key();
  Bytes msg = BytesOf("certificate payload");
  double sign_ops =
      MeasureOpsPerSec([&] { benchmark::DoNotOptimize(RsaSignSha1(key, msg)); }, 1.0, 2000);

  Drbg sha_rng(1);
  Bytes block = sha_rng.Generate(65536);
  double sha_ops =
      MeasureOpsPerSec([&] { benchmark::DoNotOptimize(Sha1::Digest(block)); }, 1.0, 20000);
  double sha256_ops =
      MeasureOpsPerSec([&] { benchmark::DoNotOptimize(Sha256::Digest(block)); }, 1.0, 20000);

  // Multi-buffer lane scaling: a full vector of 64 KB messages per call.
  // Messages/sec divided by the scalar one-shot rate is the SIMD speedup
  // (1.0 by construction when the dispatcher fell back to scalar code).
  const size_t lanes = ShaMultiBufLanes();
  std::vector<Bytes> lane_msgs;
  Drbg lane_rng(0x1a11e5);
  for (size_t i = 0; i < lanes; ++i) {
    lane_msgs.push_back(lane_rng.Generate(65536));
  }
  // Bit-exactness of the multi-buffer engine on the benchmarked inputs.
  bool multibuf_exact = true;
  {
    std::vector<Bytes> digests = Sha1DigestMany(lane_msgs);
    std::vector<Bytes> digests256 = Sha256DigestMany(lane_msgs);
    for (size_t i = 0; i < lanes; ++i) {
      multibuf_exact = multibuf_exact && digests[i] == Sha1::Digest(lane_msgs[i]) &&
                       digests256[i] == Sha256::Digest(lane_msgs[i]);
    }
  }
  double sha1_mb_msgs =
      MeasureOpsPerSec([&] { benchmark::DoNotOptimize(Sha1DigestMany(lane_msgs)); }, 1.0, 20000) *
      static_cast<double>(lanes);
  double sha256_mb_msgs =
      MeasureOpsPerSec([&] { benchmark::DoNotOptimize(Sha256DigestMany(lane_msgs)); }, 1.0,
                       20000) *
      static_cast<double>(lanes);

  SimClock clock;
  Tpm tpm(&clock, BroadcomBcm0102Profile());
  TpmTransport transport(&tpm);
  TpmClient client(&transport);
  Bytes nonce(20, 1);
  PcrSelection selection({17});
  double quote_ops =
      MeasureOpsPerSec([&] { benchmark::DoNotOptimize(client.Quote(nonce, selection)); }, 1.0, 2000);

  // The headline: one TPM quote amortized over a 32-challenge batch, with
  // the full verifier-side crypto (Merkle roots + batched RSA verify) on
  // the clock. Verified quotes/sec vs the serialized quote path above.
  constexpr size_t kBatchChallenges = 32;
  Machine machine;
  TqdConfig tqd_config;
  tqd_config.max_batch_size = kBatchChallenges;
  TpmQuoteDaemon tqd(&machine, tqd_config);
  Drbg batch_rng(0xba7c4);
  std::vector<Bytes> batch_nonces;
  for (size_t i = 0; i < kBatchChallenges; ++i) {
    batch_nonces.push_back(batch_rng.Generate(20));
  }
  bool batch_ok = RunBatchQuoteRound(&tqd, batch_nonces);
  double batch_verified_per_sec =
      MeasureOpsPerSec([&] { batch_ok = batch_ok && RunBatchQuoteRound(&tqd, batch_nonces); },
                       1.0, 2000) *
      static_cast<double>(kBatchChallenges);

  std::fprintf(out,
               "{\n"
               "  \"schema\": \"flicker-bench-crypto-v2\",\n"
               "  \"unit\": \"ops_per_sec\",\n"
               "  \"modexp2048_montgomery\": %.3f,\n"
               "  \"modexp2048_reference\": %.3f,\n"
               "  \"modexp2048_speedup\": %.2f,\n"
               "  \"modexp2048_bit_exact\": %s,\n"
               "  \"rsa2048_crt_sign\": %.3f,\n"
               "  \"sha1_64kb\": %.3f,\n"
               "  \"sha256_64kb\": %.3f,\n"
               "  \"sha_multibuf_engine\": \"%s\",\n"
               "  \"sha_multibuf_lanes\": %zu,\n"
               "  \"sha_multibuf_bit_exact\": %s,\n"
               "  \"sha1_multibuf_64kb_msgs_per_sec\": %.3f,\n"
               "  \"sha1_multibuf_speedup\": %.2f,\n"
               "  \"sha256_multibuf_64kb_msgs_per_sec\": %.3f,\n"
               "  \"sha256_multibuf_speedup\": %.2f,\n"
               "  \"tpm_quote_end_to_end\": %.3f,\n"
               "  \"batch_quote_challenges\": %zu,\n"
               "  \"batch_quote_all_verified\": %s,\n"
               "  \"batch_quote_verified_per_sec\": %.3f,\n"
               "  \"batch_quote_speedup_vs_serial\": %.2f\n"
               "}\n",
               mont_ops, ref_ops, mont_ops / ref_ops, bit_exact ? "true" : "false", sign_ops,
               sha_ops, sha256_ops, ShaMultiBufEngine(), lanes,
               multibuf_exact ? "true" : "false", sha1_mb_msgs, sha1_mb_msgs / sha_ops,
               sha256_mb_msgs, sha256_mb_msgs / sha256_ops, quote_ops, kBatchChallenges,
               batch_ok ? "true" : "false", batch_verified_per_sec,
               batch_verified_per_sec / quote_ops);
  std::fclose(out);
  std::printf("modexp2048: montgomery %.1f ops/s, reference %.1f ops/s (%.1fx, bit_exact=%s)\n",
              mont_ops, ref_ops, mont_ops / ref_ops, bit_exact ? "true" : "false");
  std::printf("rsa2048 CRT sign: %.1f ops/s; sha1 64KB: %.1f ops/s; quote: %.1f ops/s\n",
              sign_ops, sha_ops, quote_ops);
  std::printf("sha multibuf (%s, %zu lanes): sha1 %.1f msgs/s (%.1fx), sha256 %.1f msgs/s "
              "(%.1fx), bit_exact=%s\n",
              ShaMultiBufEngine(), lanes, sha1_mb_msgs, sha1_mb_msgs / sha_ops, sha256_mb_msgs,
              sha256_mb_msgs / sha256_ops, multibuf_exact ? "true" : "false");
  std::printf("batch quote (32 challenges): %.1f verified quotes/s (%.1fx vs serialized, "
              "all_verified=%s)\n",
              batch_verified_per_sec, batch_verified_per_sec / quote_ops,
              batch_ok ? "true" : "false");
  std::printf("wrote %s\n", path.c_str());
  return (bit_exact && multibuf_exact && batch_ok) ? 0 : 2;
}

}  // namespace
}  // namespace flicker

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    constexpr const char kFlag[] = "--bench_json=";
    if (std::strncmp(argv[i], kFlag, sizeof(kFlag) - 1) == 0) {
      return flicker::RunJsonBench(argv[i] + sizeof(kFlag) - 1);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
