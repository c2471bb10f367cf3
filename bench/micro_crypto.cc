// Host wall time of the from-scratch crypto substrate and the quote paths
// built on it: 2048-bit modexp (Montgomery vs the schoolbook reference, with
// a bit-exactness sweep), RSA CRT sign at 2048 bits and sign/verify at the
// fleet's 512/1024-bit widths, SHA-1/SHA-256 over 64 KB, the 40-byte SHA-1 a
// PCR extend hashes, AES-128-CBC over 4 KB (the sealed-data cipher), one
// end-to-end TPM quote, and a 32-challenge batch quote verified slice by
// slice. These complement the calibrated simulated-time benches.
//
//   micro_crypto                    run, summary to stdout
//   micro_crypto --bench_json=PATH  also write the report (BENCH_crypto.json)
//
// Exits 2 if the modexp kernels disagree (bit_exact) or a batch slice fails
// to verify (batch_ok).

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/attest/verifier.h"
#include "src/common/bytes.h"
#include "src/common/json.h"
#include "src/crypto/aes.h"
#include "src/crypto/bigint.h"
#include "src/crypto/drbg.h"
#include "src/crypto/merkle.h"
#include "src/crypto/rsa.h"
#include "src/crypto/sha1.h"
#include "src/crypto/sha256.h"
#include "src/hw/clock.h"
#include "src/os/tqd.h"
#include "src/tpm/transport.h"

namespace flicker {
namespace {

// One full batch-quote round: K challenges coalesced by the daemon, ONE TPM
// quote over the batch's Merkle root, then the verifier-side crypto for all
// K slices - a root recomputation per auth path and an RSA verify per slice.
// Returns false if any slice fails to verify, so a bench run doubles as a
// correctness check.
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
  for (const BatchQuoteResponse& slice : slices) {
    Bytes root = MerkleTree::RootFromPath(slice.nonce, slice.path);
    Bytes composite = RecomputeQuoteComposite(slice.response.quote);
    Bytes info = BytesOf("QUOT");
    info.insert(info.end(), composite.begin(), composite.end());
    info.insert(info.end(), root.begin(), root.end());
    if (!RsaVerifySha1(aik.value(), info, slice.response.quote.signature)) {
      return false;
    }
  }
  return true;
}

int RunBench(const std::string& json_path) {
  std::unique_ptr<ReportFile> out = OpenReport("micro_crypto", json_path);
  if (out == nullptr) {
    return 1;
  }
  auto ops_per_sec = [](auto&& fn, double min_seconds, int max_iters) {
    return 1.0 / MeasureSecondsPerOp(fn, min_seconds, max_iters);
  };
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

  double mont_ops = ops_per_sec([&] { DoNotOptimize(BigInt::ModExp(base, exp, mod)); }, 1.0, 2000);
  double ref_ops = ops_per_sec(
      [&] { DoNotOptimize(BigInt::ModExpReference(base, exp, mod)); }, 2.0, 200);

  Drbg rsa2048_rng(20260805);
  const RsaPrivateKey key = RsaGenerateKey(2048, &rsa2048_rng);
  Bytes msg = BytesOf("certificate payload");
  double sign_ops = ops_per_sec([&] { DoNotOptimize(RsaSignSha1(key, msg)); }, 1.0, 2000);

  // The fleet's widths: a 512-bit AIK signs every quote and a 1024-bit
  // Privacy CA key signs every AIK certificate; a verifier checks both.
  auto rsa_sign_verify_ops = [&](size_t bits, uint64_t seed) {
    Drbg key_rng(seed);
    const RsaPrivateKey small_key = RsaGenerateKey(bits, &key_rng);
    const Bytes sig = RsaSignSha1(small_key, msg);
    const double sign =
        ops_per_sec([&] { DoNotOptimize(RsaSignSha1(small_key, msg)); }, 1.0, 200000);
    const double verify = ops_per_sec(
        [&] { DoNotOptimize(RsaVerifySha1(small_key.pub, msg, sig)); }, 1.0, 200000);
    return std::make_pair(sign, verify);
  };
  const auto [rsa512_sign_ops, rsa512_verify_ops] = rsa_sign_verify_ops(512, 512);
  const auto [rsa1024_sign_ops, rsa1024_verify_ops] = rsa_sign_verify_ops(1024, 1024);

  Drbg sha_rng(1);
  Bytes block = sha_rng.Generate(65536);
  double sha_ops = ops_per_sec([&] { DoNotOptimize(Sha1::Digest(block)); }, 1.0, 20000);
  double sha256_ops = ops_per_sec([&] { DoNotOptimize(Sha256::Digest(block)); }, 1.0, 20000);
  // A PCR extend hashes old value || measurement: one 40-byte message, so
  // one block plus padding.
  const Bytes extend_input = sha_rng.Generate(2 * Sha1::kDigestSize);
  double sha1_extend_ops =
      ops_per_sec([&] { DoNotOptimize(Sha1::Digest(extend_input)); }, 1.0, 2000000);
  const Aes aes128(sha_rng.Generate(16));
  const Bytes aes_iv = sha_rng.Generate(Aes::kBlockSize);
  const Bytes aes_plaintext(block.begin(), block.begin() + 4096);
  double aes_cbc_ops =
      ops_per_sec([&] { DoNotOptimize(aes128.EncryptCbc(aes_plaintext, aes_iv)); }, 1.0, 200000);

  SimClock clock;
  Tpm tpm(&clock, BroadcomBcm0102Profile());
  TpmTransport transport(&tpm);
  TpmClient client(&transport);
  Bytes nonce(20, 1);
  PcrSelection selection({17});
  double quote_ops =
      ops_per_sec([&] { DoNotOptimize(client.Quote(nonce, selection)); }, 1.0, 2000);

  // The headline: one TPM quote amortized over a 32-challenge batch, with
  // the full verifier-side crypto (Merkle root + RSA verify per slice) on
  // the clock. Verified quotes/sec vs the serialized quote path above.
  constexpr size_t kBatchChallenges = 32;
  Machine machine;
  TpmQuoteDaemon tqd(&machine, kBatchChallenges);
  Drbg batch_rng(0xba7c4);
  std::vector<Bytes> batch_nonces;
  for (size_t i = 0; i < kBatchChallenges; ++i) {
    batch_nonces.push_back(batch_rng.Generate(20));
  }
  bool batch_ok = RunBatchQuoteRound(&tqd, batch_nonces);
  double batch_verified_per_sec =
      ops_per_sec([&] { batch_ok = batch_ok && RunBatchQuoteRound(&tqd, batch_nonces); }, 1.0,
                  2000) *
      static_cast<double>(kBatchChallenges);

  JsonWriter json;
  json.Object().String("schema", "flicker-bench-crypto-v5").String("unit", "ops_per_sec");
  json.Fixed("modexp2048_montgomery", mont_ops, 3).Fixed("modexp2048_reference", ref_ops, 3);
  json.Fixed("modexp2048_speedup", mont_ops / ref_ops, 2).Bool("modexp2048_bit_exact", bit_exact);
  json.Fixed("rsa2048_crt_sign", sign_ops, 3).Fixed("rsa512_crt_sign", rsa512_sign_ops, 3);
  json.Fixed("rsa512_verify", rsa512_verify_ops, 3).Fixed("rsa1024_crt_sign", rsa1024_sign_ops, 3);
  json.Fixed("rsa1024_verify", rsa1024_verify_ops, 3).Fixed("sha1_64kb", sha_ops, 3);
  json.Fixed("sha256_64kb", sha256_ops, 3).Fixed("sha1_extend", sha1_extend_ops, 3);
  json.Fixed("aes128_cbc_4kb", aes_cbc_ops, 3).Fixed("tpm_quote_end_to_end", quote_ops, 3);
  json.Int("batch_quote_challenges", kBatchChallenges).Bool("batch_quote_all_verified", batch_ok);
  json.Fixed("batch_quote_verified_per_sec", batch_verified_per_sec, 3);
  json.Fixed("batch_quote_speedup_vs_serial", batch_verified_per_sec / quote_ops, 2).End();
  std::printf("modexp2048: montgomery %.1f ops/s, reference %.1f ops/s (%.1fx, bit_exact=%s)\n",
              mont_ops, ref_ops, mont_ops / ref_ops, bit_exact ? "true" : "false");
  std::printf("rsa2048 CRT sign: %.1f ops/s; sha1 64KB: %.1f ops/s; quote: %.1f ops/s\n",
              sign_ops, sha_ops, quote_ops);
  std::printf("sha1 40B extend: %.1f ops/s; sha256 64KB: %.1f ops/s; aes128-cbc 4KB: %.1f ops/s\n",
              sha1_extend_ops, sha256_ops, aes_cbc_ops);
  std::printf("rsa512 CRT sign %.1f / verify %.1f ops/s; rsa1024 CRT sign %.1f / verify %.1f "
              "ops/s\n",
              rsa512_sign_ops, rsa512_verify_ops, rsa1024_sign_ops, rsa1024_verify_ops);
  std::printf("batch quote (32 challenges): %.1f verified quotes/s (%.1fx vs serialized, "
              "all_verified=%s)\n",
              batch_verified_per_sec, batch_verified_per_sec / quote_ops,
              batch_ok ? "true" : "false");
  if (!CloseReport(std::move(out), json.Take())) {
    return 1;
  }
  return (bit_exact && batch_ok) ? 0 : 2;
}

}  // namespace
}  // namespace flicker

int main(int argc, char** argv) {
  std::string json_path;
  if (!flicker::ParseBenchJsonFlag(argc, argv, &json_path)) {
    return 1;
  }
  return flicker::RunBench(json_path);
}
