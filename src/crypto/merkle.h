// Merkle aggregation for batch quotes (tqd coalescing, paper §6).
//
// A TPM quote costs one RSA signature no matter how much data the nonce
// commits to, so the quote daemon aggregates K outstanding challenge nonces
// into a binary SHA-1 Merkle tree and quotes the root once. Each challenger
// receives the shared quote plus the authentication path for its own nonce;
// recomputing the root from that path and comparing it to the quoted
// externalData proves the nonce was in the batch without trusting the daemon.
//
// Hashing is domain-separated - leaf = SHA1(0x00 || nonce), interior =
// SHA1(0x01 || left || right) - so an interior node can never be replayed as
// a leaf (or vice versa). Leaves are sorted by digest before the tree is
// built, making the root independent of challenge arrival order. An odd node
// at any level is promoted unchanged rather than paired with a duplicate,
// which closes the classic duplicate-leaf malleability. Build and
// RootFromPath share one definition of each hash (LeafDigest,
// InteriorDigest).

#ifndef FLICKER_SRC_CRYPTO_MERKLE_H_
#define FLICKER_SRC_CRYPTO_MERKLE_H_

#include <cstddef>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"

namespace flicker {

// One bottom-up step of an authentication path: the sibling digest and the
// side it occupies.
struct MerkleStep {
  Bytes sibling;  // 20-byte SHA-1 digest.
  bool sibling_is_left = false;
};

struct MerkleAuthPath {
  std::vector<MerkleStep> steps;

  // Wire form: u32 step count, then per step one side byte (0 = right,
  // 1 = left) and the 20-byte sibling digest.
  Bytes Serialize() const;
  static Result<MerkleAuthPath> Deserialize(const Bytes& data);
};

// Paths longer than this are rejected on deserialization: 2^32 leaves is
// already far past any batch the daemon would coalesce.
inline constexpr size_t kMaxMerklePathSteps = 32;

class MerkleTree {
 public:
  static Bytes LeafDigest(const Bytes& nonce);
  static Bytes InteriorDigest(const Bytes& left, const Bytes& right);

  // Builds the tree over SHA1(0x00 || nonce) leaves. Fails on an empty
  // batch.
  static Result<MerkleTree> Build(const std::vector<Bytes>& nonces);

  const Bytes& root() const { return levels_.back()[0]; }
  size_t leaf_count() const { return levels_.front().size(); }

  // The authentication path for `nonces[index]` as passed to Build.
  MerkleAuthPath PathFor(size_t index) const;

  // Folds `nonce` up `path`; the result equals the batch root iff the path
  // is authentic for that nonce.
  static Bytes RootFromPath(const Bytes& nonce, const MerkleAuthPath& path);

 private:
  MerkleTree() = default;

  std::vector<std::vector<Bytes>> levels_;  // levels_[0] = sorted leaves.
  std::vector<size_t> slot_;                // Original index -> sorted leaf slot.
};

}  // namespace flicker

#endif  // FLICKER_SRC_CRYPTO_MERKLE_H_
