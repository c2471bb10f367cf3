#include "src/crypto/merkle.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "src/crypto/sha1.h"

namespace flicker {

namespace {

constexpr uint8_t kLeafPrefix = 0x00;
constexpr uint8_t kInteriorPrefix = 0x01;
constexpr size_t kDigestSize = Sha1::kDigestSize;

}  // namespace

Bytes MerkleTree::LeafDigest(const Bytes& nonce) {
  Bytes message;
  message.reserve(1 + nonce.size());
  message.push_back(kLeafPrefix);
  message.insert(message.end(), nonce.begin(), nonce.end());
  return Sha1::Digest(message);
}

Bytes MerkleTree::InteriorDigest(const Bytes& left, const Bytes& right) {
  Bytes message;
  message.reserve(1 + left.size() + right.size());
  message.push_back(kInteriorPrefix);
  message.insert(message.end(), left.begin(), left.end());
  message.insert(message.end(), right.begin(), right.end());
  return Sha1::Digest(message);
}

Result<MerkleTree> MerkleTree::Build(const std::vector<Bytes>& nonces) {
  if (nonces.empty()) {
    return InvalidArgumentError("cannot build a Merkle tree over zero nonces");
  }
  std::vector<Bytes> leaves;
  leaves.reserve(nonces.size());
  for (const Bytes& nonce : nonces) {
    leaves.push_back(LeafDigest(nonce));
  }

  // Sort leaves by digest (ties by original index keep the order stable) so
  // the root does not depend on challenge arrival order.
  std::vector<size_t> order(leaves.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    int cmp = std::memcmp(leaves[a].data(), leaves[b].data(), kDigestSize);
    if (cmp != 0) {
      return cmp < 0;
    }
    return a < b;
  });

  MerkleTree tree;
  tree.slot_.resize(order.size());
  std::vector<Bytes> sorted(order.size());
  for (size_t slot = 0; slot < order.size(); ++slot) {
    sorted[slot] = leaves[order[slot]];
    tree.slot_[order[slot]] = slot;
  }
  tree.levels_.push_back(std::move(sorted));

  while (tree.levels_.back().size() > 1) {
    const std::vector<Bytes>& level = tree.levels_.back();
    std::vector<Bytes> next;
    next.reserve((level.size() + 1) / 2);
    for (size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(InteriorDigest(level[i], level[i + 1]));
    }
    if (level.size() % 2 != 0) {
      next.push_back(level.back());  // Odd node: promote unchanged.
    }
    tree.levels_.push_back(std::move(next));
  }
  return tree;
}

MerkleAuthPath MerkleTree::PathFor(size_t index) const {
  MerkleAuthPath path;
  size_t pos = slot_.at(index);
  for (size_t depth = 0; depth + 1 < levels_.size(); ++depth) {
    const std::vector<Bytes>& level = levels_[depth];
    size_t sibling = (pos % 2 == 0) ? pos + 1 : pos - 1;
    if (sibling < level.size()) {
      MerkleStep step;
      step.sibling = level[sibling];
      step.sibling_is_left = sibling < pos;
      path.steps.push_back(std::move(step));
    }
    // A promoted odd node contributes no step at this level.
    pos /= 2;
  }
  return path;
}

Bytes MerkleTree::RootFromPath(const Bytes& nonce, const MerkleAuthPath& path) {
  Bytes node = LeafDigest(nonce);
  for (const MerkleStep& step : path.steps) {
    node = step.sibling_is_left ? InteriorDigest(step.sibling, node)
                                : InteriorDigest(node, step.sibling);
  }
  return node;
}

Bytes MerkleAuthPath::Serialize() const {
  Bytes out;
  PutUint32(&out, static_cast<uint32_t>(steps.size()));
  for (const MerkleStep& step : steps) {
    out.push_back(step.sibling_is_left ? 1 : 0);
    out.insert(out.end(), step.sibling.begin(), step.sibling.end());
  }
  return out;
}

Result<MerkleAuthPath> MerkleAuthPath::Deserialize(const Bytes& data) {
  if (data.size() < 4) {
    return InvalidArgumentError("auth path truncated before step count");
  }
  size_t count = GetUint32(data, 0);
  if (count > kMaxMerklePathSteps) {
    return InvalidArgumentError("auth path implausibly deep");
  }
  if (data.size() != 4 + count * (1 + kDigestSize)) {
    return InvalidArgumentError("auth path length does not match step count");
  }
  MerkleAuthPath path;
  path.steps.reserve(count);
  size_t offset = 4;
  for (size_t i = 0; i < count; ++i) {
    uint8_t side = data[offset];
    if (side > 1) {
      return InvalidArgumentError("auth path side byte invalid");
    }
    MerkleStep step;
    step.sibling_is_left = side == 1;
    step.sibling.assign(data.begin() + static_cast<long>(offset + 1),
                        data.begin() + static_cast<long>(offset + 1 + kDigestSize));
    path.steps.push_back(std::move(step));
    offset += 1 + kDigestSize;
  }
  return path;
}

}  // namespace flicker
