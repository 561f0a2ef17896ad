#include "src/crypto/merkle.h"

#include <cstring>

namespace nymix {

// Each node hashes one stack buffer (prefix byte, then the child digests)
// in a single Update: 33 bytes for a leaf, 65 for an interior node.
Sha256Digest MerkleTree::HashLeaf(const Sha256Digest& block_digest) {
  uint8_t node[1 + kSha256DigestSize];
  node[0] = 0x00;
  std::memcpy(node + 1, block_digest.data(), kSha256DigestSize);
  return Sha256::Hash(ByteSpan(node, sizeof(node)));
}

Sha256Digest MerkleTree::HashInterior(const Sha256Digest& left, const Sha256Digest& right) {
  uint8_t node[1 + 2 * kSha256DigestSize];
  node[0] = 0x01;
  std::memcpy(node + 1, left.data(), kSha256DigestSize);
  std::memcpy(node + 1 + kSha256DigestSize, right.data(), kSha256DigestSize);
  return Sha256::Hash(ByteSpan(node, sizeof(node)));
}

MerkleTree MerkleTree::Build(const std::vector<Sha256Digest>& block_digests) {
  MerkleTree tree;
  tree.leaf_count_ = block_digests.size();
  if (block_digests.empty()) {
    tree.root_ = Sha256::Hash(ByteSpan());
    return tree;
  }

  std::vector<Sha256Digest> level;
  level.reserve(block_digests.size());
  for (const auto& digest : block_digests) {
    level.push_back(HashLeaf(digest));
  }
  tree.levels_.push_back(std::move(level));

  while (tree.levels_.back().size() > 1) {
    const auto& below = tree.levels_.back();
    std::vector<Sha256Digest> above;
    above.reserve((below.size() + 1) / 2);
    for (size_t i = 0; i < below.size(); i += 2) {
      const Sha256Digest& left = below[i];
      const Sha256Digest& right = (i + 1 < below.size()) ? below[i + 1] : below[i];
      above.push_back(HashInterior(left, right));
    }
    tree.levels_.push_back(std::move(above));
  }
  tree.root_ = tree.levels_.back()[0];
  return tree;
}

MerkleTree MerkleTree::BuildFromBlocks(const std::vector<Bytes>& blocks) {
  std::vector<Sha256Digest> digests;
  digests.reserve(blocks.size());
  for (const auto& block : blocks) {
    digests.push_back(Sha256::Hash(block));
  }
  return Build(digests);
}

Result<MerkleTree> MerkleTree::FromLevels(std::vector<std::vector<Sha256Digest>> levels) {
  MerkleTree tree;
  if (levels.empty()) {
    // Build() over zero blocks stores no levels and a sentinel root.
    tree.root_ = Sha256::Hash(ByteSpan());
    return tree;
  }
  for (size_t i = 0; i + 1 < levels.size(); ++i) {
    if (levels[i + 1].size() != (levels[i].size() + 1) / 2) {
      return InvalidArgumentError("merkle: level " + std::to_string(i + 1) +
                                  " size does not halve its parent");
    }
  }
  if (levels.back().size() != 1) {
    return InvalidArgumentError("merkle: top level is not a single root");
  }
  // Spot check: recompute the leftmost path bottom-up. Catches levels that
  // are internally inconsistent without paying for a full rebuild.
  for (size_t i = 0; i + 1 < levels.size(); ++i) {
    const Sha256Digest& left = levels[i][0];
    const Sha256Digest& right = levels[i].size() > 1 ? levels[i][1] : levels[i][0];
    if (HashInterior(left, right) != levels[i + 1][0]) {
      return InvalidArgumentError("merkle: leftmost path mismatch at level " +
                                  std::to_string(i + 1));
    }
  }
  tree.leaf_count_ = levels[0].size();
  tree.root_ = levels.back()[0];
  tree.levels_ = std::move(levels);
  return tree;
}

Result<MerkleProof> MerkleTree::ProveLeaf(uint64_t leaf_index) const {
  if (leaf_index >= leaf_count_) {
    return InvalidArgumentError("leaf index out of range");
  }
  MerkleProof proof;
  proof.leaf_index = leaf_index;
  proof.leaf_count = leaf_count_;
  uint64_t index = leaf_index;
  for (size_t level = 0; level + 1 < levels_.size(); ++level) {
    const auto& nodes = levels_[level];
    uint64_t sibling = (index % 2 == 0) ? index + 1 : index - 1;
    if (sibling >= nodes.size()) {
      sibling = index;  // odd node pairs with itself
    }
    proof.siblings.push_back(nodes[sibling]);
    index /= 2;
  }
  return proof;
}

bool MerkleTree::VerifyProof(const Sha256Digest& root, const Sha256Digest& block_digest,
                             const MerkleProof& proof) {
  if (proof.leaf_index >= proof.leaf_count) {
    return false;
  }
  Sha256Digest node = HashLeaf(block_digest);
  uint64_t index = proof.leaf_index;
  uint64_t level_count = proof.leaf_count;
  for (const Sha256Digest& sibling : proof.siblings) {
    if (index % 2 == 0) {
      node = HashInterior(node, sibling);
    } else {
      node = HashInterior(sibling, node);
    }
    index /= 2;
    level_count = (level_count + 1) / 2;
  }
  if (level_count != 1) {
    return false;
  }
  return node == root;
}

}  // namespace nymix
