//===- support/UnionFind.h - Disjoint-set forest ----------------*- C++ -*-===//
///
/// \file
/// A disjoint-set (union-find) forest with union by size and path
/// compression. Used by the single-linkage merge walk behind compact-set
/// detection (`forEachMerge` in graph/Mst.h), which merges components along
/// the MST edges in ascending weight order, and by the spanning-tree check.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_SUPPORT_UNIONFIND_H
#define MUTK_SUPPORT_UNIONFIND_H

#include <cassert>
#include <cstddef>
#include <vector>

namespace mutk {

/// Disjoint-set forest over the integers `0..n-1`.
///
/// Amortized near-constant `find`/`unite`. Components keep their size so a
/// caller can cheaply tell how large a merged block became.
class UnionFind {
public:
  /// Creates \p NumElements singleton components.
  explicit UnionFind(std::size_t NumElements);

  /// Returns the canonical representative of the component containing \p X.
  int find(int X) const;

  /// Merges the components of \p A and \p B.
  ///
  /// \returns the representative of the merged component, or -1 if \p A and
  /// \p B were already in the same component (no merge happened).
  int unite(int A, int B);

  /// Returns true if \p A and \p B are in the same component.
  bool connected(int A, int B) const { return find(A) == find(B); }

  /// Returns the number of elements in the component containing \p X.
  int componentSize(int X) const { return Size[find(X)]; }

  /// Returns the number of distinct components.
  int numComponents() const { return NumComponents; }

  /// Returns the total number of elements.
  std::size_t size() const { return Parent.size(); }

  /// Collects the members of every component, keyed by representative.
  ///
  /// Members appear in increasing order within each group, and groups are
  /// ordered by their smallest member, so the output is deterministic.
  std::vector<std::vector<int>> components() const;

private:
  // Mutable to allow path compression from const `find`.
  mutable std::vector<int> Parent;
  std::vector<int> Size;
  int NumComponents;
};

} // namespace mutk

#endif // MUTK_SUPPORT_UNIONFIND_H
