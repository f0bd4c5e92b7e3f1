"""Graph-theoretic references for graphical zonotopes.

The graphical zonotope of a multigraph G on the vertices 0..m-1 has one
generator e_i - e_j for each edge {i, j}, with the last vertex sent to 0,
so a connected G gives a full-rank body in Z^(m-1).  Its answers come from
graph theory, by counting forests, with no lattice counting and no matroid
code:

* E(n) = sum_k f_k n^k, where f_k counts the forests of G with k edges
  (Stanley, "A zonotope associated with graphical degree sequences", 1991);
* sum_B x^(ia(B)) over the spanning trees B, with ia(B) the number of
  internally active edges, is the Tutte polynomial T_G(x, 1), and
  T_G(x, 1) = sum_k f_k (x - 1)^(d - k) for a connected G of rank d.
"""

from math import comb


def graph_generators(m, edges):
    """e_i - e_j for each edge {i, j} of a graph on the vertices 0..m-1, in
    Z^(m-1): the last vertex is sent to 0."""
    vectors = []
    for i, j in edges:
        v = [0] * m
        v[i] += 1
        v[j] -= 1
        vectors.append(tuple(v[:-1]))
    return vectors


def _root(parent, v):
    while parent[v] != v:
        v = parent[v]
    return v


def forest_counts(m, edges):
    """[f_0, ..., f_(m-1)]: the edge subsets of the multigraph on m vertices
    that hold no cycle, by size.  Subsets grow in edge order, and an edge
    joins only two trees of the union-find forest so far, so each forest is
    reached once."""
    counts = [0] * m

    def grow(start, parent, k):
        counts[k] += 1
        for i in range(start, len(edges)):
            a, b = (_root(parent, v) for v in edges[i])
            if a != b:
                joined = list(parent)
                joined[a] = b
                grow(i + 1, joined, k + 1)

    grow(0, list(range(m)), 0)
    return counts


def tutte_at_y1(forests, d):
    """Coefficients in x, lowest first, of T_G(x, 1) = sum_k f_k (x-1)^(d-k)."""
    coeffs = [0] * (d + 1)
    for k, f in enumerate(forests):
        for i in range(d - k + 1):
            coeffs[i] += f * comb(d - k, i) * (-1) ** (d - k - i)
    return coeffs
