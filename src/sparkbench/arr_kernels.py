"""Indirection-array kernels over array-based compressed rows.

Four benchmark kernels whose defining cost is data-dependent array
indexing rather than pointer chasing:

* ``asm_assemble``: finite element stiffness assembly, scatter-adding
  3x3 element matrices into the global CSR arrays through the mesh
  connectivity.
* ``trmat``: CSR transpose by column counting, prefix summing and a
  scatter pass with a read-after-write dependency on the offset array.
* ``cmck``: Cuthill-McKee relabeling to shrink matrix bandwidth,
  breadth-first from a minimum-degree seed.
* ``mperm``: symmetric permutation B = P A P^T applied with the
  offset-arithmetic fill loop, all addressing through index arrays.

``bandwidth`` is the metric cmck is judged by; ``local_stiffness`` is
the per-element building block of the assembly.
"""

from __future__ import annotations

from .core import (
    CsrMatrix,
    DenseVector,
    DimensionError,
    GeometryError,
    Permutation,
    PermutationError,
    SymmetryError,
)


def local_stiffness(p1, p2, p3) -> list:
    """Stiffness matrix of one linear 3-node triangle.

    K[i][j] = (b_i b_j + c_i c_j) / (4 area), where b and c are the
    usual coordinate-difference coefficients of the linear shape
    functions. Symmetric, and every row sums to zero because a constant
    field has no gradient.
    """
    (x1, y1), (x2, y2), (x3, y3) = p1, p2, p3
    det = (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
    if det == 0.0:
        raise GeometryError("degenerate triangle")
    area = abs(det) / 2.0
    b = (y2 - y3, y3 - y1, y1 - y2)
    c = (x3 - x2, x1 - x3, x2 - x1)
    scale = 1.0 / (4.0 * area)
    return [[(b[i] * b[j] + c[i] * c[j]) * scale for j in range(3)]
            for i in range(3)]


def asm_symbolic(mesh) -> tuple:
    """Symbolic phase of the assembly: pattern plus slot indirection.

    Returns (k, slots) where k is the global matrix with the union
    pattern of all element contributions and all-zero values, and
    slots[e] is a 9-tuple of positions into k.values, row-major over
    the 3x3 local matrix of element e. The numeric phase is then a pure
    scatter-add through the slot table.
    """
    n = len(mesh.nodes)
    adjacency = [set() for _ in range(n)]
    for na, nb, nc in mesh.elements:
        for gi in (na, nb, nc):
            adjacency[gi].update((na, nb, nc))
    row_ptr = [0] * (n + 1)
    col_ind = []
    position = [None] * n
    for i in range(n):
        cols = sorted(adjacency[i])
        position[i] = {c: row_ptr[i] + k for k, c in enumerate(cols)}
        col_ind.extend(cols)
        row_ptr[i + 1] = len(col_ind)
    k = CsrMatrix(n, n, row_ptr, col_ind, [0.0] * len(col_ind))
    slots = []
    for na, nb, nc in mesh.elements:
        glob = (na, nb, nc)
        slots.append(tuple(position[glob[li]][glob[lj]]
                           for li in range(3) for lj in range(3)))
    return k, slots


def asm_numeric(mesh, k: CsrMatrix, slots: list) -> None:
    """Numeric phase: accumulate every element matrix into k.values.

    This is the measured loop: per element one local stiffness
    evaluation and nine scatter-adds addressed through the slot
    indirection table.
    """
    nodes = mesh.nodes
    values = k.values
    for e_idx, (na, nb, nc) in enumerate(mesh.elements):
        kloc = local_stiffness(nodes[na], nodes[nb], nodes[nc])
        s = slots[e_idx]
        for li in range(3):
            row = kloc[li]
            base = 3 * li
            values[s[base]] += row[0]
            values[s[base + 1]] += row[1]
            values[s[base + 2]] += row[2]


def asm_assemble(mesh) -> CsrMatrix:
    """Assemble the global stiffness matrix of a triangular mesh."""
    mesh.validate()
    k, slots = asm_symbolic(mesh)
    asm_numeric(mesh, k, slots)
    return k


def trmat(m: CsrMatrix) -> CsrMatrix:
    """CSR transpose via count, prefix-sum and scatter.

    Phase 1 counts entries per column (scattered increments), phase 2
    turns the counts into starting offsets by an exclusive prefix sum,
    phase 3 scans the source row-major and drops every entry at
    offsets[c], incrementing it as it goes (the read-after-write
    dependency). The spent offset array, shifted one position to the
    right, is exactly the transpose's row pointer. Rows of the result
    come out sorted because the source scan is row-major. Values are
    copied untouched, so applying the kernel twice reproduces the input
    bit for bit.
    """
    n_rows, n_cols = m.n_rows, m.n_cols
    ia, ja, a = m.row_ptr, m.col_ind, m.values
    nnz = len(ja)

    counts = [0] * n_cols
    for c in ja:
        counts[c] += 1

    offsets = [0] * (n_cols + 1)
    acc = 0
    for c in range(n_cols):
        offsets[c] = acc
        acc += counts[c]
    offsets[n_cols] = acc

    jao = [0] * nnz
    ao = [0.0] * nnz
    for r in range(n_rows):
        for k in range(ia[r], ia[r + 1]):
            c = ja[k]
            pos = offsets[c]
            jao[pos] = r
            ao[pos] = a[k]
            offsets[c] = pos + 1

    for c in range(n_cols, 0, -1):
        offsets[c] = offsets[c - 1]
    offsets[0] = 0
    return CsrMatrix(n_cols, n_rows, offsets, jao, ao)


def bandwidth(m: CsrMatrix) -> int:
    """max |row - col| over stored entries; 0 for diagonal-only input."""
    if not m.is_square:
        raise DimensionError("bandwidth requires a square matrix")
    best = 0
    for i in range(m.n_rows):
        for k in range(m.row_ptr[i], m.row_ptr[i + 1]):
            d = i - m.col_ind[k]
            if d < 0:
                d = -d
            if d > best:
                best = d
    return best


def _pattern_is_symmetric(m: CsrMatrix) -> bool:
    pairs = set()
    for i in range(m.n_rows):
        for k in range(m.row_ptr[i], m.row_ptr[i + 1]):
            pairs.add((i, m.col_ind[k]))
    for i, j in pairs:
        if i != j and (j, i) not in pairs:
            return False
    return True


def cmck(m: CsrMatrix) -> Permutation:
    """Cuthill-McKee ordering of a structurally symmetric matrix.

    Seeds each connected component with its unlabeled node of minimum
    degree (ties broken toward the lowest index), then expands breadth
    first in label order, appending each node's unlabeled neighbors
    sorted by ascending degree, ties again toward the lowest index.
    Returns the relabeling with forward[old] = new. Plain Cuthill-McKee,
    not the reversed variant.
    """
    if not m.is_square:
        raise DimensionError("cmck requires a square matrix")
    if not _pattern_is_symmetric(m):
        raise SymmetryError("cmck requires a structurally symmetric pattern")
    return _cmck_order(m)


def _cmck_order(m: CsrMatrix) -> Permutation:
    """``cmck``'s loop nest, for a symmetric pattern. Degrees are row
    lengths minus one for the diagonal, clamped at zero. ``order`` is the
    new-to-old map under construction and doubles as the BFS queue: its
    window runs from ``head`` to ``len(order)``."""
    n = m.n_rows
    ia, ja = m.row_ptr, m.col_ind
    deg = [max(0, ia[i + 1] - ia[i] - 1) for i in range(n)]
    labeled = [False] * n
    order = []
    head = 0

    while len(order) < n:
        seed = -1
        for v in range(n):
            if not labeled[v] and (seed < 0 or deg[v] < deg[seed]):
                seed = v
        labeled[seed] = True
        order.append(seed)
        while head < len(order):
            v = order[head]
            head += 1
            nbrs = []
            for k in range(ia[v], ia[v + 1]):
                u = ja[k]
                if u != v and not labeled[u]:
                    nbrs.append(u)
            nbrs.sort(key=lambda u: (deg[u], u))
            for u in nbrs:
                labeled[u] = True
                order.append(u)

    forward = [0] * n
    for new, old in enumerate(order):
        forward[old] = new
    return Permutation(forward)


def _mperm_fill(m: CsrMatrix, p: Permutation) -> tuple:
    """The permutation fill loop; result rows are not yet sorted.

    New row ii receives old row inverse[ii]: its length is found through
    the indirection, offsets are prefix-summed, and the fill copies
    values while relabeling columns through the forward map, all
    addressed by the offset difference k0.
    """
    n = m.n_rows
    ia, ja, a = m.row_ptr, m.col_ind, m.values
    fwd, inv = p.forward, p.inverse
    nnz = len(ja)

    iao = [0] * (n + 1)
    for ii in range(n):
        old = inv[ii]
        iao[ii + 1] = iao[ii] + (ia[old + 1] - ia[old])

    jao = [0] * nnz
    ao = [0.0] * nnz
    for ii in range(n):
        k0 = ia[inv[ii]] - iao[ii]
        for k in range(iao[ii], iao[ii + 1]):
            jao[k] = fwd[ja[k0 + k]]
            ao[k] = a[k0 + k]
    return iao, jao, ao


def _sort_rows(iao: list, jao: list, ao: list) -> None:
    """Sort each row of a fill result by column, in place."""
    for ii in range(len(iao) - 1):
        lo, hi = iao[ii], iao[ii + 1]
        if hi - lo > 1:
            seg = sorted(zip(jao[lo:hi], ao[lo:hi]))
            for k, (c, v) in enumerate(seg, start=lo):
                jao[k] = c
                ao[k] = v


def mperm(m: CsrMatrix, p: Permutation, b: DenseVector) -> tuple:
    """Symmetric permutation of a matrix and its right hand side.

    Returns (B, b') with B[p(i)][p(j)] = A[i][j] and b'[p(i)] = b[i],
    computed by the array fill loop; rows are sorted by column
    afterwards (the raw fill emits them in the source row's order).
    """
    if not m.is_square:
        raise DimensionError("mperm requires a square matrix")
    n = m.n_rows
    if p.n != n:
        raise PermutationError(f"permutation of size {p.n} on {n}x{n} matrix")
    if len(b) != n:
        raise DimensionError("rhs length does not match matrix")

    iao, jao, ao = _mperm_fill(m, p)
    _sort_rows(iao, jao, ao)

    b_out = [0.0] * n
    fwd = p.forward
    for i in range(n):
        b_out[fwd[i]] = b[i]
    return CsrMatrix(n, n, iao, jao, ao), b_out
