"""Independent brute-force oracles for the test suite.

Everything here is deliberately written from scratch against the raw
simplex data, so it shares no code path with the package: fraction/modular
Gaussian elimination, dense Smith diagonals, integer kernels and integer
lattice membership, boundary matrices built directly from face lists,
chain counting for subdivisions, the staircase product triangulation,
cochain pullbacks and chain pushforwards along vertex maps, a naive
cochain-level cup product, and a union-find cycle test for graph pieces.
"""

from fractions import Fraction
from itertools import combinations
from math import prod


# --- elimination -------------------------------------------------------------


def rank_fraction(rows):
    """Row-reduction rank over Q."""
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        inv = 1 / pr[col]
        rows[rank] = [x * inv for x in pr]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                c = rows[i][col]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def rank_mod(rows, p):
    """Row-reduction rank over Z_p."""
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col] % p:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                c = rows[i][col]
                rows[i] = [(a - c * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def solve_mod(rows, rhs, p):
    """One solution of rows * x = rhs over Z_p, or None."""
    aug = [[x % p for x in r] + [b % p] for r, b in zip(rows, rhs)]
    n = len(rows[0]) if rows else 0
    rank = 0
    pivots = []
    for col in range(n):
        pivot = None
        for i in range(rank, len(aug)):
            if aug[i][col] % p:
                pivot = i
                break
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        inv = pow(aug[rank][col], p - 2, p)
        aug[rank] = [(x * inv) % p for x in aug[rank]]
        for i in range(len(aug)):
            if i != rank and aug[i][col] % p:
                c = aug[i][col]
                aug[i] = [(a - c * b) % p for a, b in zip(aug[i], aug[rank])]
        pivots.append(col)
        rank += 1
    for i in range(rank, len(aug)):
        if aug[i][n] % p:
            return None
    x = [0] * n
    for r, col in enumerate(pivots):
        x[col] = aug[r][n]
    return x


# --- simplicial data built from scratch --------------------------------------


def closure_of(faces):
    """All nonempty subsets of the given faces, as sorted tuples."""
    out = set()
    for f in faces:
        f = tuple(sorted(f))
        n = len(f)
        for mask in range(1, 1 << n):
            out.add(tuple(f[i] for i in range(n) if mask >> i & 1))
    return out


def simplices_by_dim(simplices):
    by_dim = {}
    for s in simplices:
        by_dim.setdefault(len(s) - 1, []).append(tuple(sorted(s)))
    for d in by_dim:
        by_dim[d] = sorted(set(by_dim[d]))
    return by_dim


def boundary_rows(by_dim, d):
    """Dense integer boundary matrix C_d -> C_{d-1} from sorted-tuple bases."""
    lower = by_dim.get(d - 1, [])
    upper = by_dim.get(d, [])
    idx = {s: i for i, s in enumerate(lower)}
    rows = [[0] * len(upper) for _ in lower]
    for j, s in enumerate(upper):
        for i in range(len(s)):
            face = s[:i] + s[i + 1:]
            rows[idx[face]][j] = -1 if i % 2 else 1
    return rows


def betti_mod(faces, p):
    """Betti numbers over Z_p straight from the face list."""
    by_dim = simplices_by_dim(closure_of(faces))
    top = max(by_dim)
    out = []
    for d in range(top + 1):
        nd = len(by_dim.get(d, []))
        rk_d = rank_mod(boundary_rows(by_dim, d), p) if d >= 1 and nd else 0
        rk_up = (rank_mod(boundary_rows(by_dim, d + 1), p)
                 if by_dim.get(d + 1) else 0)
        out.append(nd - rk_d - rk_up)
    return tuple(out)


def smith_diagonal(rows):
    """The nonzero invariant factors of an integer matrix, each dividing
    the next: its Smith normal form by row and column operations."""
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if a else 0

    def move_to(t, i, j):
        a[t], a[i] = a[i], a[t]
        for r in a:
            r[t], r[j] = r[j], r[t]

    diagonal = []
    for t in range(min(m, n)):
        entries = [(abs(a[i][j]), i, j) for i in range(t, m) for j in range(t, n) if a[i][j]]
        if not entries:
            break
        move_to(t, *min(entries)[1:])
        while True:
            p = a[t][t]
            for i in range(t + 1, m):
                q = a[i][t] // p
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            for j in range(t + 1, n):
                q = a[t][j] // p
                for r in a:
                    r[j] -= q * r[t]
            left = ([(abs(a[i][t]), i, t) for i in range(t + 1, m) if a[i][t]]
                    + [(abs(a[t][j]), t, j) for j in range(t + 1, n) if a[t][j]])
            if left:  # remainders smaller than the pivot: the smallest leads
                move_to(t, *min(left)[1:])
                continue
            rest = [i for i in range(t + 1, m) for j in range(t + 1, n) if a[i][j] % p]
            if not rest:
                break
            a[t] = [x + y for x, y in zip(a[t], a[rest[0]])]  # its remainder leads next
        diagonal.append(abs(a[t][t]))
    return diagonal


def integer_kernel(rows, n):
    """A Z-basis of the integer vectors x of length n with rows * x = 0.

    Unimodular column operations, tracked on the identity: row by row,
    Euclid's steps (subtracting integer multiples of the column with the
    smallest entry) leave one nonzero entry among the columns not yet
    taken, and that column is taken as the row's pivot.  The pivot
    columns are independent, each zero at the rows of the pivots before
    it, and the columns never taken end zero, so their tracked columns
    are a basis of the kernel: the tracking matrix is invertible over Z.
    """
    cols = [[row[j] for row in rows] for j in range(n)]
    track = [[int(i == j) for i in range(n)] for j in range(n)]
    taken = 0
    for i in range(len(rows)):
        while True:
            live = [j for j in range(taken, n) if cols[j][i]]
            if len(live) < 2:
                break
            p = min(live, key=lambda j: abs(cols[j][i]))
            for j in live:
                if j != p:
                    q = cols[j][i] // cols[p][i]
                    cols[j] = [a - q * b for a, b in zip(cols[j], cols[p])]
                    track[j] = [a - q * b for a, b in zip(track[j], track[p])]
        if live:
            j = live[0]
            cols[taken], cols[j] = cols[j], cols[taken]
            track[taken], track[j] = track[j], track[taken]
            taken += 1
    return track[taken:]


def in_integer_span(columns, v):
    """Is the integer vector v in the lattice L the integer columns span?
    L + Zv contains L, so the two are equal exactly when appending v keeps
    both the rank and the product of the nonzero invariant factors (the
    gcd of the maximal minors, which a proper superlattice of the same
    rank divides by its index)."""
    rows = [[c[i] for c in columns] for i in range(len(v))]
    before = smith_diagonal(rows)
    after = smith_diagonal([r + [x] for r, x in zip(rows, v)])
    return len(after) == len(before) and prod(after) == prod(before)


def integral_homology(faces):
    """Per degree d, H_d over Z straight from the face list: its free rank
    and its torsion coefficients (the invariant factors above 1 of the
    boundary into degree d)."""
    by_dim = simplices_by_dim(closure_of(faces))
    top = max(by_dim)
    diagonals = [[]] + [smith_diagonal(boundary_rows(by_dim, d))
                        for d in range(1, top + 1)] + [[]]
    return [(len(by_dim[d]) - len(diagonals[d]) - len(diagonals[d + 1]),
             [x for x in diagonals[d + 1] if x > 1]) for d in range(top + 1)]


def count_chains(simplices):
    """Number of chains under strict inclusion, grouped by chain length.

    This is the f-vector of the barycentric subdivision, computed without
    touching the package's subdivision code.
    """
    simplices = sorted((tuple(sorted(s)) for s in simplices), key=len)
    ending = {}
    totals = {}
    for s in simplices:
        counts = {1: 1}
        n = len(s)
        for mask in range(1, (1 << n) - 1):
            t = tuple(s[i] for i in range(n) if mask >> i & 1)
            for length, c in ending[t].items():
                counts[length + 1] = counts.get(length + 1, 0) + c
        ending[s] = counts
        for length, c in counts.items():
            totals[length] = totals.get(length, 0) + c
    return tuple(totals.get(k + 1, 0) for k in range(max(totals)))


def staircase_product_faces(faces_a, faces_b):
    """Maximal simplices of the staircase triangulation of |A| x |B|.

    For every pair of faces, every lattice path of unit steps through their
    grid of (vertex of A, vertex of B) pairs, with vertices in sorted order.
    """
    out = []
    for sigma in faces_a:
        sigma = sorted(sigma)
        for tau in faces_b:
            tau = sorted(tau)
            a, b = len(sigma) - 1, len(tau) - 1
            for steps_in_a in combinations(range(a + b), a):
                i = j = 0
                chain = [(sigma[0], tau[0])]
                for k in range(a + b):
                    if k in steps_in_a:
                        i += 1
                    else:
                        j += 1
                    chain.append((sigma[i], tau[j]))
                out.append(tuple(chain))
    return out


# --- naive cup product over Z_p ----------------------------------------------


def cup_cochain(by_dim, alpha, beta, p_deg, q_deg, p):
    """(alpha cup beta)(sigma) = alpha(front face) * beta(back face), mod p."""
    basis = by_dim.get(p_deg + q_deg, [])
    lower_p = {s: i for i, s in enumerate(by_dim.get(p_deg, []))}
    lower_q = {s: i for i, s in enumerate(by_dim.get(q_deg, []))}
    out = []
    for s in basis:
        a = alpha[lower_p[s[:p_deg + 1]]]
        b = beta[lower_q[s[p_deg:]]]
        out.append((a * b) % p)
    return out


def cocycles_mod(by_dim, d, p):
    """A basis of ker(delta^d) over Z_p as dense vectors."""
    nd = len(by_dim.get(d, []))
    rows_delta = boundary_rows(by_dim, d + 1) if by_dim.get(d + 1) else []
    # delta^d is the transpose of boundary_{d+1}: its j-th column is row j
    delta_cols = [list(rows_delta[j]) for j in range(nd)] if rows_delta \
        else [[] for _ in range(nd)]
    vecs = []
    pivots = {}
    for j in range(nd):
        col = list(delta_cols[j])
        combo = [1 if k == j else 0 for k in range(nd)]
        while True:
            piv = None
            for i in range(len(col) - 1, -1, -1):
                if col[i] % p:
                    piv = i
                    break
            if piv is None:
                vecs.append(combo)
                break
            if piv in pivots:
                pc, pcombo = pivots[piv]
                c = (col[piv] * pow(pc[piv], p - 2, p)) % p
                col = [(a - c * b) % p for a, b in zip(col, pc)]
                combo = [(a - c * b) % p for a, b in zip(combo, pcombo)]
            else:
                pivots[piv] = (col, combo)
                break
    return vecs


def coboundary_mod(by_dim, d, vec, p):
    """delta^d of a degree-d cochain over Z_p, as a dense degree-(d+1) vector."""
    rows = boundary_rows(by_dim, d + 1) if by_dim.get(d + 1) else []
    return [sum(rows[i][j] * vec[i] for i in range(len(vec))) % p
            for j in range(len(by_dim.get(d + 1, [])))]


def pullback_mod(by_dim, d, vertex_map, cochain, p=None):
    """f^#(c)(sigma) = sign * c(f(sigma)) over Z_p (over Z when p is None),
    zero where f collapses sigma.

    ``cochain`` maps sorted vertex tuples of the target to values; the sign
    is that of the permutation sorting the image vertices.
    """
    out = []
    for s in by_dim.get(d, []):
        image = [vertex_map(v) for v in s]
        if len(set(image)) < len(image):
            out.append(0)
            continue
        inversions = sum(image[i] > image[j] for i in range(len(image))
                         for j in range(i + 1, len(image)))
        sign = -1 if inversions % 2 else 1
        value = sign * cochain.get(tuple(sorted(image)), 0)
        out.append(value if p is None else value % p)
    return out


def pushforward(by_dim, d, vertex_map, chain):
    """f_#(c) over Z of the dense degree-d chain c over ``by_dim[d]``, as
    a dict from sorted vertex tuples of the target to coefficients.

    Each simplex goes to its sorted image with the sign of the
    permutation sorting the image vertices, and to nothing where f
    collapses it.
    """
    out = {}
    for s, c in zip(by_dim.get(d, []), chain):
        image = [vertex_map(v) for v in s]
        if not c or len(set(image)) < len(image):
            continue
        inversions = sum(image[i] > image[j] for i in range(len(image))
                         for j in range(i + 1, len(image)))
        key = tuple(sorted(image))
        out[key] = out.get(key, 0) + (-c if inversions % 2 else c)
    return out


def is_coboundary_mod(by_dim, d, vec, p):
    """Is a degree-d cochain in the image of delta^{d-1} over Z_p?"""
    if d == 0:
        return all(x % p == 0 for x in vec)
    rows_b = boundary_rows(by_dim, d) if by_dim.get(d) else []
    if not rows_b or not rows_b[0]:
        return all(x % p == 0 for x in vec)
    delta_prev = [list(col) for col in zip(*rows_b)]  # shape: (n_d, n_{d-1})
    return solve_mod(delta_prev, vec, p) is not None


# --- graphs ------------------------------------------------------------------


def is_forest(edges):
    """Union-find acyclicity test on an edge list."""
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


def k5_two_cover_exists():
    """Exhaustive check: can two acyclic subgraphs cover all 10 edges of K5?

    A piece of a category cover of a graph works exactly when it is a
    forest, so this enumerates every ordered pair (a, b) of edge subsets
    with a | b covering all edges: b runs over the complement of a union
    any subset of a.
    """
    edges = [(i, j) for i in range(1, 6) for j in range(i + 1, 6)]
    n = len(edges)
    forest_mask = [is_forest([edges[i] for i in range(n) if mask >> i & 1])
                   for mask in range(1 << n)]
    full = (1 << n) - 1
    for a in range(1 << n):
        if not forest_mask[a]:
            continue
        rest = full & ~a
        s = a
        while True:
            if forest_mask[rest | s]:
                return True
            if s == 0:
                break
            s = (s - 1) & a
    return False
