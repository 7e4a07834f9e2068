"""Finite piecewise-Euclidean Delta-complexes.

Cells are Euclidean simplices given by symmetric edge-length matrices, with
explicit face identifications (multi-edges and self-gluings allowed, so the
one-square flat torus and theta-type complexes fit in minimal form).  Square
cells (dim 2, four vertex slots) are accepted in input files and split into
two triangles along the v0-v2 diagonal at load time.

Everything here is combinatorial/validated geometry; metric queries live in
`geodesics`, `links` and the modules on top of them.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULTS, Settings


class InputError(Exception):
    """Malformed input file or schema violation."""


class ComplexError(Exception):
    """Validated-complex invariant violation."""


# ---------------------------------------------------------------------------
# simplex shape helpers


def cayley_menger_volume2(lengths: np.ndarray) -> float:
    """Squared k-volume of a simplex from its (k+1)x(k+1) edge-length matrix."""
    n = lengths.shape[0]
    k = n - 1
    if k == 0:
        return 1.0
    cm = np.ones((n + 1, n + 1))
    cm[0, 0] = 0.0
    cm[1:, 1:] = lengths**2
    det = np.linalg.det(cm)
    coeff = ((-1.0) ** (k + 1)) / (2.0**k * math.factorial(k) ** 2)
    return coeff * det


def simplex_coords(lengths: np.ndarray) -> np.ndarray:
    """Euclidean realization of the simplex: (k+1, k) vertex coordinates.

    Vertex 0 sits at the origin; realization is unique up to isometry.
    """
    n = lengths.shape[0]
    k = n - 1
    coords = np.zeros((n, k))
    if k == 0:
        return coords
    # Gram matrix of edge vectors from vertex 0
    g = np.empty((k, k))
    for i in range(1, n):
        for j in range(1, n):
            g[i - 1, j - 1] = 0.5 * (
                lengths[0, i] ** 2 + lengths[0, j] ** 2 - lengths[i, j] ** 2
            )
    # Cholesky with pivoting fallback via eigendecomposition (near-degenerate)
    try:
        chol = np.linalg.cholesky(g)
        coords[1:] = chol
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(g)
        w = np.clip(w, 0.0, None)
        coords[1:] = v @ np.diag(np.sqrt(w))
    return coords


@dataclass(frozen=True)
class Cell:
    """One top-dimensional simplex of the complex."""

    cid: int
    dim: int
    lengths: np.ndarray          # (dim+1, dim+1) symmetric edge lengths
    coords: np.ndarray = field(repr=False, default=None)  # (dim+1, dim) shape
    volume: float = 0.0

    @property
    def nverts(self) -> int:
        return self.dim + 1

    def face_tuples(self):
        """All proper faces as sorted vertex-slot tuples, by (dim, lex) order."""
        return _simplex_faces(self.nverts)


def _simplex_faces(n: int):
    """Proper faces of an (n-1)-simplex as sorted slot tuples, by (dim, lex)
    order."""
    out = []
    for r in range(1, n):
        out.extend(itertools.combinations(range(n), r))
    return out


# square cells: cyclic slot order v0-v1-v2-v3; faces exclude the diagonals
_SQUARE_FACES = [(0,), (1,), (2,), (3,), (0, 1), (1, 2), (2, 3), (0, 3)]


# ---------------------------------------------------------------------------
# face identification forest (union-find with vertex correspondences)


class _FaceForest:
    """Union-find over face slots (cid, vertex-tuple), tracking how each
    slot's vertices line up with the root slot's vertices."""

    def __init__(self):
        # slot -> (parent_slot, corr) where corr[i] = parent vertex matching
        # slot's tuple position i
        self._parent: dict = {}

    def add(self, slot):
        if slot not in self._parent:
            self._parent[slot] = (slot, tuple(slot[1]))

    def find(self, slot):
        """Return (root_slot, corr) with corr aligning slot's tuple to root's."""
        self.add(slot)
        parent, corr = self._parent[slot]
        if parent == slot:
            return slot, corr
        root, pcorr = self.find(parent)
        # compose: slot pos i -> parent vertex corr[i] -> root vertex
        pmap = dict(zip(parent[1], pcorr))
        comp = tuple(pmap[v] for v in corr)
        self._parent[slot] = (root, comp)
        return root, comp

    def union(self, a, b, corr_ab) -> bool:
        """Identify slots a, b; corr_ab[i] = b-vertex matching a's tuple pos i.

        Returns False when the identification is already present but with a
        conflicting correspondence (a fold: face glued to itself nontrivially).
        """
        ra, ca = self.find(a)
        rb, cb = self.find(b)
        bmap = dict(zip(b[1], cb))
        a_to_rb = tuple(bmap[v] for v in corr_ab)
        if ra == rb:
            return a_to_rb == ca
        # attach rb under ra: need rb-vertex -> ra-vertex
        rb_to_ra = dict(zip(a_to_rb, ca))
        self._parent[rb] = (ra, tuple(rb_to_ra[v] for v in rb[1]))
        return True

    def classes(self) -> dict:
        out: dict = {}
        for slot in list(self._parent):
            root, _ = self.find(slot)
            out.setdefault(root, []).append(slot)
        return out


# ---------------------------------------------------------------------------
# the complex


@dataclass(frozen=True)
class Gluing:
    a: tuple      # (cid, face_tuple)
    b: tuple
    corr: tuple   # corr[i] = vertex of b matching a.face_tuple[i]


class MetricComplex:
    """Validated piecewise-Euclidean Delta-complex: every cell is a flat
    (Euclidean) simplex.

    The complex carries the one `Settings` that every computation on it
    reads.  The cells, gluings and faces do not change after construction;
    the geodesic engine (`geodesics.engine`), built on first use, owns every
    per-complex cache (source trees, the singular vertices and the vertex
    table, links) and queries mutate them, so concurrent use is not safe.
    Links are kept one per open face, so the complex itself bounds their
    number.
    """

    def __init__(self, cells: list[Cell], gluings: list[Gluing],
                 settings: Settings = DEFAULTS):
        self.cells = cells
        self.gluings = gluings
        self.settings = settings
        self._geodesic_engine = None
        self._validate_cells()
        self._build_faces()
        self._validate_gluings()

    # -- construction -------------------------------------------------------

    def _validate_cells(self):
        for c in self.cells:
            L = c.lengths
            if L.shape != (c.nverts, c.nverts):
                raise ComplexError(f"cell {c.cid}: bad length-matrix shape")
            if not np.allclose(L, L.T, rtol=self.settings.rel_tol, atol=1e-12):
                raise ComplexError(f"cell {c.cid}: length matrix not symmetric")
            if np.any(np.diag(L) != 0.0):
                raise ComplexError(f"cell {c.cid}: nonzero diagonal")
            if c.dim > 0 and np.any(L + np.eye(c.nverts) <= 0):
                raise ComplexError(f"cell {c.cid}: nonpositive edge length")
            v2 = cayley_menger_volume2(L)
            scale = float(np.max(L)) if c.dim > 0 else 1.0
            if c.dim > 0 and v2 <= (self.settings.rel_tol * scale**c.dim) ** 2:
                raise ComplexError(
                    f"cell {c.cid}: degenerate (Cayley-Menger nonpositive)")

    def _build_faces(self):
        forest = _FaceForest()
        for c in self.cells:
            for tup in c.face_tuples():
                forest.add((c.cid, tup))
        for g in self.gluings:
            if g.a == g.b:
                raise ComplexError(f"gluing {g}: face glued to itself")
            ta, tb = g.a[1], g.b[1]
            if len(ta) != len(tb) or len(g.corr) != len(ta):
                raise ComplexError(f"gluing {g}: arity mismatch")
            # the declared faces plus all induced subfaces
            for idxs in _subsets(len(ta)):
                sa = tuple(sorted(ta[i] for i in idxs))
                pos = sorted(idxs, key=lambda i: ta[i])
                corr = tuple(g.corr[i] for i in pos)
                sb = tuple(sorted(corr))
                if not forest.union((g.a[0], sa), (g.b[0], sb), corr):
                    raise ComplexError(
                        f"gluing {g}: induces a nontrivial self-identification")
        self._forest = forest
        self._classes = forest.classes()   # root slot -> member slots
        # map slot -> root for quick lookup
        self._root_of = {}
        for root, members in self._classes.items():
            for m in members:
                self._root_of[m] = root

    def _validate_gluings(self):
        tol = self.settings.rel_tol
        for g in self.gluings:
            ca = self.cells[g.a[0]]
            cb = self.cells[g.b[0]]
            ta = g.a[1]
            for i in range(len(ta)):
                for j in range(len(ta)):
                    la = ca.lengths[ta[i], ta[j]]
                    lb = cb.lengths[g.corr[i], g.corr[j]]
                    if abs(la - lb) > tol * max(1.0, abs(la)):
                        raise ComplexError(
                            f"gluing {g}: edge lengths differ ({la} vs {lb})")

    # -- combinatorial queries ----------------------------------------------

    @property
    def dim(self) -> int:
        return max(c.dim for c in self.cells)

    def face_root(self, cid: int, tup: tuple) -> tuple:
        """Canonical representative slot of the face class of (cid, tup)."""
        return self._root_of[(cid, tuple(tup))]

    def face_corr(self, cid: int, tup: tuple) -> tuple:
        """Vertex correspondence from (cid, tup) onto its root slot."""
        _, corr = self._forest.find((cid, tuple(tup)))
        return corr

    def face_class_members(self, root: tuple) -> list[tuple]:
        return self._classes[root]

    def face_classes(self, dim: int | None = None):
        """All face-class roots, optionally restricted to faces of one dim."""
        roots = self._classes.keys()
        if dim is None:
            return list(roots)
        return [r for r in roots if len(r[1]) == dim + 1]

    def face_lengths(self, root: tuple) -> np.ndarray:
        cid, tup = root
        return self.cells[cid].lengths[np.ix_(tup, tup)]

    def face_volume(self, root: tuple) -> float:
        v2 = cayley_menger_volume2(self.face_lengths(root))
        return math.sqrt(max(v2, 0.0))

    def incident_cells(self, root: tuple) -> set[int]:
        return {cid for cid, _ in self._classes[root]}

    def codim1_slots(self, cid: int):
        c = self.cells[cid]
        n = c.nverts
        return [tuple(t for t in range(n) if t != drop) for drop in range(n)]

    # -- headline checks -----------------------------------------------------

    def check_geodesic_completeness(self):
        """Pass iff every codim-1 face of every cell sits in >= 2 face slots
        (slots of any dimension count: a vertex wedged onto a square's corner
        keeps a segment extendable there).  Returns (ok, offending)."""
        offending = []
        for c in self.cells:
            if c.dim == 0:
                offending.append((c.cid, ()))   # isolated point: nothing extends
                continue
            for tup in self.codim1_slots(c.cid):
                root = self.face_root(c.cid, tup)
                if len(self._classes[root]) < 2:
                    offending.append((c.cid, tup))
        return (len(offending) == 0), offending

    def check_curvature_bound(self) -> dict:
        """Verification of curvature <= 0, that is, of the local CAT(0)
        condition.  The complex itself is CAT(0) only when it is simply
        connected; in general that holds for its universal cover
        (Cartan-Hadamard), so on a torus a local geodesic need not be a
        shortest path.  The check is exact (complexes have dimension <= 2):
        every vertex link is a metric graph of girth >= 2*pi (edge links of
        interior edges are forced to cycles of length exactly 2*pi by
        construction, so the angle sums hold automatically)."""
        from . import links as lk
        report = {"pass": True, "violations": [], "exact": True,
                  "warning": None}
        seen = set()
        for root in self.face_classes(dim=0):
            vp = vertex_point(self, root)
            if vp.key() in seen:
                continue
            seen.add(vp.key())
            g = lk.link_at(self, vp).girth()
            if g < 2 * math.pi - 1e-9:
                report["pass"] = False
                report["violations"].append(
                    {"vertex": list(root[1]) and [root[0], root[1][0]],
                     "girth": g})
        return report

    def simplex_volume(self, cid: int) -> float:
        v2 = cayley_menger_volume2(self.cells[cid].lengths)
        if v2 <= 0:
            raise ComplexError(f"cell {cid}: degenerate")
        return math.sqrt(v2)

    def total_volumes(self) -> dict[int, float]:
        """Total k-volume of the k-cells, per k."""
        out: dict[int, float] = {}
        for c in self.cells:
            out[c.dim] = out.get(c.dim, 0.0) + (
                1.0 if c.dim == 0 else self.simplex_volume(c.cid))
        return out

    def corner_angle(self, cid: int, at: int, toward1: int, toward2: int) -> float:
        """Interior angle of cell `cid` at vertex `at` between edges to the
        other two vertex slots."""
        co = self.cells[cid].coords
        u = co[toward1] - co[at]
        v = co[toward2] - co[at]
        cosang = float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))
        return math.acos(min(1.0, max(-1.0, cosang)))

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        simplices = [
            {"dim": c.dim, "lengths": [[_f17(x) for x in row] for row in c.lengths]}
            for c in self.cells
        ]
        gluings = [
            {"a": [g.a[0], _face_index(self.cells[g.a[0]], g.a[1])],
             "b": [g.b[0], _face_index(self.cells[g.b[0]], g.b[1])],
             "perm": [g.b[1].index(v) for v in g.corr]}
            for g in self.gluings
        ]
        return {"kappa": 0.0, "simplices": simplices,
                "gluings": gluings}

    def save(self, path: str):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True, indent=1)
            fh.write("\n")


def _subsets(n: int):
    for r in range(1, n + 1):
        yield from itertools.combinations(range(n), r)


def _f17(x: float) -> float:
    return float(f"{float(x):.17g}")


def _face_index(cell: Cell, tup: tuple) -> int:
    return cell.face_tuples().index(tuple(tup))


# ---------------------------------------------------------------------------
# loading


def _build_cell(cid: int, dim: int, lengths: np.ndarray) -> Cell:
    coords = simplex_coords(lengths)
    v2 = cayley_menger_volume2(lengths)
    return Cell(cid=cid, dim=dim, lengths=lengths, coords=coords,
                volume=math.sqrt(max(v2, 0.0)))


def build_complex(specs: list[tuple[int, np.ndarray]],
                  gluings: list[tuple[tuple, tuple, tuple]],
                  kappa: float = 0.0,
                  settings: Settings = DEFAULTS) -> MetricComplex:
    """Assemble a complex from (dim, lengths) specs and face gluings.

    Square specs (dim 2 with four slots) are split into two triangles along
    the v0-v2 diagonal; gluings written against square faces are remapped.
    A cell of dimension >= 3 or a curvature `kappa` other than 0 raises
    InputError: cells are flat simplices, exact for dimension <= 2 only.
    """
    if kappa != 0.0:
        raise InputError(f"kappa = {kappa} not supported: cells are flat")
    cells: list[Cell] = []
    # input cell -> input face tuple -> (internal cell, internal tuple,
    #                                    {input vertex -> internal slot})
    slot_map: dict[int, dict] = {}
    diagonals: list[int] = []        # internal base ids of split squares
    for in_cid, (dim, lengths) in enumerate(specs):
        if dim > 2:
            raise InputError("dimension >= 3 not supported")
        lengths = np.asarray(lengths, dtype=float)
        nv = lengths.shape[0]
        if dim == 2 and nv == 4:
            base = len(cells)
            # triangles (v0,v1,v2) and (v0,v2,v3)
            t0 = lengths[np.ix_([0, 1, 2], [0, 1, 2])]
            t1 = lengths[np.ix_([0, 2, 3], [0, 2, 3])]
            cells.append(_build_cell(base, 2, t0))
            cells.append(_build_cell(base + 1, 2, t1))
            slot_map[in_cid] = {
                (0,): (base, (0,), {0: 0}),
                (1,): (base, (1,), {1: 1}),
                (2,): (base, (2,), {2: 2}),
                (3,): (base + 1, (2,), {3: 2}),
                (0, 1): (base, (0, 1), {0: 0, 1: 1}),
                (1, 2): (base, (1, 2), {1: 1, 2: 2}),
                (2, 3): (base + 1, (1, 2), {2: 1, 3: 2}),
                (0, 3): (base + 1, (0, 2), {0: 0, 3: 2}),
            }
            diagonals.append(base)
        else:
            if nv != dim + 1:
                raise InputError(
                    f"cell {in_cid}: dim {dim} with {nv} vertex slots "
                    "(only simplices and dim-2 squares supported)")
            cid = len(cells)
            cells.append(_build_cell(cid, dim, lengths))
            slot_map[in_cid] = {
                tup: (cid, tup, {v: v for v in tup})
                for tup in _simplex_faces(nv)
            }

    out_gluings: list[Gluing] = []
    for (ca, tup_a), (cb, tup_b), corr in gluings:
        try:
            sa_cell, sa_tup, va = slot_map[ca][tuple(tup_a)]
            sb_cell, sb_tup, vb = slot_map[cb][tuple(tup_b)]
        except KeyError as exc:
            raise InputError(f"gluing references unknown face: {exc}") from exc
        # corr pairs input vertices tup_a[i] <-> corr[i]; re-express both
        # sides in internal slots, aligned with the internal a-tuple order
        inv_va = {slot: v_in for v_in, slot in va.items()}
        pair = dict(zip(tuple(tup_a), corr))
        new_corr = []
        for a_slot in sa_tup:
            b_in = pair[inv_va[a_slot]]
            if b_in not in vb:
                raise InputError(
                    f"gluing {((ca, tup_a), (cb, tup_b))}: "
                    "correspondence leaves the face")
            new_corr.append(vb[b_in])
        out_gluings.append(Gluing(a=(sa_cell, sa_tup), b=(sb_cell, sb_tup),
                                  corr=tuple(new_corr)))
    for base in diagonals:
        # the split diagonal (v0,v2): slots (0,2) of t0 and (0,1) of t1
        out_gluings.append(Gluing(a=(base, (0, 2)), b=(base + 1, (0, 1)),
                                  corr=(0, 1)))
    return MetricComplex(cells, out_gluings, settings)


def load_complex(path: str, settings: Settings = DEFAULTS) -> MetricComplex:
    """Load and validate a complex from its JSON file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot parse {path}: {exc}") from exc
    return complex_from_json_dict(data, settings)


def complex_from_json_dict(data: dict, settings: Settings = DEFAULTS) -> MetricComplex:
    for key in ("kappa", "simplices"):
        if key not in data:
            raise InputError(f"missing key {key!r}")
    kappa = float(data["kappa"])
    specs = []
    face_tables = []
    for i, s in enumerate(data["simplices"]):
        dim = int(s["dim"])
        lengths = np.asarray(s["lengths"], dtype=float)
        nv = lengths.shape[0]
        if dim == 2 and nv == 4:
            face_tables.append(_SQUARE_FACES)
        elif nv == dim + 1:
            face_tables.append(_simplex_faces(nv))
        else:
            raise InputError(f"simplex {i}: dim {dim} with {nv} slots")
        specs.append((dim, lengths))
    gluings = []
    for g in data.get("gluings", []):
        ca, fa = int(g["a"][0]), int(g["a"][1])
        cb, fb = int(g["b"][0]), int(g["b"][1])
        for c, f in ((ca, fa), (cb, fb)):
            if not (0 <= c < len(specs)) or not (0 <= f < len(face_tables[c])):
                raise InputError(f"gluing {g}: face index out of range")
        tup_a = face_tables[ca][fa]
        tup_b = face_tables[cb][fb]
        perm = tuple(int(p) for p in g["perm"])
        if sorted(perm) != list(range(len(tup_a))):
            raise InputError(f"gluing {g}: perm is not a permutation")
        corr = tuple(tup_b[p] for p in perm)
        gluings.append(((ca, tup_a), (cb, tup_b), corr))
    return build_complex(specs, gluings, kappa, settings)


# ---------------------------------------------------------------------------
# points


def _sum(vals: list) -> float:
    total = 0.0
    for v in vals:
        total += v
    return total


def _normalized(vals: list) -> list:
    total = _sum(vals)
    return [v / total for v in vals]


class ComplexPoint:
    """A location in the complex: carrier cell plus barycentric coordinates.

    Stored in canonical carrier form: the minimal face whose interior holds
    the point, re-expressed in that face class's root slot.
    """

    __slots__ = ("cid", "bary", "carrier", "_key", "_reps")

    def __init__(self, comp: MetricComplex, cid: int, bary):
        # a cell has at most 3 vertices: Python floats beat numpy calls on
        # arrays this small, and give the same floats (sums run left to
        # right, as numpy's do below 8 terms)
        b = np.asarray(bary, dtype=float)
        if b.shape != (comp.cells[cid].nverts,):
            raise ComplexError("barycentric coordinate arity mismatch")
        b = b.tolist()
        tol = comp.settings.bary_tol
        if any(v < -tol for v in b) or abs(_sum(b) - 1.0) > 1e-9:
            raise ComplexError("barycentric coordinates invalid")
        b = _normalized([max(v, 0.0) for v in b])
        support = tuple(i for i, v in enumerate(b) if v > tol)
        if len(support) < len(b):
            # move to the root slot of the carrier face class
            rcid, _ = comp.face_root(cid, support)
            corr = comp.face_corr(cid, support)
            rb = [0.0] * comp.cells[rcid].nverts
            for pos, v in enumerate(support):
                rb[corr[pos]] = b[v]
            cid, b = rcid, _normalized(rb)
            support = tuple(i for i, v in enumerate(b) if v > tol)
        clean = _normalized([v if v > tol else 0.0 for v in b])
        self.cid = cid
        self.bary = np.array(clean)
        self.carrier = support
        self._key = (cid, support,
                     tuple(int(round(clean[i] / 1e-10)) for i in support))
        self._reps = None

    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, ComplexPoint) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        coords = ", ".join(f"{x:.6g}" for x in self.bary)
        return f"ComplexPoint(cell={self.cid}, bary=[{coords}])"

    def xy(self, comp: MetricComplex) -> np.ndarray:
        """Shape coordinates of the point inside its carrier cell."""
        return self.bary @ comp.cells[self.cid].coords

    def representations(self, comp: MetricComplex):
        """All (cid, bary) expressions of this point, one per incident slot."""
        if self._reps is not None:
            return self._reps
        cell = comp.cells[self.cid]
        if len(self.carrier) == cell.nverts:
            self._reps = [(self.cid, self.bary)]
            return self._reps
        root = comp.face_root(self.cid, self.carrier)
        corr_self = comp.face_corr(self.cid, self.carrier)
        root_weights = {}
        for pos, v in enumerate(self.carrier):
            root_weights[corr_self[pos]] = self.bary[v]
        out = []
        for (mcid, mtup) in comp.face_class_members(root):
            mcorr = comp.face_corr(mcid, mtup)
            b = np.zeros(comp.cells[mcid].nverts)
            for pos, v in enumerate(mtup):
                b[v] = root_weights[mcorr[pos]]
            out.append((mcid, b))
        self._reps = out
        return out


def point(comp: MetricComplex, cid: int, bary) -> ComplexPoint:
    return ComplexPoint(comp, cid, bary)


def vertex_point(comp: MetricComplex, root: tuple) -> ComplexPoint:
    """The ComplexPoint at a 0-dimensional face class root."""
    cid, tup = root
    b = np.zeros(comp.cells[cid].nverts)
    b[tup[0]] = 1.0
    return ComplexPoint(comp, cid, b)


def star(comp: MetricComplex, x: ComplexPoint) -> set[int]:
    """Ids of all cells whose closure contains x."""
    cell = comp.cells[x.cid]
    if len(x.carrier) == cell.nverts:
        return {x.cid}
    root = comp.face_root(x.cid, x.carrier)
    return comp.incident_cells(root)


def dimension_of_star(comp: MetricComplex, x: ComplexPoint) -> int:
    return max(comp.cells[c].dim for c in star(comp, x))
