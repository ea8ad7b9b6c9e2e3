"""Graded Frobenius algebras standing in for the cohomology ring of a surface.

An algebra is described by a finite graded basis (degrees 0..4), sparse
structure constants, a linear integral supported in the top degree, and a
canonical class.  From these we derive the Poincare pairing, the dual basis,
the Kunneth expansion of the diagonal pushforward, and the Euler class.

Everything is exact rational arithmetic, int first (see _rat): on the
shipped presets the product table, the integral, the pairing, the dual
basis, the Kunneth triples and the Euler class are all ints.  Sparse sums
go through _linalg.axpy.  Instances are immutable after loading; their
operator memo tables only memoize pure computations, and only one algebra
holds them at a time, under one weight cap (fock.memo).
"""

import functools
import json
import math
import re
from dataclasses import dataclass
from importlib import resources

from ._linalg import SparseVector, axpy, solve
from ._rat import common_den, exact, parse_rat, ratio, signed_sum, whole
from .errors import (
    AxiomViolation,
    DegreeError,
    ParseError,
    SingularPairing,
    UnknownBasisId,
)

PRESETS = ("p2", "p1xp1", "torus_like", "point")


@dataclass(frozen=True)
class BasisClass:
    """A basis element of the algebra: symbolic id plus cohomological degree."""

    id: str
    degree: int


class AlgebraElement(SparseVector):
    """A rational linear combination of basis classes.

    Stored sparsely as {basis index: coefficient} with no zero entries.
    Supports +, -, scalar *, and the algebra product via *.
    """

    __slots__ = ()
    algebra = SparseVector.space
    mismatch = "elements over different algebras"

    def degree(self):
        """Common degree of the support, or None when mixed or zero."""
        degs = {self.algebra.degrees[i] for i in self.coeffs}
        if len(degs) == 1:
            return degs.pop()
        return None

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return mul(self, other)
        return self.scale(other)

    def __repr__(self):
        return signed_sum((self.coeffs[i], self.algebra.basis[i].id)
                          for i in sorted(self.coeffs))


class SurfaceAlgebra:
    """The loaded algebra: basis, products, integral, pairing, and caches."""

    def __init__(self, name, basis, unit_index, product_table, integral_vec,
                 canonical_coeffs):
        self.name = name
        self.basis = basis
        self.degrees = [b.degree for b in basis]
        self.parities = [b.degree & 1 for b in basis]
        self.unit_index = unit_index
        self.index_of = {b.id: i for i, b in enumerate(basis)}
        # product[i][j] is a sparse {k: coeff} dict, both orders populated
        self.product = product_table
        self.integral_vec = integral_vec
        self.dim = len(basis)
        self.top_degree = max(self.degrees)
        self.canonical_class = AlgebraElement(self, canonical_coeffs)
        # pairing[i][j] = integral(e_i e_j)
        self.pairing = [
            [sum(c * integral_vec[k] for k, c in self.mul_basis(i, j).items())
             for j in range(self.dim)]
            for i in range(self.dim)
        ]
        # duals[j] satisfies integral(e_i * duals[j]) = delta_ij
        self._dual_coeffs = solve(
            self.pairing, [[int(i == j) for i in range(self.dim)]
                           for j in range(self.dim)])
        if self._dual_coeffs is None:
            raise SingularPairing(f"{name}: pairing matrix is singular")
        self._diagonal_cache = {}
        # halved_diagonal by class
        self._halved_cache = {}
        # {kind: {key: image}} memo tables of the operator workers; empty
        # unless this algebra owns the live tables (see fock.memo)
        self._op_caches = {}
        self.euler = self._compute_euler()

    # -- basic queries ----------------------------------------------------

    def unit(self):
        return AlgebraElement(self, {self.unit_index: 1})

    def zero(self):
        return AlgebraElement(self, {})

    def basis_element(self, key):
        """Basis element by index or id."""
        if isinstance(key, str):
            if key not in self.index_of:
                raise UnknownBasisId(f"{self.name}: no basis class {key!r}")
            key = self.index_of[key]
        return AlgebraElement(self, {key: 1})

    def basis_elements(self):
        return [self.basis_element(i) for i in range(self.dim)]

    def even_basis_elements(self):
        return [self.basis_element(i) for i in range(self.dim)
                if not self.parities[i]]

    def element(self, coeffs_by_id):
        out = {}
        for key, c in coeffs_by_id.items():
            if key not in self.index_of:
                raise UnknownBasisId(f"{self.name}: no basis class {key!r}")
            out[self.index_of[key]] = exact(c)
        return AlgebraElement(self, out)

    def mul_basis(self, i, j):
        """Sparse structure-constant row for e_i * e_j."""
        return self.product[i].get(j, {})

    # -- derived structure -------------------------------------------------

    def dual_basis(self):
        """Elements e^j with integral(e_i * e^j) = delta_ij exactly."""
        return [AlgebraElement(self, {k: c for k, c in enumerate(row) if c})
                for row in self._dual_coeffs]

    def _compute_euler(self):
        acc = {}
        duals = self.dual_basis()
        for i in range(self.dim):
            sign = -1 if self.parities[i] else 1
            for j, cj in duals[i].coeffs.items():
                axpy(acc, self.mul_basis(i, j), sign * cj)
        return AlgebraElement(self, acc)

    def kunneth_triples(self, i):
        """Diagonal pushforward of basis class i as ((u, v, coeff), ...), sorted
        by (u, v): tau(a) = sum_v (a e^v) (x) e_v over the dual basis e^v.

        It satisfies int((tau a)(b (x) c)) = int(a b c) for the Koszul product
        (x (x) y)(b (x) c) = (-1)^{deg y deg b} xb (x) yc: e^v has the parity
        of e_v, and sum_v e^v int(e_v c) = c.
        """
        if i not in self._diagonal_cache:
            triples = []
            for v, dual in enumerate(self._dual_coeffs):
                acc = {}
                for j, c in enumerate(dual):
                    axpy(acc, self.mul_basis(i, j), c)
                triples += ((u, v, ratio(t)) for u, t in acc.items())
            self._diagonal_cache[i] = tuple(sorted(triples))
        return self._diagonal_cache[i]

    @functools.cached_property
    def pairing_den(self):
        """The common denominator of the pairing entries int(e_i e_j)."""
        return common_den(sum(self.pairing, []))

    @functools.cached_property
    def table_scale(self):
        """The int D of the operator memo tables, 2 on every preset: D L_n(e_c),
        D d and D^k q_1^(k)(e_c) are whole on basis monomials.  An L term
        carries 1/2 and either a Kunneth coefficient (dual-basis coefficients
        times structure constants) or a structure constant and at most one
        pairing entry; d adds K e_c."""
        product = common_den(x for row in self.product for cell in row.values()
                             for x in cell.values())
        dual = common_den(sum(self._dual_coeffs, []))
        canonical = common_den(self.canonical_class.coeffs.values()) * product
        return math.lcm(2 * dual * product * self.pairing_den ** 2, canonical)

    def halved_diagonal(self, i):
        """What L_n(e_i) reads of the diagonal tau(e_i), times D/2 (D =
        table_scale), made whole once on first use:
          the Kunneth triples (u, v, t), read where two creations act;
          per class c, the product e_i e_c (mul_basis) as pairs (u, w_u):
            by the projection formula, tau(e_i) contracted on its right
            factor against e_c, read where an annihilation acts first;
          per class c, the weights over p of that row paired with e_p,
            int(e_i e_c e_p) through the pairing, read where two act."""
        if i not in self._halved_cache:
            scale, pairing = self.table_scale, self.pairing
            half = scale >> 1 if not scale & 1 else ratio(scale, 2)
            rows = [tuple([(u, whole(w * half)) for u, w in sorted(self.mul_basis(i, c).items())])
                    for c in range(self.dim)]
            self._halved_cache[i] = (
                tuple([(u, v, whole(t * half)) for u, v, t in self.kunneth_triples(i)]),
                rows,
                [[whole(sum(w * pairing[u][p] for u, w in row)) for p in range(self.dim)]
                 if row else [0] * self.dim for row in rows])
        return self._halved_cache[i]


# -- module-level operations (the public spellings) -------------------------


def mul(a, b):
    """Product in the algebra, extended bilinearly from structure constants."""
    a._check(b)
    alg = a.algebra
    acc = {}
    for i, ca in a.coeffs.items():
        row = alg.product[i]
        for j, cb in b.coeffs.items():
            cell = row.get(j)
            if cell:
                axpy(acc, cell, ca * cb)
    return AlgebraElement(alg, acc)


def integral(a):
    """The integral functional; nonzero only through top-degree components."""
    return sum(c * a.algebra.integral_vec[i] for i, c in a.coeffs.items())


def dual_basis(algebra):
    return algebra.dual_basis()


def euler_class(algebra):
    """Alternating sum of e_i * e^i; integrates to the Euler characteristic."""
    return algebra.euler


def diagonal_pushforward(a):
    """Kunneth pairs (x_j, y_j) with tau(a) = sum_j x_j (x) y_j."""
    alg = a.algebra
    pairs = []
    for i, c in a.coeffs.items():
        for u, v, t in alg.kunneth_triples(i):
            pairs.append((alg.basis_element(u).scale(c * t),
                          alg.basis_element(v)))
    return pairs


# -- parsing and validation --------------------------------------------------


def _parse_combination(algebra_ids, entries, what):
    out = {}
    if entries is None:
        return out
    if not isinstance(entries, list):
        raise ParseError(f"{what}: expected an array of {{basis, coeff}}")
    for item in entries:
        if not isinstance(item, dict) or "basis" not in item or "coeff" not in item:
            raise ParseError(f"{what}: entries need 'basis' and 'coeff'")
        bid = item["basis"]
        if bid not in algebra_ids:
            raise ParseError(f"{what}: unknown basis id {bid!r}")
        idx = algebra_ids[bid]
        out[idx] = out.get(idx, 0) + parse_rat(item["coeff"])
    return {i: c for i, c in out.items() if c}


def load_algebra(source):
    """Load and validate an algebra description.

    `source` may be a path to a JSON document or an already-decoded dict.
    Raises ParseError / DegreeError / AxiomViolation / SingularPairing.
    """
    if isinstance(source, dict):
        doc = source
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ParseError(f"cannot read {source}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ParseError(f"{source}: invalid JSON: {exc}") from exc
    return _build(doc)


def _build(doc):
    for field in ("name", "basis", "unit", "integral"):
        if field not in doc:
            raise ParseError(f"missing field {field!r}")
    name = doc["name"]

    basis = []
    ids = {}
    for entry in doc["basis"]:
        if not isinstance(entry, dict) or "id" not in entry or "degree" not in entry:
            raise ParseError("basis entries need 'id' and 'degree'")
        bid, deg = str(entry["id"]), entry["degree"]
        if not isinstance(deg, int) or not 0 <= deg <= 4:
            raise DegreeError(f"basis class {bid!r}: degree {deg} outside 0..4")
        if bid in ids:
            raise ParseError(f"duplicate basis id {bid!r}")
        ids[bid] = len(basis)
        basis.append(BasisClass(bid, deg))
    if not basis:
        raise ParseError("empty basis")

    degree0 = [i for i, b in enumerate(basis) if b.degree == 0]
    if len(degree0) != 1:
        raise AxiomViolation(f"{name}: need exactly one degree-0 class")
    unit_index = degree0[0]
    if doc["unit"] not in ids or ids[doc["unit"]] != unit_index:
        raise AxiomViolation(f"{name}: unit must be the degree-0 class")

    degrees = [b.degree for b in basis]
    dim = len(basis)

    # product table: listed pairs must have left index <= right index; the
    # mirror entries come from supercommutativity and the unit row is implied.
    listed = {}
    for entry in doc.get("products", []):
        for field in ("left", "right", "result"):
            if field not in entry:
                raise ParseError("product entries need left/right/result")
        left, right = entry["left"], entry["right"]
        if left not in ids or right not in ids:
            raise ParseError(f"product references unknown id {left!r} or {right!r}")
        i, j = ids[left], ids[right]
        if i > j:
            raise ParseError(
                f"{name}: product ({left},{right}) listed with left index > right")
        if (i, j) in listed:
            raise ParseError(f"{name}: duplicate product entry ({left},{right})")
        listed[(i, j)] = _parse_combination(ids, entry["result"], "product result")

    table = [dict() for _ in range(dim)]
    unit_row = {}
    for i in range(dim):
        cell = {i: 1}
        unit_row[i] = cell
        table[i][unit_index] = cell
    table[unit_index] = unit_row
    for (i, j), cell in listed.items():
        if i == unit_index or j == unit_index:
            expect = {j if i == unit_index else i: 1}
            if cell != expect:
                raise AxiomViolation(f"{name}: unit law fails on listed product")
            continue
        table[i][j] = cell
        if i != j:
            sign = -1 if (degrees[i] & 1) and (degrees[j] & 1) else 1
            table[j][i] = {k: sign * c for k, c in cell.items()}

    # graded product degrees
    for i in range(dim):
        for j, cell in table[i].items():
            for k in cell:
                if degrees[k] != degrees[i] + degrees[j]:
                    raise AxiomViolation(
                        f"{name}: product {basis[i].id}*{basis[j].id} lands in "
                        f"degree {degrees[k]}, expected {degrees[i] + degrees[j]}")

    # odd squares must vanish
    for i in range(dim):
        if degrees[i] & 1 and table[i].get(i):
            raise AxiomViolation(f"{name}: odd class {basis[i].id} has nonzero square")

    # associativity over all basis triples
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                left, right = {}, {}
                for l, c in table[i].get(j, {}).items():
                    axpy(left, table[l].get(k, {}), c)
                for l, c in table[j].get(k, {}).items():
                    axpy(right, table[i].get(l, {}), c)
                if left != right:
                    raise AxiomViolation(
                        f"{name}: associativity fails on "
                        f"({basis[i].id},{basis[j].id},{basis[k].id})")

    integral_vec = [0] * dim
    for idx, c in _parse_combination(ids, doc["integral"], "integral").items():
        integral_vec[idx] = c
    top = max(degrees)
    if dim > 1 and top != 4:
        raise AxiomViolation(f"{name}: a multi-class algebra needs a degree-4 part")
    for i in range(dim):
        if integral_vec[i] and degrees[i] != top:
            raise AxiomViolation(
                f"{name}: integral supported in degree {degrees[i]}, "
                f"must live in top degree {top}")

    canonical = _parse_combination(ids, doc.get("canonical_class"), "canonical_class")
    for idx in canonical:
        if degrees[idx] != 2:
            raise AxiomViolation(f"{name}: canonical class must be degree 2")

    return SurfaceAlgebra(name, basis, unit_index, table, integral_vec, canonical)


def preset_path(name):
    if name not in PRESETS:
        raise ParseError(f"unknown preset {name!r}; choose from {PRESETS}")
    return resources.files(__package__) / "presets" / f"{name}.json"


def load_preset(name):
    """Load one of the shipped algebras: p2, p1xp1, torus_like, point.

    Instances are cached, one per name, so repeated loads share derived data
    and caches; an unknown name raises ParseError and is not cached.
    """
    return _cached_preset(name)


@functools.cache
def _cached_preset(name):
    # called by position only, so a keyword call never keys a second instance
    return load_algebra(json.loads(preset_path(name).read_text()))


def parse_element(algebra, text):
    """Parse "h", "1/2*h + 3*h2", "-x1x2" into an AlgebraElement.

    Whitespace may stand only around +, - and *; inside a coefficient or a
    basis id ("x1 x2", "1 2*x1") it raises ParseError."""
    if re.search(r"[^\s+*-]\s+[^\s+*-]", text):
        raise ParseError(f"whitespace inside a term of {text!r}")
    out = algebra.zero()
    stripped = "".join(text.split())
    if not stripped:
        raise ParseError("empty element expression")
    # split into signed terms
    terms = []
    cur, sign = "", 1
    for ch in stripped:
        if ch in "+-" and cur:
            terms.append((sign, cur))
            cur, sign = "", (1 if ch == "+" else -1)
        elif ch in "+-" and not cur:
            sign *= 1 if ch == "+" else -1
        else:
            cur += ch
    if not cur:
        raise ParseError(f"dangling sign in {text!r}")
    terms.append((sign, cur))
    for sign, term in terms:
        if "*" in term:
            coeff_text, _, bid = term.partition("*")
            coeff = parse_rat(coeff_text)
        elif term in algebra.index_of:
            coeff, bid = 1, term
        else:
            # bare rational multiplies the unit
            try:
                coeff, bid = parse_rat(term), algebra.basis[algebra.unit_index].id
            except ParseError:
                raise UnknownBasisId(
                    f"{algebra.name}: no basis class {term!r}") from None
        out = out + algebra.basis_element(bid).scale(sign * coeff)
    return out
