"""The four benchmark workloads.

Each workload is one round of fixed work: a list of calls into fockcalc's
public API ("operations"), each timed on its own, followed by checks of its
output against values computed apart from the engine (see expect.py).  The
inputs come only from the seed, so a round is the same work every time it
is run with the same seed.

The worker imports this module after its timed set-up, which covers only
importing fockcalc and loading the presets.
"""

import contextlib
import io
import json
import math
from fractions import Fraction
from time import perf_counter

import fockcalc as fc
from fockcalc import cli

import expect as E


class Round:
    """Times operations, counts checks and collects wrong outputs.

    Each operation is kept as [label, scaled seconds, ok, raw seconds, start,
    end]; the scaled time is filled in afterwards from the calibration
    samples (see calibrate.py).
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops = []
        self.checks = 0
        self.failed = 0
        self.errors = []

    def _record(self, label, start, end, ok):
        self.ops.append([label, None, ok, end - start, start, end])

    def scale(self, clock):
        for op in self.ops:
            op[1] = clock.scale(op[4], op[5])

    def call(self, label, fn, *args, span=None, **kwargs):
        cm = (self.tracer.span(span) if (self.tracer and span)
              else contextlib.nullcontext())
        with cm:
            start = perf_counter()
            result = fn(*args, **kwargs)
            end = perf_counter()
        self._record(label, start, end, True)
        return result

    def call_expecting(self, label, fn, error):
        """An operation that must raise `error`; anything else counts as
        failed.  These stand for known faults of the program."""
        start = perf_counter()
        try:
            fn()
        except error:
            ok = True
        else:
            ok = False
        self._record(label, start, perf_counter(), ok)
        if not ok:
            self.failed += 1

    def expect(self, condition, message):
        if not condition:
            self.errors.append(message)

    def checked(self, count, suite=None):
        self.checks += count
        if self.tracer and suite:
            self.tracer.count(f"operators.verify.{suite}.checks", count)


class Preset:
    """A preset's JSON document, graded dimensions and monomial counts, read
    without the engine."""

    def __init__(self, name, max_weight=6):
        self.doc = E.preset_doc(name)
        self.degrees = E.basis_degrees(self.doc)
        self.counts = E.MonomialCounts(self.degrees, max_weight)


def _coefficient(rng):
    value = Fraction(rng.choice([1, 2, 3, 4, 5, 6, 7, 8, 9]), rng.randint(1, 5))
    return value if rng.random() < 0.5 else -value


def combination(rng, support):
    """A combination of the basis ids in `support` with seeded rational
    coefficients, as element text ("3/4*h - 2*h2") and as {id: Fraction}.
    The support is fixed per input slot, so that the cost of a slot does
    not depend on the seed."""
    coeffs = {bid: _coefficient(rng) for bid in support}
    text = ""
    for bid, c in coeffs.items():
        mag = f"{abs(c.numerator)}/{c.denominator}" if c.denominator != 1 \
            else f"{abs(c.numerator)}"
        text += ("-" if c < 0 else ("+" if text else "")) + f"{mag}*{bid}"
    return text, coeffs


def parse_checked(rnd, algebra, text, coeffs):
    element = fc.parse_element(algebra, text)
    got = {algebra.basis[i].id: Fraction(str(c)) for i, c in element.coeffs.items()}
    rnd.expect(got == coeffs, f"parse_element({text!r}) gave {got}")
    return element


# -- heisenberg_sweep ------------------------------------------------------------

# (preset, max weight, max index); the torus-like algebra has 16 classes, so
# its sweep stays at weight 2 and |n|, |m| <= 1 to keep a round short.
HEISENBERG_BASIS = (("p2", 5, 2), ("p1xp1", 4, 2), ("torus_like", 2, 1))
# (preset, max weight, max index, supports of three single-parity
# combinations with seeded coefficients)
HEISENBERG_COMBOS = (
    ("p2", 4, 2, (("h", "h2"), ("1", "h"), ("1", "h2"))),
    ("p1xp1", 3, 2, (("f", "g"), ("f", "fg"), ("1", "g"))),
    ("torus_like", 2, 1, (("x1", "x3"), ("x2", "x1x3x4"), ("x1x2", "x3x4"))))


def heisenberg_sweep(rnd, rng, algebras, docs, jobs, shard):
    for name, weight, k in HEISENBERG_BASIS:
        alg = algebras[name]
        report = rnd.call(f"heisenberg {name} basis w{weight}", fc.verify_relations,
                          "heisenberg", alg, max_weight=weight, max_index=k,
                          jobs=jobs, span="operators.verify.heisenberg")
        _expect_report(rnd, report, E.heisenberg_checks(
            docs[name].counts, weight, k, len(docs[name].degrees)), "heisenberg")
    for name, weight, k, supports in HEISENBERG_COMBOS:
        alg, doc = algebras[name], docs[name]
        classes = []
        for support in supports:
            text, coeffs = combination(rng, support)
            classes.append(parse_checked(rnd, alg, text, coeffs))
        report = rnd.call(f"heisenberg {name} combinations w{weight}",
                          fc.verify_relations, "heisenberg", alg,
                          max_weight=weight, max_index=k, classes=classes,
                          jobs=jobs, span="operators.verify.heisenberg")
        _expect_report(rnd, report, E.heisenberg_checks(
            doc.counts, weight, k, len(classes)), "heisenberg")


def _expect_report(rnd, report, expected, suite):
    rnd.expect(report.passed, f"{suite} on {report.algebra}: "
                              f"{report.discrepancy_count} discrepancies")
    rnd.expect(report.checked == expected,
               f"{suite} on {report.algebra}: checked {report.checked}, "
               f"expected {expected}")
    rnd.checked(report.checked, suite)


# -- calculus_sweep ----------------------------------------------------------------

# (preset, suite weight, Lq/LL index bound, pairing weight).  Lq runs on the
# even classes of the torus-like algebra, as the acceptance suite does; LL
# runs on even classes everywhere, its default.
CALCULUS = (("p2", 3, 2, 4), ("p1xp1", 2, 2, 3), ("torus_like", 1, 1, 2))
QPRIME_INDEX = 3
CENTRAL_SAMPLE = 8


def calculus_sweep(rnd, rng, algebras, docs, jobs, shard):
    for name, weight, k, pairing_weight in CALCULUS:
        alg, doc = algebras[name], docs[name]
        n_even = sum(1 for d in doc.degrees if not d & 1)
        odd = n_even < len(doc.degrees)
        lq_classes = alg.even_basis_elements() if odd else None
        lq_count = n_even if odd else len(doc.degrees)
        for suite, classes, expected in (
                ("Lq", lq_classes, E.lq_checks(doc.counts, weight, k, lq_count)),
                ("LL", None, E.ll_checks(doc.counts, weight, k, n_even))):
            report = rnd.call(f"{suite} {name} w{weight}", fc.verify_relations,
                              suite, alg, max_weight=weight, max_index=k,
                              classes=classes, jobs=jobs,
                              span=f"operators.verify.{suite}")
            _expect_report(rnd, report, expected, suite)
        report = rnd.call(f"qprime {name} w{weight}", fc.verify_relations,
                          "qprime", alg, max_weight=weight, max_index=QPRIME_INDEX,
                          jobs=jobs, span="operators.verify.qprime")
        _expect_report(rnd, report, E.qprime_checks(
            doc.counts, weight, QPRIME_INDEX, len(doc.degrees)), "qprime")
        for suite, expected in (
                ("expansion", E.expansion_checks(doc.counts, weight, len(doc.degrees))),
                ("nested_bracket", E.nested_bracket_checks(
                    doc.counts, weight, len(doc.degrees)))):
            code, record = rnd.call(f"{suite} {name} w{weight}", cli_verify,
                                    suite, name, weight,
                                    span=f"operators.verify.{suite}")
            rnd.expect(code == 0 and record["passed"],
                       f"{suite} on {name}: exit {code}, "
                       f"{record['discrepancy_count']} discrepancies")
            rnd.expect(record["checked"] == expected,
                       f"{suite} on {name}: checked {record['checked']}, "
                       f"expected {expected}")
            rnd.checked(record["checked"], suite)
        checked, bad = rnd.call(f"pairing {name} w{pairing_weight}", pairing_sweep,
                                alg, pairing_weight, span="operators.verify.pairing")
        rnd.expect(not bad, f"d is not self-adjoint on {bad} pairs of {name}")
        rnd.expect(checked == E.pairing_checks(doc.counts, pairing_weight),
                   f"pairing on {name}: {checked} checks, expected "
                   f"{E.pairing_checks(doc.counts, pairing_weight)}")
        rnd.checked(checked, "pairing")
        central_check(rnd, rng, alg, doc, weight)


def cli_verify(suite, name, weight):
    """`fockcalc --format structured verify` in-process; returns (exit code,
    record).  The expansion and nested-bracket sweeps are reachable only
    through the command line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["--format", "structured", "verify", "--suite", suite,
                         "--algebra", name, "--max-weight", str(weight)])
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def pairing_sweep(alg, max_weight):
    """(d u, v) = (u, d v) on every complementary pair of bigraded pieces."""
    d = fc.boundary_d(alg)
    checked = 0
    bad = 0
    for n in range(1, max_weight + 1):
        pieces = {}
        for i in range(4 * n + 1):
            vecs = [fc.FockVector(alg, {m: fc.Rat(1)})
                    for m in fc.monomial_basis(n, alg, degree_filter=i)]
            pieces[i] = [(v, d(v)) for v in vecs]
        for i, left in pieces.items():
            right = pieces.get(4 * n - i - 2, [])
            for u, du in left:
                for v, dv in right:
                    if fc.inner_product(du, v) != fc.inner_product(u, dv):
                        bad += 1
                    checked += 1
    return checked, bad


def random_vector(rng, alg, doc, max_weight):
    """A seeded basis vector +-q_{s1}(e_c1)...|0> of weight <= max_weight,
    built through canonicalize from unordered parts."""
    while True:
        weight = rng.randint(0, max_weight)
        parts = []
        while weight:
            size = rng.randint(1, weight)
            parts.append((size, alg.basis_element(rng.randrange(len(doc.degrees)))))
            weight -= size
        vec = fc.canonicalize(alg, parts)
        if not vec.is_zero():
            return vec


def central_check(rnd, rng, alg, doc, weight):
    """[L_n(1), L_-n(1)] = 2n L_0(1) - (n^3-n)/12 chi Id for n = 2, 3, with chi
    from the preset's Betti numbers."""
    chi = E.euler_characteristic(doc.degrees)
    one = alg.unit()
    vectors = [random_vector(rng, alg, doc, weight) for _ in range(CENTRAL_SAMPLE)]

    def run():
        bad = []
        for n in (2, 3):
            bracket = fc.supercommutator(fc.virasoro(n, one), fc.virasoro(-n, one))
            l0 = fc.virasoro(0, one) * (2 * n)
            central = fc.Rat(-(n ** 3 - n) * chi, 12)
            for v in vectors:
                if not (bracket(v) - l0(v) - v.scale(central)).is_zero():
                    bad.append((n, repr(v)))
        return bad

    bad = rnd.call(f"central {alg.name}", run, span="operators.verify.LL")
    rnd.expect(not bad, f"central term -(n^3-n)/12 chi fails on {bad[:3]}")
    rnd.checked(2 * len(vectors), "LL")


# -- cold_queries ----------------------------------------------------------------

# B/G groups: (preset, n, i, support of gamma); each group asks B_0, G_0,
# B_1, G_1, B_i, G_i for one gamma with seeded coefficients.
BG_GROUPS = (
    ("p2", 4, 2, ("h", "h2")), ("p2", 5, 2, ("h", "h2")), ("p2", 5, 3, ("h", "h2")),
    ("p2", 6, 2, ("h", "h2")), ("p2", 6, 3, ("h", "h2")),
    ("p1xp1", 4, 2, ("f", "g")), ("p1xp1", 5, 2, ("f", "fg")),
    ("p1xp1", 5, 3, ("g", "fg")), ("p1xp1", 6, 2, ("f", "g")),
    ("p1xp1", 6, 3, ("g", "fg")))
# filtration_compare(i, gamma, n) slots: (preset, i, n, basis class gamma)
FILTRATION = tuple(
    (name, i, n, classes[k % len(classes)])
    for name, classes in (("p2", ("h", "h2")), ("p1xp1", ("f", "g", "fg")))
    for k, (i, n) in enumerate(((1, 3), (2, 3), (1, 4), (2, 4), (3, 4),
                                (2, 5), (3, 5), (4, 5), (2, 6), (3, 6))))
# bigraded pieces (n, i) of p2 on which the adjoint of d is asked for
ADJOINT_PIECES = ((2, 2), (2, 4), (3, 2), (3, 4), (3, 6), (3, 8),
                  (4, 4), (4, 6), (4, 8), (4, 10), (5, 6), (5, 8))
# class_product(lam, mu, n) slots: (n, lam), mu seeded.  The cost of a cold
# product is one walk over the class of lam, whatever mu is.
CLASS_PRODUCTS = (
    (5, (2, 1, 1, 1)), (5, (3, 1, 1)), (5, (2, 2, 1)),
    (6, (2, 1, 1, 1, 1)), (6, (3, 1, 1, 1)), (6, (2, 2, 1, 1)), (6, (4, 1, 1)),
    (7, (2, 1, 1, 1, 1, 1)), (7, (3, 1, 1, 1, 1)), (7, (2, 2, 1, 1, 1)),
    (7, (4, 1, 1, 1)), (7, (2, 2, 2, 1)), (7, (3, 3, 1)),
    (8, (2, 1, 1, 1, 1, 1, 1)), (8, (3, 1, 1, 1, 1, 1)), (8, (2, 2, 1, 1, 1, 1)),
    (8, (4, 1, 1, 1, 1)), (8, (2, 2, 2, 1, 1)), (8, (3, 3, 1, 1)),
    (9, (2, 1, 1, 1, 1, 1, 1, 1)), (9, (3, 1, 1, 1, 1, 1, 1)),
    (9, (2, 2, 1, 1, 1, 1, 1)), (9, (4, 1, 1, 1, 1, 1)), (9, (2, 2, 2, 1, 1, 1)),
    (9, (2, 2, 2, 2, 1)))


def partitions(n, cap=None):
    """Partitions of n as weakly decreasing tuples (for seeding inputs)."""
    cap = n if cap is None else cap
    if n == 0:
        return [()]
    return [(p,) + rest for p in range(min(n, cap), 0, -1)
            for rest in partitions(n - p, p)]


def clear_row_cache():
    """Empty the class algebra's process-wide table of product rows, so that
    every class_product query starts cold."""
    from fockcalc import class_algebra
    cache = getattr(class_algebra, "_ROW_CACHE", None)
    if cache is not None:
        cache.clear()


def cold_queries(rnd, rng, algebras, docs, jobs, shard):
    def fresh(name):
        # a new instance with empty memo tables, outside the timed call
        return fc.load_algebra(docs[name].doc)

    for name, n, i, support in BG_GROUPS:
        doc = docs[name]
        text, coeffs = combination(rng, support)
        values = {}
        parse_checked(rnd, fresh(name), text, coeffs)
        for kind, idx in (("B", 0), ("G", 0), ("B", 1), ("G", 1), ("B", i), ("G", i)):
            alg = fresh(name)
            fn = fc.b_class if kind == "B" else fc.g_class
            values[kind, idx] = rnd.call(
                f"{kind}_{idx} {name} n={n}",
                lambda: fn(idx, fc.parse_element(alg, text), n)).value
        b0, g0, b1, g1 = (values[k] for k in (("B", 0), ("G", 0), ("B", 1), ("G", 1)))
        rnd.expect(b0.terms == g0.terms, f"B_0 != G_0 for {text} on {name}, n={n}")
        rnd.expect(b1.terms == {m: -2 * c for m, c in g1.terms.items()},
                   f"B_1 != -2 G_1 for {text} on {name}, n={n}")
        unit = [b["degree"] for b in doc.doc["basis"]].index(0)
        index = {b["id"]: k for k, b in enumerate(doc.doc["basis"])}
        for bid, c in coeffs.items():
            lead = ((i + 1, index[bid]),) + ((1, unit),) * (n - i - 1)
            got = Fraction(str(values["G", i].coefficient(lead)))
            rnd.expect(got == c * E.leading_coefficient(i, n),
                       f"G_{i} leading coefficient {got} for {text} on {name}, n={n}")
            got = Fraction(str(values["B", i].coefficient(lead)))
            rnd.expect(got == c / math.factorial(n - i - 1),
                       f"B_{i} leading coefficient {got} for {text} on {name}, n={n}")
        rnd.checked(6)

    for name, i, n, gamma_id in FILTRATION:
        alg = fresh(name)
        gamma = alg.basis_element(gamma_id)
        rep = rnd.call(f"filtration {name} i={i} n={n}", fc.filtration_compare,
                       i, gamma, n)
        expected = E.leading_coefficient(i, n)
        rnd.expect(Fraction(str(rep.expected_coeff)) == expected
                   and Fraction(str(rep.leading_coeff)) == expected
                   and rep.support_ok,
                   f"filtration_compare({i}, {gamma!r}, {n}) on {name}: "
                   f"{rep.leading_coeff} vs {expected}, support {rep.support_ok}")
        rnd.checked(1)

    p2 = docs["p2"]
    for n, i in ADJOINT_PIECES:
        alg = fresh("p2")
        d = fc.boundary_d(alg)
        mat, src, tgt = rnd.call(f"adjoint d p2 ({n},{i})", fc.adjoint_matrix, d, (n, i))
        rnd.expect(len(src) == p2.counts.piece(n, i)
                   and len(tgt) == p2.counts.piece(n, i + 2),
                   f"adjoint piece ({n},{i}) has {len(src)}x{len(tgt)} monomials")
        rnd.expect(mat == fc.operator_matrix(d, src, tgt),
                   f"adjoint of d differs from d on piece ({n},{i})")
        rnd.checked(1)

    products = [(n, lam, rng.choice(partitions(n))) for n, lam in CLASS_PRODUCTS]
    products.append((3, (2, 1), (2, 1)))
    for n, lam, mu in products:
        clear_row_cache()
        prod = rnd.call(f"class_product n={n} {lam}", fc.class_product, lam, mu, n)
        total = sum(Fraction(str(c)) * E.class_size(nu) for nu, c in prod.coeffs.items())
        rnd.expect(total == E.class_size(lam) * E.class_size(mu),
                   f"sum rule fails for C{lam} C{mu}: {total}")
        rnd.checked(1)
    rnd.expect({nu: Fraction(str(c)) for nu, c in prod.coeffs.items()}
               == {(1, 1, 1): 3, (3,): 3}, f"C(2,1)^2 = {prod!r}")

    # Two known faults; each query fails every time until it is mended.
    alg = fresh("p2")
    rnd.call_expecting("cap_after_warm_cache", lambda: cap_after_warm_cache(alg),
                       fc.TruncationExceeded)
    alg = fresh("p2")
    rnd.call_expecting("decimal_coefficient",
                       lambda: fc.parse_element(alg, "0.5*h"), fc.ParseError)


def cap_after_warm_cache(alg):
    """L_1(1) on a weight-3 monomial, then again under a weight cap of 2.

    A cold cache raises TruncationExceeded on the second call; the cap must
    not depend on what the memo tables hold.
    """
    op = fc.virasoro(1, alg.unit())
    v = fc.canonicalize(alg, [(2, alg.basis_element("h")), (1, alg.unit())])
    op(v)
    previous = fc.set_max_weight(2)
    try:
        return op(v)
    finally:
        fc.set_max_weight(previous)


# -- sn_closure --------------------------------------------------------------------

# Ranks per worker process of one round: n = 9 once, and n = 2..8 seven
# times, each time in a process of its own.  The small closures take
# milliseconds and their time differs by up to a quarter between processes,
# so seven processes let the median of each rank settle; the latency
# quantiles then rest on 50 operations per round and fall inside a group of
# equal operations (p50 on n = 5, p90 on n = 8) instead of between two ranks.
SN_SHARDS = ((9,),) + ((2, 3, 4, 5, 6, 7, 8),) * 7


def sn_closure(rnd, rng, algebras, docs, jobs, shard):
    for n in SN_SHARDS[shard]:
        gens = [fc.b_analog(i, n) for i in range(n)]
        rng.shuffle(gens)
        clear_row_cache()
        rep = rnd.call(f"generation_closure n={n}", fc.generation_closure, gens, n)
        p = E.partition_number(n)
        rnd.expect(rep.dimension == p and rep.target == p and rep.generated,
                   f"closure at n={n}: dimension {rep.dimension}, p(n) = {p}")
        rnd.checked(1)


# name: (round function, worker processes per round)
WORKLOADS = {
    "heisenberg_sweep": (heisenberg_sweep, 1),
    "calculus_sweep": (calculus_sweep, 1),
    "cold_queries": (cold_queries, 1),
    "sn_closure": (sn_closure, len(SN_SHARDS)),
}
