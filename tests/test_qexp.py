import json
import math
import operator
import random
from collections import namedtuple
from fractions import Fraction

import pytest

from vvmf import exactnum, qexp
from vvmf.exactnum import (
    CycNum, _make, _reduce, as_cyc, bernoulli, divisors, euler_phi, format_rational,
)
from vvmf.qexp import InsufficientPrecision, QExp, _series, combine, slash_expand


def eis_coeffs(k, count):
    # closed Eisenstein formula, local to the tests
    sig = lambda n: sum(d ** (k - 1) for d in range(1, n + 1) if n % d == 0)
    factor = Fraction(-2 * k) / bernoulli(k)
    return [Fraction(1)] + [factor * sig(n) for n in range(1, count)]


def qexp_of(coeffs, prec=None):
    # integer-lattice series; the precision defaults to the number of coefficients
    terms = {n: CycNum.from_rational(c) for n, c in enumerate(coeffs)}
    return QExp(1, len(coeffs) if prec is None else prec, terms)


def test_product_truncates_soundly():
    f = qexp_of([1, 1], 3)  # 1 + q + O(q^3)
    g = qexp_of([1, -1], 3)
    prod = f * g
    assert prod.prec == 3
    assert prod.coeff(0) == 1 and prod.coeff(1) == 0 and prod.coeff(2) == -1


def test_eisenstein_square_is_weight_eight_series():
    e4 = qexp_of(eis_coeffs(4, 6))
    e8 = qexp_of(eis_coeffs(8, 6))
    sq = e4 * e4
    for n in range(6):
        assert sq.coeff(n) == e8.coeff(n), n


def test_mixed_lattice_addition():
    f = QExp(2, 1, {1: CycNum.one()})  # q^(1/2)
    g = QExp(3, 1, {1: CycNum.one()})  # q^(1/3)
    s = f + g
    assert s.h == 6
    assert s.coeff(Fraction(1, 2)) == 1 and s.coeff(Fraction(1, 3)) == 1
    assert len(s.terms) == 2


def test_slash_identity_coset():
    f = qexp_of(eis_coeffs(4, 5))
    assert slash_expand(f, 4, (1, 0, 1)) == f


def test_slash_triples_exponents():
    e12 = qexp_of(eis_coeffs(12, 4))
    out = slash_expand(e12, 12, (3, 0, 1))
    assert out.prec == 12
    for n in range(4):
        assert out.coeff(3 * n) == 3**6 * e12.coeff(n)
    assert out.coeff(1).is_zero() and out.coeff(2).is_zero()


def test_slash_with_translation_gives_root_of_unity_phases():
    e12 = qexp_of(eis_coeffs(12, 9))
    out = slash_expand(e12, 12, (1, 1, 3))
    assert out.h == 3
    assert out.prec == Fraction(9, 3)
    z3 = CycNum.zeta(3)
    for n in range(9):
        expect = Fraction(1, 3**6) * z3 ** (n % 3) * e12.coeff(n)
        assert out.coeff(Fraction(n, 3)) == expect, n


def test_slash_round_trip_up_to_precision():
    rng = random.Random(3)
    f = QExp(
        2,
        4,
        {n: CycNum.from_rational(rng.randint(-5, 5)) for n in range(8)},
    )
    down = slash_expand(f, 6, (1, 0, 2))
    back = slash_expand(down, 6, (2, 0, 1))
    assert back.agrees_with(f, min(back.prec, f.prec))


def test_slash_is_linear():
    rng = random.Random(11)
    a = QExp(1, 5, {n: CycNum.from_rational(rng.randint(-4, 4)) for n in range(5)})
    b = QExp(1, 5, {n: CycNum.from_rational(rng.randint(-4, 4)) for n in range(5)})
    m = (1, 2, 3)
    lhs = slash_expand(a + b.scaled(7), 4, m)
    rhs = slash_expand(a, 4, m) + slash_expand(b, 4, m).scaled(7)
    assert lhs == rhs


def test_slash_rejects_odd_weight_and_bad_translation():
    f = qexp_of([1, 2])
    with pytest.raises(ValueError):
        slash_expand(f, 3, (1, 0, 1))
    with pytest.raises(ValueError):
        slash_expand(f, 4, (1, 3, 3))


def test_ring_laws_random():
    rng = random.Random(42)
    for _ in range(8):
        def rand_series():
            h = rng.choice([1, 2, 3])
            prec = Fraction(rng.randint(2, 5))
            return QExp(
                h,
                prec,
                {
                    n: CycNum.from_rational(rng.randint(-3, 3))
                    for n in range(int(prec * h))
                },
            )

        a, b, c = rand_series(), rand_series(), rand_series()
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_precision_bookkeeping():
    a = qexp_of([1, 2, 3], 3)
    b = qexp_of([1, 1], 2)
    assert (a + b).prec == 2
    assert (a * b).prec == 2
    with pytest.raises(InsufficientPrecision):
        a.truncate(5)
    with pytest.raises(InsufficientPrecision):
        a.coeff(3)


def test_negative_exponents_and_zero_precision_rejected():
    with pytest.raises(ValueError):
        QExp(1, 2, {-1: CycNum.one()})
    with pytest.raises(InsufficientPrecision):
        QExp(1, 0, {})


@pytest.mark.parametrize("key", [2.5, Fraction(5, 2), Fraction(4, 2), "2", None])
def test_constructor_rejects_an_exponent_that_is_not_an_integer(key):
    with pytest.raises(ValueError, match="exponent numerator"):
        QExp(1, 5, {key: 1})


def test_json_round_trip():
    import json

    f = QExp(3, Fraction(7, 3), {0: CycNum.one(), 4: CycNum.zeta(3)})
    assert QExp.from_json(json.loads(json.dumps(f.to_json()))) == f


def test_theta_multiplies_by_exponent():
    f = QExp(3, 2, {1: CycNum.one(), 3: CycNum.from_rational(5)})
    t = f.theta()
    assert t.coeff(Fraction(1, 3)) == CycNum.from_rational(Fraction(1, 3))
    assert t.coeff(1) == CycNum.from_rational(5)


# -- the packed product against the termwise product ----------------------


def reference_mul(x: QExp, y: QExp) -> QExp:
    """The termwise product: one CycNum product and one sum per pair of terms."""
    a, b = (q.rescale_lattice(math.lcm(x.h, y.h)) for q in (x, y))
    prec = min(a.prec, b.prec)
    bound = math.ceil(prec * a.h)
    terms: dict = {}
    for n1, c1 in a.terms.items():
        for n2, c2 in b.terms.items():
            n = n1 + n2
            if n >= bound:
                continue
            prod = c1 * c2
            terms[n] = terms[n] + prod if n in terms else prod
    return QExp(a.h, prec, terms)


def json_bytes(q: QExp) -> str:
    return json.dumps(q.to_json())


MIXED_CONDUCTORS = (1, 3, 4, 5, 12)


def random_coefficient(rng, n, size):
    nums = [rng.randint(-size, size) for _ in range(euler_phi(n))]
    return CycNum(n, [Fraction(x, rng.choice([1, 1, 2, 3, 9, 10, 49])) for x in nums])


def random_series(rng, size=9, max_terms=14):
    h = rng.choice([1, 2, 3, 6])
    prec = Fraction(rng.randint(1, 30), rng.choice([1, 2, 3, 5]))
    bound = math.ceil(prec * h)
    terms = {
        rng.randrange(bound + 4): random_coefficient(rng, rng.choice(MIXED_CONDUCTORS), size)
        for _ in range(rng.randint(0, max_terms))
    }
    return QExp(h, prec, terms)


def fraction_theta(q: QExp) -> QExp:
    """theta as one Fraction(n, h) times each coefficient."""
    return QExp(q.h, q.prec, {n: Fraction(n, q.h) * c for n, c in q.terms.items()})


@pytest.mark.parametrize("conductors", [(1,), (3,), (1, 3), MIXED_CONDUCTORS])
def test_theta_matches_the_fraction_product_term_by_term(conductors):
    rng = random.Random(f"theta/{conductors}")
    for _ in range(30):
        h = rng.choice([1, 2, 3, 6])
        q = QExp(h, rng.randint(1, 12), {rng.randrange(12 * h): random_coefficient(
            rng, rng.choice(conductors), 40) for _ in range(rng.randint(0, 14))})
        got, want = q.theta(), fraction_theta(q)
        assert (got.h, got.prec) == (want.h, want.prec)
        assert {n: (c.n, c.num, c.den) for n, c in got.terms.items()} == {
            n: (c.n, c.num, c.den) for n, c in want.terms.items()}


@pytest.mark.parametrize("seed", range(6))
def test_packed_product_matches_reference_bytes(seed):
    rng = random.Random(f"packed/{seed}")
    # near 10**40 the products of slots need more than 256 bits
    size = 10**40 if seed % 3 == 2 else 9
    for _ in range(60):
        x, y = random_series(rng, size), random_series(rng, size)
        assert json_bytes(x * y) == json_bytes(reference_mul(x, y))


@pytest.mark.parametrize(
    "terms",
    [{}, {0: CycNum.one()}, {5: CycNum.zeta(12, 7)}, {2: CycNum(5, [0, "-3/7", 0, 1])}],
)
def test_packed_product_of_empty_and_one_term_series(terms):
    rng = random.Random(f"short/{sorted(terms)}")
    x = QExp(2, Fraction(9, 2), terms)
    for _ in range(20):
        y = random_series(rng)
        assert json_bytes(x * y) == json_bytes(reference_mul(x, y))
        assert json_bytes(y * x) == json_bytes(reference_mul(y, x))
    assert json_bytes(x * x) == json_bytes(reference_mul(x, x))


def test_cancelled_pair_still_sets_the_conductor():
    z = CycNum.zeta(3)
    # at q^3 the conductor-3 pairs give z*(-z) + z*z = 0 and the rational
    # pair gives 5: the coefficient is 5 stored at conductor 3
    a = QExp(1, 6, {0: CycNum.one(), 1: z, 2: z})
    b = QExp(1, 6, {0: CycNum.one(), 1: z, 2: -z, 3: CycNum.from_rational(5)})
    prod = a * b
    assert prod.terms[3] == 5 and prod.terms[3].n == 3
    assert json_bytes(prod) == json_bytes(reference_mul(a, b))
    # with no conductor-3 pair at q^3 the same value stays rational
    c = QExp(1, 6, {0: CycNum.one(), 3: CycNum.from_rational(5)})
    assert (a * c).terms[3].n == 1


def three_class_pair(rng):
    """Series x, y with coefficients at conductors 1, 3 and 4 whose product
    cancels at some exponents: x[n2] = r * x[n1] with r rational, and
    y[m + n2 - n1] = -r * y[m], so the two pairs meeting at n2 + m cancel."""
    h = rng.choice([1, 3])
    prec = Fraction(rng.randint(3, 24), rng.choice([1, 2, 3]))
    bound = math.ceil(prec * h)
    x, y = ({rng.randrange(bound): random_coefficient(rng, rng.choice((1, 3, 4)), 9)
             for _ in range(rng.randint(1, 12))} for _ in range(2))
    for _ in range(rng.randint(1, 4)):
        n1 = rng.choice(sorted(x))
        n2, m = rng.randrange(n1, bound), rng.randrange(bound)
        if n2 == n1 or m + n2 - n1 >= bound:
            continue
        r = Fraction(rng.choice([-2, -1, 1, 3]), rng.choice([1, 4]))
        x[n2] = r * x[n1]
        y[m] = y.get(m) or random_coefficient(rng, rng.choice((1, 3, 4)), 9) or CycNum.one()
        y[m + n2 - n1] = -r * y[m]
    return QExp(h, prec, x), QExp(h, prec, y)


@pytest.mark.parametrize("seed", range(6))
def test_packed_product_of_three_conductor_classes_matches_reference_bytes(seed):
    rng = random.Random(f"three/{seed}")
    for _ in range(40):
        x, y = three_class_pair(rng)
        assert json_bytes(x * y) == json_bytes(reference_mul(x, y))
        assert json_bytes(x * x) == json_bytes(reference_mul(x, x))


def test_cancelled_pairs_of_two_classes_set_the_conductor():
    z3, z4 = CycNum.zeta(3), CycNum.zeta(4)
    # at q^4 the conductor-3 pairs give z3*z3 - z3*z3 = 0, the conductor-4
    # pairs z4*z4 - z4*z4 = 0 and the rational pair 7: the coefficient is
    # 7 stored at conductor 12
    a = QExp(1, 5, {0: CycNum.one(), 1: z3, 2: z4, 3: z3, 4: z4})
    b = QExp(1, 5, {0: -z4, 1: -z3, 2: z4, 3: z3, 4: CycNum.from_rational(7)})
    prod = a * b
    assert prod.terms[4] == 7 and prod.terms[4].n == 12
    assert json_bytes(prod) == json_bytes(reference_mul(a, b))


def test_sum_drops_a_cancelled_term():
    z = CycNum.zeta(3)
    s = QExp(1, 3, {1: z}) + QExp(1, 3, {1: -z, 2: CycNum.one()})
    assert s.terms == {2: CycNum.one()}
    assert (QExp(2, 2, {1: z}) - QExp(2, 2, {1: z})).terms == {}


def termwise_agrees_with(x: QExp, y: QExp, prec=None) -> bool:
    """Agreement as `QExp.agrees_with` decided it before it subtracted: the
    coefficients of x and y on their common lattice, compared exponent by
    exponent below prec."""
    if prec is None:
        prec = min(x.prec, y.prec)
    prec = Fraction(prec)
    if prec > x.prec or prec > y.prec:
        raise InsufficientPrecision("comparison beyond stored precision")
    h = math.lcm(x.h, y.h)
    a, b = x.rescale_lattice(h), y.rescale_lattice(h)
    keys = {n for n in a.terms if n < prec * h} | {n for n in b.terms if n < prec * h}
    zero = CycNum.zero()
    return all(a.terms.get(n, zero) == b.terms.get(n, zero) for n in keys)


def _agreement(compare, x, y, prec):
    try:
        return compare(x, y) if prec is None else compare(x, y, prec)
    except InsufficientPrecision:
        return "raises"


@pytest.mark.parametrize("seed", range(3))
def test_agrees_with_matches_the_termwise_comparison(seed):
    # seeded pairs: unrelated series, one series on a finer lattice, a
    # truncation, one changed or added term, and each coefficient rewritten at
    # a multiple of its conductor (so the difference cancels there); each at
    # the default precision, at 0 and below, at precisions between the terms
    # and at and past either series' precision
    rng = random.Random(f"agree/{seed}")
    seen = set()
    for _ in range(150):
        x = random_series(rng, max_terms=6)
        kind = rng.randrange(5)
        if kind == 0:
            y = random_series(rng, max_terms=6)
        elif kind == 1:
            y = x.rescale_lattice(x.h * rng.choice([2, 5]))
        elif kind == 2:
            y = x.truncate(Fraction(rng.randint(1, 4 * x.h), x.h) if x.prec > 4 else x.prec)
        elif kind == 3:
            n = rng.choice([*x.terms, rng.randrange(math.ceil(x.prec * x.h) + 1)])
            y = x + QExp(x.h, x.prec, {n: random_coefficient(rng, rng.choice(MIXED_CONDUCTORS), 3)})
        else:
            y = QExp(x.h, x.prec, {n: c.lift(c.n * rng.choice([1, 3, 4])) for n, c in x.terms.items()})
        low = min(x.prec, y.prec)
        precs = [None, 0, -1, low, max(x.prec, y.prec), low + Fraction(1, 7)]
        precs += [Fraction(n, x.h) for n in x.terms] + [Fraction(n + 1, y.h) for n in y.terms]
        for a, b in ((x, y), (y, x)):
            for prec in precs:
                got = _agreement(QExp.agrees_with, a, b, prec)
                assert got == _agreement(termwise_agrees_with, a, b, prec), (a, b, prec)
                seen.add(got)
        assert (x == y) is (x.prec == y.prec and termwise_agrees_with(x, y))
    assert seen == {True, False, "raises"}


def test_agrees_with_at_the_edges_matches_the_termwise_comparison():
    z3 = CycNum.zeta(3)
    pairs = [
        # a difference exactly at prec: q^(5/2) is not below 5/2, and is below 3
        (QExp(2, 3, {0: 1, 5: 1}), QExp(3, 4, {0: 1}), {Fraction(5, 2): True, 3: False}),
        # a term that cancels: z3 at exponent 1 on lattices 1 and 3, at
        # conductors 3 and 12, so the difference has no term
        (QExp(1, 4, {1: z3, 2: 1}), QExp(3, 4, {3: z3.lift(12), 6: 1}), {None: True, 4: True}),
        # prec <= 0 agrees even where the series differ at exponent 0
        (QExp(1, 2, {0: 1}), QExp(2, 1, {0: 2}), {0: True, Fraction(-1, 2): True, None: False}),
        # prec past either series raises
        (QExp(1, 2, {}), QExp(6, Fraction(5, 3), {}), {2: "raises", Fraction(11, 6): "raises",
                                                         Fraction(5, 3): True}),
    ]
    for x, y, want in pairs:
        for prec, expected in want.items():
            for a, b in ((x, y), (y, x)):
                assert _agreement(QExp.agrees_with, a, b, prec) == expected, (a, b, prec)
                assert _agreement(termwise_agrees_with, a, b, prec) == expected, (a, b, prec)


def test_packed_product_matches_reference_hypothesis():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def series(draw):
        h = draw(st.sampled_from([1, 2, 3, 6]))
        prec = draw(st.fractions(min_value=Fraction(1, 5), max_value=12, max_denominator=5))
        bound = math.ceil(prec * h)
        coefficients = st.builds(
            lambda n, xs, d: CycNum(n, [Fraction(x, d) for x in xs[: euler_phi(n)]]),
            st.sampled_from(MIXED_CONDUCTORS),
            st.lists(st.integers(-(10**42), 10**42), min_size=4, max_size=4),
            st.integers(1, 60),
        )
        return QExp(h, prec, draw(st.dictionaries(st.integers(0, bound), coefficients, max_size=10)))

    @hyp.settings(max_examples=80, deadline=None, database=None)
    @hyp.given(series(), series())
    def check(x, y):
        assert json_bytes(x * y) == json_bytes(reference_mul(x, y))

    check()


def test_slash_expand_composes_hypothesis():
    """f | m1 | m2 = f | m1 m2 for upper-triangular m = [[a, b], [0, d]].

    The product [[a1 a2, a1 b2 + b1 d2], [0, d1 d2]] may have its translation
    entry outside [0, d1 d2); f has integral exponents, so f(tau + 1) = f(tau)
    and the entry reduces modulo d1 d2.
    """
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def upper_triangular(draw):
        a, d = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        return a, draw(st.integers(0, d - 1)), d

    coefficients = st.builds(
        lambda n, xs, den: CycNum(n, [Fraction(x, den) for x in xs[: euler_phi(n)]]),
        st.sampled_from(MIXED_CONDUCTORS),
        st.lists(st.integers(-50, 50), min_size=4, max_size=4),
        st.integers(1, 9),
    )
    series = st.builds(
        lambda prec, terms: QExp(1, prec, {n: c for n, c in terms.items() if n < prec}),
        st.integers(1, 8),
        st.dictionaries(st.integers(0, 7), coefficients, max_size=8),
    )

    @hyp.settings(max_examples=80, deadline=None, database=None)
    @hyp.given(series, upper_triangular(), upper_triangular(), st.sampled_from([2, 4, 6, 12]))
    def check(f, m1, m2, k):
        (a1, b1, d1), (a2, b2, d2) = m1, m2
        m = (a1 * a2, (a1 * b2 + b1 * d2) % (d1 * d2), d1 * d2)
        assert slash_expand(slash_expand(f, k, m1), k, m2) == slash_expand(f, k, m)

    check()


# -- the kernel against the pair-by-pair kernel it replaced ----------------
#
# oracle_combine packs each pair of conductor groups of an entry at their
# joint conductor, decodes every such job into CycNums, lifts and adds them;
# oracle_slash_expand multiplies CycNums.  Both are kept here, verbatim in
# their arithmetic, as references for the one-product-per-row kernel.

OracleGroup = namedtuple("OracleGroup", "rows den big top")


def oracle_combine(rows, series) -> list:
    rows = [[(c, q) for c, q in zip(row, series) if isinstance(c, QExp) or c] for row in rows]
    parts = [[x for pair in row for x in pair if isinstance(x, QExp)] for row in rows]
    h = math.lcm(*(x.h for xs in parts for x in xs))
    bounds = [math.ceil(min(x.prec for x in xs) * h) if xs else 0 for xs in parts]
    limit, classes, lifted, packed = max(bounds, default=0), {}, {}, {}

    def conductors(x) -> dict:
        if id(x) not in classes:
            classes[id(x)] = groups = {}
            terms = x.rescale_lattice(h).terms if isinstance(x, QExp) else {0: as_cyc(x)}
            for n, c in terms.items():
                if n < limit:
                    groups.setdefault(c.n, []).append((n, c))
        return classes[id(x)]

    def lift(x, c: int, cond: int):
        key = (id(x), c, cond if c > 1 else 1)
        if key not in lifted:
            lifted[key] = oracle_lifted(classes[id(x)][c], key[2])
        return lifted[key]

    def pack(g, stride: int) -> int:
        if (id(g), stride) not in packed:
            rows = g.rows if stride else [(n, (1,)) for n, _ in g.rows]
            packed[id(g), stride] = oracle_pack(rows, g.top, stride or 1, width)
        return packed[id(g), stride]

    jobs, big = [], 0
    for row in rows:
        job: dict = {}
        for x, y in row:
            for ca in conductors(x):
                for cb in conductors(y):
                    cond = math.lcm(ca, cb)
                    job.setdefault(cond, []).append((lift(x, ca, cond), lift(y, cb, cond)))
        for cond, pairs in job.items():
            den = math.lcm(*(a.den * b.den for a, b in pairs))
            pairs = [(den // (a.den * b.den), a, b) for a, b in pairs]
            job[cond] = den, pairs
            size = sum(f * a.big * b.big * min(len(a.rows), len(b.rows)) for f, a, b in pairs)
            big = max(big, size * euler_phi(cond))
        jobs.append(job)
    width = (big.bit_length() + 8) // 8

    out = []
    for xs, bound, job in zip(parts, bounds, jobs):
        if not xs:
            out.append(QExp.zero(min(q.prec for q in series)))
            continue
        terms, reached = {}, {}
        for cond, (den, pairs) in sorted(job.items()):
            stride = 2 * euler_phi(cond) - 1
            acc = sum(f * pack(a, stride) * pack(b, stride) for f, a, b in pairs)
            top = min(bound, max(a.top + b.top + 1 for _, a, b in pairs))
            counts = (pack(a, 0) * pack(b, 0) for _, a, b in pairs)
            for n, part in oracle_decode(acc, cond, den, top, width, counts):
                if cond > 1:
                    reached[n] = math.lcm(reached.get(n, 1), cond)
                if part is not None:
                    terms[n] = terms[n] + part if n in terms else part
        step = h // math.lcm(*(x.h for x in xs))
        terms = {n // step: c.lift(reached.get(n, 1)) for n, c in sorted(terms.items()) if c}
        out.append(_series(h // step, min(x.prec for x in xs), terms))
    return out


def oracle_lifted(group: list, cond: int):
    group = [(n, x if x.n == cond else x.lift(cond)) for n, x in group]
    den = math.lcm(*(x.den for _, x in group))
    rows = [(n, x.num if x.den == den else [a * (den // x.den) for a in x.num]) for n, x in group]
    return OracleGroup(rows, den, max(max(map(abs, v)) for _, v in rows), max(n for n, _ in rows))


def oracle_pack(rows: list, top: int, stride: int, width: int) -> int:
    size = (top + 1) * stride * width
    pos, neg = bytearray(size), bytearray(size)
    for n, coords in rows:
        at = n * stride * width
        for x in coords:
            if x > 0:
                pos[at : at + width] = x.to_bytes(width, "little")
            elif x < 0:
                neg[at : at + width] = (-x).to_bytes(width, "little")
            at += width
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def oracle_decode(acc: int, cond: int, den: int, top: int, width: int, counts):
    stride = 2 * euler_phi(cond) - 1
    size = top * stride * width
    raw = (acc & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
    half, full = 1 << (8 * width - 1), 1 << (8 * width)
    zero, hits, borrow = bytes(stride * width), None, False
    for n in range(top):
        at = n * stride * width
        block = []
        if borrow or not raw.startswith(zero, at):
            for s in range(at, at + stride * width, width):
                u = int.from_bytes(raw[s : s + width], "little") + borrow
                borrow = u >= half
                block.append(u - full if borrow else u)
        if any(block):
            coords = _reduce(cond, block) if cond > 1 else block
            yield n, _make(cond, tuple(coords), den) if any(coords) else None
        elif cond > 1:
            if hits is None:
                span = top * width
                hits = (sum(counts) & ((1 << (8 * span)) - 1)).to_bytes(span, "little")
            if not hits.startswith(zero[:width], n * width):
                yield n, None


def oracle_slash_expand(f: QExp, k: int, m) -> QExp:
    a, b, d = m
    scale = Fraction((a * d) ** (k // 2), d**k)
    hd = f.h * d
    terms = {}
    for n, c in f.terms.items():
        coeff = scale * c
        ph = (n * b) % hd
        if ph:
            g = math.gcd(ph, hd)
            coeff = coeff * CycNum.zeta(hd // g, ph // g)
        terms[n * a] = coeff
    return QExp(hd, f.prec * Fraction(a, d), terms)


# per kind of series, the conductors its coefficients are drawn from; an
# entry's joint conductor is 1, 3, 4, 6 or 12
SERIES_KINDS = [(1,), (1, 3), (3,), (1, 4), (2, 3), (1, 6), (1, 3, 4), (12,), (1, 3, 6)]


def kind_series(rng, kind, size=9, max_terms=12):
    h = rng.choice([1, 3])
    prec = Fraction(rng.randint(2, 20), rng.choice([1, 2, 3]))
    terms = {rng.randrange(math.ceil(prec * h) + 2): random_coefficient(rng, rng.choice(kind), size)
             for _ in range(rng.randint(0, max_terms))}
    return QExp(h, prec, terms)


def mixed_rows(rng, series, count):
    """Rows of scalar entries (rational or at conductor 3, 4, 6 or 12) and
    series entries, with zero entries between them."""
    def entry():
        pick = rng.random()
        if pick < 0.25:
            return 0
        if pick < 0.5:
            return kind_series(rng, rng.choice(SERIES_KINDS))
        if pick < 0.65:
            return Fraction(rng.randint(-9, 9), rng.choice([1, 2, 7]))
        return random_coefficient(rng, rng.choice((1, 3, 4, 6, 12)), 9)
    return [[entry() for _ in series] for _ in range(count)]


@pytest.mark.parametrize("seed", range(8))
def test_combine_matches_the_pair_by_pair_oracle_bytes(seed):
    rng = random.Random(f"oracle/{seed}")
    # near 10**40 the products of slots need more than 256 bits
    size = 10**40 if seed % 4 == 3 else 9
    for _ in range(12):
        series = [kind_series(rng, rng.choice(SERIES_KINDS), size) for _ in range(rng.randint(1, 4))]
        rows = mixed_rows(rng, series, rng.randint(1, 5))
        got, want = combine(rows, series), oracle_combine(rows, series)
        assert [json_bytes(q) for q in got] == [json_bytes(q) for q in want]


def folded_signs(cond: int, rng) -> tuple:
    """Sign vectors s, t of phi(cond) entries whose product folded modulo
    Phi_cond has a coordinate larger than phi(cond) in absolute value, the
    most that the products of coordinate pairs can reach before the fold;
    and that coordinate's size."""
    k, best = euler_phi(cond), (0, None, None)
    for _ in range(400):
        s, t = ([rng.choice((1, -1)) for _ in range(k)] for _ in range(2))
        prods = [0] * (2 * k - 1)
        for i, a in enumerate(s):
            for j, b in enumerate(t):
                prods[i + j] += a * b
        best = max(best, (max(map(abs, _reduce(cond, prods))), s, t))
    return best[1], best[2], best[0]


@pytest.mark.parametrize("cond", [5, 7, 9, 12, 15, 21])
@pytest.mark.parametrize("width", [4, 9])
def test_combine_holds_the_fold_growth_at_the_slot_width_bound(cond, width):
    # three equal terms of coordinates +-big, with phi(cond) * 3 * big^2 just
    # below 2^(8 * width - 1): a width that bounds the products of
    # coordinate pairs but not their fold modulo Phi_cond is this width, and
    # the folded coordinates overflow it
    rng = random.Random(f"fold/{cond}/{width}")
    s, t, most = folded_signs(cond, rng)
    k, count = euler_phi(cond), 3
    assert most > k
    big = math.isqrt(((1 << (8 * width - 1)) - 1) // (k * count))
    assert (k * count * big * big).bit_length() == 8 * width - 1
    x, y = (QExp(1, count, {n: CycNum(cond, [v * big for v in signs]) for n in range(count)})
            for signs in (s, t))
    got, want = combine([[x]], [y]), oracle_combine([[x]], [y])
    assert [json_bytes(q) for q in got] == [json_bytes(q) for q in want]
    assert json_bytes(got[0]) == json_bytes(reference_mul(x, y))
    # a scalar entry at the same conductor and a rational one, in one call
    rows = [[CycNum(cond, s), 0], [x, Fraction(-1, 7)]]
    got, want = combine(rows, [y, x]), oracle_combine(rows, [y, x])
    assert [json_bytes(q) for q in got] == [json_bytes(q) for q in want]


@pytest.mark.parametrize("seed", range(4))
def test_the_oracle_matches_the_termwise_product(seed):
    rng = random.Random(f"oracle-termwise/{seed}")
    for _ in range(30):
        x, y = (kind_series(rng, rng.choice(SERIES_KINDS)) for _ in range(2))
        (want,) = oracle_combine([[x]], [y])
        assert json_bytes(want) == json_bytes(reference_mul(y, x))
        assert json_bytes(x * y) == json_bytes(want)


def test_an_exponent_reached_only_by_rational_pairs_stays_rational():
    z3 = CycNum.zeta(3)
    # q^1 is reached by 2 * 3 only; q^2 by z3 * 1 as well
    a = QExp(1, 4, {0: CycNum.from_rational(2), 2: z3})
    b = QExp(1, 4, {1: CycNum.from_rational(3)})
    prod = a * b
    assert prod.terms[1] == 6 and prod.terms[1].n == 1
    assert prod.terms[3].n == 3
    assert [json_bytes(prod)] == [json_bytes(q) for q in oracle_combine([[a]], [b])]


def test_cancelled_conductor_3_pairs_keep_conductor_3():
    z3 = CycNum.zeta(3)
    # at q^2: z3 * z3 - z3 * z3 = 0 and 1 * 4 = 4, stored at conductor 3
    a = QExp(1, 4, {0: CycNum.one(), 1: z3, 2: -z3})
    b = QExp(1, 4, {0: z3, 1: z3, 2: CycNum.from_rational(4)})
    ((got,), (want,)) = combine([[a]], [b]), oracle_combine([[a]], [b])
    assert got.terms[2] == 4 and got.terms[2].n == 3
    assert json_bytes(got) == json_bytes(want)


@pytest.mark.parametrize("high", [CycNum.zeta(6), CycNum.zeta(4), CycNum.zeta(12, 5)])
def test_a_conductor_3_exponent_inside_a_higher_entry_is_lowered(high, monkeypatch):
    z3 = CycNum.zeta(3)
    # the entry's joint conductor is 6 or 12; q^0 and q^1 are reached by
    # conductor-3 pairs only, q^4 by the higher term
    a = QExp(1, 6, {0: z3, 1: CycNum.from_rational(Fraction(2, 5)), 4: high})
    b = QExp(1, 6, {0: 3 * z3 + 1, 1: CycNum.from_rational(7)})
    calls = []
    lowered = qexp._lowered
    monkeypatch.setattr(qexp, "_lowered", lambda n, m, *rest: calls.append((n, m)) or lowered(n, m, *rest))
    ((got,), (want,)) = combine([[a]], [b]), oracle_combine([[a]], [b])
    cond = math.lcm(3, high.n)
    assert (cond, 3) in calls
    assert got.terms[0].n == got.terms[1].n == 3 and got.terms[4].n == cond
    assert json_bytes(got) == json_bytes(want) == json_bytes(reference_mul(b, a))


def delta_triples(M):
    return [(a, b, M // a) for a in divisors(M) for b in range(M // a)]


@pytest.mark.parametrize("M", range(1, 7))
def test_slash_expand_matches_the_cycnum_oracle_on_every_coset(M):
    rng = random.Random(f"slash/{M}")
    for _ in range(6):
        h = rng.choice([1, 2, 3])
        f = QExp(h, rng.randint(1, 6), {rng.randrange(6 * h): random_coefficient(
            rng, rng.choice((1, 3, 4)), 40) for _ in range(rng.randint(0, 12))})
        for k in (2, 4, 12):
            for m in delta_triples(M):
                assert json_bytes(slash_expand(f, k, m)) == json_bytes(oracle_slash_expand(f, k, m))


def bytearray_pack(rows: list, top: int, width: int) -> list:
    # the packer as it was: per coordinate, one bytearray of the positive
    # coordinates and one of the negated negative ones, written term by term
    out, size = [], (top + 1) * width
    for l in range(len(rows[0][1])):
        pos, neg = bytearray(size), bytearray(size)
        for n, coords in rows:
            x, at = coords[l], n * width
            if x > 0:
                pos[at : at + width] = x.to_bytes(width, "little")
            elif x < 0:
                neg[at : at + width] = (-x).to_bytes(width, "little")
        out.append(int.from_bytes(pos, "little") - int.from_bytes(neg, "little"))
    return out


def slot_decode(accs: list, top: int, width: int):
    # the decoder as it was: a generator over the slots, each kept when any
    # coordinate is nonzero there
    half = 1 << (8 * width - 1)
    blank, size = half.to_bytes(width, "little"), top * width
    fill = int.from_bytes(blank * top, "little")
    raws = [((a + fill) & ((1 << (8 * size)) - 1)).to_bytes(size, "little") for a in accs]
    for at in range(0, size, width):
        if not all(raw.startswith(blank, at) for raw in raws):
            yield at // width, tuple(int.from_bytes(raw[at : at + width], "little") - half
                                     for raw in raws)


def random_rows(rng, top: int, phi: int, width: int, density: float) -> list:
    # rows at some n <= top in shuffled order, coordinates below half in
    # absolute value, with the extremes +-(half - 1) and zeros mixed in
    half = 1 << (8 * width - 1)
    ns = [n for n in range(top + 1) if rng.random() < density] or [rng.randint(0, top)]
    rng.shuffle(ns)
    pick = lambda: rng.choice([half - 1, 1 - half, 0, rng.randrange(1 - half, half)])
    return [(n, tuple(pick() for _ in range(phi))) for n in ns]


@pytest.mark.parametrize("width", range(1, 34))
def test_pack_and_decode_match_the_bytearray_packer(width):
    rng = random.Random(f"pack/{width}")
    half = 1 << (8 * width - 1)
    cases = [
        ([(0, (half - 1,))], 0),  # one slot only
        ([(0, (1 - half, half - 1))], 0),
        ([(3, (half - 1, 0)), (0, (1 - half, 1)), (7, (0, 1 - half))], 11),  # gaps, top past the last row
    ]
    for phi in (1, 2, 4):
        for density in (0.2, 0.9):
            top = rng.randint(0, 40)
            cases.append((random_rows(rng, top, phi, width, density), top + rng.randint(0, 3)))
    for rows, top in cases:
        packs = qexp._pack(rows, top, width)
        assert packs == bytearray_pack(rows, top, width)
        # every slot back, nonzero ones only, in exponent order
        want = sorted((n, coords) for n, coords in rows if any(coords))
        got = list(qexp._decode(packs, top + 1, width))
        assert got == want == list(slot_decode(packs, top + 1, width))
        assert all(type(coords) is tuple for _, coords in got)
        # the negated ints, whose slots borrow where the rows' slots carried,
        # and a decode that stops below the last row
        negated = [(n, tuple(-x for x in coords)) for n, coords in want]
        assert list(qexp._decode([-a for a in packs], top + 1, width)) == negated
        cut = max(n for n, _ in rows)
        assert (list(qexp._decode(packs, cut, width)) == list(slot_decode(packs, cut, width))
                == [(n, c) for n, c in want if n < cut])


# -- the packed-slot helpers that `combine_terms`, `hyperalg._Pivots.read`
# and `forms._bracket_row` share


def conductor_terms(rng, limit: int) -> list:
    # distinct exponents below limit, each with a conductor; all of them at
    # times, so that a pair product's slots reach the limit
    ns = range(limit) if rng.random() < 0.2 else rng.sample(range(limit), rng.randint(1, limit))
    return [(n, rng.choice([1, 1, 1, 2, 3, 4, 5, 12])) for n in ns]


@pytest.mark.parametrize("seed", range(6))
def test_the_conductor_indicator_matches_the_pair_loop(seed):
    rng = random.Random(f"marks/{seed}")
    # 127 and 128 exponents sit on either side of a one-byte slot's bound
    for limit in (1, 2, 127, 128, *(rng.randint(1, 60) for _ in range(8))):
        a, b, c = (conductor_terms(rng, limit) for _ in range(3))
        ma, mb, mc = (qexp._marks(x, limit) for x in (a, b, c))
        # one factor: each exponent has its own term's conductor
        conductor = qexp._conductors([ma], limit)
        own = dict(a)
        assert [conductor(n) for n in range(limit + 2)] == [own.get(n, 1) for n in range(limit + 2)]
        # two factors, alone and beside a second pair and a scalar of
        # conductor 7 on the first pair: the lcm over every pair at each sum
        pair, want, reached = qexp._paired(ma, mb), {}, set()
        for n, k in a:
            for m, j in b:
                want[n + m] = math.lcm(want.get(n + m, 1), k, j)
        conductor, sums = qexp._conductors([pair], limit), range(2 * limit)
        assert [conductor(n) for n in sums] == [want.get(n, 1) for n in sums]
        for n, k in b:
            for m, j in c:
                want[n + m] = math.lcm(want.get(n + m, 1), k, j)
                reached.add(n + m)
        second = qexp._paired(mb, mc)
        conductor = qexp._conductors([pair, second, {7: second[0]}], limit)
        assert [conductor(n) for n in sums] == [
            math.lcm(want.get(n, 1), 7 if n in reached else 1) for n in sums]


@pytest.mark.parametrize("seed", range(6))
def test_the_multiply_accumulate_matches_cycnum_arithmetic(seed):
    # sum_t s_t c_t x_t over terms whose series x_t have integer coordinates
    # at n_t | cond, each c_t applied as its integer matrix from n_t to cond
    # and s_t a positive integer, decoded at the width of the slot bound
    rng = random.Random(f"mac/{seed}")
    for _ in range(12):
        cond = rng.choice([1, 3, 4, 5, 12, 15])
        top, size = rng.randint(0, 12), 10 ** rng.choice([1, 2, 30])
        terms, want = [], {}
        for _ in range(rng.randint(1, 4)):
            n, d = rng.choice(divisors(cond)), rng.choice(divisors(cond))
            c = CycNum(d, [rng.randint(-size, size) for _ in range(euler_phi(d))])
            x = {t: CycNum(n, [rng.randint(-size, size) for _ in range(euler_phi(n))])
                 for t in rng.sample(range(top + 1), rng.randint(1, top + 1))}
            m, f = exactnum._multiplication(cond, c.lift(cond).num, n), rng.choice([1, 2, 7, size])
            rows = [(t, exactnum._lift_num(v.num, v.n, n)) for t, v in x.items()]
            terms.append((f, m, rows, max(abs(u) for _, r in rows for u in r)))
            for t, v in x.items():
                want[t] = want[t] + f * c * v if t in want else f * c * v
        width = qexp._slot_width(qexp._slot_bound([(f, m, big) for f, m, _, big in terms]))
        acc = qexp._accumulate([(f, m, qexp._pack(rows, top, width)) for f, m, rows, _ in terms],
                               euler_phi(cond))
        got = {t: CycNum(cond, num) for t, num in qexp._decode(acc, top + 1, width)}
        assert got == {t: v for t, v in want.items() if v}


@pytest.mark.parametrize("cond", [3, 9, 12, 15])
def test_the_slot_bound_holds_a_slot_that_fills_its_row_sum(cond):
    # packed coordinates +-big with the signs of the row of m whose absolute
    # sum R is largest make that slot R * big, just past 2^31: the slot bound
    # picks 5-byte slots, where a bound from m's largest entry would pick 4
    m = exactnum._multiplication(cond, CycNum(cond, [1] * euler_phi(cond)).num, cond)
    i, row = max(enumerate(m), key=lambda r: sum(map(abs, r[1])))
    R, big = sum(map(abs, row)), (1 << 31) // sum(map(abs, row)) + 1
    assert R * big >= 1 << 31 > big * max(abs(v) for r in m for v in r)
    coords = tuple(big if v > 0 else -big if v < 0 else 0 for v in row)
    width = qexp._slot_width(qexp._slot_bound([(1, m, big)]))
    acc = qexp._accumulate([(1, m, qexp._pack([(0, coords)], 0, width))], euler_phi(cond))
    (got,) = [num for _, num in qexp._decode(acc, 1, width)]
    assert width == 5 and got[i] == R * big
    assert got == tuple(sum(map(operator.mul, r, coords)) for r in m)


# -- the one renderer of a sum of terms against the renderers it replaced ----
# `CycNum.__str__` and `QExp.to_text` each wrote their sums by hand, with the
# same elision of 1 and -1 and the same sign rule; both now go through
# `exactnum._sum_text`, and these are their old bodies.


def hand_rolled_cyc_text(x):
    if x.is_rational():
        return format_rational(x.rational_value())
    parts = []
    for j, cj in enumerate(x.c):
        if cj == 0:
            continue
        var = "" if j == 0 else (f"z{x.n}" if j == 1 else f"z{x.n}^{j}")
        if j == 0:
            parts.append(format_rational(cj))
        elif cj == 1:
            parts.append(var)
        elif cj == -1:
            parts.append(f"-{var}")
        else:
            parts.append(f"{format_rational(cj)}*{var}")
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return f"({out})" if len(parts) > 1 else out


def hand_rolled_qexp_text(q):
    parts = []
    for n in sorted(q.terms):
        cs = hand_rolled_cyc_text(q.terms[n])
        if n == 0:
            parts.append(cs)
        else:
            e = Fraction(n, q.h)
            mono = f"q^({format_rational(e)})" if e != 1 else "q"
            if cs == "1":
                parts.append(mono)
            elif cs == "-1":
                parts.append(f"-{mono}")
            else:
                parts.append(f"{cs}*{mono}")
    body = " + ".join(parts).replace("+ -", "- ") if parts else "0"
    return f"{body} + O(q^({format_rational(q.prec)}))"


COORDS = (0, 0, 0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2))


def test_cycnum_text_matches_the_hand_rolled_renderer():
    rng = random.Random(46)
    xs = [CycNum.zero(), CycNum(6, [0, 0]), CycNum(6, [Fraction(-1, 2), 0]), CycNum(12, [2, 0, 0, 0]),
          CycNum.zeta(3), -CycNum.zeta(3), 2 * CycNum.zeta(12, 3), CycNum.zeta(1)]
    xs += [CycNum(n, [rng.choice(COORDS) for _ in range(euler_phi(n))])
           for n in range(1, 16) for _ in range(150)]
    for x in xs:
        assert str(x) == hand_rolled_cyc_text(x), repr(x)


def test_qexp_text_matches_the_hand_rolled_renderer():
    rng = random.Random(46)
    z3, z4 = CycNum.zeta(3), CycNum.zeta(4)
    coeffs = [1, -1, 2, Fraction(-1, 2), Fraction(3, 7), z3, -z3, -1 + z4, CycNum(12, [0, 0, -1, 0]),
              CycNum(5, [Fraction(-1, 2), 1, 0, -2])]
    qs = [QExp(h, prec, {}) for h in (1, 2, 3, 6) for prec in (1, Fraction(5, 2))]
    for h in (1, 2, 3, 6):
        for _ in range(150):
            ns = {0, h, *rng.sample(range(1, 4 * h), rng.randint(0, 3))}
            terms = {n: rng.choice(coeffs) for n in rng.sample(sorted(ns), rng.randint(1, len(ns)))}
            qs.append(QExp(h, rng.choice([Fraction(1, 2), 2, Fraction(7, 2), 4]), terms))
    assert any(0 in q.terms and q.h in q.terms and len(q.terms) > 2 for q in qs)
    for q in qs:
        assert q.to_text() == hand_rolled_qexp_text(q), q.to_json()
