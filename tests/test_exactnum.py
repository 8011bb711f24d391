import json
import math
import random
from fractions import Fraction

import pytest

from vvmf import exactnum
from vvmf.exactnum import (
    CycNum,
    _embed,
    _lowered,
    _reduce,
    bernoulli,
    cyclotomic_poly,
    divisors,
    euler_phi,
    format_rational,
    parse_rational,
    prime_divisors,
)


def bernoulli_oracle(n):
    # double-sum formula, independent of the recurrence in the implementation
    acc = Fraction(0)
    for k in range(n + 1):
        inner = Fraction(0)
        for j in range(k + 1):
            inner += (-1) ** j * math.comb(k, j) * Fraction(j**n if n else 1)
        acc += inner / (k + 1)
    return acc


def test_cyclotomic_trivial_identities():
    z3 = CycNum.zeta(3)
    assert z3 + z3 * z3 == CycNum.from_rational(-1)
    i = CycNum.zeta(4)
    assert (1 + i) * (1 - i) == CycNum.from_rational(2)


def test_lift_then_lower_is_identity():
    z3 = CycNum.zeta(3)
    lifted = z3.lift(12)
    assert lifted == CycNum.zeta(12, 4)
    back = lifted.reduce_conductor()
    assert back.n == 3 and back == z3


def test_reduce_conductor_finds_minimal_field():
    # zeta_6 = 1 + zeta_3
    z6 = CycNum.zeta(6)
    red = z6.reduce_conductor()
    assert red.n == 3
    assert red == CycNum.zeta(3) + 1
    # rationals drop all the way to conductor 1
    r = CycNum(12, [Fraction(7, 2)] + [0] * (euler_phi(12) - 1))
    assert r.reduce_conductor().n == 1


def test_is_rational_matches_power_basis_coordinates():
    z = CycNum.zeta(5)
    assert not z.is_rational()
    prod = z * z.inverse()
    assert prod.is_rational() and prod.rational_value() == 1
    x = CycNum.zeta(3) + CycNum.zeta(3, 2)  # equals -1 after reduction
    assert x.is_rational() and x.rational_value() == -1


def test_conjugation_inverts_roots_of_unity():
    z = CycNum.zeta(5)
    assert z.conjugate() == CycNum.zeta(5, 4)
    assert z.conjugate().conjugate() == z
    a = 2 + 3 * CycNum.zeta(7)
    b = 1 - CycNum.zeta(7, 3)
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_division_errors_on_zero():
    with pytest.raises(ZeroDivisionError):
        CycNum.one() / CycNum.zero()
    with pytest.raises(ZeroDivisionError):
        CycNum.zeta(5) / 0


def random_cyc(rng, n):
    return CycNum(n, [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(euler_phi(n))])


@pytest.mark.parametrize("m, n", [(1, 30), (3, 12), (4, 40), (5, 60), (7, 2520), (12, 12)])
def test_inverse_is_taken_in_the_least_field(m, n):
    # an element of Q(zeta_m) written at n keeps n, and its inverse is the
    # inverse in Q(zeta_m) lifted to n, digit for digit
    rng = random.Random(f"least/{m}/{n}")
    for _ in range(4):
        x = (random_cyc(rng, m) + rng.randint(7, 9)).lift(n)
        inv = x.inverse()
        want = x.reduce_conductor().inverse().lift(n)
        assert inv.n == n and x * inv == 1
        assert (inv.n, inv.num, inv.den) == (want.n, want.num, want.den)


def test_inverse_cost_follows_the_least_field(monkeypatch):
    # 2 + zeta_7 written at 2520 takes phi(7) = 6 products in Q(zeta_7), not one
    # per unit mod 2520; the count stops at a seventh, so a walk over all 576 fails fast
    calls = []
    mul = exactnum._mul_num

    def counted(n, x, y):
        calls.append(n)
        assert len(calls) <= euler_phi(7), "the inverse multiplies past phi(7) times"
        return mul(n, x, y)

    x = (CycNum.zeta(7) + 2).lift(2520)
    monkeypatch.setattr(exactnum, "_mul_num", counted)
    inv = x.inverse()
    monkeypatch.undo()
    assert inv.n == 2520 and x * inv == 1 and set(calls) == {7}


def test_reduce_conductor_cost_follows_the_divisor_count(monkeypatch):
    # 2 + zeta_2520 needs its full conductor, so the walk lowers it to each of the
    # 47 proper divisors of 2520 and lifts it back: at most 3 d(2520) = 144 reductions
    # modulo a cyclotomic polynomial; the count stops at the 145th, so building one
    # lowering matrix per divisor fails fast
    calls = []
    reduce = exactnum._reduce

    def counted(n, coeffs):
        calls.append(n)
        assert len(calls) <= 3 * len(divisors(2520)), "reduce_conductor reduces past 3 d(2520) times"
        return reduce(n, coeffs)

    x = CycNum.zeta(2520) + 2
    monkeypatch.setattr(exactnum, "_reduce", counted)
    low = x.reduce_conductor()
    monkeypatch.undo()
    assert (low.n, low.num, low.den) == (2520, x.num, x.den)
    z3 = CycNum.zeta(3)
    red = z3.lift(2520).reduce_conductor()
    assert (red.n, red.num, red.den) == (3, z3.num, z3.den) and hash(z3.lift(2520)) == hash(z3)


@pytest.mark.parametrize("conductor", [1, 3, 4, 5, 12])
def test_field_axioms_random(conductor):
    rng = random.Random(1000 + conductor)
    for _ in range(12):
        a, b, c = (random_cyc(rng, conductor) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + (-a) == CycNum.zero()
        if not a.is_zero():
            assert a * a.inverse() == CycNum.one()
            assert (b / a) * a == b


def test_cross_conductor_arithmetic_lands_in_lcm():
    x = CycNum.zeta(3) + CycNum.zeta(4)
    assert x.n == 12
    assert x - CycNum.zeta(4) == CycNum.zeta(3)


def test_equality_is_conductor_independent():
    one_at_12 = CycNum(12, [1] + [0] * (euler_phi(12) - 1))
    assert one_at_12 == CycNum.one()
    assert hash(one_at_12) == hash(CycNum.one())


def test_rational_text_round_trip():
    for s in ["3/4", "-7", "0", "22/7", "-5/9"]:
        assert format_rational(parse_rational(s)) == s


def test_cycnum_json_round_trip():
    rng = random.Random(7)
    for n in (1, 3, 8, 12):
        x = random_cyc(rng, n)
        assert CycNum.from_json(json.loads(json.dumps(x.to_json()))) == x


def test_cyclotomic_polynomials():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_cyclotomic_coefficients_outside_minus_one_to_one():
    # the sympy comparison stops at n = 60, where every coefficient is -1, 0
    # or 1; 105 = 3 * 5 * 7 is the first n with another coefficient
    big = [(j, c) for j, c in enumerate(cyclotomic_poly(105)) if abs(c) > 1]
    assert big == [(7, -2), (41, -2)]
    assert max(cyclotomic_poly(165)) == 2
    assert (min(cyclotomic_poly(385)), max(cyclotomic_poly(385))) == (-3, 2)
    assert {-3, 3} <= set(cyclotomic_poly(1155))
    # x^n - 1 is the product of Phi_d over the divisors d of n
    for n in (105, 165, 385, 1155):
        prod = [1]
        for d in divisors(n):
            prod = _poly_mul(prod, cyclotomic_poly(d))
        assert prod == [-1] + [0] * (n - 1) + [1], n


def test_bernoulli_trivial_and_derived():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)
    for n in range(0, 41):
        assert bernoulli(n) == bernoulli_oracle(n), n


def test_cyclotomic_poly_and_bernoulli_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for n in range(1, 61):
        ref = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert cyclotomic_poly(n) == tuple(int(c) for c in ref), n
    # sympy takes B_1 = +1/2; this package uses B_1 = -1/2
    assert bernoulli(1) == -Fraction(str(sympy.bernoulli(1)))
    for k in [0] + list(range(2, 61)):
        assert bernoulli(k) == Fraction(str(sympy.bernoulli(k))), k


# -- differential tests against a Fraction-coordinate reference -------------
#
# The reference keeps an element as a list of Fraction coordinates in the
# power basis of Q(zeta_n) and does every operation the schoolbook way.

CONDUCTORS = (1, 3, 4, 5, 12)


def ref_reduce(n, coeffs):
    mod = cyclotomic_poly(n)
    deg = len(mod) - 1
    work = [Fraction(x) for x in coeffs]
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        for j in range(deg + 1):
            work[i - deg + j] -= c * mod[j]
    work = work[:deg]
    return work + [Fraction(0)] * (deg - len(work))


def ref_mul(n, a, b):
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return ref_reduce(n, prod)


def ref_lift(a, n, m):
    step = m // n
    out = [Fraction(0)] * (len(a) * step)
    for j, x in enumerate(a):
        out[j * step] += x
    return ref_reduce(m, out)


def ref_inverse(n, a):
    # solve a * x = 1 through the matrix of multiplication by a
    k = euler_phi(n)
    unit = [[Fraction(int(i == j)) for i in range(k)] for j in range(k)]
    cols = [ref_mul(n, a, e) for e in unit]
    aug = [[cols[j][i] for j in range(k)] + [Fraction(int(i == 0))] for i in range(k)]
    for c in range(k):
        p = next(r for r in range(c, k) if aug[r][c])
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [v / aug[c][c] for v in aug[c]]
        for r in range(k):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[c])]
    return [row[k] for row in aug]


def ref_conjugate(n, a):
    out = [Fraction(0)] * n
    for j, x in enumerate(a):
        out[(-j) % n] += x
    return ref_reduce(n, out)


def coords(x, m=None):
    """Fraction coordinates of x, lifted by the reference to conductor m."""
    c = [Fraction(a, x.den) for a in x.num]
    return c if m is None or m == x.n else ref_lift(c, x.n, m)


def assert_canonical(x):
    assert len(x.num) == euler_phi(x.n)
    assert all(type(a) is int for a in x.num) and type(x.den) is int
    assert x.den > 0 and math.gcd(x.den, *x.num) == 1
    # one common denominator: the lcm of the coordinates' denominators
    assert x.den == math.lcm(*(Fraction(a, x.den).denominator for a in x.num))


def random_elements(rng, n, count):
    """Zero, one, then random elements: some coordinates zero, some huge."""
    out = [CycNum.zero().lift(n), CycNum.one().lift(n)]
    while len(out) < count:
        top = 10**12 if rng.random() < 0.2 else 6
        c = [Fraction(rng.randint(-top, top), rng.randint(1, 30)) for _ in range(euler_phi(n))]
        out.append(CycNum(n, [q if rng.random() < 0.8 else 0 for q in c]))
    return out


@pytest.mark.parametrize("n1", CONDUCTORS)
@pytest.mark.parametrize("n2", CONDUCTORS)
def test_ring_ops_match_fraction_reference(n1, n2):
    rng = random.Random(f"ring/{n1}/{n2}")
    m = math.lcm(n1, n2)
    for a, b in zip(random_elements(rng, n1, 8), random_elements(rng, n2, 8)):
        ca, cb = coords(a, m), coords(b, m)
        for got, want in (
            (a + b, [x + y for x, y in zip(ca, cb)]),
            (a - b, [x - y for x, y in zip(ca, cb)]),
            (a * b, ref_mul(m, ca, cb)),
            (-a, [-x for x in ca]),
        ):
            assert_canonical(got)
            assert coords(got, m) == want
        assert (a + b).n == (a - b).n == (a * b).n == m


@pytest.mark.parametrize("n", CONDUCTORS)
def test_inverse_conjugate_lift_match_fraction_reference(n):
    rng = random.Random(f"unary/{n}")
    for a in random_elements(rng, n, 10):
        ca = coords(a)
        conj = a.conjugate()
        assert_canonical(conj)
        assert coords(conj) == ref_conjugate(n, ca)
        for m in (n, 2 * n, 3 * n):
            up = a.lift(m)
            assert_canonical(up)
            assert up.n == m and coords(up) == ref_lift(ca, n, m)
        if a.is_zero():
            continue
        inv = a.inverse()
        assert_canonical(inv)
        assert coords(inv) == ref_inverse(n, ca)
        assert coords(a / a) == coords(CycNum.one(), n)


@pytest.mark.parametrize("n", CONDUCTORS)
def test_reduce_conductor_matches_fraction_reference(n):
    rng = random.Random(f"reduce/{n}")
    for a in random_elements(rng, n, 6):
        low = a.reduce_conductor()
        assert_canonical(low)
        assert n % low.n == 0 and coords(low, n) == coords(a)
        for m in (2 * n, 3 * n):
            # the same element built from reference coordinates at conductor m
            up = CycNum(m, ref_lift(coords(a), n, m))
            red = up.reduce_conductor()
            assert (red.n, coords(red)) == (low.n, coords(low))
            assert up == a and hash(up) == hash(a)


def test_conductor_12_elements_lower_to_their_own_field():
    # 1 + zeta_12^3 = 1 + i lowers to 4 and 2 - zeta_12^2 = 2 - zeta_6 to 3;
    # zeta_12 - zeta_12^3 = zeta_12^-1 lies in no smaller field
    for coeffs, want in [((1, 0, 0, 1), 4), ((0, 1, 0, -1), 12), ((2, 0, -1, 0), 3)]:
        x = CycNum(12, list(coeffs))
        low = x.reduce_conductor()
        assert_canonical(low)
        assert low.n == want and low == x and low.lift(12).num == x.num


def test_lowering_inverts_the_lift_for_every_divisor():
    """For every n <= 60, n = 840 and n = 2520, and every m | n, an element
    built at m and lifted to n reduces to the same value and hash at a
    conductor dividing m, and _lowered(n, m, ...) gives it back at m (m == n
    and m == 1 included).  840 and 2520 run both steps of the prime walk,
    p | n / p and p prime to n / p, at large conductors."""
    rng, again = random.Random("lowering"), random.Random("lowered")
    for n in [*range(1, 61), 840, 2520]:
        for m in divisors(n):
            for x in random_elements(rng, m, 3):
                red = x.lift(n).reduce_conductor()
                assert_canonical(red)
                assert m % red.n == 0 and red == x and hash(red) == hash(x), (n, m)
                own = x.reduce_conductor()
                assert (red.n, red.num, red.den) == (own.n, own.num, own.den), (n, m)
            for x in random_elements(again, m, 5)[2:]:
                up = x.lift(n)
                back = _lowered(n, m, up.num, up.den)
                assert (back.n, back.num, back.den) == (m, x.num, x.den), (n, m)


def test_lowering_is_the_reference_left_inverse():
    """For every n <= 60 and m | n, _lowered(n, m, ...) of seeded elements of
    Q(zeta_m) lifted to n equals (L^T L)^-1 L^T applied to their coordinates,
    with L the reference lift matrix from m to n, inverted by linalg."""
    from vvmf.linalg import Matrix

    rng = random.Random("left inverse")
    for n in range(1, 61):
        for m in divisors(n):
            k = euler_phi(m)
            lt = Matrix.from_rows(ref_lift([Fraction(int(i == j)) for i in range(k)], m, n)
                                  for j in range(k))
            ref = [[x.rational_value() for x in r] for r in ((lt * lt.transpose()).inverse() * lt).to_rows()]
            for x in random_elements(rng, m, 4):
                up = x.lift(n)
                want = [sum(a * b for a, b in zip(r, coords(up))) for r in ref]
                got = _lowered(n, m, up.num, up.den)
                assert got.n == m and coords(got) == want, (n, m)


def galois_by_fold(n, num, k):
    """sigma_k on integer coordinates at n by the mod-n fold zeta^j -> zeta^(jk mod n)."""
    out = [0] * n
    for j, a in enumerate(num):
        out[j * k % n] += a
    return _reduce(n, out)


def test_embed_with_step_k_is_the_galois_map():
    """For every n <= 60 and every k < 2n prime to n, k >= n included,
    _embed(x, k, 0, n) is the mod-n fold of sigma_k on seeded elements."""
    rng = random.Random("galois")
    for n in range(1, 61):
        xs = [x.num for x in random_elements(rng, n, 5)]
        for k in range(1, 2 * n):
            if math.gcd(k, n) == 1:
                for num in xs:
                    assert _embed(num, k, 0, n) == galois_by_fold(n, num, k), (n, k)


def test_hash_agrees_with_int_and_fraction():
    for q in (Fraction(0), Fraction(5), Fraction(-7, 3), Fraction(10**20 + 1, 6)):
        assert hash(CycNum(1, [q])) == hash(q)
        assert hash(CycNum(12, [q])) == hash(q)
        assert CycNum(4, [q]) == q
    assert hash(CycNum(1, [9])) == hash(9)
    z = CycNum.zeta(3, 2) - 1
    assert hash(z) == hash(z.lift(12)) == hash(z.lift(15))


def test_constructor_coerces_strings_once():
    x = CycNum(3, ["1/2", "-2/3"])
    assert (x.num, x.den) == ((3, -4), 6)
    assert x.c == (Fraction(1, 2), Fraction(-2, 3))
    # longer input is reduced modulo Phi_3 = 1 + z + z^2
    assert CycNum(3, ["0", "0", "3/4"]) == CycNum(3, [Fraction(-3, 4), Fraction(-3, 4)])
    assert CycNum(12, []).is_zero() and CycNum(12, []).den == 1


@pytest.mark.parametrize("n", CONDUCTORS)
def test_json_round_trip_is_byte_identical(n):
    rng = random.Random(f"json/{n}")
    for a in random_elements(rng, n, 8):
        text = json.dumps(a.to_json())
        back = CycNum.from_json(json.loads(text))
        assert json.dumps(back.to_json()) == text
        assert (back.n, back.num, back.den) == (a.n, a.num, a.den)


@pytest.mark.parametrize("obj", [
    {"n": 4, "c": ["1", "0", "1"]},
    {"n": 1, "c": ["1", "2", "3"]},
    {"n": 1, "c": []},
    {"n": 3, "c": ["1"]},
    # phi(n) is not counted at a huge n for a short list
    {"n": 10**30, "c": ["1"]},
])
def test_json_needs_exactly_phi_n_coordinates(obj):
    with pytest.raises(ValueError, match=f'conductor {obj["n"]} must have phi'):
        CycNum.from_json(obj)


def hypothesis_elements():
    """(hypothesis, a strategy of elements over CONDUCTORS); skips without hypothesis."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    fractions = st.fractions(max_denominator=50).filter(lambda q: abs(q.numerator) < 10**6)

    @st.composite
    def elements(draw):
        n = draw(st.sampled_from(CONDUCTORS))
        k = euler_phi(n)
        return CycNum(n, draw(st.lists(fractions, min_size=k, max_size=k)))

    return hyp, elements


def test_ring_ops_match_fraction_reference_hypothesis():
    hyp, elements = hypothesis_elements()

    @hyp.settings(max_examples=60, deadline=None, database=None)
    @hyp.given(elements(), elements())
    def check(a, b):
        m = math.lcm(a.n, b.n)
        prod = a * b
        assert_canonical(prod)
        assert coords(prod, m) == ref_mul(m, coords(a, m), coords(b, m))
        assert coords(a - b, m) == [x - y for x, y in zip(coords(a, m), coords(b, m))]
        if not b.is_zero():
            assert (a / b) * b == a

    check()


def test_field_axioms_hypothesis():
    hyp, elements = hypothesis_elements()
    zero, one = CycNum.zero(), CycNum.one()

    @hyp.settings(max_examples=60, deadline=None, database=None)
    @hyp.given(elements(), elements(), elements())
    def check(a, b, c):
        assert a + b == b + a and a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a and a * one == a
        assert (a + -a).is_zero() and a - a == zero
        if not a.is_zero():
            assert a * a.inverse() == one and (b / a) * a == b

    check()


def test_lift_and_reduce_conductor_round_trip_hypothesis():
    hyp, elements = hypothesis_elements()
    st = pytest.importorskip("hypothesis.strategies")

    def key(x):
        return x.n, x.num, x.den

    @hyp.settings(max_examples=80, deadline=None, database=None)
    @hyp.given(elements(), st.integers(1, 4))
    def check(a, k):
        low = a.reduce_conductor()
        assert_canonical(low)
        assert a.n % low.n == 0 and key(low.lift(a.n)) == key(a)
        up = a.lift(a.n * k)
        assert_canonical(up)
        assert up == a and hash(up) == hash(a)
        assert key(up.reduce_conductor()) == key(low)
        assert key(up.lift(a.n * k)) == key(up)

    check()


def test_divisors_match_a_scan():
    for n in range(1, 501):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n


def test_prime_divisors_match_a_scan():
    for n in range(1, 501):
        primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]
        assert prime_divisors(n) == primes, n


def test_divisors_match_sympy():
    sympy = pytest.importorskip("sympy")
    for n in (*range(1, 200), 720, 997, 1024, 30030, 99991, 10**6):
        assert divisors(n) == list(sympy.divisors(n)), n


def _phi_by_factorization(n):
    """phi(n) = n prod(1 - 1/p) over the primes p found by trial division."""
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def test_euler_phi_matches_the_factorization():
    for n in range(1, 501):
        assert euler_phi(n) == _phi_by_factorization(n), n
    with pytest.raises(ValueError):
        euler_phi(0)
