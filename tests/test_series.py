from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theta5 import series as ser
from theta5.cyclotomic import Cyclotomic, cyclo_root, reduction_matrix
from theta5.series import ExponentPair, PuiseuxSeries2
from theta5.verify import _scaled


def S(terms, cutoff=None):
    return PuiseuxSeries2.from_terms(terms, cutoff)


# -- basics ---------------------------------------------------------------------

def test_coeff_and_items_order():
    s = S([(1, 0, 2), (Fraction(1, 2), 1, 3), (Fraction(1, 2), -1, 5)], 4)
    keys = [e for e, _ in s.items()]
    assert keys == sorted(keys)
    assert s.coeff(1, 0) == 2
    assert s.coeff(3, 0) == 0       # inside the window: a true zero
    with pytest.raises(ValueError):
        s.coeff(5, 0)               # beyond the cutoff: unknown


def test_add_takes_min_cutoff():
    a = S([(0, 0, 1)], 3)
    b = S([(1, 0, 1)], 5)
    assert (a + b).cutoff == 3
    assert (a + S([(1, 0, 1)])).cutoff == 3  # exact polynomial adapts


def test_mul_cutoff_rule():
    # cutoffs 3 and 5 with min_x 0 on both: product trustworthy to min(3,5)
    a = S([(0, 0, 1), (3, 0, 1)], 3)
    b = S([(0, 0, 1), (5, 0, 1)], 5)
    assert (a * b).cutoff == 3
    # lower-bound metadata never extends past the smaller window: the result
    # cutoff is conservatively clamped to min of the two cutoffs
    b2 = S([(2, 0, 1), (5, 0, 1)], 5)
    assert (a * b2).cutoff == 3
    # exact polynomials multiply exactly
    assert (S([(1, 0, 1)]) * S([(2, 0, 1)])).cutoff is None


def test_mul_simple():
    a = S([(0, 0, 1), (1, 0, -1)], 6)          # 1 - x
    b = S([(k, 0, 1) for k in range(7)], 6)    # geometric series
    assert (a * b).items() == [(ExponentPair(Fraction(0), Fraction(0)),
                                Cyclotomic.one())]


def test_parity_map():
    s = S([(1, 2, 3), (1, -2, 5)], 4)
    t = s.map_z_negate()
    assert t.coeff(1, 2) == 5
    assert t.coeff(1, -2) == 3


def test_pow_matches_repeated_mul():
    s = S([(0, 0, 1), (Fraction(1, 5), 1, cyclo_root(1, 5))], 3)
    p = s * s * s * s * s
    assert (s ** 5 - p).scrubbed().is_zero()


def test_to_text_is_deterministic():
    s = S([(Fraction(1, 2), -1, cyclo_root(1, 4)), (0, 0, Fraction(3, 2))], 2)
    assert s.to_text() == s.to_text()
    assert s.to_text().splitlines()[0].startswith("0 0 ")


# -- brute-force convolution oracle ----------------------------------------------

exps = st.builds(Fraction, st.integers(0, 12), st.sampled_from([1, 2, 5]))
coeffs = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 4))


@st.composite
def small_series(draw):
    n = draw(st.integers(1, 5))
    cut = Fraction(draw(st.integers(3, 8)))
    terms = {}
    for _ in range(n):
        x = draw(exps)
        if x > cut:
            continue
        z = Fraction(draw(st.integers(-3, 3)))
        c = draw(coeffs) * cyclo_root(draw(st.integers(0, 4)), 5)
        key = ExponentPair(x, z)
        terms[key] = terms.get(key, Cyclotomic.zero()) + c
    return PuiseuxSeries2(terms, cut)


def brute_mul(a, b):
    cut = a.cutoff if b.cutoff is None else (
        b.cutoff if a.cutoff is None else None)
    out = {}
    for (ea, ca) in a.items():
        for (eb, cb) in b.items():
            key = ExponentPair(ea.xExp + eb.xExp, ea.zExp + eb.zExp)
            out[key] = out.get(key, Cyclotomic.zero()) + ca * cb
    return out


@settings(max_examples=60, deadline=None)
@given(small_series(), small_series())
def test_mul_matches_bruteforce(a, b):
    got = a * b
    want = brute_mul(a, b)
    for e, c in got.items():
        assert c == want.get(e, Cyclotomic.zero())
    for e, c in want.items():
        if got.cutoff is None or e.xExp <= got.cutoff:
            assert got.coeff(e.xExp, e.zExp) == c


@settings(max_examples=30, deadline=None)
@given(small_series(), small_series(), small_series())
def test_mul_is_distributive_within_window(a, b, c):
    lhs = a * (b + c)
    rhs = a * b + a * c
    cut = min(x for x in (lhs.cutoff, rhs.cutoff) if x is not None) \
        if (lhs.cutoff is not None or rhs.cutoff is not None) else None
    diff = (lhs - rhs) if cut is None else (lhs - rhs).truncate(cut)
    assert diff.scrubbed().is_zero()


# -- the packed kernel against the Fraction oracle -------------------------------

def generic_mul(a, b, cut):
    """Reference product of two term mappings: Cyclotomic arithmetic term by
    term, keeping every product with x-exponent at most `cut` (all of them
    when cut is None)."""
    small, big = (a, b) if len(a) <= len(b) else (b, a)
    big_items = sorted(big.items(), key=lambda kv: kv[0].xExp)
    out = {}
    for e1, c1 in small.items():
        lim = None if cut is None else cut - e1.xExp
        for e2, c2 in big_items:
            if lim is not None and e2.xExp > lim:
                break
            key = ExponentPair(e1.xExp + e2.xExp, e1.zExp + e2.zExp)
            prod = c1 * c2
            if key in out:
                s = out[key] + prod
                if s.coeffs:
                    out[key] = s
                else:
                    del out[key]
            elif prod.coeffs:
                out[key] = prod
    return out


def assert_matches_oracle(a, b):
    fast = a * b
    slow = PuiseuxSeries2(generic_mul(a.terms, b.terms, fast.cutoff),
                          fast.cutoff, _scrub=False)
    # same positions (both drop exactly the sums that cancel term by term)
    # and equal values at each
    assert set(fast.terms) == set(slow.terms)
    assert (fast - slow).scrubbed().is_zero()


mixed_orders = st.sampled_from([1, 2, 3, 4, 5, 12, 20])
signed_exps = st.builds(Fraction, st.integers(-12, 12),
                        st.sampled_from([1, 2, 3, 5]))


@st.composite
def mixed_series(draw, magnitude=9, orders=mixed_orders):
    """Negative and fractional exponents, coefficients over several orders,
    with or without a cutoff."""
    cut = draw(st.none() | st.builds(Fraction, st.integers(-4, 16),
                                     st.sampled_from([1, 2, 3])))
    terms = {}
    for _ in range(draw(st.integers(1, 6))):
        key = ExponentPair(draw(signed_exps),
                           Fraction(draw(st.integers(-3, 3)),
                                    draw(st.sampled_from([1, 2]))))
        order = draw(orders)
        c = cyclo_root(draw(st.integers(0, order - 1)), order) * Fraction(
            draw(st.integers(-magnitude, magnitude).filter(bool)),
            draw(st.integers(1, 6)))
        terms[key] = terms.get(key, Cyclotomic.zero()) + c
    return PuiseuxSeries2(terms, cut)


@settings(max_examples=150, deadline=None)
@given(mixed_series(), mixed_series(magnitude=2 ** 40))
def test_kernel_matches_oracle(a, b):
    assert_matches_oracle(a, b)


@settings(max_examples=40, deadline=None)
@given(mixed_series(magnitude=2 ** 70), mixed_series(magnitude=2 ** 70))
def test_kernel_object_path_matches_oracle(a, b):
    (pa, _), (pb, _) = ser.pack(a.terms), ser.pack(b.terms)
    (pa, pb), _ = ser.on_common_grid([pa, pb])
    big = max((abs(v) for s in (a, b) for c in s.terms.values()
               for v in c.coeffs.values()), default=0)
    if a.terms and b.terms and big >= 2 ** 62:
        assert ser.packed_mul(pa, pb).c.dtype == object
    assert_matches_oracle(a, b)


def test_kernel_matches_oracle_past_4096_pairs():
    def dense(n, order, cutoff):
        return PuiseuxSeries2(
            {ExponentPair(Fraction(i, 2), Fraction(i % 3 - 1)):
             cyclo_root(i % order, order) * (i + 1) for i in range(n)},
            Fraction(cutoff))
    a, b = dense(80, 20, 60), dense(70, 12, 60)
    assert len(a.terms) * len(b.terms) > 4096
    assert_matches_oracle(a, b)


# -- the view's arithmetic against the dict reference ------------------------------
# The reference for PuiseuxSeries2's operations: the same operations on a
# dict ExponentPair -> Cyclotomic in Cyclotomic arithmetic.  Each takes and
# gives a (terms, cutoff, min_x) triple; `kept` is what the dict constructor
# keeps without its scrub: the terms up to the cutoff that are not empty.

def kept(terms, cutoff):
    return {e: c for e, c in terms.items()
            if (cutoff is None or e.xExp <= cutoff) and c.coeffs}


def ref_add(a, b):
    (ta, ca, ma), (tb, cb, mb) = a, b
    cuts = [c for c in (ca, cb) if c is not None]
    cut = min(cuts) if cuts else None
    out = dict(ta)
    for e, c in tb.items():
        out[e] = out[e] + c if e in out else c
    return kept(out, cut), cut, min(ma, mb)


def ref_scale(a, c):
    terms, cut, min_x = a
    return kept({e: v * c for e, v in terms.items()}, cut), cut, min_x


def ref_shift_exponents(a, dx, dz):
    terms, cut, min_x = a
    cut = None if cut is None else cut + dx
    return kept({ExponentPair(e.xExp + dx, e.zExp + dz): c
                 for e, c in terms.items()}, cut), cut, min_x + dx


def ref_map_z_negate(a):
    terms, cut, min_x = a
    return {ExponentPair(e.xExp, -e.zExp): c for e, c in terms.items()}, cut, min_x


def ref_truncate(a, cutoff):
    terms, cut, min_x = a
    if cut is not None and cut <= cutoff:
        return a
    return kept(terms, cutoff), cutoff, min_x


def ref_scrubbed(a):
    terms, cut, min_x = a
    return {e: c for e, c in terms.items() if not c.is_zero()}, cut, min_x


scalars = st.lists(st.tuples(mixed_orders, st.integers(0, 59), coeffs),
                   max_size=3).map(lambda entries: sum(
                       (cyclo_root(k, order) * c for order, k, c in entries),
                       Cyclotomic.zero()))


@settings(max_examples=150, deadline=None)
@given(small_series() | mixed_series(), small_series() | mixed_series(),
       scalars, signed_exps, st.builds(Fraction, st.integers(-3, 3),
                                       st.sampled_from([1, 2])),
       st.builds(Fraction, st.integers(-4, 16), st.sampled_from([1, 2, 3])))
def test_view_ops_match_the_dict_reference(a, b, c, dx, dz, cut):
    ra, rb = ((s.terms, s.cutoff, s.min_x) for s in (a, b))
    for got, (terms, cutoff, min_x) in (
            (a + b, ref_add(ra, rb)),
            (a - b, ref_add(ra, ref_scale(rb, Cyclotomic.from_rational(-1)))),
            (a.scale(c), ref_scale(ra, c)),
            (a.shift_exponents(dx, dz), ref_shift_exponents(ra, dx, dz)),
            (a.map_z_negate(), ref_map_z_negate(ra)),
            (a.truncate(cut), ref_truncate(ra, cut)),
            (a.scrubbed(), ref_scrubbed(ra))):
        assert (got.cutoff, got.min_x) == (cutoff, min_x)
        assert (np.diff(got.packed.key) > 0).all()   # sorted and distinct
        assert got.terms.keys() == terms.keys()
        assert all(got.terms[e] == v for e, v in terms.items())


# -- the int64-key kernel --------------------------------------------------------

key_orders = st.sampled_from([1, 5, 100, 397, 400])


def as_terms(p):
    """The terms of a Packed series, entry by entry, each coefficient on
    p's order (PuiseuxSeries2.terms would write it on its own)."""
    terms = {}
    for ix, iz, k, c in zip(p.ix.tolist(), p.iz.tolist(), p.k.tolist(),
                            p.c.tolist()):
        e = ExponentPair(Fraction(ix, p.dx), Fraction(iz, p.dz))
        terms.setdefault(e, {})[k] = Fraction(c)
    return {e: Cyclotomic(p.order, cs) for e, cs in terms.items()}


def build(entries, order, dx=2, dz=3):
    """The Packed series of entries (ix, iz, k, c), equal ones summed."""
    ix, iz, k = (np.array([e[i] for e in entries], np.int64) for i in range(3))
    c = [e[3] for e in entries]
    big = max(map(abs, c), default=0) >= 1 << 61
    l1 = sum(map(abs, c))   # equal entries may sum to it: it bounds max |c| too
    return ser.packed_sum([ser.Packed(
        ser._key(ix, iz, k), np.array(c, object if big else np.int64),
        dx, dz, order, int(np.abs(iz).max(initial=0)), l1, l1)])


@st.composite
def packed_operands(draw):
    """(a, b, icut) on one grid: negative ix and iz, k near the top of the
    order so that sums wrap past it, coefficients past 2^62 in some draws,
    and, with a cutoff, entries of b that land exactly on the cutoff and
    one step past it."""
    order = draw(key_orders)
    ks = st.integers(0, order - 1) | st.integers(max(order - 3, 0), order - 1)
    cs = st.integers(-9, 9).filter(bool)
    if draw(st.booleans()):
        cs = cs | st.integers(1 << 62, 1 << 70) | st.integers(-(1 << 70),
                                                               -(1 << 62))
    entry = st.tuples(st.integers(-6, 6), st.integers(-5, 5), ks, cs)
    a = draw(st.lists(entry, max_size=10))
    b = draw(st.lists(entry, max_size=10))
    icut = draw(st.none() | st.integers(-10, 10))
    if icut is not None and a:
        x = draw(st.sampled_from(a))[0]
        b += [(icut - x + d, draw(st.integers(-5, 5)), draw(ks), draw(cs))
              for d in (0, 1)]
    return build(a, order), build(b, order), icut


def key_entries(p):
    """{(xExp, zExp): {k: c}} of a Packed series, read off its decoded
    fields as they are (no Cyclotomic, which would reduce k mod order)."""
    out = {}
    for ix, iz, k, c in zip(p.ix.tolist(), p.iz.tolist(), p.k.tolist(),
                            p.c.tolist()):
        out.setdefault((Fraction(ix, p.dx), Fraction(iz, p.dz)), {})[k] = c
    return out


@settings(max_examples=200, deadline=None)
@given(packed_operands())
def test_key_kernel_matches_oracle(ops):
    a, b, icut = ops
    got = ser.packed_mul(a, b, icut)
    assert got.key.dtype == np.int64
    assert (np.diff(got.key) > 0).all()        # sorted and distinct
    assert got.c.size == 0 or (got.c != 0).all()
    if a.c.dtype == object and b.c.size and icut is None:
        assert got.c.dtype == object           # while the keys stay int64
    cut = None if icut is None else Fraction(icut, a.dx)
    want = generic_mul(as_terms(a), as_terms(b), cut)
    assert key_entries(got) == {tuple(e): c.coeffs for e, c in want.items()}
    assert ((0 <= got.k) & (got.k < got.order)).all()


def test_key_kernel_cutoff_is_inclusive():
    # x^icut is kept and x^(icut + 1) dropped, with k = 4 + 3 wrapping to 2
    a = build([(0, 0, 4, 1), (-2, 1, 0, 2)], 5, dx=1, dz=1)
    b = build([(3, -1, 3, 1), (4, 0, 0, 1), (6, 0, 0, 1)], 5, dx=1, dz=1)
    got = ser.packed_mul(a, b, 3)
    assert list(zip(got.ix.tolist(), got.iz.tolist(), got.k.tolist(),
                    got.c.tolist())) == [(1, 0, 3, 2), (2, 1, 0, 2),
                                         (3, -1, 2, 1)]


def test_key_kernel_empty_operands():
    a = build([(1, -1, 2, 5)], 5)
    empty = build([], 5)
    for x, y in ((a, empty), (empty, a), (empty, empty)):
        for icut in (None, 0, 10):
            got = ser.packed_mul(x, y, icut)
            assert got.key.size == got.c.size == 0
    assert ser.packed_mul(a, a, 1).key.size == 0   # everything past the cutoff


@st.composite
def one_order_pair(draw):
    """Two mixed series over one order of key_orders, with coefficients
    past 2^62: their product wraps k past the order in about half the pairs."""
    order = st.just(draw(key_orders))
    return [draw(mixed_series(2 ** 66, order)) for _ in range(2)]


@settings(max_examples=80, deadline=None)
@given(one_order_pair())
def test_series_product_wraps_k_like_the_oracle(ab):
    assert_matches_oracle(*ab)


def test_key_range_guard_raises_before_keys_wrap():
    top = ser._XLIM - 1
    near = S([(top // 2, 0, 1), (-(top // 2), 1, 3)])
    sq = near * near                           # fits: keys decode exactly
    assert sq.coeff(2 * (top // 2), 0) == 1
    assert sq.coeff(-2 * (top // 2), 2) == 9
    assert sq.coeff(0, 1) == 6
    with pytest.raises(OverflowError):
        S([(top, 0, 1)]) * S([(1, 0, 1)])       # x-exponent past the key field
    with pytest.raises(OverflowError):
        S([(-top, 0, 1)]) * S([(-1, 0, 1)])
    zmax = ser._ZHALF - 1
    with pytest.raises(OverflowError):
        S([(0, zmax, 1)]) * S([(0, 1, 1)])      # z-exponent past its field
    with pytest.raises(OverflowError):
        ser.pack({ExponentPair(Fraction(0), Fraction(zmax + 1)):
                  Cyclotomic.one()})
    # a k field past MAX_ORDER would spill into the z field
    with pytest.raises(ValueError):
        ser.pack(S([(0, 0, cyclo_root(1, 397)), (1, 0, cyclo_root(1, 5))]).terms)
    with pytest.raises(ValueError):
        S([(0, 0, cyclo_root(1, 397))]) * S([(0, 0, cyclo_root(1, 5))])
    # a finer common grid scales the exponents past the key range
    (a, _), (b, _) = (ser.pack(S([(x, 0, 1)]).terms)
                      for x in (top, Fraction(1, 3)))
    with pytest.raises(OverflowError):
        ser.on_common_grid([a, b])
    # the guard is on the kept range: a cutoff below every product is fine
    p, _ = ser.pack(S([(top, 0, 1)]).terms)
    assert ser.packed_mul(p, p, 0).key.size == 0


# -- carried coefficient bounds --------------------------------------------------

def entries_of(p):
    """{key: c} of a Packed series, in Python ints."""
    return dict(zip(p.key.tolist(), p.c.tolist()))


def ref_fold(key, order):
    return key - order if key & (1 << ser._KB) - 1 >= order else key


def ref_mul(a, b, icut, order):
    """{key: c} of a * b in Python ints, kept to ix <= icut."""
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            if icut is None or ser._split(ka + kb)[0] <= icut:
                key = ref_fold(ka + kb, order)
                out[key] = out.get(key, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def ref_sum(parts):
    out = {}
    for p in parts:
        for k, c in p.items():
            out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def packed(entries, by_pack, order):
    """The Packed series of entries (ix, iz, k, c) on the grid of build,
    through pack (exact bounds) or build (loose ones)."""
    if not by_pack:
        return build(entries, order)
    terms = {}
    for ix, iz, k, c in entries:
        e = ExponentPair(Fraction(ix, 2), Fraction(iz, 3))
        terms[e] = terms.get(e, Cyclotomic.zero(order)) + cyclo_root(k, order) * c
    return ser.pack({e: c for e, c in terms.items() if c.coeffs})[0].regrid(
        2, 3, order)


@st.composite
def bound_chains(draw):
    """(order, start, steps): a packed series and products, scalings by
    one to three entries c * w^k and sums to apply to it in turn, with
    mixed signs and coefficients around 2^31 (products near 2^62) or past
    2^62."""
    order = draw(key_orders)
    cs = (st.integers(-9, 9) | st.integers(-(1 << 32), 1 << 32)
          | st.integers(1 << 62, 1 << 66) | st.integers(-(1 << 66), -(1 << 62)))
    entry = st.tuples(st.integers(-3, 3), st.integers(-2, 2),
                      st.integers(0, order - 1), cs.filter(bool))
    series = st.tuples(st.lists(entry, max_size=6), st.booleans()).map(
        lambda eb: packed(*eb, order))
    step = st.one_of(
        st.tuples(st.just("mul"), series, st.none() | st.integers(-2, 6)),
        st.tuples(st.just("scale"), st.dictionaries(
            st.integers(0, order - 1), cs.filter(bool), min_size=1,
            max_size=3)),
        st.tuples(st.just("sum"), series))
    return order, draw(series), draw(st.lists(step, min_size=1, max_size=4))


@settings(max_examples=200, deadline=None)
@given(bound_chains())
def test_carried_bounds_are_sound(chain):
    order, p, steps = chain
    want = entries_of(p)
    for op, *args in steps:
        if op == "mul":
            q, icut = args
            p, want = ser.packed_mul(p, q, icut), ref_mul(want, entries_of(q),
                                                         icut, order)
        elif op == "scale":
            # the scalar sum of c * w^k over its {k: c}
            scalar, = args
            p = ser.packed_sum([_scaled(p, list(scalar.items()))])
            want = ref_mul(want, scalar, None, order)
        else:
            p, want = (ser.packed_sum([p, args[0]]),
                       ref_sum([want, entries_of(args[0])]))
        assert entries_of(p) == want
        l1, mx = sum(map(abs, want.values())), max(map(abs, want.values()),
                                                   default=0)
        assert p.l1 >= l1 and p.mx >= mx
        if mx >= 1 << 61:
            assert p.c.dtype == object


# -- nonzero positions against the dense matmul -----------------------------------

def dense_nonzero_positions(p):
    """The dense form, in Python ints: one (positions x order) row per
    (ix, iz) position, times reduction_matrix(order)."""
    _, first, row = np.unique(p.key >> ser._KB, return_index=True,
                              return_inverse=True)
    dense = np.zeros((first.size, p.order), object)
    dense[row, p.k] = p.c
    red = reduction_matrix(p.order).astype(object)
    return first[(dense @ red != 0).any(axis=1)]


@st.composite
def reducible_series(draw):
    """Packed series whose positions hold random roots of unity, and in some
    draws c * (w^k + w^(k + N/d) + ... ) over a prime d | N, which is zero
    in Q(zeta_N): positions that vanish only after reduction.  Coefficients
    pass 2^62 in some draws (the object path)."""
    order = draw(st.sampled_from([1, 2, 5, 6, 12, 20, 100]))
    cs = st.integers(-9, 9).filter(bool)
    if draw(st.booleans()):
        cs = cs | st.integers(1 << 62, 1 << 70)
    pos = st.tuples(st.integers(-4, 4), st.integers(-3, 3))
    entries = {(ix, iz, k): c for (ix, iz), k, c in draw(st.lists(
        st.tuples(pos, st.integers(0, order - 1), cs), max_size=12))}
    for (ix, iz), k, c in draw(st.lists(st.tuples(pos, st.integers(
            0, order - 1), cs), max_size=3)):
        d = draw(st.sampled_from([q for q in (2, 3, 5) if order % q == 0]
                                 or [1]))
        for j in range(d):
            entries[ix, iz, (k + j * order // d) % order] = c
    return build([(*e, c) for e, c in entries.items()], order)


@settings(max_examples=200, deadline=None)
@given(reducible_series())
def test_nonzero_positions_match_the_dense_matmul(p):
    got = ser.nonzero_positions(p)
    assert got.tolist() == dense_nonzero_positions(p).tolist()
    assert got.dtype == np.intp


def test_nonzero_positions_of_empty_and_object_series():
    assert ser.nonzero_positions(build([], 5)).tolist() == []
    # 2^70 (1 + w + ... + w^4) is zero mod Phi_5; 2^70 w^0 + 1 w^1 is not
    big = build([(0, 0, k, 1 << 70) for k in range(5)]
                + [(1, 0, 0, 1 << 70), (1, 0, 1, 1)], 5)
    assert big.c.dtype == object
    assert ser.nonzero_positions(big).tolist() == [5]


def test_nonzero_positions_after_big_entries_cancel():
    # the sum keeps the object dtype that its bounds chose, though only small
    # entries are left once the 2^62 ones cancel
    a = build([(0, 0, 0, 1 << 62), (0, 0, 1, 3), (1, 0, 2, 1)], 5)
    b = build([(0, 0, 0, -(1 << 62)), (1, 0, 2, -1), (2, 1, 3, 7)], 5)
    s = ser.packed_sum([a, b])
    assert s.c.dtype == object and max(map(abs, s.c)) < 8
    got = ser.nonzero_positions(s)
    assert got.tolist() == dense_nonzero_positions(s).tolist() == [0, 1]
