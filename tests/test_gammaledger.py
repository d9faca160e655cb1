"""The gamma ledger: one signed multiset of gamma arguments, against the
reference copy that kept numerator and denominator as two sorted tuples."""

import math

from hypothesis import given, strategies as st

import _reference_builders as ref
from fracosc.gammaledger import GammaProduct

#: a few arguments, 1.0 and 2.0 among them, so that chains cancel often
ARGS = st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5, 3.25, 0.7, 4.0])
FACTORS = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
STEPS = st.one_of(
    st.tuples(st.just("ratio"), ARGS, ARGS),
    st.tuples(st.just("times"), st.lists(st.tuples(ARGS, ARGS), max_size=3), FACTORS),
    st.tuples(st.just("scaled"), FACTORS, st.none()),
)


def _apply(g, step, cls):
    kind, a, b = step
    if kind == "ratio":
        return g.times_ratio(a, b)
    if kind == "scaled":
        return g.scaled(a)
    other = cls(b)
    for top, bottom in a:
        other = other.times_ratio(top, bottom)
    return g.times(other)


def _multiset(g: GammaProduct):
    """The ledger as the reference's (num, den) pair of sorted tuples."""
    num = tuple(a for a, p in g.ledger for _ in range(p))
    den = tuple(a for a, p in g.ledger for _ in range(-p))
    return num, den


@given(FACTORS, st.lists(STEPS, max_size=12))
def test_chains_match_the_two_tuple_reference(factor, steps):
    g, r = GammaProduct(factor), ref.GammaProduct(factor)
    for step in steps:
        g, r = _apply(g, step, GammaProduct), _apply(r, step, ref.GammaProduct)
        assert _multiset(g) == (r.num, r.den)
        assert g.factor == r.factor
    assert g.value().hex() == r.value().hex()


@given(st.lists(STEPS, max_size=8))
def test_ledger_is_sorted_with_no_zero_powers_and_no_unit_arguments(steps):
    g = GammaProduct(1.0)
    for step in steps:
        g = _apply(g, step, GammaProduct)
    args = [a for a, _ in g.ledger]
    assert args == sorted(set(args))
    assert all(p != 0 for _, p in g.ledger)
    assert 1.0 not in args and 2.0 not in args


def test_telescoping_chain_cancels_to_an_empty_ledger():
    g = GammaProduct(1.5).times_ratio(2.3, 1.8).times_ratio(1.8, 1.3).times_ratio(1.3, 2.3)
    assert g == GammaProduct(1.5)
    assert g.value() == 1.5


def test_repeated_arguments_carry_integer_powers():
    g = GammaProduct(1.0).times_ratio(3.5, 0.5).times_ratio(3.5, 0.5)
    assert g.ledger == ((0.5, -2), (3.5, 2))
    assert g.value() == math.gamma(3.5) * math.gamma(3.5) / math.gamma(0.5) / math.gamma(0.5)


def test_inverse_negates_every_power():
    g = GammaProduct(4.0).times_ratio(3.5, 0.5).times_ratio(3.5, 1.5)
    inv = g.inverse()
    assert inv == GammaProduct(0.25, ((0.5, 1), (1.5, 1), (3.5, -2)))
    assert g.times(inv) == GammaProduct(1.0)
    assert inv.inverse() == g
