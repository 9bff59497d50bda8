"""The expression language: totality, JSON round-trip, and the closure
of seeded mutation over the bounded language (the three properties the
search's correctness rests on)."""

import json
import math
import random
import struct
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.search import expr as expr_mod
from repro.search.expr import (
    BINARY_OPS,
    FEATURES,
    MAX_DEPTH,
    MAX_NODES,
    SCORE_LIMIT,
    UNARY_OPS,
    Binary,
    Const,
    ExpressionError,
    Feature,
    Unary,
    compile_expr,
    count_nodes,
    depth,
    evaluate,
    mutate,
    mutate_named,
    replace_at,
)


def _leaves():
    return st.one_of(
        st.sampled_from(FEATURES).map(Feature),
        st.floats(-1e6, 1e6, allow_nan=False,
                  allow_infinity=False).map(Const),
    )


def _expressions():
    return st.recursive(
        _leaves(),
        lambda children: st.one_of(
            st.tuples(st.sampled_from(UNARY_OPS), children).map(
                lambda t: Unary(*t)),
            st.tuples(st.sampled_from(BINARY_OPS), children,
                      children).map(lambda t: Binary(*t)),
        ),
        max_leaves=12,
    )


def _feature_vectors():
    value = st.floats(allow_nan=False, allow_infinity=False,
                      min_value=-1e12, max_value=1e12)
    return st.fixed_dictionaries({name: value for name in FEATURES})


class TestStructure:
    def test_unknown_feature_rejected(self):
        with pytest.raises(ExpressionError):
            Feature("phase_of_moon")

    def test_unknown_ops_rejected(self):
        with pytest.raises(ExpressionError):
            Unary("sqrt", Const(1.0))
        with pytest.raises(ExpressionError):
            Binary("pow", Const(1.0), Const(2.0))

    def test_non_finite_constant_rejected(self):
        with pytest.raises(ExpressionError):
            Const(float("nan"))
        with pytest.raises(ExpressionError):
            Const(float("inf"))

    def test_replace_at_out_of_range(self):
        with pytest.raises(IndexError):
            replace_at(Const(1.0), 5, lambda old: old)

    def test_replace_at_rebuilds_the_addressed_node(self):
        tree = Binary("add", Feature("age"), Feature("size"))
        swapped = replace_at(tree, 2, lambda old: Feature("hotness"))
        assert swapped == Binary("add", Feature("age"), Feature("hotness"))
        # The original is untouched (trees are immutable values).
        assert tree.right == Feature("size")


class TestEvaluate:
    def test_protected_division(self):
        features = dict.fromkeys(FEATURES, 0.0)
        tree = Binary("div", Const(3.0), Feature("age"))
        assert evaluate(tree, features) == 3.0

    def test_log1p_of_negative_uses_magnitude(self):
        features = dict.fromkeys(FEATURES, -5.0)
        tree = Unary("log1p", Feature("age"))
        assert evaluate(tree, features) == pytest.approx(math.log1p(5.0))

    @given(_expressions(), _feature_vectors())
    @settings(max_examples=200, deadline=None)
    def test_total_and_finite_on_arbitrary_inputs(self, tree, features):
        value = evaluate(tree, features)
        assert isinstance(value, float)
        assert math.isfinite(value)
        assert -SCORE_LIMIT <= value <= SCORE_LIMIT


#: Values at the edges of the clamp, of protected division and of the
#: float range, mixed into the generated constants and features.
_EDGES = (
    0.0, -0.0, 1.0, -1.0, 1e-9, -1e-9,
    math.nextafter(1e-9, 0.0), math.nextafter(1e-9, 1.0),
    -math.nextafter(1e-9, 0.0), SCORE_LIMIT, -SCORE_LIMIT,
    math.nextafter(SCORE_LIMIT, math.inf), 1e300, -1e300,
    sys.float_info.max, -sys.float_info.max, 5e-324,
)


def _edge_floats(finite: bool):
    edges = _EDGES if finite else _EDGES + (math.nan, math.inf, -math.inf)
    return st.one_of(
        st.sampled_from(edges),
        st.floats(allow_nan=not finite, allow_infinity=not finite),
        st.floats(-1e6, 1e6),
    )


def _bounded_expressions():
    leaves = st.one_of(st.sampled_from(FEATURES).map(Feature),
                       _edge_floats(finite=True).map(Const))
    trees = st.recursive(
        leaves,
        lambda children: st.one_of(
            st.tuples(st.sampled_from(UNARY_OPS), children).map(
                lambda t: Unary(*t)),
            st.tuples(st.sampled_from(BINARY_OPS), children,
                      children).map(lambda t: Binary(*t)),
        ),
        max_leaves=16,
    )
    return trees.filter(lambda tree: depth(tree) <= MAX_DEPTH
                        and count_nodes(tree) <= MAX_NODES)


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


class TestCompile:
    @given(_bounded_expressions(),
           st.tuples(*[_edge_floats(finite=False) for _ in FEATURES]))
    @settings(max_examples=500, deadline=None)
    def test_compiled_equals_evaluate_bit_for_bit(self, tree, values):
        expected = evaluate(tree, dict(zip(FEATURES, values)))
        assert _bits(compile_expr(tree)(*values)) == _bits(expected)

    def test_signed_zero_divisor_edge_and_huge_constants(self):
        features = dict.fromkeys(FEATURES, 0.0)
        features["age"] = -0.0
        features["size"] = 1e-9
        huge = Const(1e300)
        for tree in (
            Binary("min", Feature("occupancy"), Feature("age")),
            Binary("max", Feature("age"), Feature("occupancy")),
            Binary("div", Const(3.0), Feature("size")),
            Binary("div", Const(3.0), Const(-1e-9)),
            Unary("neg", Feature("occupancy")),
            # min/max pass an out-of-range constant through unclamped,
            # so negating the result still needs the clamp.
            Unary("neg", huge),
            Unary("neg", Binary("max", huge, Feature("age"))),
            Unary("neg", Binary("min", Feature("age"), Unary("neg", huge))),
        ):
            values = [features[name] for name in FEATURES]
            assert (_bits(compile_expr(tree)(*values))
                    == _bits(evaluate(tree, features)))

    def test_only_validated_names_reach_the_source(self):
        # A node whose fields were overwritten after validation is
        # refused by the compiler rather than pasted into source.
        feature = Feature("age")
        object.__setattr__(feature, "name", "__import__('os')")
        with pytest.raises(ExpressionError):
            compile_expr(feature)
        binary = Binary("add", Const(1.0), Const(2.0))
        object.__setattr__(binary, "op", "add; import os")
        with pytest.raises(ExpressionError):
            compile_expr(binary)


class TestRoundTrip:
    @given(_expressions())
    @settings(max_examples=200, deadline=None)
    def test_json_round_trip_is_identity(self, tree):
        assert expr_mod.loads(expr_mod.dumps(tree)) == tree

    @given(_expressions())
    @settings(max_examples=100, deadline=None)
    def test_dumps_is_canonical(self, tree):
        text = expr_mod.dumps(tree)
        # Re-serializing the parsed form reproduces the same string, so
        # the string is usable as a dedup/memoization key.
        assert expr_mod.dumps(expr_mod.loads(text)) == text
        assert json.loads(text) == expr_mod.to_dict(tree)

    def test_malformed_payloads_rejected(self):
        with pytest.raises(ExpressionError):
            expr_mod.loads("not json at all [")
        with pytest.raises(ExpressionError):
            expr_mod.from_dict({"kind": "ternary"})
        with pytest.raises(ExpressionError):
            expr_mod.from_dict(["kind", "const"])


class TestMutation:
    @given(_expressions(), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_mutation_closed_over_bounded_language(self, tree, seed):
        rng = random.Random(seed)
        mutant, op = mutate_named(tree, rng)
        assert op in {"perturb_constant", "swap_feature", "graft", "prune"}
        assert count_nodes(mutant) <= MAX_NODES
        assert depth(mutant) <= MAX_DEPTH
        # Closure: the mutant still evaluates (round-trips, too).
        features = dict.fromkeys(FEATURES, 1.5)
        assert math.isfinite(evaluate(mutant, features))
        assert expr_mod.loads(expr_mod.dumps(mutant)) == mutant

    @given(_expressions(), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_mutation_is_deterministic_in_the_seed(self, tree, seed):
        a = mutate(tree, random.Random(seed))
        b = mutate(tree, random.Random(seed))
        assert a == b

    def test_mutation_chain_survives_many_steps(self):
        rng = random.Random(7)
        tree = Unary("neg", Feature("age"))
        features = dict.fromkeys(FEATURES, 3.0)
        for _ in range(300):
            tree = mutate(tree, rng)
            assert count_nodes(tree) <= MAX_NODES
            assert depth(tree) <= MAX_DEPTH
            assert math.isfinite(evaluate(tree, features))
