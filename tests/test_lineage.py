"""Tests for lineage items, tracing, compaction, and serialization."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.lineage.item as lineage_item
from repro.common.config import MemphisConfig
from repro.common.errors import LineageError
from repro.common.stats import CACHE_HITS, FUNC_HITS, SERVER_CROSS_HITS
from repro.core.session import Session
from repro.core.substrate import Substrate
from repro.lineage import (
    LineageItem,
    LineageMap,
    dags_equal,
    dataset,
    deserialize,
    function_item,
    literal,
    serialize,
)
from repro.lineage.item import (
    NAN_DATUM,
    NEG_ZERO_DATUM,
    LineageInterner,
    attr_data,
)
from repro.lineage.recompute import attrs_from_data
from repro.ml.l2svm import l2svm_core_iteration


def _chain(depth: int, leaf_name: str = "X") -> LineageItem:
    item = dataset(leaf_name)
    for _ in range(depth):
        item = LineageItem("exp", (), (item,))
    return item


class TestLineageItem:
    def test_equal_structures_are_equal(self):
        x = dataset("X")
        a = LineageItem("ba+*", (), (x, x))
        b = LineageItem("ba+*", (), (x, x))
        assert a == b
        assert hash(a) == hash(b)

    def test_different_opcode_not_equal(self):
        x = dataset("X")
        assert LineageItem("+", (), (x, x)) != LineageItem("-", (), (x, x))

    def test_different_data_not_equal(self):
        x = dataset("X")
        a = LineageItem("rand", ("seed", 1), (x,))
        b = LineageItem("rand", ("seed", 2), (x,))
        assert a != b

    def test_different_leaf_not_equal(self):
        a = LineageItem("exp", (), (dataset("X"),))
        b = LineageItem("exp", (), (dataset("Y"),))
        assert a != b

    def test_structurally_equal_distinct_leaves(self):
        # distinct objects, same structure: equal by value
        a = LineageItem("exp", (), (dataset("X"),))
        b = LineageItem("exp", (), (dataset("X"),))
        assert a == b

    def test_height(self):
        x = dataset("X")
        assert x.height == 0
        op = LineageItem("exp", (), (x,))
        assert op.height == 1
        op2 = LineageItem("+", (), (op, x))
        assert op2.height == 2

    def test_height_mismatch_early_abort(self):
        assert not dags_equal(_chain(3), _chain(4))

    def test_deep_chain_equality_non_recursive(self):
        # would blow the recursion limit with a recursive implementation
        a = _chain(5000)
        b = _chain(5000)
        assert a == b

    def test_shared_subdag_identity_shortcut(self):
        shared = _chain(50)
        a = LineageItem("+", (), (shared, shared))
        b = LineageItem("+", (), (shared, shared))
        assert a == b

    def test_dag_size_counts_shared_once(self):
        shared = _chain(3)  # 4 nodes
        root = LineageItem("+", (), (shared, shared))
        assert root.dag_size() == 5

    def test_function_item(self):
        item = function_item("linreg", (dataset("X"), literal(0.1)))
        assert item.is_function
        assert not dataset("X").is_function

    def test_literal_leaf(self):
        assert literal(3.5).is_leaf
        assert literal(3.5) == literal(3.5)
        assert literal(3.5) != literal(4.5)


class TestLineageMap:
    def test_trace_binds_output(self):
        lmap = LineageMap()
        item = lmap.trace("exp", "out", ["X"])
        assert lmap.get("out") is item
        assert item.inputs[0].opcode == "data"

    def test_untracked_inputs_become_dataset_leaves(self):
        lmap = LineageMap()
        item = lmap.trace("+", "z", ["a", "b"])
        assert all(i.opcode == "data" for i in item.inputs)

    def test_trace_chains(self):
        lmap = LineageMap()
        lmap.trace("exp", "y", ["X"])
        item = lmap.trace("log", "z", ["y"])
        assert item.inputs[0].opcode == "exp"

    def test_compaction_replaces_entry(self):
        lmap = LineageMap()
        lmap.trace("exp", "y", ["X"])
        cached_key = LineageItem("exp", (), (dataset("X"),))
        lmap.compact("y", cached_key)
        assert lmap.get("y") is cached_key
        assert lmap.compactions == 1

    def test_compaction_reduces_distinct_nodes(self):
        lmap = LineageMap()
        lmap.trace("exp", "y1", ["X"])
        lmap.trace("exp", "y2", ["X"])
        before = lmap.total_dag_nodes()
        lmap.compact("y2", lmap.get("y1"))
        assert lmap.total_dag_nodes() < before

    def test_remove_and_clear(self):
        lmap = LineageMap()
        lmap.trace("exp", "y", ["X"])
        lmap.remove("y")
        assert lmap.get("y") is None
        lmap.trace("exp", "y", ["X"])
        lmap.clear()
        assert len(lmap) == 0

    def test_set_literal(self):
        lmap = LineageMap()
        item = lmap.set_literal("c", 2.5)
        assert item.data == (2.5,)


class TestSerialization:
    def test_roundtrip_simple(self):
        x = dataset("X")
        root = LineageItem("ba+*", (), (LineageItem("r'", (), (x,)), x))
        back = deserialize(serialize(root))
        assert back == root

    def test_roundtrip_with_data(self):
        root = LineageItem(
            "rand", ("rows", 10, "cols", 5, "seed", 42, "label", "a;b\\c"), ()
        )
        back = deserialize(serialize(root))
        assert back == root
        assert back.data == root.data

    def test_roundtrip_floats_bools(self):
        root = LineageItem("dropout", ("rate", 0.5, "flag", True), (dataset("X"),))
        back = deserialize(serialize(root))
        assert back.data == ("rate", 0.5, "flag", True)

    def test_shared_subdags_preserved(self):
        shared = LineageItem("exp", (), (dataset("X"),))
        root = LineageItem("+", (), (shared, shared))
        back = deserialize(serialize(root))
        assert back == root
        assert back.inputs[0] is back.inputs[1]

    def test_empty_log_rejected(self):
        with pytest.raises(LineageError):
            deserialize("")

    def test_malformed_line_rejected(self):
        with pytest.raises(LineageError):
            deserialize("not a lineage line")

    def test_forward_reference_rejected(self):
        with pytest.raises(LineageError):
            deserialize("(0) + () (1)")


@settings(max_examples=50, deadline=None)
@given(st.recursive(
    st.sampled_from(["X", "Y", "Z"]).map(dataset),
    lambda children: st.tuples(
        st.sampled_from(["+", "ba+*", "exp"]),
        st.lists(children, min_size=1, max_size=2),
    ).map(lambda t: LineageItem(t[0], (), tuple(t[1]))),
    max_leaves=12,
))
def test_property_serialize_roundtrip(item):
    """Any lineage DAG round-trips through serialization."""
    assert deserialize(serialize(item)) == item


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=30))
def test_property_chain_equality_iff_same_depth(d1, d2):
    assert (_chain(d1) == _chain(d2)) == (d1 == d2)


# ------------------------------------------------------ canonical lineage keys

#: one interleaved construction: a literal or dataset leaf, or an op /
#: function item over earlier items (indices wrap around the pool).
_LEAF_VALUES = [0.0, -0.0, 1, 1.0, 2.5, math.nan, "s"]
_CONSTRUCTIONS = st.one_of(
    st.tuples(st.just("lit"), st.sampled_from(_LEAF_VALUES)),
    st.tuples(st.just("data"), st.sampled_from(["X", "Y"])),
    st.tuples(st.just("op"), st.sampled_from(["+", "*", "exp"]),
              st.sampled_from([(), ("axis", 0), ("p", -0.0), ("p", 0.0)]),
              st.lists(st.integers(0, 63), min_size=1, max_size=2)),
    st.tuples(st.just("func"), st.sampled_from(["f", "g"]),
              st.integers(0, 1),
              st.lists(st.integers(0, 63), min_size=0, max_size=2)),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_CONSTRUCTIONS, min_size=1, max_size=24))
def test_property_interned_identity_iff_structural_equality(steps):
    """Built through one interner, two items are the same object exactly
    when their DAGs are structurally equal."""
    interner = LineageInterner()
    pool: list[LineageItem] = []
    for step in steps:
        kind = step[0]
        if kind == "lit":
            pool.append(interner.literal(step[1]))
        elif kind == "data":
            pool.append(interner.dataset(step[1]))
        elif not pool:
            pool.append(interner.dataset("X"))
        elif kind == "op":
            _, opcode, data, picks = step
            inputs = tuple(pool[i % len(pool)] for i in picks)
            pool.append(interner.intern(opcode, attr_data(dict([data]))
                                        if data else (), inputs))
        else:
            _, fname, index, picks = step
            inputs = tuple(pool[i % len(pool)] for i in picks)
            pool.append(interner.function(fname, inputs, index))
    for a in pool:
        for b in pool:
            assert (a is b) == dags_equal(a, b), (a, b)


@pytest.fixture
def structural_compares(monkeypatch):
    """Every ``dags_equal`` call ``LineageItem.__eq__`` makes, recorded."""
    calls: list[tuple[LineageItem, LineageItem]] = []
    real = lineage_item.dags_equal

    def counting(a, b, memo=None):
        calls.append((a, b))
        return real(a, b, memo)

    monkeypatch.setattr(lineage_item, "dags_equal", counting)
    return calls


def _svm_inputs(rows=64, cols=8):
    rng = np.random.default_rng(3)
    X = rng.random((rows, cols))
    y = np.where(rng.random((rows, 1)) > 0.5, 1.0, -1.0)
    w0 = rng.standard_normal((cols, 1)) * 0.01
    return X, y, w0


def _ridge(session, data, labels):
    X = session.read(data, "X")
    y = session.read(labels, "y")
    gram = X.t() @ X
    xty = (y.t() @ X).t()
    beta = session.solve(gram + 0.1 * session.eye(data.shape[1]), xty)
    return session.compute(beta)


class TestCanonicalRuntimeKeys:
    """Keys the session runtime builds are canonical per substrate, so
    cache probes and puts never fall back to structural comparison."""

    def test_repeated_lambda_l2svm_loop_hits_without_structural_compare(
            self, structural_compares):
        X_data, y_data, w0_data = _svm_inputs()
        sess = Session(MemphisConfig.memphis())
        X = sess.read(X_data, "X")
        y = sess.read(y_data, "y")
        w0 = sess.read(w0_data, "w0")
        outs = {}
        for reg in (0.1, 1.0, 0.1, 1.0, 0.1):
            out = sess.compute(l2svm_core_iteration(sess, X, y, w0 + reg, reg))
            np.testing.assert_array_equal(outs.setdefault(reg, out), out)
        assert sess.stats.get(CACHE_HITS) > 0
        assert structural_compares == []

    def test_shared_substrate_sessions_hit_without_structural_compare(
            self, structural_compares):
        sub = Substrate.shared_substrate(MemphisConfig.server_session())
        data = (np.arange(128.0) % 11.0).reshape(32, 4)
        labels = (np.arange(32.0) % 5.0).reshape(32, 1)
        s1 = Session(MemphisConfig.server_session(), substrate=sub,
                     tenant="alpha")
        s2 = Session(MemphisConfig.server_session(), substrate=sub,
                     tenant="beta")
        r1 = _ridge(s1, data, labels)
        r2 = _ridge(s2, data, labels)
        np.testing.assert_array_equal(r1, r2)
        assert sub.stats.get(SERVER_CROSS_HITS) > 0
        assert structural_compares == []

    def test_named_reads_share_one_leaf_per_substrate(self):
        sub = Substrate.shared_substrate(MemphisConfig.server_session())
        s1 = Session(MemphisConfig.server_session(), substrate=sub)
        s2 = Session(MemphisConfig.server_session(), substrate=sub)
        data = np.ones((4, 4))
        assert s1.read(data, "X").lineage is s2.read(data, "X").lineage
        assert s1.read(data).lineage is not s1.read(data).lineage
        private = Session(MemphisConfig.memphis())
        assert private.read(data, "X").lineage \
            is not s1.read(data, "X").lineage


class TestNegativeZero:
    """``-0.0 == 0.0`` in Python, but the two literals are different
    values: their lineage keys must differ too."""

    def test_literal_leaves_differ(self):
        assert literal(-0.0) != literal(0.0)
        assert literal(-0.0).data == (-0.0, NEG_ZERO_DATUM)
        # every other value keeps its data, hence its hash
        assert literal(0.0).data == (0.0,)
        assert hash(literal(2.5)) == hash(LineageItem("lit", (2.5,)))
        interner = LineageInterner()
        assert interner.literal(-0.0) is not interner.literal(0.0)
        assert deserialize(serialize(literal(-0.0))) == literal(-0.0)

    def test_attr_sentinels_round_trip(self):
        data = attr_data({"a": -0.0, "b": 0.0, "c": math.nan, "d": 2})
        assert data == ("a", NEG_ZERO_DATUM, "b", 0.0, "c", NAN_DATUM,
                        "d", 2)
        attrs = attrs_from_data(data)
        assert math.copysign(1.0, attrs["a"]) == -1.0
        assert math.copysign(1.0, attrs["b"]) == 1.0
        assert math.isnan(attrs["c"]) and attrs["d"] == 2

    @pytest.mark.parametrize("config", ["memphis", "base"])
    def test_results_match_numpy(self, config):
        X_data = np.arange(1.0, 7.0).reshape(2, 3)
        sess = Session(getattr(MemphisConfig, config)())
        X = sess.read(X_data, "X")

        @sess.function("scale")
        def scale(h, c):
            return h * c

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            expected = 1.0 / (X_data * -0.0)
            # across blocks: the +0.0 product is cached first
            sess.compute(X * 0.0)
            across = sess.compute(1.0 / (X * -0.0))
            # one block: CSE must not merge the two literals either
            pos, neg = X * 0.0, 1.0 / (X * -0.0)
            sess.evaluate([pos, neg])
            within = sess.compute(neg)
            # function-level reuse keyed on a literal argument
            sess.compute(scale(X, 0.0))
            func = sess.compute(1.0 / scale(X, -0.0))
        for got in (across, within, func):
            np.testing.assert_array_equal(got, expected)
        assert np.all(np.signbit(sess.compute(scale(X, -0.0))))
        if config == "memphis":
            assert sess.stats.get(FUNC_HITS) > 0
