"""Property-based tests: cache-key hashing.

``stable_hash`` / ``cell_key`` are pure functions of value content —
equal content always re-hashes equal (across copies), and perturbing any
single field produces a different key.
"""

from __future__ import annotations

import copy
import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import RunCell, stable_hash

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63),
    st.floats(allow_nan=False),
    st.text(max_size=20),
    st.binary(max_size=20),
)

nested = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
    ),
    max_leaves=25,
)


class TestStableHashProperties:
    @given(nested)
    @settings(max_examples=200, deadline=None)
    def test_hash_is_reproducible_across_copies(self, obj):
        assert stable_hash(obj) == stable_hash(copy.deepcopy(obj))

    @given(nested, nested)
    @settings(max_examples=200, deadline=None)
    def test_unequal_values_hash_differently(self, a, b):
        # The encoding is type-tagged and length-prefixed, so distinct
        # values cannot collide (short of a SHA-256 collision).  Note the
        # converse is deliberately NOT a property: Python calls 1 == 1.0
        # and True == 1 equal, but the key treats them as different cells.
        if a != b:
            assert stable_hash(a) != stable_hash(b)


CELLS = st.builds(
    RunCell,
    controller=st.sampled_from(["od-rl", "pid", "static-uniform"]),
    workload=st.sampled_from(["mixed", "fft", "ocean"]),
    budget=st.one_of(st.none(), st.floats(min_value=1.0, max_value=500.0)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_epochs=st.integers(min_value=1, max_value=10_000),
)


class TestCellHashProperties:
    @given(CELLS)
    @settings(max_examples=200, deadline=None)
    def test_equal_cells_hash_equal(self, cell):
        clone = dataclasses.replace(cell)
        assert clone == cell
        assert stable_hash(clone) == stable_hash(cell)

    @given(CELLS, st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_seed_perturbation_changes_hash(self, cell, other_seed):
        if other_seed != cell.seed:
            assert stable_hash(
                dataclasses.replace(cell, seed=other_seed)
            ) != stable_hash(cell)

    @given(CELLS, st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=200, deadline=None)
    def test_epoch_perturbation_changes_hash(self, cell, other_epochs):
        if other_epochs != cell.n_epochs:
            assert stable_hash(
                dataclasses.replace(cell, n_epochs=other_epochs)
            ) != stable_hash(cell)

    @given(CELLS, st.floats(min_value=1.0, max_value=500.0))
    @settings(max_examples=200, deadline=None)
    def test_budget_perturbation_changes_hash(self, cell, other_budget):
        if other_budget != cell.budget:
            assert stable_hash(
                dataclasses.replace(cell, budget=other_budget)
            ) != stable_hash(cell)
