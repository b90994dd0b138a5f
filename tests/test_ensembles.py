"""Stacked random draws against the per-field reference loop, byte for byte."""

import warnings

import numpy as np
import pytest

from bosp import PeriodicGrid, random_field, random_fields

from conftest import random_field_reference

OPTIONS = [
    dict(normalize="l2"),
    dict(normalize="h1"),
    dict(normalize="h2", amplitude=0.3),
    dict(normalize="h1", mean=-0.7, amplitude=2.5),
    dict(normalize="l2", decay=0.9, physical_decay=True),
    dict(normalize="h1", n_modes=100),  # above the n/2 - 1 = 31 cap
    dict(normalize="h2", n_modes=None, decay=0.5),
    dict(normalize="l2", n_modes=1),
    # the envelope underflows to signed zeros from mode 17 on, whose signs
    # only a complex scale keeps as the per-field draw has them
    dict(normalize="h1", decay=1e-20, n_modes=None),
]


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("options", OPTIONS, ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()))
@pytest.mark.parametrize("count", [1, 5])
def test_stack_rows_are_the_reference_loop_bytes(seed, options, count):
    # bytes, not np.array_equal: -0.0 == 0.0, but inputs_hash tells them apart
    grid = PeriodicGrid(2.5, 64)
    options = dict(dict(n_modes=12), **options)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    fields = random_fields(grid, rng, count, **options)
    want = [random_field_reference(grid, ref_rng, **options) for _ in range(count)]
    assert [f.coeffs.tobytes() for f in fields] == [f.coeffs.tobytes() for f in want]
    assert all(f.is_real and f.grid == grid for f in fields)
    # both generators stand at the same point afterwards
    assert rng.standard_normal() == ref_rng.standard_normal()


def test_one_field_is_the_one_row_stack():
    grid = PeriodicGrid(1.0, 32)
    one = random_field(grid, np.random.default_rng(3), n_modes=6, mean=0.25)
    (row,) = random_fields(grid, np.random.default_rng(3), 1, n_modes=6, mean=0.25)
    assert one.coeffs.tobytes() == row.coeffs.tobytes()


def test_errors_come_before_the_draw():
    grid, rng = PeriodicGrid(1.0, 16), np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="normalize must be one of l2, h1, h2"):
        random_fields(grid, rng, 3, normalize="h3")
    with pytest.raises(ValueError, match="n_modes must be None or an integer >= 1"):
        random_fields(grid, rng, 3, n_modes=0)
    assert rng.bit_generator.state == state


def test_degenerate_draw_is_refused():
    # the envelope underflows to zero, so no field can be normalized
    with pytest.raises(ValueError, match="degenerate draw"):
        random_fields(PeriodicGrid(1.0, 16), np.random.default_rng(0), 4, decay=1e-200)


NON_FINITE = [np.nan, np.inf, -np.inf]
REFUSED_SCALARS = ([("decay", value, "in (0, 1]") for value in [*NON_FINITE, 0.0, -1.0, 2.0]]
                   + [(key, value, "finite") for key in ("amplitude", "mean")
                      for value in NON_FINITE])


@pytest.mark.parametrize("draw", [lambda grid, rng, **kw: random_fields(grid, rng, 3, **kw),
                                  random_field], ids=["random_fields", "random_field"])
@pytest.mark.parametrize("key, value, rule", REFUSED_SCALARS)
def test_scalar_outside_its_config_rule_is_refused_by_name(draw, key, value, rule):
    # decay or amplitude nan drew NaN fields, decay -1 and 2 were drawn, decay
    # or amplitude inf raised an invalid-value warning and mean went into C_0
    grid, rng = PeriodicGrid(1.0, 16), np.random.default_rng(0)
    state = rng.bit_generator.state
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            draw(grid, rng, **{key: value})
    assert str(exc.value) == f"{key} must be {rule}, got {value!r}"
    assert rng.bit_generator.state == state
