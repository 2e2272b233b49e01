"""The CLI boundary under fuzzed config documents.

Every `cluster`, `tree` and `smooth` run on a valid series CSV must either
exit 0 or write exactly one JSON error object on stderr and exit nonzero,
whatever numbers or types the config holds: no traceback, and no warning
(warnings are raised as errors here, so a NumPy overflow or a division by
zero deep in the pipeline fails the test instead of passing as a warning).
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatclust.cli import main
from flatclust.io import emit_series_csv
from flatclust.synthetic import lipschitz_family, sample_raw_series

# values at the edges of what a JSON number can carry, and past them
_EXTREME_FLOATS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e-12, 0.5, 1.0, 2.0, 1e12, 1e300,
                   1.7976931348623157e308, -1e-300, -1.0, math.inf, -math.inf, math.nan]
_EXTREME_INTS = [0, 1, 2, 3, 4, 23, 24, 25, -1, 2**31, 2**53 + 1, 2**63, 2**64, -(2**63), 10**100]
_INTS = st.one_of(st.sampled_from(_EXTREME_INTS), st.integers(-(2**70), 2**70))
_FLOATS = st.one_of(st.sampled_from(_EXTREME_FLOATS), st.floats())
_ANY = st.one_of(_INTS, _FLOATS, st.booleans(), st.none(), st.just("auto"), st.text(max_size=4), st.just([]))
_SMALL_INTS = st.integers(1, 40)

# a document the pipeline runs with, then up to three keys set to anything,
# extreme numbers included, or dropped: most runs reach past the codec
_VALID = st.fixed_dictionaries(
    {
        "s": st.just(1),
        "d": st.sampled_from([1, 2, 4, 23]),
        "k_ladder": st.lists(_SMALL_INTS, min_size=1, max_size=6).map(lambda ks: sorted(set(ks), reverse=True)),
    },
    optional={
        "delta": st.one_of(st.just("auto"), st.floats(1e-3, 2.0)),
        "gamma": st.one_of(st.just("auto"), st.floats(0.05, 1.0)),
        "link_radius": st.floats(1e-3, 4.0),
    },
).flatmap(
    lambda doc: st.one_of(
        st.builds(lambda k: {**doc, "k": k}, _SMALL_INTS),
        st.builds(lambda lam: {**doc, "lambda": lam}, st.floats(1e-3, 1e3)),
    )
)
_KEYS = ["s", "d", "delta", "gamma", "k", "lambda", "link_radius", "k_ladder", "extra"]
_VALUES = st.one_of(_ANY, st.lists(st.one_of(_SMALL_INTS, _INTS, _FLOATS), max_size=6))


def _mutated(doc, changes, dropped):
    doc = {**doc, **changes}
    return {key: value for key, value in doc.items() if key not in dropped}


_DOCUMENTS = st.builds(
    _mutated,
    _VALID,
    st.dictionaries(st.sampled_from(_KEYS), _VALUES, max_size=3),
    st.sets(st.sampled_from(_KEYS), max_size=1),
)


@pytest.fixture(scope="module")
def series_csv(tmp_path_factory):
    raws, _, _ = sample_raw_series(lipschitz_family(d=4, eps_bar=0.05), 30, 24, seed=5)
    path = tmp_path_factory.mktemp("fuzz") / "series.csv"
    emit_series_csv(path, raws)
    return path


@pytest.mark.parametrize("command", ["cluster", "tree", "smooth"])
@settings(max_examples=80, deadline=None)
@given(doc=_DOCUMENTS)
def test_fuzzed_config_exits_0_or_writes_one_json_error(series_csv, command, doc):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(doc), encoding="utf-8")  # NaN and Infinity tokens included
        out = Path(tmp) / "out"
        target = ["--output", str(out)] if command == "smooth" else ["--outdir", str(out)]
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            rc = main([command, "--config", str(config), "--input", str(series_csv), *target])
    if rc == 0:
        assert err.getvalue() == "", doc
        return
    lines = err.getvalue().splitlines()
    assert len(lines) == 1, (doc, err.getvalue())
    payload = json.loads(lines[0])
    assert isinstance(payload, dict) and set(payload) >= {"error", "message"}, (doc, payload)
