import copy
from typing import Literal

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flatclust.cli import SynthDocument
from flatclust.codec import Codec, decode
from flatclust.experiments import REGISTRY
from flatclust.io import PipelineConfig
from flatclust.synthetic import (
    ClusterTemplate,
    FunctionFamilySpec,
    MixtureComponent,
    MixtureSpec,
    TemplateComponent,
    jump_family,
    lipschitz_family,
    two_bump_mixture_1d,
)

# One valid document per codec class.
DOCUMENTS = [
    (PipelineConfig, {"s": 2, "d": 4, "delta": 0.08, "k": 10, "k_ladder": [40, 10, 3]}),
    (PipelineConfig, {"s": 1, "d": 3, "gamma": 0.2, "lambda": 0.4, "link_radius": 0.1}),
    *[(cls, cls().to_dict()) for cls, _ in REGISTRY.values()],
    (MixtureSpec, two_bump_mixture_1d().to_dict()),
    (MixtureComponent, two_bump_mixture_1d().components[1].to_dict()),
    (FunctionFamilySpec, jump_family().to_dict()),
    (ClusterTemplate, jump_family().clusters[1].to_dict()),
    (TemplateComponent, jump_family().clusters[1].components[0].to_dict()),
    (SynthDocument, {"spec": two_bump_mixture_1d().to_dict(), "n": 50, "seed": 3}),
    (SynthDocument, {"spec": lipschitz_family().to_dict(), "n": 8, "m": 24, "seed": 4}),
]

# Integers stay small: FunctionFamilySpec's grid checks allocate d grid points.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-1000, 1000) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _paths(value, prefix=()):
    """Every path of keys and indices into a JSON value, the root's () first."""
    yield prefix
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _paths(item, (*prefix, key))


def _mutate(doc, data):
    """doc with one value replaced, one key dropped or added, or wrapped in a list."""
    doc = copy.deepcopy(doc)
    how = data.draw(st.sampled_from(["replace", "drop", "add", "wrap"]))
    if how == "wrap":
        return [doc]
    paths = list(_paths(doc))
    if how == "drop":
        paths = [p for p in paths if p and isinstance(_at(doc, p[:-1]), dict)]
    elif how == "add":
        paths = [p for p in paths if isinstance(_at(doc, p), dict)]
    path = data.draw(st.sampled_from(paths))
    if how == "add":
        _at(doc, path)[data.draw(st.text(max_size=6))] = data.draw(JSON)
    elif how == "drop":
        del _at(doc, path[:-1])[path[-1]]
    elif path:
        _at(doc, path[:-1])[path[-1]] = data.draw(JSON)
    else:
        return data.draw(JSON)
    return doc


def _at(value, path):
    for key in path:
        value = value[key]
    return value


@pytest.mark.parametrize(
    "cls, doc", DOCUMENTS, ids=[f"{cls.__name__}-{i}" for i, (cls, _) in enumerate(DOCUMENTS)]
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_document_decodes_or_is_a_value_error(cls, doc, data):
    """Decoding a mutated document either yields a config that round-trips or raises ValueError.

    Any other exception (TypeError, AttributeError, KeyError, ...) fails the test.
    """
    assert issubclass(cls, Codec)
    original = cls.from_dict(doc)
    assert cls.from_dict(original.to_dict()) == original
    mutated = _mutate(doc, data)
    try:
        cfg = cls.from_dict(mutated)
    except ValueError:
        return
    assert cls.from_dict(cfg.to_dict()) == cfg
    assert _holds(cfg.to_dict(), mutated)


def _holds(encoded, given) -> bool:
    """Whether the encoded document carries every value of the given one, unchanged."""
    if isinstance(given, dict):
        return all(key in encoded and _holds(encoded[key], value) for key, value in given.items())
    if isinstance(given, list):
        return len(encoded) == len(given) and all(map(_holds, encoded, given))
    same_type = type(encoded) is type(given) or type(encoded) is float and type(given) is int
    return encoded == given and same_type


@pytest.mark.parametrize(
    "tp, value, want",
    [
        (int, 3, 3),
        (int, True, None),
        (int, 3.0, None),
        (float, 3, 3.0),
        (float, 0.5, 0.5),
        (float, float("nan"), None),
        (float, float("inf"), None),
        (float, 10**400, None),
        (float, "0.5", None),
        (bool, True, True),
        (bool, 1, None),
        (str, "sine", "sine"),
        (float | Literal["auto"], "auto", "auto"),
        (float | Literal["auto"], "later", None),
        (int | None, None, None),
        (tuple[int, ...], [3, 2], (3, 2)),
        (tuple[int, ...], 5, None),
        (tuple[int, int], [1, 2, 3], None),
        (tuple[tuple[float, float], ...], [[0, 1]], ((0.0, 1.0),)),
    ],
)
def test_decode_reads_each_type_or_names_the_path(tp, value, want):
    if want is None and value is not None:
        with pytest.raises(ValueError, match=r"^where\.x must be "):
            decode(tp, value, "where.x")
    else:
        got = decode(tp, value, "where.x")
        assert got == want and type(got) is type(want)
