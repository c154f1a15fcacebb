"""``words._frozen`` gives the package's value classes the semantics of
``@dataclass(frozen=True)``.  Each decorated class is checked against a
dataclass made here from the same field names and values, and the check is
shown to catch an ``__eq__`` that ignores the last field."""

import dataclasses
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter

import pytest

from outerint import currents, dynamics, intersection, marked_graph, splittings, words
from outerint.catalog import (
    fibonacci_automorphism, fibonacci_rose_map, supergolden_automorphism, supergolden_rose_map
)
from outerint.words import CyclicWord, Word, _frozen, parse_word

MODULES = (words, marked_graph, currents, splittings, dynamics, intersection)
# the classes that write their own __eq__ and __hash__
HAND_WRITTEN = {"Word", "CyclicWord", "Automorphism", "FreeSplitting"}
DEFAULTS = {"Word": {"letters": ()}, "RationalCurrent": {"terms": ()},
            "LengthFunctionOracle": {"error_bound": None}}
GOLDEN = (1 + 5 ** 0.5) / 2


@lru_cache(maxsize=None)
def samples() -> dict:
    """Two values of each class ``_frozen`` decorates, made by the package,
    whose first fields differ and whose last fields differ."""
    r2, r3 = marked_graph.unit_rose(2), marked_graph.subdivide_edge(marked_graph.unit_rose(3), 1)
    fib, sup = fibonacci_automorphism(), supergolden_automorphism()
    a, b, ab, abc = (parse_word(t, r) for t, r in (("a", 2), ("b", 2), ("ab", 2), ("abC", 3)))
    mu2, mu3 = currents.counting_current(ab), currents.scale(Fraction(1, 3), currents.counting_current(abc))
    ll = marked_graph.lemma_ll_check(r2, [a, b]), marked_graph.lemma_ll_check(r3, [abc, abc], Fraction(5))
    sep, loop = splittings.separating_splitting(3, [1]), splittings.loop_splitting(2, 2, fib)
    maps = fibonacci_rose_map(), supergolden_rose_map()
    marking = fields(marked_graph.Marking)  # a rose's base is always "v"
    return {
        "Word": (ab, Word(3, (1, -2))),
        "CyclicWord": (CyclicWord(2, (1, 2)), CyclicWord(3, (2, 2, 3))),
        "Automorphism": (fib, sup),
        "SerreGraph": (r2.graph, r3.graph),
        "Marking": (r2.marking, marked_graph.Marking("u", *(getattr(r3.marking, n) for n in marking[1:]))),
        "MarkedMetricGraph": (r2, r3),
        "BacktrackCheck": (ll[0].checks[0], ll[1].checks[-1]),
        "BacktrackReport": ll,
        "RationalCurrent": (mu2, mu3),
        "FrequencyVector": (currents.frequency_vector(mu2, r2, 1), currents.frequency_vector(mu3, r3, 2)),
        "FreeSplitting": (sep, loop),
        "GraphMap": maps,
        "TransitionMatrix": tuple(map(dynamics.transition_matrix, maps)),
        "PairingReport": (dynamics.pairing_estimate(fib, r2, GOLDEN, a, 3),
                          dynamics.pairing_estimate(fib, r2, GOLDEN, ab, 4)),
        "LengthFunctionOracle": (intersection.LengthFunctionOracle.from_marked_graph(r2),
                                 intersection.LengthFunctionOracle(len, False, lambda w: 0.5)),
        "EquivarianceReport": (intersection.equivariance_check(fib, r2, mu2),
                               intersection.equivariance_check(sup, marked_graph.unit_rose(3), mu3)),
        "ScalingReport": (intersection.scaling_modulus_experiment(r2, Fraction(1, 10), [a, ab], seed=1),
                          intersection.scaling_modulus_experiment(r3, Fraction(1, 5), [Word(3), abc], seed=2)),
    }


def frozen_classes() -> dict:
    return {c.__name__: c for m in MODULES for c in vars(m).values()
            if isinstance(c, type) and c.__module__ == m.__name__
            and c.__init__.__qualname__.startswith("_frozen.")}


NAMES = sorted(frozen_classes())


def fields(cls) -> tuple:
    return tuple(cls.__dict__["__annotations__"])


def raw(cls, values):
    """An instance with these field values, no check run."""
    x = object.__new__(cls)
    x.__dict__.update(zip(fields(cls), values))
    return x


def reference(cls):
    defaults = DEFAULTS.get(cls.__name__, {})
    return dataclasses.make_dataclass(
        cls.__name__,
        [(n, object, dataclasses.field(default=defaults[n])) if n in defaults else (n, object)
         for n in fields(cls)],
        frozen=True,
    )


def assert_like_dataclass(cls, s, t) -> None:
    """``cls`` behaves as the dataclass with its fields, on values mixed
    from the instances ``s`` and ``t``."""
    names, ref = fields(cls), reference(cls)
    a, b = [getattr(s, n) for n in names], [getattr(t, n) for n in names]
    variants = [a, list(a), a[:-1] + b[-1:], b[:1] + a[1:], b]
    ours, refs = [raw(cls, v) for v in variants], [ref(*v) for v in variants]
    for x, rx in zip(ours, refs):
        assert repr(x) == repr(rx)
        assert hash(x) == hash(rx)
        for y, ry in zip(ours, refs):
            assert (x == y, x != y) == (rx == ry, rx != ry)
            assert x != y or hash(x) == hash(y)
        # an instance of another class with the same fields, and no value at all
        assert x.__eq__(rx) is NotImplemented and x != rx and not x == rx
        assert x.__eq__(1) is NotImplemented and x != 1 and not x == 1
    for make in (cls, ref):
        x = make(*a)
        assert x == make(**dict(zip(names, a))) and (x == raw(cls, a)) == (make is cls)
        for name in (names[0], names[-1], "other"):
            with pytest.raises(AttributeError):
                setattr(x, name, a[0])
        with pytest.raises(AttributeError):
            delattr(x, names[-1])
        for args, kwargs in (((), {}), ((*a, a[-1]), {}), (a, {"other": 1}), (a, {names[0]: a[0]})):
            with pytest.raises(TypeError):
                make(*args, **kwargs)
    required = [v for n, v in zip(names, a) if n not in DEFAULTS.get(cls.__name__, {})]
    assert repr(cls(*required)) == repr(ref(*required))


def test_every_value_class_but_the_pinned_reports_is_frozen_by_closures():
    assert set(NAMES) == set(samples()) and len(NAMES) == 17
    pinned = (intersection.IntersectionReport, dynamics.PFResult, dynamics.IwipRow)
    assert all(map(dataclasses.is_dataclass, pinned))
    assert not any(map(dataclasses.is_dataclass, frozen_classes().values()))


@pytest.mark.parametrize("name", NAMES)
def test_frozen_class_behaves_as_a_frozen_dataclass(name):
    cls = frozen_classes()[name]
    s, t = samples()[name]
    names = fields(cls)
    assert getattr(s, names[0]) != getattr(t, names[0]) and getattr(s, names[-1]) != getattr(t, names[-1])
    assert_like_dataclass(cls, s, t)


def test_a_word_never_equals_a_cyclic_word_with_the_same_fields():
    w, cw = Word(2, (1,)), CyclicWord(2, (1,))
    assert w != cw and cw != w and w.__eq__(cw) is NotImplemented and cw.__eq__(w) is NotImplemented
    assert {w, cw} == {Word(2, (1,)), CyclicWord(2, (1,))}


def ignoring_last_field(cls):
    head = attrgetter(*fields(cls)[:-1]) if len(fields(cls)) > 1 else lambda self: ()

    def __eq__(self, other):
        return head(self) == head(other) if other.__class__ is self.__class__ else NotImplemented

    return __eq__


def planted_frozen(cls):
    """``_frozen`` with an ``__eq__`` that ignores the last field."""
    cls = _frozen(cls)
    cls.__eq__ = ignoring_last_field(cls)
    return cls


@pytest.mark.parametrize("name", NAMES)
def test_the_check_catches_an_eq_that_ignores_the_last_field(name, monkeypatch):
    cls = frozen_classes()[name]
    s, t = samples()[name]
    if name in HAND_WRITTEN:
        monkeypatch.setattr(cls, "__eq__", ignoring_last_field(cls))
        planted = cls
    else:  # the same fields on a fresh class, decorated by the planted _frozen
        body = {"__annotations__": dict(cls.__dict__["__annotations__"]), **DEFAULTS.get(name, {})}
        assert_like_dataclass(_frozen(type(name, (), body)), s, t)
        planted = planted_frozen(type(name, (), body))
    with pytest.raises(AssertionError):
        assert_like_dataclass(planted, s, t)


@pytest.mark.parametrize("cls, values", [
    (Word, (2, (1, 2))),
    (CyclicWord, (2, (1, 2))),
    (currents.RationalCurrent, (2, ((CyclicWord(2, (1, 2)), Fraction(1)),))),
    (marked_graph.MarkedMetricGraph, None),
], ids=["Word", "CyclicWord", "RationalCurrent", "MarkedMetricGraph"])
def test_constructor_runs_the_class_post_init_and_make_skips_it(cls, values, monkeypatch):
    """A counting wrapper put on the class, as a tracer does, sees every
    checked construction and no trusted ``_make``."""
    if values is None:
        values = tuple(getattr(marked_graph.unit_rose(2), n) for n in fields(cls))
    calls = []
    post_init = cls.__post_init__
    monkeypatch.setattr(cls, "__post_init__", lambda self: calls.append(self) or post_init(self))
    built = cls(*values)
    assert calls == [built]
    if hasattr(cls, "_make"):
        assert cls._make(*values) == built and calls == [built]
