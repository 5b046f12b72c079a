"""Value semantics of the package's record types, and of the tests' order
prior built on the same base: equality, hashing, order, repr, immutability,
copies and per-instance containers."""

import copy
import importlib
import pickle
import pkgutil
from fractions import Fraction

import pytest

import ordergame
from ordergame.classical import BitStrategy
from ordergame.cli import Report, RunConfig, Scenario, build_parser
from ordergame.game import Perm3, ScenarioResult, all_orders
from ordergame.quantum import routing_matrix
from ordergame.solver import HermitianPSD, NonnegOrthant, SolveSettings, _group_blocks
from ordergame.tensor import A_IN, FrozenRecord, Space
from reference import OrderPrior

PERM = Perm3(("B", "A", "C"))


def frozen_records():
    """One record of each frozen type, with its field tuple and its repr."""
    prior = OrderPrior.uniform()
    scenario = Scenario(len, Fraction(1, 3), True, "label")
    return {
        "Space": (A_IN, ("A_I", 2), "A_I(2)"),
        "Perm3": (PERM, (("B", "A", "C"),), "Perm3(order=('B', 'A', 'C'))"),
        "OrderPrior": (prior, (prior.weights,), f"OrderPrior(weights={prior.weights!r})"),
        "BitStrategy": (BitStrategy(1, 0), (1, 0), "BitStrategy(on_zero=1, on_one=0)"),
        "NonnegOrthant": (NonnegOrthant(4), (4,), "NonnegOrthant(n=4)"),
        "HermitianPSD": (HermitianPSD(2), (2,), "HermitianPSD(side=2)"),
        "SolveSettings": (SolveSettings(1e-6, 50), (1e-6, 50), "SolveSettings(tolerance=1e-06, max_iters=50)"),
        "SystemPermutation": (routing_matrix(PERM), (PERM,), "SystemPermutation(pi=Perm3(order=('B', 'A', 'C')))"),
        "Scenario": (
            scenario,
            (len, Fraction(1, 3), True, "label"),
            "Scenario(run=<built-in function len>, expected=Fraction(1, 3), exact=True, headline='label')",
        ),
    }


NAMES = list(frozen_records())


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_package_record_type_has_an_entry():
    # a record type with no entry above would skip every value test here
    for module in pkgutil.iter_modules(ordergame.__path__):
        importlib.import_module(f"ordergame.{module.name}")
    covered = {type(record) for record, _, _ in frozen_records().values()}
    package = {cls for cls in _subclasses(FrozenRecord) if cls.__module__.startswith("ordergame.")}
    assert sorted(cls.__qualname__ for cls in package - covered) == []


@pytest.mark.parametrize("name", NAMES)
def test_hash_is_the_hash_of_the_field_tuple(name):
    record, fields, _ = frozen_records()[name]
    try:
        want = hash(fields)
    except TypeError:
        # the prior's dict field: unhashable, as the tuple is
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == want


@pytest.mark.parametrize("name", NAMES)
def test_repr_names_every_field(name):
    record, _, want = frozen_records()[name]
    assert repr(record) == want


@pytest.mark.parametrize("name", NAMES)
def test_assignment_raises(name):
    record, _, _ = frozen_records()[name]
    field = type(record).__slots__[0]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is before


# the tests' own OrderPrior holds a dict, so it has no hash and is left out
@pytest.mark.parametrize("name", [name for name in NAMES if name != "OrderPrior"])
def test_equal_fields_equal_records_and_copies(name):
    record, fields, _ = frozen_records()[name]
    again = type(record)(*fields)
    assert again == record and not again != record
    assert hash(again) == hash(record)
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record


@pytest.mark.parametrize("name", NAMES)
def test_values_follow_slot_order(name):
    record, fields, _ = frozen_records()[name]
    assert record._values() == tuple(getattr(record, slot) for slot in type(record).__slots__) == fields


@pytest.mark.parametrize("name", NAMES)
def test_wrong_field_count_raises(name):
    record, fields, _ = frozen_records()[name]
    with pytest.raises(TypeError):
        type(record)(*fields, None)
    # a record with its own __init__ may default its last fields
    if type(record).__init__ is FrozenRecord.__init__:
        with pytest.raises(TypeError, match=f"takes {len(fields)} fields, not {len(fields) - 1}"):
            type(record)(*fields[:-1])


def test_equality_needs_the_same_class():
    # both cones have dim 4, and a tuple with the same fields is no record
    assert NonnegOrthant(4) != HermitianPSD(2)
    assert NonnegOrthant(4).dim == HermitianPSD(2).dim
    assert NonnegOrthant(2) != HermitianPSD(2)
    assert Space("A_I", 2) != ("A_I", 2)
    assert BitStrategy(0, 1) != BitStrategy(1, 0)
    assert len(_group_blocks([NonnegOrthant(4), HermitianPSD(2), HermitianPSD(2)])) == 2


def test_orders_sort_as_their_tuples():
    orders = all_orders()
    assert [pi.name for pi in orders] == ["ABC", "ACB", "BAC", "BCA", "CAB", "CBA"]
    assert sorted(reversed(orders)) == orders
    for a in orders:
        for b in orders:
            assert (a < b, a <= b, a > b, a >= b) == (a.order < b.order, a.order <= b.order, a.order > b.order, a.order >= b.order)
    with pytest.raises(TypeError):
        _ = orders[0] < ("A", "B", "C")


def test_results_and_reports_never_share_a_container():
    first, second = ScenarioResult("x", Fraction(1), "s"), ScenarioResult("y", Fraction(1), "s")
    first.certificate["k"] = 1
    assert second.certificate == {}
    a, b = Report([], "0", RunConfig()), Report([], "0", RunConfig())
    for name in ("wall_time_ms", "failures", "files_written"):
        assert getattr(a, name) == getattr(b, name) == type(getattr(a, name))()
        assert getattr(a, name) is not getattr(b, name)


def test_run_config_round_trips_the_parsed_defaults():
    args = vars(build_parser().parse_args([]))
    config = RunConfig(**args)
    assert config.jsonable() == args
    assert RunConfig(**config.jsonable()).jsonable() == args
    assert RunConfig().jsonable() == args
