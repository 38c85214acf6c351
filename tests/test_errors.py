"""Every package error survives pickling, as it must to leave a worker process.

And every one is an ``InputError`` or a ``FitError``, the two that ``cli.main`` catches.
"""

import inspect
import pickle

import pytest

from jointmix import errors

ERRORS = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
          if issubclass(cls, errors.JointmixError)]
ARGS = {errors.DegenerateClusterError: ("gene", 1), errors.NumericalError: ("G1",)}


def instances():
    for cls in ERRORS:
        args = ARGS.get(cls, ("bad input",))
        yield pytest.param(cls(*args), id=cls.__name__)
        if cls in ARGS:
            yield pytest.param(cls(*args, "a message of its own"), id=f"{cls.__name__}-message")
    yield pytest.param(errors.DataDomainError("zero library size", where=("b", 1)),
                       id="DataDomainError-where")


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_every_error_is_an_input_or_a_fit_error(cls):
    assert cls is errors.JointmixError or issubclass(cls, (errors.InputError, errors.FitError))


@pytest.mark.parametrize("exc", instances())
def test_pickling_keeps_type_message_and_attributes(exc):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    for attr in ("layer", "index", "entity", "where"):
        assert getattr(back, attr, None) == getattr(exc, attr, None)

