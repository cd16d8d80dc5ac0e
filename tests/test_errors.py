import inspect
import pickle

import pytest

from g2i import errors

ERROR_TYPES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.G2IError)]


def _example(cls):
    if cls is errors.MalformedLine:
        return cls("edges.tsv", 3, "expected 3 fields, got 2")
    return cls(f"a {cls.__name__} message")


def test_every_error_class_is_covered():
    defined = [obj for obj in vars(errors).values()
               if inspect.isclass(obj) and obj.__module__ == errors.__name__]
    assert sorted(defined, key=lambda c: c.__name__) == ERROR_TYPES


@pytest.mark.parametrize("cls", ERROR_TYPES, ids=lambda cls: cls.__name__)
def test_pickle_round_trip_keeps_type_and_message(cls):
    exc = _example(cls)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)


def test_malformed_line_keeps_its_fields():
    back = pickle.loads(pickle.dumps(errors.MalformedLine("labels.csv", 7, "empty id")))
    assert str(back) == "labels.csv:7: empty id"
    assert (back.path, back.lineno, back.message) == ("labels.csv", 7, "empty id")
