import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gamedecomp import games, parse_game

sys.path.insert(0, str(Path(__file__).parent))

FIXTURES = Path(__file__).parent.parent / "fixtures"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


def load_fixture(name: str):
    return parse_game((FIXTURES / name).read_text())


@pytest.fixture
def matching_pennies():
    return load_fixture("mp.game")


@pytest.fixture
def mp_duplicated():
    return load_fixture("mp-dup.game")


@pytest.fixture
def depend():
    return load_fixture("depend.game")


@pytest.fixture
def full_checks(monkeypatch):
    """Run the full ``_check`` of its type on every object stored while the
    test runs, also on those that internal kernels build from checked
    inputs: a kernel whose output breaks an invariant of its type raises
    here instead of passing it on."""
    store = games._Tensors._store

    def checking_store(self, space, shared):
        store(self, space, shared)
        self._check()

    monkeypatch.setattr(games._Tensors, "_store", checking_store)


@pytest.fixture
def count_fractions():
    """count_fractions(fn, *args) -> (fn(*args), the Fractions built meanwhile).

    Counts ``Fraction.__new__`` and, where the Python version has it,
    ``Fraction._from_coprime_ints``, which builds without ``__new__``.
    """

    def run(fn, *args):
        count = [0]
        new = Fraction.__new__

        def counting_new(cls, *a, **kw):
            count[0] += 1
            return new(cls, *a, **kw)

        patches = {"__new__": staticmethod(counting_new)}
        if "_from_coprime_ints" in vars(Fraction):
            built = Fraction._from_coprime_ints

            def counting_coprime(cls, *a):
                count[0] += 1
                return built(*a)

            patches["_from_coprime_ints"] = classmethod(counting_coprime)
        saved = {name: vars(Fraction)[name] for name in patches}
        for name, value in patches.items():
            setattr(Fraction, name, value)
        try:
            result = fn(*args)
        finally:
            for name, value in saved.items():
                setattr(Fraction, name, value)
        return result, count[0]

    return run
